"""Feature frames must not depend on how the PCM is split across pushes,
and must equal a plain per-frame loop byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liconet.errors import InvalidInputError
from liconet.frontend import FeatureStream, FrontendConfig
from liconet.pipeline import MAX_PASS_STEPS
from reference import htk_mel_centers, logmel_frames_loops

CFG = FrontendConfig()
PCM = np.random.default_rng(31).normal(0.0, 0.2, size=3000)
PCM_INT16 = np.clip(np.round(PCM * 32768.0), -32768, 32767).astype(np.int16)
WHOLE = {
    "float": FeatureStream(CFG).push(PCM),
    "int16": FeatureStream(CFG).push(PCM_INT16),
}


@settings(max_examples=40, deadline=None)
@given(
    cuts=st.lists(st.integers(0, PCM.size), max_size=8),
    dtype=st.sampled_from(sorted(WHOLE)),
)
def test_frames_are_bit_identical_however_the_pcm_is_split(cuts, dtype):
    pcm = PCM if dtype == "float" else PCM_INT16
    stream = FeatureStream(CFG)
    frames = [stream.push(piece) for piece in np.split(pcm, sorted(cuts))]
    got = np.concatenate(frames, axis=1)
    assert WHOLE[dtype].shape == (CFG.n_mels, 17)
    assert got.tobytes() == WHOLE[dtype].tobytes()


def _normalized_config():
    """8 kHz, 23 bands and non-identity normalization statistics."""
    rng = np.random.default_rng(5)
    return FrontendConfig(sample_rate=8000, n_mels=23, norm_mean=rng.normal(size=23),
                          norm_std=rng.uniform(0.5, 2.0, size=23))


CONFIGS = {"default": CFG, "normalized": _normalized_config()}
# 8 s: longer than one block of frames per pass.
LONG = np.random.default_rng(32).normal(0.0, 0.2, size=8 * 16000)


def _pcm(dtype, n):
    pcm = LONG[:n]
    if dtype == "int16":
        return np.clip(np.round(pcm * 32768.0), -32768, 32767).astype(np.int16)
    return pcm


def _expect_oracle(cfg, pcm, pieces):
    stream = FeatureStream(cfg)
    got = np.concatenate([stream.push(p) for p in pieces], axis=1)
    want = logmel_frames_loops(pcm, cfg)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", ["float", "int16"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_10ms_pushes_match_the_frame_loop(name, dtype):
    cfg = CONFIGS[name]
    pcm = _pcm(dtype, 3 * cfg.sample_rate)
    _expect_oracle(cfg, pcm, np.split(pcm, range(cfg.hop_samples, pcm.size, cfg.hop_samples)))


@pytest.mark.parametrize("dtype", ["float", "int16"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_one_long_push_matches_the_frame_loop(name, dtype):
    pcm = _pcm(dtype, LONG.size)
    _expect_oracle(CONFIGS[name], pcm, [pcm])


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_short_and_empty_pushes_emit_nothing_until_a_window_fills(name):
    cfg = CONFIGS[name]
    stream = FeatureStream(cfg)
    for piece in (LONG[:0], LONG[: cfg.window_samples - 1], LONG[:0]):
        assert stream.push(piece).shape == (cfg.n_mels, 0)
    pcm = LONG[: cfg.window_samples - 1]
    pieces = [pcm, LONG[:0], LONG[cfg.window_samples - 1 : cfg.window_samples], LONG[:0]]
    _expect_oracle(cfg, LONG[: cfg.window_samples], pieces)


@settings(max_examples=40, deadline=None)
@given(
    cuts=st.lists(st.integers(0, 40000), max_size=12),
    name=st.sampled_from(sorted(CONFIGS)),
    dtype=st.sampled_from(["float", "int16"]),
)
def test_random_splits_match_the_frame_loop(cuts, name, dtype):
    pcm = _pcm(dtype, 40000)
    _expect_oracle(CONFIGS[name], pcm, np.split(pcm, sorted(cuts)))


@pytest.mark.parametrize(
    "kwargs", [{}, dict(sample_rate=8000, n_mels=23, fmin=20.0, fmax=3800.0)], ids=["default", "8k"]
)
def test_mel_bank_matches_triangles_built_bin_by_bin(kwargs):
    """Filter m rises from edge m to edge m + 1 and falls to edge m + 2, the
    edges being fmin, the HTK mel centers and fmax; each rfft bin k sits at
    k * sample_rate / n_fft, n_fft the power of two at or above the window."""
    cfg = FrontendConfig(**kwargs)
    fmin, fmax = kwargs.get("fmin", 0.0), kwargs.get("fmax", cfg.sample_rate / 2)
    edges = [fmin, *htk_mel_centers(cfg.n_mels, fmin, fmax), fmax]
    win = round(cfg.sample_rate * 0.025)
    n_fft = 1 << (win - 1).bit_length()
    want = np.zeros((cfg.n_mels, n_fft // 2 + 1))
    for m in range(cfg.n_mels):
        lo, mid, hi = edges[m : m + 3]
        for k in range(n_fft // 2 + 1):
            f = k * cfg.sample_rate / n_fft
            if lo < f <= mid:
                want[m, k] = (f - lo) / (mid - lo)
            elif mid < f < hi:
                want[m, k] = (hi - f) / (hi - mid)
    assert cfg.mel_bank.shape == want.shape
    np.testing.assert_allclose(cfg.mel_bank, want, rtol=0, atol=1e-12)


# Every config the frontend and constructor tests accept, and the narrowest
# mel ranges whose filter edges still increase.
ACCEPTED = {
    "default": {},
    "8k": dict(sample_rate=8000, n_mels=23, fmin=20.0, fmax=3800.0),
    "8k-whole-numbers": dict(sample_rate=8000, n_mels=23, hop_ms=10, fmax=4000, log_floor=1),
    "8k-numpy-numbers": dict(sample_rate=np.int64(8000), n_mels=np.int16(23), fmax=np.float32(4000)),
    "16k-fmax-at-nyquist": dict(fmax=8000.0),
    "fmax-1e-11": dict(fmax=1e-11),
    "one-band-fmax-1e-12": dict(n_mels=1, fmax=1e-12),
    "a-micro-hertz-below-nyquist": dict(fmin=7999.999999, fmax=8000.0),
    "one-hertz": dict(sample_rate=1, window_ms=1000, hop_ms=1000, n_mels=1, fmax=0.5),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED))
def test_the_mel_bank_of_an_accepted_config_builds_without_a_floating_point_error(case):
    cfg = FrontendConfig(**ACCEPTED[case])
    with np.errstate(all="raise"):
        bank = cfg.mel_bank
    assert bank.shape[0] == cfg.n_mels and np.isfinite(bank).all()


UNREADABLE = "PCM must be 1-D int16 or float, got {} of shape {}".format
NOT_FINITE = "PCM must be finite: {} {} holds NaN or inf".format


@pytest.mark.parametrize(
    "pcm, message",
    [
        (PCM_INT16.astype(np.int32), UNREADABLE("int32", (3000,))),
        (PCM_INT16.astype(np.uint8), UNREADABLE("uint8", (3000,))),
        (PCM_INT16.reshape(2, 1500), UNREADABLE("int16", (2, 1500))),
        (PCM.reshape(1, 3000), UNREADABLE("float64", (1, 3000))),
        (np.float64(0.5), UNREADABLE("float64", ())),
        (np.where(np.arange(3000) == 7, np.nan, PCM), NOT_FINITE("float64", (3000,))),
        (np.append(PCM, np.inf).astype(np.float32), NOT_FINITE("float32", (3001,))),
    ],
    ids=["int32", "uint8", "2-d-int16", "2-d-float", "scalar", "nan", "inf-float32"],
)
def test_push_refuses_pcm_it_cannot_read_naming_its_dtype_and_shape(pcm, message):
    """Integer PCM other than int16 would be read unscaled, a 2-D array
    would reach numpy's concatenate, and a NaN would surface only as
    non-finite logits steps later; each is refused at the push, which
    leaves the stream as it was."""
    stream = FeatureStream(CFG)
    stream.push(PCM[:100])
    with pytest.raises(InvalidInputError) as exc:
        stream.push(pcm)
    assert str(exc.value) == message
    rest = stream.push(PCM[100:])
    assert rest.tobytes() == WHOLE["float"].tobytes()


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(CONFIGS)),
    dtype=st.sampled_from(["float", "int16"]),
    before=st.sampled_from([0, 1, 3]),
    leftover=st.integers(0, 159),  # reduced mod hop: 160 at 16 kHz, 80 at 8 kHz
    frames=st.sampled_from([0, 1, 2, 3, 300]),
    slack=st.integers(0, 159),
)
def test_framing_a_push_of_no_one_or_many_frames_matches_one_long_push(
    name, dtype, before, leftover, frames, slack
):
    """After `before` frames the buffer holds win - hop + leftover samples,
    leftover in 0 .. hop - 1. A push of frames * hop - leftover + slack
    samples, slack in 0 .. hop - 1, completes exactly `frames` >= 1 frames,
    and one of up to hop - 1 - leftover samples none. One frame takes the
    1-D calls, more the framed pass (300 span two blocks), and every frame,
    those of the pushes after it included, has the bytes of the same frame
    in one long push."""
    cfg = CONFIGS[name]
    hop, win = cfg.hop_samples, cfg.window_samples
    leftover %= hop
    lead = win - hop + leftover + before * hop
    size = frames * hop - leftover + slack % hop if frames else slack % (hop - leftover)
    pcm = _pcm(dtype, lead + size + 5 * hop)
    stream = FeatureStream(cfg)
    first = stream.push(pcm[:lead])
    middle = stream.push(pcm[lead : lead + size])
    rest = [stream.push(pcm[i : i + hop]) for i in range(lead + size, pcm.size, hop)]
    assert first.shape == (cfg.n_mels, before)
    assert middle.shape == (cfg.n_mels, frames)
    whole = FeatureStream(cfg).push(pcm)
    got = np.concatenate([first, middle, *rest], axis=1)
    assert got.shape == whole.shape
    for k in range(whole.shape[1]):
        assert got[:, k].tobytes() == whole[:, k].tobytes()


def _counting_forward(monkeypatch):
    """Record the window count of every transform FrontendConfig runs."""
    calls, forward = [], FrontendConfig.forward

    def counted(cfg, windows, residual=None, source=None):
        calls.append(1 if windows.ndim == 1 else len(windows))
        return forward(cfg, windows, residual, source)

    monkeypatch.setattr(FrontendConfig, "forward", counted)
    return calls


def test_the_stream_is_a_one_channel_stage_over_its_config():
    """The config is the stage's operator, so a stream holds no reference
    to itself; its state starts empty, not on zero samples."""
    stream = FeatureStream(CFG)
    geometry = (stream.channels, stream.kernel, stream.stride, stream.residual_from)
    assert stream.op is CFG and geometry == (1, CFG.window_samples, CFG.hop_samples, None)
    assert stream.state.history.shape == (1, 0)
    assert stream.push(PCM).tobytes() == WHOLE["float"].tobytes()


@pytest.mark.parametrize("dtype", ["float", "int16"])
def test_a_push_that_completes_no_frame_runs_no_transform(monkeypatch, dtype):
    """5 ms pushes complete a frame every other push from the third on;
    the others return an empty block without calling the transform."""
    calls = _counting_forward(monkeypatch)
    pcm = _pcm(dtype, 16000)
    stream = FeatureStream(CFG)
    blocks = [stream.push(pcm[i : i + 80]) for i in range(0, pcm.size, 80)]
    widths = [b.shape[1] for b in blocks]
    assert widths[:5] == [0, 0, 0, 0, 1] and sum(widths) == len(calls) == 98
    assert all(b.shape == (CFG.n_mels, w) for b, w in zip(blocks, widths))
    assert np.concatenate(blocks, axis=1).tobytes() == logmel_frames_loops(pcm, CFG).tobytes()


@pytest.mark.parametrize("size", [0, 80, 160, 400, 16000, 48000])
def test_a_push_transforms_at_most_max_pass_steps_frames_per_call(monkeypatch, size):
    """After 100 samples of history, a push of `size` samples is
    transformed in passes of at most MAX_PASS_STEPS frames, each frame once."""
    calls = _counting_forward(monkeypatch)
    pcm = _pcm("float", 100 + size)
    stream = FeatureStream(CFG)
    stream.push(pcm[:100])
    frames = stream.push(pcm[100:])
    want = logmel_frames_loops(pcm, CFG) if size else np.empty((CFG.n_mels, 0))
    assert frames.tobytes() == want.tobytes() and frames.shape == want.shape
    assert sum(calls) == want.shape[1] and max(calls, default=0) <= MAX_PASS_STEPS
    assert len(calls) == -(-want.shape[1] // MAX_PASS_STEPS)
