"""Feature frames must not depend on how the PCM is split across pushes,
and must equal a plain per-frame loop byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liconet.frontend import FeatureStream, FrontendConfig
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
