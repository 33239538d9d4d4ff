"""Streaming runtime tests: run_stream on float and linearized model files
against the batch network on the same feature frames, and against itself
on the same PCM split at random points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liconet.cli import main as cli_main
from liconet.decoder import PosteriorFrame, softmax
from liconet.frontend import FeatureStream
from liconet.linearize import linearize_network
from liconet.model import build_lico_net, build_mlp, network_forward
from liconet.modelfile import Model, default_model, load_model, save_model
from liconet.quantize import calibrate_activations, quantize_network
from liconet.runtime import run_stream
from liconet.tensor import Tensor2D


# Models whose first kernel is shorter than their first stride (K1 < s1),
# as `liconet init` arguments; no preset holds a one-block net, so that one
# is built directly.
SHORT_FIRST_KERNEL = {
    "lico-small-stride5": ["--arch", "lico", "--preset", "small", "--stride", "5"],
    "lico-1block-k2-s3": None,
    "mlp-small-stride25": ["--arch", "mlp", "--preset", "small", "--stride", "25"],
}


@pytest.fixture(params=sorted(SHORT_FIRST_KERNEL))
def model_files(request, tmp_path):
    """(float file, linearized file) for one K1 < s1 model."""
    float_path = tmp_path / "float.lcn"
    lin_path = tmp_path / "linear.lcn"
    init_args = SHORT_FIRST_KERNEL[request.param]
    if init_args is None:
        save_model(default_model(build_lico_net(40, 1, 8, 2, 2, 3, 5, seed=3)), float_path)
    else:
        assert cli_main(["init", *init_args, "--out", str(float_path)]) == 0
    assert cli_main(["linearize", str(float_path), "--out", str(lin_path)]) == 0
    return float_path, lin_path


@pytest.mark.parametrize("chunk_samples", [None, 160])
@pytest.mark.parametrize("which", ["conv", "linear"])
def test_short_first_kernel_stream_matches_batch(model_files, which, chunk_samples):
    float_path, lin_path = model_files
    model = load_model(float_path if which == "conv" else lin_path)
    float_net = load_model(float_path).net
    t = model.first_stride
    rf = model.receptive_field
    assert rf - t >= 0 and (rf - t) % t == 0

    pcm = np.random.default_rng(7).normal(0.0, 0.1, size=24000)
    features = FeatureStream(model.frontend).push(pcm)
    n_frames = features.shape[1]
    batch = network_forward(float_net, Tensor2D(features), t).data

    chunks = [pcm] if chunk_samples is None else [
        pcm[i : i + chunk_samples] for i in range(0, pcm.size, chunk_samples)
    ]
    results = list(run_stream(model, chunks, engine=which))
    assert len(results) == (n_frames - rf) // t + 1
    assert batch.shape[1] >= len(results)
    for k, res in enumerate(results):
        np.testing.assert_allclose(res.posterior.probs, softmax(batch[:, k]), rtol=0, atol=1e-12)


# A LiCo net stepping every 3 frames and an MLP stepping every frame.
SPLIT_MODELS = {
    "lico-s3": default_model(build_lico_net(40, 2, 8, 2, 3, 3, 5, seed=2), first_stride=3),
    "mlp-s1": default_model(build_mlp(5, 40, 16, 32, 4, seed=2), first_stride=1),
}
SPLIT_PCM = np.random.default_rng(5).normal(0.0, 0.2, size=12000)


def _results(model, chunks, engine="linear"):
    """Every field of each StepResult, probabilities as raw bytes; the low
    threshold makes events fire."""
    return [
        (r.step, r.time_s, r.posterior.timestamp, r.posterior.probs.tobytes(),
         r.smoothed.timestamp, r.smoothed.probs.tobytes(), r.score, r.event)
        for r in run_stream(model, chunks, engine=engine, threshold=0.05)
    ]


WHOLE_RESULTS = {name: _results(m, [SPLIT_PCM]) for name, m in SPLIT_MODELS.items()}


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(SPLIT_MODELS)),
    cuts=st.lists(st.integers(0, SPLIT_PCM.size), max_size=8),
)
def test_step_results_do_not_depend_on_how_the_pcm_is_split(name, cuts):
    whole = WHOLE_RESULTS[name]
    assert any(event is not None for *_, event in whole)
    assert _results(SPLIT_MODELS[name], np.split(SPLIT_PCM, sorted(cuts))) == whole


def _quantized(model):
    """The model linearized and quantized, calibrated on audio of its own seed."""
    lnet = linearize_network(model.net, model.first_stride)
    pcm = np.random.default_rng(6).normal(0.0, 0.2, size=8000)
    calib = Tensor2D(FeatureStream(model.frontend).push(pcm))
    qnet = quantize_network(lnet, calibrate_activations(lnet, calib))
    return Model(qnet, model.frontend, model.decoder, model.first_stride)


SPLIT_INT8_MODELS = {name: _quantized(m) for name, m in SPLIT_MODELS.items()}
WHOLE_INT8_RESULTS = {
    name: _results(m, [SPLIT_PCM], engine="int8") for name, m in SPLIT_INT8_MODELS.items()
}


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(SPLIT_INT8_MODELS)),
    cuts=st.lists(st.integers(0, SPLIT_PCM.size), max_size=8),
)
def test_int8_step_results_do_not_depend_on_how_the_pcm_is_split(name, cuts):
    """A push of many strides runs through int8 in one pass; the bytes must
    not depend on how many strides a push completes."""
    whole = WHOLE_INT8_RESULTS[name]
    assert any(event is not None for *_, event in whole)
    chunks = np.split(SPLIT_PCM, sorted(cuts))
    assert _results(SPLIT_INT8_MODELS[name], chunks, engine="int8") == whole


@pytest.mark.parametrize("pushes", ["10ms", "whole"])
@pytest.mark.parametrize("engine", ["linear", "int8"])
@pytest.mark.parametrize("name", sorted(SPLIT_MODELS))
def test_every_step_posterior_is_read_only_non_negative_and_sums_to_one(name, engine, pushes):
    """The frames run_stream yields are computed, not checked on the way:
    softmax and smoothing must give them these properties on their own."""
    model = (SPLIT_MODELS if engine == "linear" else SPLIT_INT8_MODELS)[name]
    chunks = np.split(SPLIT_PCM, range(160, SPLIT_PCM.size, 160) if pushes == "10ms" else [])
    results = list(run_stream(model, chunks, engine=engine))
    assert results
    for res in results:
        for frame in (res.posterior, res.smoothed):
            assert frame.timestamp == res.step and frame.probs.ndim == 1
            assert not frame.probs.flags.writeable
            assert frame.probs.min() >= 0.0
            assert abs(frame.probs.sum() - 1.0) <= 1e-6


def test_run_stream_checks_no_frame_it_computes(monkeypatch):
    """A frame built by PosteriorFrame(...) is checked; run_stream builds
    every frame from checked logits and must not pay for a second check."""
    checks = []
    check = PosteriorFrame.__post_init__
    monkeypatch.setattr(PosteriorFrame, "__post_init__", lambda f: checks.append(check(f)))
    results = list(run_stream(SPLIT_MODELS["mlp-s1"], [SPLIT_PCM]))
    assert results and not checks
    PosteriorFrame(0, [0.5, 0.5])
    assert len(checks) == 1


@pytest.mark.parametrize("name", sorted(SPLIT_INT8_MODELS))
def test_int8_10ms_pushes_match_one_whole_push(name):
    pushes = np.split(SPLIT_PCM, range(160, SPLIT_PCM.size, 160))
    assert _results(SPLIT_INT8_MODELS[name], pushes, engine="int8") == WHOLE_INT8_RESULTS[name]


def test_int8_push_of_more_steps_than_one_pass_takes():
    """3.2 s at stride 1 is about 300 steps, more than run_stream hands the
    engine at once."""
    model = SPLIT_INT8_MODELS["mlp-s1"]
    pcm = np.random.default_rng(8).normal(0.0, 0.2, size=51200)
    whole = _results(model, [pcm], engine="int8")
    assert len(whole) > 256
    assert _results(model, np.split(pcm, range(160, pcm.size, 160)), engine="int8") == whole


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("preset", ["large", "small"])
@pytest.mark.parametrize("arch", ["lico", "mlp"])
def test_a_float_file_on_conv_steps_as_its_linearized_file_on_linear(tmp_path, arch, preset, stride):
    """Both hold each stage's weights as one row-major (in, out) array, so
    their StepResults agree byte for byte, in 10 ms pushes and one whole push."""
    float_path, lin_path = tmp_path / "float.lcn", tmp_path / "linear.lcn"
    argv = ["init", "--arch", arch, "--preset", preset, "--stride", str(stride), "--seed", "1"]
    assert cli_main(argv + ["--out", str(float_path)]) == 0
    assert cli_main(["linearize", str(float_path), "--out", str(lin_path)]) == 0
    float_model, lin_model = load_model(float_path), load_model(lin_path)
    for pushes in ([SPLIT_PCM], np.split(SPLIT_PCM, range(160, SPLIT_PCM.size, 160))):
        conv = _results(float_model, pushes, engine="conv")
        assert conv and conv == _results(lin_model, pushes, engine="linear")
