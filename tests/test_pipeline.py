"""Engine equivalence, stream state and model-file round trips.

Stages are a shared plan and every stream's state lives in its own
pipeline, so the engines of a model start fresh whatever the pipeline it
wraps has stepped, and calibration leaves the caller's stream alone.

The conv and linear engines are checked against the batch network on
random compliant nets, and the int8 engine against a plain integer loop
(`reference.int8_stream_loops`) and against logits recorded as sha256
digests of their float64 bytes.

`data/tiny_mlp_int8.lcn` (an MLP over 4 frames of 3 features, hidden
widths 4 and 4, 3 classes, stride 3) was written with

    net = build_mlp(4, 3, 4, 4, 3, seed=5)
    lnet = linearize_network(net, 3)
    calib = Tensor2D(np.random.default_rng(11).normal(size=(3, 400)))
    qnet = quantize_network(lnet, calibrate_activations(lnet, calib))
    save_model(Model(qnet, FrontendConfig(n_mels=3),
                     DecoderConfig.default(3, 3, 0.5), 3), path)
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liconet.linearize import linearize_network
from liconet.model import build_lico_net, build_mlp, network_forward, receptive_field
from liconet.modelfile import default_model, load_model, save_model
from liconet.pipeline import Pipeline, PipelineStage
from liconet.quantize import (
    MAX_IN_DIM,
    CalibrationRanges,
    QuantizedLinearLayer,
    StageRange,
    calibrate_activations,
    quantize_network,
)
from liconet.runtime import make_engine
from liconet.tensor import QuantParams, Tensor2D
from reference import int8_stream_loops

DATA = Path(__file__).parent / "data"
FLOAT_TOL = 1e-12


@st.composite
def lico_nets(draw):
    """Compliant LiCo nets; K1 < s1 and residual blocks both occur."""
    c = draw(st.integers(2, 6))
    return build_lico_net(
        c,
        draw(st.integers(1, 3)),
        draw(st.sampled_from([c, draw(st.integers(2, 6))])),  # w == c allows a residual in block 1
        draw(st.integers(2, 3)),
        draw(st.integers(2, 5)),
        draw(st.integers(1, 4)),
        draw(st.integers(2, 4)),
        seed=draw(st.integers(0, 2**30)),
    )


@st.composite
def mlp_nets(draw):
    return build_mlp(
        draw(st.integers(1, 6)),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 6)),
        draw(st.integers(1, 6)),
        draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**30)),
    )


@st.composite
def nets_with_stride(draw):
    if draw(st.booleans()):
        net = draw(lico_nets())
        return net, net.first_stride
    return draw(mlp_nets()), draw(st.integers(1, 4))


def _step_all(engine, x, t):
    return np.concatenate(
        [engine.step_array(x[:, j * t : (j + 1) * t]) for j in range(x.shape[1] // t)], axis=1
    )


@settings(max_examples=60, deadline=None)
@given(case=nets_with_stride(), n_steps=st.integers(1, 12), seed=st.integers(0, 2**30))
def test_conv_and_linear_engines_match_batch(case, n_steps, seed):
    net, t = case
    model = default_model(net, first_stride=t)
    prime = receptive_field(net, t) - t
    x = np.random.default_rng(seed).normal(size=(net.input_features, prime + n_steps * t))
    primed_batch = network_forward(net, Tensor2D(x), t).data[:, :n_steps]
    padded = np.concatenate([np.zeros((net.input_features, prime)), x[:, prime:]], axis=1)
    zero_batch = network_forward(net, Tensor2D(padded), t).data[:, :n_steps]
    assert primed_batch.shape[1] == n_steps
    for engine in ("conv", "linear"):
        primed = make_engine(model, engine)
        primed.prime_array(x[:, :prime])
        out = _step_all(primed, x[:, prime:], t)
        np.testing.assert_allclose(out, primed_batch, rtol=0, atol=FLOAT_TOL)
        out = _step_all(make_engine(model, engine), x[:, prime:], t)
        np.testing.assert_allclose(out, zero_batch, rtol=0, atol=FLOAT_TOL)


# Fixed calibration ranges near the calibrated ones, so the int8 model below
# depends on no float GEMM.
HAND_RANGES = CalibrationRanges(
    -3.5,
    3.75,
    [StageRange(lo, hi) for lo, hi in
     [(0, 1.5), (0, 1), (-0.5, 0.25), (0, 0.125), (0, 0.0625), (-0.5, 0.25), (-0.25, 0.125)]],
)


def _models():
    """One model of each kind; the residual LiCo net has two blocks."""
    lico = build_lico_net(3, 2, 3, 2, 3, 2, 3, seed=8)
    lnet = linearize_network(lico, 2)
    qnet = quantize_network(lnet, HAND_RANGES)
    mlp = build_mlp(4, 3, 5, 4, 3, seed=9)
    return {
        "lico": default_model(lico),
        "mlp": default_model(mlp, first_stride=2),
        "linearized": default_model(lnet),
        "quantized": default_model(qnet),
    }


@pytest.mark.parametrize("kind", ["lico", "mlp", "linearized", "quantized"])
def test_save_load_save_is_byte_identical(tmp_path, kind):
    model = _models()[kind]
    first, second = tmp_path / "a.lcn", tmp_path / "b.lcn"
    save_model(model, first)
    loaded = load_model(first)
    assert loaded.kind == kind
    save_model(loaded, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "kind, engine", [("lico", "conv"), ("mlp", "conv"), ("linearized", "linear"), ("quantized", "int8")]
)
def test_copy_isolates_state_and_reset_equals_fresh(kind, engine):
    model = _models()[kind]
    t = model.first_stride
    x = np.random.default_rng(4).normal(size=(3, 12 * t))
    chunks = [x[:, j * t : (j + 1) * t] for j in range(12)]
    a = make_engine(model, engine)
    for c in chunks[:4]:
        a.step_array(c)
    b = a.copy()
    out_b = [b.step_array(c) for c in chunks[4:]]
    out_a = [a.step_array(c) for c in chunks[4:]]
    np.testing.assert_array_equal(out_a, out_b)
    a.reset()
    fresh = make_engine(model, engine)
    for c in chunks:
        np.testing.assert_array_equal(a.step_array(c), fresh.step_array(c))


def _digest(logits) -> str:
    return hashlib.sha256(np.ascontiguousarray(logits, dtype="<f8").tobytes()).hexdigest()


def _int8_logits(model, n_steps=200, seed=2022, primed=True):
    t = model.first_stride
    prime = model.receptive_field - t if primed else 0
    x = np.random.default_rng(seed).normal(size=(model.net.input_features, prime + n_steps * t))
    engine = make_engine(model, "int8")
    if primed:
        engine.prime_array(x[:, :prime])
    return _step_all(engine, x[:, prime:], t)


def test_int8_fixture_golden():
    model = load_model(DATA / "tiny_mlp_int8.lcn")
    assert model.kind == "quantized"
    assert _digest(_int8_logits(model)) == (
        "b98d17aa6b1c9f7185a0c695e05a6506147640a78144082089c0053af08d0fc1"
    )
    assert _digest(_int8_logits(model, primed=False)) == (
        "1005664301948cdea7dbde03d34239f7c49b9ce749f591756c5211924d4c68da"
    )


def test_int8_residual_golden():
    model = _models()["quantized"]
    assert _digest(_int8_logits(model)) == (
        "5cfaaa05ebf52b3d7e8d83da2bcf183d60844c1cbdda45b3b24da9a8fd4fd87b"
    )
    assert _digest(_int8_logits(model, primed=False)) == (
        "2f9ce7953ee03555f656f840fa4c7f4b868844cfdc0e08bb1a11d9fc19256f7e"
    )


def _oracle(stages, x, primed) -> np.ndarray:
    plain = [
        {
            "weights": st.op.weights.tolist(),
            "bias": st.op.bias.tolist(),
            "w_scale": st.op.weight_params.scale,
            "in_scale": st.op.in_params.scale,
            "in_zp": st.op.in_params.zero_point,
            "out_scale": st.op.out_params.scale,
            "out_zp": st.op.out_params.zero_point,
            "relu": st.op.activation == "relu",
            "kernel": st.kernel,
            "stride": st.stride,
            "residual_from": st.residual_from,
        }
        for st in stages
    ]
    return np.array(int8_stream_loops(plain, x.tolist(), primed)).T


@settings(max_examples=30, deadline=None)
@given(case=nets_with_stride(), n_steps=st.integers(1, 6), seed=st.integers(0, 2**30))
def test_int8_engine_matches_the_integer_oracle(case, n_steps, seed):
    """Inputs at twice the calibration spread also exercise both clips."""
    net, t = case
    rng = np.random.default_rng(seed)
    lnet = linearize_network(net, t)
    calib = Tensor2D(rng.normal(size=(net.input_features, 4 * t)))
    model = default_model(quantize_network(lnet, calibrate_activations(lnet, calib)))
    prime = model.receptive_field - t
    x = 2 * rng.normal(size=(net.input_features, prime + n_steps * t))
    primed = make_engine(model, "int8")
    primed.prime_array(x[:, :prime])
    got = _step_all(primed, x[:, prime:], t)
    assert got.tobytes() == _oracle(model.stages, x, primed=True).tobytes()
    got = _step_all(make_engine(model, "int8"), x[:, prime:], t)
    assert got.tobytes() == _oracle(model.stages, x[:, prime:], primed=False).tobytes()


def test_int8_accumulator_is_exact_at_max_in_dim():
    """in_dim = MAX_IN_DIM with weights +-127 and codes 255 from the zero
    point: the accumulator reaches 127 * 255 * MAX_IN_DIM, and the biases
    put the first step's requantized values on ties (+-126.5), which round
    away from zero only if every unit of the sum is kept."""
    w = np.where(np.random.default_rng(3).random((MAX_IN_DIM, 3)) < 0.5, -127, 127)
    w[:, 0], w[:, 1] = 127, -127
    one = QuantParams(1.0, 0)
    op = QuantizedLinearLayer(
        w, [-16384, 16384, 0], one, QuantParams(1.0, -128), QuantParams(2.0**22, 0), "none"
    )
    stage = PipelineStage("wide", op, MAX_IN_DIM, 1, 1)
    rng = np.random.default_rng(4)
    x = np.concatenate([np.full((MAX_IN_DIM, 1), 1e3), rng.choice([-1e3, 1e3], (MAX_IN_DIM, 3))], 1)
    got = _step_all(Pipeline([stage]), x, 1)
    assert got[:2, 0].tolist() == [127 * 2.0**22, -127 * 2.0**22]
    assert got.tobytes() == _oracle([stage], x, primed=False).tobytes()


@pytest.mark.parametrize(
    "kind, engine",
    [("lico", "conv"), ("mlp", "linear"), ("linearized", "linear"), ("quantized", "int8")],
)
def test_engines_of_one_model_step_independently(kind, engine):
    model = _models()[kind]
    t = model.first_stride
    rng = np.random.default_rng(6)
    xa, xb = rng.normal(size=(2, 3, 10 * t))
    a, b = make_engine(model, engine), make_engine(model, engine)
    out_a, out_b = [], []
    for j in range(0, 10 * t, t):
        out_a.append(a.step_array(xa[:, j : j + t]))
        out_b.append(b.step_array(xb[:, j : j + t]))
    for out, x in ((out_a, xa), (out_b, xb)):
        alone = _step_all(make_engine(model, engine), x, t)
        np.testing.assert_array_equal(np.concatenate(out, axis=1), alone)


@settings(max_examples=25, deadline=None)
@given(case=nets_with_stride(), n_steps=st.integers(1, 6), seed=st.integers(0, 2**30))
def test_engines_of_a_stepped_pipeline_start_fresh(case, n_steps, seed):
    net, t = case
    x = np.random.default_rng(seed).normal(size=(net.input_features, n_steps * t))
    lnet = linearize_network(net, t)
    qnet = quantize_network(lnet, calibrate_activations(lnet, Tensor2D(x)))
    for engine, pipe in (("linear", lnet), ("int8", qnet)):
        want = _step_all(make_engine(default_model(pipe), engine), x, t)
        _step_all(pipe, x, t)
        model = default_model(pipe)
        got = make_engine(model, engine)
        assert all(a is b for a, b in zip(got.stages, model.stages))
        np.testing.assert_array_equal(_step_all(got, x, t), want)


@settings(max_examples=25, deadline=None)
@given(case=nets_with_stride(), n_steps=st.integers(1, 6), seed=st.integers(0, 2**30))
def test_calibration_and_quantization_leave_the_stream_alone(case, n_steps, seed):
    net, t = case
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(net.input_features, n_steps * t))
    lnet = linearize_network(net, t)
    _step_all(lnet, x, t)
    before = lnet.copy()
    quantize_network(lnet, calibrate_activations(lnet, Tensor2D(rng.normal(size=x.shape))))
    chunk = rng.normal(size=(net.input_features, t))
    np.testing.assert_array_equal(lnet.step_array(chunk), before.step_array(chunk))
