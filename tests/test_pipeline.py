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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liconet.errors import ShapeError
from liconet.linearize import linearize_network
from liconet.model import build_lico_net, build_mlp, network_forward, receptive_field
from liconet.modelfile import default_model, load_model, save_model
from liconet.pipeline import LinearLayer, Pipeline, PipelineStage, windows
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


@settings(max_examples=30, deadline=None)
@given(case=nets_with_stride(), n_steps=st.integers(1, 12), seed=st.integers(0, 2**30))
def test_one_call_over_n_strides_equals_n_single_stride_calls(case, n_steps, seed):
    """Bit for bit on every engine, primed, and for the step after it."""
    net, t = case
    rng = np.random.default_rng(seed)
    lnet = linearize_network(net, t)
    calib = Tensor2D(rng.normal(size=(net.input_features, 4 * t)))
    qnet = quantize_network(lnet, calibrate_activations(lnet, calib))
    models = {
        "conv": default_model(net, first_stride=t),
        "linear": default_model(lnet),
        "int8": default_model(qnet),
    }
    prime = receptive_field(net, t) - t
    x = 2 * rng.normal(size=(net.input_features, prime + (n_steps + 1) * t))
    body, last = x[:, prime:-t], x[:, -t:]
    for engine, model in models.items():
        whole, single = make_engine(model, engine), make_engine(model, engine)
        whole.prime_array(x[:, :prime])
        single.prime_array(x[:, :prime])
        assert whole.step_array(body).tobytes() == _step_all(single, body, t).tobytes()
        assert whole.step_array(last).tobytes() == single.step_array(last).tobytes()


@pytest.mark.parametrize(
    "kind, engine", [("lico", "conv"), ("linearized", "linear"), ("quantized", "int8")]
)
def test_step_array_rejects_frames_that_are_not_whole_strides(kind, engine):
    model = _models()[kind]
    eng = make_engine(model, engine)
    assert model.first_stride == 2
    for shape in [(3, 0), (3, 1), (3, 3), (3, 5), (2, 2), (4, 4), (6,), (1, 3, 2)]:
        with pytest.raises(ShapeError):
            eng.step_array(np.zeros(shape))
    assert eng.step_array(np.zeros((3, 6))).shape == (3, 3)


def _split_case(kind, in_dim, out_dim, n, activation, rng):
    """An operator with random weights, n windows for it and residual
    columns in its output encoding; int8 ones hold codes minus zero point."""
    if kind == "float":
        op = LinearLayer(rng.normal(size=(in_dim, out_dim)), rng.normal(size=out_dim), activation)
        return op, rng.normal(size=(n, in_dim)), rng.normal(size=(out_dim, n))
    out_scale = 0.01 * 0.05 * 127 * 60 * np.sqrt(in_dim) / 64  # most outputs miss the clip
    op = QuantizedLinearLayer(
        rng.integers(-127, 128, (in_dim, out_dim)),
        rng.integers(-(2**20), 2**20, out_dim),
        QuantParams(0.01),
        QuantParams(0.05, -3),
        QuantParams(out_scale, 7),
        activation,
    )
    win = rng.integers(-125, 131, (n, in_dim)).astype(np.float64)
    return op, win, rng.integers(-125, 131, (out_dim, n)).astype(np.float64)


@settings(max_examples=40, deadline=None)
@given(
    in_dim=st.integers(1, 900),
    out_dim=st.integers(1, 96),
    n=st.integers(1, 300),
    relu=st.booleans(),
    seed=st.integers(0, 2**30),
)
@example(in_dim=200, out_dim=32, n=300, relu=False, seed=0)
@example(in_dim=192, out_dim=32, n=256, relu=True, seed=1)
@example(in_dim=840, out_dim=80, n=300, relu=True, seed=2)
def test_forward_over_n_windows_equals_n_split_calls(in_dim, out_dim, n, relu, seed):
    """Bit for bit on both operators, with and without a residual; an
    int8 residual is in the operator's own in_params."""
    rng = np.random.default_rng(seed)
    for kind in ("float", "int8"):
        op, win, res = _split_case(kind, in_dim, out_dim, n, "relu" if relu else "none", rng)
        for residual in (None, res):
            whole = op.forward(win, residual, op)
            assert whole.shape == (out_dim, n)
            for j in range(n):
                r = None if residual is None else residual[:, j : j + 1]
                single = op.forward(win[j : j + 1], r, op)
                assert whole[:, j].tobytes() == single[:, 0].tobytes(), (kind, residual is None, j)


@settings(max_examples=8, deadline=None)
@given(case=nets_with_stride(), n_steps=st.integers(257, 600), seed=st.integers(0, 2**30))
def test_calibration_split_into_passes_matches_a_per_stride_loop(case, n_steps, seed):
    """Ranges over more strides than one pass takes, against one run per
    stride; frames after the last whole stride are left out."""
    net, t = case
    lnet = linearize_network(net, t)
    x = np.random.default_rng(seed).normal(size=(net.input_features, n_steps * t + t - 1))
    ranges = calibrate_activations(lnet, Tensor2D(x))
    stream = Pipeline(lnet.stages)
    lo, hi = [np.inf] * len(lnet.stages), [-np.inf] * len(lnet.stages)
    for j in range(n_steps):
        for k, out in enumerate(stream.run(x[:, j * t : (j + 1) * t])):
            lo[k], hi[k] = min(lo[k], float(out.min())), max(hi[k], float(out.max()))
    assert ranges.stage_ranges == tuple(StageRange(a, b) for a, b in zip(lo, hi))
    used = x[:, : n_steps * t]
    assert (ranges.input_min, ranges.input_max) == (float(used.min()), float(used.max()))


@pytest.mark.parametrize("kind, engine", [("lico", "conv"), ("linearized", "linear")])
def test_split_of_a_residual_first_block_from_a_file_leaves_its_bits(tmp_path, kind, engine):
    """A first block with a residual (stride 1, width = input features)
    adds the input frames to its output, so a kernel-1 stage after it can
    be handed strided window rows; one call over n strides must still
    equal n one-stride calls, on nets loaded from a file."""
    rng = np.random.default_rng(31)
    for i in range(12):
        width, classes = int(rng.integers(2, 9)), 1 + i % 3
        net = build_lico_net(width, int(rng.integers(1, 4)), width, int(rng.integers(2, 5)),
                             int(rng.integers(2, 6)), 1, classes, seed=int(rng.integers(1 << 30)))
        path = tmp_path / f"{i}.lcn"
        save_model(default_model(net if kind == "lico" else linearize_network(net, 1)), path)
        model = load_model(path)
        prime = model.receptive_field - 1
        x = rng.normal(size=(width, prime + 40))
        whole, single = make_engine(model, engine), make_engine(model, engine)
        whole.prime_array(x[:, :prime])
        single.prime_array(x[:, :prime])
        body = x[:, prime:]
        assert whole.step_array(body).tobytes() == _step_all(single, body, 1).tobytes()


@pytest.mark.parametrize(
    "kind, engine", [("lico", "conv"), ("mlp", "conv"), ("linearized", "linear"), ("quantized", "int8")]
)
def test_prime_array_takes_only_a_prefix_on_the_stride_grid(kind, engine):
    """RF - s1 + k * s1 frames of the net's width, which leave every stage
    exactly max(K - s, 0) columns; any other prefix is refused."""
    model = _models()[kind]
    eng = make_engine(model, engine)
    t, lead = model.first_stride, model.receptive_field - model.first_stride
    assert t == 2 and lead >= 2
    for shape in [(3, lead + 1), (3, lead - 1), (3, lead + 2 * t - 1), (2, lead), (4, lead + t),
                  (lead,), (1, 3, lead)]:
        with pytest.raises(ShapeError):
            eng.prime_array(np.zeros(shape))
    for k in (0, 1, 3):
        eng.prime_array(np.ones((3, lead + k * t)))
        assert [s.history.shape[1] for s in eng.states] == [st.history_len for st in eng.stages]


@pytest.mark.parametrize(
    "kind, engine", [("lico", "conv"), ("mlp", "conv"), ("quantized", "int8")]
)
@pytest.mark.parametrize("k", [1, 3])
def test_a_prime_over_k_more_strides_equals_a_prime_then_k_steps(kind, engine, k):
    model = _models()[kind]
    t, lead = model.first_stride, model.receptive_field - model.first_stride
    x = 2 * np.random.default_rng(k).normal(size=(3, lead + (k + 6) * t))
    long, short = make_engine(model, engine), make_engine(model, engine)
    long.prime_array(x[:, : lead + k * t])
    short.prime_array(x[:, :lead])
    _step_all(short, x[:, lead : lead + k * t], t)
    for a, b in zip(long.states, short.states):
        assert a.history.tobytes() == b.history.tobytes()
    rest = x[:, lead + k * t :]
    assert long.step_array(rest).tobytes() == short.step_array(rest).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    c=st.integers(1, 5),
    k=st.integers(1, 6),
    s=st.integers(1, 6),
    n=st.sampled_from([0, 1, 2, 7]),
    extra=st.integers(0, 5),
    transposed=st.booleans(),
    seed=st.integers(0, 2**30),
)
def test_framing_equals_a_per_window_slice_loop(c, k, s, n, extra, transposed, seed):
    """n = (T - max(K, s)) // s + 1 windows, or none, over a contiguous
    buffer or an operator's transposed (n, out) output: every row equals
    its slice and is unit-stride, and views of many windows are read-only."""
    span = max(k, s)
    t = span + (n - 1) * s + extra % s if n else extra % span
    data = np.random.default_rng(seed).normal(size=(t, c) if transposed else (c, t))
    buf = data.T if transposed else data
    rows = windows(buf, k, s)
    loop = [buf[:, i * s : i * s + k].reshape(-1) for i in range(n)]
    assert rows.shape == (n, c * k)
    assert rows.tobytes() == np.array(loop).reshape(n, c * k).tobytes()
    assert n == 0 or rows.strides[1] == rows.itemsize
    if n > 1 and np.shares_memory(rows, buf):
        assert not rows.flags.writeable


def test_framing_leaves_a_partial_stride_in_the_history():
    """With K1 < s1 a first-stage window needs a whole stride of frames, not
    only its kernel, so a run over 9 frames equals runs over 2 and 7."""
    net = build_lico_net(3, 1, 4, 2, 2, 3, 2, seed=0)
    lnet = linearize_network(net, 3)
    calib = Tensor2D(np.random.default_rng(1).normal(size=(3, 120)))
    qnet = quantize_network(lnet, calibrate_activations(lnet, calib))
    x = np.random.default_rng(2).normal(size=(3, 9))
    for built, engine in ((net, "conv"), (lnet, "linear"), (qnet, "int8")):
        model = default_model(built, first_stride=3)
        whole, split = make_engine(model, engine), make_engine(model, engine)
        out = whole.run(x)[-1]
        parts = [split.run(x[:, :2])[-1], split.run(x[:, 2:])[-1]]
        assert out.shape[1] == 3
        assert np.concatenate(parts, axis=1).tobytes() == out.tobytes()
        for a, b in zip(whole.states, split.states):
            assert a.history.tobytes() == b.history.tobytes()


class _Untouchable:
    """An operator of out_dim 3 that must not be called."""

    out_dim = 3

    def forward(self, windows, residual=None, source=None):
        raise AssertionError("the operator ran on input that completes no window")


@pytest.mark.parametrize("k, s", [(4, 1), (2, 3), (5, 2)])
def test_advance_over_input_that_completes_no_window_calls_no_operator(k, s):
    """Each call holds fewer than max(K, s) columns in all: it gives an
    (out_dim, 0) block and keeps every column, in order, as the history,
    never the caller's array itself."""
    stage = PipelineStage("probe", _Untouchable(), 2, k, s)
    state = stage.fresh_state(s)
    state.history = np.zeros((2, 0))
    cols = np.arange(2.0 * (max(k, s) - 1)).reshape(2, -1)
    seen = []
    for j in range(cols.shape[1] + 1):
        piece = cols[:, j : j + 1]
        out = stage.advance(state, piece)
        assert out.shape == (3, 0)
        seen.append(piece)
        want = np.concatenate(seen, axis=1)
        assert state.history.tobytes() == want.tobytes() and state.history.shape == want.shape
        assert not np.shares_memory(state.history, cols)


@pytest.mark.parametrize("k, s", [(5, 3), (2, 3), (4, 1), (1, 1)])
def test_a_state_never_keeps_the_callers_columns(k, s):
    """A live step may keep a view of the buffer it built, never of the
    columns it was handed, also when they end mid-stride: writing to them
    afterwards changes no output."""
    rng = np.random.default_rng(k * 10 + s)
    op = LinearLayer(rng.normal(size=(2 * k, 3)), rng.normal(size=3))
    x = rng.normal(size=(2, 12 * s))
    stages = [PipelineStage("probe", op, 2, k, s) for _ in range(2)]
    states = [st.fresh_state(s) for st in stages]
    for state in states:
        state.history = np.zeros((2, 0))  # so the first call's buffer is the caller's columns
    outs = {0: [], 1: []}
    cuts = np.cumsum([s + 1, s, max(s - 1, 1), s, 2 * s])  # then one pass of the rest
    for chunk in np.split(x, cuts, axis=1):
        for j, (st, state) in enumerate(zip(stages, states)):
            cols = chunk.copy()
            outs[j].append(st.advance(state, cols))
            if j:
                cols[:] = np.nan
            assert not np.shares_memory(state.history, cols)
    assert np.concatenate(outs[1], axis=1).tobytes() == np.concatenate(outs[0], axis=1).tobytes()
