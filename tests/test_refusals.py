"""Refusals that no other test reaches: each call raises the error type
named beside it, with a message that holds the fragment given."""

import json
import struct
from dataclasses import replace

import numpy as np
import pytest

from liconet.conv import apply_activation
from liconet.decoder import DecoderConfig, DetectionEvent, KeywordDecoder, PosteriorFrame
from liconet.errors import CalibrationError, ConfigError, InvalidInputError, ManifestError
from liconet.errors import ShapeError
from liconet.frontend import FrontendConfig
from liconet.linearize import linearize_network
from liconet.model import build_lico_block, build_lico_net, build_mlp, network_forward, stage_plan
from liconet.model import receptive_field
from liconet.modelfile import default_model, load_model, save_model
from liconet.pipeline import LinearLayer, PipelineStage, check_geometry
from liconet.quantize import QuantizedLinearLayer, calibrate_activations, quantize_network
from liconet.runtime import make_engine
from liconet.tensor import QuantParams, Tensor2D, choose_quant_params


def _mlp():
    return build_mlp(4, 3, 5, 4, 3, seed=0)


def _lico():
    return build_lico_net(4, 1, 4, 2, 3, 1, 3, seed=0)


def _lnet():
    return linearize_network(_mlp(), 1)


def _qlayer(in_dim=4, weight_zero_point=0):
    p = QuantParams(0.1, 0)
    weights, bias = np.ones((in_dim, 2), np.int8), np.zeros(2, np.int32)
    return QuantizedLinearLayer(weights, bias, QuantParams(0.1, weight_zero_point), p, p, "relu")


def _coded(weight=1, bias=0):
    """A QuantizedLinearLayer whose first weight and first bias codes are those given."""
    p = QuantParams(0.1, 0)
    return QuantizedLinearLayer(np.array([[weight, 1], [1, 1]]), np.array([bias, 0]), p, p, p,
                                "relu")


def _short_ranges():
    lnet = _lnet()
    ranges = calibrate_activations(lnet, Tensor2D(np.random.default_rng(0).normal(size=(3, 20))))
    return lnet, replace(ranges, stage_ranges=ranges.stage_ranges[:-1])


def _stage(name, in_dim, channels, kernel, residual_from=None):
    op = LinearLayer(np.ones((in_dim, 2)), np.zeros(2))
    return PipelineStage(name, op, channels, kernel, 1, residual_from)


def _geometry(channels, kernel, stride):
    return PipelineStage("a", LinearLayer(np.ones((4, 2)), np.zeros(2)), channels, kernel, stride)


def _decode(*class_counts):
    """Frames of the given class counts, in order, through one decoder of keyword id 2."""
    decoder = KeywordDecoder(DecoderConfig(3, 1, (2,)))
    for c in class_counts:
        decoder.update(PosteriorFrame(0, np.full(c, 1 / c)))


def _kind_svdf(tmp_path):
    """A saved model whose manifest names a kind no loader knows."""
    path = tmp_path / "m.lcn"
    save_model(default_model(_mlp()), path)
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 6)
    manifest = json.loads(raw[10 : 10 + n])
    manifest["kind"] = "svdf"
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:6] + struct.pack("<I", len(payload)) + payload + raw[10 + n :])
    load_model(path)


# name: (call, error, a fragment of its message); every call takes tmp_path.
CASES = {
    "int8-weight-zero-point": (lambda _: _qlayer(weight_zero_point=1), ConfigError, "symmetric"),
    "int8-in-dim": (lambda _: _qlayer(in_dim=16385), ConfigError, "in_dim 16385"),
    "int8-weight-128": (lambda _: _coded(weight=128), ConfigError, "weights must be whole int8"),
    "int8-weight-minus-129": (lambda _: _coded(weight=-129), ConfigError, "[-128, 127]"),
    "int8-weight-half": (lambda _: _coded(weight=0.5), ConfigError, "weights must be whole int8"),
    "int8-weight-nan": (lambda _: _coded(weight=np.nan), ConfigError, "weights must be whole"),
    "int8-bias-2-to-the-31": (
        lambda _: _coded(bias=2**31), ConfigError, "bias must be whole int32 codes",
    ),
    "int8-bias-half": (lambda _: _coded(bias=0.5), ConfigError, "[-2147483648, 2147483647]"),
    "calibration-channels": (
        lambda _: calibrate_activations(_lnet(), Tensor2D(np.zeros((2, 10)))), ShapeError,
        "2 channels, expected 3",
    ),
    "one-range-too-few": (
        lambda _: quantize_network(*_short_ranges()), CalibrationError,
        "ranges for 2 stages, pipeline has 3",
    ),
    "no-stages": (lambda _: check_geometry([]), ShapeError, "at least one stage"),
    "stage-channels-0": (lambda _: _geometry(0, 4, 1), ShapeError, "(0, 4, 1) must be integers"),
    "stage-kernel-0": (lambda _: _geometry(1, 0, 1), ShapeError, "(1, 0, 1) must be integers"),
    "stage-stride-0": (lambda _: _geometry(1, 4, 0), ShapeError, "(1, 4, 0) must be integers"),
    "kernel-3-inside-a-residual": (
        lambda _: check_geometry(
            [_stage("a", 2, 2, 1), _stage("b", 6, 2, 3), _stage("c", 2, 2, 1, residual_from=0)]
        ),
        ShapeError,
        "c: stages after its residual source must be pointwise",
    ),
    "plan-of-an-object": (lambda _: stage_plan(object()), ConfigError, "unsupported network"),
    "mlp-stride-0": (lambda _: stage_plan(_mlp(), 0), ConfigError, "stride must be >= 1"),
    "forward-channels": (
        lambda _: network_forward(_mlp(), Tensor2D(np.zeros((2, 10)))), ShapeError,
        "input has 2 channels, network expects 3",
    ),
    "block-width-0": (lambda _: build_lico_block(4, 0, 2, 3, 1, 0), ConfigError, "widths"),
    "net-no-blocks": (lambda _: build_lico_net(4, 0, 4, 2, 3, 1, 3, 0), ConfigError, "block"),
    "net-no-classes": (lambda _: build_lico_net(4, 1, 4, 2, 3, 1, 0, 0), ConfigError, "class"),
    "mlp-zero-dimension": (lambda _: build_mlp(4, 3, 0, 4, 3, 0), ConfigError, "positive"),
    "engine-fp16": (
        lambda _: make_engine(default_model(_mlp()), "fp16"), ConfigError, "engine must be one of",
    ),
    "kind-svdf": (_kind_svdf, ManifestError, "unknown model kind 'svdf'"),
    "window-below-smoothing": (lambda _: DecoderConfig(3, 5, (1,)), ConfigError, "window"),
    "decoder-frame-without-the-keyword": (
        lambda _: _decode(2), InvalidInputError, "a frame of 2 classes, keyword ids need 3",
    ),
    "decoder-class-count-changes": (
        lambda _: _decode(3, 3, 4), InvalidInputError, "a frame of 4 classes, the stream has 3",
    ),
    "frontend-hop-under-a-sample": (
        lambda _: FrontendConfig(hop_ms=0.02), ConfigError,
        "hop 0.02 ms is under one sample at 16000 Hz",
    ),
    "probs-3-d": (
        lambda _: PosteriorFrame(0, np.full((2, 2, 2), 0.5)), InvalidInputError, "shape (2, 2, 2)",
    ),
    "score-1.5": (lambda _: DetectionEvent(0, 1.5), InvalidInputError, "outside [0, 1]"),
    "activation-tanh": (
        lambda _: apply_activation(Tensor2D(np.zeros((1, 2))), "tanh"), ConfigError, "tanh",
    ),
    "zero-point-128": (lambda _: QuantParams(0.5, 128), InvalidInputError, "outside [-128, 127]"),
    "range-nan": (lambda _: choose_quant_params(float("nan"), 1), InvalidInputError, "finite"),
    "mode-log": (lambda _: choose_quant_params(0, 1, "log"), InvalidInputError, "'log'"),
}

# A stride that is no whole number is refused by the stage plan, through
# every call that reaches it, with the message of stride 0: on an MLP, and
# on a stride-1 LiCo net, whose own stride 1 these equal.
_STRIDE_CALLS = {
    "plan": stage_plan,
    "field": receptive_field,
    "forward": lambda net, s: network_forward(net, Tensor2D(np.zeros((net.input_features, 8))), s),
}
_BAD_STRIDES = {
    "mlp": (_mlp, (("1.5", 1.5), ("true", True), ("numpy-2.0", np.float64(2.0)))),
    "lico": (_lico, (("1.0", 1.0), ("true", True), ("numpy-1.0", np.float64(1.0)))),
}
for _arch, (_net, _strides) in _BAD_STRIDES.items():
    for _name, _call in _STRIDE_CALLS.items():
        for _label, _stride in _strides:
            CASES[f"{_arch}-{_name}-stride-{_label}"] = (
                lambda _, n=_net, c=_call, s=_stride: c(n(), s), ConfigError,
                "stride must be >= 1",
            )


@pytest.mark.parametrize("case", sorted(CASES))
def test_refuses(tmp_path, case):
    call, error, fragment = CASES[case]
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert fragment in str(exc.value)
