"""Each layer and net constructor rejects a malformed input with the error
type named here, whichever of its checks catches it."""

import numpy as np
import pytest

from liconet.conv import Conv1DLayer
from liconet.decoder import DecoderConfig
from liconet.errors import ConfigError, InvalidInputError, ShapeError
from liconet.frontend import FrontendConfig
from liconet.linearize import check_linearizable
from liconet.model import LiCoBlock, LiCoNet, MlpNet, build_lico_block, build_lico_net, build_mlp
from liconet.model import stage_plan
from liconet.pipeline import LinearLayer, Pipeline, PipelineStage
from liconet.tensor import QuantParams


def _conv(weights=None, bias=None, stride=2, activation="relu"):
    """A (3, 2, 4) layer, with the given argument in place of the default."""
    weights = np.ones((3, 2, 4)) if weights is None else weights
    bias = np.zeros(3) if bias is None else bias
    return Conv1DLayer(weights, bias, stride, activation)


def _set(shape, index, value):
    arr = np.ones(shape)
    arr[index] = value
    return arr


CONV_CASES = {
    "nan-weight": (dict(weights=_set((3, 2, 4), (1, 0, 3), np.nan)), ShapeError),
    "inf-weight": (dict(weights=_set((3, 2, 4), (0, 1, 0), -np.inf)), ShapeError),
    "inf-bias": (dict(bias=_set(3, 2, np.inf)), ShapeError),
    "short-bias": (dict(bias=np.zeros(2)), ShapeError),
    "long-bias": (dict(bias=np.zeros(4)), ShapeError),
    "no-outputs": (dict(weights=np.ones((0, 2, 4)), bias=np.zeros(0)), ShapeError),
    "no-inputs": (dict(weights=np.ones((3, 0, 4))), ShapeError),
    "no-kernel": (dict(weights=np.ones((3, 2, 0))), ShapeError),
    "2-d-weights": (dict(weights=np.ones((3, 8))), ShapeError),
    "activation": (dict(activation="tanh"), ConfigError),
    "stride-0": (dict(stride=0), ConfigError),
}


@pytest.mark.parametrize("case", sorted(CONV_CASES))
def test_conv_layer_rejects(case):
    change, error = CONV_CASES[case]
    with pytest.raises(error):
        _conv(**change)


def test_conv_layer_and_its_dense_form_share_one_read_only_weight_array():
    layer = _conv(np.arange(24.0).reshape(3, 2, 4))
    dense = layer.dense.weights
    assert np.shares_memory(layer.weights, dense)
    assert not layer.weights.flags.writeable and not dense.flags.writeable
    assert dense.shape == (8, 3) and dense[1 * 4 + 3, 2] == layer.weights[2, 1, 3]


def _mlp(**change):
    """build_mlp(4, 3, 5, 6, 2)'s parts, with the given ones replaced."""
    net = build_mlp(4, 3, 5, 6, 2, seed=0)
    parts = dict(input_frames=4, input_features=3, hidden=net.hidden, classifier=net.classifier)
    return MlpNet(**(parts | change))


def _dense(in_dim, out_dim):
    return LinearLayer(np.ones((in_dim, out_dim)), np.zeros(out_dim), "relu")


MLP_CASES = {
    "broken-chain": dict(hidden=(_dense(12, 5), _dense(4, 6))),
    "first-width": dict(hidden=(_dense(11, 5), _dense(5, 6))),
    "no-frames": dict(input_frames=0),
    "no-features": dict(input_features=0),
    "classifier-input": dict(classifier=_dense(5, 2)),
    "no-hidden-layer": dict(hidden=(), classifier=_dense(12, 2)),
}


@pytest.mark.parametrize("case", sorted(MLP_CASES))
def test_mlp_rejects(case):
    _mlp()
    with pytest.raises(ConfigError):
        _mlp(**MLP_CASES[case])


def _lico(input_features=4, classifier_inputs=8):
    blocks = (build_lico_block(4, 8, 2, 3, 2, 0), build_lico_block(8, 8, 2, 3, 1, 1))
    classifier = Conv1DLayer(np.ones((2, classifier_inputs, 1)), np.zeros(2), 1, "none")
    return LiCoNet(input_features, blocks, classifier)


@pytest.mark.parametrize("change", [dict(input_features=5), dict(classifier_inputs=7)])
def test_lico_net_rejects(change):
    _lico()
    with pytest.raises(ConfigError):
        _lico(**change)


def _op():
    return LinearLayer(np.ones((2, 2)), np.zeros(2))


# A bool is not a whole number: True passes as 1 wherever an integer check
# forgets it, so each of these is refused.
BOOL_CASES = {
    "conv-stride": (lambda: _conv(stride=True), ConfigError),
    "stage-kernel": (lambda: PipelineStage("s", _op(), 2, True, 1), ShapeError),
    # On a stride-1 net, where True == 1 would pass a compare with its stride.
    "lico-plan-stride": (
        lambda: stage_plan(build_lico_net(4, 1, 4, 2, 3, 1, 3, seed=0), True), ConfigError
    ),
    # A call written when captures_input was the sixth field of a stage.
    "stage-residual-from": (
        lambda: Pipeline([PipelineStage("a", _op(), 2, 1, 1),
                          PipelineStage("b", _op(), 2, 1, 1, True)]),
        ShapeError,
    ),
    "quant-zero-point": (lambda: QuantParams(0.5, True), InvalidInputError),
    "quant-scale": (lambda: QuantParams(True, 0), InvalidInputError),
}


@pytest.mark.parametrize("case", sorted(BOOL_CASES))
def test_a_bool_is_refused_where_a_whole_number_belongs(case):
    build, error = BOOL_CASES[case]
    with pytest.raises(error):
        build()


def test_the_linearization_gate_refuses_a_bool_chunk_size():
    net = build_lico_net(3, 1, 4, 2, 3, 1, 2, seed=0)
    assert check_linearizable(net, 1).compliant
    assert not check_linearizable(net, True).compliant


def _block_net(residual=True, **layers):
    """A one-block net, 4 -> (K = 3) 4 -> 8 -> 4 with its residual, whose
    named layers take the given (out, in, kernel, stride, activation)."""
    spec = dict(conv1=(4, 4, 3, 1, "relu"), conv2=(8, 4, 1, 1, "relu"), conv3=(4, 8, 1, 1, "none"))
    convs = [Conv1DLayer(np.ones((o, i, k)), np.zeros(o), s, a)
             for o, i, k, s, a in (spec | layers).values()]
    classifier = Conv1DLayer(np.ones((2, convs[2].out_channels, 1)), np.zeros(2), 1, "none")
    return LiCoNet(convs[0].in_channels, (LiCoBlock(*convs, residual),), classifier)


# Some of these the block refuses itself; the layer chain and the residual
# wiring are checked on the plan of the net that holds the block.
BLOCK_CASES = {
    "conv1-pointwise": dict(conv1=(4, 4, 1, 1, "relu")),
    "conv2-kernel": dict(conv2=(8, 4, 2, 1, "relu")),
    "conv3-kernel": dict(conv3=(4, 8, 2, 1, "none")),
    "conv2-stride": dict(conv2=(8, 4, 1, 2, "relu")),
    "conv3-stride": dict(conv3=(4, 8, 1, 2, "none")),
    "conv3-not-back-to-width": dict(conv3=(5, 8, 1, 1, "none"), residual=False),
    "expansion-not-whole": dict(conv2=(6, 4, 1, 1, "relu"), conv3=(4, 6, 1, 1, "none")),
    "expansion-1": dict(conv2=(4, 4, 1, 1, "relu"), conv3=(4, 4, 1, 1, "none")),
    "conv1-activation": dict(conv1=(4, 4, 3, 1, "none")),
    "conv2-activation": dict(conv2=(8, 4, 1, 1, "none")),
    "conv3-activation": dict(conv3=(4, 8, 1, 1, "relu")),
    "chain-conv2-input": dict(conv2=(8, 5, 1, 1, "relu")),
    "chain-conv3-input": dict(conv3=(4, 6, 1, 1, "none")),
    "residual-strided": dict(conv1=(4, 4, 3, 2, "relu")),
    "residual-widths": dict(conv1=(4, 5, 3, 1, "relu")),
}


@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_a_net_refuses_a_malformed_block(case):
    _block_net()
    _block_net(residual=False, conv1=(4, 4, 3, 2, "relu"))
    with pytest.raises(ConfigError):
        _block_net(**BLOCK_CASES[case])


@pytest.mark.parametrize("case, message", [
    ("chain-conv2-input", "block1.conv2 takes 5 channels, its input has 4"),
    ("chain-conv3-input", "block1.conv3 takes 6 channels, its input has 8"),
    ("residual-strided", "block1.conv3: residual source block1.conv1 must have stride 1 and 4"),
    ("residual-widths", "block1.conv3: residual source block1.conv1 must have stride 1 and 4"),
])
def test_a_broken_block_chain_names_its_stage(case, message):
    with pytest.raises(ConfigError, match=message):
        _block_net(**BLOCK_CASES[case])


@pytest.mark.parametrize("change", [dict(blocks=()), dict(kernel=2), dict(stride=2),
                                    dict(activation="relu")])
def test_lico_net_refuses_no_blocks_and_a_classifier_that_is_not_pointwise(change):
    blocks = (build_lico_block(4, 8, 2, 3, 2, 0),)
    parts = dict(kernel=1, stride=1, activation="none") | change
    weights = np.ones((2, 8, parts["kernel"]))
    classifier = Conv1DLayer(weights, np.zeros(2), parts["stride"], parts["activation"])
    with pytest.raises(ConfigError):
        LiCoNet(4, parts.get("blocks", blocks), classifier)


@pytest.mark.parametrize("keyword_ids", [(), (2, 2), (-1,), (3, -1)])
def test_decoder_config_refuses_no_repeated_or_negative_keyword_ids(keyword_ids):
    DecoderConfig(4, 1, (2, 3), 0.5)
    with pytest.raises(ConfigError):
        DecoderConfig(4, 1, keyword_ids, 0.5)


FRONTEND_CASES = {
    "sample-rate": dict(sample_rate=0),
    "window": dict(window_ms=0.0),
    "hop": dict(hop_ms=-10.0),
    "hop-past-window": dict(hop_ms=30.0),
    "no-mel-bands": dict(n_mels=0),
    "negative-fmin": dict(fmin=-1.0),
    "fmin-above-fmax": dict(fmin=4000.0, fmax=3000.0),
    "norm-mean-length": dict(norm_mean=np.zeros(39)),
    "norm-std-length": dict(norm_std=np.ones(41)),
    "norm-std-zero": dict(norm_std=np.r_[np.ones(39), 0.0]),
}


@pytest.mark.parametrize("case", sorted(FRONTEND_CASES))
def test_frontend_config_rejects(case):
    FrontendConfig()
    with pytest.raises(ConfigError):
        FrontendConfig(**FRONTEND_CASES[case])


# Numbers a model file may carry in its frontend entries: counts must be
# whole, lengths and frequencies real and not bools, the log floor finite
# and positive.
FRONTEND_NUMBER_CASES = {
    "sample-rate-fraction": dict(sample_rate=16000.5),
    "sample-rate-bool": dict(sample_rate=True),
    "mel-bands-float": dict(n_mels=40.0),
    "hop-bool": dict(hop_ms=True),
    "window-text": dict(window_ms="25"),
    "fmax-text": dict(fmax="8000"),
    "log-floor-none": dict(log_floor=None),
    "log-floor-zero": dict(log_floor=0.0),
    "log-floor-negative": dict(log_floor=-1.0),
    "log-floor-inf": dict(log_floor=float("inf")),
    "log-floor-nan": dict(log_floor=float("nan")),
}


@pytest.mark.parametrize("case", sorted(FRONTEND_NUMBER_CASES))
def test_frontend_config_rejects_a_number_of_the_wrong_kind(case):
    FrontendConfig(sample_rate=8000, n_mels=23, hop_ms=10, fmax=np.float64(4000), log_floor=1)
    with pytest.raises(ConfigError):
        FrontendConfig(**FRONTEND_NUMBER_CASES[case])


@pytest.mark.parametrize("threshold", ["x", "0.5", None, [0.5], np.True_])
def test_decoder_config_refuses_a_threshold_that_is_not_a_real_number(threshold):
    DecoderConfig(4, 1, (2,), np.float32(0.5))
    with pytest.raises(ConfigError, match="threshold must be finite and non-negative"):
        DecoderConfig(4, 1, (2,), threshold)


@pytest.mark.parametrize("rate, fmax", [(16000, 12000.0), (16000, 8000.5), (8000, 4001)])
def test_frontend_config_refuses_an_fmax_above_half_the_sample_rate(rate, fmax):
    assert FrontendConfig(sample_rate=rate, fmax=rate / 2).fmax == rate / 2
    with pytest.raises(ConfigError, match="above half the sample rate"):
        FrontendConfig(sample_rate=rate, fmax=fmax)


def test_numpy_numbers_are_kept_as_python_numbers():
    cfg = DecoderConfig(np.int64(4), np.int32(2), (np.int8(1),), np.float32(0.25))
    fe = FrontendConfig(sample_rate=np.int64(8000), n_mels=np.int16(23), fmax=np.float32(4000))
    layer = _conv(stride=np.int64(2))
    p = QuantParams(np.float32(0.5), np.int64(-3))
    values = (cfg.window_steps, cfg.smooth_steps, *cfg.keyword_ids, cfg.threshold,
              fe.sample_rate, fe.n_mels, fe.fmax, layer.stride, p.scale, p.zero_point)
    assert values == (4, 2, 1, 0.25, 8000, 23, 4000.0, 2, 0.5, -3)
    assert [type(v) for v in values] == [int] * 3 + [float, int, int, float, int, float, int]
