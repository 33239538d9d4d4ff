"""A live step, one stride of frames after priming, hands each stage its
one window as a flat vector; a pass over many steps frames them as rows.
Both must give every step's logits the same bytes, on every `init` preset
with nonzero biases and on each engine of its float, linearized and int8
files."""

import functools

import numpy as np
import pytest

from liconet.cli import LICO_PRESETS, MLP_PRESETS
from liconet.conv import Conv1DLayer
from liconet.linearize import linearize_network
from liconet.model import LiCoNet, build_lico_net, build_mlp, lico_block, mlp_net
from liconet.modelfile import default_model
from liconet.quantize import calibrate_activations, quantize_network
from liconet.runtime import make_engine
from liconet.tensor import Tensor2D

PRESETS = [(arch, preset, s) for arch in ("lico", "mlp") for preset in ("large", "small")
           for s in (1, 3)]
FILE_ENGINES = [("float", "conv"), ("float", "linear"), ("linearized", "linear"), ("int8", "int8")]


@functools.cache
def _files(arch, preset, stride):
    """The preset's float, linearized and int8 models, every bias N(0, 0.1)."""
    rng = np.random.default_rng(0)

    def biased(layers):
        return [(layer.weights, rng.normal(0.0, 0.1, layer.bias.shape)) for layer in layers]

    if arch == "lico":
        net = build_lico_net(**LICO_PRESETS[preset], first_stride=stride, seed=1)
        blocks = tuple(lico_block(biased(b.layers), b.stride, b.residual) for b in net.blocks)
        [(w, b)] = biased([net.classifier])
        net = LiCoNet(net.input_features, blocks, Conv1DLayer(w, b))
    else:
        net = build_mlp(**MLP_PRESETS[preset], seed=1)
        net = mlp_net(net.input_frames, net.input_features, biased([*net.hidden, net.classifier]))
    lnet = linearize_network(net, stride)
    calib = Tensor2D(rng.normal(size=(net.input_features, 40 * stride)))
    qnet = quantize_network(lnet, calibrate_activations(lnet, calib))
    return {
        "float": default_model(net, first_stride=stride),
        "linearized": default_model(lnet),
        "int8": default_model(qnet),
    }


@pytest.mark.parametrize("kind, engine", FILE_ENGINES)
@pytest.mark.parametrize("arch, preset, stride", PRESETS)
def test_live_steps_split_one_at_a_time_equal_one_pass(arch, preset, stride, kind, engine):
    model = _files(arch, preset, stride)[kind]
    assert any(st.op.bias.any() for st in model.stages)
    t, n_steps = model.first_stride, 12
    prime = model.receptive_field - t
    x = np.random.default_rng(stride).normal(0.0, 2.0, size=(model.frontend.n_mels,
                                                              prime + n_steps * t))
    whole, single = make_engine(model, engine), make_engine(model, engine)
    whole.prime_array(x[:, :prime])
    single.prime_array(x[:, :prime])
    many = whole.step_array(x[:, prime:])
    assert many.shape == (whole.n_classes, n_steps)
    for k in range(n_steps):
        one = single.step_array(x[:, prime + k * t : prime + (k + 1) * t])
        assert one.shape == (whole.n_classes, 1)
        assert one.tobytes() == many[:, k].tobytes()
    for a, b in zip(whole.states, single.states):
        assert a.history.tobytes() == b.history.tobytes()
