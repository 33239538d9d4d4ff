"""The checks that every model load runs: each input keeps the verdict it
had before these checks took their cheaper forms, down to the error class
and message, and a float net's checked stage plan is the one its model
steps."""

import numpy as np
import pytest

from liconet.conv import Conv1DLayer
from liconet.errors import InvalidInputError, ShapeError, is_whole
from liconet.linearize import linearize_network
from liconet.model import build_lico_net, build_mlp, stage_plan
from liconet.modelfile import default_model, load_model, save_model
from liconet.pipeline import LinearLayer
from liconet.tensor import QuantParams, Tensor2D


class Count(int):
    pass


IS_WHOLE = [
    (3, True),
    (0, True),
    (-2, True),
    (True, False),
    (False, False),
    (np.True_, False),
    (np.int64(3), True),
    (np.int8(-1), True),
    (Count(3), True),
    (3.0, False),
    (np.float64(3.0), False),
    ("3", False),
    (None, False),
]


@pytest.mark.parametrize("value, whole", IS_WHOLE, ids=repr)
def test_is_whole(value, whole):
    assert is_whole(value) is whole


# An integer past the float range once escaped as numpy's TypeError; it is
# the one input here whose refusal changed.
SCALES = {
    "inf": (float("inf"), InvalidInputError, "scale must be positive, got inf"),
    "nan": (float("nan"), InvalidInputError, "scale must be positive, got nan"),
    "float32-inf": (np.float32("inf"), InvalidInputError, "scale must be positive, got inf"),
    "zero": (0, InvalidInputError, "scale must be positive, got 0"),
    "negative-zero": (-0.0, InvalidInputError, "scale must be positive, got -0.0"),
    "minus-one": (-1, InvalidInputError, "scale must be positive, got -1"),
    "ten-to-the-400": (
        10**400, InvalidInputError, "scale does not fit a float: int too large to convert to float",
    ),
    # float() rounds an int to the float bound up to 2**1024 - 2**970, where it overflows.
    "just-above-the-float-bound": (
        2**1024 - 2**970 - 1, InvalidInputError,
        "scale does not fit a float: int too large to convert to float",
    ),
    "minus-just-above-the-float-bound": (
        -(2**1024 - 2**970 - 1), InvalidInputError,
        f"scale must be positive, got {-(2**1024 - 2**970 - 1)}",
    ),
    "minus-2-to-the-1024-minus-2-to-the-970": (
        -(2**1024 - 2**970), InvalidInputError,
        "scale does not fit a float: int too large to convert to float",
    ),
    "bool": (True, InvalidInputError, "scale True is not a real number"),
    "text": ("0.5", InvalidInputError, "scale '0.5' is not a real number"),
    "float32": (np.float32(0.5), None, None),
    "int": (2, None, None),
    "int64": (np.int64(3), None, None),
}


@pytest.mark.parametrize("case", sorted(SCALES))
def test_quant_params_scale(case):
    scale, error, message = SCALES[case]
    if error is None:
        p = QuantParams(scale, 0)
        assert p.scale == scale and type(p.scale) in (int, float)
        return
    with pytest.raises(error) as exc:
        QuantParams(scale, 0)
    assert str(exc.value) == message


def _one(shape, index, value):
    arr = np.ones(shape)
    arr[index] = value
    return arr


WEIGHTS = (ShapeError, "weights and bias must be finite")
TENSOR = (InvalidInputError, "tensor contains NaN or Inf")
NOT_FINITE = {
    "linear-nan-weight": (lambda: LinearLayer(_one((3, 2), (2, 1), np.nan), np.zeros(2)), WEIGHTS),
    "linear-inf-bias": (lambda: LinearLayer(np.ones((3, 2)), _one(2, 0, np.inf)), WEIGHTS),
    "linear-minus-inf-weight": (
        lambda: LinearLayer(_one((3, 2), (0, 0), -np.inf), np.zeros(2)), WEIGHTS,
    ),
    "conv-nan-weight": (
        lambda: Conv1DLayer(_one((2, 3, 4), (1, 2, 3), np.nan), np.zeros(2)), WEIGHTS,
    ),
    "conv-inf-bias": (lambda: Conv1DLayer(np.ones((2, 3, 4)), _one(2, 1, -np.inf)), WEIGHTS),
    "tensor-nan": (lambda: Tensor2D([[1.0, np.nan]]), TENSOR),
    "tensor-inf-1-d": (lambda: Tensor2D([1.0, -np.inf]), TENSOR),
    "tensor-inf-last": (lambda: Tensor2D(_one((4, 5), (3, 4), np.inf)), TENSOR),
}


@pytest.mark.parametrize("case", sorted(NOT_FINITE))
def test_a_value_that_is_not_finite_is_refused(case):
    build, (error, message) = NOT_FINITE[case]
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


NETS = {
    "lico": lambda: build_lico_net(3, 2, 3, 2, 3, 2, 3, seed=8),
    "mlp": lambda: build_mlp(4, 3, 5, 4, 3, seed=9),
}


def _loaded(tmp_path, kind):
    path = tmp_path / "m.lcn"
    save_model(default_model(NETS[kind]()), path)
    return load_model(path)


@pytest.mark.parametrize("kind", sorted(NETS))
def test_a_loaded_model_steps_the_plan_its_net_checked(tmp_path, kind):
    model = _loaded(tmp_path, kind)
    assert model.stages is model.net.plan


def test_an_mlp_at_another_stride_gets_its_own_plan():
    net = NETS["mlp"]()
    model = default_model(net, first_stride=3)
    assert model.stages is not net.plan
    assert [st.stride for st in model.stages] == [3, 1, 1] and net.plan[0].stride == 1


@pytest.mark.parametrize("kind", sorted(NETS))
def test_each_stage_plan_call_builds_fresh_stages(tmp_path, kind):
    """linearize_network hands its stages to callers that may change them."""
    net = _loaded(tmp_path, kind).net
    first, second = stage_plan(net), stage_plan(net)
    assert all(a is not b for a, b in zip(first, second))
    assert all(a is not b for a, b in zip(first, net.plan))
    stride = net.plan[0].stride
    lnet = linearize_network(net, stride)
    assert all(a is not b for a, b in zip(lnet.stages, net.plan))
