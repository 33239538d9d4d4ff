"""The linearization gate: a network steps once per chunk of t frames only
if its first layer's stride is t and every later layer's stride is 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liconet.conv import Conv1DLayer
from liconet.errors import NotLinearizableError
from liconet.linearize import check_linearizable, linearize_network
from liconet.model import LiCoNet, build_lico_block, build_mlp


@settings(max_examples=80, deadline=None)
@given(
    strides=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    t=st.integers(1, 4),
    c_in=st.integers(1, 4),
    width=st.integers(1, 4),
    kernel=st.integers(2, 4),
    seed=st.integers(0, 2**16),
)
def test_the_gate_names_the_first_conv_off_the_chunk_and_every_later_strided_layer(
    strides, t, c_in, width, kernel, seed
):
    rng = np.random.default_rng(seed)
    blocks = tuple(
        build_lico_block(c_in if i == 0 else width, width, 2, kernel, s, rng)
        for i, s in enumerate(strides)
    )
    classifier = Conv1DLayer(rng.uniform(-1, 1, size=(3, width, 1)), np.zeros(3), 1, "none")
    net = LiCoNet(c_in, blocks, classifier)
    first, later = strides[0], strides[1:]
    want = [] if first == t else [("block1.conv1", f"first layer stride {first} != chunk size {t}")]
    want += [(f"block{i}.conv1", f"stride {s} != 1") for i, s in enumerate(later, 2) if s != 1]

    report = check_linearizable(net, t)
    assert report.violations == tuple(want)
    assert report.compliant == (not want)
    if want:
        with pytest.raises(NotLinearizableError) as exc:
            linearize_network(net, t)
        assert exc.value.report == report
        assert all(f"{name}: {why}" in str(exc.value) for name, why in want)
    else:
        stages = linearize_network(net, t).stages
        assert [s.stride for s in stages] == [t] + [1] * (len(stages) - 1)


@settings(max_examples=20, deadline=None)
@given(t=st.integers(1, 40))
def test_an_mlp_is_compliant_at_any_positive_chunk(t):
    net = build_mlp(4, 3, 5, 4, 3, seed=0)
    assert check_linearizable(net, t).compliant
    assert linearize_network(net, t).chunk_size == t


@pytest.mark.parametrize("t", [1.5, 2.0, True, "3", 0, -2])
@pytest.mark.parametrize("arch", ["lico", "mlp"])
def test_a_chunk_that_is_not_a_positive_integer_is_reported_as_the_chunk(arch, t):
    rng = np.random.default_rng(0)
    if arch == "mlp":
        net = build_mlp(4, 3, 5, 4, 3, seed=0)
    else:
        classifier = Conv1DLayer(np.ones((3, 4, 1)), np.zeros(3), 1, "none")
        net = LiCoNet(3, (build_lico_block(3, 4, 2, 3, 2, rng),), classifier)
    report = check_linearizable(net, t)
    assert [name for name, _ in report.violations] == ["chunk"]
    with pytest.raises(NotLinearizableError, match="chunk: chunk size must be a positive integer"):
        linearize_network(net, t)
