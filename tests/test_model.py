"""Builder, forward-pass, and accounting tests for the block network and
the MLP baseline."""

import numpy as np
import pytest

from liconet.conv import Conv1DLayer, conv1d_forward
from liconet.errors import ConfigError, NotLinearizableError, ShapeError
from liconet.model import (
    LiCoBlock,
    LiCoNet,
    StreamingNetwork,
    bias_count,
    build_lico_block,
    build_lico_net,
    build_mlp,
    count_macs_per_step,
    count_params,
    network_forward,
    receptive_field,
    stage_plan,
)
from liconet.tensor import Tensor2D

from reference import conv1d_loops, smallest_valid_input


class TestBuildBlock:
    def test_paper_large_shapes(self):
        blk = build_lico_block(40, 32, 6, 5, 3, seed=0)
        assert blk.conv1.weights.shape == (32, 40, 5)
        assert blk.conv2.weights.shape == (192, 32, 1)
        assert blk.conv3.weights.shape == (32, 192, 1)
        assert blk.residual is False

    def test_residual_when_stride_1_and_widths_match(self):
        assert build_lico_block(16, 16, 4, 4, 1, seed=0).residual is True

    def test_no_residual_on_width_mismatch(self):
        assert build_lico_block(40, 32, 6, 5, 1, seed=0).residual is False

    def test_residual_rule_over_random_configs(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            c_in = int(rng.integers(2, 20))
            w = int(rng.integers(2, 20))
            s = int(rng.integers(1, 4))
            blk = build_lico_block(c_in, w, 2, 3, s, seed=int(rng.integers(1 << 30)))
            assert blk.residual == (s == 1 and c_in == w)

    def test_invalid_hyperparameters(self):
        with pytest.raises(ConfigError):
            build_lico_block(4, 4, 1, 3, 1, seed=0)  # e < 2
        with pytest.raises(ConfigError):
            build_lico_block(4, 4, 2, 1, 1, seed=0)  # kernel < 2
        with pytest.raises(ConfigError):
            build_lico_block(4, 4, 2, 3, 0, seed=0)  # stride < 1

    def test_seeded_construction_deterministic(self):
        a = build_lico_block(8, 8, 2, 3, 1, seed=123)
        b = build_lico_block(8, 8, 2, 3, 1, seed=123)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)


class TestBuildNet:
    def test_paper_topologies(self):
        large = build_lico_net(40, 5, 32, 6, 5, 1, 11, seed=0)
        assert len(large.blocks) == 5 and large.first_stride == 1
        small = build_lico_net(40, 5, 16, 4, 4, 3, 11, seed=0)
        assert small.first_stride == 3
        assert all(b.stride == 1 for b in small.blocks[1:])

    def test_minimal_net(self):
        net = build_lico_net(40, 1, 8, 2, 2, 1, 3, seed=0)
        assert len(net.blocks) == 1 and net.n_classes == 3

    def test_seeded_nets_bit_identical(self):
        a = build_lico_net(6, 3, 8, 2, 4, 2, 5, seed=77)
        b = build_lico_net(6, 3, 8, 2, 4, 2, 5, seed=77)
        for ba, bb in zip(a.blocks, b.blocks):
            for la, lb in zip(ba.layers, bb.layers):
                np.testing.assert_array_equal(la.weights, lb.weights)
        np.testing.assert_array_equal(a.classifier.weights, b.classifier.weights)

    def test_channel_chain_enforced(self):
        blocks = (build_lico_block(4, 8, 2, 3, 1, 0), build_lico_block(4, 8, 2, 3, 1, 0))
        cls = Conv1DLayer(np.zeros((2, 8, 1)), np.zeros(2), 1, "none")
        with pytest.raises(ConfigError):
            LiCoNet(4, blocks, cls)

    def test_mlp_presets(self):
        large = build_mlp(21, 40, 80, 320, 11, seed=0)
        assert [l.out_dim for l in large.hidden] == [80, 320]
        small = build_mlp(21, 40, 40, 320, 11, seed=0)
        assert small.hidden[0].in_dim == 840
        degenerate = build_mlp(1, 1, 1, 1, 1, seed=0)
        assert degenerate.n_classes == 1


class TestAccounting:
    def test_mlp_param_counts(self):
        # sum of (in*out + out) over the three dense layers
        assert count_params(build_mlp(21, 40, 80, 320, 11, 0)) == 96731
        assert count_params(build_mlp(21, 40, 40, 320, 11, 0)) == 50291

    def test_mlp_mac_counts(self):
        assert count_macs_per_step(build_mlp(21, 40, 80, 320, 11, 0)) == 96320
        assert count_macs_per_step(build_mlp(21, 40, 40, 320, 11, 0)) == 49920

    def test_lico_counts_match_hand_summation(self):
        net = build_lico_net(40, 5, 32, 6, 5, 1, 11, seed=0)
        # per-layer D*C*K + D, summed over 5 blocks and the classifier
        assert count_params(net) == 89963
        small = build_lico_net(40, 5, 16, 4, 4, 3, 11, seed=0)
        assert count_params(small) == 17563

    def test_macs_plus_biases_equals_params(self):
        rng = np.random.default_rng(11)
        for _ in range(15):
            net = build_lico_net(
                int(rng.integers(2, 12)), int(rng.integers(1, 5)), int(rng.integers(2, 16)),
                int(rng.integers(2, 5)), int(rng.integers(2, 6)), int(rng.integers(1, 4)),
                int(rng.integers(1, 8)), seed=int(rng.integers(1 << 30)),
            )
            assert count_macs_per_step(net) + bias_count(net) == count_params(net)
        mlp = build_mlp(21, 40, 80, 320, 11, 0)
        assert count_macs_per_step(mlp) + bias_count(mlp) == count_params(mlp)

    def test_macs_refused_for_non_compliant_net(self):
        net = build_lico_net(6, 3, 8, 2, 3, 1, 4, seed=0)
        bad = LiCoNet(
            6,
            (net.blocks[0], build_lico_block(8, 8, 2, 3, 2, 0), net.blocks[2]),
            net.classifier,
        )
        with pytest.raises(NotLinearizableError):
            count_macs_per_step(bad)


class TestReceptiveField:
    def test_hand_values_stride_1(self):
        assert receptive_field(build_lico_net(8, 1, 8, 2, 5, 1, 3, 0)) == 5
        assert receptive_field(build_lico_net(8, 5, 8, 2, 5, 1, 3, 0)) == 21
        assert receptive_field(build_lico_net(8, 5, 8, 2, 4, 1, 3, 0)) == 16

    def test_matches_brute_force_smallest_input(self):
        rng = np.random.default_rng(12)
        for _ in range(8):
            net = build_lico_net(
                int(rng.integers(2, 8)), int(rng.integers(1, 4)), int(rng.integers(2, 10)),
                2, int(rng.integers(2, 6)), int(rng.integers(1, 4)), 3,
                seed=int(rng.integers(1 << 30)),
            )
            rf = receptive_field(net)
            found = smallest_valid_input(
                lambda a: network_forward(net, Tensor2D(a)).data, net.input_features
            )
            assert rf == found

    def test_mlp_receptive_field_is_window(self):
        assert receptive_field(build_mlp(21, 40, 80, 320, 11, 0), 3) == 21


class TestNetworkForward:
    def test_zero_weights_give_zero_logits(self):
        net = build_lico_net(4, 2, 6, 2, 3, 1, 5, seed=0)
        zeroed = LiCoNet(
            4,
            tuple(
                LiCoBlock(
                    Conv1DLayer(np.zeros_like(b.conv1.weights), np.zeros(b.width), b.stride, "relu"),
                    Conv1DLayer(np.zeros_like(b.conv2.weights), np.zeros(b.conv2.out_channels), 1, "relu"),
                    Conv1DLayer(np.zeros_like(b.conv3.weights), np.zeros(b.width), 1, "none"),
                    b.residual,
                )
                for b in net.blocks
            ),
            Conv1DLayer(np.zeros_like(net.classifier.weights), np.zeros(5), 1, "none"),
        )
        x = Tensor2D(np.random.default_rng(0).normal(size=(4, 30)))
        assert not network_forward(zeroed, x).data.any()

    def test_single_block_matches_loop_oracle(self):
        """Hand-checkable one-block net: compose the three conv layers (and
        classifier) with the loop oracle and compare."""
        rng = np.random.default_rng(13)
        blk = build_lico_block(1, 2, 2, 2, 1, seed=14)
        cls = Conv1DLayer(rng.normal(size=(3, 2, 1)), rng.normal(size=3), 1, "none")
        net = LiCoNet(1, (blk,), cls)
        x = rng.normal(size=(1, 7))
        got = network_forward(net, Tensor2D(x)).data

        y1 = conv1d_loops(blk.conv1.weights, blk.conv1.bias, 1, x, relu=True)
        y2 = conv1d_loops(blk.conv2.weights, blk.conv2.bias, 1, y1, relu=True)
        y3 = conv1d_loops(blk.conv3.weights, blk.conv3.bias, 1, y2)
        logits = conv1d_loops(cls.weights, cls.bias, 1, y3)
        np.testing.assert_allclose(got, logits, atol=1e-12)

    def test_residual_adds_newest_block_input_column(self):
        blk = build_lico_block(3, 3, 2, 4, 1, seed=15)
        assert blk.residual
        cls = Conv1DLayer(np.eye(3)[:, :, np.newaxis], np.zeros(3), 1, "none")
        net = LiCoNet(3, (blk,), cls)
        rng = np.random.default_rng(16)
        x = rng.normal(size=(3, 9))
        got = network_forward(net, Tensor2D(x)).data
        y1 = conv1d_loops(blk.conv1.weights, blk.conv1.bias, 1, x, relu=True)
        y2 = conv1d_loops(blk.conv2.weights, blk.conv2.bias, 1, y1, relu=True)
        y3 = conv1d_loops(blk.conv3.weights, blk.conv3.bias, 1, y2)
        expected = y3 + x[:, blk.kernel - 1 :]
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_output_frame_count_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            s1 = int(rng.integers(1, 4))
            net = build_lico_net(
                int(rng.integers(2, 8)), int(rng.integers(1, 4)), int(rng.integers(2, 10)),
                2, int(rng.integers(2, 6)), s1, 3, seed=int(rng.integers(1 << 30)),
            )
            rf = receptive_field(net)
            t_frames = rf + int(rng.integers(0, 25))
            out = network_forward(net, Tensor2D(rng.normal(size=(net.input_features, t_frames))))
            assert out.data.shape[1] == (t_frames - rf) // s1 + 1

    def test_one_column_per_stream_step_when_k1_below_s1(self):
        """Frames after the last whole first-layer stride make no column,
        as a stream never steps over them."""
        rng = np.random.default_rng(24)
        for kernel, s1 in ((2, 3), (2, 4), (3, 4), (2, 5)):
            net = build_lico_net(3, 2, 4, 2, kernel, s1, 3, seed=int(rng.integers(1 << 30)))
            rf = receptive_field(net)
            for t_frames in range(rf, rf + 3 * s1 + 1):
                x = rng.normal(size=(3, t_frames))
                out = network_forward(net, Tensor2D(x)).data
                stream = StreamingNetwork(net)
                stream.prime_array(x[:, : rf - s1])
                starts = range(rf - s1, t_frames - s1 + 1, s1)
                steps = [stream.step_array(x[:, j : j + s1]) for j in starts]
                assert out.shape[1] == (t_frames - rf) // s1 + 1 == len(steps)
                np.testing.assert_allclose(out, np.hstack(steps), rtol=0, atol=1e-12)

    def test_insufficient_frames_raises(self):
        net = build_lico_net(4, 2, 6, 2, 3, 1, 5, seed=0)
        with pytest.raises(ShapeError):
            network_forward(net, Tensor2D(np.zeros((4, receptive_field(net) - 1))))

    def test_mlp_forward_matches_dense_math(self):
        mlp = build_mlp(4, 3, 6, 5, 2, seed=18)
        rng = np.random.default_rng(19)
        x = rng.normal(size=(3, 10))
        got = network_forward(mlp, Tensor2D(x), 2).data
        # windows of 4 frames at stride 2, flattened channel-major
        for i, pos in enumerate(range(0, 10 - 4 + 1, 2)):
            flat = x[:, pos : pos + 4].reshape(-1)
            h = np.maximum(flat @ mlp.hidden[0].weights + mlp.hidden[0].bias, 0)
            h = np.maximum(h @ mlp.hidden[1].weights + mlp.hidden[1].bias, 0)
            logits = h @ mlp.classifier.weights + mlp.classifier.bias
            np.testing.assert_allclose(got[:, i], logits, atol=1e-12)


class TestStreamingNetwork:
    def test_streaming_matches_padded_batch(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            s1 = int(rng.integers(1, 4))
            net = build_lico_net(
                int(rng.integers(2, 8)), int(rng.integers(1, 4)), int(rng.integers(2, 10)),
                2, int(rng.integers(2, 6)), s1, 4, seed=int(rng.integers(1 << 30)),
            )
            eng = StreamingNetwork(net)
            n = 30
            x = rng.normal(size=(net.input_features, n * s1))
            streamed = np.concatenate(
                [eng.step_array(x[:, j * s1 : (j + 1) * s1]) for j in range(n)], axis=1
            )
            pad = receptive_field(net) - s1
            batch = network_forward(
                net, Tensor2D(np.concatenate([np.zeros((net.input_features, pad)), x], axis=1))
            ).data
            np.testing.assert_allclose(streamed, batch, atol=1e-6)

    def test_copy_isolates_state(self):
        net = build_lico_net(4, 2, 6, 2, 3, 1, 5, seed=21)
        a = StreamingNetwork(net)
        rng = np.random.default_rng(22)
        a.step_array(rng.normal(size=(4, 1)))
        b = a.copy()
        chunk = rng.normal(size=(4, 1))
        out_b = b.step_array(chunk)
        out_a = a.step_array(chunk)
        np.testing.assert_array_equal(out_a, out_b)
        a.reset()
        assert not any(st.history.any() for st in a.states)
        assert any(st.history.any() for st in b.states)


def _conv_chain(net, x):
    """Every conv layer of a LiCo net in order, residuals left out: they
    change no column counts."""
    for layer in [l for blk in net.blocks for l in blk.layers] + [net.classifier]:
        x = conv1d_forward(Tensor2D(x), layer).data
    return x


def test_receptive_field_matches_brute_force_with_later_strides():
    rng = np.random.default_rng(23)
    for _ in range(12):
        c, w, k = (int(v) for v in rng.integers(2, 6, size=3))
        s1 = int(rng.integers(1, k + 1))  # K1 >= s1: every frame of the field is read
        strides = [int(v) for v in rng.integers(1, 4, size=int(rng.integers(1, 4)))]
        strides[int(rng.integers(len(strides)))] = int(rng.integers(2, 4))
        net = build_lico_net(c, 1, w, 2, k, s1, 3, seed=int(rng.integers(1 << 30)))
        blocks = net.blocks + tuple(
            build_lico_block(w, w, 2, int(rng.integers(2, 5)), s, int(rng.integers(1 << 30)))
            for s in strides
        )
        net = LiCoNet(c, blocks, net.classifier)
        rf = receptive_field(net)
        assert rf == smallest_valid_input(lambda a: _conv_chain(net, a), c)
        assert network_forward(net, Tensor2D(np.zeros((c, rf)))).data.shape[1] == 1


def test_a_numpy_integer_mlp_stride_is_taken_as_an_int():
    plan = stage_plan(build_mlp(4, 3, 5, 4, 3, seed=9), np.int64(2))
    assert [st.stride for st in plan] == [2, 1, 1]
    assert all(type(st.stride) is int for st in plan)


def test_a_numpy_integer_lico_stride_equal_to_the_nets_is_taken():
    net = build_lico_net(4, 1, 4, 2, 3, 1, 3, seed=0)
    assert [st.stride for st in stage_plan(net, np.int64(1))] == [1, 1, 1, 1]
    assert receptive_field(net, np.int64(1)) == receptive_field(net) == 3
