"""Batch and streaming convolution tests.

Hand values were computed by evaluating the convolution sum directly; the
loop oracle in reference.py re-derives them on every run.
"""

import numpy as np
import pytest

from liconet.conv import (
    Conv1DLayer,
    apply_activation,
    conv1d_forward,
    stream_state_init,
    stream_step,
)
from liconet.errors import ConfigError, ShapeError
from liconet.tensor import Tensor2D

from reference import conv1d_loops


def layer(w, b=None, stride=1, activation="none"):
    w = np.asarray(w, dtype=np.float64)
    if b is None:
        b = np.zeros(w.shape[0])
    return Conv1DLayer(w, b, stride, activation)


class TestConv1DForward:
    def test_hand_example_stride_1(self):
        out = conv1d_forward(Tensor2D([1.0, 2.0, 3.0]), layer([[[1.0, 2.0]]]))
        np.testing.assert_allclose(out.data, [[5.0, 8.0]])

    def test_hand_example_stride_2(self):
        out = conv1d_forward(Tensor2D([1.0, 2.0, 3.0, 4.0]), layer([[[1.0, 1.0]]], stride=2))
        np.testing.assert_allclose(out.data, [[3.0, 7.0]])

    def test_pointwise_identity(self):
        eye = np.eye(3)[:, :, np.newaxis]
        x = Tensor2D(np.random.default_rng(0).normal(size=(3, 9)))
        out = conv1d_forward(x, layer(eye))
        np.testing.assert_array_equal(out.data, x.data)

    def test_output_shape(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d, c, k, s = rng.integers(1, 6, size=4)
            t = int(k + rng.integers(0, 20))
            l = layer(rng.normal(size=(d, c, k)), rng.normal(size=d), stride=int(s))
            out = conv1d_forward(Tensor2D(rng.normal(size=(c, t))), l)
            assert out.data.shape == (d, (t - k) // s + 1)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            d, c, k = rng.integers(1, 5, size=3)
            s = int(rng.integers(1, 4))
            t = int(k + rng.integers(0, 15))
            w = rng.normal(size=(d, c, k))
            b = rng.normal(size=d)
            x = rng.normal(size=(c, t))
            got = conv1d_forward(Tensor2D(x), layer(w, b, stride=s)).data
            np.testing.assert_allclose(got, conv1d_loops(w, b, s, x), atol=1e-12)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            conv1d_forward(Tensor2D(np.zeros((2, 5))), layer([[[1.0, 1.0]]]))

    def test_too_few_frames_raises(self):
        with pytest.raises(ShapeError):
            conv1d_forward(Tensor2D([1.0]), layer([[[1.0, 1.0]]]))


class TestActivation:
    def test_relu(self):
        out = apply_activation(Tensor2D([-1.0, 2.0]), "relu")
        np.testing.assert_array_equal(out.data, [[0.0, 2.0]])

    def test_none_is_identity(self):
        x = Tensor2D([-1.0, 2.0])
        np.testing.assert_array_equal(apply_activation(x, "none").data, x.data)

    def test_relu_idempotent(self):
        x = Tensor2D(np.random.default_rng(3).normal(size=(2, 40)))
        once = apply_activation(x, "relu")
        np.testing.assert_array_equal(apply_activation(once, "relu").data, once.data)


class TestStreamState:
    def test_init_shapes(self):
        assert stream_state_init(layer(np.zeros((1, 1, 5))), 1).history.shape == (1, 4)
        assert stream_state_init(layer(np.zeros((1, 1, 3)), stride=3), 3).history.shape == (1, 0)
        assert stream_state_init(layer(np.zeros((2, 16, 4))), 1).history.shape == (16, 3)

    def test_init_zero_filled(self):
        st = stream_state_init(layer(np.zeros((1, 2, 5))), 2)
        assert not st.history.any()

    def test_chunk_not_multiple_of_stride(self):
        with pytest.raises(ConfigError):
            stream_state_init(layer(np.zeros((1, 1, 4)), stride=2), 3)


class TestStreamStep:
    def test_hand_example(self):
        l = layer([[[1.0, 1.0]]])
        st = stream_state_init(l, 1)
        outs = [stream_step(l, st, Tensor2D([v])).data[0, 0] for v in (1.0, 2.0, 3.0)]
        assert outs == [1.0, 3.0, 5.0]

    def test_chunk_size_mismatch(self):
        l = layer([[[1.0, 1.0]]])
        st = stream_state_init(l, 2)
        with pytest.raises(ShapeError):
            stream_step(l, st, Tensor2D([1.0]))

    def test_chunk_channel_mismatch(self):
        l = layer([[[1.0, 1.0], [1.0, 1.0]]])
        st = stream_state_init(l, 1)
        with pytest.raises(ShapeError, match="chunk has 1 channels, layer expects 2"):
            stream_step(l, st, Tensor2D([1.0]))
        assert st.history.tobytes() == np.zeros((2, 1)).tobytes()

    def test_output_frames_per_step(self):
        rng = np.random.default_rng(4)
        l = layer(rng.normal(size=(3, 2, 5)), rng.normal(size=3), stride=2)
        st = stream_state_init(l, 6)
        for _ in range(5):
            out = stream_step(l, st, Tensor2D(rng.normal(size=(2, 6))))
            assert out.data.shape == (3, 3)

    def test_k_equals_s_ignores_history(self):
        l = layer([[[1.0, 1.0, 1.0]]], stride=3)
        st = stream_state_init(l, 3)
        assert st.history.shape == (1, 0)
        out = stream_step(l, st, Tensor2D([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out.data, [[6.0]])

    def test_history_holds_newest_raw_columns(self):
        rng = np.random.default_rng(5)
        l = layer(rng.normal(size=(1, 2, 4)))
        st = stream_state_init(l, 2)
        x = rng.normal(size=(2, 10))
        for j in range(5):
            stream_step(l, st, Tensor2D(x[:, 2 * j : 2 * j + 2]))
            lo = 2 * (j + 1) - 3
            expect = x[:, max(lo, 0) : 2 * (j + 1)]
            if lo < 0:
                expect = np.concatenate([np.zeros((2, -lo)), expect], axis=1)
            np.testing.assert_array_equal(st.history, expect)


class TestStreamingBatchEquivalence:
    def test_concatenated_chunks_equal_padded_batch(self):
        """Streaming output over N chunks == batch on a zero-left-padded
        input, for random layers with bias, any stride, any chunk size."""
        rng = np.random.default_rng(6)
        for _ in range(40):
            d, c = rng.integers(1, 5, size=2)
            k = int(rng.integers(1, 7))
            s = int(rng.integers(1, 4))
            t = s * int(rng.integers(1, 4))
            n = int(rng.integers(1, 12))
            l = layer(rng.normal(size=(d, c, k)), rng.normal(size=d), stride=s)
            x = rng.normal(size=(c, n * t))
            st = stream_state_init(l, t)
            chunks = [stream_step(l, st, Tensor2D(x[:, j * t : (j + 1) * t])).data for j in range(n)]
            streamed = np.concatenate(chunks, axis=1)
            padded = np.concatenate([np.zeros((c, max(k - s, 0))), x], axis=1)
            batch = conv1d_forward(Tensor2D(padded), l).data
            assert streamed.shape == batch.shape
            np.testing.assert_allclose(streamed, batch, atol=1e-6)
