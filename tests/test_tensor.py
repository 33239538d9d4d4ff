"""Quantization primitive tests: frozen hand values plus range properties."""

import numpy as np
import pytest

from liconet.errors import InvalidInputError, ShapeError
from liconet.tensor import (
    QuantParams,
    QuantTensor,
    Tensor2D,
    choose_quant_params,
    dequantize_affine,
    quantize_affine,
    round_half_away,
)


class TestTensor2D:
    def test_shape_and_flat_layout(self):
        t = Tensor2D([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert (t.channels, t.frames) == (2, 3)
        # element (c, i) sits at flat index c*T + i
        assert t.data.ravel()[1 * 3 + 2] == 6.0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            Tensor2D([[1.0, np.nan]])
        with pytest.raises(InvalidInputError):
            Tensor2D([[np.inf]])

    def test_rejects_bad_rank(self):
        with pytest.raises(ShapeError):
            Tensor2D(np.zeros((2, 2, 2)))

    def test_immutable(self):
        t = Tensor2D([[1.0, 2.0]])
        with pytest.raises(ValueError):
            t.data[0, 0] = 9.0

    def test_empty_frames_allowed(self):
        assert Tensor2D.zeros(3, 0).frames == 0


class TestRounding:
    def test_half_away_from_zero(self):
        got = round_half_away(np.array([0.5, -0.5, 1.5, -1.5, 2.4, -2.6, 0.0]))
        np.testing.assert_array_equal(got, [1, -1, 2, -2, 2, -3, 0])

    def test_matches_the_sign_floor_formula_by_value(self):
        """Ties, signed zeros and magnitudes near 2**52, where x + 0.5 rounds."""
        big = [2.0**52 + d for d in (-1.5, -1.0, -0.5, 0.0, 1.0, 2.0)] + [2.0**53, 2.0**53 + 2]
        ties = [k + 0.5 for k in range(-6, 6)]
        near = [0.49999999999999994, 1.4999999999999998, 2.5000000000000004]
        x = np.array(big + ties + near + [0.0, -0.0, 1e-300, -1e-300])
        x = np.concatenate([x, -x])
        old = np.sign(x) * np.floor(np.abs(x) + 0.5)
        np.testing.assert_array_equal(round_half_away(x), old)


class TestQuantizeDequantize:
    def test_zero_maps_to_zero_point(self):
        q = quantize_affine(Tensor2D([[0.0]]), QuantParams(0.1, 5))
        assert q.data[0, 0] == 5

    def test_hand_values(self):
        q = quantize_affine(Tensor2D([[1.0]]), QuantParams(0.1, 0))
        assert q.data[0, 0] == 10

    def test_saturates_at_127(self):
        q = quantize_affine(Tensor2D([[100.0]]), QuantParams(0.1, 0))
        assert q.data[0, 0] == 127

    def test_dequantize_hand_values(self):
        assert dequantize_affine(QuantTensor([[5]], QuantParams(0.1, 5))).data[0, 0] == 0.0
        assert dequantize_affine(QuantTensor([[10]], QuantParams(0.1, 0))).data[0, 0] == pytest.approx(1.0)
        assert dequantize_affine(QuantTensor([[-128]], QuantParams(1.0, 0))).data[0, 0] == -128.0

    def test_quant_tensor_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            QuantTensor([[200]], QuantParams(1.0, 0))

    def test_quant_tensor_takes_1d_input_as_one_channel(self):
        q = QuantTensor(np.array([1, -2, 3], dtype=np.int16), QuantParams(0.5, 1))
        assert (q.channels, q.frames) == (1, 3)
        assert q.data.dtype == np.int8 and q.data.tolist() == [[1, -2, 3]]
        assert not q.data.flags.writeable
        assert q.params == QuantParams(0.5, 1)

    def test_quant_tensor_reports_channels_and_frames(self):
        q = QuantTensor(np.zeros((4, 7), dtype=np.int8), QuantParams(1.0, 0))
        assert (q.channels, q.frames) == (4, 7)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (0, 5)])
    def test_quant_tensor_refuses_what_is_not_channels_by_frames(self, shape):
        with pytest.raises(ShapeError) as exc:
            QuantTensor(np.zeros(shape, dtype=np.int8), QuantParams(1.0, 0))
        assert str(exc.value) == f"expected channels x frames, got shape {shape}"


class TestChooseQuantParams:
    def test_symmetric(self):
        p = choose_quant_params(-2.0, 2.0, "symmetric")
        assert p.zero_point == 0
        assert p.scale == pytest.approx(2.0 / 127)

    def test_degenerate_range(self):
        assert choose_quant_params(0.0, 0.0, "symmetric") == QuantParams(1.0, 0)
        assert choose_quant_params(0.0, 0.0, "asymmetric") == QuantParams(1.0, 0)

    def test_asymmetric_hand_value(self):
        p = choose_quant_params(0.0, 2.55, "asymmetric")
        assert p.scale == pytest.approx(0.01)
        assert p.zero_point == -128

    def test_asymmetric_range_widened_to_zero(self):
        # strictly positive range still represents 0.0 exactly
        p = choose_quant_params(1.0, 3.0, "asymmetric")
        q = quantize_affine(Tensor2D([[0.0]]), p)
        assert dequantize_affine(q).data[0, 0] == 0.0

    def test_invalid_range(self):
        with pytest.raises(InvalidInputError):
            choose_quant_params(1.0, -1.0, "symmetric")

    def test_symmetric_always_zero_point_zero(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            lo, hi = np.sort(rng.uniform(-50, 50, size=2))
            assert choose_quant_params(lo, hi, "symmetric").zero_point == 0


class TestRoundTripProperties:
    def test_round_trip_bound_within_half_scale(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            lo, hi = np.sort(rng.uniform(-20, 20, size=2))
            if hi - lo < 1e-9:
                continue
            p = choose_quant_params(lo, hi, "asymmetric")
            x = Tensor2D(rng.uniform(lo, hi, size=(3, 17)))
            back = dequantize_affine(quantize_affine(x, p))
            assert np.max(np.abs(back.data - x.data)) <= p.scale / 2 + 1e-12

    def test_idempotent_on_quantized_lattice(self):
        rng = np.random.default_rng(8)
        p = choose_quant_params(-4.0, 4.0, "asymmetric")
        x = Tensor2D(rng.uniform(-4, 4, size=(2, 50)))
        q1 = quantize_affine(x, p)
        q2 = quantize_affine(dequantize_affine(q1), p)
        np.testing.assert_array_equal(q1.data, q2.data)
