"""Post-training int8 quantization of a float64 pipeline.

Weights are quantized symmetrically per tensor, activations asymmetrically
per stage from calibrated min/max ranges (widened to include zero); biases
are pre-scaled to int32 in units of w_scale * in_scale. The pipeline keeps
the float stages, each with a QuantizedLinearLayer holding its codes once as
float64 and refusing any that int8 or int32 cannot hold (only a file stores
those types); stage j's in_params are stage j-1's out_params: no conversion.

Columns hold zero-point-free codes, q - zero_point, as float64 (Jacob et
al. 2018, arXiv:1712.05877), so a zero column is 0. MAX_IN_DIM keeps each
partial sum of a window's product an integer below 2**31, which float64
sums exactly in any BLAS order. Requantization rounds half away from zero
after a double-precision multiplier, so the pipeline is bit-exact across
runs and platforms once its input is quantized. decode adds 0.0 so that a
-0.0 from rounding reaches the logits as 0.0.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CalibrationError, ConfigError, ShapeError
from .pipeline import MAX_PASS_STEPS, DenseOperator, Pipeline, apply_activation_array
from .tensor import (
    QMAX,
    QMIN,
    QuantParams,
    Tensor2D,
    choose_quant_params,
    quantize_array,
    round_half_away,
)

# Per-term magnitude is at most 127 * 255, so a window's accumulator over
# 16384 terms stays below 2**31: exact in float64, and it would fit an int32.
MAX_IN_DIM = 16384


@dataclass(frozen=True)
class QuantizedLinearLayer(DenseOperator):
    """int8 dense operator with pre-scaled int32 bias over zero-point-free codes.

    Every window's sum is an integer below 2**31 (MAX_IN_DIM), so float64
    holds each partial sum exactly and forward takes all windows in one
    GEMM: a window gets the same bits whatever windows share the call.
    """

    weights: np.ndarray  # int8 codes, held as float64, (in_dim, out_dim)
    bias: np.ndarray  # int32 codes, held as float64, (out_dim,)
    weight_params: QuantParams
    in_params: QuantParams
    out_params: QuantParams
    activation: str

    def __post_init__(self):
        if self.weight_params.zero_point != 0:
            raise ConfigError("weight quantization must be symmetric (zero_point 0)")
        held = []
        for name, v, kind in (("weights", self.weights, np.int8), ("bias", self.bias, np.int32)):
            held.append(q := np.ascontiguousarray(v, dtype=np.float64))
            r = np.iinfo(kind)  # an array of kind, as a file's, holds only codes it can
            if np.asarray(v).dtype != kind and not np.array_equal(q, q.clip(r.min, r.max).round()):
                raise ConfigError(f"{name} must be whole {r.dtype} codes in [{r.min}, {r.max}]")
        self._store(*held)
        if self.in_dim > MAX_IN_DIM:
            raise ConfigError(f"in_dim {self.in_dim} exceeds accumulator-safe {MAX_IN_DIM}")
        m = self.weight_params.scale * self.in_params.scale / self.out_params.scale
        object.__setattr__(self, "_m", m)

    def forward(self, windows, residual=None, source=None) -> np.ndarray:
        """Codes to codes. The residual, in source's in_params, is rescaled
        to this layer's out_params and added before the final clip.

        Without a residual, relu and the clip's lower bound are one bound:
        0 >= QMIN - zero_point, and on z >= 0 rounding half away is
        floor(z + 0.5)."""
        z = windows @ self.weights
        z += self.bias
        z *= self._m
        z = z.T
        zp = self.out_params.zero_point
        lo = QMIN - zp
        if residual is None and self.activation == "relu":
            z += 0.5
            np.floor(z, out=z)
            lo = 0
        else:
            z = apply_activation_array(round_half_away(z), self.activation)
            if residual is not None:
                z += round_half_away(residual * (source.in_params.scale / self.out_params.scale))
        np.maximum(z, lo, out=z)
        return np.minimum(z, QMAX - zp, out=z)

    def encode(self, x: np.ndarray) -> np.ndarray:
        zp = self.in_params.zero_point
        q = round_half_away(x / self.in_params.scale)
        np.maximum(q, QMIN - zp, out=q)
        return np.minimum(q, QMAX - zp, out=q)

    def decode(self, y: np.ndarray) -> np.ndarray:
        return y * self.out_params.scale + 0.0  # + 0.0 turns the -0.0 of rounding into 0.0


@dataclass(frozen=True)
class StageRange:
    """Observed float min/max of one stage's output (post-residual)."""

    out_min: float
    out_max: float


@dataclass(frozen=True)
class CalibrationRanges:
    input_min: float
    input_max: float
    stage_ranges: tuple  # StageRange per stage, classifier last

    def __post_init__(self):
        object.__setattr__(self, "stage_ranges", tuple(self.stage_ranges))


def calibrate_activations(lnet: Pipeline, calib_stream: Tensor2D) -> CalibrationRanges:
    """Stream calibration data in float and record per-stage ranges.

    Runs a fresh stream over the pipeline's stages from zero histories,
    unprimed, MAX_PASS_STEPS steps per pass (a window's bits do not depend
    on the pass); the caller's stream state is not disturbed. The stream
    must cover at least one step. The zero-history start stays because the
    int8 oracle test and the int8 goldens pin the ranges it gives.
    """
    t = lnet.chunk_size
    if calib_stream.channels != lnet.input_features:
        raise ShapeError(
            f"stream has {calib_stream.channels} channels, expected {lnet.input_features}"
        )
    n_steps = calib_stream.frames // t
    if n_steps < 1:
        raise CalibrationError(
            f"calibration stream has {calib_stream.frames} frames, one step needs {t}"
        )
    ln = Pipeline.of_plan(lnet.stages)
    used = calib_stream.data[:, : n_steps * t]
    lo = np.full(len(ln.stages), np.inf)
    hi = -lo
    for j in range(0, n_steps * t, MAX_PASS_STEPS * t):
        outs = ln.run(used[:, j : j + MAX_PASS_STEPS * t])
        lo = np.minimum(lo, [out.min() for out in outs])
        hi = np.maximum(hi, [out.max() for out in outs])
    ranges = tuple(StageRange(float(a), float(b)) for a, b in zip(lo, hi))
    return CalibrationRanges(float(used.min()), float(used.max()), ranges)


def quantize_network(lnet: Pipeline, ranges: CalibrationRanges) -> Pipeline:
    """Quantize every stage of a float64 pipeline using calibrated ranges."""
    if len(ranges.stage_ranges) != len(lnet.stages):
        raise CalibrationError(
            f"have ranges for {len(ranges.stage_ranges)} stages, pipeline has {len(lnet.stages)}"
        )
    in_params = choose_quant_params(ranges.input_min, ranges.input_max, "asymmetric")
    stages = []
    for st, rng in zip(lnet.stages, ranges.stage_ranges):
        layer = st.op
        a = float(np.max(np.abs(layer.weights)))
        wp = choose_quant_params(-a, a, "symmetric")
        out_params = choose_quant_params(rng.out_min, rng.out_max, "asymmetric")
        qlayer = QuantizedLinearLayer(
            quantize_array(layer.weights, wp),
            round_half_away(layer.bias / (wp.scale * in_params.scale)),
            wp,
            in_params,
            out_params,
            layer.activation,
        )
        stages.append(replace(st, op=qlayer))
        in_params = out_params
    return Pipeline(stages)
