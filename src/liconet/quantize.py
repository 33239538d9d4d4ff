"""Post-training int8 quantization of a float64 pipeline.

Weights are quantized symmetrically per tensor, activations asymmetrically
per stage from calibrated min/max ranges (widened to include zero). Biases
are pre-scaled to 32-bit integers in units of w_scale * in_scale. The
quantized pipeline keeps the float one's stage geometry and wiring and
swaps each operator for a QuantizedLinearLayer: stage j takes int8
columns in its in_params, which are stage j-1's out_params, so columns
flow between stages without conversion; the first stage quantizes the
float input and the classifier dequantizes the logits. Requantization
uses a double-precision multiplier with round-half-away-from-zero, so the
whole pipeline is bit-exact across runs and platforms once the input is
quantized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import CalibrationError, ConfigError, ShapeError
from .pipeline import DenseOperator, Pipeline
from .tensor import (
    QMAX,
    QMIN,
    QuantParams,
    Tensor2D,
    choose_quant_params,
    dequantize_array,
    quantize_array,
    round_half_away,
)

# Guarantees an int32 accumulator cannot overflow: per-term magnitude is at
# most 127 * 255, so 16384 terms stay below 2**31.
MAX_IN_DIM = 16384


@dataclass(frozen=True)
class QuantizedLinearLayer(DenseOperator):
    """int8 dense operator with pre-scaled int32 bias."""

    weights: np.ndarray  # int8, (in_dim, out_dim)
    bias: np.ndarray  # int32, (out_dim,)
    weight_params: QuantParams
    in_params: QuantParams
    out_params: QuantParams
    activation: str

    def __post_init__(self):
        if self.weight_params.zero_point != 0:
            raise ConfigError("weight quantization must be symmetric (zero_point 0)")
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.int8))
        b = np.ascontiguousarray(np.asarray(self.bias, dtype=np.int32))
        self._store(w, b)
        if w.shape[0] > MAX_IN_DIM:
            raise ConfigError(f"in_dim {w.shape[0]} exceeds accumulator-safe {MAX_IN_DIM}")

    def forward(self, windows, residual=None, source=None) -> np.ndarray:
        """int8 windows to int8 columns. The residual, in source's
        in_params, is rescaled to this layer's out_params and added before
        the final clip."""
        acc = (windows.astype(np.int64) - self.in_params.zero_point) @ self.weights.astype(
            np.int64
        ) + self.bias
        m = self.weight_params.scale * self.in_params.scale / self.out_params.scale
        z = round_half_away(acc.T.astype(np.float64) * m) + self.out_params.zero_point
        if self.activation == "relu":
            z = np.maximum(z, self.out_params.zero_point)
        if residual is not None:
            src = source.in_params
            z = z + round_half_away(
                (residual.astype(np.float64) - src.zero_point) * (src.scale / self.out_params.scale)
            )
        return np.clip(z, QMIN, QMAX).astype(np.int8)

    def encode(self, x: np.ndarray) -> np.ndarray:
        return quantize_array(x, self.in_params)

    def zeros(self, channels: int, width: int) -> np.ndarray:
        return np.full((channels, width), self.in_params.zero_point, dtype=np.int8)

    def decode(self, y: np.ndarray) -> np.ndarray:
        return dequantize_array(y, self.out_params)


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

    Runs a fresh stream over the pipeline's stages; the caller's stream
    state is not disturbed. The stream must cover at least one step.
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
    for j in range(n_steps):
        outs = ln.run(used[:, j * t : (j + 1) * t])
        lo = np.minimum(lo, [out.min() for out in outs])
        hi = np.maximum(hi, [out.max() for out in outs])
    ranges = tuple(StageRange(float(a), float(b)) for a, b in zip(lo, hi))
    return CalibrationRanges(float(used.min()), float(used.max()), ranges)


def _weight_params(w: np.ndarray) -> QuantParams:
    a = float(np.max(np.abs(w))) if w.size else 0.0
    return choose_quant_params(-a, a, "symmetric")


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
        wp = _weight_params(layer.weights)
        out_params = choose_quant_params(rng.out_min, rng.out_max, "asymmetric")
        qlayer = QuantizedLinearLayer(
            quantize_array(layer.weights, wp),
            round_half_away(layer.bias / (wp.scale * in_params.scale)).astype(np.int32),
            wp,
            in_params,
            out_params,
            layer.activation,
        )
        stages.append(replace(st, op=qlayer))
        in_params = out_params
    return Pipeline(stages)
