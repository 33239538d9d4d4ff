"""Dense 2D feature maps and int8 affine quantization primitives.

A feature map is channels x frames; element (c, i) lives at index c*T + i
of the flattened buffer. Quantization follows the affine convention
real ~= scale * (q - zero_point) with q stored as signed 8-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FLOAT_MAX, InvalidInputError, ShapeError, is_real, is_whole, plain

QMIN = -128
QMAX = 127


def round_half_away(x):
    """Round to nearest integer, ties away from zero.

    Fixed platform-independent rule; numpy's default rounding is
    round-half-even and would not match hand-computed expectations.
    """
    x = np.asarray(x)
    return np.trunc(x + np.copysign(0.5, x))


class Tensor2D:
    """Immutable real-valued map of shape (channels, frames).

    Accepts any 2D array-like (or 1D, treated as a single channel).
    All values must be finite.
    """

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ShapeError(f"expected channels x frames, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise InvalidInputError("tensor contains NaN or Inf")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def frames(self) -> int:
        return self.data.shape[1]

    @classmethod
    def zeros(cls, channels: int, frames: int) -> "Tensor2D":
        return cls(np.zeros((channels, frames)))


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters. Symmetric params have zero_point 0."""

    scale: float
    zero_point: int = 0

    def __post_init__(self):
        scale, zero_point = self.scale, self.zero_point
        if not is_whole(zero_point):
            raise InvalidInputError(f"zero_point {zero_point!r} is not an integer")
        if not is_real(scale):
            raise InvalidInputError(f"scale {scale!r} is not a real number")
        # float() fails from 2**1024 - 2**970 on; a negative int short of that is not positive
        if type(value := plain(scale)) is int and not -(2**1024 - 2**970) < value <= FLOAT_MAX:
            raise InvalidInputError("scale does not fit a float: int too large to convert to float")
        if not 0 < value <= FLOAT_MAX:  # NaN fails too
            raise InvalidInputError(f"scale must be positive, got {scale}")
        if not QMIN <= zero_point <= QMAX:
            raise InvalidInputError(f"zero_point {zero_point} outside [{QMIN}, {QMAX}]")
        if type(zero_point) is not int or type(scale) is not float:  # JSON takes no numpy number
            object.__setattr__(self, "scale", value)
            object.__setattr__(self, "zero_point", int(zero_point))


class QuantTensor:
    """Signed 8-bit map of shape (channels, frames) plus its QuantParams."""

    __slots__ = ("data", "params")

    def __init__(self, data, params: QuantParams):
        arr = np.asarray(data)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ShapeError(f"expected channels x frames, got shape {arr.shape}")
        if arr.dtype != np.int8:
            if not np.all((arr >= QMIN) & (arr <= QMAX)):
                raise InvalidInputError("quantized values outside int8 range")
            arr = arr.astype(np.int8)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "params", params)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def frames(self) -> int:
        return self.data.shape[1]


def quantize_array(arr: np.ndarray, p: QuantParams) -> np.ndarray:
    """clamp(round(v / scale) + zero_point) on a raw float array."""
    q = round_half_away(arr / p.scale) + p.zero_point
    return np.clip(q, QMIN, QMAX).astype(np.int8)


def quantize_affine(x: Tensor2D, p: QuantParams) -> QuantTensor:
    """Quantize a feature map to int8 under the given params."""
    return QuantTensor(quantize_array(x.data, p), p)


def dequantize_affine(q: QuantTensor) -> Tensor2D:
    """Recover the real-valued map scale * (q - zero_point)."""
    return Tensor2D((q.data.astype(np.float64) - q.params.zero_point) * q.params.scale)


def choose_quant_params(min_v: float, max_v: float, mode: str = "asymmetric") -> QuantParams:
    """Derive int8 params covering [min_v, max_v].

    symmetric: range taken as [-a, a] with a = max(|min_v|, |max_v|),
    scale a/127, zero_point 0. Used for weights.

    asymmetric: range widened to include 0 so that zero is exactly
    representable, scale (max-min)/255, zero_point round(-128 - min/scale)
    clamped to int8. Used for activations.

    A degenerate (zero-width) range yields scale 1, zero_point 0.
    """
    if not (np.isfinite(min_v) and np.isfinite(max_v)):
        raise InvalidInputError("range bounds must be finite")
    if min_v > max_v:
        raise InvalidInputError(f"invalid range: min {min_v} > max {max_v}")
    if mode == "symmetric":
        a = max(abs(min_v), abs(max_v))
        return QuantParams(a / QMAX if a else 1.0, 0)
    if mode == "asymmetric":
        lo, hi = min(min_v, 0.0), max(max_v, 0.0)
        if hi == lo:
            return QuantParams(1.0, 0)
        scale = (hi - lo) / (QMAX - QMIN)
        zp = int(round_half_away(QMIN - lo / scale))
        return QuantParams(scale, int(np.clip(zp, QMIN, QMAX)))
    raise InvalidInputError(f"unknown quantization mode {mode!r}")
