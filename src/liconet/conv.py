"""Reference and streaming 1D convolution.

The batch form computes, for weights of shape (D, C, K) and stride s,

    Y[d, i] = sum_c sum_k W[d, c, k] * X[c, s*i + k] + bias[d]

over i = 0 .. floor((T-K)/s), followed by the layer activation. The
streaming form consumes fixed-size chunks of t frames (t a multiple of s)
and keeps the most recent max(K-s, 0) input columns as internal state, so
the concatenated chunk outputs reproduce the batch output on the input
left-padded with max(K-s, 0) zero columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError
from .tensor import Tensor2D

ACTIVATIONS = ("none", "relu")


def apply_activation_array(arr: np.ndarray, kind: str) -> np.ndarray:
    if kind == "none":
        return arr
    if kind == "relu":
        return np.maximum(arr, 0.0)
    raise ConfigError(f"unknown activation {kind!r}")


def apply_activation(x: Tensor2D, kind: str) -> Tensor2D:
    """Element-wise activation; 'none' is the identity."""
    return Tensor2D(apply_activation_array(x.data, kind))


@dataclass(frozen=True)
class Conv1DLayer:
    """Causal 1D convolution layer: weights (D, C, K), bias (D,)."""

    weights: np.ndarray
    bias: np.ndarray
    stride: int = 1
    activation: str = "none"

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64))
        if w.ndim != 3:
            raise ShapeError(f"weights must be (out, in, kernel), got shape {w.shape}")
        d, c, k = w.shape
        if min(d, c, k) < 1:
            raise ShapeError(f"all weight dimensions must be >= 1, got {w.shape}")
        if b.shape != (d,):
            raise ShapeError(f"bias shape {b.shape} does not match {d} output channels")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ShapeError("weights and bias must be finite")
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel(self) -> int:
        return self.weights.shape[2]

    @property
    def history_len(self) -> int:
        """Columns of input state carried between streaming chunks."""
        return max(self.kernel - self.stride, 0)

    @property
    def param_count(self) -> int:
        return self.weights.size + self.bias.size

    @property
    def mac_count(self) -> int:
        """Multiply-accumulates to produce one output column."""
        return self.weights.size


def conv_valid_array(x: np.ndarray, layer: Conv1DLayer) -> np.ndarray:
    """Batch convolution on a raw (C, T) array, T >= K required."""
    c, t = x.shape
    k = layer.kernel
    if c != layer.in_channels:
        raise ShapeError(f"input has {c} channels, layer expects {layer.in_channels}")
    if t < k:
        raise ShapeError(f"input has {t} frames, kernel needs at least {k}")
    windows = sliding_window_view(x, k, axis=1)[:, :: layer.stride, :]  # (C, n, K)
    out = np.einsum("dck,cnk->dn", layer.weights, windows) + layer.bias[:, np.newaxis]
    return apply_activation_array(out, layer.activation)


def conv1d_forward(x: Tensor2D, layer: Conv1DLayer) -> Tensor2D:
    """Non-streaming convolution; output shape (D, floor((T-K)/s) + 1)."""
    return Tensor2D(conv_valid_array(x.data, layer))


@dataclass
class StreamState:
    """Mutable per-stream history of the most recent max(K-s, 0) input columns."""

    history: np.ndarray
    chunk_size: int


def stream_state_init(layer: Conv1DLayer, t: int) -> StreamState:
    """Zero-filled state for chunked streaming with chunk size t.

    t must be a positive multiple of the layer stride so every chunk
    yields exactly t/s output columns.
    """
    if t < 1 or t % layer.stride != 0:
        raise ConfigError(f"chunk size {t} is not a positive multiple of stride {layer.stride}")
    return StreamState(np.zeros((layer.in_channels, layer.history_len)), t)


def stream_step(layer: Conv1DLayer, state: StreamState, chunk: Tensor2D) -> Tensor2D:
    """Convolve [history || chunk] and roll the history forward.

    Output has t/s columns; the updated history holds the trailing
    max(K-s, 0) columns of the concatenation, ready for the next chunk.
    """
    if chunk.channels != layer.in_channels:
        raise ShapeError(
            f"chunk has {chunk.channels} channels, layer expects {layer.in_channels}"
        )
    if chunk.frames != state.chunk_size:
        raise ShapeError(f"chunk has {chunk.frames} frames, state expects {state.chunk_size}")
    buf = np.concatenate([state.history, chunk.data], axis=1)
    out = conv_valid_array(buf, layer)
    h = layer.history_len
    state.history = buf[:, buf.shape[1] - h :].copy() if h else buf[:, :0].copy()
    return Tensor2D(out)
