"""Reference and streaming 1D convolution.

The batch form computes, for weights of shape (D, C, K) and stride s,

    Y[d, i] = sum_c sum_k W[d, c, k] * X[c, s*i + k] + bias[d]

over i = 0 .. floor((T-K)/s), followed by the layer activation. The
streaming form is a one-stage pipeline (see pipeline.py): the layer as a
dense operator over channel-major windows, stepped over fixed-size chunks
of t frames (t a multiple of s) with a StreamState holding the most
recent max(K-s, 0) input columns, so the concatenated chunk outputs
reproduce the batch output on the input left-padded with max(K-s, 0)
zero columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError
from .pipeline import ACTIVATIONS, LinearLayer, PipelineStage, StreamState
from .pipeline import apply_activation_array
from .tensor import Tensor2D


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

    @cached_property
    def dense(self) -> LinearLayer:
        """The layer as a dense (C*K, D) operator, Wd[c*K + k][d] = W[d][c][k].

        Built once per layer. The conv layer has already checked everything
        LinearLayer would, so the reshaped weights are not checked again.
        """
        w = self.weights.transpose(1, 2, 0).reshape(self.in_channels * self.kernel, -1)
        w.setflags(write=False)
        dense = object.__new__(LinearLayer)
        for name, value in (("weights", w), ("bias", self.bias), ("activation", self.activation)):
            object.__setattr__(dense, name, value)
        return dense


def conv_stage(name: str, layer: Conv1DLayer, captures_input=False, residual_from=None):
    """The layer as one pipeline stage."""
    return PipelineStage(name, layer.dense, layer.in_channels, layer.kernel,
                         layer.stride, captures_input, residual_from)


def conv_valid(x: np.ndarray, weights: np.ndarray, bias, stride: int, activation: str):
    """Batch convolution of a raw (C, T) array by weights (D, C, K), T >= K."""
    c, t = x.shape
    k = weights.shape[2]
    if c != weights.shape[1]:
        raise ShapeError(f"input has {c} channels, layer expects {weights.shape[1]}")
    if t < k:
        raise ShapeError(f"input has {t} frames, kernel needs at least {k}")
    windows = sliding_window_view(x, k, axis=1)[:, ::stride, :]  # (C, n, K)
    out = np.einsum("dck,cnk->dn", weights, windows) + bias[:, np.newaxis]
    return apply_activation_array(out, activation)


def conv1d_forward(x: Tensor2D, layer: Conv1DLayer) -> Tensor2D:
    """Non-streaming convolution; output shape (D, floor((T-K)/s) + 1)."""
    return Tensor2D(conv_valid(x.data, layer.weights, layer.bias, layer.stride, layer.activation))


def stream_state_init(layer: Conv1DLayer, t: int) -> StreamState:
    """Zero-filled state for chunked streaming with chunk size t.

    t must be a positive multiple of the layer stride so every chunk
    yields exactly t/s output columns.
    """
    if t < 1 or t % layer.stride != 0:
        raise ConfigError(f"chunk size {t} is not a positive multiple of stride {layer.stride}")
    return conv_stage("conv", layer).fresh_state(t)


def stream_step(layer: Conv1DLayer, state: StreamState, chunk: Tensor2D) -> Tensor2D:
    """Advance the layer's stage over one chunk; t/s output columns.

    The updated history holds the trailing max(K-s, 0) columns of
    [history || chunk], ready for the next chunk.
    """
    if chunk.channels != layer.in_channels:
        raise ShapeError(
            f"chunk has {chunk.channels} channels, layer expects {layer.in_channels}"
        )
    if chunk.frames != state.chunk_size:
        raise ShapeError(f"chunk has {chunk.frames} frames, state expects {state.chunk_size}")
    return Tensor2D(conv_stage("conv", layer).advance(state, chunk.data))
