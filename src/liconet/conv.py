"""Reference and streaming 1D convolution; no other module relates a conv's
(D, C, K) weights, a view, to the dense operator that holds them. At stride s,

    Y[d, i] = sum_c sum_k W[d, c, k] * X[c, s*i + k] + bias[d]

over i = 0 .. floor((T-K)/s), then the activation, is the batch form. The
streaming form is a one-stage pipeline (see pipeline.py): the layer as a
dense operator over channel-major windows, stepped over fixed-size chunks
of t frames (t a multiple of s) with a StreamState holding the input
columns its windows have not consumed, max(K-s, 0) of them, so the
concatenated chunk outputs reproduce the batch output on the input
left-padded with max(K-s, 0) zero columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError, stride_of
from .pipeline import LinearLayer, PipelineStage, StreamState
from .pipeline import apply_activation_array
from .tensor import Tensor2D


def apply_activation(x: Tensor2D, kind: str) -> Tensor2D:
    """Element-wise activation; 'none' is the identity."""
    return Tensor2D(apply_activation_array(x.data, kind))


@dataclass(frozen=True)
class Conv1DLayer:
    """Causal 1D convolution layer: weights (D, C, K), bias (D,).

    dense is the layer as a (C*K, D) operator, Wd[c*K + k][d] = W[d][c][k],
    which holds the one copy; weights is a read-only view of it.
    """

    weights: np.ndarray
    bias: np.ndarray
    stride: int = 1
    activation: str = "none"
    dense: LinearLayer = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.ndim != 3:
            raise ShapeError(f"weights must be (out, in, kernel), got shape {w.shape}")
        stride = stride_of(self.stride, "stride")
        d, c, k = w.shape  # cast and reorder in one copy, the one the dense operator keeps
        wd = np.ascontiguousarray(w.transpose(1, 2, 0), dtype=np.float64).reshape(c * k, d)
        dense = LinearLayer(wd, self.bias, self.activation)
        w = dense.weights.reshape(c, k, d).transpose(2, 0, 1)
        for name, value in (("weights", w), ("bias", dense.bias), ("dense", dense),
                            ("stride", stride)):
            object.__setattr__(self, name, value)

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]

    @property
    def kernel(self) -> int:
        return self.weights.shape[2]


def pointwise(dense: np.ndarray, bias) -> Conv1DLayer:
    """The kernel-1 layer whose dense operator holds the (C, D) weights dense."""
    return Conv1DLayer(dense.T[..., np.newaxis], bias)


def conv_stage(name: str, layer: Conv1DLayer, residual_from=None):
    """The layer as one pipeline stage."""
    return PipelineStage(name, layer.dense, layer.in_channels, layer.kernel,
                         layer.stride, residual_from)


def conv_valid(x: np.ndarray, stage: PipelineStage) -> np.ndarray:
    """Batch convolution of a raw (C, T) array by a stage, T >= K: its
    dense (C*K, D) weights read as a (C, K, D) view, Wd[c, k, d] = W[d, c, k]."""
    c, t = x.shape
    op, k = stage.op, stage.kernel
    if c != stage.channels:
        raise ShapeError(f"input has {c} channels, layer expects {stage.channels}")
    if t < k:
        raise ShapeError(f"input has {t} frames, kernel needs at least {k}")
    windows = sliding_window_view(x, k, axis=1)[:, :: stage.stride, :]  # (C, n, K)
    weights = op.weights.reshape(c, k, op.out_dim)
    out = np.einsum("ckd,cnk->dn", weights, windows) + op.bias[:, np.newaxis]
    return apply_activation_array(out, op.activation)


def conv1d_forward(x: Tensor2D, layer: Conv1DLayer) -> Tensor2D:
    """Non-streaming convolution; output shape (D, floor((T-K)/s) + 1)."""
    return Tensor2D(conv_valid(x.data, conv_stage("conv", layer)))


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
