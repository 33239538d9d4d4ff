"""One streaming pipeline for every engine: a plan of stages, each a
dense operator over windows of its input columns, and one StreamState per
stage for the stream that runs through it.

Stages hold only a name, an operator, geometry and residual wiring, so
every engine of a model shares them. A StreamState holds the newest
max(K - s, 0) input columns its stage has seen; `reset` makes fresh ones
and `copy` copies only them. Histories are replaced, never written in
place, so copies may share them.

Windows flatten channel-major, x~[c*K + k] = window[c][k]. A stage
advances a state over new input columns by appending them to its history,
handing every (C, K) window at its stride to its operator as one (n, C*K)
matrix, and keeping the newest columns as the next history. A step feeds
one first-layer stride of frames and emits one column per stage. Priming
takes each stage's history from the head of that stage's input and
advances over the rest, so a following step picks up exactly where a
batch pass over the prefix would. Calibration reads each stage's output
from the same loop.

An operator (a DenseOperator) supplies the arithmetic: `LinearLayer` in
float64 and `quantize.QuantizedLinearLayer` in int8, whose columns hold
codes minus their zero point; both stream float64 columns in which 0 is
a zero column, so every history starts as zeros.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ShapeError

ACTIVATIONS = ("none", "relu")


def apply_activation_array(arr: np.ndarray, kind: str) -> np.ndarray:
    if kind == "none":
        return arr
    if kind == "relu":
        return np.maximum(arr, 0.0)
    raise ConfigError(f"unknown activation {kind!r}")


class DenseOperator:
    """Weights (in_dim, out_dim) and bias (out_dim,) of a stage's operator.

    Subclasses define forward(windows, residual=None, source=None), which
    maps (n, in_dim) windows to (out_dim, n) columns and adds residual,
    the input columns of the operator source. encode maps float input
    columns to what the windows hold, in which a zero column is 0, and
    decode maps output columns back to float; here they are float columns.
    """

    def _store(self, w: np.ndarray, b: np.ndarray) -> None:
        """Check the layout and activation, then keep w and b read-only."""
        if w.ndim != 2 or min(w.shape) < 1 or b.shape != (w.shape[1],):
            raise ShapeError(f"weights {w.shape} and bias {b.shape} are not (in, out) and (out,)")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"activation must be one of {ACTIVATIONS}")
        for name, arr in (("weights", w), ("bias", b)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def param_count(self) -> int:
        return self.weights.size + self.bias.size

    @property
    def mac_count(self) -> int:
        return self.weights.size

    def encode(self, x: np.ndarray) -> np.ndarray:
        return x

    def decode(self, y: np.ndarray) -> np.ndarray:
        return y


@dataclass(frozen=True)
class LinearLayer(DenseOperator):
    """Dense layer with weights of shape (in_dim, out_dim) and bias (out_dim,)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "none"

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        b = np.ascontiguousarray(np.asarray(self.bias, dtype=np.float64))
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise ShapeError("weights and bias must be finite")
        self._store(w, b)

    def forward(self, windows, residual=None, source=None) -> np.ndarray:
        """Float columns carry no scale, so source is unused."""
        out = apply_activation_array(windows @ self.weights + self.bias, self.activation).T
        return out if residual is None else out + residual


def _windows(buf: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Every window of buf at the given stride, flattened to (n, C*K)."""
    c, t = buf.shape
    if t == kernel:  # a step's single window, without a strided view
        return buf.reshape(1, c * kernel)
    if t < kernel:
        return np.empty((0, c * kernel), buf.dtype)
    view = sliding_window_view(buf, kernel, axis=1)[:, ::stride]
    return view.transpose(1, 0, 2).reshape(-1, c * kernel)


@dataclass
class StreamState:
    """One stream's history at one stage, and the input columns per step."""

    history: np.ndarray
    chunk_size: int


@dataclass(eq=False)
class PipelineStage:
    """Geometry, operator and residual wiring of one stage of a plan.

    A stage that captures its input passes its newest columns on as the
    residual of the later stage whose residual_from names it.
    """

    name: str
    op: DenseOperator
    channels: int
    kernel: int
    stride: int
    captures_input: bool = False
    residual_from: int | None = None

    def __post_init__(self):
        geometry = (self.channels, self.kernel, self.stride)
        self.channels, self.kernel, self.stride = map(operator.index, geometry)

    @property
    def history_len(self) -> int:
        return max(self.kernel - self.stride, 0)

    def fresh_state(self, chunk_size: int) -> StreamState:
        """A stream that has seen only zero columns."""
        return StreamState(np.zeros((self.channels, self.history_len)), chunk_size)

    def advance(self, state: StreamState, cols, residual=None, source=None) -> np.ndarray:
        """Consume input columns; returns one output column per window."""
        h = state.history.shape[1]
        buf = np.concatenate([state.history, cols], axis=1) if h else cols
        out = self.op.forward(_windows(buf, self.kernel, self.stride), residual, source)
        if h:
            state.history = buf[:, buf.shape[1] - h :].copy()
        return out


def _check_geometry(stages) -> None:
    if not stages:
        raise ShapeError("a pipeline needs at least one stage")
    width = stages[0].channels
    for j, st in enumerate(stages):
        if st.kernel < 1 or st.stride < 1 or (j and st.stride != 1):
            raise ShapeError(
                f"{st.name}: kernel {st.kernel}, stride {st.stride}; kernels must be "
                "positive and every stride after the first must be 1"
            )
        if st.channels != width:
            raise ShapeError(f"{st.name} takes {st.channels} channels, its input has {width}")
        if st.op.in_dim != st.channels * st.kernel:
            raise ShapeError(
                f"{st.name}: operator input {st.op.in_dim} != {st.channels} * {st.kernel}"
            )
        width = st.op.out_dim
        r = st.residual_from
        if r is None:
            continue
        if not (isinstance(r, int) and 0 <= r < j):
            raise ShapeError(f"{st.name}: residual_from {r!r} is not an earlier stage")
        src = stages[r]
        if not (src.captures_input and src.stride == 1 and src.channels == width):
            raise ShapeError(
                f"{st.name}: residual source {src.name} must capture its input at stride 1 "
                f"with {width} channels"
            )
        if any(mid.kernel != 1 for mid in stages[r + 1 : j]):
            raise ShapeError(f"{st.name}: stages after its residual source must be pointwise")


class Pipeline:
    """A plan of stages and the state of one stream through it."""

    def __init__(self, stages):
        self.stages = list(stages)
        _check_geometry(self.stages)
        self.reset()

    @classmethod
    def of_plan(cls, stages: list) -> "Pipeline":
        """A fresh stream over a plan whose geometry is already checked,
        such as a model's stages; the stages are shared, not copied."""
        eng = cls.__new__(cls)
        eng.stages = stages
        eng.reset()
        return eng

    @property
    def chunk_size(self) -> int:
        return self.stages[0].stride

    @property
    def input_features(self) -> int:
        return self.stages[0].channels

    @property
    def n_classes(self) -> int:
        return self.stages[-1].op.out_dim

    def reset(self):
        """Fresh states; a step feeds each stage its stride in columns."""
        self.states = [st.fresh_state(st.stride) for st in self.stages]

    def copy(self) -> "Pipeline":
        dup = copy.copy(self)
        dup.states = [StreamState(s.history, s.chunk_size) for s in self.states]
        return dup

    def run(self, columns: np.ndarray, prime: bool = False) -> list:
        """Advance every stage over float input columns; returns each
        stage's output, classifier last, in its operator's encoding.

        With prime, each stage first takes its history from the head of
        its input.
        """
        cols = self.stages[0].op.encode(columns)
        captured = {}
        outputs = []
        for idx, (st, state) in enumerate(zip(self.stages, self.states)):
            if prime:
                h = st.history_len
                if cols.shape[1] < h:
                    raise ShapeError(
                        f"prefix leaves {cols.shape[1]} columns for {st.name}, needs {h}"
                    )
                state.history, cols = cols[:, :h], cols[:, h:]
            if st.captures_input:
                captured[idx] = cols
            r = st.residual_from
            if r is None:
                cols = st.advance(state, cols)
            else:
                cols = st.advance(state, cols, captured[r], self.stages[r].op)
            outputs.append(cols)
        return outputs

    def step_array(self, chunk: np.ndarray) -> np.ndarray:
        """One step on (input_features, chunk_size) frames; one column of logits."""
        if chunk.shape != (self.input_features, self.chunk_size):
            raise ShapeError(
                f"chunk shape {chunk.shape} != ({self.input_features}, {self.chunk_size})"
            )
        return self.stages[-1].op.decode(self.run(chunk)[-1])

    def prime_array(self, prefix: np.ndarray):
        """Warm-start every history as if the prefix had already streamed.

        The prefix should hold receptive_field - s1 columns, so that the
        first following step has a fully real context on the stride grid.
        """
        self.run(prefix, prime=True)
