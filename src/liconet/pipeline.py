"""One streaming pipeline for every engine: a chain of stages, each a
dense operator fed by a history of its newest input columns.

Windows flatten channel-major, x~[c*K + k] = window[c][k]. A stage
advances over new input columns by appending them to its history,
handing every (C, K) window at its stride to its operator as one
(n, C*K) matrix, and keeping the newest max(K - s, 0) columns as the
next history. A step feeds one first-layer stride of frames and emits
one column per stage. Priming takes each stage's history from the head
of that stage's input and advances over the rest, so a following step
picks up exactly where a batch pass over the prefix would. Calibration
reads each stage's output from the same loop.

An operator (a DenseOperator) supplies the arithmetic: `model.LinearLayer`
in float64 and `quantize.QuantizedLinearLayer` in int8.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .conv import ACTIVATIONS
from .errors import ConfigError, ShapeError


class DenseOperator:
    """Weights (in_dim, out_dim) and bias (out_dim,) of a stage's operator.

    Subclasses define forward(windows, residual=None, source=None), which
    maps (n, in_dim) windows to (out_dim, n) columns and adds residual,
    the input columns of the operator source. encode maps float input
    columns to what the windows hold, zeros gives that of zero columns and
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

    def zeros(self, channels: int, width: int) -> np.ndarray:
        return np.zeros((channels, width))

    def decode(self, y: np.ndarray) -> np.ndarray:
        return y


def _windows(buf: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Every window of buf at the given stride, flattened to (n, C*K)."""
    c, t = buf.shape
    if t == kernel:  # a step's single window, without a strided view
        return buf.reshape(1, c * kernel)
    if t < kernel:
        return np.empty((0, c * kernel), buf.dtype)
    view = sliding_window_view(buf, kernel, axis=1)[:, ::stride]
    return view.transpose(1, 0, 2).reshape(-1, c * kernel)


@dataclass(eq=False)
class PipelineStage:
    """Geometry and operator of one stage, plus the history of one stream.

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
    history_len: int = field(init=False, repr=False)
    history: np.ndarray = field(init=False, repr=False)
    blank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        geometry = (self.channels, self.kernel, self.stride)
        self.channels, self.kernel, self.stride = map(operator.index, geometry)
        self.history_len = max(self.kernel - self.stride, 0)
        # Histories are replaced, never written in place, so copies share
        # them and every reset shares one zero history.
        self.blank = self.op.zeros(self.channels, self.history_len)
        self.history = self.blank

    def advance(self, cols, residual=None, source=None) -> np.ndarray:
        """Consume input columns; returns one output column per window."""
        h = self.history_len
        buf = np.concatenate([self.history, cols], axis=1) if h else cols
        out = self.op.forward(_windows(buf, self.kernel, self.stride), residual, source)
        if h:
            self.history = buf[:, buf.shape[1] - h :].copy()
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
    """A network as a chain of stages; weights are shared between copies,
    histories belong to one stream."""

    def __init__(self, stages):
        self.stages = list(stages)
        _check_geometry(self.stages)

    @property
    def chunk_size(self) -> int:
        return self.stages[0].stride

    @property
    def input_features(self) -> int:
        return self.stages[0].channels

    @property
    def n_classes(self) -> int:
        return self.stages[-1].op.out_dim

    @property
    def layers(self) -> list:
        """The operators of the stages, classifier last."""
        return [st.op for st in self.stages]

    def reset(self):
        for st in self.stages:
            st.history = st.blank

    def copy(self) -> "Pipeline":
        dup = copy.copy(self)
        dup.stages = [copy.copy(st) for st in self.stages]
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
        for idx, st in enumerate(self.stages):
            if prime:
                h = st.history_len
                if cols.shape[1] < h:
                    raise ShapeError(
                        f"prefix leaves {cols.shape[1]} columns for {st.name}, needs {h}"
                    )
                st.history, cols = cols[:, :h], cols[:, h:]
            if st.captures_input:
                captured[idx] = cols
            r = st.residual_from
            if r is None:
                cols = st.advance(cols)
            else:
                cols = st.advance(cols, captured[r], self.stages[r].op)
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
