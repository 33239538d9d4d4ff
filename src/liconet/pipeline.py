"""One streaming pipeline for every engine: a plan of stages, each a
dense operator over windows of its input columns, and one StreamState per
stage for the stream that runs through it.

Stages hold only a name, an operator, geometry and residual wiring, so
every engine of a model shares them; `PipelineStage` checks a stage's own
geometry, `check_geometry` how a plan's stages chain. A StreamState holds
the unconsumed tail of its stage's input, which on whole strides is the
newest max(K - s, 0) columns; `reset` makes fresh ones and `copy` copies
only them. Histories are replaced, never written in place, so copies may
share them, and a live step's history is a view of its own small buffer.

Windows flatten channel-major, x~[c*K + k] = window[c][k]. A stage
advances a state over new input columns by appending them to its history,
handing every (C, K) window that a whole stride completes to its operator
as one (n, C*K) matrix (framed by `windows`), and keeping the columns its
windows did not consume, a partial stride included, as the next history;
input that completes no window is kept whole, and no operator is called.
`PipelineStage.advance` alone takes the one window of a live step: the
first K columns of its (C, max(K, s)) buffer as a unit-stride (C*K,)
vector, the 1-D form of the same operator call. A residual adds the input
of the stage that residual_from names: the newest input column of each
window. A step feeds one first-layer stride of frames and emits one column
per stage; `step_array` takes any whole number of steps in one pass. Each
operator gives a window the same bits whatever other windows share its
call, provided the window is a unit-stride row (a strided one is copied),
so a step's logits do not depend on how many steps run together. Priming
is an empty start: each stage starts with no history and steps over the
prefix like any input, so a following step picks up exactly where a batch
pass over the prefix would. Calibration reads each stage's output from
the same loop.

An operator is anything with `forward(windows, residual, source)` and
`out_dim`: `LinearLayer` in float64, `quantize.QuantizedLinearLayer` on int8
codes minus their zero point (each holds its weights once, row-major float64
(in, out), and streams float64 columns in which 0 is a zero column, so a
fresh history is zeros), and FrontendConfig, frontend.FeatureStream's operator.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, NotLinearizableError, ShapeError, is_whole

ACTIVATIONS = ("none", "relu")
# The most steps a caller hands one run, which bounds its temporaries: a
# 60 s push in one pass would raise the peak memory by about two thirds.
MAX_PASS_STEPS = 256


def apply_activation_array(arr: np.ndarray, kind: str) -> np.ndarray:
    if kind == "none":
        return arr
    if kind == "relu":
        return np.maximum(arr, 0.0)
    raise ConfigError(f"unknown activation {kind!r}")


class DenseOperator:
    """Weights (in_dim, out_dim) and bias (out_dim,) of a stage's operator.

    Subclasses define forward(windows, residual=None, source=None), which
    maps (n, in_dim) windows to (out_dim, n) columns, or one (in_dim,) window
    to (out_dim,), and adds residual, the input columns of the operator
    source, shaped as that output. encode maps float input
    columns to what the windows hold, in which a zero column is 0, and
    decode maps output columns back to float; here they are float columns.

    forward gives each window the same bits whatever other windows share
    its call, so one pass over n steps equals n passes of one step.
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
        w = np.ascontiguousarray(self.weights, dtype=np.float64)  # row-major, as files store it
        b = np.asarray(self.bias, dtype=np.float64)
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ShapeError("weights and bias must be finite")
        self._store(w, b)

    def forward(self, windows, residual=None, source=None) -> np.ndarray:
        """Float columns carry no scale, so source is unused.

        Each window is its own GEMV: a GEMM over n windows would sum in
        another order than one window alone, and so round differently."""
        z = np.vecmat(windows, self.weights)
        z += self.bias
        if self.activation == "relu":
            np.maximum(z, 0.0, out=z)
        if residual is not None:
            z += residual.T
        return z.T


def windows(buf: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Every window of buf (C, T) that a whole stride completes, flattened
    channel-major to (n, C*K): n = (T - max(K, s)) // s + 1, or none.

    Rows are unit-stride, since np.vecmat sums a strided row in another
    order. They come from one read-only strided view: at K = 1 its
    rows are buf's columns, free when buf holds them unit-stride, as an
    operator's transposed output does; at K > 1 reshaping it copies once,
    unless C = 1 (the frontend's samples).
    """
    c, t = buf.shape
    span = kernel if kernel > stride else stride
    if t < span:
        return np.empty((0, c * kernel), buf.dtype)
    n = (t - span) // stride + 1
    if kernel == 1:
        rows = buf.T[: n * stride : stride]
    else:
        sc, st = buf.strides
        view = as_strided(buf, (n, c, kernel), (stride * st, sc, st), writeable=False)
        rows = view.reshape(n, c * kernel)
    if rows.strides[1] != rows.itemsize:
        return rows.copy()
    rows.setflags(write=False)
    return rows


@dataclass
class StreamState:
    """One stream's unconsumed input at one stage, and its input columns per step."""

    history: np.ndarray
    chunk_size: int


@dataclass(eq=False)
class PipelineStage:
    """Geometry, operator and residual wiring of one stage of a plan.

    A stage whose residual_from names an earlier stage adds that stage's
    input, the newest input column of each window, to its output. Input
    that completes no window, such as a short push, calls no operator.
    """

    name: str
    op: DenseOperator
    channels: int
    kernel: int
    stride: int
    residual_from: int | None = None

    def __post_init__(self):
        g = (self.channels, self.kernel, self.stride)
        if not (all(map(is_whole, g)) and min(g) >= 1):
            raise ShapeError(f"{self.name}: channels, kernel, stride {g} must be integers >= 1")
        self.channels, self.kernel, self.stride = map(int, g)

    @property
    def history_len(self) -> int:
        return max(self.kernel - self.stride, 0)

    def fresh_state(self, chunk_size: int) -> StreamState:
        """A stream that has seen only zero columns."""
        return StreamState(np.zeros((self.channels, self.history_len)), chunk_size)

    def advance(self, state: StreamState, cols, residual=None, source=None) -> np.ndarray:
        """One output column per window of [history || cols], (out_dim, 0) if none, plus
        the newest columns of residual; after n windows the history is the tail from n*s."""
        k, s, h = self.kernel, self.stride, state.history.shape[1]
        buf = np.concatenate([state.history, cols], axis=1) if h else cols
        t = buf.shape[1]
        span = k if k > s else s
        if t < span:  # no window completes: keep every column, call no operator
            state.history = buf if h else buf.copy()
            return np.empty((self.op.out_dim, 0))
        lone = t < span + s  # a live step: its one window as a unit-stride vector
        win = buf[:, :k].ravel() if lone else windows(buf, k, s)
        n = 1 if lone else len(win)
        if h or n * s < t:  # a pass copies its tail, so as not to keep a long input alive
            state.history = buf[:, n * s :] if lone and h else buf[:, n * s :].copy()
        if residual is not None:
            residual = residual[:, -1] if lone else residual[:, residual.shape[1] - n :]
        out = self.op.forward(win, residual, source)
        return out[:, None] if lone else out


def check_geometry(stages) -> None:
    """Check the rules of a chain, at any strides: each stage takes the
    channels the one before gives, its operator C * K inputs, and each
    residual is wired as a block's. `PipelineStage` checks a stage's own."""
    if not stages:
        raise ShapeError("a pipeline needs at least one stage")
    width = stages[0].channels
    for j, st in enumerate(stages):
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
        if not (is_whole(r) and 0 <= r < j):
            raise ShapeError(f"{st.name}: residual_from {r!r} is not an earlier stage")
        src = stages[r]
        if not (src.stride == 1 and src.channels == width):
            raise ShapeError(
                f"{st.name}: residual source {src.name} must have stride 1 and {width} channels"
            )
        if any(mid.kernel != 1 for mid in stages[r + 1 : j]):
            raise ShapeError(f"{st.name}: stages after its residual source must be pointwise")


@dataclass(frozen=True)
class LinearizabilityReport:
    """Outcome of the conversion gate; violations are (layer id, reason)."""

    violations: tuple = ()

    @property
    def compliant(self) -> bool:
        return not self.violations


def check_stages(stages, t: int) -> LinearizabilityReport:
    """The gate on a stage plan: first stride t, every later stride 1."""
    first, *later = stages
    violations = () if first.stride == t else (
        (first.name, f"first layer stride {first.stride} != chunk size {t}"),
    )
    violations += tuple((st.name, f"stride {st.stride} != 1") for st in later if st.stride != 1)
    return LinearizabilityReport(violations)


def linear_plan(stages, t: int) -> list:
    """The stages if they pass the gate, and so step as one dense product per
    stage for each chunk of t frames; otherwise raises NotLinearizableError."""
    report = check_stages(stages, t)
    if not report.compliant:
        raise NotLinearizableError(report)
    return stages


class Pipeline:
    """A plan of stages and the state of one stream through it."""

    def __init__(self, stages):
        self.stages = list(stages)
        check_geometry(self.stages)
        linear_plan(self.stages, self.chunk_size)  # every later stride 1, or the stage is named
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

    def run(self, columns: np.ndarray) -> list:
        """Advance every stage over float input columns; returns each
        stage's output, classifier last, in its operator's encoding."""
        cols = [self.stages[0].op.encode(columns)]  # stage j's input, then its output
        for st, state in zip(self.stages, self.states):
            r = st.residual_from
            if r is None:
                cols.append(st.advance(state, cols[-1]))
            else:
                cols.append(st.advance(state, cols[-1], cols[r], self.stages[r].op))
        return cols[1:]

    def _check_frames(self, frames: np.ndarray, lead: int, least: int) -> None:
        """Refuse frames not shaped (input_features, lead + k * chunk_size), k >= least."""
        t, c, shape = self.chunk_size, self.input_features, frames.shape
        n = shape[1] - lead if len(shape) == 2 else -1
        if n < least * t or n % t or shape[0] != c:
            raise ShapeError(f"frames shape {shape} != ({c}, {lead} + k * {t}), k >= {least}")

    def step_array(self, frames: np.ndarray) -> np.ndarray:
        """Steps on (input_features, n * chunk_size) frames, n >= 1; one
        column of logits per step, with the same bits however many steps
        share the call."""
        self._check_frames(frames, 0, 1)
        return self.stages[-1].op.decode(self.run(frames)[-1])

    def prime_array(self, prefix: np.ndarray):
        """Warm-start every history as if the prefix had already streamed:
        each stage starts empty and keeps the unconsumed tail of its input.

        The prefix holds receptive_field - s1 + k * s1 columns, k >= 0, which
        leaves each stage its max(K - s, 0) columns on the stride grid;
        with k = 0 the first following step has a fully real context.
        """
        self._check_frames(prefix, receptive_field_of(self.stages) - self.chunk_size, 0)
        self.states = [StreamState(np.zeros((st.channels, 0)), st.stride) for st in self.stages]
        self.run(prefix)


def receptive_field_of(stages) -> int:
    """Input frames one output column of a chain of stages needs.

    Counted on the first-layer stride grid: the first stage takes
    max(K1, s1) frames (a whole stride even when the kernel is shorter),
    and stage j widens the footprint by K_j - 1 of its input columns,
    each s_1 * ... * s_(j-1) frames apart. For a compliant net (every
    later stride 1), RF - s1 = max(K1 - s1, 0) + s1 * sum(K - 1) frames
    are a stream's priming prefix, after which the stream equals the
    batch pass over the same frames. A stream from zero histories equals
    batch over RF - s1 zero frames only when every stage maps a zero
    input to zero, as the zero biases of `liconet init` do.
    """
    first, *later = stages
    rf, spacing = max(first.kernel, first.stride), first.stride
    for st in later:
        rf += (st.kernel - 1) * spacing
        spacing *= st.stride
    return rf
