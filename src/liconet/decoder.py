"""Posterior smoothing and sliding-window keyword scoring (Chen, Parada &
Heigold 2014, "Small-footprint keyword spotting using deep neural networks").

The detection score over a window of smoothed posteriors is the geometric
mean of each keyword class's maximum within the window, clamped to [0, 1].
Events fire on an upward threshold crossing and are then suppressed for
one full window (refractory period).

Softmax and the decoder run on blocks of steps, and one step is a block of
one (as streaming and whole-input inference are two forms of one model in
Rybakov et al. 2020, arXiv:2005.06720). Each sum runs over one step's own
row or window, so no bit depends on how the steps are split into blocks.

Numbers are checked once, where they enter the library: `softmax` checks
logits and `PosteriorFrame(...)` probabilities. Frames computed from checked
numbers (softmax blocks, smoothed blocks and the steps of `frames()`) are
built by `PosteriorFrame._of` over read-only arrays, without a second check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FLOAT_MAX, ConfigError, InvalidInputError, is_real, is_whole, plain


def _least(a):
    """The smallest element, NaN if any is; cheaper than a reduction."""
    return a.item(a.argmin())


@dataclass(frozen=True)
class PosteriorFrame:
    """Class probabilities at one inference step, (C,), or at the steps
    from `timestamp` on, (n, C) with one row per step.

    `PosteriorFrame(...)` checks the probabilities it is given; `_of`
    builds the frames the library computes from checked numbers, unchecked.
    Either way `probs` is read-only."""

    timestamp: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.array(self.probs, dtype=np.float64, order="C", ndmin=1)  # a copy
        if not 1 <= p.ndim <= 2 or p.size < 1:
            raise InvalidInputError(f"probs must be (C,) or (n, C), got shape {p.shape}")
        sums = np.add.reduce(p, axis=-1)  # inf for an inf row; NaN fails every comparison
        top = sums.item(sums.argmax())
        if not (_least(p) >= 0 and _least(sums) >= 1 - 1e-6 and top <= 1 + 1e-6):
            raise InvalidInputError("probs must be finite, non-negative and sum to 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)

    @classmethod
    def _of(cls, timestamp: int, probs: np.ndarray) -> "PosteriorFrame":
        """A frame over read-only probabilities the library computed."""
        frame = object.__new__(cls)
        frame.__dict__.update(timestamp=timestamp, probs=probs)
        return frame

    def frames(self) -> list:
        """A block's steps as one-step frames over its rows, read-only as it is."""
        if self.probs.ndim == 1:
            return [self]
        return [PosteriorFrame._of(k, row) for k, row in enumerate(self.probs, self.timestamp)]


def softmax(logits) -> np.ndarray:
    """Probabilities of (C,) logits, or of each row of (n, C) logits."""
    z = np.array(logits, dtype=np.float64, order="C", ndmin=1)
    if not 1 <= z.ndim <= 2 or z.size < 1:
        raise InvalidInputError(f"logits must be (C,) or (n, C), got shape {z.shape}")
    if not np.isfinite(z).all():
        raise InvalidInputError("logits must be finite")
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def posterior_from_logits(timestamp: int, logits) -> PosteriorFrame:
    """A frame of (C,) logits, or of (C, n) logits with one column per step."""
    probs = softmax(np.asarray(logits).T)
    probs.setflags(write=False)
    return PosteriorFrame._of(timestamp, probs)


@dataclass(frozen=True)
class DetectionEvent:
    """Keyword detection: end-of-window step index and score in [0, 1]."""

    step: int
    score: float

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise InvalidInputError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class DecoderConfig:
    """Aggregation window and smoothing length in inference steps."""

    window_steps: int
    smooth_steps: int
    keyword_ids: tuple
    threshold: float = 0.5

    def __post_init__(self):
        whole = (self.window_steps, self.smooth_steps, *self.keyword_ids)
        if not all(map(is_whole, whole)):
            raise ConfigError(f"decoder lengths and class ids must be whole numbers, got {whole}")
        # As Python ints: JSON takes no numpy number.
        object.__setattr__(self, "keyword_ids", tuple(int(i) for i in self.keyword_ids))
        object.__setattr__(self, "window_steps", int(self.window_steps))
        object.__setattr__(self, "smooth_steps", int(self.smooth_steps))
        if not self.window_steps >= self.smooth_steps >= 1:
            raise ConfigError(
                f"need window >= smoothing >= 1, got {self.window_steps} / {self.smooth_steps}"
            )
        if not self.keyword_ids:
            raise ConfigError("at least one keyword class id is required")
        if len(set(self.keyword_ids)) != len(self.keyword_ids):
            raise ConfigError("keyword class ids must be distinct")
        if min(self.keyword_ids) < 0:
            raise ConfigError("keyword class ids must be non-negative")
        if not (is_real(self.threshold) and 0 <= plain(self.threshold) <= FLOAT_MAX):
            raise ConfigError(f"threshold must be finite and non-negative, got {self.threshold}")
        object.__setattr__(self, "threshold", plain(self.threshold))

    @classmethod
    def default(cls, n_classes: int, first_stride: int, threshold: float = 0.5) -> "DecoderConfig":
        """1.1 s window and 100 ms smoothing at 10 ms frames, divided by the
        inference stride; classes 0 and 1 are reserved for SIL and FILLER
        when there are enough classes.
        """
        ids = tuple(range(2, n_classes)) if n_classes >= 3 else (n_classes - 1,)
        return cls(max(1, 110 // first_stride), max(1, 10 // first_stride), ids, threshold)


class KeywordDecoder:
    """Stateful smoothing + scoring + event emission over a posterior stream.

    update takes one step or a block of steps. The state carried between
    calls is the last smooth_steps - 1 posteriors and window_steps - 1
    smoothed keyword probabilities, class-major and zero before the first
    step (a zero changes neither a sum of probabilities nor their
    maximum), the previous score and the refractory count.
    """

    def __init__(self, cfg: DecoderConfig):
        self.cfg = cfg
        self._keywords = np.array(cfg.keyword_ids, dtype=np.intp)
        self.reset()

    def reset(self):
        """Forget every frame: the next update starts from zeroed state."""
        self._steps = self._refractory = 0
        self._prev_score = 0.0
        self._raw = None  # made at the first frame, which gives the class count
        self._window = np.zeros((self._keywords.size, self.cfg.window_steps - 1))

    def update(self, frame: PosteriorFrame):
        """(smoothed frame, score, event or None) for one step's frame;
        (smoothed block frame, list of scores, list of events) for a block."""
        if frame.probs.ndim == 2:
            return self._block(frame.timestamp, frame.probs)
        smoothed, scores, events = self._block(frame.timestamp, frame.probs[None])
        return smoothed.frames()[0], scores[0], events[0] if events else None

    def _block(self, t0: int, probs: np.ndarray):
        (n, c), s, w = probs.shape, self.cfg.smooth_steps, self.cfg.window_steps
        if self._raw is None:
            if c <= (top := max(self.cfg.keyword_ids)):
                raise InvalidInputError(f"a frame of {c} classes, keyword ids need {top + 1}")
            self._raw = np.zeros((c, s - 1))
        elif c != len(self._raw):
            raise InvalidInputError(f"a frame of {c} classes, the stream has {len(self._raw)}")
        # A step's smoothed row sums its s newest posteriors, one contiguous
        # run of columns, over how many of them are real.
        raw = np.concatenate((self._raw, probs.T), axis=1)
        self._raw = raw[:, n:]
        runs = raw[:, None] if n == 1 else np.ndarray(
            (len(raw), n, s), raw.dtype, raw, strides=raw.strides + raw.strides[1:]
        )
        total = np.ascontiguousarray(np.add.reduce(runs, axis=2).T)
        first, self._steps = self._steps + 1, self._steps + n
        total /= s if first >= s else np.minimum(np.arange(first, first + n), s)[:, None]
        total.setflags(write=False)
        smoothed = PosteriorFrame._of(t0, total)

        rows = np.concatenate((self._window, total.T.take(self._keywords, axis=0)), axis=1)
        self._window = rows[:, n:]
        maxima = np.ascontiguousarray(_window_max(rows, w).T)
        if _least(maxima) > 0.0:
            logs = np.log(maxima, out=maxima)
        else:  # a zero maximum makes the score 0: its log is -inf
            logs = np.log(maxima, out=np.full(maxima.shape, -np.inf), where=maxima > 0.0)
        scores = np.add.reduce(logs, axis=1)
        scores /= len(self._keywords)
        values = np.minimum(np.exp(scores, out=scores), 1.0, out=scores).tolist()

        threshold = self.cfg.threshold
        rises = [0] if self._prev_score < threshold <= values[0] else []
        if n > 1:
            up = scores >= threshold
            rises += (np.flatnonzero(up[1:] > up[:-1]) + 1).tolist()
        events, free = [], self._refractory
        for i in rises:  # the refractory period, over the upward crossings alone
            if i >= free:
                events.append(DetectionEvent(t0 + i, values[i]))
                free = i + w + 1
        self._refractory, self._prev_score = max(free - n, 0), values[-1]
        return smoothed, values, events


def _window_max(rows: np.ndarray, w: int) -> np.ndarray:
    """The maximum of every w consecutive columns: a maximum is exact in
    any order, so spans double about log2(w) times, then two overlap."""
    if rows.shape[1] == w:
        return np.maximum.reduce(rows, axis=1, keepdims=True)
    span = 1
    while 2 * span <= w:
        rows, span = np.maximum(rows[:, :-span], rows[:, span:]), 2 * span
    return np.maximum(rows[:, : rows.shape[1] - (w - span)], rows[:, w - span :])
