"""Posterior smoothing and sliding-window keyword scoring (Chen, Parada &
Heigold 2014, "Small-footprint keyword spotting using deep neural networks").

The detection score over a window of smoothed posteriors is the geometric
mean of each keyword class's maximum within the window, clamped to [0, 1].
Events fire on an upward threshold crossing and are then suppressed for
one full window (refractory period).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInputError


@dataclass(frozen=True)
class PosteriorFrame:
    """Class probabilities at one inference step."""

    timestamp: int
    probs: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(np.asarray(self.probs, dtype=np.float64))
        if p.ndim != 1 or p.size < 1:
            raise InvalidInputError(f"probs must be a 1D vector, got shape {p.shape}")
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-6):  # false for NaN and inf
            raise InvalidInputError("probs must be finite, non-negative and sum to 1")
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)


def softmax(logits) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    if not np.isfinite(z).all():
        raise InvalidInputError("logits must be finite")
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def posterior_from_logits(timestamp: int, logits) -> PosteriorFrame:
    return PosteriorFrame(timestamp, softmax(logits))


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
        object.__setattr__(self, "keyword_ids", tuple(int(i) for i in self.keyword_ids))
        steps = (self.window_steps, self.smooth_steps)
        if not all(isinstance(n, (int, np.integer)) for n in steps):
            raise ConfigError("window and smoothing lengths must be whole steps")
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
        if self.threshold < 0:
            raise ConfigError("threshold must be non-negative")

    @classmethod
    def default(cls, n_classes: int, first_stride: int, threshold: float = 0.5) -> "DecoderConfig":
        """1.1 s window and 100 ms smoothing at 10 ms frames, divided by the
        inference stride; classes 0 and 1 are reserved for SIL and FILLER
        when there are enough classes.
        """
        if n_classes >= 3:
            ids = tuple(range(2, n_classes))
        else:
            ids = (n_classes - 1,)
        return cls(
            window_steps=max(1, 110 // first_stride),
            smooth_steps=max(1, 10 // first_stride),
            keyword_ids=ids,
            threshold=threshold,
        )


class KeywordDecoder:
    """Stateful smoothing + scoring + event emission over a posterior stream.

    The state is two rings, zeroed at the first frame and written one row
    per step: raw posteriors (smooth_steps rows) and smoothed keyword
    probabilities (window_steps rows). A zero row changes neither a sum of
    probabilities nor their maximum, so neither ring tracks how full it is.
    """

    def __init__(self, cfg: DecoderConfig):
        self.cfg = cfg
        self._keywords = list(cfg.keyword_ids)
        self.reset()

    def reset(self):
        """Forget every frame: the next update starts from zeroed rings."""
        self._steps = 0
        self._prev_score = 0.0
        self._refractory = 0

    def update(self, frame: PosteriorFrame):
        """Returns (smoothed frame, window score, event or None)."""
        cfg = self.cfg
        if self._steps == 0:
            self._raw = np.zeros((cfg.smooth_steps, frame.probs.size))
            self._window = np.zeros((cfg.window_steps, len(self._keywords)))
        self._raw[self._steps % cfg.smooth_steps] = frame.probs
        mean = self._raw.sum(axis=0) / min(self._steps + 1, cfg.smooth_steps)
        smoothed = PosteriorFrame(frame.timestamp, mean)
        self._window[self._steps % cfg.window_steps] = smoothed.probs[self._keywords]
        self._steps += 1
        maxima = self._window.max(axis=0)
        score = 0.0 if np.any(maxima <= 0.0) else float(np.exp(np.log(maxima).mean()))
        score = min(max(score, 0.0), 1.0)
        event = None
        if self._refractory > 0:
            self._refractory -= 1
        elif self._prev_score < cfg.threshold <= score:
            event = DetectionEvent(frame.timestamp, score)
            self._refractory = cfg.window_steps
        self._prev_score = score
        return smoothed, score, event
