"""Streaming log-mel feature extraction with global normalization.

Fixed recipe: periodic Hann window, magnitude-squared spectrum on the
nearest power-of-two FFT at or above the window length (zero-padded),
triangular mel filters on the HTK scale spanning 0 Hz to Nyquist, natural
log with an additive floor. Normalization statistics are model payload;
identity stats are the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ShapeError


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (np.power(10.0, np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True, eq=False)
class FrontendConfig:
    sample_rate: int = 16000
    window_ms: float = 25.0
    hop_ms: float = 10.0
    n_mels: int = 40
    fmin: float = 0.0
    fmax: float | None = None
    log_floor: float = 1e-10
    norm_mean: np.ndarray | None = None
    norm_std: np.ndarray | None = None

    def __post_init__(self):
        if self.sample_rate < 1 or self.window_ms <= 0 or self.hop_ms <= 0:
            raise ConfigError("sample rate, window, and hop must be positive")
        if self.hop_ms > self.window_ms:
            raise ConfigError("hop must not exceed the window")
        if self.n_mels < 1:
            raise ConfigError("need at least one mel band")
        if self.fmax is None:
            object.__setattr__(self, "fmax", self.sample_rate / 2.0)
        if not 0 <= self.fmin < self.fmax:
            raise ConfigError(f"bad mel range [{self.fmin}, {self.fmax}]")
        mean = np.zeros(self.n_mels) if self.norm_mean is None else np.asarray(
            self.norm_mean, dtype=np.float64
        )
        std = np.ones(self.n_mels) if self.norm_std is None else np.asarray(
            self.norm_std, dtype=np.float64
        )
        if mean.shape != (self.n_mels,) or std.shape != (self.n_mels,):
            raise ConfigError(f"normalization vectors must have length {self.n_mels}")
        if not np.all(std > 0):
            raise ConfigError("norm_std must be strictly positive")
        mean.setflags(write=False)
        std.setflags(write=False)
        object.__setattr__(self, "norm_mean", mean)
        object.__setattr__(self, "norm_std", std)

    @property
    def window_samples(self) -> int:
        return int(round(self.sample_rate * self.window_ms / 1000.0))

    @property
    def hop_samples(self) -> int:
        return int(round(self.sample_rate * self.hop_ms / 1000.0))

    @property
    def n_fft(self) -> int:
        n = 1
        while n < self.window_samples:
            n *= 2
        return n

    @cached_property
    def hann(self) -> np.ndarray:
        n = self.window_samples
        w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
        w.setflags(write=False)
        return w

    @cached_property
    def mel_edges_hz(self) -> np.ndarray:
        mels = np.linspace(hz_to_mel(self.fmin), hz_to_mel(self.fmax), self.n_mels + 2)
        edges = mel_to_hz(mels)
        edges.setflags(write=False)
        return edges

    @cached_property
    def mel_bank(self) -> np.ndarray:
        """Triangular filters sampled at the FFT bin frequencies."""
        edges = self.mel_edges_hz
        bins = np.arange(self.n_fft // 2 + 1) * (self.sample_rate / self.n_fft)
        bank = np.zeros((self.n_mels, bins.size))
        for m in range(self.n_mels):
            lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
            rising = (bins - lo) / (mid - lo)
            falling = (hi - bins) / (hi - mid)
            bank[m] = np.maximum(0.0, np.minimum(rising, falling))
        bank.setflags(write=False)
        return bank


def mel_band_energies(samples, cfg: FrontendConfig) -> np.ndarray:
    """Filterbank energies of one exact window of samples (pre-log)."""
    x = np.asarray(samples, dtype=np.float64)
    if x.shape != (cfg.window_samples,):
        raise ShapeError(f"expected {cfg.window_samples} samples, got {x.shape}")
    spectrum = np.fft.rfft(x * cfg.hann, n=cfg.n_fft)
    power = spectrum.real**2 + spectrum.imag**2
    return cfg.mel_bank @ power


def compute_logmel_frame(samples, cfg: FrontendConfig) -> np.ndarray:
    """Natural-log mel energies of one window; silence hits log(floor)."""
    return np.log(mel_band_energies(samples, cfg) + cfg.log_floor)


def normalize(frame, cfg: FrontendConfig) -> np.ndarray:
    return (np.asarray(frame, dtype=np.float64) - cfg.norm_mean) / cfg.norm_std


def pcm_to_float(samples) -> np.ndarray:
    """16-bit signed PCM to [-1, 1) by division by 32768; floats pass through."""
    arr = np.asarray(samples)
    if arr.dtype == np.int16:
        return arr.astype(np.float64) / 32768.0
    return arr.astype(np.float64)


class FeatureStream:
    """Incremental framing: one normalized frame per hop once a full
    window of samples has accumulated. The emitted frames are independent
    of how the PCM is split across push() calls.
    """

    def __init__(self, cfg: FrontendConfig):
        self.cfg = cfg
        self._buffer = np.zeros(0)

    def reset(self):
        self._buffer = np.zeros(0)

    def push(self, samples) -> np.ndarray:
        """Feed PCM; returns the newly completed frames as (n_mels, k)."""
        cfg = self.cfg
        self._buffer = np.concatenate([self._buffer, pcm_to_float(samples)])
        frames = []
        while self._buffer.size >= cfg.window_samples:
            raw = compute_logmel_frame(self._buffer[: cfg.window_samples], cfg)
            frames.append(normalize(raw, cfg))
            self._buffer = self._buffer[cfg.hop_samples :]
        if not frames:
            return np.zeros((cfg.n_mels, 0))
        return np.stack(frames, axis=1)

