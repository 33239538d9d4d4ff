"""Streaming log-mel feature extraction with global normalization.

Fixed recipe: periodic Hann window, magnitude-squared spectrum on the
nearest power-of-two FFT at or above the window length (zero-padded),
triangular mel filters on the HTK scale spanning 0 Hz to Nyquist, natural
log with an additive floor. Normalization statistics are model payload;
identity stats are the default.

FeatureStream frames its samples with pipeline.windows, as every stage
frames its columns, and transforms a push's complete frames in one pass.
Each frame still gets its own rfft and mel-bank GEMV, so frames are
byte-identical however the PCM is split across pushes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .pipeline import windows

# Frames transformed in one pass; bounds the memory of a long push.
_BLOCK_FRAMES = 256


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
        mean, std = (
            np.full(self.n_mels, fill) if v is None else np.asarray(v, dtype=np.float64)
            for v, fill in ((self.norm_mean, 0.0), (self.norm_std, 1.0))
        )
        if mean.shape != (self.n_mels,) or std.shape != (self.n_mels,):
            raise ConfigError(f"normalization vectors must have length {self.n_mels}")
        if not np.all(std > 0):
            raise ConfigError("norm_std must be strictly positive")
        mean.setflags(write=False)
        std.setflags(write=False)
        object.__setattr__(self, "norm_mean", mean)
        object.__setattr__(self, "norm_std", std)

    @cached_property
    def window_samples(self) -> int:
        return int(round(self.sample_rate * self.window_ms / 1000.0))

    @cached_property
    def hop_samples(self) -> int:
        return int(round(self.sample_rate * self.hop_ms / 1000.0))

    @cached_property
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
    def mel_bank(self) -> np.ndarray:
        """Triangular filters at the FFT bin frequencies, spaced evenly in HTK mel."""
        mel_min, mel_max = 2595.0 * np.log10(1.0 + np.array([self.fmin, self.fmax]) / 700.0)
        mels = np.linspace(mel_min, mel_max, self.n_mels + 2)
        edges = 700.0 * (np.power(10.0, mels / 2595.0) - 1.0)
        bins = np.arange(self.n_fft // 2 + 1) * (self.sample_rate / self.n_fft)
        bank = np.zeros((self.n_mels, bins.size))
        for m in range(self.n_mels):
            lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
            rising = (bins - lo) / (mid - lo)
            falling = (hi - bins) / (hi - mid)
            bank[m] = np.maximum(0.0, np.minimum(rising, falling))
        bank.setflags(write=False)
        return bank


class FeatureStream:
    """Incremental framing: one normalized frame per hop once a full
    window of samples has accumulated. The emitted frames are independent
    of how the PCM is split across push() calls.
    """

    def __init__(self, cfg: FrontendConfig):
        self.cfg = cfg
        self.reset()

    def reset(self):
        self._buffer = np.zeros(0)

    def push(self, samples) -> np.ndarray:
        """Feed 16-bit (divided by 32768) or float PCM; returns the newly
        completed frames as (n_mels, k), transformed at most _BLOCK_FRAMES to a pass."""
        cfg = self.cfg
        hop, win = cfg.hop_samples, cfg.window_samples
        pcm = np.asarray(samples)
        pcm = pcm / 32768.0 if pcm.dtype == np.int16 else pcm.astype(np.float64)
        buf = np.concatenate([self._buffer, pcm])
        blocks = [np.zeros((cfg.n_mels, 0))]
        while buf.size >= win:
            frames = windows(buf[None, : (_BLOCK_FRAMES - 1) * hop + win], win, hop)
            spectrum = np.fft.rfft(frames * cfg.hann, n=cfg.n_fft)
            power = spectrum.real**2 + spectrum.imag**2
            # One GEMV per frame, as a single frame gets: a GEMM would sum
            # in another order, so frames would depend on the push size.
            energies = np.matvec(cfg.mel_bank, power)
            blocks.append(((np.log(energies + cfg.log_floor) - cfg.norm_mean) / cfg.norm_std).T)
            buf = buf[len(frames) * hop :]
        self._buffer = buf.copy()  # not a view that keeps a long push alive
        return np.concatenate(blocks, axis=1)
