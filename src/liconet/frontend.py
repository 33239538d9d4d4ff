"""Streaming log-mel feature extraction with global normalization.

Fixed recipe: periodic Hann window, magnitude-squared spectrum on the
nearest power-of-two FFT at or above the window length (zero-padded),
triangular mel filters on the HTK scale spanning 0 Hz to Nyquist, natural
log with an additive floor. Normalization statistics are model payload;
identity stats are the default.

FeatureStream is a one-channel pipeline stage (kernel window_samples,
stride hop_samples) over its FrontendConfig: a push advances it by
pipeline.py's rules for the unconsumed tail, a live step's one window and
the MAX_PASS_STEPS pass bound. Each frame gets its own rfft and mel GEMV,
so frames are byte-identical however the PCM is split across pushes.
FrontendConfig refuses a hop that rounds to under one sample, as a stage
must stride at least one column, and mel edges that do not increase.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import FLOAT_MAX, ConfigError, InvalidInputError, is_real, is_whole, plain
from .pipeline import MAX_PASS_STEPS, PipelineStage, StreamState

# Every setting but the normalization vectors.
NUMBER_FIELDS = ("sample_rate", "window_ms", "hop_ms", "n_mels", "fmin", "fmax", "log_floor")


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
        if not (is_whole(self.sample_rate) and 1 <= self.sample_rate <= FLOAT_MAX):
            raise ConfigError(f"need a whole rate of 1 to {FLOAT_MAX} Hz, got {self.sample_rate!r}")
        if not (is_whole(self.n_mels) and self.n_mels >= 1):
            raise ConfigError(f"need a whole number of mel bands >= 1, got {self.n_mels!r}")
        if self.fmax is None:
            object.__setattr__(self, "fmax", self.sample_rate / 2.0)
        reals = (self.window_ms, self.hop_ms, self.fmin, self.fmax, self.log_floor)
        if not all(map(is_real, reals)):
            raise ConfigError(f"window, hop, mel range and log floor must be numbers, got {reals}")
        for name in NUMBER_FIELDS:  # JSON takes no numpy number
            object.__setattr__(self, name, plain(getattr(self, name)))
        if not 0 < self.log_floor <= FLOAT_MAX:  # NaN fails too
            raise ConfigError(f"log floor must be finite and positive, got {self.log_floor}")
        # Both, as the sample counts take them: a float window's rounds, an int hop's is exact.
        products = (self.sample_rate * self.window_ms, self.sample_rate * self.hop_ms)
        if not 0 < self.hop_ms <= self.window_ms or max(products) > FLOAT_MAX:
            raise ConfigError("need 0 < hop <= window, and rate * window within the float range")
        if self.hop_samples < 1:  # the window is no shorter, so this covers it too
            raise ConfigError(f"hop {self.hop_ms} ms is under one sample at {self.sample_rate} Hz")
        if not 0 <= self.fmin < self.fmax:
            raise ConfigError(f"bad mel range [{self.fmin}, {self.fmax}]")
        if self.fmax > self.sample_rate / 2:  # a filter past Nyquist covers no FFT bin
            raise ConfigError(f"fmax {self.fmax} is above half the sample rate {self.sample_rate}")
        mean, std = (
            np.full(self.n_mels, fill) if v is None else np.asarray(v, dtype=np.float64)
            for v, fill in ((self.norm_mean, 0.0), (self.norm_std, 1.0))
        )
        if mean.shape != (self.n_mels,) or std.shape != (self.n_mels,):
            raise ConfigError(f"normalization vectors must have length {self.n_mels}")
        if not np.all(std > 0):
            raise ConfigError("norm_std must be strictly positive")
        if not np.all(self.mel_edges[:-1] < self.mel_edges[1:]):  # else a filter divides by 0
            raise ConfigError(f"mel range [{self.fmin}, {self.fmax}] collapses its filter edges")
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
    def mel_edges(self) -> np.ndarray:
        """The n_mels + 2 filter edges in Hz, from fmin to fmax evenly in HTK mel."""
        mels = 2595.0 * np.log10(1.0 + np.array([self.fmin, self.fmax], float) / 700.0)
        edges = 700.0 * (np.power(10.0, np.linspace(*mels, self.n_mels + 2) / 2595.0) - 1.0)
        edges.setflags(write=False)
        return edges

    @cached_property
    def mel_bank(self) -> np.ndarray:
        """Triangular filters at the FFT bin frequencies, over mel_edges."""
        bins = np.arange(self.n_fft // 2 + 1) * (self.sample_rate / self.n_fft)
        lo, mid, hi = (self.mel_edges[i : i + self.n_mels, None] for i in range(3))
        bank = np.maximum(0.0, np.minimum((bins - lo) / (mid - lo), (hi - bins) / (hi - mid)))
        bank.setflags(write=False)
        return bank

    @property
    def out_dim(self) -> int:
        return self.n_mels

    def forward(self, windows, residual=None, source=None) -> np.ndarray:
        """FeatureStream's operator: (n_mels, n) frames of (n, window) windows; (n_mels,) of one."""
        spectrum = np.fft.rfft(windows * self.hann, n=self.n_fft)
        power = spectrum.real**2 + spectrum.imag**2
        # One GEMV per frame, as a single frame gets: a GEMM would sum
        # in another order, so frames would depend on the push size.
        energies = np.matvec(self.mel_bank, power)
        energies += self.log_floor
        np.log(energies, out=energies)
        energies -= self.norm_mean
        energies /= self.norm_std
        return energies.T


def pcm_samples(samples) -> np.ndarray:
    """1-D int16 PCM / 32768 or finite float PCM as float64; refuses any other PCM."""
    pcm = np.asarray(samples)
    dtype, shape = pcm.dtype, pcm.shape
    if len(shape) != 1 or dtype != np.int16 and dtype.kind != "f":
        raise InvalidInputError(f"PCM must be 1-D int16 or float, got {dtype} of shape {shape}")
    if dtype == np.int16:
        return pcm / 32768.0
    if not np.isfinite(pcm := pcm.astype(np.float64)).all():
        raise InvalidInputError(f"PCM must be finite: {dtype} {shape} holds NaN or inf")
    return pcm


class FeatureStream(PipelineStage):
    """The frontend's stage and one stream's state in it, which starts empty:
    a normalized frame per hop once a full window of samples has accumulated."""

    def __init__(self, cfg: FrontendConfig):
        super().__init__("frontend", cfg, 1, cfg.window_samples, cfg.hop_samples)
        self.state = StreamState(np.zeros((1, 0)), self.stride)

    def push(self, samples) -> np.ndarray:
        """Feed 1-D int16 (divided by 32768) or finite float PCM; returns the
        newly completed frames as (n_mels, k), at most MAX_PASS_STEPS to a pass."""
        cols, size = pcm_samples(samples)[None], MAX_PASS_STEPS * self.stride
        if cols.shape[1] <= size:  # less than a window of history: <= MAX_PASS_STEPS frames
            return self.advance(self.state, cols)
        passes = range(0, cols.shape[1], size)
        return np.concatenate([self.advance(self.state, cols[:, i : i + size]) for i in passes], 1)
