"""Seeded synthetic audio for the benchmark.

Bursts of white noise, tones and linear chirps of varying energy alternate
with stretches of near-silence, as 16 kHz mono int16 PCM. Audio is made in
fixed-size blocks, so the samples depend only on the seed, never on how much
of the sequence a run consumes.
"""

from __future__ import annotations

import numpy as np

RATE = 16000
CHUNK = RATE // 100  # one 10 ms push
BLOCK_CHUNKS = 1000  # 10 s of audio per generated block


def _segment(rng: np.random.Generator) -> np.ndarray:
    n = int(rng.uniform(0.1, 0.8) * RATE)
    t = np.arange(n) / RATE
    kind = rng.integers(4)
    if kind == 0:
        return rng.normal(0.0, 1e-4, n)
    amp = 10.0 ** rng.uniform(-2.5, -0.5)
    if kind == 1:
        x = rng.normal(0.0, 1.0, n)
    elif kind == 2:
        x = np.sin(2 * np.pi * rng.uniform(100, 4000) * t + rng.uniform(0, 2 * np.pi))
    else:
        f0, f1 = rng.uniform(100, 6000, size=2)
        x = np.sin(2 * np.pi * (f0 * t + (f1 - f0) * t * t / (2 * t[-1])))
    edge = np.minimum(np.arange(n), np.arange(n)[::-1])
    return amp * x * np.minimum(1.0, edge / (0.005 * RATE))


def synth(rng: np.random.Generator, n_samples: int) -> np.ndarray:
    """n_samples of segment audio as int16."""
    parts, have = [], 0
    while have < n_samples:
        parts.append(_segment(rng))
        have += parts[-1].size
    x = np.concatenate(parts)[:n_samples]
    return np.clip(np.round(x * 32768.0), -32768, 32767).astype(np.int16)


class ChunkSource:
    """An endless sequence of 10 ms chunks, generated ahead of the loop
    that consumes it so that no generation happens inside a timed step."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.chunks: list[np.ndarray] = []

    def ensure(self, n_chunks: int) -> None:
        while len(self.chunks) < n_chunks:
            block = synth(self.rng, BLOCK_CHUNKS * CHUNK)
            self.chunks.extend(block.reshape(BLOCK_CHUNKS, CHUNK))


def make_clips(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """n clips of 1-3 s. Lengths are stratified over that range, so every
    seed gets the same spread of lengths in a shuffled order."""
    seconds = 1.0 + 2.0 * (rng.permutation(n) + rng.uniform(size=n)) / n
    return [synth(rng, int(s * RATE)) for s in seconds]
