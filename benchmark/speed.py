"""A fixed reference workload that measures how fast the machine is running.

On shared cloud machines the speed of one core drifts: phases of tens of
seconds to minutes run about 1.5x apart, so whole runs land in one phase or
the other and their wall times scatter by more than any useful bound. The
benchmark therefore samples this probe between rounds and scales its
end-to-end times by the probe's median, so they read as on a machine where
one probe takes PROBE_NOMINAL_US. Both the scaled and the raw values are
printed.

The probe imitates one stream step of the current code: a frame's rfft and
mel product, a chain of small dense products over ring buffers, and the
decoder's small-object work. It uses only numpy and the standard library,
never liconet, so a change to the program cannot move it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

PROBE_NOMINAL_US = 1400.0
PROBE_STEPS = 8
RECENT = 5  # samples in the running median that sets the current scale


@dataclass(frozen=True)
class _Frame:
    step: int
    probs: np.ndarray


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.window = rng.normal(size=400)
        self.hann = np.hanning(400)
        self.bank = np.abs(rng.normal(size=(40, 257)))
        self.rings = [rng.normal(size=(40, 4)) for _ in range(5)]
        self.weights = rng.normal(scale=0.05, size=(200, 40))
        self.bias = rng.normal(size=40)
        self.history = deque(maxlen=36)
        self.samples_ns: list[int] = []

    def _step(self, k: int) -> None:
        spectrum = np.fft.rfft(self.window * self.hann, n=512)
        col = np.log(self.bank @ (spectrum.real**2 + spectrum.imag**2) + 1e-10)[:, None]
        for ring in self.rings:
            buf = np.concatenate([ring, col], axis=1)
            y = np.maximum(buf[:, :5].reshape(-1) @ self.weights + self.bias, 0.0)
            col = y[:, None]
        z = np.exp(col[:11, 0] - col[:11, 0].max())
        self.history.append(_Frame(k, z / z.sum()))
        np.stack([f.probs for f in self.history]).max(axis=0)

    def sample(self) -> None:
        t0 = perf_counter_ns()
        for k in range(PROBE_STEPS):
            self._step(k)
        self.samples_ns.append(perf_counter_ns() - t0)

    def scale(self) -> float:
        """Nominal probe time over the median of the last RECENT samples:
        the factor that maps a time measured now to the nominal machine."""
        return PROBE_NOMINAL_US * 1e3 / float(np.median(self.samples_ns[-RECENT:]))

    def slowdown(self) -> float:
        """Median probe time over the whole run against the nominal one."""
        return float(np.median(self.samples_ns)) / 1e3 / PROBE_NOMINAL_US
