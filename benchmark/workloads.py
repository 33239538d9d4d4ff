"""The measured loops: live streams of 10 ms pushes, and offline clips.

Each lane is one engine's stream (traced or not). Lanes take turns in
short rounds, rotating who goes first, so that a drift in machine speed
during a run lands on every engine alike. Times are kept per round (rtf)
and per result (latency); the caller reports medians and percentiles.
"""

from __future__ import annotations

from contextlib import nullcontext
from time import perf_counter, perf_counter_ns

from liconet import run_stream

from audio import CHUNK, RATE


class Lane:
    def __init__(self, engine: str, model, threshold: float, tracer=None):
        self.engine = engine
        self.model = model
        self.threshold = threshold
        self.tracer = tracer
        self.results = []  # live: StepResult per step; offline: per clip, a list per pass
        # Timed rounds only. Raw times, and the same scaled by `scale`, which
        # the loop sets from the speed probe before each round.
        self.latency_ns: list[int] = []  # per result
        self.latency_scaled_ns: list[float] = []
        self.self_ns: list[float] = []  # per step: latency minus traced spans
        self.rtf: list[float] = []  # per round
        self.rtf_scaled: list[float] = []
        self.scale = 1.0
        self.events = 0
        self.pos = 0
        self.t_pull = 0
        self._gen = None

    @property
    def name(self) -> str:
        return f"{self.engine}+trace" if self.tracer else self.engine

    def context(self):
        return self.tracer.active(self.engine) if self.tracer else nullcontext()

    def _handed(self) -> None:
        """Mark the moment an input is handed to run_stream."""
        if self.tracer:
            self.tracer.child_ns = 0
        self.t_pull = perf_counter_ns()

    # --- live: one endless stream, 10 ms pushes in a closed loop ---------

    def _chunks(self, source):
        while True:
            chunk = source.chunks[self.pos]
            self.pos += 1
            self._handed()
            yield chunk

    def live_round(self, source, n_steps: int, timed: bool) -> None:
        if self._gen is None:
            self._gen = run_stream(self.model, self._chunks(source), self.engine, self.threshold)
        pos0 = self.pos
        t0 = perf_counter_ns()
        for _ in range(n_steps):
            res = next(self._gen)
            t = perf_counter_ns()
            self.results.append(res)
            self.events += res.event is not None
            if timed:
                self.latency_ns.append(t - self.t_pull)
                self.latency_scaled_ns.append((t - self.t_pull) * self.scale)
                if self.tracer:
                    self.self_ns.append(t - self.t_pull - self.tracer.child_ns)
        if timed:
            audio_s = (self.pos - pos0) * CHUNK / RATE
            self.rtf.append((perf_counter_ns() - t0) * 1e-9 / audio_s)
            self.rtf_scaled.append(self.rtf[-1] * self.scale)

    # --- offline: each clip in one chunk on a fresh stream ----------------

    def score_clip(self, index: int, clip, timed: bool) -> int:
        """Score one clip; returns the wall nanoseconds it took."""
        self._handed()
        t0 = self.t_pull
        out, last = [], t0
        for res in run_stream(self.model, [clip], self.engine, self.threshold):
            last = perf_counter_ns()
            out.append(res)
        wall = perf_counter_ns() - t0
        while len(self.results) <= index:
            self.results.append([])
        self.results[index].append(out)
        self.events += sum(r.event is not None for r in out)
        if timed:
            self.latency_ns.append(last - t0)
            self.latency_scaled_ns.append((last - t0) * self.scale)
            if self.tracer:
                self.self_ns.append((last - t0 - self.tracer.child_ns) / len(out))
        return wall


def run_live(lanes: list[Lane], source, stride: int, lead: int, seconds: float,
             steps_per_round: int, between) -> int:
    """A warm-up round, then rounds until `seconds` have passed. `between()`
    runs after each round and returns the scale for the next one. Returns
    the timed rounds. `lead` is how many chunks past a lane's position the
    source must hold beyond the round's own steps (priming needs them)."""
    rounds = 0
    deadline = None
    scale = between()
    while deadline is None or perf_counter() < deadline:
        source.ensure(max(l.pos for l in lanes) + steps_per_round * stride + lead)
        shift = rounds % len(lanes)
        for lane in lanes[shift:] + lanes[:shift]:
            lane.scale = scale
            with lane.context():
                lane.live_round(source, steps_per_round, timed=deadline is not None)
        if deadline is None:
            deadline = perf_counter() + seconds
        else:
            rounds += 1
        scale = between()
    return rounds


def run_offline(lanes: list[Lane], clips, seconds: float, between) -> int:
    """A warm-up pass over the clip set, then passes until `seconds` have
    passed; every pass is whole. `between()` runs after each clip and
    returns the scale for the next one. Returns the timed passes."""
    passes = 0
    deadline = None
    scale = between()
    while deadline is None or perf_counter() < deadline:
        timed = deadline is not None
        wall = {l.name: 0 for l in lanes}
        scaled = {l.name: 0.0 for l in lanes}
        for i, clip in enumerate(clips):
            shift = (passes + i) % len(lanes)
            for lane in lanes[shift:] + lanes[:shift]:
                lane.scale = scale
                with lane.context():
                    ns = lane.score_clip(i, clip, timed)
                wall[lane.name] += ns
                scaled[lane.name] += ns * scale
            scale = between()
        if timed:
            audio_s = sum(c.size for c in clips) / RATE
            for lane in lanes:
                lane.rtf.append(wall[lane.name] * 1e-9 / audio_s)
                lane.rtf_scaled.append(scaled[lane.name] * 1e-9 / audio_s)
            passes += 1
        else:
            deadline = perf_counter() + seconds
    return passes
