"""Spans around the calls that run_stream makes into each layer.

While a traced stream runs, the tracer swaps liconet.runtime's references to
FeatureStream, make_engine, posterior_from_logits and KeywordDecoder for
timed wrappers, and puts them back afterwards. The library itself is not
changed, and streams run outside `active` are not timed at all.

Each span is (layer, lane, start_ns, end_ns, frames); all are kept in
memory until the run ends.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import liconet.runtime as runtime
from liconet import FeatureStream, KeywordDecoder, make_engine, posterior_from_logits


class _TimedEngine:
    """Forwards the two calls run_stream makes into an engine, timing each."""

    def __init__(self, inner, tracer: "Tracer"):
        self.inner = inner
        self.tracer = tracer

    def step_array(self, chunk):
        return self.tracer.call("engine.step", self.tracer.lane, self.inner.step_array, chunk)

    def prime_array(self, prefix):
        return self.tracer.call("engine.prime", self.tracer.lane, self.inner.prime_array, prefix)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.lane: str | None = None
        # Span time since the current result's input was handed over; the
        # workload loop resets it, so latency minus it is run_stream's self time.
        self.child_ns = 0
        tracer = self

        class TimedFeatureStream(FeatureStream):
            def push(self, samples):
                t0 = perf_counter_ns()
                frames = super().push(samples)
                tracer.record("frontend.push", tracer.lane, t0, perf_counter_ns(), frames.shape[1])
                return frames

        class TimedDecoder(KeywordDecoder):
            def update(self, frame):
                return tracer.call("decoder.update", tracer.lane, super().update, frame)

        self._swaps = {
            "FeatureStream": TimedFeatureStream,
            "KeywordDecoder": TimedDecoder,
            "make_engine": lambda model, engine: _TimedEngine(
                self.call("engine.build", engine, make_engine, model, engine), self
            ),
            "posterior_from_logits": lambda step, logits: self.call(
                "decoder.posterior", self.lane, posterior_from_logits, step, logits
            ),
        }

    def record(self, layer: str, lane: str, t0: int, t1: int, frames: int = 0) -> None:
        self.spans.append((layer, lane, t0, t1, frames))
        self.child_ns += t1 - t0

    def call(self, layer: str, lane: str, fn, *args):
        t0 = perf_counter_ns()
        out = fn(*args)
        self.record(layer, lane, t0, perf_counter_ns())
        return out

    @contextmanager
    def active(self, lane: str):
        """Trace everything run_stream does for `lane` inside the block."""
        saved = {name: getattr(runtime, name) for name in self._swaps}
        self.lane = lane
        for name, fn in self._swaps.items():
            setattr(runtime, name, fn)
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(runtime, name, fn)
            self.lane = None

    def durations_us(self) -> dict:
        """(layer, lane) -> span durations in us; lane None collects every lane."""
        out = defaultdict(list)
        for layer, lane, t0, t1, _ in self.spans:
            us = (t1 - t0) / 1e3
            out[layer, lane].append(us)
            out[layer, None].append(us)
        return out

    def push_us_per_frame(self) -> tuple[list[float], int]:
        """Per-call push time divided by the frames that call produced,
        over calls that produced a frame; and the total frame count."""
        per_frame, frames = [], 0
        for name, _, t0, t1, n in self.spans:
            if name == "frontend.push":
                frames += n
                if n:
                    per_frame.append((t1 - t0) / 1e3 / n)
        return per_frame, frames
