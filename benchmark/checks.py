"""Correctness checks, computed after the timed region.

- conv and linear posteriors match a batch `network_forward` of the float
  model over the same features. `liconet verify` steps its engines from zero
  state, so it pads the batch input with RF - s1 zero frames; run_stream
  instead primes on the first RF - s1 real frames, so here batch column k is
  step k with no padding.
- int8 posteriors are bit-identical when the same input is run again (live:
  the first REPEAT_STEPS steps, which bounds the check's cost; offline:
  every pass of every clip), and their mean drift from linear stays within
  verify's limit.
- Every step's score and event equal what a fresh KeywordDecoder gives on
  the reference posteriors: the batch ones for conv and linear, the
  engine's own for int8.

Each check returns one flag per step; a step (live) or clip (offline) with
any flag set is one failed operation.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import islice

import numpy as np
from liconet import (
    FeatureStream,
    KeywordDecoder,
    PosteriorFrame,
    Tensor2D,
    network_forward,
    run_stream,
    softmax,
)

STREAM_VS_BATCH = 1e-5  # `liconet verify`: streaming vs batch
INT8_DRIFT = 0.05  # `liconet verify`: int8 mean posterior drift
SCORE_TOL = 1e-9
REPEAT_STEPS = 1000


def batch_posteriors(float_model, pcm) -> np.ndarray:
    """(steps, classes) posteriors of network_forward over the PCM's features."""
    features = FeatureStream(float_model.frontend).push(pcm)
    logits = network_forward(float_model.net, Tensor2D(features), float_model.first_stride)
    return np.stack([softmax(col) for col in logits.data.T])


def decode(model, threshold: float, posteriors) -> list[tuple]:
    """(score, event) per step from a fresh decoder."""
    decoder = KeywordDecoder(replace(model.decoder, threshold=threshold))
    return [decoder.update(PosteriorFrame(k, p))[1:] for k, p in enumerate(posteriors)]


def _same_decision(res, expected) -> bool:
    score, event = expected
    if abs(res.score - score) > SCORE_TOL or (res.event is None) != (event is None):
        return False
    return event is None or (
        res.event.step == event.step and abs(res.event.score - event.score) <= SCORE_TOL
    )


def probs(results) -> np.ndarray:
    return np.stack([r.posterior.probs for r in results])


def wrong_decisions(results, decisions) -> np.ndarray:
    return np.array([not _same_decision(r, d) for r, d in zip(results, decisions)], dtype=bool)


def check_float(results, reference: np.ndarray, ref_decisions) -> np.ndarray:
    """Flags per step for a conv or linear stream. A wrong number of steps
    flags them all."""
    if len(results) != len(reference):
        return np.ones(len(results), dtype=bool)
    far = np.max(np.abs(probs(results) - reference), axis=1) > STREAM_VS_BATCH
    return far | wrong_decisions(results, ref_decisions)


def check_int8(lane, results, repeat: np.ndarray, linear_results) -> np.ndarray:
    """Flags per step for an int8 stream: bit-identical to `repeat` (which
    may cover only a prefix), decisions equal to a fresh decoder on its own
    posteriors, and mean drift from `linear_results` within INT8_DRIFT."""
    own = probs(results)
    bad = wrong_decisions(results, decode(lane.model, lane.threshold, own))
    n = len(repeat)
    if n > len(own) or len(own) != len(linear_results):
        bad[:] = True
        return bad
    bad[:n] |= np.any(own[:n] != repeat, axis=1)
    if np.max(np.mean(np.abs(own - probs(linear_results)), axis=0)) > INT8_DRIFT:
        bad[:] = True
    return bad


def check_live(lanes, float_model, source) -> tuple[int, int]:
    """(steps attempted, steps failed) over every lane. The int8 repeat
    re-runs the first REPEAT_STEPS steps of the same 10 ms pushes."""
    chunks = source.chunks[: max(l.pos for l in lanes)]
    reference = batch_posteriors(float_model, np.concatenate(chunks))
    linear = next(l for l in lanes if l.engine == "linear")
    ref_decisions = decode(linear.model, linear.threshold, reference)
    repeat = None
    attempted = failed = 0
    for lane in lanes:
        if lane.engine == "int8":
            if repeat is None:
                rerun = run_stream(lane.model, iter(chunks), "int8", lane.threshold)
                repeat = probs(islice(rerun, min(REPEAT_STEPS, len(lane.results))))
            bad = check_int8(lane, lane.results, repeat, linear.results)
        else:
            bad = check_float(lane.results, reference, ref_decisions)
        attempted += len(bad)
        failed += int(bad.sum())
    return attempted, failed


def check_offline(lanes, float_model, clips) -> tuple[int, int]:
    """(clips attempted, clips failed) over every lane and pass. The first
    int8 pass is the repeat that every later pass is held to."""
    linear = next(l for l in lanes if l.engine == "linear")
    first_int8 = next(l for l in lanes if l.engine == "int8")
    attempted = failed = 0
    for i, clip in enumerate(clips):
        reference = batch_posteriors(float_model, clip)
        ref_decisions = decode(linear.model, linear.threshold, reference)
        repeat = probs(first_int8.results[i][0])
        for lane in lanes:
            for out in lane.results[i]:
                if lane.engine == "int8":
                    bad = check_int8(lane, out, repeat, linear.results[i][0])
                else:
                    bad = check_float(out, reference, ref_decisions)
                attempted += 1
                failed += int(bad.any())
    return attempted, failed
