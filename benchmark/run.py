"""liconet benchmark: WAV in, events out, for the conv, linear and int8 engines.

    python3 benchmark/run.py --workload live-lico --seed 1 --seconds 25 --trace 0

Workloads (BENCHMARK.json says why each exists):
  live-lico      lico-large at stride 3; one stream of 10 ms pushes, closed loop
  live-mlp       mlp-large at stride 1; the same loop
  offline-clips  lico-large at stride 3; seeded 1-3 s clips, each in one chunk
                 on a fresh stream
  all            the three in turn, each metric prefixed with its workload

Every workload runs all three engines through the public API (load_model,
make_engine, run_stream) in this one process, one stream at a time. With
--trace 0 it prints the end-to-end metrics; with --trace 1 it also runs
traced streams, timing the calls run_stream makes into each layer, and
prints per-layer medians and counts plus the tracing overhead. End-to-end
times are scaled by a speed probe sampled between rounds (speed.py), and
printed raw as well; per-layer times are raw. Outputs are checked on every
run (see checks.py). The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One stream on a small machine: BLAS must not start worker threads. This
# has to be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# name -> (arch, first stride, loop)
WORKLOADS = {
    "live-lico": ("lico", 3, "live"),
    "live-mlp": ("mlp", 1, "live"),
    "offline-clips": ("lico", 3, "offline"),
}
# A live round is 25-50 ms per lane: short, so that every engine sees the
# same machine phases, and long enough for a steady per-round rtf.
LIVE_STEPS_PER_ROUND = 50
# Clips per offline pass; a 25 s run makes about 200 clip latencies per engine.
N_CLIPS = 12


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _commit(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _end_to_end(lanes, setup_ns, scaled: bool) -> dict:
    """The end-to-end metrics from the scaled or the raw times."""
    metrics = {}
    for lane in lanes:
        e = lane.engine
        rtf = lane.rtf_scaled if scaled else lane.rtf
        lat = np.asarray(lane.latency_scaled_ns if scaled else lane.latency_ns) / 1e3
        metrics[f"rtf.{e}"] = _metric(float(np.median(rtf)), "s/s")
        metrics[f"latency_us_p50.{e}"] = _metric(float(np.percentile(lat, 50)), "us")
        metrics[f"latency_us_p90.{e}"] = _metric(float(np.percentile(lat, 90)), "us")
    metrics["setup_s"] = _metric(float(np.median(setup_ns)) * 1e-9, "s")
    return metrics


def _layer_metrics(tracer, traced, untraced, models) -> dict:
    from liconet import count_macs_per_step

    metrics = {}
    med = lambda xs: float(np.median(xs))
    per_frame, frames = tracer.push_us_per_frame()
    metrics["frontend.push_us_per_frame"] = _metric(med(per_frame), "us")
    metrics["frontend.frames"] = _metric(frames, "count")
    spans = tracer.durations_us()
    for lane in traced:
        e = lane.engine
        metrics[f"engine.step_us.{e}"] = _metric(med(spans["engine.step", e]), "us")
        metrics[f"engine.steps.{e}"] = _metric(len(spans["engine.step", e]), "count")
        metrics[f"engine.macs_per_step.{e}"] = _metric(count_macs_per_step(models[e].net), "count")
        metrics[f"engine.prime_us.{e}"] = _metric(med(spans["engine.prime", e]), "us")
        metrics[f"engine.build_us.{e}"] = _metric(med(spans["engine.build", e]), "us")
        metrics[f"modelfile.load_us.{e}"] = _metric(med(spans["modelfile.load", e]), "us")
        metrics[f"runtime.self_us_per_step.{e}"] = _metric(med(lane.self_ns) / 1e3, "us")
    metrics["decoder.posterior_us"] = _metric(med(spans["decoder.posterior", None]), "us")
    metrics["decoder.update_us"] = _metric(med(spans["decoder.update", None]), "us")
    metrics["decoder.events"] = _metric(sum(l.events for l in traced), "count")
    for t, u in zip(traced, untraced):
        rtf = float(np.median(t.rtf))
        metrics[f"trace.rtf.{t.engine}"] = _metric(rtf, "s/s")
        metrics[f"trace.overhead.{t.engine}"] = _metric(rtf / float(np.median(u.rtf)), "x")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Prepare, measure and check one workload; returns (attempted, failed, metrics)."""
    from liconet import load_model, make_engine

    import checks
    import models as prep
    from audio import ChunkSource, make_clips
    from speed import SpeedProbe
    from tracer import Tracer
    from workloads import Lane, run_live, run_offline

    arch, stride, loop = WORKLOADS[workload]
    heldout = prep.heldout_pcm()
    tracer = Tracer() if trace else None
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as tmp:
        files = prep.prepare(Path(tmp), arch, stride, heldout)
        threshold = prep.derive_threshold(load_model(files["linear"]), heldout)
        if tracer:
            setup = prep.Setup(
                files,
                lambda path, e: tracer.call("modelfile.load", e, load_model, path),
                lambda model, e: tracer.call("engine.build", e, make_engine, model, e),
            )
        else:
            setup = prep.Setup(files)
        models = setup.once()
        probe = SpeedProbe()
        setup_scaled_ns = []

        def between() -> float:
            """One set-up sample and one probe sample; returns the current scale."""
            setup.once()
            probe.sample()
            setup_scaled_ns.append(setup.times_ns[-1] * probe.scale())
            return probe.scale()

        lanes = [Lane(e, models[e], threshold) for e in prep.ENGINES]
        traced = [Lane(e, models[e], threshold, tracer) for e in prep.ENGINES] if tracer else []
        gc.collect()
        if loop == "live":
            source = ChunkSource(rng)
            lead = models["conv"].receptive_field + 3  # priming, plus the frontend's first window
            units = run_live(lanes + traced, source, stride, lead, seconds,
                             LIVE_STEPS_PER_ROUND, between)
            attempted, failed = checks.check_live(lanes + traced, models["conv"], source)
        else:
            clips = make_clips(rng, N_CLIPS)
            units = run_offline(lanes + traced, clips, seconds, between)
            attempted, failed = checks.check_offline(lanes + traced, models["conv"], clips)

    slowdown = probe.slowdown()
    print(
        f"{workload}: threshold {threshold:.6f}; {units} timed "
        f"{'rounds' if loop == 'live' else 'passes'}; "
        + "; ".join(f"{l.name}: {len(l.latency_ns)} timed results" for l in lanes + traced)
        + f"; speed probe {slowdown:.4f}x nominal over {len(probe.samples_ns)} samples"
    )
    if tracer:
        metrics = _layer_metrics(tracer, traced, lanes, models)
    else:
        for name, m in _end_to_end(lanes, setup.times_ns, False).items():
            print(f"raw {name} = {m['value']:.6g} {m['unit']}")
        metrics = _end_to_end(lanes, setup_scaled_ns, True)
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "liconet" / "__init__.py").is_file():
        print(f"error: no liconet sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import liconet

    if Path(liconet.__file__).resolve().parent != SRC / "liconet":
        print(f"error: imported liconet from {liconet.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(args), sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        a, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += a
        failed += f
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
