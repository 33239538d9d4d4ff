"""Model files for the benchmark, made through the public CLI.

Every run builds its three files from the same fixed seeds with the shipped
presets: `liconet init` writes the float model (conv engine), `linearize`
the dense pipeline (linear engine) and `quantize` the int8 pipeline, which
is calibrated on a held-out stream that no workload measures.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter_ns

import numpy as np
from liconet import load_model, make_engine, run_stream, write_wav
from liconet.cli import main as liconet_cli

from audio import CHUNK, RATE, synth

ENGINES = ("conv", "linear", "int8")
MODEL_SEED = 1
HELDOUT_SEED = 20221109  # its own seed sequence, disjoint from every workload seed
HELDOUT_SECONDS = 30
# The random-weight presets score in a narrow band (about 0.09), far below
# the shipped threshold of 0.5. Firing on the top tenth of held-out scores
# makes events, and with them the refractory path, part of every run.
THRESHOLD_QUANTILE = 0.9


def heldout_pcm() -> np.ndarray:
    return synth(np.random.default_rng([HELDOUT_SEED]), HELDOUT_SECONDS * RATE)


def _cli(*args) -> None:
    argv = [str(a) for a in args]
    log = io.StringIO()
    with redirect_stdout(log), redirect_stderr(log):
        code = liconet_cli(argv)
    if code != 0:
        raise RuntimeError(f"liconet {' '.join(argv)} exited {code}: {log.getvalue().strip()}")


def prepare(workdir: Path, arch: str, stride: int, heldout: np.ndarray) -> dict:
    """Write the float, linearized and int8 files; returns engine -> path."""
    calib = workdir / "heldout.wav"
    write_wav(calib, heldout)
    files = {e: workdir / f"{arch}-{e}.lcn" for e in ENGINES}
    _cli("init", "--arch", arch, "--preset", "large", "--stride", stride,
         "--seed", MODEL_SEED, "--out", files["conv"])
    _cli("linearize", files["conv"], "--out", files["linear"])
    _cli("quantize", files["linear"], "--calib", calib, "--out", files["int8"])
    return files


def derive_threshold(model, heldout: np.ndarray) -> float:
    """The THRESHOLD_QUANTILE of the linear engine's scores on the held-out stream."""
    chunks = heldout[: heldout.size // CHUNK * CHUNK].reshape(-1, CHUNK)
    scores = [r.score for r in run_stream(model, chunks, engine="linear")]
    return float(np.quantile(scores, THRESHOLD_QUANTILE))


class Setup:
    """Loads the three files and builds each engine once per call, timing
    each call. The workload loops call it between rounds, so that its
    samples are spread over the run like every other measurement.

    load(path, engine) and build(model, engine) default to the public
    load_model and make_engine; the traced run passes timed wrappers.
    """

    def __init__(self, files: dict, load=None, build=None):
        self.files = files
        self.load = load or (lambda path, engine: load_model(path))
        self.build = build or make_engine
        self.times_ns: list[int] = []

    def once(self) -> dict:
        """Returns engine -> Model."""
        t0 = perf_counter_ns()
        models = {e: self.load(self.files[e], e) for e in ENGINES}
        for e in ENGINES:
            self.build(models[e], e)
        self.times_ns.append(perf_counter_ns() - t0)
        return models
