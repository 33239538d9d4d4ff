"""End-to-end streaming: WAV in, feature frames, one inference step per
stride-many frames, softmax, smoothing, sliding-window score, events.

Every engine is a new stream over the model's stage plan (see
pipeline.py): the engines of one model share its stages, each holding only
its own stream state. `conv` runs a float model, `linear` a float or
linearized one and `int8` a quantized one; on a float model `conv` and
`linear` run the same stages with the same arithmetic. A float model must
pass the linearization gate (pipeline.linear_plan); the plan's geometry
was checked when the model was built or loaded, so an engine does not
check it again. A stream primes on the first receptive_field - stride
feature frames (never negative, and on the stride grid, so the first
emitted posterior has a fully real context and step k equals batch column
k), then hands the engine every complete stride of frames it holds, at
most MAX_PASS_STEPS per call, and runs softmax and the decoder once over
that call's block of logits. Every engine runs such a call in one pass
whose steps have the same bits as one step at a time (see
Pipeline.step_array), and so does the decoder (see decoder.py), so results
do not depend on how the PCM is split. A stream of F frames therefore
yields floor((F - RF) / s1) + 1 posteriors.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass, replace

import numpy as np

from .decoder import DetectionEvent, KeywordDecoder, PosteriorFrame, posterior_from_logits
from .errors import ConfigError, InvalidInputError
from .frontend import FeatureStream, pcm_samples
from .modelfile import Model
from .pipeline import MAX_PASS_STEPS, Pipeline, linear_plan

# The model kinds each engine runs, and how to name them in an error.
_ENGINE_KINDS = {
    "conv": (("lico", "mlp"), "a float model"),
    "linear": (("lico", "mlp", "linearized"), "a float or linearized model"),
    "int8": (("quantized",), "a quantized model"),
}
ENGINES = tuple(_ENGINE_KINDS)


def read_wav(path, expected_rate: int = 16000) -> np.ndarray:
    """Load RIFF PCM16 mono samples as int16. Other formats are rejected."""
    try:
        w = wave.open(str(path), "rb")
    except (wave.Error, EOFError) as exc:  # not RIFF, or a truncated header
        raise InvalidInputError(f"{path} is not a WAV file: {exc or 'header ends early'}") from exc
    with w:
        if w.getsampwidth() != 2:
            raise InvalidInputError(f"{path}: need 16-bit PCM, got {8 * w.getsampwidth()}-bit")
        if w.getnchannels() != 1:
            raise InvalidInputError(f"{path}: need mono audio, got {w.getnchannels()} channels")
        if w.getframerate() != expected_rate:
            raise InvalidInputError(
                f"{path}: need {expected_rate} Hz audio, got {w.getframerate()} Hz (no resampling)"
            )
        n = w.getnframes()
        data = w.readframes(n)
    if len(data) != 2 * n:
        raise InvalidInputError(
            f"{path} is truncated: its data chunk declares {2 * n} bytes, holds {len(data)}"
        )
    return np.frombuffer(data, dtype="<i2").astype(np.int16)


def write_wav(path, samples: np.ndarray) -> None:
    """Write 16 kHz int16 mono PCM, clipping float to [-1, 1); refuses what push refuses."""
    arr = np.clip(np.round(pcm_samples(samples) * 32768.0), -32768, 32767).astype(np.int16)
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(arr.astype("<i2").tobytes())


def make_engine(model: Model, engine: str) -> Pipeline:
    """A new stream of the requested engine over the model's stages."""
    if engine not in ENGINES:
        raise ConfigError(f"engine must be one of {ENGINES}, got {engine!r}")
    kinds, needs = _ENGINE_KINDS[engine]
    if model.kind not in kinds:
        raise ConfigError(f"{engine} engine needs {needs}, file holds {model.kind!r}")
    return Pipeline.of_plan(linear_plan(model.stages, model.first_stride))


@dataclass(frozen=True)
class StepResult:
    step: int
    time_s: float
    posterior: PosteriorFrame
    smoothed: PosteriorFrame
    score: float
    event: DetectionEvent | None


def run_stream(model: Model, pcm_chunks, engine: str = "linear", threshold: float | None = None):
    """Generator over inference steps for a PCM chunk iterable.

    Emits a StepResult per step; events carry the detection score at the
    upward threshold crossing. time_s is the end time of the newest audio
    sample the step consumed.
    """
    eng = make_engine(model, engine)
    cfg = model.frontend
    dcfg = model.decoder
    decoder = KeywordDecoder(dcfg if threshold is None else replace(dcfg, threshold=threshold))
    features = FeatureStream(cfg)
    t = model.first_stride
    prime_len = model.receptive_field - t
    pending = np.zeros((cfg.n_mels, 0))
    primed = prime_len == 0
    step = 0
    for chunk in pcm_chunks:
        frames = features.push(chunk)
        if frames.shape[1]:
            pending = np.concatenate([pending, frames], axis=1) if pending.shape[1] else frames
        if not primed:
            if pending.shape[1] < prime_len:
                continue
            eng.prime_array(pending[:, :prime_len])
            pending = pending[:, prime_len:]
            primed = True
        while pending.shape[1] >= t:
            width = min(pending.shape[1] // t, MAX_PASS_STEPS) * t
            posterior = posterior_from_logits(step, eng.step_array(pending[:, :width]))
            pending = pending[:, width:]
            smoothed, scores, events = decoder.update(posterior)
            fired = {event.step: event for event in events}
            for post, smooth, score in zip(posterior.frames(), smoothed.frames(), scores):
                frame_idx = prime_len + (step + 1) * t - 1
                time_s = (frame_idx * cfg.hop_samples + cfg.window_samples) / cfg.sample_rate
                yield StepResult(step, time_s, post, smooth, score, fired.get(step))
                step += 1
