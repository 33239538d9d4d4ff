"""Command-line surface: init, info, check, linearize, quantize, run, verify.

Exit codes: 0 ok, 1 verification/operational failure, 2 usage.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from .decoder import softmax
from .errors import CalibrationError, ModelFileError, NotLinearizableError
from .frontend import FeatureStream
from .linearize import check_linearizable, linearize_network
from .model import build_lico_net, build_mlp, count_macs_per_step, count_params, network_forward
from .modelfile import Model, default_model, load_model, save_model
from .quantize import calibrate_activations, quantize_network
from .runtime import ENGINES, make_engine, read_wav, run_stream
from .tensor import Tensor2D

LICO_PRESETS = {
    "large": dict(input_features=40, n_blocks=5, w=32, e=6, kernel=5, n_classes=11),
    "small": dict(input_features=40, n_blocks=5, w=16, e=4, kernel=4, n_classes=11),
}
MLP_PRESETS = {
    "large": dict(input_frames=21, input_features=40, h1=80, h2=320, n_classes=11),
    "small": dict(input_frames=21, input_features=40, h1=40, h2=320, n_classes=11),
}


def _cmd_init(args) -> int:
    if args.arch == "lico":
        net = build_lico_net(**LICO_PRESETS[args.preset], first_stride=args.stride, seed=args.seed)
    else:
        net = build_mlp(**MLP_PRESETS[args.preset], seed=args.seed)
    save_model(default_model(net, first_stride=args.stride), args.out)
    print(f"wrote {args.arch} {args.preset} model (stride {args.stride}) to {args.out}")
    return 0


def _cmd_info(args) -> int:
    model = load_model(args.model)
    try:
        macs = count_macs_per_step(model.net)
    except NotLinearizableError as exc:
        macs = f"n/a (not linearizable: {exc.reasons})"
    print(f"kind {model.kind}, stride {model.first_stride}")
    print(f"params {count_params(model.net)}, macs {macs}")
    print(f"receptive field {model.receptive_field} frames")
    print(f"{'layer':<16}{'shape':<18}{'stride':<8}{'act':<6}{'params':<10}{'macs':<10}")
    for st in model.stages:
        op = st.op
        shape = f"{op.out_dim}x{st.channels}x{st.kernel}"
        print(f"{st.name:<16}{shape:<18}{st.stride:<8}{op.activation:<6}"
              f"{op.param_count:<10}{op.mac_count:<10}")
    return 0


def _cmd_check(args) -> int:
    report = check_linearizable(load_model(args.model).net, args.chunk)
    if report.compliant:
        print(f"compliant: chunk size {args.chunk} linearizes this model")
        return 0
    print("not linearizable:")
    for layer_id, reason in report.violations:
        print(f"  {layer_id}: {reason}")
    return 1


def _cmd_linearize(args) -> int:
    model = load_model(args.model)
    lnet = make_engine(model, "conv")  # a float model's plan, if the gate passes
    save_model(Model(lnet, model.frontend, model.decoder, model.first_stride), args.out)
    print(f"wrote linearized pipeline ({len(lnet.stages) - 1} stages + classifier) to {args.out}")
    return 0


def _cmd_quantize(args) -> int:
    model = load_model(args.model)
    lnet = make_engine(model, "linear")
    pcm = read_wav(args.calib, model.frontend.sample_rate)
    features = FeatureStream(model.frontend).push(pcm)
    ranges = calibrate_activations(lnet, Tensor2D(features))
    qnet = quantize_network(lnet, ranges)
    save_model(Model(qnet, model.frontend, model.decoder, model.first_stride), args.out)
    print(f"wrote int8 pipeline calibrated on {features.shape[1]} frames to {args.out}")
    return 0


def _cmd_run(args) -> int:
    model = load_model(args.model)
    pcm = read_wav(args.wav, model.frontend.sample_rate)
    dump = open(args.posteriors, "w") if args.posteriors else None
    try:
        for res in run_stream(model, [pcm], engine=args.engine, threshold=args.threshold):
            if dump:
                probs = " ".join(f"{p:.6f}" for p in res.posterior.probs)
                dump.write(f"{res.step} {probs}\n")
            if res.event is not None:
                print(f"t={res.time_s:.3f} score={res.event.score:.4f}")
    finally:
        if dump:
            dump.close()
    return 0


def _cmd_verify(args) -> int:
    model = load_model(args.model)
    conv = make_engine(model, "conv")
    net, t = model.net, model.first_stride
    size = (net.input_features, args.steps * t)
    stream = np.random.default_rng(args.seed).normal(0.0, 1.0, size=size)
    held_out = np.random.default_rng([args.seed, 1]).normal(0.0, 1.0, size=size)

    # The linearized pipeline is stepped as `linearize` writes it and `run` reads it.
    conv_out = conv.step_array(stream)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "linear.lcn"
        save_model(Model(linearize_network(net, t), model.frontend, model.decoder, t), path)
        lin_eng = make_engine(load_model(path), "linear")
    lin_out = lin_eng.step_array(stream)

    pad = model.receptive_field - t
    padded = np.concatenate([np.zeros((net.input_features, pad)), stream], axis=1)
    batch_out = network_forward(net, Tensor2D(padded), t).data

    dev_batch = float(np.max(np.abs(conv_out - batch_out)))
    dev_linear = float(np.max(np.abs(lin_out - conv_out)))

    # Calibrated on the seeded stream, int8 drift is measured on a held-out one.
    qnet = quantize_network(lin_eng, calibrate_activations(lin_eng, Tensor2D(stream)))
    lin_eng.reset()
    drift = np.abs(softmax(lin_eng.step_array(held_out).T) - softmax(qnet.step_array(held_out).T))
    dev_quant = float(np.max(drift.sum(axis=0) / args.steps))

    ok = True
    for name, dev, limit in (
        ("streaming vs batch", dev_batch, 1e-5),
        ("linearized vs streaming", dev_linear, 1e-6),
        ("int8 mean posterior drift", dev_quant, 0.05),
    ):
        status = "ok" if dev <= limit else "FAIL"  # NaN fails
        ok &= status == "ok"
        print(f"{name}: max deviation {dev:.3e} (limit {limit:g}) {status}")
    return 0 if ok else 1


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="liconet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init", help="build a seeded random model file")
    p.add_argument("--arch", choices=("lico", "mlp"), required=True)
    p.add_argument("--preset", choices=("large", "small"), required=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_init)

    p = sub.add_parser("info", help="print parameter/MAC accounting and layers")
    p.add_argument("model")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("check", help="report whether a chunk size linearizes the model")
    p.add_argument("model")
    p.add_argument("--chunk", type=int, required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("linearize", help="convert to the dense per-step pipeline")
    p.add_argument("model")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_linearize)

    p = sub.add_parser("quantize", help="calibrate on a WAV and quantize to int8")
    p.add_argument("model")
    p.add_argument("--calib", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_quantize)

    p = sub.add_parser("run", help="stream a WAV and print detection events")
    p.add_argument("model")
    p.add_argument("--wav", required=True)
    p.add_argument("--engine", choices=ENGINES, default="linear")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--posteriors", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("verify", help="run the engine-equivalence suites")
    p.add_argument("model")
    p.add_argument("--steps", type=_positive_int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelFileError, NotLinearizableError, CalibrationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
