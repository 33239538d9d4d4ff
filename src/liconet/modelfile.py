"""Single-file model serialization.

Layout, all integers little-endian:

    bytes 0..3   magic "LCN1"
    bytes 4..5   format version (u16)
    bytes 6..9   manifest length in bytes (u32)
    manifest     canonical JSON (sorted keys, no whitespace)
    blobs        raw tensors, concatenated in manifest order

The manifest declares every tensor's name, dtype (f32, i8, or i32),
shape, and byte length; loading validates the whole file before any net
is constructed, then rebuilds the model from its tensors and rejects a
manifest whose arch or tensor entries differ from the ones saving that
model writes. Saving is deterministic: the same model always produces
byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .conv import Conv1DLayer
from .decoder import DecoderConfig
from .errors import BadMagicError, ConfigError, ManifestError, TruncatedError, VersionError
from .errors import is_whole
from .frontend import FrontendConfig
from .model import LiCoBlock, LiCoNet, MlpNet, receptive_field_of, stage_plan
from .pipeline import LinearLayer, Pipeline, PipelineStage
from .quantize import QuantizedLinearLayer
from .tensor import QuantParams

MAGIC = b"LCN1"
VERSION = 1

_DTYPES = {"f32": np.dtype("<f4"), "i8": np.dtype("i1"), "i32": np.dtype("<i4")}

# A pipeline's file kind and tensor dtypes follow its operator type, as do
# the quantization parameters stored with each stage.
_OPERATORS = {
    LinearLayer: ("linearized", "f32", "f32", ()),
    QuantizedLinearLayer: ("quantized", "i8", "i32", ("weight_params", "in_params", "out_params")),
}
_PIPELINE_KINDS = {kind: op for op, (kind, *_) in _OPERATORS.items()}
_FLOAT_KINDS = {LiCoNet: "lico", MlpNet: "mlp"}
# The configuration a manifest stores; the normalization vectors are tensors.
_FRONTEND_FIELDS = ("sample_rate", "window_ms", "hop_ms", "n_mels", "fmin", "fmax", "log_floor")
_DECODER_FIELDS = ("window_steps", "smooth_steps", "keyword_ids", "threshold")
# The arch entries of a LiCo block and of a pipeline stage, read off the object.
_BLOCK_FIELDS = ("in_channels", "width", "expansion", "kernel", "stride", "residual")
_STAGE_FIELDS = ("name", "channels", "kernel", "stride", "residual_from")


@dataclass(frozen=True)
class Model:
    """A network bundled with its frontend and decoder configuration, and
    the network's stage plan at the stored stride, built once."""

    net: object
    frontend: FrontendConfig
    decoder: DecoderConfig
    first_stride: int
    stages: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stride = self.first_stride
        if not is_whole(stride) or stride < 1:
            raise ConfigError(f"first stride must be an integer >= 1, got {stride!r}")
        object.__setattr__(self, "stages", stage_plan(self.net, stride))
        features = self.stages[0].channels
        if self.frontend.n_mels != features:
            raise ConfigError(f"{self.frontend.n_mels} mel bands, the net takes {features}")
        n = self.net.n_classes
        if max(self.decoder.keyword_ids) >= n:
            raise ConfigError(f"keyword class ids {self.decoder.keyword_ids} exceed {n} classes")

    @property
    def kind(self) -> str:
        kind = _FLOAT_KINDS.get(type(self.net))
        return kind or _OPERATORS[type(self.stages[-1].op)][0]

    @property
    def receptive_field(self) -> int:
        return receptive_field_of(self.stages)


def default_model(net, first_stride: int | None = None, threshold: float = 0.5) -> Model:
    """Wrap a bare net with an identity frontend of its input width and default decoder."""
    if first_stride is None:
        first_stride = stage_plan(net)[0].stride
    decoder = DecoderConfig.default(net.n_classes, first_stride, threshold)
    return Model(net, FrontendConfig(n_mels=net.input_features), decoder, first_stride)


# --- manifest assembly -----------------------------------------------------


def _entry(name, arr, dtype):
    """The manifest entry of a tensor stored as dtype."""
    byte_len = arr.size * _DTYPES[dtype].itemsize
    return {"name": name, "dtype": dtype, "shape": list(arr.shape), "byte_len": byte_len}


def _qparams_out(p: QuantParams):
    return {"scale": p.scale, "zero_point": p.zero_point}


def _collect(model: Model):
    net = model.net
    dtypes = ("f32", "f32")
    if isinstance(net, LiCoNet):
        arch = {
            "input_features": model.stages[0].channels,  # the net's own field may be 3.0
            "n_classes": net.n_classes,
            "blocks": [{f: getattr(b, f) for f in _BLOCK_FIELDS} for b in net.blocks],
        }
    elif isinstance(net, MlpNet):
        arch = {
            "input_frames": net.input_frames,
            "input_features": net.input_features,
            "hidden": [l.out_dim for l in net.hidden],
            "n_classes": net.n_classes,
        }
    elif isinstance(net, Pipeline):
        _, *dtypes, qfields = _OPERATORS[type(net.stages[-1].op)]

        def qparams(op):
            return {f: _qparams_out(getattr(op, f)) for f in qfields}

        *body, cls = net.stages
        sources = {s.residual_from for s in net.stages}
        arch = {
            "input_features": net.input_features,
            "n_classes": net.n_classes,
            "chunk_size": net.chunk_size,
            "stages": [
                {**{f: getattr(s, f) for f in _STAGE_FIELDS}, "captures_input": i in sources,
                 "activation": s.op.activation, **qparams(s.op)}
                for i, s in enumerate(body)
            ],
        }
        if qfields:
            arch["input_params"] = _qparams_out(net.stages[0].op.in_params)
            arch["classifier"] = {"activation": cls.op.activation, **qparams(cls.op)}
    else:
        raise ConfigError(f"cannot serialize {type(net).__name__}")
    # Each tensor is named after its stage; a LiCo block conv is stored (D, C, K).
    tensors = []
    for st in model.stages:
        w = st.op.weights
        if isinstance(net, LiCoNet) and st is not model.stages[-1]:
            w = w.reshape(st.channels, st.kernel, -1).transpose(2, 0, 1)
        tensors.append((f"{st.name}.weight", w, dtypes[0]))
        tensors.append((f"{st.name}.bias", st.op.bias, dtypes[1]))
    fe = model.frontend
    tensors.append(("frontend.norm_mean", fe.norm_mean, "f32"))
    tensors.append(("frontend.norm_std", fe.norm_std, "f32"))
    manifest = {
        "kind": model.kind,
        "first_stride": model.first_stride,
        "arch": arch,
        "frontend": {f: getattr(fe, f) for f in _FRONTEND_FIELDS},
        "decoder": {f: getattr(model.decoder, f) for f in _DECODER_FIELDS},
    }
    return manifest, tensors


def save_model(model, path) -> None:
    """Write a model (or bare net, wrapped with defaults) to path."""
    if not isinstance(model, Model):
        model = default_model(model)
    manifest, named = _collect(model)
    manifest["tensors"] = [_entry(*t) for t in named]
    blob = b"".join(np.ascontiguousarray(a, dtype=_DTYPES[d]).tobytes() for _, a, d in named)
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<HI", VERSION, len(payload)) + payload + blob)


# --- loading ---------------------------------------------------------------


def _read_tensors(manifest, blob):
    offset = 0
    out = {}
    for entry in manifest["tensors"]:
        name, dtype, byte_len = entry["name"], entry["dtype"], entry["byte_len"]
        shape = tuple(entry["shape"])
        if dtype not in _DTYPES:
            raise ManifestError(f"tensor {name}: unknown dtype {dtype!r}")
        if not all(type(n) is int and n >= 0 for n in shape):  # bools are not sizes
            raise ManifestError(f"tensor {name}: shape {shape} is not of non-negative integers")
        expected = math.prod(shape) * _DTYPES[dtype].itemsize
        if type(byte_len) is not int or byte_len != expected:
            raise ManifestError(
                f"tensor {name}: shape {shape} implies {expected} bytes, manifest says {byte_len!r}"
            )
        if offset + byte_len > len(blob):
            raise TruncatedError(
                f"tensor {name}: file ends {offset + byte_len - len(blob)} bytes early"
            )
        arr = np.frombuffer(blob[offset : offset + byte_len], dtype=_DTYPES[dtype])
        out[name] = arr.reshape(shape).astype(np.float64 if dtype == "f32" else arr.dtype)
        offset += byte_len
    if offset != len(blob):
        raise ManifestError(f"{len(blob) - offset} unexpected trailing bytes after tensors")
    return out


def _rebuild_net(manifest, tensors):
    kind = manifest["kind"]
    arch = manifest["arch"]
    if kind == "lico":
        blocks = []
        for i, spec in enumerate(arch["blocks"], start=1):
            layers = [
                Conv1DLayer(tensors[f"block{i}.conv{j}.weight"], tensors[f"block{i}.conv{j}.bias"],
                            spec["stride"] if j == 1 else 1, act)
                for j, act in ((1, "relu"), (2, "relu"), (3, "none"))
            ]
            blocks.append(LiCoBlock(*layers, residual=spec["residual"]))
        w = tensors["classifier.weight"]
        classifier = Conv1DLayer(
            w.T.reshape(w.shape[1], w.shape[0], 1), tensors["classifier.bias"], 1, "none"
        )
        return LiCoNet(arch["input_features"], tuple(blocks), classifier)
    if kind == "mlp":
        hidden = tuple(
            LinearLayer(tensors[f"layer{i}.weight"], tensors[f"layer{i}.bias"], "relu")
            for i in range(1, len(arch["hidden"]) + 1)
        )
        classifier = LinearLayer(tensors["classifier.weight"], tensors["classifier.bias"], "none")
        return MlpNet(arch["input_frames"], arch["input_features"], hidden, classifier)
    if kind in _PIPELINE_KINDS:
        op_type = _PIPELINE_KINDS[kind]
        qfields = _OPERATORS[op_type][3]

        def operator(name, spec):
            return op_type(
                weights=tensors[f"{name}.weight"],
                bias=tensors[f"{name}.bias"],
                activation=spec["activation"],
                **{f: QuantParams(**spec[f]) for f in qfields},
            )

        stages = [
            PipelineStage(spec["name"], operator(spec["name"], spec), spec["channels"],
                          spec["kernel"], spec["stride"], spec["residual_from"])
            for spec in arch["stages"]
        ]
        cls = operator("classifier", arch["classifier"] if qfields else {"activation": "none"})
        net = Pipeline(stages + [PipelineStage("classifier", cls, cls.in_dim, 1, 1)])
        for prev, st in zip(net.stages, net.stages[1:]):
            if qfields and st.op.in_params != prev.op.out_params:
                raise ManifestError(f"{st.name}: in_params differ from {prev.name}'s out_params")
        return net
    raise ManifestError(f"unknown model kind {kind!r}")


def _same_types(a, b) -> bool:
    """Whether equal JSON containers hold values of one type throughout:
    1 equals true and 800.0 equals 800, but neither is the same value."""
    for key, x in a.items() if type(a) is dict else enumerate(a):
        y = b[key]
        kind = type(x)
        if kind is not type(y) or kind in (dict, list) and not _same_types(x, y):
            return False
    return True


def load_model(path) -> Model:
    """Read and fully validate a model file before any inference runs."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 10:
        raise TruncatedError(f"file has {len(raw)} bytes, header needs 10")
    if raw[:4] != MAGIC:
        raise BadMagicError(f"bad magic {raw[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<H", raw, 4)
    if version != VERSION:
        raise VersionError(f"unsupported format version {version}, expected {VERSION}")
    (manifest_len,) = struct.unpack_from("<I", raw, 6)
    if 10 + manifest_len > len(raw):
        raise TruncatedError("file ends inside the manifest")
    try:
        manifest = json.loads(raw[10 : 10 + manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from exc
    try:
        # A view, not a copy of the blob: each tensor is copied out by astype.
        tensors = _read_tensors(manifest, memoryview(raw)[10 + manifest_len :])
        net = _rebuild_net(manifest, tensors)
        fe = manifest["frontend"]
        frontend = FrontendConfig(
            **{f: fe[f] for f in _FRONTEND_FIELDS},
            norm_mean=tensors["frontend.norm_mean"],
            norm_std=tensors["frontend.norm_std"],
        )
        decoder = DecoderConfig(**{f: manifest["decoder"][f] for f in _DECODER_FIELDS})
        model = Model(net, frontend, decoder, manifest["first_stride"])
        # Saving the rebuilt model must write back the same arch and tensor
        # entries: the manifest may state nothing that the model does not do.
        # The arch passed through constructors that take 3.0 for 3, so its
        # types are compared too; tensor entries hold only strings and the
        # integers _read_tensors checked.
        written, named = _collect(model)
        arch, want = manifest["arch"], written["arch"]
        if arch != want or not _same_types(arch, want):
            raise ManifestError("arch entries differ from those the rebuilt model saves")
        if manifest["tensors"] != [_entry(*t) for t in named]:
            raise ManifestError("tensors entries differ from those the rebuilt model saves")
        return model
    except KeyError as exc:
        raise ManifestError(f"manifest missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ManifestError(f"manifest does not describe a valid model: {exc}") from exc
