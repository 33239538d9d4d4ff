"""Single-file model serialization.

Layout, all integers little-endian:

    bytes 0..3   magic "LCN1"
    bytes 4..5   format version (u16)
    bytes 6..9   manifest length in bytes (u32)
    manifest     canonical JSON (sorted keys, no whitespace)
    blobs        raw tensors, concatenated in manifest order

The manifest declares every tensor's name, dtype (f32, i8, or i32),
shape, and byte length. Loading validates the whole file before any net
is constructed, then rebuilds the model from its tensors. One rule then
decides: the manifest must be exactly the one that saving the rebuilt
model writes, key for key, values and JSON types alike. Saving is
deterministic: the same model always produces byte-identical files.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .conv import pointwise
from .decoder import DecoderConfig
from .errors import BadMagicError, ConfigError, ManifestError, NotLinearizableError
from .errors import TruncatedError, VersionError, stride_of
from .frontend import NUMBER_FIELDS, FrontendConfig
from .model import LiCoNet, MlpNet, lico_block, mlp_net, receptive_field_of, stage_plan
from .pipeline import LinearLayer, Pipeline, PipelineStage
from .quantize import QuantizedLinearLayer
from .tensor import QuantParams

MAGIC = b"LCN1"
VERSION = 1

_DTYPES = {"f32": np.dtype("<f4"), "i8": np.dtype("i1"), "i32": np.dtype("<i4")}

# Each model kind by name: its net type or, for a pipeline, its operator
# type, its tensor dtypes and the quantization parameters of each stage.
_KINDS = {
    "lico": (LiCoNet, "f32", "f32", ()),
    "mlp": (MlpNet, "f32", "f32", ()),
    "linearized": (LinearLayer, "f32", "f32", ()),
    "quantized": (QuantizedLinearLayer, "i8", "i32", ("weight_params", "in_params", "out_params")),
}
# The configuration a manifest stores; the normalization vectors are tensors.
_DECODER_FIELDS = ("window_steps", "smooth_steps", "keyword_ids", "threshold")
# The arch entries of a LiCo block and of a pipeline stage, read off the object.
_BLOCK_FIELDS = ("in_channels", "width", "expansion", "kernel", "stride", "residual")
_STAGE_FIELDS = ("name", "channels", "kernel", "stride", "residual_from")


@dataclass(frozen=True)
class Model:
    """A network bundled with its frontend and decoder configuration, and
    the network's stage plan at the stored stride: the plan that a float
    net checked when it has that stride, else built once."""

    net: object
    frontend: FrontendConfig
    decoder: DecoderConfig
    first_stride: int
    stages: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stride = stride_of(self.first_stride, "first stride")
        object.__setattr__(self, "first_stride", stride)
        plan = getattr(self.net, "plan", None)
        if plan is None or plan[0].stride != stride:
            plan = stage_plan(self.net, stride)
        object.__setattr__(self, "stages", plan)
        features = self.stages[0].channels
        if self.frontend.n_mels != features:
            raise ConfigError(f"{self.frontend.n_mels} mel bands, the net takes {features}")
        n = self.net.n_classes
        if max(self.decoder.keyword_ids) >= n:
            raise ConfigError(f"keyword class ids {self.decoder.keyword_ids} exceed {n} classes")

    @property
    def kind(self) -> str:
        net = self.stages[-1].op if isinstance(self.net, Pipeline) else self.net
        return next(name for name, (cls, *_) in _KINDS.items() if type(net) is cls)

    @property
    def receptive_field(self) -> int:
        return receptive_field_of(self.stages)


def default_model(net, first_stride: int | None = None) -> Model:
    """Wrap a bare net with an identity frontend of its input width and default decoder."""
    t = stage_plan(net)[0].stride if first_stride is None else first_stride
    decoder = DecoderConfig.default(net.n_classes, stride_of(t, "first stride"))
    return Model(net, FrontendConfig(n_mels=net.input_features), decoder, t)


# --- manifest assembly -----------------------------------------------------


def _entry(name, arr, dtype):
    """The manifest entry of a tensor stored as dtype."""
    byte_len = arr.size * _DTYPES[dtype].itemsize
    return {"name": name, "dtype": dtype, "shape": list(arr.shape), "byte_len": byte_len}


def _collect(model: Model):
    """The manifest that saving model writes, and its tensors as (name, array, dtype)."""
    net, stages, kind = model.net, model.stages, model.kind
    _, *dtypes, qfields = _KINDS[kind]
    # Read off the plan: a net's own input_features field may be 3.0, and
    # its input_frames a numpy integer.
    arch = {"input_features": stages[0].channels, "n_classes": stages[-1].op.out_dim}
    if kind == "lico":
        arch["blocks"] = [{f: getattr(b, f) for f in _BLOCK_FIELDS} for b in net.blocks]
    elif kind == "mlp":
        arch["input_frames"] = stages[0].kernel
        arch["hidden"] = [l.out_dim for l in net.hidden]
    else:  # a pipeline: Model's stage_plan refuses any other net

        def qparams(op):
            return {f: vars(getattr(op, f)) for f in qfields}  # scale and zero_point

        *body, cls = stages
        sources = {s.residual_from for s in stages}
        arch["chunk_size"] = model.first_stride
        arch["stages"] = [
            {**{f: getattr(s, f) for f in _STAGE_FIELDS}, "captures_input": i in sources,
             "activation": s.op.activation, **qparams(s.op)}
            for i, s in enumerate(body)
        ]
        if qfields:
            arch["input_params"] = vars(stages[0].op.in_params)
            arch["classifier"] = {"activation": cls.op.activation, **qparams(cls.op)}
    # Each tensor is named after its stage. A LiCo block conv is stored as
    # its own (D, C, K) weights, and every other stage as its dense operator.
    convs = [c.weights for b in net.blocks for c in b.layers] if kind == "lico" else []
    tensors = []
    for i, st in enumerate(stages):
        w = convs[i] if i < len(convs) else st.op.weights
        tensors.append((f"{st.name}.weight", w, dtypes[0]))
        tensors.append((f"{st.name}.bias", st.op.bias, dtypes[1]))
    fe = model.frontend
    tensors.append(("frontend.norm_mean", fe.norm_mean, "f32"))
    tensors.append(("frontend.norm_std", fe.norm_std, "f32"))
    manifest = {
        "kind": kind,
        "first_stride": model.first_stride,
        "arch": arch,
        "frontend": {f: getattr(fe, f) for f in NUMBER_FIELDS},
        "decoder": {f: getattr(model.decoder, f) for f in _DECODER_FIELDS},
        "tensors": [_entry(*t) for t in tensors],
    }
    manifest["decoder"]["keyword_ids"] = list(model.decoder.keyword_ids)  # a tuple in the config
    return manifest, tensors


def save_model(model: Model, path) -> None:
    """Write a model to path."""
    manifest, named = _collect(model)
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
        out[name] = np.frombuffer(blob[offset : offset + byte_len], _DTYPES[dtype]).reshape(shape)
        offset += byte_len
    if offset != len(blob):
        raise ManifestError(f"{len(blob) - offset} unexpected trailing bytes after tensors")
    return out


def _rebuild_net(manifest, tensors):
    kind = manifest["kind"]
    arch = manifest["arch"]
    if kind not in _KINDS:
        raise ManifestError(f"unknown model kind {kind!r}")
    op_type, _, _, qfields = _KINDS[kind]

    def pair(name):
        return tensors[f"{name}.weight"], tensors[f"{name}.bias"]

    if kind == "lico":
        blocks = [
            lico_block([pair(f"block{i}.conv{j}") for j in (1, 2, 3)], spec["stride"],
                       spec["residual"])
            for i, spec in enumerate(arch["blocks"], start=1)
        ]
        classifier = pointwise(*pair("classifier"))  # stored as its dense operator
        return LiCoNet(arch["input_features"], tuple(blocks), classifier)
    if kind == "mlp":
        names = [f"layer{i}" for i in range(1, len(arch["hidden"]) + 1)] + ["classifier"]
        return mlp_net(arch["input_frames"], arch["input_features"], [pair(n) for n in names])

    def operator(name, spec):
        return op_type(*pair(name), activation=spec["activation"],
                       **{f: QuantParams(**spec[f]) for f in qfields})

    stages = [
        PipelineStage(op=operator(spec["name"], spec), **{f: spec[f] for f in _STAGE_FIELDS})
        for spec in arch["stages"]
    ]
    cls = operator("classifier", arch["classifier"] if qfields else {"activation": "none"})
    net = Pipeline(stages + [PipelineStage("classifier", cls, cls.in_dim, 1, 1)])
    for prev, st in zip(net.stages, net.stages[1:]):
        if qfields and st.op.in_params != prev.op.out_params:
            raise ManifestError(f"{st.name}: in_params differ from {prev.name}'s out_params")
    return net


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
    except (ValueError, RecursionError) as exc:  # valid JSON: past the digit limit, or too deep
        raise ManifestError(f"manifest holds a value Python cannot read: {exc}") from exc
    try:
        # Read-only views of the blob in stored dtypes; each constructor copies what it keeps.
        tensors = _read_tensors(manifest, memoryview(raw)[10 + manifest_len :])
        net = _rebuild_net(manifest, tensors)
        fe = manifest["frontend"]
        frontend = FrontendConfig(
            **{f: fe[f] for f in NUMBER_FIELDS},
            norm_mean=tensors["frontend.norm_mean"],
            norm_std=tensors["frontend.norm_std"],
        )
        decoder = DecoderConfig(**{f: manifest["decoder"][f] for f in _DECODER_FIELDS})
        model = Model(net, frontend, decoder, manifest["first_stride"])
        # Saving the rebuilt model must write back this very manifest: the
        # file may state nothing that the model does not do. Its values
        # passed through constructors that take 3.0 for 3, so types are
        # compared too, except in tensor entries: those hold only strings
        # and the integers _read_tensors checked.
        written, _ = _collect(model)
        for key in sorted(manifest.keys() | written.keys()):
            mine, want = manifest.get(key, ()), written.get(key, ())  # () is no JSON value
            if mine != want or key != "tensors" and not _same_types([mine], [want]):
                raise ManifestError(f"{key} entries differ from those the rebuilt model saves")
        return model
    except KeyError as exc:
        raise ManifestError(f"manifest missing field {exc}") from exc
    except (TypeError, ValueError, NotLinearizableError) as exc:
        raise ManifestError(f"manifest does not describe a valid model: {exc}") from exc
