"""Model files whose manifest was edited after saving: every such file must
fail inside load_model with a ModelFileError, never later at a step."""

import copy
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liconet.cli import main as cli_main
from liconet.decoder import DecoderConfig
from liconet.errors import BadMagicError, ConfigError, ManifestError, ModelFileError
from liconet.errors import TruncatedError, VersionError
from liconet.frontend import FrontendConfig
from liconet.linearize import linearize_network
from liconet.model import build_lico_net, build_mlp
from liconet.modelfile import Model, default_model, load_model, save_model
from liconet.quantize import calibrate_activations, quantize_network
from liconet.runtime import make_engine, write_wav
from liconet.tensor import Tensor2D


def _rewrite(path, mutate):
    """Apply mutate to the file's manifest in place, keeping its tensors."""
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 6)
    manifest = json.loads(raw[10 : 10 + n])
    mutate(manifest)
    payload = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(raw[:6] + struct.pack("<I", len(payload)) + payload + raw[10 + n :])


def _save(tmp_path, kind):
    """A two-block net (stride 2, then a residual block) saved as `kind`."""
    net = build_lico_net(3, 2, 3, 2, 3, 2, 3, seed=8)
    lnet = linearize_network(net, 2)
    nets = {"lico": net, "mlp": build_mlp(4, 3, 5, 4, 3, seed=9), "linearized": lnet}
    if kind == "quantized":
        calib = Tensor2D(np.random.default_rng(1).normal(size=(3, 200)))
        nets[kind] = quantize_network(lnet, calibrate_activations(lnet, calib))
    path = tmp_path / f"{kind}.lcn"
    save_model(default_model(nets[kind]), path)
    return path


def _set(*keys, value):
    def mutate(manifest):
        node = manifest
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value(node[keys[-1]]) if callable(value) else value

    return mutate


def _relabel(name, dtype):
    """Give tensor name another dtype of the same item size."""

    def mutate(manifest):
        next(t for t in manifest["tensors"] if t["name"] == name)["dtype"] = dtype

    return mutate


# Stage 1 is block1.conv2 (pointwise), stage 4 block2.conv2, stage 5 block2.conv3,
# whose residual comes from stage 3.
GEOMETRY = {
    "kernel-1-to-2": _set("arch", "stages", 1, "kernel", value=2),
    "channels": _set("arch", "stages", 4, "channels", value=lambda c: c + 1),
    "residual-forward": _set("arch", "stages", 5, "residual_from", value=9),
    "residual-not-captured": _set("arch", "stages", 5, "residual_from", value=4),
    "chunk-size": _set("arch", "chunk_size", value=3),
    "later-stride": _set("arch", "stages", 2, "stride", value=2),
    "kernel-fraction": _set("arch", "stages", 0, "kernel", value=3.5),
}


@pytest.mark.parametrize("kind", ["linearized", "quantized"])
@pytest.mark.parametrize("mutation", sorted(GEOMETRY))
def test_stage_geometry_is_checked_at_load(tmp_path, kind, mutation):
    path = _save(tmp_path, kind)
    load_model(path)
    _rewrite(path, GEOMETRY[mutation])
    with pytest.raises(ManifestError):
        load_model(path)


def test_int8_input_params_must_match_first_stage(tmp_path):
    path = _save(tmp_path, "quantized")
    _rewrite(path, _set("arch", "input_params", "zero_point", value=lambda z: z + 1))
    with pytest.raises(ManifestError):
        load_model(path)


# The loader reads no input_params: the first stage's in_params are the
# input's, and saving the rebuilt model writes them back as input_params.
INPUT_PARAMS = {
    "deleted": lambda manifest: manifest["arch"].pop("input_params"),
    "extra-key": _set("arch", "input_params", value=lambda p: {**p, "bits": 8}),
    "list": _set("arch", "input_params", value=lambda p: [p["scale"], p["zero_point"]]),
}


@pytest.mark.parametrize("case", sorted(INPUT_PARAMS))
def test_int8_input_params_that_saving_would_not_write_fail_the_round_trip(tmp_path, case):
    path = _save(tmp_path, "quantized")
    load_model(path)
    _rewrite(path, INPUT_PARAMS[case])
    with pytest.raises(ManifestError, match="arch entries differ"):
        load_model(path)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [1e300, 1.5, -1, True])
def test_shape_entries_must_be_non_negative_integers(tmp_path, entry):
    """Checked before any size arithmetic, which warns or overflows on them."""
    path = _save(tmp_path, "linearized")
    _rewrite(path, _set("tensors", 0, "shape", 0, value=entry))
    with pytest.raises(ManifestError, match="not of non-negative integers"):
        load_model(path)


MALFORMED = {
    "keyword-out-of-range": ("lico", _set("decoder", "keyword_ids", value=[1, 40])),
    "blocks-not-a-list": ("lico", _set("arch", "blocks", value=5)),
    "block-stride-text": ("lico", _set("arch", "blocks", 0, "stride", value="2")),
    "mlp-frames": ("mlp", _set("arch", "input_frames", value=5)),
    "mlp-hidden-not-a-list": ("mlp", _set("arch", "hidden", value=None)),
    "stages-not-a-list": ("linearized", _set("arch", "stages", value=7)),
    "activation": ("quantized", _set("arch", "classifier", "activation", value="tanh")),
    "scale": ("quantized", _set("arch", "stages", 0, "out_params", "scale", value=-1.0)),
    "scale-bool": ("quantized", _set("arch", "classifier", "weight_params", "scale", value=True)),
    "scale-text": ("quantized", _set("arch", "stages", 2, "weight_params", "scale", value=str)),
    "zero-point-float": ("quantized", _set("arch", "input_params", "zero_point", value=float)),
    "zero-point-text": (
        "quantized", _set("arch", "stages", 0, "out_params", "zero_point", value=str)
    ),
    "zero-point-bool": (
        "quantized", _set("arch", "stages", 1, "weight_params", "zero_point", value=bool)
    ),
    # Stage j's in_params must be stage j - 1's out_params.
    "chain-zero-point": (
        "quantized", _set("arch", "stages", 2, "in_params", "zero_point", value=lambda z: z + 1)
    ),
    "chain-scale": (
        "quantized", _set("arch", "classifier", "in_params", "scale", value=lambda s: 2 * s)
    ),
    "first-stride-fraction": ("mlp", _set("first_stride", value=1.5)),
    "window-fraction": ("lico", _set("decoder", "window_steps", value=36.5)),
    "frontend-hop-under-a-sample": ("lico", _set("frontend", "hop_ms", value=0.02)),
    # Numbers past the float range, or NaN, that once loaded and failed at a step.
    "frontend-window-inf": ("lico", _set("frontend", "window_ms", value=math.inf)),
    "frontend-window-1e308": ("lico", _set("frontend", "window_ms", value=1e308)),
    "frontend-window-10-to-400": ("lico", _set("frontend", "window_ms", value=10**400)),
    "frontend-window-nan": ("lico", _set("frontend", "window_ms", value=math.nan)),
    "frontend-window-and-hop-inf": (
        "lico", lambda m: m["frontend"].update(window_ms=math.inf, hop_ms=math.inf)
    ),
    "frontend-rate-times-int-hop-past-the-bound": ("lico", lambda m: m["frontend"].update(
        sample_rate=7205759403792793 * 2**969 + -(-(2**969) // 5), window_ms=5.0, hop_ms=5
    )),
    "frontend-rate-10-to-400": ("lico", _set("frontend", "sample_rate", value=10**400)),
    "frontend-rate-minus-10-to-400": ("lico", _set("frontend", "sample_rate", value=-(10**400))),
    "frontend-log-floor-10-to-400": ("lico", _set("frontend", "log_floor", value=10**400)),
    "decoder-threshold-10-to-400": ("lico", _set("decoder", "threshold", value=10**400)),
    # Every filter edge rounds to 0 Hz, so the mel bank would divide by zero.
    "frontend-mel-range-collapses": ("lico", _set("frontend", "fmax", value=1e-300)),
    # An arch or tensor entry that the tensors do not bear out.
    "lico-width": ("lico", _set("arch", "blocks", 0, "width", value=lambda w: w + 1)),
    "lico-expansion": ("lico", _set("arch", "blocks", 1, "expansion", value=lambda e: e + 1)),
    "lico-kernel": ("lico", _set("arch", "blocks", 0, "kernel", value=lambda k: k - 1)),
    "lico-classes": ("lico", _set("arch", "n_classes", value=lambda n: n + 1)),
    "mlp-classes": ("mlp", _set("arch", "n_classes", value=lambda n: n + 1)),
    "mlp-hidden": ("mlp", _set("arch", "hidden", 0, value=lambda h: h + 1)),
    # Equal in JSON value but not in type: 1 is not true, nor 3.0 3.
    "residual-int": ("lico", _set("arch", "blocks", 1, "residual", value=1)),
    "captures-input-int": ("linearized", _set("arch", "stages", 3, "captures_input", value=1)),
    "lico-features-float": ("lico", _set("arch", "input_features", value=float)),
    "lico-width-float": ("lico", _set("arch", "blocks", 0, "width", value=float)),
    "chunk-size-float": ("quantized", _set("arch", "chunk_size", value=float)),
    "extra-tensor": ("linearized", _set("tensors", value=lambda t: t + [
        {"name": "extra.weight", "dtype": "f32", "shape": [0], "byte_len": 0}
    ])),
    "norm-mean-as-i32": ("lico", _relabel("frontend.norm_mean", "i32")),
    "int8-bias-as-f32": ("quantized", _relabel("classifier.bias", "f32")),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_manifest_fails_in_load_and_cli(tmp_path, capsys, case):
    kind, mutate = MALFORMED[case]
    path = _save(tmp_path, kind)
    _rewrite(path, mutate)
    with pytest.raises(ManifestError):
        load_model(path)
    assert cli_main(["info", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _manifest_byte(value):
    """Put value in place of the manifest's opening brace, at byte 10."""
    return lambda raw: raw[:10] + value + raw[11:]


# Damage to the header, the manifest's bytes or the blob section.
DAMAGED = {
    "empty": (lambda raw: b"", TruncatedError),
    "nine-bytes": (lambda raw: raw[:9], TruncatedError),
    "magic": (lambda raw: b"LCN2" + raw[4:], BadMagicError),
    "version-2": (lambda raw: raw[:4] + struct.pack("<H", 2) + raw[6:], VersionError),
    "manifest-past-end": (
        lambda raw: raw[:6] + struct.pack("<I", len(raw)) + raw[10:], TruncatedError
    ),
    "manifest-byte-ff": (_manifest_byte(b"\xff"), ManifestError),
    "manifest-not-json": (_manifest_byte(b"["), ManifestError),
    "last-tensor-short": (lambda raw: raw[:-1], TruncatedError),
    "trailing-byte": (lambda raw: raw + b"\0", ManifestError),
    # Valid JSON, nested past Python's recursion limit.
    "manifest-nested-too-deep": (
        lambda raw: raw[:6] + struct.pack("<I", 200_000) + b"[" * 100_000 + b"]" * 100_000,
        ManifestError,
    ),
}


@pytest.mark.parametrize("case", sorted(DAMAGED))
def test_a_damaged_header_or_blob_fails_in_load_and_cli(tmp_path, capsys, case):
    damage, error = DAMAGED[case]
    path = _save(tmp_path, "lico")
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(error):
        load_model(path)
    assert cli_main(["info", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["run", "verify"])
def test_an_allocation_numpy_refuses_exits_1_with_one_error_line(tmp_path, capsys, command):
    """10**15 steps is past the 128 TiB address space of an x86-64 process,
    so numpy refuses the array at once, before it touches any memory: run
    on a decoder window of 10**15 steps, verify over 10**15 steps."""
    path = _save(tmp_path, "lico")
    if command == "run":
        _rewrite(path, _set("decoder", "window_steps", value=10**15))
        write_wav(tmp_path / "quiet.wav", np.zeros(1600, dtype=np.int16))
        argv = ["run", str(path), "--wav", str(tmp_path / "quiet.wav")]
    else:
        argv = ["verify", str(path), "--steps", str(10**15)]
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert out == ""


def test_an_edit_the_tensors_bear_out_still_loads(tmp_path):
    """Dropping a residual connection leaves every tensor as it is."""
    path = _save(tmp_path, "lico")
    assert load_model(path).net.blocks[1].residual
    _rewrite(path, _set("arch", "blocks", 1, "residual", value=False))
    assert not load_model(path).net.blocks[1].residual


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaf_paths(child, path + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _leaf_paths(child, path + (i,))
    if path:
        yield path


EDIT_VALUES = [0, 1, -1, 2, 3, 40, 1.5, -2.0, 1e300, None, True, "x", "relu", [], [1, 40], {}]
ENGINE = {"lico": "conv", "mlp": "conv", "linearized": "linear", "quantized": "int8"}


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(ENGINE)),
    picks=st.lists(st.integers(0, 10**6), min_size=1, max_size=2),
    value=st.sampled_from(EDIT_VALUES),
)
def test_random_manifest_edits_fail_in_load_or_run(tmp_path_factory, kind, picks, value):
    """Replace one or two manifest values: the file is rejected by
    load_model, or it primes and steps."""
    path = _save(tmp_path_factory.mktemp("fuzz"), kind)

    def mutate(manifest):
        for pick in picks:
            paths = list(_leaf_paths(manifest))
            *parents, last = paths[pick % len(paths)]
            node = manifest
            for key in parents:
                node = node[key]
            node[last] = copy.deepcopy(value)

    _rewrite(path, mutate)
    try:
        model = load_model(path)
    except ModelFileError:
        return
    engine = make_engine(model, ENGINE[model.kind])
    t, prime = model.first_stride, model.receptive_field - model.first_stride
    x = np.random.default_rng(0).normal(size=(model.net.input_features, prime + 3 * t))
    engine.prime_array(x[:, :prime])
    for j in range(3):
        engine.step_array(x[:, prime + j * t : prime + (j + 1) * t])


@pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.5])
def test_a_manifest_threshold_that_is_not_finite_and_non_negative_fails_in_load(
    tmp_path, threshold
):
    path = _save(tmp_path, "lico")
    _rewrite(path, _set("decoder", "threshold", value=threshold))
    with pytest.raises(ManifestError, match="threshold must be finite and non-negative"):
        load_model(path)


def test_a_bool_first_stride_is_refused():
    net = build_mlp(4, 3, 5, 4, 3, seed=9)
    default_model(net, first_stride=1)
    with pytest.raises(ConfigError):
        default_model(net, first_stride=True)


BOOL_EDITS = {
    "first-stride": ("mlp", [("first_stride",)]),
    "threshold": ("lico", [("decoder", "threshold")]),
    "smooth-steps": ("lico", [("decoder", "smooth_steps")]),
    "window-and-smooth-steps": ("mlp", [("decoder", "window_steps"), ("decoder", "smooth_steps")]),
    "keyword-id": ("lico", [("decoder", "keyword_ids", 0)]),
}


@pytest.mark.parametrize("case", sorted(BOOL_EDITS))
def test_a_manifest_bool_where_a_number_belongs_fails_in_load(tmp_path, case):
    kind, fields = BOOL_EDITS[case]
    path = _save(tmp_path, kind)
    for keys in fields:
        _rewrite(path, _set(*keys, value=True))
    with pytest.raises(ManifestError):
        load_model(path)


BOOL_GEOMETRY = {
    "pointwise-kernel": ("linearized", ("arch", "stages", 1, "kernel")),
    "block-stride": ("lico", ("arch", "blocks", 1, "stride")),
}


@pytest.mark.parametrize("case", sorted(BOOL_GEOMETRY))
def test_a_manifest_bool_in_stage_geometry_fails_in_load(tmp_path, case):
    """Both entries are 1 in the saved file, and true == 1 in JSON."""
    kind, keys = BOOL_GEOMETRY[case]
    path = _save(tmp_path, kind)
    _rewrite(path, _set(*keys, value=True))
    with pytest.raises(ManifestError):
        load_model(path)


def test_a_residual_source_that_no_residual_reads_fails_in_load(tmp_path):
    """captures_input is written from the residual_from entries, so a file
    may not flag a stage that no residual reads."""
    path = _save(tmp_path, "linearized")
    _rewrite(path, _set("arch", "stages", 1, "captures_input", value=True))
    with pytest.raises(ManifestError):
        load_model(path)


def test_a_frontend_that_does_not_feed_the_net_fails_in_load(tmp_path):
    """39 mel bands, with 39-long normalization tensors, for a net of 40
    input features."""
    path = tmp_path / "m.lcn"
    save_model(default_model(build_lico_net(40, 1, 4, 2, 3, 1, 3, seed=0)), path)
    load_model(path)

    def mutate(manifest):
        manifest["frontend"]["n_mels"] = 39
        for entry in manifest["tensors"][-2:]:  # norm_mean and norm_std, stored last
            entry["shape"], entry["byte_len"] = [39], 39 * 4

    _rewrite(path, mutate)
    raw = path.read_bytes()
    path.write_bytes(raw[:-320] + raw[-320:-164] + raw[-160:-4])
    with pytest.raises(ManifestError, match="mel bands"):
        load_model(path)


def test_a_model_whose_frontend_does_not_feed_its_net_is_refused():
    net = build_mlp(4, 3, 5, 4, 3, seed=9)
    assert default_model(net).frontend.n_mels == 3
    decoder = DecoderConfig.default(3, 1)
    Model(net, FrontendConfig(n_mels=3), decoder, 1)
    with pytest.raises(ConfigError, match="mel bands"):
        Model(net, FrontendConfig(), decoder, 1)


# Edits of the frontend, the decoder and the top level that saving never
# writes: a loader that compared only the arch and tensor entries took each
# one, and the first push then failed or ran on what the file stated.
WHOLE_MANIFEST = {
    "n-mels-float": ("lico", _set("frontend", "n_mels", value=float)),
    "sample-rate-fraction": ("mlp", _set("frontend", "sample_rate", value=16000.5)),
    "log-floor-negative": ("lico", _set("frontend", "log_floor", value=-1.0)),
    "log-floor-null": ("linearized", _set("frontend", "log_floor", value=None)),
    "log-floor-text": ("quantized", _set("frontend", "log_floor", value="x")),
    "hop-bool": ("mlp", _set("frontend", "hop_ms", value=True)),
    "frontend-extra-key": ("lico", _set("frontend", "dither", value=0.0)),
    "decoder-extra-key": ("linearized", _set("decoder", "language", value="en")),
    "top-level-extra-key": ("quantized", _set("comment", value="edited")),
    "top-level-null-key": ("lico", _set("comment", value=None)),
}


@pytest.mark.parametrize("case", sorted(WHOLE_MANIFEST))
def test_a_manifest_edit_outside_arch_and_tensors_fails_in_load_and_cli(tmp_path, capsys, case):
    kind, mutate = WHOLE_MANIFEST[case]
    path = _save(tmp_path, kind)
    load_model(path)
    _rewrite(path, mutate)
    with pytest.raises(ManifestError):
        load_model(path)
    assert cli_main(["info", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "keys, section",
    [(("frontend", "dither"), "frontend"), (("decoder", "language"), "decoder"),
     (("comment",), "comment")],
)
def test_the_round_trip_names_the_section_that_differs(tmp_path, keys, section):
    path = _save(tmp_path, "linearized")
    _rewrite(path, _set(*keys, value=7))
    with pytest.raises(ManifestError, match=f"^{section} entries differ from those"):
        load_model(path)


def test_a_strided_later_stage_is_named_when_the_file_loads(tmp_path, capsys):
    """Stage 1 of a linearized lico-large net is block1.conv2, pointwise."""
    net = build_lico_net(40, 5, 32, 6, 5, 3, 11, seed=1)
    path = tmp_path / "lin.lcn"
    save_model(default_model(linearize_network(net, 3)), path)
    _rewrite(path, _set("arch", "stages", 1, "stride", value=2))
    with pytest.raises(ManifestError, match="block1.conv2: stride 2 != 1"):
        load_model(path)
    assert cli_main(["info", str(path)]) == 1
    assert "block1.conv2: stride 2 != 1" in capsys.readouterr().err


def test_a_model_of_numpy_integers_saves_and_reloads_byte_identical(tmp_path):
    net = build_mlp(4, 3, 5, 4, 3, seed=0)
    model = default_model(net, first_stride=np.int64(2))
    assert model.first_stride == 2 and type(model.first_stride) is int
    assert (model.decoder.window_steps, model.decoder.smooth_steps) == (55, 5)
    first, second = tmp_path / "a.lcn", tmp_path / "b.lcn"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


# Edits whose values once passed a constructor or escaped as another error.
OUT_OF_RANGE = {
    "fmax-above-nyquist": ("lico", _set("frontend", "fmax", value=12000.0), "above half"),
    "scale-past-floats": (
        "quantized", _set("arch", "stages", 0, "weight_params", "scale", value=10**400),
        "does not fit a float",
    ),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_a_manifest_number_out_of_range_fails_in_load_and_cli(tmp_path, capsys, case):
    kind, mutate, fragment = OUT_OF_RANGE[case]
    path = _save(tmp_path, kind)
    load_model(path)
    _rewrite(path, mutate)
    with pytest.raises(ManifestError, match=fragment):
        load_model(path)
    assert cli_main(["info", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err



def test_a_manifest_integer_past_the_digit_limit_fails_in_load_and_cli(tmp_path, capsys):
    """json.loads refuses an integer of over 4,300 digits with a plain
    ValueError, which json.dumps cannot write either: the digits go in by hand."""
    path = _save(tmp_path, "mlp")
    _rewrite(path, _set("decoder", "threshold", value="NINES"))
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 6)
    payload = raw[10 : 10 + n].replace(b'"NINES"', b"9" * 5000)
    path.write_bytes(raw[:6] + struct.pack("<I", len(payload)) + payload + raw[10 + n :])
    with pytest.raises(ManifestError, match="4300 digits"):
        load_model(path)
    assert cli_main(["info", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "damage, says_json",
    [(lambda raw: raw.replace(b'"NINES"', b"9" * 5000), False),
     (_manifest_byte(b"\xff"), True),
     (_manifest_byte(b"["), True)],
    ids=["5000-digits", "byte-ff", "not-json"],
)
def test_only_a_manifest_that_is_not_json_is_reported_as_not_json(tmp_path, damage, says_json):
    """An integer past Python's digit limit is valid JSON: its error keeps
    Python's text under a message of its own."""
    path = _save(tmp_path, "mlp")
    _rewrite(path, _set("decoder", "threshold", value="NINES"))
    raw = path.read_bytes()
    (n,) = struct.unpack_from("<I", raw, 6)
    payload = damage(raw[: 10 + n])[10:]
    path.write_bytes(raw[:6] + struct.pack("<I", len(payload)) + payload + raw[10 + n :])
    with pytest.raises(ManifestError) as err:
        load_model(path)
    assert ("manifest is not valid JSON" in str(err.value)) == says_json
    assert ("4300 digits" in str(err.value)) != says_json


@pytest.mark.parametrize("shape", [lambda c, d: [c * d], lambda c, d: [c, d, 1]], ids=["1d", "3d"])
def test_a_lico_classifier_weight_of_another_rank_fails_in_load_and_cli(tmp_path, capsys, shape):
    """A LiCo classifier is stored dense, (C, D); a 1-D one once escaped as IndexError."""

    def mutate(manifest):
        entry = next(t for t in manifest["tensors"] if t["name"] == "classifier.weight")
        entry["shape"] = shape(*entry["shape"])

    path = _save(tmp_path, "lico")
    _rewrite(path, mutate)
    with pytest.raises(ManifestError):
        load_model(path)
    assert cli_main(["info", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_a_first_stride_that_conflicts_with_the_first_layer_is_refused(tmp_path):
    path = tmp_path / "lico-small-s1.lcn"
    assert cli_main(["init", "--arch", "lico", "--preset", "small", "--out", str(path)]) == 0
    _rewrite(path, _set("first_stride", value=3))
    with pytest.raises(ManifestError, match="conflicts with first-layer stride 1"):
        load_model(path)
    with pytest.raises(ConfigError, match="conflicts with first-layer stride 1"):
        default_model(build_lico_net(3, 2, 3, 2, 3, 1, 3, seed=8), first_stride=3)


@pytest.mark.parametrize("stride", [0, 1.5, 2.0])
@pytest.mark.parametrize("arch", ["lico", "mlp"])
def test_default_model_refuses_a_bad_stride_before_dividing_by_it(arch, stride):
    """The decoder's lengths are divided by the stride, so the stride is
    checked first, by the check Model runs: stride 0 is no ZeroDivisionError
    and 1.5 no complaint about decoder lengths."""
    net = build_lico_net(3, 1, 4, 2, 3, 1, 3, seed=0) if arch == "lico" else build_mlp(
        4, 3, 5, 4, 3, seed=9)
    with pytest.raises(ConfigError) as exc:
        default_model(net, first_stride=stride)
    assert str(exc.value) == f"first stride must be an integer >= 1, got {stride!r}"


def _held_arrays(obj, seen):
    """Every array reachable from obj through its fields and containers."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from _held_arrays(item, seen)
    elif hasattr(obj, "__dict__"):
        yield from _held_arrays(vars(obj), seen)


@pytest.mark.parametrize("kind", ["lico", "mlp", "linearized", "quantized"])
def test_no_array_a_loaded_model_holds_is_a_view_of_the_file(tmp_path, kind):
    """Each array owns its memory or views one that does: none keeps the
    bytes load_model read alive, or reads them."""
    model = load_model(_save(tmp_path, kind))
    arrays = list(_held_arrays(model, set()))
    assert len(arrays) >= 2 * len(model.stages) + 2  # weights and biases, norm mean and std
    for arr in arrays:
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        assert arr.base is None, f"an array of shape {arr.shape} views a {type(arr.base)}"
