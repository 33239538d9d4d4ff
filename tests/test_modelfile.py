"""Model files whose manifest was edited after saving: every such file must
fail inside load_model with a ModelFileError, never later at a step."""

import copy
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liconet.cli import main as cli_main
from liconet.errors import ManifestError, ModelFileError
from liconet.linearize import linearize_network
from liconet.model import build_lico_net, build_mlp
from liconet.modelfile import default_model, load_model, save_model
from liconet.quantize import calibrate_activations, quantize_network
from liconet.runtime import make_engine
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
