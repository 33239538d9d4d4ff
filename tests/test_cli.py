"""Command-line tests: init followed by verify on models whose first kernel
is shorter than their first stride."""

import hashlib

import numpy as np
import pytest

from liconet.cli import main as cli_main


@pytest.mark.parametrize(
    "arch, stride",
    [("lico", 5), ("mlp", 25)],  # small presets: K1 = 4 and a 21-frame window
)
def test_verify_passes_when_first_kernel_is_shorter_than_stride(tmp_path, capsys, arch, stride):
    path = str(tmp_path / "model.lcn")
    assert cli_main(["init", "--arch", arch, "--preset", "small",
                     "--stride", str(stride), "--out", path]) == 0
    assert cli_main(["verify", path, "--steps", "100"]) == 0
    out, err = capsys.readouterr()
    assert "FAIL" not in out
    assert "error:" not in err
    assert out.count(" ok") == 3


def test_quantize_with_calibration_shorter_than_one_step_exits_1(tmp_path, capsys):
    import numpy as np

    from liconet.runtime import write_wav

    model, wav = str(tmp_path / "model.lcn"), str(tmp_path / "short.wav")
    assert cli_main(["init", "--arch", "lico", "--preset", "small",
                     "--stride", "3", "--out", model]) == 0
    write_wav(wav, np.zeros(400, dtype=np.int16))  # one 25 ms frame, a step needs 3
    capsys.readouterr()
    assert cli_main(["quantize", model, "--calib", wav, "--out", str(tmp_path / "q.lcn")]) == 1
    assert capsys.readouterr().err.startswith("error: calibration stream has")


def _four_kinds(tmp_path):
    """kind -> (file path, stored stride, number of stages) for every model kind."""
    import numpy as np

    from liconet.linearize import linearize_network
    from liconet.model import build_lico_net, build_mlp
    from liconet.modelfile import default_model, save_model
    from liconet.quantize import calibrate_activations, quantize_network
    from liconet.tensor import Tensor2D

    lico = build_lico_net(3, 2, 3, 2, 3, 2, 3, seed=8)
    lnet = linearize_network(lico, 2)
    qnet = quantize_network(
        lnet, calibrate_activations(lnet, Tensor2D(np.random.default_rng(1).normal(size=(3, 60))))
    )
    models = {
        "lico": default_model(lico),
        "mlp": default_model(build_mlp(4, 3, 5, 4, 3, seed=9), first_stride=2),
        "linearized": default_model(lnet),
        "quantized": default_model(qnet),
    }
    files = {}
    for kind, model in models.items():
        path = tmp_path / f"{kind}.lcn"
        save_model(model, path)
        files[kind] = (str(path), 2, len(model.stages))
    return files


def test_info_and_check_on_every_kind(tmp_path, capsys):
    for kind, (path, stride, n_stages) in _four_kinds(tmp_path).items():
        capsys.readouterr()
        assert cli_main(["info", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"kind {kind}, stride {stride}"
        assert "n/a" not in lines[1]
        header = next(i for i, line in enumerate(lines) if line.startswith("layer"))
        rows = lines[header + 1 :]
        assert len(rows) == n_stages == (3 if kind == "mlp" else 7)
        assert rows[-1].startswith("classifier")

        assert cli_main(["check", path, "--chunk", str(stride)]) == 0
        assert capsys.readouterr().out.startswith("compliant")
        for chunk in (1, 3):
            expected = 0 if kind == "mlp" else 1
            assert cli_main(["check", path, "--chunk", str(chunk)]) == expected
            assert capsys.readouterr().out.startswith(
                "compliant" if expected == 0 else "not linearizable:"
            )


def test_info_on_a_non_linearizable_float_model(tmp_path, capsys):
    from liconet.model import LiCoNet, build_lico_block, build_lico_net
    from liconet.modelfile import default_model, save_model

    net = build_lico_net(6, 3, 8, 2, 3, 1, 4, seed=0)
    bad = LiCoNet(6, (net.blocks[0], build_lico_block(8, 8, 2, 3, 2, 0), net.blocks[2]),
                  net.classifier)
    path = str(tmp_path / "bad.lcn")
    save_model(default_model(bad), path)
    assert cli_main(["info", path]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == ""
    assert lines[1] == "params 1428, macs n/a (not linearizable: block2.conv1: stride 2 != 1)"
    assert lines[2] == "receptive field 9 frames"
    assert len(lines) == 4 + 10
    assert lines[7].split()[:3] == ["block2.conv1", "8x8x3", "2"]


def test_verify_steps_the_saved_linearized_pipeline(tmp_path, capsys, monkeypatch):
    """A linearized pipeline whose classifier bias drifts by 1e-3 on its
    way to the file must fail the "linearized vs streaming" line."""
    from liconet import cli
    from liconet.linearize import linearize_network
    from liconet.model import LinearLayer

    def drifting_linearize(net, t):
        lnet = linearize_network(net, t)
        last = lnet.stages[-1]
        last.op = LinearLayer(last.op.weights, last.op.bias + 1e-3, last.op.activation)
        return lnet

    path = str(tmp_path / "model.lcn")
    assert cli_main(["init", "--arch", "lico", "--preset", "small",
                     "--stride", "3", "--out", path]) == 0
    monkeypatch.setattr(cli, "linearize_network", drifting_linearize)
    capsys.readouterr()
    assert cli_main(["verify", path, "--steps", "20"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(" ok") and lines[0].startswith("streaming vs batch")
    assert lines[1].startswith("linearized vs streaming: max deviation 1.000e-03")
    assert lines[1].endswith(" FAIL")


def _with_biases(net):
    """The net with N(0, 0.1) biases in place of the zeros `init` writes."""
    from liconet.conv import Conv1DLayer
    from liconet.model import LiCoNet, MlpNet, lico_block, mlp_net

    rng = np.random.default_rng(0)

    def biased(layers):
        return [(layer.weights, rng.normal(0.0, 0.1, layer.bias.shape)) for layer in layers]

    if isinstance(net, MlpNet):
        return mlp_net(net.input_frames, net.input_features, biased([*net.hidden, net.classifier]))
    blocks = [lico_block(biased(b.layers), b.stride, b.residual) for b in net.blocks]
    (w, b), = biased([net.classifier])
    return LiCoNet(net.input_features, tuple(blocks), Conv1DLayer(w, b))


@pytest.mark.parametrize(
    "arch, stride", [("lico", 1), ("lico", 3), ("mlp", 3)], ids=["lico-s1", "lico-s3", "mlp-s3"]
)
def test_verify_passes_on_a_net_with_nonzero_biases(tmp_path, capsys, arch, stride):
    """verify starts every stream as run_stream does, primed on real frames,
    so a stage that maps zero input to nonzero output (a bias) still gives
    the batch pass over the same frames."""
    from liconet.model import build_lico_net, build_mlp
    from liconet.modelfile import default_model, save_model

    if arch == "lico":
        net = build_lico_net(40, 3, 8, 2, 3, stride, 5, seed=1)
    else:
        net = build_mlp(5, 40, 16, 24, 4, seed=1)
    path = str(tmp_path / "model.lcn")
    save_model(default_model(_with_biases(net), first_stride=stride), path)
    assert cli_main(["verify", path, "--steps", "50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = ["streaming vs batch", "linearized vs streaming", "int8 mean posterior drift"]
    assert [line.split(":")[0] for line in lines] == names
    assert all(line.endswith(" ok") for line in lines)


def _riff_prefix(n):
    """The first n bytes of a valid 16 kHz mono PCM16 WAV file."""
    import io
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(bytes(200))
    return buf.getvalue()[:n]


@pytest.mark.parametrize(
    "content",
    [b"not a wav file " * 10, b"", _riff_prefix(12), _riff_prefix(20)],
    ids=["not-riff", "empty", "no-chunks", "truncated-header"],
)
def test_run_and_quantize_reject_a_malformed_wav_without_a_traceback(tmp_path, capsys, content):
    model, wav = str(tmp_path / "model.lcn"), tmp_path / "bad.wav"
    wav.write_bytes(content)
    assert cli_main(["init", "--arch", "mlp", "--preset", "small", "--out", model]) == 0
    for argv in (["run", model, "--wav", str(wav)],
                 ["quantize", model, "--calib", str(wav), "--out", str(tmp_path / "q.lcn")]):
        capsys.readouterr()
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {wav} is not a WAV file: ")


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_verify_rejects_fewer_than_one_step_as_a_usage_error(tmp_path, capsys, steps):
    path = str(tmp_path / "model.lcn")
    assert cli_main(["init", "--arch", "mlp", "--preset", "small", "--out", path]) == 0
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", path, "--steps", steps])
    assert exc.value.code == 2
    assert "--steps: " in capsys.readouterr().err


@pytest.mark.parametrize("n_bytes", [45, 46, 1043], ids=["mid-sample", "one-sample", "half-data"])
def test_run_and_quantize_reject_a_wav_whose_data_chunk_ends_early(tmp_path, capsys, n_bytes):
    """The first n bytes of a 1,000-sample file whose header is 44 bytes."""
    import numpy as np

    from liconet.runtime import write_wav

    model, wav = str(tmp_path / "model.lcn"), tmp_path / "cut.wav"
    write_wav(wav, np.zeros(1000, dtype=np.int16))
    assert len(wav.read_bytes()) == 44 + 2000
    wav.write_bytes(wav.read_bytes()[:n_bytes])
    assert cli_main(["init", "--arch", "mlp", "--preset", "small", "--out", model]) == 0
    for argv in (["run", model, "--wav", str(wav)],
                 ["quantize", model, "--calib", str(wav), "--out", str(tmp_path / "q.lcn")]):
        capsys.readouterr()
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {wav} is truncated: its data chunk declares 2000 bytes, "
            f"holds {n_bytes - 44}\n"
        )


def _wav_bytes(channels, width, rate):
    """A 200-frame PCM WAV file of the given layout."""
    import io
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as w:
        w.setnchannels(channels)
        w.setsampwidth(width)
        w.setframerate(rate)
        w.writeframes(bytes(200 * channels * width))
    return buf.getvalue()


@pytest.mark.parametrize(
    "layout, message",
    [
        ((2, 2, 16000), "need mono audio, got 2 channels"),
        ((1, 1, 16000), "need 16-bit PCM, got 8-bit"),
        ((1, 2, 8000), "need 16000 Hz audio, got 8000 Hz (no resampling)"),
    ],
    ids=["stereo", "8-bit", "8-kHz"],
)
def test_run_and_quantize_name_the_wav_whose_format_they_reject(tmp_path, capsys, layout, message):
    model, wav = str(tmp_path / "model.lcn"), tmp_path / "other.wav"
    wav.write_bytes(_wav_bytes(*layout))
    assert cli_main(["init", "--arch", "mlp", "--preset", "small", "--out", model]) == 0
    for argv in (["run", model, "--wav", str(wav)],
                 ["quantize", model, "--calib", str(wav), "--out", str(tmp_path / "q.lcn")]):
        capsys.readouterr()
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"error: {wav}: {message}\n"


@pytest.mark.parametrize("threshold", ["nan", "inf", "-0.5"])
def test_run_rejects_a_threshold_that_is_not_finite_and_non_negative(tmp_path, capsys, threshold):
    """A NaN threshold would never be crossed, so no event could fire."""
    import numpy as np

    from liconet.runtime import write_wav

    model, wav = str(tmp_path / "model.lcn"), str(tmp_path / "quiet.wav")
    assert cli_main(["init", "--arch", "lico", "--preset", "small",
                     "--stride", "3", "--out", model]) == 0
    write_wav(wav, np.zeros(16000, dtype=np.int16))
    capsys.readouterr()
    assert cli_main(["run", model, "--wav", wav, "--threshold", threshold]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: threshold must be finite and non-negative")
    assert "Traceback" not in out + err


def test_linearize_quantize_and_verify_name_the_kind_they_refuse(tmp_path, capsys):
    """Each command takes the model kinds of the engine it builds; any
    other kind exits 1 with one error line and writes no file."""
    from liconet.runtime import write_wav

    files = _four_kinds(tmp_path)
    wav = str(tmp_path / "calib.wav")
    write_wav(wav, np.random.default_rng(3).uniform(-0.5, 0.5, 4000))
    out = tmp_path / "out.lcn"
    commands = {
        "linearize": (["--out", str(out)], ("linearized", "quantized")),
        "quantize": (["--calib", wav, "--out", str(out)], ("quantized",)),
        "verify": (["--steps", "5"], ("linearized", "quantized")),
    }
    for command, (options, refused) in commands.items():
        for kind in refused:
            capsys.readouterr()
            assert cli_main([command, files[kind][0], *options]) == 1
            stdout, err = capsys.readouterr()
            assert stdout == "" and not out.exists()
            assert err.startswith("error: ") and err.endswith(f"file holds {kind!r}\n")
            assert err.count("\n") == 1


@pytest.mark.parametrize("engine", ["conv", "linear", "int8"])
def test_run_prints_the_posteriors_and_events_of_run_stream(tmp_path, capsys, engine):
    """`run --posteriors` writes one line per step, the step and its
    probabilities to 6 decimals, and prints run_stream's events."""
    from liconet.modelfile import load_model
    from liconet.runtime import read_wav, run_stream, write_wav

    model, wav = str(tmp_path / "model.lcn"), str(tmp_path / "noise.wav")
    write_wav(wav, np.random.default_rng(4).uniform(-0.5, 0.5, 24000))
    assert cli_main(["init", "--arch", "lico", "--preset", "small", "--stride", "3",
                     "--seed", "1", "--out", model]) == 0
    if engine == "int8":
        quantized = str(tmp_path / "int8.lcn")
        capsys.readouterr()
        assert cli_main(["quantize", model, "--calib", wav, "--out", quantized]) == 0
        assert capsys.readouterr().out == (
            f"wrote int8 pipeline calibrated on 148 frames to {quantized}\n"
        )
        model = quantized
    pcm = read_wav(wav)
    scores = [res.score for res in run_stream(load_model(model), [pcm], engine=engine)]
    threshold = float(np.median(scores))
    results = list(run_stream(load_model(model), [pcm], engine=engine, threshold=threshold))
    events = [f"t={r.time_s:.3f} score={r.event.score:.4f}" for r in results if r.event]
    assert events

    dump = tmp_path / "posteriors.txt"
    capsys.readouterr()
    assert cli_main(["run", model, "--wav", wav, "--engine", engine,
                     "--threshold", repr(threshold), "--posteriors", str(dump)]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.splitlines() == events
    lines = dump.read_text().splitlines()
    assert len(lines) == len(results) > 0
    for line, res in zip(lines, results):
        step, *probs = line.split(" ")
        assert int(step) == res.step and len(probs) == len(res.posterior.probs)
        assert probs == [f"{p:.6f}" for p in res.posterior.probs]


def test_a_wav_that_is_not_pcm_is_refused_at_open(tmp_path, capsys):
    """Format tag 3 (IEEE float): the standard library's reader refuses any
    format tag but PCM when it opens the file."""
    import struct

    from liconet.errors import InvalidInputError
    from liconet.runtime import read_wav

    data = bytes(4 * 160)
    fmt = struct.pack("<HHIIHH", 3, 1, 16000, 4 * 16000, 4, 32)
    body = b"WAVEfmt " + struct.pack("<I", len(fmt)) + fmt + b"data"
    body += struct.pack("<I", len(data)) + data
    wav = tmp_path / "float.wav"
    wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(InvalidInputError, match="is not a WAV file: unknown format: 3"):
        read_wav(wav)
    model = str(tmp_path / "model.lcn")
    assert cli_main(["init", "--arch", "mlp", "--preset", "small", "--out", model]) == 0
    capsys.readouterr()
    assert cli_main(["run", model, "--wav", str(wav)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# The files `init --seed 1` writes: each pins one preset's draw order.
INIT_SHA256 = {
    ("lico", "large", 1): "afa6a3c6396e5586d5aa6c99882b843b1852d8c203b550e25daaf424744d0776",
    ("lico", "large", 3): "584b7a1614aee6d5b3398c79e4b3e86fb1067c6687eebea08fad7469e431d077",
    ("lico", "small", 1): "9057e2449c1b75c5e356796f5454524bf7031f1b80c09d81e1cdb3271041dfe5",
    ("lico", "small", 3): "a04bcfb364aa29d6c66c5db018ff1353436141a01a637e0f7e9fbe2dc9802a0b",
    ("mlp", "large", 1): "28b655394a1fb20e78836821e953b9e622be38dc484df6758289e4151a8bacac",
    ("mlp", "large", 3): "ebcc62029379fdd709e476ceb475229283fecc28faac93b723edaaf15aef6e3e",
    ("mlp", "small", 1): "3e9eab9aca73535ef4d329a45ff658e2b03e69fae380d70135230c967ce47222",
    ("mlp", "small", 3): "016fcd6f3c7c190224f432728e052f9aa9adea5f485c0aa7ef62030598be9be9",
}


@pytest.mark.parametrize("arch, preset, stride", sorted(INIT_SHA256))
def test_init_writes_the_golden_file_of_every_preset(tmp_path, arch, preset, stride):
    path = tmp_path / "model.lcn"
    argv = ["init", "--arch", arch, "--preset", preset, "--stride", str(stride), "--seed", "1"]
    assert cli_main(argv + ["--out", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == INIT_SHA256[arch, preset, stride]


@pytest.mark.parametrize(
    "arch, message",
    [("mlp", "first stride must be an integer >= 1, got 0"),
     ("lico", "stride must be an integer >= 1, got 0")],  # refused by the first conv
)
def test_init_at_stride_0_exits_1_with_one_error_line(tmp_path, capsys, arch, message):
    path = tmp_path / "model.lcn"
    argv = ["init", "--arch", arch, "--preset", "small", "--stride", "0", "--out", str(path)]
    assert cli_main(argv) == 1
    out, err = capsys.readouterr()
    assert err == f"error: {message}\n"
    assert out == "" and not path.exists()


def _bias_past_int32(tmp_path):
    """mlp-small (seed 1) with layer1's weights scaled by 1e-6 and its biases
    set to 5.0, and a calibration WAV on which layer1's bias codes would be
    about 7.5e11; as (model, wav)."""
    from liconet.cli import MLP_PRESETS
    from liconet.model import build_mlp, mlp_net
    from liconet.modelfile import default_model, save_model
    from liconet.runtime import write_wav

    net = build_mlp(**MLP_PRESETS["small"], seed=1)
    first, *rest = net.hidden + (net.classifier,)
    layers = [(first.weights * 1e-6, np.full(first.out_dim, 5.0))]
    layers += [(layer.weights, layer.bias) for layer in rest]
    model, wav = tmp_path / "model.lcn", tmp_path / "calib.wav"
    save_model(default_model(mlp_net(net.input_frames, net.input_features, layers)), model)
    write_wav(wav, np.random.default_rng(0).uniform(-0.5, 0.5, 16000))
    return str(model), str(wav)


def test_quantize_network_refuses_a_bias_past_int32(tmp_path):
    from liconet.errors import ConfigError
    from liconet.frontend import FeatureStream
    from liconet.modelfile import load_model
    from liconet.quantize import calibrate_activations, quantize_network
    from liconet.runtime import make_engine, read_wav
    from liconet.tensor import Tensor2D

    path, wav = _bias_past_int32(tmp_path)
    model = load_model(path)
    lnet = make_engine(model, "linear")
    features = Tensor2D(FeatureStream(model.frontend).push(read_wav(wav)))
    with pytest.raises(ConfigError, match=r"bias must be whole int32 codes in \[-2147483648, "):
        quantize_network(lnet, calibrate_activations(lnet, features))


def test_quantize_of_a_bias_past_int32_exits_1_with_one_error_line(tmp_path, capsys):
    model, wav = _bias_past_int32(tmp_path)
    out = tmp_path / "q.lcn"
    assert cli_main(["quantize", model, "--calib", wav, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: bias must be whole int32 codes in [-2147483648, 2147483647]\n"
    assert not out.exists()
