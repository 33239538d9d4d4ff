"""Command-line tests: init followed by verify on models whose first kernel
is shorter than their first stride."""

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
