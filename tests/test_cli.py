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
