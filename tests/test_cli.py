import json
import math
import subprocess
import sys
import time

import pytest

from cvgauss.cli import main


@pytest.fixture
def coherent_file(tmp_path):
    path = tmp_path / "coherent.json"
    path.write_text(json.dumps(
        {"kind": "dsts", "nbar": 0.0, "r": 0.0, "phi": 0.0, "alpha": [0.5, 0.0]}))
    return str(path)


@pytest.fixture
def vacuum_file(tmp_path):
    path = tmp_path / "vacuum.json"
    path.write_text(json.dumps(
        {"kind": "dsts", "nbar": 0.0, "r": 0.0, "phi": 0.0, "alpha": [0.0, 0.0]}))
    return str(path)


@pytest.fixture
def pure_sts_file(tmp_path):
    path = tmp_path / "sts.json"
    path.write_text(json.dumps(
        {"kind": "sts2", "nbar1": 0.0, "nbar2": 0.0, "r": 1.0, "phi": 0.0}))
    return str(path)


def test_info_vacuum(vacuum_file, capsys):
    assert main(["info", "--state", vacuum_file]) == 0
    out = capsys.readouterr().out
    assert "classical" in out
    assert "r_c = 0" in out
    assert "Q0 = 0" in out


def test_info_thermal_covariance(tmp_path, capsys):
    path = tmp_path / "thermal.json"
    path.write_text(json.dumps(
        {"kind": "dsts", "nbar": 1.0, "r": 0.0, "phi": 0.0, "alpha": [0.0, 0.0]}))
    assert main(["info", "--state", str(path)]) == 0
    out = capsys.readouterr().out
    assert "[[1.5, 0], [0, 1.5]]" in out


def test_info_sts_invariants(pure_sts_file, capsys):
    assert main(["info", "--state", pure_sts_file]) == 0
    out = capsys.readouterr().out
    assert "det V1" in out and "entangled" in out
    assert "0.351945726336" in out


def test_fidelity_identical_states(coherent_file, capsys):
    assert main(["fidelity", "--state", coherent_file, "--state2", coherent_file]) == 0
    assert "fidelity = 1" in capsys.readouterr().out


def test_fidelity_coherent_pair(tmp_path, coherent_file, vacuum_file, capsys):
    assert main(["fidelity", "--state", coherent_file, "--state2", vacuum_file]) == 0
    out = capsys.readouterr().out
    value = float(out.strip().split("=")[1])
    assert value == pytest.approx(math.exp(-0.25), abs=1e-12)


def test_fidelity_oracle_flag(coherent_file, vacuum_file, capsys):
    assert main(["fidelity", "--state", coherent_file, "--state2", vacuum_file,
                 "--oracle", "--dim", "60"]) == 0
    out = capsys.readouterr().out
    assert "oracle" in out
    delta = float([line for line in out.splitlines() if "delta" in line][0].split("=")[1])
    assert delta <= 1e-6


def test_fidelity_mixed_kinds_rejected(coherent_file, pure_sts_file, capsys):
    assert main(["fidelity", "--state", coherent_file, "--state2", pure_sts_file]) == 2
    assert "error" in capsys.readouterr().err


def test_entangle_pure_sts(pure_sts_file, capsys):
    assert main(["entangle", "--state", pure_sts_file]) == 0
    out = capsys.readouterr().out
    assert "entangled" in out
    assert "E0 = 0.351945726336" in out


def test_entangle_separable(tmp_path, capsys):
    path = tmp_path / "warm.json"
    path.write_text(json.dumps(
        {"kind": "sts2", "nbar1": 1.0, "nbar2": 1.0, "r": 0.5, "phi": 0.0}))
    assert main(["entangle", "--state", str(path)]) == 0
    out = capsys.readouterr().out
    assert "separable" in out and "E0 = 0" in out


def test_teleport_coherent_unit_noise(coherent_file, capsys):
    # resource at its separability threshold: z = 1, so F = 1/2
    assert main(["teleport", "--state", coherent_file, "--nbar", "0", "--r", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    state = json.loads(out[0])
    assert state["kind"] == "dsts"
    assert state["alpha"] == [0.5, 0.0]
    assert state["nbar"] == pytest.approx(math.sqrt(0.25 + 1.0 + 1.0) - 0.5, abs=1e-12)
    assert "fidelity = 0.5" in out[1]


def test_teleport_strong_resource_echoes_input(coherent_file, capsys):
    assert main(["teleport", "--state", coherent_file, "--nbar", "0", "--r", "16"]) == 0
    out = capsys.readouterr().out.splitlines()
    state = json.loads(out[0])
    assert state["nbar"] == pytest.approx(0.0, abs=1e-12)
    assert state["alpha"] == [0.5, 0.0]
    assert float(out[1].split("=")[1]) == pytest.approx(1.0, abs=1e-12)


def test_sweep_fig1_files_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["sweep", "fig1", "--out", str(out1), "--points", "11"]) == 0
    assert main(["sweep", "fig1", "--out", str(out2), "--points", "11"]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["fig1_nbar_0.1.csv", "fig1_nbar_0.5.csv",
                     "fig1_nbar_0.csv", "fig1_nbar_5.csv"]
    for name in names:
        a = (out1 / name).read_bytes()
        b = (out2 / name).read_bytes()
        assert a == b
        assert len(a.decode().strip().split("\n")) == 12


def test_sweep_fig2_default_curves(tmp_path, capsys):
    assert main(["sweep", "fig2", "--out", str(tmp_path / "f2"), "--points", "9"]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in (tmp_path / "f2").iterdir())
    assert names == ["fig2_e0_0.425.csv", "fig2_e0_0.615.csv", "fig2_e0_1.csv"]


def test_sweep_custom_curve_list(tmp_path, capsys):
    assert main(["sweep", "fig2", "--out", str(tmp_path), "--points", "5",
                 "--e0", "0.9,0.2"]) == 0
    capsys.readouterr()
    assert (tmp_path / "fig2_e0_0.9.csv").exists()
    assert (tmp_path / "fig2_e0_0.2.csv").exists()


def test_sweep_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"points": 4, "out": str(tmp_path / "cfgout")}))
    assert main(["sweep", "fig1", "--config", str(cfg)]) == 0
    capsys.readouterr()
    rows = (tmp_path / "cfgout" / "fig1_nbar_0.csv").read_text().strip().split("\n")
    assert len(rows) == 5


def test_sweep_rejects_tiny_grid(tmp_path, capsys):
    assert main(["sweep", "fig1", "--out", str(tmp_path), "--points", "1"]) == 2


def test_missing_field_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"kind": "dsts", "nbar": 0.0, "r": 0.0, "phi": 0.0}))
    assert main(["info", "--state", str(path)]) == 2
    assert "missing field" in capsys.readouterr().err


def test_unreadable_state_is_input_error(tmp_path, capsys):
    assert main(["info", "--state", str(tmp_path / "nope.json")]) == 2


def test_invalid_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["info", "--state", str(path)]) == 2


@pytest.mark.parametrize("descriptor", [
    '{"kind": "dsts", "nbar": "abc", "r": 0.0, "phi": 0.0, "alpha": [0.0, 0.0]}',
    '{"kind": "dsts", "nbar": 0.1, "r": 0.0, "phi": 0.0, "alpha": [null, 0]}',
    '{"kind": "dsts", "nbar": 0.1, "r": 1000, "phi": 0.0, "alpha": [0.0, 0.0]}',
    '{"kind": "sts2", "nbar1": Infinity, "nbar2": 0.1, "r": 0.5, "phi": 0.0}',
], ids=["string", "null", "overflowing-r", "infinite"])
def test_malformed_number_is_input_error(tmp_path, capsys, descriptor):
    path = tmp_path / "malformed.json"
    path.write_text(descriptor)
    assert main(["info", "--state", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field") and "Traceback" not in err


def test_validate_fast_suite_passes(capsys):
    start = time.monotonic()
    assert main(["validate", "--suite", "fast"]) == 0
    assert time.monotonic() - start < 30.0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "10/10 checks passed" in out


def test_validate_breach_exit_code(capsys):
    assert main(["validate", "--suite", "fast", "--tol", "1e-30"]) == 3
    assert "FAIL" in capsys.readouterr().out


def test_validate_reports_are_deterministic(capsys):
    main(["validate", "--suite", "fast"])
    first = capsys.readouterr().out
    main(["validate", "--suite", "fast"])
    second = capsys.readouterr().out
    assert first == second


def test_module_entry_point(vacuum_file):
    proc = subprocess.run(
        [sys.executable, "-m", "cvgauss.cli", "info", "--state", vacuum_file],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "classical" in proc.stdout
