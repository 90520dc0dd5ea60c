import io
import json
import math
import re
import subprocess
import sys
import tempfile
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cvgauss import DstsParams, TruncationWarning, cf_to_cov, dsts_to_cf, parse_state, validate
from cvgauss.cli import MAX_POINTS, main


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


def _resource_file(tmp_path, nbar1, nbar2, r, phi=0.0):
    path = tmp_path / "resource.json"
    path.write_text(json.dumps(
        {"kind": "sts2", "nbar1": nbar1, "nbar2": nbar2, "r": r, "phi": phi}))
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
                 "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "oracle" in out
    delta = float([line for line in out.splitlines() if "delta" in line][0].split("=")[1])
    assert delta <= 1e-6


def test_fidelity_oracle_automatic_dims_differ(tmp_path, capsys):
    # the two states pick different automatic dims; both go to the larger
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"kind": "dsts", "nbar": 0.5, "r": 1.0, "phi": 0.3, "alpha": [0.5, 0.2]}))
    b.write_text(json.dumps({"kind": "dsts", "nbar": 0.5, "r": 0.9, "phi": 0.1, "alpha": [0.3, 0.2]}))
    assert main(["fidelity", "--state", str(a), "--state2", str(b), "--oracle"]) == 0
    out = capsys.readouterr().out
    delta = float([line for line in out.splitlines() if "delta" in line][0].split("=")[1])
    assert delta <= 1e-7


@pytest.mark.parametrize("extreme", [
    {"r": 20.0, "phi": 0.1, "alpha": [0.3, 0.2]},
    {"r": 0.2, "phi": 0.1, "alpha": [1e200, 0.0]},
], ids=["r20", "alpha1e200"])
def test_fidelity_oracle_automatic_dim_on_extreme_states(tmp_path, extreme):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"kind": "dsts", "nbar": 0.5, **extreme}))
    b.write_text(json.dumps({"kind": "dsts", "nbar": 0.5, "r": 0.9, "phi": 0.1, "alpha": [0.3, 0.2]}))
    proc = subprocess.run(
        [sys.executable, "-m", "cvgauss.cli", "fidelity", "--state", str(a), "--state2", str(b),
         "--oracle"], capture_output=True, text=True)
    assert proc.returncode in (0, 2), proc.stderr
    assert "Traceback" not in proc.stderr
    assert "TruncationWarning" in proc.stderr


def test_fidelity_mixed_kinds_rejected(coherent_file, pure_sts_file, capsys):
    assert main(["fidelity", "--state", coherent_file, "--state2", pure_sts_file]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command, message", [
    (["entangle", "--state", "{dsts}"], "entangle requires an sts2 state descriptor"),
    (["teleport", "--state", "{sts2}", "--resource", "{sts2}"],
     "teleport requires a dsts input state"),
], ids=["entangle-dsts", "teleport-sts2-input"])
def test_command_rejects_the_other_state_kind(coherent_file, pure_sts_file, capsys,
                                               command, message):
    argv = [a.format(dsts=coherent_file, sts2=pure_sts_file) for a in command]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


def test_teleport_coherent_unit_noise(tmp_path, coherent_file, capsys):
    # resource at its separability threshold: z = 1, so F = 1/2
    resource = _resource_file(tmp_path, 0.0, 0.0, 0.0)
    assert main(["teleport", "--state", coherent_file, "--resource", resource]) == 0
    out = capsys.readouterr().out.splitlines()
    state = json.loads(out[0])
    assert state["kind"] == "dsts"
    assert state["alpha"] == [0.5, 0.0]
    assert state["nbar"] == pytest.approx(math.sqrt(0.25 + 1.0 + 1.0) - 0.5, abs=1e-12)
    assert "fidelity = 0.5" in out[1]


def test_teleport_strong_resource_echoes_input(tmp_path, coherent_file, capsys):
    resource = _resource_file(tmp_path, 0.0, 0.0, 16.0)
    assert main(["teleport", "--state", coherent_file, "--resource", resource]) == 0
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


def test_sweep_default_grid(tmp_path, capsys):
    assert main(["sweep", "fig1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for path in tmp_path.iterdir():
        assert len(path.read_text().strip().split("\n")) == 100


def test_sweep_rejects_tiny_grid(tmp_path, capsys):
    assert main(["sweep", "fig1", "--out", str(tmp_path), "--points", "1"]) == 2


@pytest.mark.parametrize("points", [10 ** 15, MAX_POINTS + 1], ids=["huge", "bound+1"])
def test_sweep_rejects_huge_grid(tmp_path, capsys, points):
    # refused before the grid is allocated or the output directory is made
    out = tmp_path / "out"
    assert main(["sweep", "fig1", "--out", str(out), "--points", str(points)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: grid size must lie in [2, {MAX_POINTS}], got {points}\n"
    assert not out.exists()


def test_sweep_rejects_squeeze_past_r_max(tmp_path, capsys):
    assert main(["sweep", "fig1", "--out", str(tmp_path), "--r-in", "400"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input squeeze factor") and "Traceback" not in err


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


@pytest.mark.parametrize("content", [b'\xff\xfe{"kind"', b"[" * 100_000],
                         ids=["not-utf8", "deeply-nested"])
@pytest.mark.parametrize("argv", [
    ["info", "--state", "BAD"],
    ["fidelity", "--state", "BAD", "--state2", "GOOD"],
    ["fidelity", "--state", "GOOD", "--state2", "BAD"],
    ["entangle", "--state", "BAD"],
    ["teleport", "--state", "BAD", "--resource", "GOOD"],
    ["teleport", "--state", "GOOD", "--resource", "BAD"],
], ids=["info", "fidelity-state", "fidelity-state2", "entangle", "teleport-state",
        "teleport-resource"])
def test_undecodable_state_file_is_input_error(tmp_path, capsys, coherent_file, content, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    files = {"BAD": str(path), "GOOD": coherent_file}
    assert main([files.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid state JSON") and err.count("\n") == 1


@pytest.mark.parametrize("descriptor", [
    '{"kind": "dsts", "nbar": "abc", "r": 0.0, "phi": 0.0, "alpha": [0.0, 0.0]}',
    '{"kind": "dsts", "nbar": 0.1, "r": 0.0, "phi": 0.0, "alpha": [null, 0]}',
    '{"kind": "dsts", "nbar": 0.1, "r": 1000, "phi": 0.0, "alpha": [0.0, 0.0]}',
    '{"kind": "sts2", "nbar1": Infinity, "nbar2": 0.1, "r": 0.5, "phi": 0.0}',
    '{"kind": "dsts", "nbar": 0.1, "r": 200, "phi": 0.0, "alpha": [0.0, 0.0]}',
    '{"kind": "dsts", "nbar": 0.1, "r": 354, "phi": 0.0, "alpha": [0.0, 0.0]}',
    '{"kind": "dsts", "nbar": 1e200, "r": 0.0, "phi": 0.0, "alpha": [0.0, 0.0]}',
    '{"kind": "sts2", "nbar1": 0.1, "nbar2": 0.1, "r": 100, "phi": 0.0}',
    '{"kind": "sts2", "nbar1": 0.1, "nbar2": 0.1, "r": 300, "phi": 0.0}',
    '{"kind": "sts2", "nbar1": 1e200, "nbar2": 0.1, "r": 0.5, "phi": 0.0}',
], ids=["string", "null", "overflowing-r", "infinite", "dsts-r200", "dsts-r354",
        "dsts-nbar1e200", "sts2-r100", "sts2-r300", "sts2-nbar1e200"])
def test_malformed_number_is_input_error(tmp_path, capsys, descriptor):
    path = tmp_path / "malformed.json"
    path.write_text(descriptor)
    assert main(["info", "--state", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: field") and "Traceback" not in err


@pytest.mark.parametrize("command", ["info", "fidelity", "entangle"])
def test_oversized_state_is_input_error_in_every_command(tmp_path, capsys, command):
    path = tmp_path / "big.json"
    path.write_text('{"kind": "sts2", "nbar1": 0.1, "nbar2": 0.1, "r": 200, "phi": 0.0}')
    argv = [command, "--state", str(path)] + (["--state2", str(path)] if command == "fidelity" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: field")


def _numbers(line: str) -> list[float]:
    return [float(x) for x in re.findall(r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?", line)]


@pytest.mark.parametrize("r, phi", [(10.0, 0.0), (11.0, 0.3)], ids=["r10-phi0", "r11-phi0.3"])
def test_strongly_squeezed_covariance_is_reported(tmp_path, capsys, r, phi):
    # V and det V = (nbar + 1/2)^2 come from the physical parameters, so nothing
    # cancels where V_pp = (a + 1/2) + Re b would
    mp_reference = pytest.importorskip("mp_reference")
    path = tmp_path / "squeezed.json"
    path.write_text(json.dumps({"kind": "dsts", "nbar": 0.0, "r": r, "phi": phi,
                                "alpha": [0.0, 0.0]}))
    assert main(["info", "--state", str(path)]) == 0
    out = capsys.readouterr().out
    assert "det V = 0.25\n" in out
    line = next(line for line in out.splitlines() if line.startswith("covariance matrix"))
    with mp_reference.mp.workdps(mp_reference.DPS):
        ref = mp_reference.mp_cov1(DstsParams(0.0, r, phi))
        expected = [ref[0, 0], ref[0, 1], ref[1, 0], ref[1, 1]]
        assert all(abs(x - e) <= 1e-11 * abs(e) for x, e in zip(_numbers(line), expected))


@pytest.mark.parametrize("descriptor", [
    '{"kind": "dsts", "nbar": 0.0, "r": 10.0, "phi": 0.3, "alpha": [0.0, 0.0]}',
    '{"kind": "dsts", "nbar": 1e10, "r": 0.0, "phi": 0.0, "alpha": [0.0, 0.0]}',
    '{"kind": "sts2", "nbar1": 0.0, "nbar2": 0.0, "r": 12.0, "phi": 0.3}',
], ids=["dsts-r10", "dsts-nbar1e10", "sts2-r12"])
def test_strongly_squeezed_or_hot_self_fidelity_is_one(tmp_path, capsys, descriptor):
    # the closed forms add positive terms only, so det(V + V') and the final
    # difference no longer cancel
    mp_reference = pytest.importorskip("mp_reference")
    path = tmp_path / "state.json"
    path.write_text(descriptor)
    assert main(["fidelity", "--state", str(path), "--state2", str(path)]) == 0
    value = float(capsys.readouterr().out.split("=")[1])
    p = parse_state(descriptor)
    ref = (mp_reference.mp_fidelity_one_mode(p, p) if isinstance(p, DstsParams)
           else mp_reference.mp_fidelity_two_mode(p, p))
    assert value == pytest.approx(float(ref), abs=1e-12) and value == 1.0


def test_teleport_hot_input_fidelity(tmp_path, capsys):
    # sqrt(Delta + Lambda) - sqrt(Lambda) used to round to 0 for a very mixed input
    mp_reference = pytest.importorskip("mp_reference")
    path = tmp_path / "hot.json"
    path.write_text('{"kind": "dsts", "nbar": 1e9, "r": 0.0, "phi": 0.0, "alpha": [0.0, 0.0]}')
    resource = _resource_file(tmp_path, 0.0, 0.0, 5.0)
    assert main(["teleport", "--state", str(path), "--resource", resource]) == 0
    out = capsys.readouterr().out.splitlines()
    z = math.exp(-10.0)  # r_s = 0 for a pure resource
    nbar_ref, r_ref = mp_reference.mp_teleport_map(DstsParams(1e9), z)
    state = json.loads(out[0])
    assert state["nbar"] == pytest.approx(float(nbar_ref), rel=1e-14) and state["r"] == 0.0
    fid_ref = mp_reference.mp_teleport_fidelity(1.0, 1e9 + 0.5, z)
    assert float(out[1].split("=")[1]) == pytest.approx(float(fid_ref), rel=1e-11)


@pytest.mark.parametrize("nbar1", [0.0, 0.5, 2.0])
def test_strongly_entangled_sts_is_entangled(tmp_path, capsys, nbar1):
    # the verdict compares r with r_s, as E0 does; det V of the 4x4 matrix,
    # which np.linalg.det returned as pure roundoff, comes from the closed form
    path = tmp_path / "sts.json"
    path.write_text(json.dumps({"kind": "sts2", "nbar1": nbar1, "nbar2": 0.0, "r": 19.0,
                                "phi": 0.0}))
    assert main(["entangle", "--state", str(path)]) == 0
    assert main(["info", "--state", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.count("verdict: entangled") == 2 and "separable" not in out
    assert f"det V  = {((nbar1 + 0.5) * 0.5) ** 2:.12g}\n" in out


def test_pure_squeezed_states_accepted_from_r_4_6_to_6(tmp_path, capsys):
    path = tmp_path / "squeezed.json"
    for k in range(71):
        r = 4.6 + 0.02 * k
        path.write_text(json.dumps({"kind": "dsts", "nbar": 0.0, "r": r, "phi": 0.0,
                                    "alpha": [0.0, 0.0]}))
        assert main(["info", "--state", str(path)]) == 0
        assert main(["fidelity", "--state", str(path), "--state2", str(path)]) == 0
        cf_to_cov(dsts_to_cf(DstsParams(0.0, r)))
    out = capsys.readouterr().out
    assert out.count("det V = 0.25\n") == 71 and out.count("fidelity = 1\n") == 71


@pytest.mark.parametrize("dim", ["0", "60"])
def test_fidelity_rejects_removed_dim_option(pure_sts_file, capsys, dim):
    # the oracle always builds at matched automatic dims
    with pytest.raises(SystemExit) as exc:
        main(["fidelity", "--oracle", "--dim", dim,
              "--state", pure_sts_file, "--state2", pure_sts_file])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --dim {dim}" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--dim", "--tol", "--suite"], ids=["dim", "tol", "suite"])
def test_validate_rejects_removed_overrides(capsys, option):
    # validate runs every check at its own dims and tolerances only
    with pytest.raises(SystemExit) as exc:
        main(["validate", option, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


@pytest.mark.parametrize("args, option", [
    (["sweep", "fig1", "--r-in", "inf"], "--r-in"),
    (["sweep", "fig1", "--nbar-in", "0.1,inf"], "--nbar-in"),
    (["sweep", "fig2", "--e0", "nan"], "--e0"),
    (["sweep", "fig2", "--e0", "0.5,abc"], "--e0"),
], ids=["r-in", "nbar-in", "e0", "e0-text"])
def test_non_finite_option_is_input_error(tmp_path, capsys, args, option):
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument {option}: must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, option", [
    (["sweep", "fig1", "--nbar-in", ","], "--nbar-in"),
    (["sweep", "fig2", "--e0", ""], "--e0"),
    (["sweep", "fig2", "--e0", " , "], "--e0"),
], ids=["nbar-in-comma", "e0-empty", "e0-blank"])
def test_empty_list_option_is_input_error(tmp_path, capsys, args, option):
    # an empty list is an error, not a request for the default curves
    with pytest.raises(SystemExit) as exc:
        main(args + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"argument {option}: must list at least one finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_sweep_curves_with_one_file_name_are_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "fig1", "--out", str(out), "--nbar-in", "0.1,0.1000000001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: curves 0.1 and 0.1000000001 would both be "
                                   "written to fig1_nbar_0.1.csv")
    assert not out.exists()


@pytest.mark.parametrize("figure,option,name", [
    ("fig1", "--nbar-in=-0.0,0", "fig1_nbar_0.csv"), ("fig2", "--e0=-0.0", "fig2_e0_0.csv"),
])
def test_sweep_negative_zero_curve_is_written_as_zero(tmp_path, capsys, figure, option, name):
    out = tmp_path / "out"
    assert main(["sweep", figure, "--out", str(out), "--points", "5", option]) == 0
    assert [p.name for p in out.iterdir()] == [name]


def test_sweep_negative_occupancy_is_input_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "fig1", "--out", str(out), "--nbar-in", "-0.5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input occupancy must be finite and >= 0, got -0.5\n"
    assert not out.exists()


@pytest.mark.parametrize("figure,options,option", [
    ("fig2", ["--r-in", "3", "--nbar-in", "0.2"], "--r-in"),
    ("fig2", ["--nbar-in", "0.2"], "--nbar-in"),
    ("fig1", ["--e0", "0.3"], "--e0"),
], ids=["fig2-r-in-nbar-in", "fig2-nbar-in", "fig1-e0"])
def test_sweep_option_of_the_other_figure_is_input_error(tmp_path, capsys, figure, options, option):
    # an option the figure does not read is refused, not ignored for the default curves
    out = tmp_path / "out"
    assert main(["sweep", figure, "--out", str(out)] + options) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} does not apply to {figure}\n"
    assert not out.exists()


def test_teleport_asymmetric_resource(tmp_path, coherent_file, capsys):
    # coherent input, F = 1/(1 + z), z = (nbar1 + nbar2 + 1)(e^{-2r} + 2 sinh 2r sin^2(phi/2))
    resource = _resource_file(tmp_path, 0.3, 1.1, 0.8, 0.5)
    assert main(["teleport", "--state", coherent_file, "--resource", resource]) == 0
    out = capsys.readouterr().out.splitlines()
    z = 2.4 * (math.exp(-1.6) + 2.0 * math.sinh(1.6) * math.sin(0.25) ** 2)
    state = json.loads(out[0])
    assert state["nbar"] == pytest.approx(z, rel=1e-14) and state["alpha"] == [0.5, 0.0]
    assert float(out[1].split("=")[1]) == pytest.approx(1.0 / (1.0 + z), rel=1e-12)


@pytest.mark.parametrize("resource", [
    '{"kind": "sts2", "nbar1": Infinity, "nbar2": 0.1, "r": 0.5, "phi": 0.0}',
    '{"kind": "sts2", "nbar1": 0.1, "nbar2": 0.1, "r": NaN, "phi": 0.0}',
    '{"kind": "sts2", "nbar1": -0.1, "nbar2": 0.1, "r": 0.5, "phi": 0.0}',
    '{"kind": "sts2", "nbar1": 0.1, "nbar2": 0.1, "r": 0.5}',
    '{"kind": "dsts", "nbar": 0.1, "r": 0.5, "phi": 0.0, "alpha": [0.0, 0.0]}',
], ids=["nbar", "r", "negative", "missing-phi", "dsts"])
def test_teleport_bad_resource_is_input_error(tmp_path, capsys, coherent_file, resource):
    path = tmp_path / "resource.json"
    path.write_text(resource)
    assert main(["teleport", "--state", coherent_file, "--resource", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_validate_fast_suite_passes(capsys):
    start = time.monotonic()
    assert main(["validate"]) == 0
    assert time.monotonic() - start < 30.0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert out.endswith("\n11/11 checks passed\n")


def test_validate_breach_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(validate, "check_coherent_row", lambda: 1.0)
    assert main(["validate"]) == 3
    out = capsys.readouterr().out
    assert re.search(r"coherent-input teleportation row +delta= 1\.00000e\+00 .* FAIL", out)
    assert "10/11 checks passed" in out


def test_validate_reports_are_deterministic(capsys):
    main(["validate"])
    first = capsys.readouterr().out
    main(["validate"])
    second = capsys.readouterr().out
    assert first == second


def test_module_entry_point(vacuum_file):
    proc = subprocess.run(
        [sys.executable, "-m", "cvgauss.cli", "info", "--state", vacuum_file],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "classical" in proc.stdout


# --- arbitrary descriptors through every state-reading command ---------------------

_EXTREMES = st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e-8, 89.0, 300.0, 1e77, 1e300,
                             sys.float_info.max, -1e-8, -1.0, 10 ** 400, -(10 ** 400)])
_LEAF = st.one_of(st.none(), st.booleans(), st.text(max_size=4), st.integers(),
                  st.floats(allow_nan=True, allow_infinity=True), _EXTREMES)
_JSON = st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)
_FIELDS = {"dsts": ("nbar", "r", "phi", "alpha"), "sts2": ("nbar1", "nbar2", "r", "phi")}


@st.composite
def _value(draw, choices):
    """Mostly one of choices, so that many descriptors reach the closed forms;
    else an extreme number or any JSON value."""
    pick = draw(st.integers(0, 9))
    return draw(choices if pick < 7 else _EXTREMES if pick < 9 else _JSON)


@st.composite
def _descriptors(draw, kind):
    """JSON text of a descriptor, mostly of the given kind, with fields of any
    type or size, some missing, some extra, or now and then any JSON value."""
    if draw(st.sampled_from([False] * 15 + [True])):
        return json.dumps(draw(_JSON))
    obj = {"kind": draw(_value(st.just(kind)))}
    for name in _FIELDS.get(obj["kind"], ()) if isinstance(obj["kind"], str) else ():
        if draw(st.sampled_from([True] * 19 + [False])):  # or the field is missing
            number = _value(st.floats(0.0, 3.0))
            obj[name] = draw(_value(st.lists(number, min_size=2, max_size=2))
                             if name == "alpha" else number)
    if draw(st.sampled_from([False] * 3 + [True])):
        obj.update(draw(st.dictionaries(st.text(max_size=6), _JSON, max_size=2)))
    return json.dumps(obj)


# each command with the kinds it reads; the files are rewritten for every
# example, so one tmp_path serves them all
@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=st.sampled_from([("info", "dsts", "dsts"), ("info", "sts2", "sts2"),
                             ("fidelity", "dsts", "dsts"), ("fidelity", "sts2", "sts2"),
                             ("entangle", "sts2", "sts2"), ("teleport", "dsts", "sts2")]),
       oracle=st.booleans(), data=st.data())
def test_any_descriptor_exits_0_or_2(tmp_path, case, oracle, data):
    # every command either reports or names the input error, never a traceback
    command, *kinds = case
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, kind in zip(paths, kinds):
        path.write_text(data.draw(_descriptors(kind)))
    argv = [command, "--state", str(paths[0])]
    if command == "fidelity":
        argv += ["--state2", str(paths[1])] + (["--oracle"] if oracle else [])
    elif command == "teleport":
        argv += ["--resource", str(paths[1])]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("ignore", TruncationWarning)  # an oracle cut at its cap
        code = main(argv)
    assert code in (0, 2), (argv, [p.read_text() for p in paths], err.getvalue())
    assert (code == 2) == err.getvalue().startswith("error: ")


# --- arbitrary sweep options ----------------------------------------------------------

_EXTREME_TEXT = st.sampled_from(["0", "-0.0", "1", "-1", "-0.5", "1e-320", "nan", "-nan", "inf",
                                 "-inf", "1e308", "-1e308", "354.9", "400", "1.0000001"])


@st.composite
def _number_text(draw):
    """Mostly a number in [0, 1], which every option accepts; else an extreme
    number, any float or any text."""
    pick = draw(st.integers(0, 9))
    if pick < 6:
        return repr(draw(st.floats(0.0, 1.0)))
    return draw(_EXTREME_TEXT if pick < 8 else st.floats().map(repr) if pick < 9
                else st.text(max_size=5))


def _small_or_not_a_grid(text):
    """True unless the text is a valid grid size above 40, which would only
    make the property slow."""
    try:
        return not 40 < int(text) <= MAX_POINTS
    except ValueError:
        return True


@st.composite
def _points_text(draw):
    """Mostly a valid grid size up to 40; else one out of range, or any text."""
    pick = draw(st.integers(0, 9))
    if pick < 7:
        return str(draw(st.integers(2, 40)))
    return draw(st.sampled_from([str(MAX_POINTS + 1), str(10 ** 15), "1" * 400, "1", "0", "-3",
                                 "-0", "2.5", "1e3", "nan"]) if pick < 9
                else st.text(max_size=5).filter(_small_or_not_a_grid))


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(figure=st.sampled_from(["fig1", "fig2"]),
       options=st.fixed_dictionaries({}, optional={
           "--points": _points_text(), "--r-in": _number_text(),
           "--nbar-in": st.lists(_number_text(), max_size=3).map(",".join),
           "--e0": st.lists(_number_text(), max_size=3).map(",".join)}))
def test_any_sweep_options_exit_0_or_2(tmp_path, figure, options):
    # every option string either gives finite curves or exits 2 with no file written
    out = Path(tempfile.mkdtemp(dir=tmp_path)) / "out"
    argv = ["sweep", figure, f"--out={out}"] + [f"{k}={v}" for k, v in options.items()]
    stdout, err = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the option
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2:
        assert stdout.getvalue() == "" and not out.exists(), (argv, err.getvalue())
        return
    paths = [Path(line) for line in stdout.getvalue().splitlines()]
    assert paths and sorted(paths) == sorted(out.iterdir()), argv
    for path in paths:
        for line in path.read_text().splitlines()[1:]:
            assert all(math.isfinite(float(v)) for v in line.split(",")), (argv, path.name, line)
