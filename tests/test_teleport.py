import csv
import math

import numpy as np
import pytest
from cf_reference import sts_cf2

from cvgauss import (
    DomainError,
    DstsParams,
    TwoModeStsParams,
    degree_e0,
    dsts_to_cf,
    e0_from_z,
    eval_cf1,
    fidelity_one_mode,
    resource_noise,
    separability_threshold_rs,
    sweep_fig1,
    sweep_fig2,
    teleport_fidelity,
    teleport_fidelity_from_states,
    teleport_symmetric_sts,
    teleport_with_noise,
    z_from_e0,
)
from cvgauss.teleport import write_fig1_csv, write_fig2_csv
from cvgauss.validate import random_dsts, random_sts


# --- the channel of a squeezed thermal resource ---------------------------------

def test_output_cf_equals_product_of_input_and_resource():
    # chi_out(lam) = chi_in(lam) chi_res(conj(lam), lam) for asymmetric resources
    # at any squeeze angle, through the physical and the coefficient input
    rng = np.random.default_rng(501)
    for _ in range(20):
        p = random_dsts(rng)
        res = random_sts(rng, nbar_max=3.0, r_max=2.0)
        z = resource_noise(res)
        out, out_cf = teleport_with_noise(p, z), teleport_with_noise(dsts_to_cf(p), z)
        for _ in range(10):
            lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
            rhs = eval_cf1(dsts_to_cf(p), lam) * sts_cf2(res, np.conj(lam), lam)
            assert abs(eval_cf1(dsts_to_cf(out), lam) - rhs) < 1e-10
            assert abs(eval_cf1(out_cf, lam) - rhs) < 1e-10


def test_symmetric_resource_reproduces_noise_update():
    rng = np.random.default_rng(503)
    for _ in range(10):
        cf_in = dsts_to_cf(random_dsts(rng))
        nbar, r = rng.uniform(0, 1), rng.uniform(0, 2)
        out = teleport_symmetric_sts(cf_in, nbar, r)
        z = math.exp(-2.0 * (r - separability_threshold_rs(nbar, nbar)))
        assert resource_noise(TwoModeStsParams(nbar, nbar, r)) == pytest.approx(z, rel=1e-14)
        assert abs(out.a - (cf_in.a + z)) < 1e-12
        assert out.b == cf_in.b and out.c == cf_in.c


def test_coherent_through_thermal_resource_is_displaced_thermal():
    alpha = 0.7 - 0.4j
    out_state = teleport_with_noise(DstsParams(0.0, alpha=alpha),
                                    resource_noise(TwoModeStsParams(0.6, 0.3, 0.0, 1.3)))
    assert out_state.alpha == alpha
    assert out_state.r == 0.0
    assert out_state.nbar == pytest.approx(0.6 + 0.3 + 1.0, abs=1e-12)


def test_shortcut_agrees_with_general_channel():
    # the added noise of the symmetric shortcut is the exponent of chi_res(conj(lam), lam)
    rng = np.random.default_rng(509)
    for _ in range(25):
        cf_in = dsts_to_cf(random_dsts(rng))
        nbar, r = rng.uniform(0, 1), rng.uniform(0, 2)
        lam = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        res = TwoModeStsParams(nbar, nbar, r, 0.0)
        z = -np.log(sts_cf2(res, np.conj(lam), lam)).real / abs(lam) ** 2
        via_shortcut = teleport_symmetric_sts(cf_in, nbar, r)
        assert abs(via_shortcut.a - (cf_in.a + z)) < 1e-12
        assert via_shortcut.b == cf_in.b


def test_output_state_is_physical():
    rng = np.random.default_rng(521)
    for _ in range(25):
        cf_in = dsts_to_cf(random_dsts(rng))
        out = teleport_with_noise(cf_in, resource_noise(random_sts(rng, nbar_max=1.0, r_max=1.5)))
        assert (out.a + 0.5) ** 2 - abs(out.b) ** 2 >= 0.25 - 1e-9


def test_symmetric_resource_teleports_best_at_equal_entanglement():
    # (0, 1, r = 1, phi = 0) has r_s = 0, so E0 = 1 - sech 1 as for a pure
    # symmetric resource at r = 1, which adds e^{-2}; it adds twice that
    asym = TwoModeStsParams(0.0, 1.0, 1.0, 0.0)
    z_sym = z_from_e0(degree_e0(asym))
    assert z_sym == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert resource_noise(asym) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-15)
    assert teleport_fidelity(1.0, 0.5, z_sym) > teleport_fidelity(1.0, 0.5, resource_noise(asym))


# --- symmetric-resource shortcut ----------------------------------------------

def test_strong_squeezing_limit_is_identity():
    cf_in = dsts_to_cf(DstsParams(0.4, 0.6, 1.0, 0.2 + 0.1j))
    out = teleport_symmetric_sts(cf_in, 0.0, 16.0)  # z = e^{-32}
    assert abs(out.a - cf_in.a) < 1e-12
    assert out.b == cf_in.b and out.c == cf_in.c


def test_vacuum_through_quarter_noise_resource():
    out = teleport_symmetric_sts(dsts_to_cf(DstsParams(0.0)), 0.0, math.log(2.0))
    assert out.a == pytest.approx(0.25, abs=1e-15)
    assert out.b == 0j and out.c == 0j


def test_resource_parameter_validation():
    cf_in = dsts_to_cf(DstsParams(0.0))
    with pytest.raises(DomainError):
        teleport_symmetric_sts(cf_in, -0.1, 1.0)
    with pytest.raises(DomainError):
        teleport_symmetric_sts(cf_in, 0.1, -1.0)
    for z in (-0.5, math.inf, math.nan):
        for state in (cf_in, DstsParams(0.1, 0.2)):
            with pytest.raises(DomainError):
                teleport_with_noise(state, z)


# --- closed-form fidelity -------------------------------------------------------

def test_variables_validation():
    with pytest.raises(DomainError):
        teleport_fidelity(0.9, 0.5, 0.5)
    with pytest.raises(DomainError):
        teleport_fidelity(1.0, 0.4, 0.5)
    with pytest.raises(DomainError):
        teleport_fidelity(1.0, 0.5, -0.1)
    for bad in (math.inf, math.nan):
        for args in ((bad, 0.5, 0.5), (1.0, bad, 0.5), (1.0, 0.5, bad)):
            with pytest.raises(DomainError, match="must be finite"):
                teleport_fidelity(*args)


def test_coherent_input_row():
    for z in np.linspace(0.05, 1.5, 25):
        f = teleport_fidelity(1.0, 0.5, float(z))
        assert f == pytest.approx(1.0 / (1.0 + z), abs=1e-12)


def test_half_fidelity_point():
    assert teleport_fidelity(1.0, 0.5, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_perfect_resource_limit():
    rng = np.random.default_rng(523)
    for _ in range(20):
        f = teleport_fidelity(rng.uniform(1, 3), rng.uniform(0.5, 3), 0.0)
        assert f == pytest.approx(1.0, abs=1e-9)


def test_classical_threshold_chain():
    # F(1, 1/2, z) > N/(N+1) iff r - r_s > ln(N)/2, i.e. z < 1/N
    for n in (1, 2, 3):
        r_s = separability_threshold_rs(0.3, 0.3)
        for dr in (-0.05, 0.05):
            r = r_s + 0.5 * math.log(n) + dr
            z = math.exp(-2.0 * (r - r_s))
            f = teleport_fidelity(1.0, 0.5, z)
            assert (f > n / (n + 1.0)) == (dr > 0)


def test_separable_resource_region_is_finite():
    f = teleport_fidelity(2.0, 1.5, 3.7)  # z > 1: r < r_s
    assert 0.0 < f < 1.0


def test_fidelity_from_states_matches_state_route():
    rng = np.random.default_rng(541)
    for _ in range(40):
        p = random_dsts(rng, nbar_max=2.0, r_max=1.2)
        nbar, r = rng.uniform(0, 1), rng.uniform(0, 1.5)
        closed = teleport_fidelity_from_states(p, nbar, r)
        cf_in = dsts_to_cf(p)
        via_fidelity = fidelity_one_mode(cf_in, teleport_symmetric_sts(cf_in, nbar, r))
        assert abs(closed - via_fidelity) < 1e-10


def test_mixing_improves_fidelity():
    f_hot = teleport_fidelity_from_states(DstsParams(5.0, 1.0), 0.2, 0.8)
    f_cold = teleport_fidelity_from_states(DstsParams(0.0, 1.0), 0.2, 0.8)
    assert f_hot > f_cold


def test_monotonicity_signs_on_grid():
    xs = np.linspace(1.0, 3.0, 20)
    ys = np.linspace(0.5, 3.0, 20)
    zs = np.linspace(1.5 / 20, 1.5, 20)
    f = np.array([[[teleport_fidelity(x, y, z) for z in zs]
                   for y in ys] for x in xs])
    assert (f[2:, :, :] - f[:-2, :, :]).max() < 0.0   # decreasing in x
    assert (f[:, 2:, :] - f[:, :-2, :]).min() > 0.0   # increasing in y
    assert (f[:, :, 2:] - f[:, :, :-2]).max() < 0.0   # decreasing in z


# --- entanglement/noise dictionary ---------------------------------------------

def test_e0_z_trivia():
    assert e0_from_z(0.25) == pytest.approx(0.2, abs=1e-15)
    assert z_from_e0(0.0) == 1.0
    assert z_from_e0(1.0) == 0.0


def test_e0_z_roundtrip_and_monotonicity():
    zs = np.linspace(0.01, 0.99, 50)
    e0s = [e0_from_z(float(z)) for z in zs]
    assert all(b < a for a, b in zip(e0s, e0s[1:]))  # decreasing in z
    for z, e in zip(zs, e0s):
        assert z_from_e0(e) == pytest.approx(z, abs=1e-12)


def test_e0_z_domains():
    with pytest.raises(DomainError):
        e0_from_z(0.0)
    with pytest.raises(DomainError):
        e0_from_z(1.0)
    with pytest.raises(DomainError):
        z_from_e0(1.1)


# --- figure sweeps ---------------------------------------------------------------

def test_fig1_curves_reach_unity_at_full_entanglement():
    grid = list(np.linspace(0.01, 0.99, 25)) + [1.0]
    sweep = sweep_fig1(1.0, (0.0, 0.1, 0.5, 5.0), grid)
    for rows in sweep.values():
        assert rows[-1][0] == 1.0
        assert abs(rows[-1][1] - 1.0) < 1e-9


def test_fig1_strictly_increasing_and_ordered_by_mixing():
    grid = np.linspace(0.01, 0.99, 40)
    sweep = sweep_fig1(1.0, (0.0, 0.1, 0.5, 5.0), grid)
    for rows in sweep.values():
        fids = [f for _, f in rows]
        assert all(b > a for a, b in zip(fids, fids[1:]))
    for lo, hi in [(0.0, 0.1), (0.1, 0.5), (0.5, 5.0)]:
        for (_, f_lo), (_, f_hi) in zip(sweep[lo], sweep[hi]):
            assert f_hi > f_lo


def test_fig1_zero_entanglement_endpoint_is_z_one():
    sweep = sweep_fig1(1.0, (0.3,), [0.0])
    expected = teleport_fidelity(math.cosh(2.0), 0.8, 1.0)
    assert sweep[0.3][0] == (0.0, expected)


def test_fig2_identity_at_full_entanglement():
    qs = np.linspace(0.0, 0.99, 34)
    sweep = sweep_fig2((1.0,), qs)
    for q_in, q_out in sweep[1.0]:
        assert abs(q_out - q_in) < 1e-12


def test_fig2_noise_degrades_nonclassicality():
    qs = np.linspace(0.0, 0.99, 34)
    sweep = sweep_fig2((0.615, 0.425), qs)
    for e0, rows in sweep.items():
        assert rows[0] == (0.0, 0.0)
        outs = [q_out for _, q_out in rows]
        assert all(b >= a for a, b in zip(outs, outs[1:]))
        for q_in, q_out in rows[1:]:
            assert q_out < q_in


def test_fig2_vacuum_input_stays_classical():
    sweep = sweep_fig2((0.615,), [0.0])
    assert sweep[0.615][0][1] == 0.0


def test_sweep_rejects_bad_grids():
    with pytest.raises(DomainError):
        sweep_fig1(-0.5, (0.0,), [0.5])
    with pytest.raises(DomainError, match="R_MAX"):
        sweep_fig1(400.0, (0.0,), [0.5])
    with pytest.raises(DomainError):
        sweep_fig2((0.5,), [1.0])  # Q_in must stay below 1


# --- CSV output -------------------------------------------------------------------

def test_fig1_csv_files(tmp_path):
    sweep = sweep_fig1(1.0, (0.0, 5.0), np.linspace(0.01, 0.99, 7))
    paths = write_fig1_csv(sweep, tmp_path)
    assert sorted(p.name for p in paths) == ["fig1_nbar_0.csv", "fig1_nbar_5.csv"]
    with open(paths[0]) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["e0", "fidelity"]
    assert len(rows) == 8
    for e0_text, f_text in rows[1:]:
        assert len(f_text.replace(".", "").replace("-", "").lstrip("0")) <= 12
        assert 0.0 < float(f_text) <= 1.0
        assert 0.0 < float(e0_text) < 1.0


def test_fig2_csv_files(tmp_path):
    sweep = sweep_fig2((1.0, 0.425), np.linspace(0.0, 0.9, 5))
    paths = write_fig2_csv(sweep, tmp_path)
    assert sorted(p.name for p in paths) == ["fig2_e0_0.425.csv", "fig2_e0_1.csv"]
    text = paths[0].read_text()
    assert text.startswith("q_in,q_out\n")
    assert len(text.strip().split("\n")) == 6


def test_failed_csv_write_leaves_no_temp_file(tmp_path, monkeypatch):
    # a write that fails at the final rename removes its temp file and re-raises
    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("cvgauss.teleport.os.replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        write_fig2_csv(sweep_fig2((1.0,), [0.0, 0.5]), tmp_path)
    assert list(tmp_path.iterdir()) == []
