import csv
import math
import sys
import warnings

import numpy as np
import pytest
from cf_reference import eval_cf1, sts_cf2
from hypothesis import given, settings, strategies as st

from cvgauss import (
    DomainError,
    DstsParams,
    TwoModeStsParams,
    UnphysicalState,
    degree_e0,
    degree_q0,
    dsts_to_cf,
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
from cvgauss.teleport import (
    FIG1_NBARS,
    FIG1_R_IN,
    FIG2_E0S,
    e0_from_z,
    write_fig1_csv,
    write_fig2_csv,
)
from cvgauss.states import R_MAX
from cvgauss.validate import check_coherent_row, random_dsts, random_sts


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


@pytest.mark.parametrize("state,z", [(DstsParams(1e10, 350.0), 0.5), (DstsParams(0.0, 354.5), 0.0)],
                         ids=["nbar-out-nan", "r-out-inf"])
def test_channel_output_that_overflows_is_unphysical(state, z):
    # valid inputs whose y e^{2r}, or 2 y sinh 2r / (y e^{-2r} + z), overflows
    with pytest.raises(UnphysicalState, match="output of the channel .* overflows double precision"):
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
    assert check_coherent_row() <= 1e-12


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


def _r_in(q_in):
    # the squeezed-vacuum squeeze factor with Q0 = q_in
    return math.acosh(1.0 / (1.0 - q_in) ** 2) if q_in > 0.0 else 0.0


def _seeded_grids():
    """r_in, occupancies, the E0 grid of fig1, the E0 curves and Q_in grid of
    fig2, with the endpoints E0 = 0 and 1 and Q_in = 1 - 2^-50."""
    rng = np.random.default_rng(557)
    e0s = [0.0, 1.0] + list(rng.uniform(0.0, 1.0, 30))
    qs = [0.0, 1.0 - 2.0 ** -50] + list(rng.uniform(0.0, 1.0, 30))
    return float(rng.uniform(0.0, 3.0)), [0.0] + list(rng.uniform(0.0, 10.0, 4)), e0s, e0s, qs


@pytest.mark.parametrize("grids", [
    (FIG1_R_IN, FIG1_NBARS, np.linspace(0.01, 0.99, 99), FIG2_E0S, np.linspace(0.0, 0.99, 99)),
    _seeded_grids(),
], ids=["default", "seeded"])
def test_sweeps_equal_the_typed_route_bit_for_bit(grids):
    # the CSV bytes rest on these values, compared with == rather than hashed
    r_in, nbars, e0_grid, e0s, qs = grids
    for nbar, rows in sweep_fig1(r_in, nbars, e0_grid).items():
        assert rows == [(float(e0), teleport_fidelity(math.cosh(2.0 * r_in), nbar + 0.5,
                                                      z_from_e0(float(e0)))) for e0 in e0_grid]
    for e0, rows in sweep_fig2(e0s, qs).items():
        z = z_from_e0(e0)
        assert rows == [(float(q), degree_q0(teleport_with_noise(DstsParams(0.0, _r_in(float(q))), z)))
                        for q in qs]


def _typed_fig1(r_in, nbars, e0s):
    # every E0 is checked before any point, as the sweep does
    zs = [z_from_e0(e0) for e0 in e0s]
    return {nbar + 0.0: [(e0, teleport_fidelity(math.cosh(2.0 * r_in), nbar + 0.5, z))
                         for e0, z in zip(e0s, zs)] for nbar in nbars}


def _typed_fig2(e0s, qs):
    zs = {e0 + 0.0: z_from_e0(e0) for e0 in e0s}
    return {e0: [(q, degree_q0(teleport_with_noise(DstsParams(0.0, _r_in(q)), z))) for q in qs]
            for e0, z in zs.items()}


def _outcome(sweep, *args):
    """The curves as bits, or the type and message of the exception; a warning
    raised on the way is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            curves = sweep(*args)
        except Exception as exc:
            return type(exc), str(exc)
    return {key: [(u.hex(), v.hex()) for u, v in rows] for key, rows in curves.items()}


def _with_one_bad(good, bad):
    # a grid of good values, some with one bad value at any place
    return st.tuples(st.lists(good, max_size=40), st.none() | bad, st.integers(0, 40)).map(
        lambda t: t[0] if t[1] is None else t[0][:t[2]] + [t[1]] + t[0][t[2]:])


_E0 = (st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1.0 - 2.0 ** -53, 0.615, 0.425])
       | st.floats(0.0, 1.0))
_BAD_E0 = st.sampled_from([-1e-300, 1.0 + 2.0 ** -52, -math.inf, math.inf, math.nan])
_Q_IN = (st.sampled_from([0.0, -0.0, 5e-324, 1.0 - 2.0 ** -50, 1.0 - 2.0 ** -53])
         | st.floats(0.0, 1.0, exclude_max=True))
_NBAR = (st.sampled_from([0.0, -0.0, 1e154, 1e200, 1e300, sys.float_info.max])
         | st.floats(0.0, 10.0) | st.floats(0.0, sys.float_info.max))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(r_in=st.sampled_from([0.0, 1.0, R_MAX]) | st.floats(0.0, R_MAX),
       nbars=st.lists(_NBAR, max_size=4), e0_grid=_with_one_bad(_E0, _BAD_E0),
       e0s=_with_one_bad(_E0, _BAD_E0).map(lambda g: g[:4]), qs=st.lists(_Q_IN, max_size=40))
def test_sweeps_equal_the_typed_route_bit_for_bit_on_any_grid(r_in, nbars, e0_grid, e0s, qs):
    # the same bits, or the same exception at the first failing point, and no warning
    assert _outcome(sweep_fig1, r_in, nbars, e0_grid) == _outcome(_typed_fig1, r_in, nbars, e0_grid)
    assert _outcome(sweep_fig2, e0s, qs) == _outcome(_typed_fig2, e0s, qs)


def test_typed_route_comparison_sees_overflow_and_bad_grids():
    # the property above compares failures too: these are three of them
    assert _outcome(sweep_fig1, 1.0, [0.1, 1e300], [0.5])[0] is UnphysicalState
    assert _outcome(sweep_fig1, 1.0, [0.1], [0.5, math.nan])[0] is DomainError
    assert _outcome(sweep_fig2, [0.5, 1.5], [0.5])[0] is DomainError


def test_sweeps_check_grid_and_curve_keys_before_any_curve(monkeypatch):
    # a bad E0 or Q_in is refused with no curve to build, and a bad curve key
    # after good ones is refused before the first point
    with pytest.raises(DomainError, match="E0"):
        sweep_fig1(1.0, [], [2.0])
    with pytest.raises(DomainError, match="Q_in"):
        sweep_fig2([], [2.0])

    class NoArrays:
        # the sweeps compute every curve point in numpy arrays
        def __getattr__(self, name):
            raise AssertionError(f"a curve point was computed (np.{name})")

    monkeypatch.setattr("cvgauss.teleport.np", NoArrays())
    with pytest.raises(DomainError, match="occupancy"):
        sweep_fig1(1.0, [0.1, -0.5], [0.5])
    with pytest.raises(DomainError, match="E0"):
        sweep_fig2([0.5, 2.0], [0.5])


@pytest.mark.parametrize("nbar_in", [-0.5, -1e-300, math.nan, math.inf, -math.inf])
def test_sweep_rejects_bad_input_occupancy(nbar_in):
    for grid in ([0.5], []):
        with pytest.raises(DomainError, match="occupancy must be finite and >= 0"):
            sweep_fig1(1.0, [0.1, nbar_in], grid)


def test_negative_zero_curve_keys_are_positive_zero():
    for curves in (sweep_fig1(1.0, [-0.0], [0.5]), sweep_fig2([-0.0], [0.5])):
        assert [math.copysign(1.0, key) for key in curves] == [1.0]


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


def _row_by_row(header, rows):
    return (header + "\n" + "".join(f"{u:.12g},{v:.12g}\n" for u, v in rows)).encode()


@pytest.mark.parametrize("write, header", [(write_fig1_csv, "e0,fidelity"),
                                           (write_fig2_csv, "q_in,q_out")])
def test_csv_bytes_equal_the_row_by_row_format(tmp_path, write, header):
    # curves that share a grid, one whose grid equals it under == but not in
    # its signed zeros, one with another grid and an empty one; values at
    # 1e-300 and ones that round to 1 at 12 digits
    grid = [0.0, -0.0, 1e-300, 0.5, 1.0 - 2.0 ** -50, 1.0]
    flipped = [-0.0, 0.0, 1e-300, 0.5, 1.0 - 2.0 ** -50, 1.0]
    values = [-0.0, 0.0, 1e-300, 0.9999999999996, 0.99999999999949, 1.0 / 3.0]
    sweep = {0.0: list(zip(grid, values)), 0.1: list(zip(grid, values[::-1])),
             0.2: list(zip(flipped, values)), 0.3: list(zip(values, grid)), 0.4: []}
    paths = write(sweep, tmp_path)
    assert len(paths) == len(sweep)
    for path, rows in zip(paths, sweep.values()):
        assert path.read_bytes() == _row_by_row(header, rows), path.name


def test_failed_csv_write_leaves_no_temp_file(tmp_path, monkeypatch):
    # a write that fails at the final rename removes its temp file and re-raises
    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr("cvgauss.teleport.os.replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        write_fig2_csv(sweep_fig2((1.0,), [0.0, 0.5]), tmp_path)
    assert list(tmp_path.iterdir()) == []
