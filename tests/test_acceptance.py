"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS/FAIL lines.
"""

import math
import time

import numpy as np
import pytest

from cvgauss import (
    DstsParams,
    TwoModeStsParams,
    closest_classical,
    closest_classical_numeric,
    closest_separable,
    closest_separable_numeric,
    degree_e0,
    degree_q0,
    dsts_dm,
    dsts_to_cf,
    fidelity_one_mode,
    fidelity_two_mode_sts,
    separability_threshold_rs,
    sweep_fig1,
    sweep_fig2,
    teleport_fidelity,
    teleport_with_noise,
    trace_product,
)
from cvgauss.validate import (
    bisect_threshold,
    check_coherent_row,
    check_minimizer,
    check_one_mode_oracle,
    check_separability_bisection,
    check_two_mode_oracle,
    matched_pair,
    random_dsts,
)


def _report(number: int, title: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {number:2d} [{status}] {title}: {detail}")


def test_criterion_1_one_mode_fidelity_oracle():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst = check_one_mode_oracle(rng, pairs=50)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed <= 60.0
    _report(1, "one-mode fidelity vs Fock oracle (50 pairs, matched automatic dims)",
            ok, f"max delta {worst:.3e} (tol 1e-06), {elapsed:.1f}s (limit 60s)")
    assert worst <= 1e-6
    assert elapsed <= 60.0


# dim 40 cuts two of its states by up to 2e-5, yet its worst delta there is
# 8.3e-15, against 1.8e-10 at automatic dims
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
def test_criterion_2_two_mode_fidelity_oracle():
    rng = np.random.default_rng(1002)
    start = time.monotonic()
    worst = check_two_mode_oracle(rng, pairs=10)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed <= 600.0
    _report(2, "two-mode STS fidelity vs Fock oracle (10 pairs, dim 40/mode)",
            ok, f"max delta {worst:.3e} (tol 1e-09), {elapsed:.0f}s (limit 600s)")
    assert worst <= 1e-9
    assert elapsed <= 600.0


def test_criterion_3_separability_boundary():
    rng = np.random.default_rng(1003)
    worst = check_separability_bisection(rng, samples=50)
    exact_delta = abs(separability_threshold_rs(1.0, 1.0) - math.acosh(2.0 / math.sqrt(3.0)))
    worst_exact = max(abs(bisect_threshold(1.0, 1.0)
                          - math.acosh(2.0 / math.sqrt(3.0))), exact_delta)
    ok = worst <= 1e-6 and worst_exact <= 1e-6
    _report(3, "separability boundary bisection vs closed threshold (50 pairs + exact case)",
            ok, f"max delta {max(worst, worst_exact):.3e} (tol 1e-06)")
    assert worst <= 1e-6
    assert worst_exact <= 1e-6


def _minimizer_report(number: int, title: str, results) -> None:
    value, argmin = results
    _report(number, title, value.passed and argmin.passed,
            f"max value delta {value.delta:.3e} (tol {value.tol:.0e}), "
            f"max distance to the closed argmin {argmin.delta:.3e} (tol {argmin.tol:.0e})")
    assert value.passed
    assert argmin.passed


def test_criterion_4_entanglement_measure_minimization():
    results = check_minimizer(
        np.random.default_rng(1004),
        lambda g: TwoModeStsParams(g.uniform(0.0, 0.8), g.uniform(0.0, 0.8),
                                   g.uniform(0.0, 1.5), g.uniform(-math.pi, math.pi)),
        degree_e0, closest_separable_numeric, closest_separable,
        "entanglement", "separable", samples=10)
    _minimizer_report(4, "closest-separable minimization vs closed E0 (10 entangled states)",
                      results)


def test_criterion_5_nonclassicality_measure_minimization():
    results = check_minimizer(
        np.random.default_rng(1005),
        lambda g: DstsParams(g.uniform(0.0, 1.0), g.uniform(0.0, 1.5),
                             g.uniform(-math.pi, math.pi)),
        degree_q0, closest_classical_numeric, closest_classical,
        "nonclassicality", "classical", samples=20)
    _minimizer_report(5, "closest-classical minimization vs closed Q0 (20 nonclassical states)",
                      results)


# criterion 6/7 share this grid
_R_IN = np.linspace(0.0, 1.2, 10)
_NBAR_IN = np.linspace(0.0, 2.0, 10)
_Z = np.linspace(0.15, 1.5, 10)


def _fidelity_grid():
    f = np.empty((10, 10, 10))
    for i, r_in in enumerate(_R_IN):
        for j, nbar_in in enumerate(_NBAR_IN):
            for k, z in enumerate(_Z):
                f[i, j, k] = teleport_fidelity(math.cosh(2 * r_in), nbar_in + 0.5, z)
    return f


def test_criterion_6_teleportation_consistency():
    worst_paths = 0.0
    for r_in in _R_IN:
        for nbar_in in _NBAR_IN:
            cf_in = dsts_to_cf(DstsParams(nbar_in, r_in, 0.7, 0.4 - 0.3j))
            for z in _Z:
                closed = teleport_fidelity(math.cosh(2 * r_in), nbar_in + 0.5, z)
                via = fidelity_one_mode(cf_in, teleport_with_noise(cf_in, z))
                worst_paths = max(worst_paths, abs(closed - via))
    worst_coherent = check_coherent_row()
    # classical-benchmark chain: F(1, 1/2, z) > N/(N+1) iff r - r_s > ln(N)/2
    threshold_ok = True
    for n in (1, 2, 3):
        for dr in (-0.02, 0.02):
            gap = 0.5 * math.log(n) + dr
            f = teleport_fidelity(1.0, 0.5, math.exp(-2.0 * gap))
            threshold_ok &= (f > n / (n + 1.0)) == (dr > 0)
    ok = worst_paths <= 1e-10 and worst_coherent <= 1e-12 and threshold_ok
    _report(6, "teleportation closed form vs input/output fidelity (10^3 grid)",
            ok, f"two-path delta {worst_paths:.3e} (tol 1e-10), coherent row "
                f"{worst_coherent:.3e} (tol 1e-12), thresholds N=1,2,3 "
                f"{'ok' if threshold_ok else 'violated'}")
    assert worst_paths <= 1e-10
    assert worst_coherent <= 1e-12
    assert threshold_ok


def test_criterion_7_monotonicity_signs():
    f = _fidelity_grid()
    dx = f[2:, 1:-1, 1:-1] - f[:-2, 1:-1, 1:-1]
    dy = f[1:-1, 2:, 1:-1] - f[1:-1, :-2, 1:-1]
    dz = f[1:-1, 1:-1, 2:] - f[1:-1, 1:-1, :-2]
    ok = dx.max() < 0.0 and dy.min() > 0.0 and dz.max() < 0.0
    _report(7, "teleportation fidelity monotonicity at interior grid points",
            ok, f"max dF/dx {dx.max():.3e} (<0), min dF/dy {dy.min():.3e} (>0), "
                f"max dF/dz {dz.max():.3e} (<0)")
    assert dx.max() < 0.0
    assert dy.min() > 0.0
    assert dz.max() < 0.0


def test_criterion_8_figure1_reproduction():
    nbars = (0.0, 0.1, 0.5, 5.0)
    grid = list(np.linspace(0.01, 0.99, 50)) + [1.0]
    sweep = sweep_fig1(1.0, nbars, grid)
    end_gap = max(abs(sweep[n][-1][1] - 1.0) for n in nbars)
    increasing = all(
        all(b > a for (_, a), (_, b) in zip(rows, rows[1:]))
        for rows in sweep.values())
    ordered = True
    for lo, hi in zip(nbars, nbars[1:]):
        for (e0, f_lo), (_, f_hi) in zip(sweep[lo], sweep[hi]):
            if e0 < 1.0:  # every curve reaches exactly 1 at the shared endpoint
                ordered &= f_hi > f_lo
    ok = end_gap <= 1e-9 and increasing and ordered
    _report(8, "figure-1 sweep (fidelity vs resource entanglement)",
            ok, f"endpoint gap {end_gap:.3e} (tol 1e-09), strictly increasing "
                f"{increasing}, ordered by input mixing {ordered}")
    assert end_gap <= 1e-9
    assert increasing
    assert ordered


def test_criterion_9_figure2_reproduction():
    qs = np.linspace(0.0, 0.99, 50)
    sweep = sweep_fig2((1.0, 0.615, 0.425), qs)
    identity_gap = max(abs(q_out - q_in) for q_in, q_out in sweep[1.0])
    degraded = True
    monotone = True
    for e0 in (0.615, 0.425):
        rows = sweep[e0]
        outs = [q for _, q in rows]
        monotone &= all(b >= a for a, b in zip(outs, outs[1:]))
        degraded &= all(q_out < q_in for q_in, q_out in rows if q_in > 0.0)
    ok = identity_gap <= 1e-12 and degraded and monotone
    _report(9, "figure-2 sweep (nonclassicality of teleported state)",
            ok, f"identity gap at E0=1 {identity_gap:.3e} (tol 1e-12), "
                f"noise degrades Q {degraded}, monotone {monotone}")
    assert identity_gap <= 1e-12
    assert degraded
    assert monotone


def test_criterion_10_fidelity_property_suite():
    rng = np.random.default_rng(1010)
    sym = 0.0
    bounds_ok = True
    for _ in range(30):
        g1, g2 = dsts_to_cf(random_dsts(rng)), dsts_to_cf(random_dsts(rng))
        f12, f21 = fidelity_one_mode(g1, g2), fidelity_one_mode(g2, g1)
        sym = max(sym, abs(f12 - f21))
        bounds_ok &= -1e-12 <= f12 <= 1.0 + 1e-12
    mult = 0.0
    for _ in range(10):
        n = [rng.uniform(0, 1.5) for _ in range(4)]
        f2 = fidelity_two_mode_sts(TwoModeStsParams(n[0], n[1], 0.0),
                                   TwoModeStsParams(n[2], n[3], 0.0))
        f_prod = (fidelity_one_mode(dsts_to_cf(DstsParams(n[0])), dsts_to_cf(DstsParams(n[2])))
                  * fidelity_one_mode(dsts_to_cf(DstsParams(n[1])), dsts_to_cf(DstsParams(n[3]))))
        mult = max(mult, abs(f2 - f_prod))
    dominance = 0.0
    for _ in range(6):
        p1, p2 = random_dsts(rng), random_dsts(rng)
        closed = fidelity_one_mode(dsts_to_cf(p1), dsts_to_cf(p2))
        tr = trace_product(*matched_pair(dsts_dm, p1, p2))
        dominance = max(dominance, tr - closed)
    pure_eq = 0.0
    for _ in range(6):
        p1 = DstsParams(0.0, rng.uniform(0, 0.8), rng.uniform(-math.pi, math.pi),
                        complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)))
        p2 = DstsParams(0.0, rng.uniform(0, 0.8), rng.uniform(-math.pi, math.pi),
                        complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)))
        closed = fidelity_one_mode(dsts_to_cf(p1), dsts_to_cf(p2))
        tr = trace_product(dsts_dm(p1, 120), dsts_dm(p2, 120))
        pure_eq = max(pure_eq, abs(closed - tr))
    ok = (sym <= 1e-12 and bounds_ok and mult <= 1e-10
          and dominance <= 1e-12 and pure_eq <= 1e-13)
    _report(10, "fidelity property suite",
            ok, f"symmetry {sym:.3e} (tol 1e-12), bounds {bounds_ok}, "
                f"multiplicativity {mult:.3e} (tol 1e-10), dominance violation "
                f"{dominance:.3e} (tol 1e-12), pure equality {pure_eq:.3e} (tol 1e-13)")
    assert sym <= 1e-12
    assert bounds_ok
    assert mult <= 1e-10
    assert dominance <= 1e-12
    assert pure_eq <= 1e-13
