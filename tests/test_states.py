import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cf_reference import eval_cf1_cov, sts_cf2

from cvgauss import (
    DomainError,
    DstsParams,
    OneModeGaussianCF,
    TwoModeStsParams,
    UnphysicalState,
    cf_to_cov,
    cf_to_dsts,
    dsts_to_cf,
    eval_cf1,
    fidelity_one_mode,
    fidelity_two_mode_sts,
    parse_state,
    peres_simon_separable,
    separability_threshold_rs,
    state_to_dict,
    sts_to_cov2,
    teleport_with_noise,
)
from cvgauss.entanglement import SEP_TOL
from cvgauss.states import _LOG_SCALE_MAX, R_MAX, _log_cosh, checked_invariants
from cvgauss.validate import random_dsts, random_sts


# --- parameter validation -------------------------------------------------

def test_dsts_params_rejects_negative():
    with pytest.raises(DomainError):
        DstsParams(nbar=-0.1)
    with pytest.raises(DomainError):
        DstsParams(nbar=0.0, r=-1.0)


def test_parameter_types_store_real_fields_as_floats():
    # numpy scalars and ints become the same Python floats; a float is kept as given
    x = 0.1 + 0.2
    made = (DstsParams(np.float64(x), np.float32(0.5)), TwoModeStsParams(np.float64(x), 2, np.float64(0.5)),
            OneModeGaussianCF(np.float64(x)))
    values = [made[0].nbar, made[0].r, made[1].nbar1, made[1].nbar2, made[1].r, made[2].a]
    assert [v.__class__ for v in values] == [float] * 6
    assert values == [x, 0.5, x, 2.0, 0.5, x]
    assert DstsParams(x).nbar is x and TwoModeStsParams(0.2, x).nbar2 is x and OneModeGaussianCF(x).a is x


@pytest.mark.parametrize("build", [lambda r: DstsParams(0.0, r),
                                   lambda r: TwoModeStsParams(0.0, 0.0, r)],
                         ids=["dsts", "sts2"])
def test_squeeze_range_ends_at_r_max(build):
    assert build(R_MAX).r == R_MAX
    assert math.exp(2.0 * R_MAX) < math.inf
    with pytest.raises(UnphysicalState, match="overflows double precision"):
        build(math.nextafter(R_MAX, math.inf))
    with pytest.raises(DomainError, match="r must be >= 0"):
        build(math.nan)


@pytest.mark.parametrize("build", [lambda n: DstsParams(n, 0.5),
                                   lambda n: TwoModeStsParams(n, 0.0, 5.0),
                                   lambda n: TwoModeStsParams(0.0, n, 5.0)],
                         ids=["dsts", "sts2-nbar1", "sts2-nbar2"])
def test_non_finite_occupancy_is_rejected(build):
    assert build(sys.float_info.max).r in (0.5, 5.0)
    with pytest.raises(UnphysicalState, match="overflows double precision"):
        build(math.inf)
    with pytest.raises(DomainError, match="must be >= 0"):
        build(math.nan)


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(st.floats())
@example(-math.pi)
@example(math.pi)
@example(-0.0)
@example(3.0 * math.pi)
@example(-4.0)
def test_phi_wrapped_into_half_open_interval(phi):
    # every float, in both parameter types: a finite angle is stored as a float
    # in (-pi, pi] congruent to it modulo 2 pi, one already there keeps its bits
    # (-0.0 included), and a non-finite one raises
    for build in (lambda phi: DstsParams(0.1, 0.2, phi),
                  lambda phi: TwoModeStsParams(0.1, 0.2, 0.3, phi)):
        if not math.isfinite(phi):
            with pytest.raises(DomainError, match="angle must be finite"):
                build(phi)
            continue
        stored = build(phi).phi
        assert type(stored) is float and -math.pi < stored <= math.pi
        assert abs(math.remainder(phi - stored, 2.0 * math.pi)) \
            <= 2.0 * math.ulp(phi) + 8.0 * math.ulp(math.pi)
        if -math.pi < phi <= math.pi:
            assert stored.hex() == phi.hex()


def test_phi_in_range_comes_back_bit_identical():
    for phi in np.linspace(-3.1, 3.1, 1241).tolist() + [0.4, -0.0, math.pi]:
        assert DstsParams(0.0, 0.1, phi).phi == phi
        assert TwoModeStsParams(0.1, 0.2, 0.3, phi).phi == phi


@pytest.mark.parametrize("build", [lambda phi: DstsParams(0.1, 0.2, phi),
                                   lambda phi: TwoModeStsParams(0.1, 0.2, 0.3, phi)],
                         ids=["dsts", "sts2"])
@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_angle_is_rejected(build, phi):
    with pytest.raises(DomainError, match="angle must be finite"):
        build(phi)


@pytest.mark.parametrize("alpha", [complex(math.nan, 0.0), complex(0.0, math.inf),
                                   complex(-math.inf, 1.0)], ids=["nan", "inf-im", "-inf-re"])
def test_non_finite_displacement_is_rejected(alpha):
    with pytest.raises(DomainError, match="alpha must be finite"):
        DstsParams(0.1, 0.2, 0.3, alpha)


@pytest.mark.parametrize("c", [math.inf, math.nan, complex(0.0, math.inf)],
                         ids=["inf", "nan", "inf-im"])
def test_non_finite_cf_displacement_is_rejected(c):
    with pytest.raises(DomainError, match="coefficient c must be finite"):
        OneModeGaussianCF(0.0, 0j, c)


def test_parameter_types_store_plain_floats_and_complexes():
    for phi, stored in ((np.float64(0.3), 0.3), (2, 2.0), (np.float64(4.0), 4.0 - 2.0 * math.pi),
                        (-1, -1.0), (np.float32(0.5), 0.5), (-4.0, 2.2831853071795862),
                        (-math.pi, math.pi)):
        for p in (DstsParams(0.1, 0.2, phi), TwoModeStsParams(0.1, 0.2, 0.3, phi)):
            assert type(p.phi) is float and p.phi == stored
    for alpha in (0.5, 1, np.float64(-0.25), np.complex128(0.5 - 1j)):
        p = DstsParams(0.1, 0.2, 0.3, alpha)
        assert type(p.alpha) is complex and p.alpha == complex(alpha)
    g = OneModeGaussianCF(0.5, 0.25, 1)
    assert (type(g.b), type(g.c)) == (complex, complex) and (g.b, g.c) == (0.25 + 0j, 1 + 0j)
    g = OneModeGaussianCF(0.5, np.complex128(0.25j), np.float64(-2.0))
    assert (type(g.b), type(g.c)) == (complex, complex) and (g.b, g.c) == (0.25j, -2 + 0j)
    # an angle that is not a number fails where float() does
    with pytest.raises(TypeError):
        DstsParams(0.1, 0.2, None)
    with pytest.raises(ValueError):
        TwoModeStsParams(0.1, 0.2, 0.3, "abc")


def test_cf_rejects_unphysical():
    with pytest.raises(UnphysicalState):
        OneModeGaussianCF(a=0.0, b=1.0)  # det = 0.25 - 1 < 1/4
    with pytest.raises(UnphysicalState):
        OneModeGaussianCF(a=-0.5)
    with pytest.raises(UnphysicalState, match="< 1/4"):
        OneModeGaussianCF(a=1.0, b=math.nan)
    with pytest.raises(UnphysicalState, match="overflows double precision"):
        OneModeGaussianCF(a=1e200)


@pytest.mark.parametrize("a", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("use", [
    cf_to_dsts,
    lambda cf: fidelity_one_mode(cf, DstsParams(0.0)),
], ids=["cf_to_dsts", "fidelity_one_mode"])
def test_non_finite_cf_coefficient_is_rejected(use, a):
    # an infinite a once passed (det = inf >= 1/4) and read as the vacuum
    with pytest.raises(UnphysicalState, match="coefficient a must be finite and >= 0"):
        use(OneModeGaussianCF(a))


@pytest.mark.parametrize("r", [200.0, 354.0, R_MAX])
def test_conversions_past_the_coefficient_range(r):
    # (a + 1/2)^2 has no double from r of about 178, the covariances do
    with pytest.raises(UnphysicalState, match="overflows double precision"):
        dsts_to_cf(DstsParams(0.0, r))
    assert np.isfinite(sts_to_cov2(TwoModeStsParams(0.0, 0.0, r))).all()


# --- dsts_to_cf -------------------------------------------------------------

def test_dsts_to_cf_vacuum():
    g = dsts_to_cf(DstsParams(nbar=0.0))
    assert g.a == 0.0 and g.b == 0j and g.c == 0j


def test_dsts_to_cf_thermal_displaced():
    g = dsts_to_cf(DstsParams(nbar=1.0, r=0.0, phi=0.0, alpha=1.0 + 0j))
    assert g.a == pytest.approx(1.0)
    assert g.b == 0j
    assert g.c == 1.0 + 0j


def test_dsts_to_cf_squeezed_vacuum():
    g = dsts_to_cf(DstsParams(nbar=0.0, r=1.0, phi=math.pi / 2))
    assert g.a == pytest.approx(0.5 * math.cosh(2.0) - 0.5, abs=1e-14)
    assert g.b == pytest.approx(-0.5j * math.sinh(2.0), abs=1e-14)
    back = cf_to_dsts(g)
    assert back.r == pytest.approx(1.0, abs=1e-12)
    assert back.phi == pytest.approx(math.pi / 2, abs=1e-12)


# --- cf_to_dsts -------------------------------------------------------------

def test_cf_to_dsts_trivial():
    p = cf_to_dsts(OneModeGaussianCF(0.0))
    assert p.nbar == 0.0 and p.r == 0.0 and p.phi == 0.0 and p.alpha == 0j
    q = cf_to_dsts(OneModeGaussianCF(1.0, 0j, 1.0 + 0j))
    assert q.nbar == pytest.approx(1.0) and q.r == 0.0 and q.alpha == 1.0 + 0j


def test_cf_to_dsts_roundtrip_example():
    p = DstsParams(nbar=0.3, r=0.7, phi=1.1, alpha=0.5 - 0.2j)
    q = cf_to_dsts(dsts_to_cf(p))
    assert q.nbar == pytest.approx(p.nbar, abs=1e-12)
    assert q.r == pytest.approx(p.r, abs=1e-12)
    assert q.phi == pytest.approx(p.phi, abs=1e-12)
    assert q.alpha == p.alpha


def test_roundtrip_randomized_grid():
    rng = np.random.default_rng(101)
    for _ in range(200):
        p = random_dsts(rng, nbar_max=5.0, r_max=2.0)
        q = cf_to_dsts(dsts_to_cf(p))
        assert abs(q.nbar - p.nbar) < 1e-12
        assert abs(q.r - p.r) < 1e-12
        assert abs(q.phi - p.phi) < 1e-12
        assert abs(q.alpha - p.alpha) < 1e-12


def test_roundtrip_starting_from_cf():
    rng = np.random.default_rng(103)
    for _ in range(50):
        g = dsts_to_cf(random_dsts(rng, nbar_max=3.0, r_max=1.5))
        h = dsts_to_cf(cf_to_dsts(g))
        assert abs(h.a - g.a) < 1e-12
        assert abs(h.b - g.b) < 1e-12
        assert h.c == g.c


# --- covariance forms -------------------------------------------------------

def test_cf_to_cov_vacuum_and_thermal():
    v = cf_to_cov(OneModeGaussianCF(0.0))
    assert isinstance(v, np.ndarray) and v.dtype == float
    assert v.tolist() == [[0.5, 0.0], [0.0, 0.5]]
    with pytest.raises(ValueError):
        v[0, 0] = 1.0
    w = cf_to_cov(dsts_to_cf(DstsParams(nbar=1.0)))
    assert w[0, 0] == pytest.approx(1.5) and w[1, 1] == pytest.approx(1.5)
    assert w[0, 1] == w[1, 0] == 0.0
    # at phi = 0, V_pp = a + 1/2 + Re b cancels to zero or below from r of about 9.4
    with pytest.raises(UnphysicalState, match="diagonal covariances must be positive"):
        cf_to_cov(dsts_to_cf(DstsParams(0.0, 9.4)))


def test_cf_to_cov_squeezed_least_squares_fit():
    # fit the quadratic form of -2 ln|chi| sampled from the coefficient CF;
    # an independent route to the covariance matrix
    g = dsts_to_cf(DstsParams(nbar=0.0, r=0.5))
    v = cf_to_cov(g)
    rng = np.random.default_rng(7)
    rows, vals = [], []
    for _ in range(100):
        lam = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        x, y = -math.sqrt(2) * lam.imag, math.sqrt(2) * lam.real
        rows.append([x * x, 2 * x * y, y * y])
        vals.append(-2.0 * math.log(abs(eval_cf1(g, lam))))
    fit, *_ = np.linalg.lstsq(np.array(rows), np.array(vals), rcond=None)
    assert np.allclose(fit, [v[0, 0], v[0, 1], v[1, 1]], atol=1e-10)
    assert np.linalg.det(v) == pytest.approx(0.25, abs=1e-14)
    eig = np.linalg.eigvalsh(v)
    assert eig == pytest.approx([0.5 * math.exp(-1.0), 0.5 * math.exp(1.0)], abs=1e-12)


def test_cov_validation():
    # a one-mode block with det < 1/4 or a negative diagonal, beside a vacuum
    # block, in either position
    for diag, message in (([0.1, 0.1, 0.5, 0.5], "uncertainty relation"),
                          ([0.5, 0.5, 0.1, 0.1], "uncertainty relation"),
                          ([-1.0, 1.0, 0.5, 0.5], "diagonal covariances must be positive"),
                          ([0.5, 0.5, -1.0, 1.0], "diagonal covariances must be positive")):
        with pytest.raises(UnphysicalState, match=message):
            checked_invariants(np.diag(diag))
    # a singular block whose det V = qq pp - qp^2 overflows to inf - inf = nan
    singular = np.zeros((4, 4))
    singular[:2, :2], singular[2:, 2:] = 1e200, 0.5 * np.eye(2)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(UnphysicalState, match="uncertainty relation"):
        checked_invariants(singular)


def _bad_covariances():
    vacuum = 0.5 * np.eye(4)
    for i, j in ((0, 0), (3, 3), (1, 2), (0, 3)):
        for bad in (math.nan, math.inf, -math.inf):
            m = vacuum.copy()
            m[i, j] = bad
            yield m.copy()  # an off-diagonal one also breaks the symmetry
            m[j, i] = bad
            yield m
    for i, j in ((0, 1), (1, 3), (2, 0)):
        m = vacuum.copy()
        m[i, j] = 0.01
        yield m
    yield vacuum[:3, :3]
    yield vacuum.ravel()
    yield [[0.5, 0.0], [0.0, 0.5]]
    yield np.eye(5)
    # entries that are not real numbers, and a nesting that is no array
    yield [[1j, 0, 0, 0]] * 4
    yield [[1, 2], [3]]
    yield "abc"
    yield vacuum + 0.01j
    yield [[10 ** 400, 0, 0, 0]] + vacuum.tolist()[1:]
    # text and truth values, which a float cast would read as numbers
    yield np.eye(4, dtype=bool)
    yield [[str(x) for x in row] for row in vacuum.tolist()]
    yield np.array(vacuum.astype(str), dtype=object)


@pytest.mark.parametrize("m", list(_bad_covariances()))
def test_checked_invariants_names_non_finite_asymmetric_or_misshapen_input(m):
    with pytest.raises(DomainError,
                       match=r"^covariance matrix must be a finite symmetric 4x4 array$"):
        checked_invariants(m)


# --- CF evaluation ----------------------------------------------------------

def test_eval_cf1_normalization_and_bound():
    rng = np.random.default_rng(23)
    for _ in range(20):
        g = dsts_to_cf(random_dsts(rng))
        assert eval_cf1(g, 0j) == 1.0 + 0j
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert abs(eval_cf1(g, lam)) <= 1.0 + 1e-12


def test_eval_cf1_vacuum_and_coherent():
    lam = 0.4 - 0.7j
    assert eval_cf1(OneModeGaussianCF(0.0), lam) == pytest.approx(
        math.exp(-abs(lam) ** 2 / 2), abs=1e-15)
    alpha = 0.3 + 0.2j
    expected = np.exp(-abs(lam) ** 2 / 2 + np.conj(alpha) * lam - alpha * np.conj(lam))
    assert eval_cf1(OneModeGaussianCF(0.0, 0j, alpha), lam) == pytest.approx(expected, abs=1e-15)


def test_coefficient_and_covariance_forms_agree():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = dsts_to_cf(random_dsts(rng))
        v = cf_to_cov(g)
        for _ in range(10):
            lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert abs(eval_cf1(g, lam) - eval_cf1_cov(v, lam, g.c)) < 1e-10


# --- two-mode STS -----------------------------------------------------------

def test_sts_to_cf2_no_squeezing_is_thermal_product():
    p = TwoModeStsParams(nbar1=0.7, nbar2=0.2, r=0.0, phi=0.9)
    lam1, lam2 = 0.3 + 0.1j, -0.2 + 0.5j
    prod = eval_cf1(dsts_to_cf(DstsParams(0.7)), lam1) * eval_cf1(dsts_to_cf(DstsParams(0.2)), lam2)
    assert sts_cf2(p, lam1, lam2) == pytest.approx(prod, abs=1e-15)
    m = sts_to_cov2(p)
    assert (m[0, 0], m[2, 2]) == pytest.approx((1.2, 0.7)) and not m[:2, 2:].any()


def test_sts_to_cf2_pure_invariants():
    m = sts_to_cov2(TwoModeStsParams(0.0, 0.0, 1.0))
    sh, ch = math.sinh(1.0), math.cosh(1.0)
    assert m[0, 0] - 0.5 == pytest.approx(sh * sh, abs=1e-12)
    assert m[2, 2] - 0.5 == pytest.approx(sh * sh, abs=1e-12)
    assert math.hypot(m[0, 2], m[0, 3]) == pytest.approx(sh * ch, abs=1e-12)
    assert m[0, 1] == 0.0 and m[2, 3] == 0.0


def test_sts_to_cf2_local_invariant_asymmetric():
    m = sts_to_cov2(TwoModeStsParams(nbar1=1.0, nbar2=0.0, r=0.5))
    expected = 1.5 * math.cosh(0.5) ** 2 + 0.5 * math.sinh(0.5) ** 2
    assert m[0, 0] == pytest.approx(expected, abs=1e-12)


def test_sts_to_cov2_no_squeezing_block_diagonal():
    m = sts_to_cov2(TwoModeStsParams(nbar1=0.4, nbar2=1.1, r=0.0))
    assert np.allclose(m[:2, 2:], 0.0) and np.allclose(m[2:, :2], 0.0)
    assert np.allclose(m[:2, :2], 0.9 * np.eye(2))
    assert np.allclose(m[2:, 2:], 1.6 * np.eye(2))


def test_sts_to_cov2_is_read_only_array():
    m = sts_to_cov2(TwoModeStsParams(0.3, 0.1, 0.6, 0.4))
    assert isinstance(m, np.ndarray) and m.shape == (4, 4) and m.dtype == float
    assert np.array_equal(m, m.T)
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_sts_to_cov2_is_finite_where_its_entries_are_and_refuses_where_they_overflow():
    # nbar1 + nbar2 overflows: the cross block is exactly 0 at r = 0 and finite at small r
    m = sts_to_cov2(TwoModeStsParams(1e308, 1e308, 0.0))
    assert np.isfinite(m).all() and not m[:2, 2:].any() and not m[2:, :2].any()
    assert m[0, 0] == m[2, 2] == 1e308
    m = sts_to_cov2(TwoModeStsParams(1e308, 1e308, 1e-3, 0.4))
    g = 1e308 * math.sinh(2e-3)  # (nbar1 + nbar2 + 1) sinh r cosh r
    assert m[0, 2] == pytest.approx(g * math.cos(0.4), rel=1e-15)
    assert m[0, 3] == pytest.approx(g * math.sin(0.4), rel=1e-15)
    # (nbar + 1/2) cosh^2 r is about 1e560
    with pytest.raises(UnphysicalState, match="overflow double precision"):
        sts_to_cov2(TwoModeStsParams(1e300, 1e300, 300.0, 0.3))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("convert, state", [
    (dsts_to_cf, DstsParams(1e300, 300.0, 0.3)),
    (lambda s: checked_invariants(sts_to_cov2(s)), TwoModeStsParams(1e308, 1e308, 0.0)),
    (sts_to_cov2, TwoModeStsParams(1e300, 1e300, 300.0, 0.3)),
    # numpy scalars are stored as floats, whose overflow raises where numpy's warns
    (sts_to_cov2, TwoModeStsParams(np.float64(1e300), np.float64(1e300), np.float64(300.0), 0.3)),
    (dsts_to_cf, DstsParams(np.float64(1e300), np.float64(300.0), 0.3)),
    (lambda s: fidelity_one_mode(s, s), DstsParams(np.float64(1e300), 300.0)),
    (lambda s: fidelity_two_mode_sts(s, s), TwoModeStsParams(np.float64(1e300), np.float64(1e300), 300.0)),
    (lambda s: teleport_with_noise(s, 0.1), DstsParams(np.float64(1e300), 300.0)),
    (OneModeGaussianCF, np.float64(1e200)),
], ids=["dsts_to_cf", "checked_invariants", "sts_to_cov2", "sts_to_cov2-numpy", "dsts_to_cf-numpy",
        "fidelity_one_mode-numpy", "fidelity_two_mode_sts-numpy", "teleport_with_noise-numpy",
        "cf-numpy"])
def test_overflowing_conversions_raise_without_a_warning(convert, state):
    with pytest.raises(UnphysicalState):
        convert(state)


def test_sts_to_cov2_pure_det():
    *_, det_v = checked_invariants(sts_to_cov2(TwoModeStsParams(0.0, 0.0, 0.9)))
    assert det_v == pytest.approx(1.0 / 16.0, abs=1e-13)


def test_sts_to_cov2_invariants_example():
    p = TwoModeStsParams(nbar1=0.5, nbar2=0.2, r=0.8, phi=0.3)
    det_v1, det_v2, det_c, det_v = checked_invariants(sts_to_cov2(p))
    ch2, sh2 = math.cosh(p.r) ** 2, math.sinh(p.r) ** 2
    assert math.sqrt(det_v1) == pytest.approx(1.0 * ch2 + 0.7 * sh2, abs=1e-12)
    assert math.sqrt(det_v2) == pytest.approx(0.7 * ch2 + 1.0 * sh2, abs=1e-12)
    assert math.sqrt(-det_c) == pytest.approx(1.7 * math.sinh(p.r) * math.cosh(p.r), abs=1e-12)
    assert math.sqrt(det_v) == pytest.approx(1.0 * 0.7, abs=1e-12)


def test_sts_invariants_randomized_grid():
    rng = np.random.default_rng(47)
    for _ in range(50):
        p = random_sts(rng, nbar_max=2.0, r_max=1.5)
        det_v1, det_v2, det_c, det_v = checked_invariants(sts_to_cov2(p))
        ch2, sh2 = math.cosh(p.r) ** 2, math.sinh(p.r) ** 2
        n1, n2 = p.nbar1 + 0.5, p.nbar2 + 0.5
        assert abs(math.sqrt(det_v1) - (n1 * ch2 + n2 * sh2)) < 1e-12
        assert abs(math.sqrt(det_v2) - (n2 * ch2 + n1 * sh2)) < 1e-12
        assert abs(math.sqrt(-det_c)
                   - (p.nbar1 + p.nbar2 + 1) * math.sinh(p.r) * math.cosh(p.r)) < 1e-12
        assert abs(math.sqrt(det_v) - n1 * n2) < 1e-12


def test_sts_cov_heisenberg_inequality_on_grid():
    rng = np.random.default_rng(53)
    for _ in range(50):
        assert uncertainty_gap(sts_to_cov2(random_sts(rng, nbar_max=2.0, r_max=1.5))) >= -1e-12


def test_phi_zero_cross_block_convention():
    p = TwoModeStsParams(0.3, 0.1, 0.6, 0.0)
    m = sts_to_cov2(p)
    c = math.sqrt(-checked_invariants(m)[2])
    assert np.allclose(m[:2, 2:], np.diag([c, -c]), atol=1e-12)


# --- local invariants -------------------------------------------------------

def test_local_invariants_vacuum_product():
    *blocks, det_v = checked_invariants(sts_to_cov2(TwoModeStsParams(0.0, 0.0, 0.0)))
    assert blocks == [0.25, 0.25, 0.0]
    assert det_v == pytest.approx(1.0 / 16.0, abs=1e-16)


def test_local_invariants_sts_cross_determinant():
    det_c = checked_invariants(sts_to_cov2(TwoModeStsParams(0.0, 0.0, 1.0)))[2]
    assert det_c == pytest.approx(-(math.sinh(1.0) * math.cosh(1.0)) ** 2, abs=1e-12)


def invariants_reference(m):
    """(det V1, det V2, det C, det V) from the cofactors of the numpy entries
    and numpy's determinant, unchecked."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (float(m[0, 0] * m[1, 1] - m[0, 1] * m[0, 1]),
                float(m[2, 2] * m[3, 3] - m[2, 3] * m[2, 3]),
                float(m[0, 2] * m[1, 3] - m[0, 3] * m[1, 2]),
                float(np.linalg.det(m)))


def uncertainty_gap(m):
    """det V - (det V1 + det V2 + 2 det C)/4 + 1/16, >= 0 for a physical V."""
    det_v1, det_v2, det_c, det_v = invariants_reference(m)
    return det_v - 0.25 * (det_v1 + det_v2 + 2.0 * det_c) + 0.0625


_nbar = st.one_of(st.just(0.0), st.floats(0.0, sys.float_info.max),
                  st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e))
_r = st.one_of(st.just(0.0), st.floats(0.0, R_MAX),
               st.floats(-300.0, math.log10(R_MAX)).map(lambda e: 10.0 ** e))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.builds(TwoModeStsParams, _nbar, _nbar, _r, st.floats(-4.0, 4.0)))
def test_checked_invariants_are_the_cofactors_and_decide_the_verdict(p):
    # bit for bit: the block determinants from the entries, det V from numpy
    try:
        m = sts_to_cov2(p)
    except UnphysicalState:
        return
    det_v1, det_v2, det_c, det_v = ref = invariants_reference(m)
    try:
        inv = checked_invariants(m)
    except UnphysicalState as err:
        assert "overflow" in str(err)
        assert not all(map(math.isfinite, (*ref, det_v1 * det_v2, det_c * det_c)))
        return
    assert np.array(inv).tobytes() == np.array(ref).tobytes()
    sep_gap = det_v - 0.25 * (det_v1 + det_v2) + 0.0625 - 0.5 * abs(det_c)
    roundoff = 16.0 * sys.float_info.epsilon * max(det_v1 * det_v2, abs(det_v), det_c * det_c)
    if roundoff > 0.0625 and abs(sep_gap) <= roundoff:
        with pytest.raises(UnphysicalState, match="within roundoff"):
            peres_simon_separable(m)
        return
    verdict = peres_simon_separable(m)
    assert verdict is (sep_gap >= -SEP_TOL)
    # SEP_TOL on the gap, about r^2 near r_s = 0, admits r up to 1e-6 past r_s
    rs = separability_threshold_rs(p.nbar1, p.nbar2)
    assert verdict is (p.r <= rs) or p.r - rs <= 1e-6


def _det4_cofactor(m):
    # independent 4x4 determinant by Laplace expansion
    def det3(a):
        return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
    total = 0.0
    for j in range(4):
        minor = [[m[i][k] for k in range(4) if k != j] for i in range(1, 4)]
        total += (-1) ** j * m[0][j] * det3(minor)
    return total


def test_local_invariants_match_cofactor_determinants():
    rng = np.random.default_rng(59)
    for _ in range(10):
        p = random_sts(rng, nbar_max=1.5, r_max=1.2)
        base = sts_to_cov2(p)
        # jitter with a random PSD perturbation to leave the STS family
        w = rng.normal(scale=0.05, size=(4, 4))
        full = base + w @ w.T
        inv = checked_invariants(full)
        assert inv == invariants_reference(full)
        assert inv[3] == pytest.approx(_det4_cofactor(full.tolist()), rel=1e-10)
        assert inv[2] == pytest.approx(
            full[0, 2] * full[1, 3] - full[0, 3] * full[1, 2], abs=1e-12)


# --- two-mode CF evaluation and physicality ----------------------------------

def test_eval_cf2_normalization():
    assert sts_cf2(TwoModeStsParams(0.2, 0.3, 0.7, 1.2), 0j, 0j) == 1.0 + 0j


def test_two_mode_cf_rejects_unphysical():
    # vacuum blocks with the cross block of g = 2 (f = 0) and of f = 0.3 (g = 0)
    with pytest.raises(UnphysicalState):
        # cross correlations beyond what vacuum blocks allow (matrix not PD)
        checked_invariants([[0.5, 0, 2, 0], [0, 0.5, 0, -2], [2, 0, 0.5, 0], [0, -2, 0, 0.5]])
    with pytest.raises(UnphysicalState):
        # PD but classically correlated beyond the quantum bound
        checked_invariants([[0.5, 0, 0.3, 0], [0, 0.5, 0, 0.3], [0.3, 0, 0.5, 0], [0, 0.3, 0, 0.5]])


def test_cf2_to_cov2_consistency_with_direct_route():
    # chi(lam1, lam2) = exp(-X^T V X / 2) with lam_j = -(i/sqrt 2)(x_j + i y_j)
    rng = np.random.default_rng(61)
    for _ in range(10):
        p = random_sts(rng, nbar_max=2.0, r_max=1.5)
        v = sts_to_cov2(p)
        lam1, lam2 = (complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(2))
        x = math.sqrt(2.0) * np.array([-lam1.imag, lam1.real, -lam2.imag, lam2.real])
        assert abs(sts_cf2(p, lam1, lam2) - math.exp(-0.5 * x @ v @ x)) < 1e-12


# --- JSON descriptors ---------------------------------------------------------

def test_json_roundtrip_dsts():
    p = DstsParams(nbar=0.4, r=0.9, phi=-2.1, alpha=0.3 - 0.7j)
    q = parse_state(json.dumps(state_to_dict(p)))
    assert q == p


def test_json_roundtrip_sts2():
    p = TwoModeStsParams(nbar1=0.4, nbar2=0.1, r=0.9, phi=2.0)
    q = parse_state(json.dumps(state_to_dict(p)))
    assert q == p


@pytest.mark.parametrize("missing", ["nbar", "r", "phi", "alpha"])
def test_json_rejects_missing_dsts_field(missing):
    obj = state_to_dict(DstsParams(nbar=0.1, r=0.2, phi=0.3, alpha=0.1j))
    del obj[missing]
    with pytest.raises(DomainError):
        parse_state(obj)


@pytest.mark.parametrize("missing", ["nbar1", "nbar2", "r", "phi"])
def test_json_rejects_missing_sts2_field(missing):
    obj = state_to_dict(TwoModeStsParams(0.1, 0.2, 0.3, 0.4))
    del obj[missing]
    with pytest.raises(DomainError):
        parse_state(obj)


def test_json_rejects_bad_input():
    with pytest.raises(DomainError):
        parse_state("not json at all {")
    with pytest.raises(DomainError):
        parse_state({"kind": "qubit"})
    with pytest.raises(DomainError):
        parse_state({"kind": "dsts", "nbar": 0.1, "r": 0.0, "phi": 0.0, "alpha": 1.0})
    with pytest.raises(DomainError):
        parse_state(json.dumps([1, 2, 3]))
    with pytest.raises(DomainError, match="cannot serialize object of type OneModeGaussianCF"):
        state_to_dict(OneModeGaussianCF(0.0))


@pytest.mark.parametrize("source", [b'\xff\xfe{"kind"', b'{"kind": "\xe9"}', "[" * 100_000,
                                    b"[" * 100_000, '{"kind": "dsts", "nbar": ' + "9" * 5000 + "}"],
                         ids=["utf16-bom-truncated", "latin1", "nested-text", "nested-bytes", "long-int"])
def test_parse_state_rejects_undecodable_json(source):
    with pytest.raises(DomainError, match="invalid state JSON"):
        parse_state(source)


def test_parse_state_scale_bound():
    # benchmark-sized tails (s ~ 3e18) and r up to ~89 are accepted
    tail = {"kind": "sts2", "nbar1": 1e8, "nbar2": 1e8, "r": 12.0, "phi": 0.0}
    assert parse_state(tail).r == 12.0
    near = {"kind": "dsts", "nbar": 0.0, "r": 89.0, "phi": 0.0, "alpha": [0.0, 0.0]}
    assert parse_state(near).r == 89.0
    for field, value in (("r", 90.0), ("nbar", 1e78)):
        bad = dict(near, **{field: value})
        with pytest.raises(DomainError, match="^field 'nbar' or 'r' too large"):
            parse_state(bad)
    with pytest.raises(DomainError, match="^field 'nbar1', 'nbar2' or 'r' too large"):
        parse_state(dict(tail, r=90.0))
    # the sign checks come first
    with pytest.raises(DomainError, match="nbar must be >= 0"):
        parse_state(dict(near, nbar=-1))


_FIELDS = {"dsts": ("nbar", "r", "phi", "alpha"), "sts2": ("nbar1", "nbar2", "r", "phi")}
_occupancy = st.one_of(st.floats(0.0, 10.0), st.floats(0.0, sys.float_info.max),
                       st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e))
_squeeze = st.one_of(st.floats(0.0, 2.0), st.floats(0.0, 400.0))
_junk = st.one_of(st.floats(), st.integers(-2 ** 1100, 2 ** 1100), st.booleans(), st.none(),
                  st.text(max_size=4), st.lists(st.floats(-1.0, 1.0), max_size=3),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def _descriptors(draw):
    """A dsts or sts2 descriptor from the whole domain and past it, with up to
    two fields, the kind among them, dropped or replaced by a value of any
    JSON type (a float may be nan, inf or huge, an integer past the doubles)."""
    kind = draw(st.sampled_from(["dsts", "sts2"]))
    values = {"nbar": _occupancy, "nbar1": _occupancy, "nbar2": _occupancy, "r": _squeeze,
              "phi": st.floats(-10.0, 10.0),
              "alpha": st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=2)}
    obj = {"kind": kind, **{name: draw(values[name]) for name in _FIELDS[kind]}}
    for key in draw(st.lists(st.sampled_from(sorted(obj)), max_size=2, unique=True)):
        if draw(st.booleans()):
            del obj[key]
        elif key == "alpha" and draw(st.booleans()):
            obj[key] = [draw(st.one_of(st.floats(-1.0, 1.0), _junk)) for _ in range(2)]
        else:
            obj[key] = draw(_junk)
    return obj


def _parsed(source):
    """parse_state's state, or the message of its package error."""
    try:
        return parse_state(source)
    except (DomainError, UnphysicalState) as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(obj=_descriptors())
def test_parse_state_gives_a_state_or_a_package_error_and_round_trips(obj):
    # a bare OverflowError, ZeroDivisionError, TypeError or ValueError fails the test
    parsed = _parsed(obj)
    assert _parsed(json.dumps(obj)) == parsed  # the text of the descriptor reads the same
    if not isinstance(parsed, str):
        text = json.dumps(state_to_dict(parsed))
        assert parse_state(text) == parsed and json.dumps(state_to_dict(parse_state(text))) == text


def _scale_test_result(kind: str, occupancy: float, r: float):
    """parse_state's result on a state with the given occupancy (split in
    half between the modes for sts2) and r, next to the result the exact scale
    test on every state gives: the parsed state, or the error message."""
    if kind == "dsts":
        obj = {"kind": kind, "nbar": occupancy, "r": r, "phi": 0.3, "alpha": [0.1, 0.2]}
        log_s, fields = math.log(occupancy + 0.5) + _log_cosh(2.0 * r), "'nbar' or 'r'"
        built = DstsParams(occupancy, r, 0.3, 0.1 + 0.2j)
    else:
        half = 0.5 * occupancy
        obj = {"kind": kind, "nbar1": half, "nbar2": half, "r": r, "phi": 0.3}
        log_s = math.log(half + half + 1.0) + 2.0 * _log_cosh(r)
        fields, built = "'nbar1', 'nbar2' or 'r'", TwoModeStsParams(half, half, r, 0.3)
    expected = built if log_s <= _LOG_SCALE_MAX else (
        f"field {fields} too large: covariance scale exp({log_s:.6g}) has no finite fourth power")
    try:
        return parse_state(obj), expected
    except DomainError as exc:
        return str(exc), expected


def _limit(f, lo: float, hi: float) -> float:
    """The largest double x in [lo, hi] with f(x) true, for f true at lo, false
    at hi and monotone in between."""
    while math.nextafter(lo, hi) != hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) else (lo, mid)
    return lo


@pytest.mark.parametrize("kind", ["dsts", "sts2"])
def test_parse_state_scale_test_is_unchanged_around_its_fast_path(kind):
    # the test runs only past occupancy 1e70 or r = 4: on both sides of those
    # bounds and at the exact limit of the test the verdict and the message
    # are those of the test on every state
    up, down = (lambda x: math.nextafter(x, math.inf)), (lambda x: math.nextafter(x, 0.0))
    occupancies = [0.0, 1.0, down(1e70), 1e70, up(1e70), 1e75]
    radii = [0.0, 0.7, down(4.0), 4.0, up(4.0), 80.0]
    cases = [(n, r) for n in occupancies for r in radii]
    for n in occupancies[:-1]:  # the largest accepted r and the next double
        last = _limit(lambda r: not isinstance(_scale_test_result(kind, n, r)[1], str), 0.0, 100.0)
        cases += [(n, last), (n, up(last))]
    for r in radii[:-1]:  # the largest accepted occupancy and the next double
        last = _limit(lambda n: not isinstance(_scale_test_result(kind, n, r)[1], str), 0.0, 1e80)
        cases += [(last, r), (up(last), r)]
    verdicts = set()
    for n, r in cases:
        got, expected = _scale_test_result(kind, n, r)
        assert got == expected, (n, r)
        verdicts.add(isinstance(got, str))
    assert verdicts == {False, True}
