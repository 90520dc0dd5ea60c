import ast
import cmath
import dataclasses
import importlib
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cvgauss
from cvgauss import (
    ConvergenceFailure,
    DomainError,
    DstsParams,
    FockDensityMatrix,
    OneModeGaussianCF,
    TwoModeStsParams,
    UnphysicalState,
    closest_classical_numeric,
    closest_separable_numeric,
    degree_e0,
    degree_q0,
    dsts_dm,
    dsts_to_cf,
    fidelity_one_mode,
    fidelity_two_mode_sts,
    is_classical,
    peres_simon_separable,
    resource_noise,
    sts2_dm,
    sts_to_cov2,
    teleport_fidelity_from_states,
    teleport_symmetric_sts,
    teleport_with_noise,
)
from cvgauss.entanglement import separability_threshold_rs
from cvgauss.states import R_MAX

SRC = Path(cvgauss.__file__).parent


def test_all_matches_root_imports():
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                if node.module != "__future__"
                for alias in node.names}
    assert len(cvgauss.__all__) == len(set(cvgauss.__all__))
    assert set(cvgauss.__all__) == imported


def test_no_private_names_imported_from_sibling_modules():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [f"{path.name}: {alias.name} from .{node.module or ''}"
                              for alias in node.names if alias.name.startswith("_")]
    assert offenders == []


def _imported_names(tree):
    """Name bound by each import of a module, except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_no_unused_imports():
    # a name in __all__ counts as used: the package root re-exports its imports
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        module = cvgauss if path.stem == "__init__" else importlib.import_module(
            f"cvgauss.{path.stem}")
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(module, "__all__", ()))
        offenders += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in used]
    assert offenders == []


def test_no_environment_reads():
    offenders = [path.name for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")]
    assert offenders == []


def test_import_loads_no_scipy():
    code = "import sys, cvgauss; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# --- every public closed form on every constructible state ------------------------------

_DBL_MAX = sys.float_info.max
_nbar = st.one_of(st.just(0.0), st.floats(0.0, _DBL_MAX),
                  st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e))
_r = st.one_of(st.just(0.0), st.just(R_MAX), st.floats(0.0, R_MAX),
               st.floats(-300.0, math.log10(R_MAX)).map(lambda e: 10.0 ** e))
_phi = st.floats(allow_nan=False, allow_infinity=False)
_alpha = st.complex_numbers(allow_nan=False, allow_infinity=False)
_dsts = st.builds(DstsParams, _nbar, _r, _phi, _alpha)
_sts = st.builds(TwoModeStsParams, _nbar, _nbar, _r, _phi)


def _finite(value) -> bool:
    if isinstance(value, (DstsParams, OneModeGaussianCF)):
        return all(map(_finite, dataclasses.astuple(value)))
    return cmath.isfinite(value)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(p=_dsts, q=_dsts, s=_sts, t=_sts, z=_nbar)
def test_closed_forms_give_a_finite_value_or_a_package_error(p, q, s, t, z):
    calls = [
        (fidelity_one_mode, p, q), (fidelity_two_mode_sts, s, t), (degree_q0, p),
        (degree_e0, s), (dsts_to_cf, p), (lambda m: peres_simon_separable(sts_to_cov2(m)), s),
        (resource_noise, s), (teleport_with_noise, p, z), (teleport_symmetric_sts, p, s.nbar1, s.r),
        (teleport_fidelity_from_states, p, s.nbar1, s.r),
    ]
    for f, *args in calls:
        try:
            value = f(*args)
        except (DomainError, UnphysicalState):
            continue
        assert _finite(value), (f, args, value)


# a state cut short by its dim is still a matrix
@pytest.mark.filterwarnings("ignore::cvgauss.TruncationWarning")
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(p=_dsts, s=_sts, dim=st.integers(1, 6))
def test_fock_builders_give_a_matrix_or_a_package_error(p, s, dim):
    for build, state in ((dsts_dm, p), (sts2_dm, s)):
        for d in (None, dim):
            try:
                rho = build(state, d)
            except (DomainError, UnphysicalState):
                continue
            assert isinstance(rho, FockDensityMatrix) and 0.0 <= rho.tail_mass <= 1.0, (state, d)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(p=_dsts, s=_sts)
def test_searches_give_a_state_in_the_set_or_a_package_error(p, s):
    def separable(t):
        return t.r <= separability_threshold_rs(t.nbar1, t.nbar2) + 1e-12

    for search, state, inside in ((closest_classical_numeric, p, is_classical),
                                  (closest_separable_numeric, s, separable)):
        try:
            closest, value = search(state, n_starts=2)
        except (DomainError, UnphysicalState, ConvergenceFailure):
            continue
        assert 0.0 <= value <= 1.0 and inside(closest), (search, state, closest, value)
