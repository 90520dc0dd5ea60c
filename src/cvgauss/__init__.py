"""Numerical toolkit for Gaussian states of the radiation field: state
parametrizations, Uhlmann fidelity, nonclassicality and entanglement degrees,
separability, and CV teleportation as a Gaussian noise channel,
cross-validated against a truncated Fock-space oracle."""

from .entanglement import (
    closest_separable,
    closest_separable_numeric,
    degree_e0,
    entropy_of_entanglement_svs,
    peres_simon_separable,
    separability_threshold_rs,
)
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    TruncationWarning,
    UnphysicalState,
)
from .fidelity import (
    fidelity_one_mode,
    fidelity_two_mode_sts,
)
from .fock import (
    FockDensityMatrix,
    dsts_dm,
    sts2_dm,
    trace_product,
    uhlmann_fidelity_numeric,
    von_neumann_entropy,
)
from .nonclassicality import (
    closest_classical,
    closest_classical_numeric,
    degree_q0,
    is_classical,
    nonclassicality_threshold,
)
from .states import (
    DstsParams,
    OneModeGaussianCF,
    TwoModeStsParams,
    cf_to_cov,
    cf_to_dsts,
    dsts_to_cf,
    eval_cf1,
    parse_state,
    state_to_dict,
    sts_to_cov2,
)
from .teleport import (
    resource_noise,
    sweep_fig1,
    sweep_fig2,
    teleport_fidelity,
    teleport_fidelity_from_states,
    teleport_symmetric_sts,
    teleport_with_noise,
    z_from_e0,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceFailure",
    "DimensionMismatch",
    "DomainError",
    "DstsParams",
    "FockDensityMatrix",
    "OneModeGaussianCF",
    "TruncationWarning",
    "TwoModeStsParams",
    "UnphysicalState",
    "cf_to_cov",
    "cf_to_dsts",
    "closest_classical",
    "closest_classical_numeric",
    "closest_separable",
    "closest_separable_numeric",
    "degree_e0",
    "degree_q0",
    "dsts_dm",
    "dsts_to_cf",
    "entropy_of_entanglement_svs",
    "eval_cf1",
    "fidelity_one_mode",
    "fidelity_two_mode_sts",
    "is_classical",
    "nonclassicality_threshold",
    "parse_state",
    "peres_simon_separable",
    "resource_noise",
    "separability_threshold_rs",
    "state_to_dict",
    "sts2_dm",
    "sts_to_cov2",
    "sweep_fig1",
    "sweep_fig2",
    "teleport_fidelity",
    "teleport_fidelity_from_states",
    "teleport_symmetric_sts",
    "teleport_with_noise",
    "trace_product",
    "uhlmann_fidelity_numeric",
    "von_neumann_entropy",
    "z_from_e0",
]
