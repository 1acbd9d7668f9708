"""Three-mode enhanced squeezing toolkit.

Closed-form Gaussian machinery for the squeezed coherent states of the
all-to-all three-mode squeeze unitary, their higher-order quadrature moments
and collective-mode photon statistics, the Wigner function and the
displaced-parity Bell combination B(3), with a truncated-Fock brute-force
oracle validating every closed form at small parameters.
"""

from .bell import FIG2_ALPHA, BellSetting, b3, b3_oracle_check, fig2_scan, fig2_setting
from .errors import (
    DomainError,
    InvalidParameterError,
    NumericError,
    SingularParameterError,
    TruncationError,
)
from .fock import (
    FockArena,
    build_arena,
    coherent_ket,
    convergence_report,
    displaced_parity,
    evolve,
    mean_power,
    moment_x3,
    moment_y3,
)
from .gaussian import (
    GaussianState,
    MomentQuery,
    central_moment,
    hos_x,
    hos_y,
    make_state,
    normal_order_coefficients,
    two_mode_baseline_variance,
    wigner,
    wigner_normalization,
    x3_query,
    y3_query,
)
from .matrices import collective_factors, double_factorial
from .photon import (
    PkResult,
    fig1_scan,
    gm_pair,
    mean_power_exact,
    mean_power_paper,
    pk,
)

__version__ = "0.1.0"

__all__ = [
    "BellSetting",
    "DomainError",
    "FIG2_ALPHA",
    "FockArena",
    "GaussianState",
    "InvalidParameterError",
    "MomentQuery",
    "NumericError",
    "PkResult",
    "SingularParameterError",
    "TruncationError",
    "b3",
    "b3_oracle_check",
    "build_arena",
    "central_moment",
    "coherent_ket",
    "collective_factors",
    "convergence_report",
    "displaced_parity",
    "double_factorial",
    "evolve",
    "fig1_scan",
    "fig2_scan",
    "fig2_setting",
    "gm_pair",
    "hos_x",
    "hos_y",
    "make_state",
    "mean_power",
    "mean_power_exact",
    "mean_power_paper",
    "moment_x3",
    "moment_y3",
    "normal_order_coefficients",
    "pk",
    "two_mode_baseline_variance",
    "wigner",
    "wigner_normalization",
    "x3_query",
    "y3_query",
]
