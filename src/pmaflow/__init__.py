"""Parabolic complex Monge-Ampere and Hessian flows on flat tori.

Solves the admissible-class flows (-d_t phi) det(I + H[phi]) = e^F and
f(-d_t phi, lambda[h_phi]) = e^F on discretized flat complex tori, and
measures the integral and level-set quantities (entropies, Moser-Trudinger
integrals, De Giorgi ladders, Holder moduli, stability ratios) that control
their a priori bounds.
"""

from .grid import (
    ScalarField,
    TorusGrid,
    Trajectory,
    hessian_parts,
    integrate,
    kernel_second_moment,
    load_trajectory,
    min_admissibility_eigenvalue,
    random_admissible_field,
    save_trajectory,
)
from .stepping import AdmissibilityLost, FlowParams, NewtonDiverged
from .flow_ma import RhsSpec, SLevelTooSmall, build_auxiliary_rhs
from .flow_hessian import (
    ConeViolation,
    HessianSymbol,
    hessian_residual,
    solve_hessian_flow,
    symbol_from_config,
)

__version__ = "0.1.0"
