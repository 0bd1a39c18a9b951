"""Parabolic complex Monge-Ampere and Hessian flows on flat tori.

Solves the admissible-class flows (-d_t phi) det(I + H[phi]) = e^F and
f(-d_t phi, lambda[h_phi]) = e^F on discretized flat complex tori, and
measures the integral and level-set quantities (entropies, Moser-Trudinger
integrals, De Giorgi ladders, Holder moduli, stability ratios) that control
their a priori bounds.
"""

from .grid import (
    DEFAULT_KERNEL,
    HessianData,
    RadialKernel,
    ScalarField,
    TorusGrid,
    Trajectory,
    complex_hessian,
    convolve_radial,
    hessian_eigenvalues,
    hessian_parts,
    integrate,
    load_field,
    load_trajectory,
    min_admissibility_eigenvalue,
    random_admissible_field,
    save_field,
    save_trajectory,
)
from .stepping import AdmissibilityLost, FlowParams, NewtonDiverged
from .flow_ma import (
    NormalizationProfile,
    RhsSpec,
    SLevelTooSmall,
    TabulatedRhs,
    build_auxiliary_rhs,
    comparison_check,
    implicit_step,
    ma_residual,
    normalize,
    solve_flow,
)
from .flow_hessian import (
    ConePoint,
    ConeViolation,
    HessianSymbol,
    f_eval_grad,
    hessian_residual,
    solve_hessian_flow,
    structural_check,
    symbol_from_config,
)

__version__ = "0.1.0"
