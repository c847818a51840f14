"""Numerical laboratory for the Nahm-Schmid equations on u(n) and su(n).

The package integrates the full and reduced flows, audits their conserved
quantities, verifies the Lax-pair / spectral-curve structure, detects the
hypersymplectic degeneracy locus by boundary-value shooting, factorises
positive matrix polynomials and runs the associated factor flow, and
analyses the stability of commuting triples.
"""

from . import degeneracy, elliptic, flow, liealg, positive, serialize, spectral, stability
from .degeneracy import (
    DegeneracyReport,
    degeneracy_report,
    delta_apply,
    pi_bound_precheck,
    shooting_matrix,
)
from .elliptic import complete_K, jacobi
from .flow import (
    ConservedReport,
    MonodromyData,
    ProductSplit,
    SolverConfig,
    Su2CanonicalForm,
    Trajectory,
    complex_coords,
    complex_gauge_identity_check,
    conserved_report,
    from_boundary_data,
    gauge_apply,
    gauge_fix,
    integrate,
    lorentz_apply,
    lorentz_boost,
    lorentz_rotation,
    monodromy,
    product_split,
    quadruple_from_complex,
    real_equation_map,
    rhs_full,
    rhs_reduced,
    su2_canonicalize,
    su2_closed_form,
    su2_closed_form_trajectory,
)
from .liealg import (
    bracket,
    exp_unitary,
    inner,
    norm,
    project_antihermitian,
    su2_basis,
)
from .positive import (
    FactorPair,
    NotFactorizableError,
    PositivityReport,
    ab_flow_rhs,
    factorize_triple,
    integrate_ab,
    norm_bound_check,
    positivity_report,
    reconstruct,
    rosenblatt_factorize,
)
from .spectral import (
    LaxPolynomial,
    SpectralCurve,
    char_poly,
    conserved_C_from_trace,
    isospectral_drift,
    lax_from_quadruple,
    lax_residual,
)
from .stability import (
    ConvergenceResult,
    StabilityReport,
    halfline_convergence,
    stability_spectrum,
    stable_directions,
)

__version__ = "0.1.0"
