"""Poly-double gamma numerics: multi-route evaluation of the logarithmic
derivatives of the Barnes G (double gamma) function, machine verification of
their monotonicity/inequality theory, and an audit of printed identities."""

from .errors import ConvergenceError, DomainError
from .polydg import (
    PolyDoubleArg,
    log_barnes_g,
    psi2_asymptotic,
    psi2_cached,
    psi2_didouble,
    psi2_eval,
    psi2_from_polygamma,
    psi2_integral,
    psi2_series,
)
from .specfun import EvalResult, hurwitz_zeta, log_gamma, polygamma
from .verify import (
    AuditEntry,
    CheckReport,
    Grid,
    audit_identities,
    check_F_cm,
    check_G_convexity,
    check_cauchy_schwarz,
    check_cm,
    check_hankel_cm,
    check_lemma_I1,
    check_ratio_bounds,
    check_subadditivity,
    check_turan,
    lemma_I1_value,
)

__all__ = [
    "AuditEntry",
    "CheckReport",
    "ConvergenceError",
    "DomainError",
    "EvalResult",
    "Grid",
    "PolyDoubleArg",
    "audit_identities",
    "check_F_cm",
    "check_G_convexity",
    "check_cauchy_schwarz",
    "check_cm",
    "check_hankel_cm",
    "check_lemma_I1",
    "check_ratio_bounds",
    "check_subadditivity",
    "check_turan",
    "hurwitz_zeta",
    "lemma_I1_value",
    "log_barnes_g",
    "log_gamma",
    "polygamma",
    "psi2_asymptotic",
    "psi2_cached",
    "psi2_didouble",
    "psi2_eval",
    "psi2_from_polygamma",
    "psi2_integral",
    "psi2_series",
]

__version__ = "0.1.0"
