"""Numerical toolkit for two starlike function classes tied to vertical strips.

Members f of either class keep Re{z f'(z)/f(z)} inside a strip; their
logarithmic coefficients gamma_n (from log(f/z) = sum 2 gamma_n z^n)
obey sharp per-coefficient and squared-sum bounds whose values reduce to
weight-4 polylogarithms on the unit circle.  The package computes the
maps, coefficients, bounds, and extremal functions, and verifies every
inequality numerically at desk scale.
"""

__version__ = "0.1.0"

from .logcoef import (
    SchwarzSpec,
    extremal_gammas,
    generate_member,
    koebe_rotation,
    log_coefficients,
    random_dorff_param,
    random_schwarz_spec,
    random_strip_params,
)
from .maps import (
    DorffParam,
    StripParams,
    a_dorff_coeff,
    b_strip_coeff,
    b_tilde_eval,
    dorff_eval,
    p_hat_eval,
    p_strip_eval,
)
from .polylog import PolylogResult, li4_quadrature, li4_symmetric_circle, polylog
from .series import (
    TruncatedSeries,
    coeffs_by_circle_sampling,
    log_normalized,
    series_exp,
)
from .verify import (
    BoundReport,
    audit_member,
    audit_min_order,
    convexity_probe,
    membership_check,
    reference_constants,
    rogosinski_check,
    sharpness,
    sharpness_dorff,
    sharpness_strip,
    sum_gamma_sq,
    sum_tail,
)

__all__ = [
    "__version__",
    "TruncatedSeries",
    "series_exp",
    "log_normalized",
    "coeffs_by_circle_sampling",
    "PolylogResult",
    "polylog",
    "li4_symmetric_circle",
    "li4_quadrature",
    "StripParams",
    "DorffParam",
    "p_strip_eval",
    "b_strip_coeff",
    "p_hat_eval",
    "dorff_eval",
    "a_dorff_coeff",
    "b_tilde_eval",
    "SchwarzSpec",
    "log_coefficients",
    "extremal_gammas",
    "koebe_rotation",
    "generate_member",
    "random_strip_params",
    "random_dorff_param",
    "random_schwarz_spec",
    "BoundReport",
    "sum_gamma_sq",
    "sum_tail",
    "rogosinski_check",
    "membership_check",
    "convexity_probe",
    "reference_constants",
    "sharpness",
    "sharpness_strip",
    "sharpness_dorff",
    "audit_member",
    "audit_min_order",
]
