"""Bound values, sharpness checks, and membership/subordination audits.

Every check emits a :class:`BoundReport` with the computed left-hand
quantity, the sharp bound it is tested against, a truncation-tail
estimate, and a verdict.
Verdicts follow one tolerance policy: ``tol = max(tail_estimate, 1e-9)``
unless the caller overrides it; truncation, not arithmetic, dominates
the error everywhere in this artifact.

Negative controls (deliberately violated inputs) are part of the checker
contracts so the discriminating power of each verdict is itself tested.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .logcoef import LogCoeffVector, extremal_gammas, log_coefficients
from .maps import DorffParam, StripParams
from .series import TruncatedSeries, coeffs_by_circle_sampling

__all__ = [
    "BoundReport",
    "bound_strip",
    "bound_dorff",
    "per_n_bound_strip",
    "per_n_bound_dorff",
    "sum_gamma_sq",
    "rogosinski_check",
    "membership_check",
    "convexity_probe",
    "reference_constants",
    "sharpness",
    "sharpness_strip",
    "sharpness_dorff",
    "audit_member",
]

HOLDS = "holds"
EQUALITY = "holds-with-equality"
VIOLATED = "violated"

TOLERANCE_FLOOR = 1e-9

# order * log(1/radius) >= this, so the series tail at the sampling
# radius is negligible against every membership margin we test
_MEMBERSHIP_TAIL_EXPONENT = 14.0


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check."""

    lhs: float
    rhs: float
    tail_estimate: float
    verdict: str
    context: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tail_estimate": self.tail_estimate,
            "verdict": self.verdict,
            "context": dict(self.context),
        }


def _resolve_tol(tail: float, tolerance: float | None) -> float:
    return max(tail, TOLERANCE_FLOOR) if tolerance is None else tolerance


def _report(
    lhs: float,
    rhs: float,
    tail: float,
    context: dict,
    tolerance: float | None = None,
    equality_applicable: bool = True,
) -> BoundReport:
    tol = _resolve_tol(tail, tolerance)
    if not np.all(np.isfinite((lhs, rhs))):
        # every comparison with NaN is false, which would read as holds
        verdict = VIOLATED
        context = {**context, "reason": "non-finite lhs or rhs"}
    elif lhs - rhs > tol:
        verdict = VIOLATED
    elif equality_applicable and abs(lhs + 0.5 * tail - rhs) <= tol:
        verdict = EQUALITY
    else:
        verdict = HOLDS
    return BoundReport(lhs, rhs, tail, verdict, context)


# -- bound values ------------------------------------------------------------


def bound_strip(p: StripParams) -> float:
    """Sharp upper bound for sum |gamma_n|^2 over the strip class."""
    return p.sum_bound()


def bound_dorff(d: DorffParam) -> float:
    """Sharp upper bound for sum |gamma_n|^2 over the Dorff class."""
    return d.sum_bound()


def per_n_bound_strip(p: StripParams, n: int) -> float:
    """Per-coefficient bound |gamma_n| <= (width/(n pi)) |sin(pi mu)|."""
    return p.per_n_bound(n)


def per_n_bound_dorff(n: int) -> float:
    """Per-coefficient bound |gamma_n| <= 1/(2n) for the Dorff class."""
    return DorffParam.per_n_bound(n)


def sum_gamma_sq(v: LogCoeffVector) -> tuple[float, float]:
    """(partial sum of |gamma_n|^2, tail estimate).

    The tail estimate is C^2/(3 N^3) from the vector's quadratic decay
    constant, or 0 when no tail bound is known.
    """
    partial = float(np.sum(np.abs(v.gammas) ** 2))
    c = v.tail_constant
    tail = (c * c) / (3.0 * v.order**3) if c > 0.0 else 0.0
    return partial, tail


# -- checks ------------------------------------------------------------------


def rogosinski_check(sub, dom, k_max: int, tolerance: float | None = None) -> BoundReport:
    """Partial-sum dominance sum_{n<=K} |sub_n|^2 <= sum_{n<=K} |dom_n|^2
    for every K <= k_max.

    Reports the worst K.  Identical sequences verdict as equality; a
    genuine excess verdicts as violated.
    """
    sub = np.asarray(sub, dtype=complex)[:k_max]
    dom = np.asarray(dom, dtype=complex)[:k_max]
    if len(sub) < k_max or len(dom) < k_max:
        raise ValueError(f"both sequences must reach index {k_max}")
    cum_sub = np.cumsum(np.abs(sub) ** 2)
    cum_dom = np.cumsum(np.abs(dom) ** 2)
    diff = cum_sub - cum_dom
    worst = int(np.argmax(diff))
    tol = _resolve_tol(0.0, tolerance)
    if diff[worst] > tol:
        verdict = VIOLATED
    elif np.max(np.abs(diff)) <= tol:
        verdict = EQUALITY
    else:
        verdict = HOLDS
    context = {"k_max": k_max, "worst_k": worst + 1, "max_excess": float(diff[worst])}
    return BoundReport(float(cum_sub[worst]), float(cum_dom[worst]), 0.0, verdict, context)


def membership_check(
    f: TruncatedSeries,
    target,
    radius: float,
    angles: int,
    tolerance: float | None = None,
) -> BoundReport:
    """Audit Re{z f'(z)/f(z)} against the target strip on a circle grid.

    Requires order * log(1/radius) >= 14 so the truncation tail at the
    sampling radius is dominated (a documented heuristic, not a proof).
    The lhs is the worst excursion beyond the strip edges (0 when every
    sample is strictly inside).
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    if f.order < 64 or f.order * np.log(1.0 / radius) < _MEMBERSHIP_TAIL_EXPONENT:
        raise ValueError(
            "series order too small for this radius: need order >= 64 "
            "and order * log(1/radius) >= 14"
        )
    if not f.is_normalized():
        raise ValueError("membership audit requires a normalized series")
    lower, upper = target.lower, target.upper
    f_vals = f.circle_values(radius, angles)
    zfp_vals = f.derivative().shift(1).circle_values(radius, angles)
    re = np.real(zfp_vals / f_vals)
    re_min, re_max = float(np.min(re)), float(np.max(re))
    excursion = max(0.0, lower - re_min, re_max - upper)
    context = {
        "radius": radius,
        "angles": angles,
        "order": f.order,
        "re_min": re_min,
        "re_max": re_max,
        "lower": lower,
        "upper": upper,
    }
    tail = radius**f.order
    return _report(excursion, 0.0, tail, context, tolerance, equality_applicable=False)


def convexity_probe(
    h,
    radius: float,
    angles: int,
    order: int = 2048,
    sample_radius: float | None = None,
    rings: int = 16,
    tolerance: float | None = None,
) -> BoundReport:
    """Numerical convexity witness: Re(1 + z h''/h') > 0 up to `radius`.

    `h` is any pointwise-evaluable map with h'(0) != 0, analytic on the
    closed sampling disc; its derivatives come from circle-sampled
    coefficients.  Raises if h' vanishes at a sample point (the probe
    quantity is then undefined there).
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    if sample_radius is None:
        sample_radius = (1.0 + radius) / 2.0
    if not radius < sample_radius < 1.0:
        raise ValueError("need radius < sample_radius < 1")
    s = coeffs_by_circle_sampling(h, order, sample_radius)
    h1 = s.derivative()
    h2 = h1.derivative()
    if abs(h1.coeffs[0]) < 1e-12:
        raise ValueError("probe requires h'(0) != 0")
    re_min = np.inf
    worst = None
    for r in np.linspace(radius / rings, radius, rings):
        theta = 2.0 * np.pi * np.arange(angles) / angles
        z = r * np.exp(1j * theta)
        d1 = h1.circle_values(r, angles)
        d2 = h2.circle_values(r, angles)
        small = np.abs(d1) < 1e-12
        if np.any(small):
            raise ValueError(f"h' vanishes at sample radius {r}")
        q = np.real(1.0 + z * d2 / d1)
        idx = int(np.argmin(q))
        if q[idx] < re_min:
            re_min = float(q[idx])
            worst = complex(z[idx])
    context = {
        "radius": radius,
        "angles": angles,
        "order": order,
        "sample_radius": sample_radius,
        "rings": rings,
        "re_min": re_min,
        "worst_re": worst.real,
        "worst_im": worst.imag,
    }
    tail = radius**order
    return _report(max(0.0, -re_min), 0.0, tail, context, tolerance, equality_applicable=False)


def reference_constants() -> dict:
    """Classical comparison constants for report annotation."""
    return {
        "pi2_over_6": np.pi**2 / 6.0,
        "roth": (2.0 * np.pi**2 - 12.0) / 3.0,
    }


# -- composite checks --------------------------------------------------------


def sharpness(target, order: int = 4096, tolerance: float | None = None) -> BoundReport:
    """Sharpness of the target's sum bound on its extremal function.

    Sums the closed-form |gamma_n|^2 to `order` and compares against
    ``target.sum_bound()`` within max(tail estimate, `tolerance`), the
    tolerance defaulting to 1e-9; the verdict must be holds-with-equality
    for every admissible parameter.
    """
    partial, tail = sum_gamma_sq(extremal_gammas(target, order))
    context = {**target.describe(), "order": order}
    tol = max(tail, TOLERANCE_FLOOR if tolerance is None else tolerance)
    return _report(partial, target.sum_bound(), tail, context, tol)


def sharpness_strip(
    p: StripParams, order: int = 4096, tolerance: float | None = None
) -> BoundReport:
    """Sharpness of the strip sum bound: :func:`sharpness`."""
    return sharpness(p, order, tolerance)


def sharpness_dorff(
    d: DorffParam, order: int = 4096, tolerance: float | None = None
) -> BoundReport:
    """Sharpness of the Dorff sum bound: :func:`sharpness`."""
    return sharpness(d, order, tolerance)


def audit_member(
    f: TruncatedSeries,
    target,
    radius: float,
    angles: int,
    k_max: int = 64,
    n_max: int = 128,
    tolerance: float | None = None,
) -> list[BoundReport]:
    """Full soundness audit of one class member.

    Four reports: strip membership of z f'/f, Rogosinski partial-sum
    dominance of 2*gamma against the integrated target map, the worst
    per-coefficient bound over n <= n_max, and the coefficient-sum bound
    (partial sums can only fall below the full-series bound, so equality
    is not expected for the last three on non-extremal members).
    """
    gam = log_coefficients(f.truncate(n_max + 1)).gammas
    n = np.arange(1, n_max + 1)
    dom = target.hat_coeff(np.arange(1, k_max + 1))
    # per_n_bound(1) / n rounds differently from per_n_bound(n) (the coeffs
    # command) in the last bit for many (target, n); both appear in printed
    # reports, so each keeps its own form
    bounds = target.per_n_bound(1) / n
    total = target.sum_bound()

    reports = [membership_check(f, target, radius, angles, tolerance)]

    rog = rogosinski_check(2.0 * gam[:k_max], dom, k_max, tolerance)
    reports.append(rog)

    slack = np.abs(gam) - bounds
    worst = int(np.argmax(slack))
    per_n = _report(
        float(np.abs(gam[worst])),
        float(bounds[worst]),
        0.0,
        {"worst_n": worst + 1, "n_max": n_max},
        tolerance,
        equality_applicable=False,
    )
    reports.append(per_n)

    partial = float(np.sum(np.abs(gam) ** 2))
    reports.append(
        _report(
            partial,
            total,
            0.0,
            {"n_max": n_max, "kind": "sum-vs-bound"},
            tolerance,
            equality_applicable=False,
        )
    )
    return reports
