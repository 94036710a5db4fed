"""Bound values, sharpness checks, and membership/subordination audits.

Every check emits a :class:`BoundReport` with the computed left-hand
quantity, the sharp bound it is tested against, a truncation-tail
estimate, and a verdict.
Verdicts follow one tolerance policy: ``tol = max(tail_estimate, 1e-9)``
unless the caller overrides it; truncation, not arithmetic, dominates
the error everywhere in this artifact.  :func:`sharpness` keeps the tail
in even then: its tolerance is ``max(tail_estimate, tolerance)``.

Negative controls (deliberately violated inputs) are part of the checker
contracts so the discriminating power of each verdict is itself tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .logcoef import extremal_gammas, log_coefficients
from .maps import DorffParam, StripParams
from .series import TruncatedSeries, _circle_grid, _fft_len, coeffs_by_circle_sampling

__all__ = [
    "BoundReport",
    "audit_min_order",
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
]

HOLDS = "holds"
EQUALITY = "holds-with-equality"
VIOLATED = "violated"

TOLERANCE_FLOOR = 1e-9

# order * log(1/radius) >= this, so the series tail at the sampling
# radius is negligible against every membership margin we test
_MEMBERSHIP_TAIL_EXPONENT = 14.0
_MEMBERSHIP_MIN_ORDER = 64
# audit_member checks gamma_1..gamma_n_max against the per-n and sum bounds,
# and Rogosinski dominance over the first k_max of them
_AUDIT_N_MAX = 128
_AUDIT_K_MAX = 64


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one inequality check."""

    lhs: float
    rhs: float
    tail_estimate: float
    verdict: str
    context: dict = field(default_factory=dict)


def _resolve_tol(tail: float, tolerance: float | None) -> float:
    return max(tail, TOLERANCE_FLOOR) if tolerance is None else tolerance


def _report(
    lhs: float,
    rhs: float,
    tail: float,
    context: dict,
    tolerance: float | None = None,
    equality_applicable: bool = False,
    reason: str | None = None,
) -> BoundReport:
    """Verdict of lhs <= rhs within the tolerance policy.

    A `reason` forces `violated` and is recorded in the context, as is a
    non-finite side (every comparison with NaN is false, which would
    read as holds).
    """
    tol = _resolve_tol(tail, tolerance)
    if reason is None and not (math.isfinite(lhs) and math.isfinite(rhs)):
        reason = "non-finite lhs or rhs"
    if reason is not None:
        verdict = VIOLATED
        context = {**context, "reason": reason}
    elif lhs - rhs > tol:
        verdict = VIOLATED
    elif equality_applicable and abs(lhs + 0.5 * tail - rhs) <= tol:
        verdict = EQUALITY
    else:
        verdict = HOLDS
    return BoundReport(lhs, rhs, tail, verdict, context)


def audit_min_order(radius: float, n_max: int = _AUDIT_N_MAX) -> int:
    """Smallest series order :func:`audit_member` accepts at `radius`.

    Its membership check needs order >= 64 and order >= 14/log(1/radius),
    so the truncation tail at the sampling radius is dominated (a
    documented heuristic, not a proof); its coefficient checks read the
    first n_max + 1 terms.  ``n_max=0`` gives the membership floor alone.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    tail_order = int(np.ceil(_MEMBERSHIP_TAIL_EXPONENT / np.log(1.0 / radius)))
    return max(_MEMBERSHIP_MIN_ORDER, tail_order, n_max + 1)


def _check_order(f: TruncatedSeries, radius: float, n_max: int) -> None:
    need = audit_min_order(radius, n_max)
    if f.order < need:
        raise ValueError(f"series order {f.order} too small for radius {radius}: need {need}")


def sum_gamma_sq(gammas) -> float:
    """The partial sum of |gamma_n|^2."""
    return float(np.sum(np.abs(gammas) ** 2))


def sum_tail(target, order: int) -> float:
    """Upper bound on sum_{n > order} |gamma_n|^2 for the target's extremal gammas.

    |gamma_n| <= min(C/n^2, B/n) with C = ``target.tail_constant`` and
    B = ``target.per_n_bound(1)``; B/n is the smaller below n = C/B.  The
    integral test bounds the sum: C^2/(3 N^3) when C/B <= N, else
    B^2 (1/N - 1/k) + C^2/(3 k^3) with k = floor(C/B).
    """
    c = target.tail_constant
    b = target.per_n_bound(1)
    if c <= b * order:
        # C^2/(3 N^3) with the exponent of C taken out of the square, which
        # then cannot overflow while the tail is finite; the bits are those
        # of (c * c) / (3.0 * order**3) wherever that does not overflow
        m, e = math.frexp(c)
        return math.ldexp(m * m / (3.0 * order**3), 2 * e)
    k = np.floor(c / b)
    return b * b * (1.0 / order - 1.0 / k) + (c / k) ** 2 / (3.0 * k)


# the discrete winding number is the curve's when its phase turns by
# less than pi between neighbouring samples; steps of at most pi/2 leave
# a factor 2 for the turn between them (a sampling condition, not a proof)
_MAX_PHASE_STEP = np.pi / 2.0


def _winding(name: str, values: np.ndarray) -> int | None:
    if not np.all(np.isfinite(values) & (values != 0.0)):
        # no winding number exists, and the step ratios would divide by 0
        raise ValueError(f"{name} vanishes or is not finite at a sample point")
    steps = np.angle(np.roll(values, -1) / values)
    if not np.all(np.abs(steps) <= _MAX_PHASE_STEP):
        return None
    return round(float(np.sum(steps)) / (2.0 * np.pi))


def _zero_reason(
    name: str, series: TruncatedSeries, radius: float, values: np.ndarray
) -> str | None:
    """The forced-violation reason when `series` has zeros inside |z| = radius.

    The argument principle counts them: `values` are the series' values on
    the circle grid of :meth:`TruncatedSeries.circle_values`, and their
    discrete winding number about 0 is accepted when every phase step is
    at most pi/2; otherwise the series is sampled once more, on a 5-smooth
    grid of at least max(angles, number of coefficients) points.  None
    for a count of 0; an undersampled count (steps still too large) and
    any other count give a reason.  Raises ValueError when a sample on
    either grid is 0 or not finite.
    """
    count = _winding(name, values)
    if count is None:
        m = _fft_len(max(len(values), len(series.coeffs)))
        count = _winding(name, series.circle_values(radius, m))
    if count is None:
        return "zero count undersampled"
    return None if count == 0 else f"zero count {count} for {name} inside the circle"


# -- checks ------------------------------------------------------------------


def rogosinski_check(sub, dom, k_max: int, tolerance: float | None = None) -> BoundReport:
    """Partial-sum dominance sum_{n<=K} |sub_n|^2 <= sum_{n<=K} |dom_n|^2
    for every K <= k_max.

    Reports the worst K.  Identical sequences verdict as equality; a
    genuine excess, or a NaN in either sequence, verdicts as violated.
    """
    sub = np.asarray(sub, dtype=complex)[:k_max]
    dom = np.asarray(dom, dtype=complex)[:k_max]
    if len(sub) < k_max or len(dom) < k_max:
        raise ValueError(f"both sequences must reach index {k_max}")
    cum_sub = np.cumsum(np.abs(sub) ** 2)
    cum_dom = np.cumsum(np.abs(dom) ** 2)
    diff = cum_sub - cum_dom
    worst = int(np.argmax(diff))
    equal = bool(np.max(np.abs(diff)) <= _resolve_tol(0.0, tolerance))
    context = {"k_max": k_max, "worst_k": worst + 1, "max_excess": float(diff[worst])}
    lhs, rhs = float(cum_sub[worst]), float(cum_dom[worst])
    return _report(lhs, rhs, 0.0, context, tolerance, equality_applicable=equal)


def membership_check(
    f: TruncatedSeries,
    target,
    radius: float,
    angles: int,
    tolerance: float | None = None,
) -> BoundReport:
    """Audit Re{z f'(z)/f(z)} against the target strip on a circle grid.

    Requires order >= ``audit_min_order(radius, n_max=0)``.  The lhs is
    the worst excursion beyond the strip edges (0 when every sample is
    strictly inside).  A zero of f/z inside the circle (a pole of
    z f'/f) makes the verdict violated whatever the excursion; the
    argument principle counts such zeros (:func:`_zero_reason`).  Raises
    ValueError when f/z is 0 or not finite at a sample point, where
    z f'/f is undefined.
    """
    _check_order(f, radius, 0)
    if not f.is_normalized():
        raise ValueError("membership audit requires a normalized series")
    lower, upper = target.lower, target.upper
    f_vals = f.circle_values(radius, angles)
    f_over_z = TruncatedSeries(f.coeffs[1:])
    # before the division by f_vals: it raises on a zero sample
    reason = _zero_reason("f/z", f_over_z, radius, f_vals / _circle_grid(radius, angles))
    zfp_vals = f.derivative().shift().circle_values(radius, angles)
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
    return _report(excursion, 0.0, radius**f.order, context, tolerance, reason=reason)


def convexity_probe(h, radius: float, angles: int, order: int = 2048) -> BoundReport:
    """Numerical convexity witness: Re(1 + z h''/h') > 0 on |z| <= `radius`.

    `h` is any pointwise-evaluable map with h'(0) != 0, analytic on the
    closed disc of radius (1 + radius)/2; its derivatives come from
    coefficients circle-sampled at that radius.  Where h' != 0 the probe
    quantity is harmonic, so its minimum over the disc lies on the circle
    |z| = radius, the only ring sampled; the argument principle counts
    the zeros of h' inside (:func:`_zero_reason`), and any makes the
    verdict violated.  Raises if h' vanishes at a sample point of either
    grid (the probe quantity or the count is then undefined there).  The
    verdict takes the default
    tolerance policy.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("radius must lie in (0, 1)")
    sample_radius = (1.0 + radius) / 2.0
    s = coeffs_by_circle_sampling(h, order, sample_radius)
    h1 = s.derivative()
    h2 = h1.derivative()
    if abs(h1.coeffs[0]) < 1e-12:
        raise ValueError("probe requires h'(0) != 0")
    z = _circle_grid(radius, angles)
    d1 = h1.circle_values(radius, angles)
    if np.any(np.abs(d1) < 1e-12):
        raise ValueError(f"h' vanishes at sample radius {radius}")
    q = np.real(1.0 + z * h2.circle_values(radius, angles) / d1)
    idx = int(np.argmin(q))
    re_min = float(q[idx])
    context = {
        "radius": radius,
        "angles": angles,
        "order": order,
        "sample_radius": sample_radius,
        "re_min": re_min,
        "worst_re": float(z[idx].real),
        "worst_im": float(z[idx].imag),
    }
    reason = _zero_reason("h'", h1, radius, d1)
    return _report(max(0.0, -re_min), 0.0, radius**order, context, reason=reason)


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
    ``target.sum_bound()`` within max(:func:`sum_tail`, `tolerance`), the
    tolerance defaulting to 1e-9; the verdict must be holds-with-equality
    for every admissible parameter.
    """
    partial = sum_gamma_sq(extremal_gammas(target, order))
    tail = sum_tail(target, order)
    context = {**target.describe(), "order": order}
    tol = max(tail, TOLERANCE_FLOOR if tolerance is None else tolerance)
    return _report(partial, target.sum_bound(), tail, context, tol, equality_applicable=True)


# sharpness_strip and sharpness_dorff stay: perfbench/workloads.py calls them by name
def sharpness_strip(p: StripParams, order: int = 4096) -> BoundReport:
    """Sharpness of the strip sum bound: :func:`sharpness`."""
    return sharpness(p, order)


def sharpness_dorff(d: DorffParam, order: int = 4096) -> BoundReport:
    """Sharpness of the Dorff sum bound: :func:`sharpness`."""
    return sharpness(d, order)


def audit_member(
    f: TruncatedSeries,
    target,
    radius: float,
    angles: int,
    tolerance: float | None = None,
) -> list[BoundReport]:
    """Full soundness audit of one class member.

    Four reports: strip membership of z f'/f, Rogosinski partial-sum
    dominance of 2*gamma against the integrated target map over the first
    64 coefficients, the worst per-coefficient bound over n <= 128, and
    the coefficient-sum bound over the same 128 (partial sums can only
    fall below the full-series bound, so equality is not expected for the
    last three on non-extremal members).  The series order must reach
    ``audit_min_order(radius)``.
    """
    k_max, n_max = _AUDIT_K_MAX, _AUDIT_N_MAX
    _check_order(f, radius, n_max)
    gam = log_coefficients(f.truncate(n_max + 1))
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
    )
    reports.append(per_n)

    reports.append(
        _report(
            sum_gamma_sq(gam), total, 0.0, {"n_max": n_max, "kind": "sum-vs-bound"}, tolerance
        )
    )
    return reports
