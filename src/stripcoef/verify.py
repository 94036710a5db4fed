"""Bound values, sharpness checks, and membership/subordination audits.

Every check emits a :class:`BoundReport` with the computed left-hand
quantity, the sharp bound it is tested against, a truncation-tail
estimate, and a verdict, as Python ints, floats (NumPy's float64 among
them) and strings; a radius is used as the float :func:`_check_radius` returns.
Every verdict is taken within one `tolerance`, ``TOLERANCE_FLOOR`` = 1e-9
by default.  Only an equality check's proven tail widens it (:func:`_report`);
the circle audits' ``radius**order`` bounds no stated quantity and widens nothing.

Negative controls (deliberately violated inputs) are part of the checker
contracts so the discriminating power of each verdict is itself tested.
The two circle audits share the circle layer, which lives here alone:
the cached grid (:func:`_circle_grid`) and the fold (:func:`_fold`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .logcoef import extremal_gammas, log_coefficients
from .maps import DorffParam, StripParams, _number
from .series import TruncatedSeries, _fft_len, _require_order

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


def _report(
    lhs: float,
    rhs: float,
    tail: float,
    context: dict,
    tolerance: float = TOLERANCE_FLOOR,
    equality_applicable: bool = False,
    reason: str | None = None,
) -> BoundReport:
    """Verdict of lhs <= rhs within `tolerance`.

    A NaN, infinite or negative `tolerance` raises; an equality check
    then widens it to its proven `tail`, and no other check is widened.
    A `reason` forces `violated` and is recorded in the context, as is a
    non-finite side (every comparison with NaN is false and reads holds).
    """
    if not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
    if equality_applicable:
        tolerance = max(tolerance, tail)
    if reason is None and not (math.isfinite(lhs) and math.isfinite(rhs)):
        reason = "non-finite lhs or rhs"
    if reason is not None:
        verdict = VIOLATED
        context = {**context, "reason": reason}
    elif lhs - rhs > tolerance:
        verdict = VIOLATED
    elif equality_applicable and abs(lhs + 0.5 * tail - rhs) <= tolerance:
        verdict = EQUALITY
    else:
        verdict = HOLDS
    return BoundReport(lhs, rhs, tail, verdict, context)


def _check_radius(radius: float) -> float:
    radius = _number(radius, float, "radius")
    if not 0.0 < radius < 1.0:  # NaN fails the test too
        raise ValueError("radius must lie in (0, 1)")
    return radius


def audit_min_order(radius: float, n_max: int = _AUDIT_N_MAX) -> int:
    """Smallest series order :func:`audit_member` accepts at `radius`.

    Its membership check needs order >= 64 and order >= 14/log(1/radius),
    so the truncation tail at the sampling radius is dominated (a
    documented heuristic, not a proof); its coefficient checks read the
    first n_max + 1 terms.  ``n_max=0`` gives the membership floor alone;
    an `n_max` that is not an integer >= 0 raises ValueError.
    """
    radius = _check_radius(radius)
    n_max = _require_order(n_max, 0, "n_max")
    tail_order = int(np.ceil(_MEMBERSHIP_TAIL_EXPONENT / np.log(1.0 / radius)))
    return max(_MEMBERSHIP_MIN_ORDER, tail_order, n_max + 1)


def _check_order(f: TruncatedSeries, radius: float, n_max: int) -> None:
    need = audit_min_order(radius, n_max)
    if f.order < need:
        raise ValueError(f"series order {f.order} too small for radius {radius}: need {need}")


def sum_gamma_sq(gammas) -> float:
    """The partial sum of |gamma_n|^2."""
    return float((np.abs(gammas) ** 2).sum())


def sum_tail(target, order: int) -> float:
    """Upper bound on sum_{n > order} |gamma_n|^2 for the target's extremal gammas.

    |gamma_n| <= min(C/n^2, B/n) with C = ``target.tail_constant`` and
    B = ``target.per_n_bound(1)``; B/n is the smaller below n = C/B.  The
    integral test bounds the sum: C^2/(3 N^3) when C/B <= N, else
    B^2 (1/N - 1/k) + C^2/(3 k^3) with k = floor(C/B).  Requires order >= 1.
    """
    order = _require_order(order, 1)
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
# a factor 2 for the turn between them (a sampling condition, not a
# proof), and fewer than 5 of them reach 2 pi only at equality
_MAX_PHASE_STEP = np.pi / 2.0


def _winding(name: str, values: np.ndarray) -> int | None:
    """Winding number about 0 of the closed polygon through `values`, or
    None when it is undersampled (fewer than 5 values, or a phase step
    above ``_MAX_PHASE_STEP``).  The steps are the phases of the forward
    ratios v[j+1]/v[j], the last closing the circle, divided in place;
    ValueError where a value is 0 or not finite."""
    if not (np.isfinite(values).all() and values.all()):
        # no winding number exists, and the step ratios would divide by 0
        raise ValueError(f"{name} vanishes or is not finite at a sample point")
    ratios = np.empty_like(values)
    np.divide(values[1:], values[:-1], out=ratios[:-1])
    ratios[-1] = values[0] / values[-1]
    steps = np.angle(ratios)
    if len(values) < 5 or not (np.abs(steps) <= _MAX_PHASE_STEP).all():
        return None
    return round(float(steps.sum()) / (2.0 * np.pi))


def _fold(modes: np.ndarray, angles: int) -> np.ndarray:
    """sum_k modes[k] w**k at w = exp(2 pi i j / angles): w**k has period
    `angles`, so folding modulo it and one inverse FFT are exact.  The
    rows of the zero-padded modes are summed in order from +0, as a loop
    over them would; one row is that row plus +0, zero-padded by the
    inverse FFT itself."""
    if len(modes) <= angles:
        return np.fft.ifft(modes + 0.0, angles) * angles
    rows = np.zeros(-(-len(modes) // angles) * angles, dtype=complex)
    rows[: len(modes)] = modes
    return np.fft.ifft(rows.reshape(-1, angles).sum(axis=0, initial=0.0)) * angles


# a convexity probe samples on two grids and its callers repeat them
@functools.lru_cache(maxsize=8)
def _circle_grid(radius: float, angles: int) -> np.ndarray:
    """The points radius * exp(2 pi i j / angles), j = 0..angles-1.

    Cached, so the array is read-only: every caller shares it.
    """
    grid = radius * np.exp(1j * (2.0 * np.pi * np.arange(angles) / angles))
    grid.setflags(write=False)
    return grid


def _circle_audit(name: str, g, zg, radius: float, angles: int, degree: int) -> tuple:
    """Re(z g'/g) and g/z on :func:`_circle_grid` (radius, angles), and the
    reason from the zero count of g/z, taken again on a 5-smooth grid of
    >= max(angles, degree) points when undersampled.  `g` and `zg` are
    the modes of g and z g' (coefficient k times radius**k), those past
    len(g) being 0 up to `degree`; `angles` is a Python int >= 1
    (:func:`series._require_order`).  Raises ValueError where g/z is 0 or
    not finite, before dividing by g."""
    g_vals = _fold(g, angles)
    g_over_z = g_vals / _circle_grid(radius, angles)
    count = _winding(name, g_over_z)
    if count is None:
        # g[1:] are the modes of radius * g/z, which has the phase of g/z
        count = _winding(name, _fold(g[1:], _fft_len(max(angles, degree))))
    if count is None:
        reason = "zero count undersampled"
    else:
        reason = None if count == 0 else f"zero count {count} for {name} inside the circle"
    return np.real(_fold(zg, angles) / g_vals), g_over_z, reason


# -- checks ------------------------------------------------------------------


def rogosinski_check(sub, dom, k_max: int, tolerance: float = TOLERANCE_FLOOR) -> BoundReport:
    """Partial-sum dominance sum_{n<=K} |sub_n|^2 <= sum_{n<=K} |dom_n|^2
    for every K <= k_max.

    Reports the worst K.  Identical sequences verdict as equality; a
    genuine excess, or a NaN in either sequence, verdicts as violated.
    """
    k_max = _require_order(k_max, 1, "k_max")
    sub, dom = np.asarray(sub), np.asarray(dom)
    if (
        {sub.ndim, dom.ndim} != {1}
        or not {sub.dtype.kind, dom.dtype.kind} <= set("iufc")
        or min(len(sub), len(dom)) < k_max
    ):
        raise ValueError(f"both sequences must hold numbers up to index {k_max}")
    sub, dom = sub[:k_max], dom[:k_max]
    cum_sub = (np.abs(sub.astype(complex, copy=False)) ** 2).cumsum()
    cum_dom = (np.abs(dom.astype(complex, copy=False)) ** 2).cumsum()
    diff = cum_sub - cum_dom
    worst = int(diff.argmax())
    equal = bool(np.abs(diff).max() <= tolerance)
    context = {"k_max": k_max, "worst_k": worst + 1, "max_excess": float(diff[worst])}
    lhs, rhs = float(cum_sub[worst]), float(cum_dom[worst])
    return _report(lhs, rhs, 0.0, context, tolerance, equality_applicable=equal)


def membership_check(
    f: TruncatedSeries,
    target,
    radius: float,
    angles: int,
    tolerance: float = TOLERANCE_FLOOR,
) -> BoundReport:
    """Audit Re{z f'(z)/f(z)} against the target strip on a circle grid.

    Requires order >= ``audit_min_order(radius, n_max=0)``.  The lhs is
    the worst excursion beyond the strip edges (0 when every sample is
    strictly inside).  A zero of f/z inside the circle (a pole of
    z f'/f) makes the verdict violated whatever the excursion; the
    argument principle counts such zeros (:func:`_circle_audit`).  Raises
    ValueError when f/z is 0 or not finite at a sample point, where
    z f'/f is undefined.
    """
    radius = _check_radius(radius)
    _check_order(f, radius, 0)
    angles = _require_order(angles, 1, "angles")
    if not f.is_normalized():
        raise ValueError("membership audit requires a normalized series")
    lower, upper = target.alpha, target.beta
    # up to the last nonzero coefficient: trailing exact zeros would only
    # add rows of zeros to the fold's sum, which leave it as it is
    # (a nonzero test on the float view: np.flatnonzero on complex took 9x)
    k = np.arange(np.flatnonzero(f.coeffs.view(float) != 0.0)[-1] // 2 + 1)
    c, scale = f.coeffs[: len(k)], radius**k
    re, _, reason = _circle_audit("f/z", c * scale, (k * c) * scale, radius, angles, f.order)
    re_min, re_max = float(re.min()), float(re.max())
    # np.max keeps a NaN, which the builtin max drops when it comes second
    excursion = float(np.max([0.0, lower - re_min, re_max - upper]))
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
    closed disc of radius (1 + radius)/2, once, on the first 5-smooth
    M >= 4 (order + 1) points there; all M modes are kept, those of
    g = z h' at `radius` being k dft_k / M (radius / sample_radius)**k.
    By Alexander's relation the probe quantity is z g'/g, harmonic where
    h' != 0, so its minimum over the disc lies on the circle |z| = radius,
    the only ring sampled; any zero of h' inside makes the verdict
    violated (:func:`_circle_audit`).  Raises if h' vanishes, relative to
    |h'(0)|, at a sample point of either grid; so the probe of c h is that
    of h.  The verdict is taken within ``TOLERANCE_FLOOR``.
    """
    radius = _check_radius(radius)
    order = _require_order(order, 1)
    angles = _require_order(angles, 1, "angles")
    sample_radius = (1.0 + radius) / 2.0
    m = _fft_len(4 * (order + 1))
    grid = _circle_grid(sample_radius, m)
    vals = np.asarray(h(grid), dtype=complex)
    if vals.shape != grid.shape:
        raise ValueError(f"h returned shape {vals.shape} for a grid of {m} points")
    dft = np.fft.fft(vals)
    # both zero guards are relative, as c h has the verdict of h:
    # |h'(0)| sample_radius against max |h|, then min |h'| against |h'(0)|
    slope = abs(dft[1]) / (m * sample_radius)  # |h'(0)|
    if slope * sample_radius <= 1e-12 * np.max(np.abs(vals)):
        raise ValueError("probe requires h'(0) != 0")
    k = np.arange(m)
    # (radius / sample_radius)**k by exp, which is 3x faster than np.power here
    w = k * (np.exp(k * np.log(radius / sample_radius)) / m)
    q, h1, reason = _circle_audit("h'", dft * w, dft * (k * w), radius, angles, m - 1)
    if np.any(np.abs(h1) < 1e-12 * slope):
        raise ValueError(f"h' vanishes at sample radius {radius}")
    z = _circle_grid(radius, angles)
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
    return _report(max(0.0, -re_min), 0.0, radius**order, context, reason=reason)


def reference_constants() -> dict:
    """Classical comparison constants for report annotation."""
    return {
        "pi2_over_6": np.pi**2 / 6.0,
        "roth": (2.0 * np.pi**2 - 12.0) / 3.0,
    }


# -- composite checks --------------------------------------------------------


def sharpness(target, order: int = 4096, tolerance: float = TOLERANCE_FLOOR) -> BoundReport:
    """Sharpness of the target's sum bound on its extremal function.

    Sums the closed-form |gamma_n|^2 to `order` and checks equality with
    ``target.sum_bound()`` (:func:`_report` widens `tolerance` to the
    :func:`sum_tail`); holds-with-equality for every admissible parameter.
    """
    partial = sum_gamma_sq(extremal_gammas(target, order))
    tail = sum_tail(target, order)
    context = {**target.describe(), "order": int(order)}
    return _report(partial, target.sum_bound(), tail, context, tolerance, equality_applicable=True)


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
    tolerance: float = TOLERANCE_FLOOR,
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

    mod = np.abs(gam)
    worst = int((mod - bounds).argmax())
    per_n = _report(
        float(mod[worst]),
        float(bounds[worst]),
        0.0,
        {"worst_n": worst + 1, "n_max": n_max},
        tolerance,
    )
    reports.append(per_n)

    reports.append(
        _report(
            sum_gamma_sq(mod), total, 0.0, {"n_max": n_max, "kind": "sum-vs-bound"}, tolerance
        )
    )
    return reports
