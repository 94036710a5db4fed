"""Polylogarithm evaluation on the closed unit disc.

Three routes are provided and cross-check each other:

* :func:`polylog` -- direct summation of sum z^n / n^s with an explicit
  tail bound carried in the result,
* :func:`li4_symmetric_circle` -- the exact quartic polynomial for
  Li_4(e^{i t}) + Li_4(e^{-i t}) (the only combination the sum bounds
  ever need on the circle),
* :func:`li4_quadrature` -- an exp-sinh quadrature of Li_4 in numpy,
  kept purely as an independent oracle for the series evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import _log, _log1p

__all__ = [
    "PolylogResult",
    "polylog",
    "li4_symmetric_circle",
    "li4_quadrature",
]

# Summation cutoff.  Only weight-2 sums at or very near the unit circle can
# hit it (they would need ~1e12 terms for 1e-12); everything the bound
# formulas use stays far below.  When the cap binds, the returned
# tail_bound reports the accuracy actually achieved.
_MAX_TERMS = 2_000_000
_MAX_WEIGHT = 48  # the largest s for which (_MAX_TERMS + 1)**s is a finite float

_ABS_TOL = 1e-12  # admits unit-circle inputs up to rounding
_QUAD_TOL = 1e-10  # relative agreement of two successive li4_quadrature sums
_QUAD_MAX_HALVINGS = 10  # steps 1/2 to 1/2048; every tested z stops at 1/32


@dataclass(frozen=True)
class PolylogResult:
    """Partial sum of the polylog series plus a rigorous tail majorant."""

    value: complex
    terms_used: int
    tail_bound: float


def _tail_bound(s: int, z: complex, m: int) -> float:
    """Majorant of |sum_{n>m} z^n / n^s| for |z| <= 1 (+rounding slack).

    The smallest of three that apply: the integral test, the geometric
    series (|z| < 1) and, for z != 1, summation by parts (Abel), which
    bounds the tail by 2 |z|^(m+1) / (|1 - z| (m+1)^s) on the circle too.
    """
    absz = abs(z)
    # |z| may exceed 1 by at most _ABS_TOL; inflate accordingly
    bounds = [m ** (1 - s) / (s - 1) * max(absz, 1.0) ** (m + 1)]
    if absz < 1.0:
        bounds.append(absz ** (m + 1) / ((m + 1) ** s * (1.0 - absz)))
    if z != 1.0:
        bounds.append(2.0 * absz ** (m + 1) / (abs(1.0 - z) * (m + 1) ** s))
    return min(bounds)


def _terms_needed(s: int, z: complex, tol: float) -> int:
    # the integral test alone reaches tol at m_int (capped first: inf for tol near
    # the smallest float); bisect on the smallest majorant below that, they fall with m
    m_int = math.ceil(min((1.0 / ((s - 1) * tol)) ** (1.0 / (s - 1)), _MAX_TERMS))
    lo, hi = 8, max(m_int, 8)
    while lo < hi:
        mid = (lo + hi) // 2
        if _tail_bound(s, z, mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


def polylog(s: int, z: complex, tol: float = 1e-12) -> PolylogResult:
    """Li_s(z) = sum_{n>=1} z^n / n^s by direct summation.

    Valid for integer 2 <= s <= 48 and |z| <= 1 (the series diverges on
    the circle for smaller s; above 48 the terms n^s can overflow a
    float).  The number of terms is chosen so the reported tail bound
    falls below `tol` whenever that is reachable within the term cap; the
    bound in the result is always truthful.  A real z gives an imaginary
    part of exactly 0.
    """
    if not isinstance(s, (int, np.integer)) or s < 2:
        raise ValueError("polylog weight s must be an integer >= 2")
    if s > _MAX_WEIGHT:
        raise ValueError(f"polylog weight s must be at most {_MAX_WEIGHT}")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    z = complex(z)
    absz = abs(z)
    if absz > 1.0 + _ABS_TOL:
        raise ValueError("polylog argument must satisfy |z| <= 1")
    if z == 0.0:
        return PolylogResult(0.0 + 0.0j, 0, 0.0)
    m = _terms_needed(s, z, tol)
    n = np.arange(1, m + 1)
    # a real z sums in float64: complex powers of -1 + 0j pick up phase roundoff
    base = z.real if z.imag == 0.0 else z
    value = complex(np.sum(np.power(base, n) / n.astype(float) ** s))
    return PolylogResult(value, m, _tail_bound(s, z, m))


def li4_symmetric_circle(theta: float) -> float:
    """Li_4(e^{i theta}) + Li_4(e^{-i theta}) = 2 sum cos(n theta)/n^4.

    Evaluated through the exact degree-4 polynomial
    2*(pi^4/90 - pi^2 theta^2/12 + pi theta^3/12 - theta^4/48),
    valid for theta in [0, 2*pi]; reduce other angles at the call site.
    """
    if not 0.0 <= theta <= 2.0 * np.pi:
        raise ValueError("theta must lie in [0, 2*pi]")
    pi = np.pi
    return 2.0 * (
        pi**4 / 90.0
        - pi**2 * theta**2 / 12.0
        + pi * theta**3 / 12.0
        - theta**4 / 48.0
    )


def li4_quadrature(z: complex) -> complex:
    """Li_4(z) = -(1/2) Int_0^inf u^2 log(1 - z e^{-u}) du by the exp-sinh rule.

    u = exp((pi/2) sinh t) (Takahasi & Mori 1974) makes the integrand decay
    double-exponentially in t; outside [-4, 3] it is below 1e-50 |Li_4(z)|.
    The trapezoidal step halves from 1/2 until two sums agree to 1e-10
    relative (|Li_4(z)| >= 0.9 |z|), and the finer one is returned; past
    the cap it raises RuntimeError.  Exists purely as a cross-check of
    :func:`polylog`; requires |z| <= 1 and z != 1 (the path then never
    meets the branch cut of the logarithm).
    """
    z = complex(z)
    if abs(z) > 1.0 + _ABS_TOL:
        raise ValueError("li4_quadrature argument must satisfy |z| <= 1")
    if z == 1.0:
        raise ValueError("z = 1 is excluded; use the series there")
    if z == 0.0:
        return 0.0 + 0.0j
    step, previous = 0.5, None
    for _ in range(_QUAD_MAX_HALVINGS + 1):
        t = np.arange(-4.0, 3.0 + step, step)
        u = np.exp(0.5 * np.pi * np.sinh(t))
        # log(1 + w), w = -z e^{-u}, split as in maps._map_minus_center
        w = -z * np.exp(-u)
        small = np.abs(w) < 0.5
        log = np.where(small, _log1p(np.where(small, w, 0.0)), _log(1.0 + w))
        # du = (pi/2) cosh(t) u dt
        estimate = -0.25 * np.pi * step * complex(np.sum(np.cosh(t) * u**3 * log))
        if previous is not None and abs(estimate - previous) <= _QUAD_TOL * abs(estimate):
            return estimate
        step, previous = step / 2.0, estimate
    raise RuntimeError(f"li4_quadrature did not converge at z = {z}")
