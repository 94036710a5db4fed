"""Reference constructions that only the tests need.

Each gives an independent route to a quantity the package computes in
closed form: Horner evaluation against ``circle_values``, truncated
composition against ``generate_member``'s factor logs, the map series
against circle sampling, and the integrated-map series against the
pointwise integrated maps and, exponentiated, ``generate_member`` with
omega(z) = z.
"""

import numpy as np

from stripcoef.maps import DorffParam, StripParams, a_dorff_coeff, b_strip_coeff
from stripcoef.series import _NORMALIZED_TOL, TruncatedSeries


def identity(order: int) -> TruncatedSeries:
    """The series of f(z) = z."""
    c = np.zeros(order + 1, dtype=complex)
    if order < 1:
        raise ValueError("identity needs order >= 1")
    c[1] = 1.0
    return TruncatedSeries(c)


def evaluate(s: TruncatedSeries, z):
    """Horner evaluation of `s` at a point or ndarray of points."""
    result = np.full_like(np.asarray(z, dtype=complex), s.coeffs[-1])
    for c in s.coeffs[-2::-1]:
        result = result * z + c
    if np.ndim(z) == 0:
        return complex(result)
    return result


def compose_schwarz(h: TruncatedSeries, w: TruncatedSeries) -> TruncatedSeries:
    """Taylor coefficients of h(w(z)) for a Schwarz-type inner series.

    Requires w_0 = 0 (composition is then well defined order by order).
    Horner evaluation over truncated series; result order is the smaller
    of the two operand orders, and coefficients beyond it are unknown,
    not zero.
    """
    if abs(w.coeffs[0]) > _NORMALIZED_TOL:
        raise ValueError("compose_schwarz requires w(0) = 0")
    n = min(h.order, w.order)
    wc = w.coeffs[: n + 1]
    acc = np.zeros(n + 1, dtype=complex)
    acc[0] = h.coeffs[n]
    for c in h.coeffs[:n][::-1]:
        acc = np.convolve(acc, wc)[: n + 1]
        acc[0] += c
    return TruncatedSeries(acc)


def schwarz_series(spec, order: int) -> TruncatedSeries:
    """Taylor coefficients of the Schwarz function `spec` up to `order`."""
    w = np.zeros(order + 1, dtype=complex)
    if spec.kind == "scaled-rotation":
        if order >= 1:
            w[1] = spec.c
    elif spec.kind == "power":
        if order >= spec.k:
            w[spec.k] = spec.c
    else:
        rot = np.exp(1j * spec.phi)
        abar = np.conj(spec.a)
        n = np.arange(1, order + 1)
        w[1:] = spec.a * (-abar) ** (n - 1)
        if order >= 2:
            w[2:] += (-abar) ** (n[1:] - 2)
        w[1:] *= rot
    return TruncatedSeries(w)


def _series(c0: complex, coeffs: np.ndarray) -> TruncatedSeries:
    """c0 + sum_{n=1..len(coeffs)} coeffs[n - 1] z**n."""
    return TruncatedSeries(np.concatenate([[c0], coeffs]))


def p_strip_series(p: StripParams, order: int) -> TruncatedSeries:
    """Truncated Taylor series of the strip map (constant term 1)."""
    return _series(1.0, b_strip_coeff(p, np.arange(1, order + 1)))


def dorff_series(d: DorffParam, order: int) -> TruncatedSeries:
    """Truncated Taylor series of the Dorff map (vanishes at 0)."""
    return _series(0.0, a_dorff_coeff(d, np.arange(1, order + 1)))


def hat_series(target, order: int) -> TruncatedSeries:
    """Truncated Taylor series of the integrated target map (vanishes at 0)."""
    return _series(0.0, target.hat_coeff(np.arange(1, order + 1)))
