"""Logarithmic coefficients, extremal functions, and class-member generation.

The logarithmic coefficients gamma_n of a normalized analytic function f
are defined by log(f(z)/z) = sum 2 gamma_n z^n.  This module extracts
them from truncated series, gives the closed-form gammas of the extremal
functions that attain the sharp coefficient-sum bounds of both strip
classes, and generates class members by subordinating the target map
with one of three analytically safe Schwarz families (so every
precondition is provable, never sampled).  The extremal function itself
is the member with omega(z) = z: ``generate_member(target,
SchwarzSpec.identity(), order)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import DorffParam, StripParams
from .series import TruncatedSeries, log_normalized, series_exp

__all__ = [
    "SchwarzSpec",
    "log_coefficients",
    "extremal_gammas",
    "koebe_rotation",
    "generate_member",
    "random_strip_params",
    "random_dorff_param",
    "random_schwarz_spec",
]

SCALED_ROTATION = "scaled-rotation"
POWER = "power"
BLASCHKE = "blaschke-factor"


@dataclass(frozen=True)
class SchwarzSpec:
    """One of three closed-form Schwarz functions (omega(0) = 0, |omega| < 1).

    * scaled-rotation: omega(z) = c z, |c| <= 1
    * power:           omega(z) = c z**k, |c| <= 1, k >= 1
    * blaschke-factor: omega(z) = e^{i phi} z (z + a) / (1 + conj(a) z), |a| < 1
    """

    kind: str
    c: complex = 1.0
    k: int = 1
    a: complex = 0.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("c", "a", "phi"):
            value = complex(getattr(self, name))
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise ValueError(f"Schwarz parameter {name} must be finite")
        if self.kind in (SCALED_ROTATION, POWER):
            if abs(self.c) > 1.0 + 1e-12:
                raise ValueError("scaling factor must satisfy |c| <= 1")
            if self.kind == POWER and self.k < 1:
                raise ValueError("power exponent must be >= 1")
        elif self.kind == BLASCHKE:
            if abs(self.a) >= 1.0:
                raise ValueError("Blaschke zero must satisfy |a| < 1")
        else:
            raise ValueError(f"unknown Schwarz family {self.kind!r}")

    @classmethod
    def identity(cls) -> SchwarzSpec:
        return cls(SCALED_ROTATION, c=1.0)

    def describe(self) -> dict:
        """JSON-friendly parameter record."""
        out = {"kind": self.kind}
        if self.kind in (SCALED_ROTATION, POWER):
            out["c_re"], out["c_im"] = self.c.real, self.c.imag
            if self.kind == POWER:
                out["k"] = self.k
        else:
            out["a_re"], out["a_im"] = self.a.real, self.a.imag
            out["phi"] = self.phi
        return out


def log_coefficients(f: TruncatedSeries) -> np.ndarray:
    """gamma_1..gamma_{order-1} of a normalized series, at index n - 1:
    half the coefficients of the formal log(f/z)."""
    return log_normalized(f).coeffs[1:] / 2.0


def extremal_gammas(target, order: int) -> np.ndarray:
    """Closed-form gamma_1..gamma_order of the target's extremal function,
    without its series: half the integrated-map coefficients."""
    if order < 2:
        raise ValueError("order must be at least 2")
    return target.hat_coeff(np.arange(1, order + 1)) / 2.0


def koebe_rotation(eps: complex, order: int) -> tuple[TruncatedSeries, np.ndarray]:
    """Rotated Koebe function z/(1 - eps z)^2 for |eps| = 1.

    Coefficient n is n * eps**(n-1); gamma_n = eps**n / n, decaying only
    like 1/n.
    """
    eps = complex(eps)
    if abs(abs(eps) - 1.0) > 1e-12:
        raise ValueError("Koebe rotation requires |eps| = 1")
    if order < 2:
        raise ValueError("order must be at least 2")
    n = np.arange(1, order + 1)
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[1:] = n * eps ** (n - 1)
    gammas = eps**n / n
    return TruncatedSeries(coeffs), gammas


def _log_one_minus(lam: complex, w: SchwarzSpec, order: int) -> np.ndarray:
    """Coefficients of log(1 - lam * omega(z)) up to `order`, exactly.

    For each Schwarz family 1 - lam*omega is a ratio of polynomials of
    degree <= 2 in z, so the log splits into closed-form logs of linear
    and quadratic factors: log(1 - r z) contributes -r^n/n, and a
    quadratic contributes the power sums of its inverse roots.  All the
    inverse roots have modulus <= 1 here (omega maps the disc into
    itself and |lam| = 1), so the power sums stay bounded.
    """
    out = np.zeros(order + 1, dtype=complex)
    n = np.arange(1, order + 1)
    if w.kind in (SCALED_ROTATION, POWER):
        step = 1 if w.kind == SCALED_ROTATION else w.k
        factor = lam * w.c
        if factor != 0.0:
            m = np.arange(1, order // step + 1)
            out[step * m] = -_powers(factor, m) / m
        return out
    rot = np.exp(1j * w.phi)
    abar = np.conj(w.a)
    # 1 - lam*omega = (1 + b z + c2 z^2) / (1 + abar z)
    b = abar - lam * rot * w.a
    c2 = -lam * rot
    r1, r2 = np.roots([1.0, b, c2])
    out[1:] = (_powers(-abar, n) - _powers(r1, n) - _powers(r2, n)) / n
    return out


def _powers(r: complex, n: np.ndarray) -> np.ndarray:
    """r**n for n = 1, 2, ..., len(n), equal to np.power(r, n).

    From n = 100 on np.power computes cpow(r, n) = exp(n log r) one
    element at a time; the vectorised exp(n log r) is the same formula
    at a fraction of the cost.  Below 100 numpy squares repeatedly, whose
    error, unlike that of exp(n log r), does not grow with n.
    """
    if r == 0:
        return np.zeros(len(n), dtype=complex)
    out = np.exp(n * np.log(complex(r)))
    out[:99] = np.power(r, n[:99])
    return out


def generate_member(target, w: SchwarzSpec, order: int) -> TruncatedSeries:
    """The unique normalized f with z f'/f subordinated through omega.

    Builds q = target map evaluated at omega(z) coefficient-exactly from
    the closed-form factor logs, then f = z * exp(Int (q - 1)/t dt), the
    unique normalized f with z f'/f = q.  With omega(z) = z this
    reproduces the extremal function; with omega = 0 it returns the
    identity map z.
    """
    if order < 2:
        raise ValueError("order must be at least 2")
    kappa, lam1, lam2 = target.factors()
    q_minus_1 = kappa * (
        _log_one_minus(lam1, w, order - 1) - _log_one_minus(lam2, w, order - 1)
    )
    return series_exp(TruncatedSeries(q_minus_1).integrate_over_t()).shift()


def random_strip_params(rng: np.random.Generator) -> StripParams:
    """alpha ~ U[-2, 0.9], beta ~ U[1.1, 4]."""
    return StripParams(rng.uniform(-2.0, 0.9), rng.uniform(1.1, 4.0))


def random_dorff_param(rng: np.random.Generator) -> DorffParam:
    """delta ~ U[pi/2, pi - 1e-3]."""
    return DorffParam(rng.uniform(np.pi / 2.0, np.pi - 1e-3))


def random_schwarz_spec(rng: np.random.Generator) -> SchwarzSpec:
    """Uniform pick over the three families with moderate parameters."""
    kind = rng.integers(3)
    phase = np.exp(2j * np.pi * rng.uniform())
    if kind == 0:
        return SchwarzSpec(SCALED_ROTATION, c=complex(rng.uniform(0.0, 1.0) * phase))
    if kind == 1:
        c = complex(rng.uniform(0.0, 1.0) * phase)
        return SchwarzSpec(POWER, c=c, k=int(rng.integers(2, 6)))
    a = complex(rng.uniform(0.0, 0.8) * phase)
    return SchwarzSpec(BLASCHKE, a=a, phi=float(rng.uniform(0.0, 2.0 * np.pi)))
