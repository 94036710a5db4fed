"""Logarithmic coefficients, extremal functions, and class-member generation.

The logarithmic coefficients gamma_n of a normalized analytic function f
are defined by log(f(z)/z) = sum 2 gamma_n z^n.  This module extracts
them from truncated series, gives the closed-form gammas of the extremal
functions that attain the sharp coefficient-sum bounds of both strip
classes, and generates class members by subordinating the target map
through a closed-form Schwarz function omega(z) = s u B(u) at u = z^k,
with |s| <= 1 and B a finite Blaschke product (so every precondition is
provable, never sampled).  The extremal function itself is the member
with omega(z) = z: ``generate_member(target, SchwarzSpec.identity(),
order)``.  A target is either strip class, read only through its methods
(``factors``, ``hat_coeff``, ``hat_rotation``, the bounds), so no target
class is imported here.  The one seeded draw is
:func:`random_schwarz_spec`, which ``generate --seed`` and
``check-membership`` use.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .maps import _number, _store_numbers
from .series import TruncatedSeries, _require_order, log_normalized, series_exp

__all__ = [
    "SchwarzSpec",
    "log_coefficients",
    "extremal_gammas",
    "koebe_rotation",
    "generate_member",
    "random_schwarz_spec",
]

SCALED_ROTATION = "scaled-rotation"
POWER = "power"
BLASCHKE = "blaschke-factor"
# a zero-free member keeps E_j only up to where the Cauchy bound on what
# it drops falls to this (:func:`_cauchy_length`)
_CAUCHY_TAIL = 2.0**-60
# the number fields each kind reads (``SchwarzSpec._form``) and their types
_FIELDS = {SCALED_ROTATION: {"c": complex}, POWER: {"c": complex},
           BLASCHKE: {"a": complex, "phi": float}}


@dataclass(frozen=True)
class SchwarzSpec:
    """A closed-form Schwarz function (omega(0) = 0, |omega| < 1).

    Every kind is one form, omega(z) = s u B(u) at u = z**k, where
    |s| <= 1, k >= 1 and B(u) = prod_j (u + a_j) / (1 + conj(a_j) u) is
    a finite Blaschke product with zeros |a_j| < 1 (Garnett, *Bounded
    Analytic Functions*, ch. I).  Each kind reads only its own fields:

    * scaled-rotation: omega(z) = c z                  (s = c, k = 1, no zeros)
    * power:           omega(z) = c z**k               (s = c, no zeros)
    * blaschke-factor: omega(z) = e^{i phi} z B(z)     (s = e^{i phi}, k = 1, zero a)
    """

    kind: str
    c: complex = 1.0
    k: int = 1
    a: complex = 0.0
    phi: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _FIELDS:
            raise ValueError(f"unknown Schwarz family {self.kind!r}")
        _store_numbers(self, "Schwarz parameter", **_FIELDS[self.kind])
        for name in _FIELDS[self.kind]:
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"Schwarz parameter {name} must be finite")
        s, k, zeros = self._form()
        if abs(s) > 1.0 + 1e-12:
            raise ValueError("scaling factor must satisfy |c| <= 1")
        if self.kind == POWER:
            object.__setattr__(self, "k", _require_order(k, 1, "power exponent"))
        if any(abs(a) >= 1.0 for a in zeros):
            raise ValueError("Blaschke zero must satisfy |a| < 1")

    def _form(self) -> tuple[complex, int, tuple[complex, ...]]:
        """(s, k, zeros) of omega(z) = s u B(u) at u = z**k: the one place
        that maps a kind to omega."""
        if self.kind == BLASCHKE:
            return np.exp(1j * self.phi), 1, (self.a,)
        return self.c, self.k if self.kind == POWER else 1, ()

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
    order = _require_order(order, 2)
    return target.hat_coeff(np.arange(1, order + 1)) / 2.0


def koebe_rotation(eps: complex, order: int) -> tuple[TruncatedSeries, np.ndarray]:
    """Rotated Koebe function z/(1 - eps z)^2 for |eps| = 1.

    Coefficient n is n * eps**(n-1); gamma_n = eps**n / n, decaying only
    like 1/n.
    """
    eps = _number(eps, complex, "Koebe rotation eps")
    if not abs(abs(eps) - 1.0) <= 1e-12:  # NaN fails the test too
        raise ValueError("Koebe rotation requires |eps| = 1")
    order = _require_order(order, 2)
    n = np.arange(1, order + 1)
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[1:] = n * eps ** (n - 1)
    gammas = eps**n / n
    return TruncatedSeries(coeffs), gammas


def _roots(ls: complex, zeros: tuple) -> np.ndarray:
    """The inverse roots r_i of P(u) = prod_i (1 - r_i u), where
    1 - ls u B(u) = P(u) / prod_j (1 + conj(a_j) u) for B the Blaschke
    product with `zeros` (:class:`SchwarzSpec`), for Blaschke members
    only (:func:`generate_member`).

    They are the roots of u prod_j (u + conj(a_j)) - ls prod_j (a_j u + 1).
    With |ls| = 1 all lie on the unit circle (u B(u) has modulus below 1
    inside it and above 1 outside), so their powers stay bounded.
    """
    # ls multiplies each coefficient as a scalar: numpy's vectorised
    # complex product rounds differently, and np.roots can then swap roots
    tops, bottoms = _symmetric_sums([np.conj(a) for a in zeros]), _symmetric_sums(zeros)
    return np.roots([1.0, *(t - ls * b for t, b in zip(tops, reversed(bottoms))), -ls])


def _symmetric_sums(xs) -> list:
    """e_1..e_m of xs, so prod_j (u + x_j) = u^m + e_1 u^(m-1) + ... + e_m.

    A lone x is its own e_1, not x times 1, which can flip the sign of a
    zero part and with it the branch of the log in :func:`_powers`.
    """
    e = []
    for x in xs:
        e = [p + q for p, q in zip([*e, 0.0], [x, *(x * v for v in e)])] if e else [x]
    return e


def _powers(r: complex, n: np.ndarray) -> np.ndarray:
    """r**n for n = 1, 2, ..., len(n), for |r| <= 1.

    From n = 100 on, r^n = r^(bj) r^i from a two-level table with
    b = isqrt(len(n)), each level exp(m log r): about 2 sqrt(N) complex
    exps instead of N.  Against 30-digit mpmath its relative error stays
    below n eps max(1, |log r|) wherever r^n is a normal double, as does
    that of np.power, which computes exp(n log r) one element at a time
    there.  Below 100 the values are np.power's, which squares
    repeatedly and whose error does not grow with n; fewer than 100
    powers build no table.
    """
    count = len(n)
    if r == 0:
        return np.zeros(count, dtype=complex)
    if count < 100:
        return np.power(r, n).astype(complex)
    b = max(1, math.isqrt(count))
    log_r = np.log(complex(r))
    low = np.exp(np.arange(b) * log_r)
    high = np.exp(np.arange(0, count + 1, b) * log_r)
    out = np.multiply.outer(high, low).ravel()[1 : count + 1]
    out[:99] = np.power(r, n[:99])
    return out


def generate_member(target, w: SchwarzSpec, order: int) -> TruncatedSeries:
    """The unique normalized f with z f'/f subordinated through omega.

    f = z exp(Int (q - 1)/t dt) for q the target map at omega(z).  With
    omega(z) = z this reproduces the extremal function; with omega = 0
    it returns the identity map z.

    Omega depends on z only through u = z^k, so f(z) = z E(z^k) is the
    k-th root transform of the member E for omega_0(u) = s u B(u), built
    in u at order (order - 1) // k; E_j goes to coefficient 1 + jk and
    every other coefficient is an exact 0.  With zeros, q - 1 =
    kappa [log P_lam1 - log P_lam2], where coefficient n of log P_lam is
    -sum_i r_i^n / n over its inverse roots r_i (:func:`_roots`), and
    the exponent's coefficient n is that of q - 1 over nk, all in one
    pass.  Without zeros, the exponent is (rho_j / k) (tau s)^j
    (``target.hat_rotation``),
    so E_j = X_j (tau s / |s|)^j with X the exponential of the real series
    rho_j |s|^j / k, which keeps |s| so as to grow no faster than E.
    For |s| < 1, E(u) = exp(p_hat(s u) / k) is analytic past the unit
    disc and |E_j| <= M |s|^j by Cauchy's estimate, so only E_0..E_L are
    computed, L the proven length of :func:`_cauchy_length`, and the
    coefficients past 1 + Lk are exact zeros: they change f and f' by at
    most 2^-60 anywhere on the closed unit disc.  f.order stays `order`.
    """
    order = _require_order(order, 2)
    scale, step, zeros = w._form()
    m = (order - 1) // step
    coeffs = np.zeros(order + 1, dtype=complex)
    if zeros:
        n = np.arange(1, m + 1)
        kappa, *lams = target.factors()
        logs = [sum(-_powers(r, n) for r in _roots(lam * scale, zeros)) / n for lam in lams]
        a = np.concatenate([[0.0], kappa * (logs[0] - logs[1]) / n]) / step
        coeffs[1::step] = series_exp(TruncatedSeries(a)).coeffs
    else:
        r = abs(scale)
        n = np.arange(1, _cauchy_length(target, r, step, m) + 1)
        tau, rho = target.hat_rotation(n)
        a = np.concatenate([[0.0], rho * _powers(r, n).real / step])
        stop = 2 + step * len(n)  # past coefficient 1 + Lk, the last E_j kept
        coeffs[1:stop:step] = series_exp(TruncatedSeries(a)).coeffs
        coeffs[1 + step : stop : step] *= _powers(tau * scale / r if r else tau, n)
    return TruncatedSeries._take(coeffs)


def _cauchy_length(target, q: float, k: int, m: int) -> int:
    """The least L < m with sum_{j > L} (1 + jk) M q^j <= 2^-60, else m,
    for E(u) = exp(p_hat(s u) / k) with |s| = q (:func:`generate_member`).

    |hat_n| <= min(2B/n, 2C/n^2) with B = ``target.per_n_bound(1)`` and
    C = ``target.tail_constant``, the envelope of ``verify.sum_tail``.
    2B/n is the smaller up to K = floor(C/B) >= 1 (B <= C), so |p_hat| <=
    2B(1 + ln K) + 2C/K on the closed disc, or C pi^2/3 from 2C/n^2 alone
    where that is smaller; log M is that bound over k, |E| <= M on
    |u| = 1/q, and Cauchy's estimate gives |E_j| <= M q^j.  The sum bounds
    |f - f_L| and |f' - f_L'| on the closed unit disc for f_L = z E_L(z^k);
    its closed form M q^x [(1 + kx)(1 - q) + kq] / (1 - q)^2 at x = L + 1
    decreases in L and is compared in logs, where a huge M cannot overflow.
    """
    if q >= 1.0:
        return m
    if q == 0.0:
        return 0
    # Python floats, whose sums and products overflow to inf, not raise
    b, c = float(target.per_n_bound(1)), float(target.tail_constant)
    big = math.floor(c / b)
    log_m = min(c * math.pi**2 / 3.0, 2.0 * b * (1.0 + math.log(big)) + 2.0 * c / big) / k
    log_q = math.log(q)
    limit = math.log(_CAUCHY_TAIL) - log_m + 2.0 * math.log1p(-q)

    def below(j: int) -> bool:
        x = j + 1
        return x * log_q + math.log((1 + k * x) * (1.0 - q) + k * q) <= limit

    return bisect.bisect_left(range(m), True, key=below)


def random_schwarz_spec(rng: np.random.Generator) -> SchwarzSpec:
    """Uniform pick over the three families with moderate parameters."""
    kind = rng.integers(3)
    phase = np.exp(2j * np.pi * rng.uniform())
    if kind == 0:
        return SchwarzSpec(SCALED_ROTATION, c=rng.uniform(0.0, 1.0) * phase)
    if kind == 1:
        return SchwarzSpec(POWER, c=rng.uniform(0.0, 1.0) * phase, k=rng.integers(2, 6))
    a = rng.uniform(0.0, 0.8) * phase
    return SchwarzSpec(BLASCHKE, a=a, phi=rng.uniform(0.0, 2.0 * np.pi))
