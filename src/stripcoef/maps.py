"""One strip for both classes: the convex univalent map of a vertical
strip alpha < Re w < beta, 1 at the origin, and its integrated variant
Int_0^z (.)/t dt of the map minus its center, which majorizes
log(f(z)/z) over the class.  ``DorffParam`` is the strip of M(delta)
built from delta and turned by z -> e^{-i pi mu} z, so that its map
minus 1 is the Dorff map and its coefficients are real.  For either,
``target.hat_coeff(n)`` is the integrated map's coefficient and n times
it the map's; the map reads any strip, the integrated map one with
min(mu, 1 - mu) >= 1e-6/pi.

The strip class carries what the family-blind code needs: strip edges,
map factors, integrated-map coefficients and the coefficient bounds,
from fields stored as the Python floats that :func:`_store_numbers` checked.
The pointwise maps read the formula from the factors, as
``logcoef.generate_member`` does; a scalar point or index takes the array
path and returns its NumPy scalar (a ``complex`` or ``float`` subclass).

Each map takes one principal logarithm of the ratio of two factors with
positive real part on the disc, which equals the difference of their
logarithms, so no branch tracking is ever needed; each integrated map is
a difference of two principal dilogarithms.  Every logarithm is formed
from numpy's real ``log1p``, ``log``, ``hypot`` and ``arctan2`` (Kahan
1987): numpy's complex ``log`` is slower, and its complex ``log1p``
drops the digits of a small argument.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

__all__ = [
    "StripParams",
    "DorffParam",
    "p_strip_eval",
    "p_hat_eval",
    "dorff_eval",
    "b_tilde_eval",
]

# pi - np.pi rounded to a double
_PI_LOW = 1.2246467991473532e-16

# least min(mu, 1 - mu) of the integrated map's domain: the Dorff strip's at delta = pi - 1e-6
_INTEGRATED_MIN_PHASE = 1e-6 / np.pi


@dataclass(frozen=True)
class StripParams:
    """Strip edges alpha < 1 < beta; mu is the cached phase fraction."""

    family: ClassVar[str] = "strip"
    alpha: float
    beta: float
    mu: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _store_numbers(self, "strip parameter", alpha=float, beta=float)
        # the width too: finite edges can still overflow it
        if not all(map(math.isfinite, (self.alpha, self.beta, self.width))):
            raise ValueError("strip parameters must be finite")
        if not self.alpha < 1.0 < self.beta:
            raise ValueError("strip parameters require alpha < 1 < beta")
        object.__setattr__(
            self, "mu", (1.0 - self.alpha) / (self.beta - self.alpha)
        )
        # a subnormal or zero fraction has lost its digits: the bounds and
        # the phase built from it would be wrong or zero
        if self._phase()[1] < np.finfo(float).tiny:
            raise ValueError("strip edges too far apart: min(mu, 1 - mu) is not a normal double")

    @property
    def width(self) -> float:
        return self.beta - self.alpha

    @property
    def tail_constant(self) -> float:
        """C with |gamma_n| <= C/n**2 for the extremal gammas."""
        return self.width / np.pi

    def _phase(self) -> tuple[float, float]:
        """(s, t) with e^{2 pi i mu} = e^{2 pi i s t}: (1, mu) up to
        mu = 1/2, else (-1, nu) with nu = 1 - mu formed from the edges,
        whose digits a rounded mu near 1 has lost."""
        if self.mu <= 0.5:
            return 1.0, self.mu
        return -1.0, (self.beta - 1.0) / self.width

    def factors(self) -> tuple[complex, complex, complex]:
        """(kappa, lam1, lam2): the map minus its center equals
        kappa * [log(1 - lam1 w) - log(1 - lam2 w)]."""
        s, t = self._phase()
        return (self.width / np.pi) * 1j, np.exp(s * 2j * np.pi * t), 1.0 + 0.0j

    def hat_coeff(self, n):
        """Coefficient n >= 1 of the integrated map; n times it, the map's
        (width/(n pi)) i (1 - e^{2 pi i s r}), is at most 2 width/(n pi)."""
        n = _check_index(n)
        s, _, r, _ = _reduced_phase(self, n)
        one_minus_phase = _complex(2.0 * np.square(np.sin(np.pi * r)), -s * np.sin(2.0 * np.pi * r))
        return (self.width / (n * np.pi)) * 1j * one_minus_phase / n

    def hat_rotation(self, n):
        """(tau, rho_n) with hat_coeff(n) = rho_n tau**n and rho_n real:
        tau = e^{i pi s t} and rho_n = s (2 width/pi) sin(pi r) (-1)^j / n^2
        from the reduced r = n t - j of :meth:`hat_coeff`."""
        n = _check_index(n)
        s, t, r, j = _reduced_phase(self, n)
        rho = s * (2.0 * self.width / np.pi) * np.sin(np.pi * r) * _parity_sign(j) / n**2
        return np.exp(1j * np.pi * s * t), rho

    def per_n_bound(self, n):
        """|gamma_n| <= (width/(n pi)) |sin(pi mu)|, i.e. |B_1|/(2n)."""
        return (self.width / (_check_index(n) * np.pi)) * abs(np.sin(np.pi * self._phase()[1]))

    def sum_bound(self) -> float:
        """Sharp upper bound for sum |gamma_n|^2 over the strip class.

        (width^2 / 4 pi^2) * (pi^4/45 - [Li_4 at the conjugate pair of
        circle points with angle 2 pi mu]), in the closed form
        pi^2 (1-alpha)^2 (beta-1)^2 / (6 width^2) that the Bernoulli
        polynomial behind ``polylog.li4_symmetric_circle`` gives without
        cancellation; strictly positive for every admissible parameter pair.
        """
        return np.pi**2 / 6.0 * ((1.0 - self.alpha) / self.width * (self.beta - 1.0)) ** 2

    def describe(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta}


@dataclass(frozen=True)
class DorffParam(StripParams):
    """M(delta), delta in [pi/2, pi), as the strip it is, S(alpha, beta)
    with alpha = 1 - (pi - delta)/(2 sin delta) and beta = 1 + delta/(2 sin
    delta), turned by z -> e^{-i pi mu} z so that its map is the Dorff
    map and its integrated-map coefficients are real; NaN and inf fail."""

    family: ClassVar[str] = "dorff"
    alpha: float = field(init=False, repr=False)
    beta: float = field(init=False, repr=False)
    delta: float

    def __post_init__(self) -> None:
        _store_numbers(self, "dorff parameter", delta=float)
        if not np.pi / 2.0 <= self.delta < np.pi:
            raise ValueError("delta must lie in [pi/2, pi)")
        # pi - delta with the part of pi that np.pi drops added back, so
        # the lower edge keeps its digits as delta nears pi
        eps = (np.pi - self.delta) + _PI_LOW
        sin = np.sin(self.delta)
        object.__setattr__(self, "alpha", 1.0 - eps / (2.0 * sin))
        object.__setattr__(self, "beta", 1.0 + self.delta / (2.0 * sin))
        super().__post_init__()

    def factors(self) -> tuple[complex, complex, complex]:
        """The strip's factors at the turned point: lam1 e^{-i pi mu} = s tau
        and lam2 e^{-i pi mu} = s conj(tau), tau = e^{i pi s t}."""
        s, t = self._phase()
        lam = s * np.exp(1j * np.pi * s * t)
        return (self.width / np.pi) * 1j, lam, np.conj(lam)

    def hat_coeff(self, n):
        """Coefficient n of the integrated Dorff map, the real rho_n of :meth:`hat_rotation`."""
        return self.hat_rotation(n)[1]

    def hat_rotation(self, n):
        """(1, rho_n s^n): the strip's tau^n turned by e^{-i pi mu n} is s^n."""
        _, rho = super().hat_rotation(n)  # it checks n
        return 1.0, rho if self._phase()[0] > 0.0 else rho * _parity_sign(np.asarray(n))

    def describe(self) -> dict:
        return {"delta": self.delta}


def _number(value, kind: type, name: str):
    """`value` as a Python `kind`, float or complex; ValueError naming it
    unless it is a number of that kind (a string, which kind() parses, is
    not, nor a bool, which the size and array rules refuse as well)."""
    if isinstance(value, bool) or not isinstance(
        value, numbers.Real if kind is float else numbers.Complex
    ):
        raise ValueError(f"{name} must be a {'real' if kind is float else 'complex'} number")
    return kind(value)


def _store_numbers(obj, label: str, **kinds: type) -> None:
    """Store each named field of a frozen `obj` as the number :func:`_number`
    checked, so the code computes in doubles (an overflow raises) and records JSON."""
    for name, kind in kinds.items():
        object.__setattr__(obj, name, _number(getattr(obj, name), kind, f"{label} {name}"))


def _check_index(n) -> np.ndarray:
    """`n` as an integer array; ValueError unless every entry is an integer
    >= 1.  The index twin of ``series._require_order``: a bool, a float
    (NaN and infinity too) or anything else is refused rather than rounded."""
    n = np.asarray(n)
    if n.dtype.kind not in "iu" or (n < 1).any():
        raise ValueError("coefficient index must be an integer >= 1")
    return n


def _parity_sign(j) -> np.ndarray:
    """(-1)^j for an integer-valued array j, exactly: the bits of
    (-1.0) ** j without the power."""
    return np.where(j.astype(np.int64) & 1, -1.0, 1.0)


def _check_disc(z) -> np.ndarray:
    z = np.asarray(z)
    # the dtype before converting, as complex() parses a string; NaN fails too
    if z.dtype.kind not in "iufc" or not np.all(np.abs(z) < 1.0):
        raise ValueError("evaluation point must be a number with |z| < 1")
    return z.astype(complex, copy=False)


def _map_minus_center(target, z):
    """kappa log((1 - lam1 z) / (1 - lam2 z)) from ``target.factors()``.

    |lam| = 1 and |z| < 1 keep both factors in the right half-plane, so
    the principal log of their ratio is the difference of their logs.
    The ratio is 1 + w with w = (lam2 - lam1) z / (1 - lam2 z); each is
    its own numerator times conj(d) / |d|^2, d = 1 - lam2 z, so neither
    cancels.  lam2 - lam1 is the map's first coefficient over kappa,
    which ``hat_coeff(1)`` forms without the subtraction that loses the
    digits of a strip phase near 0 or 1 (:func:`_log1p_split`).
    """
    z = _check_disc(z)
    kappa, lam1, lam2 = target.factors()
    den = 1.0 - lam2 * z
    conj_den = np.conj(den)
    den_sq = den.real * den.real + den.imag * den.imag
    w = (target.hat_coeff(1) / kappa) * z * conj_den / den_sq
    return kappa * _log1p_split(w, (1.0 - lam1 * z) * conj_den / den_sq)


def _integrated_map(target, z):
    """kappa [Li_2(lam2 z) - Li_2(lam1 z)], the integral of the map minus
    its center over v from 0 to z, by Int_0^z log(1 - c v)/v dv = -Li_2(c z).

    lam1 and lam2 lie 2 sin(pi t) apart, t = min(mu, 1 - mu), so the
    difference keeps ~eps/t of relative rounding: t < 1e-6/pi raises.
    """
    if target._phase()[1] < _INTEGRATED_MIN_PHASE:
        raise ValueError("the integrated map needs min(mu, 1 - mu) >= 1e-6/pi")
    z = _check_disc(z)
    kappa, lam1, lam2 = target.factors()
    return kappa * (_li2(lam2 * z) - _li2(lam1 * z))


def p_strip_eval(p: StripParams, z):
    """Value of the vertical-strip map; Re of the result lies in (alpha, beta)."""
    return 1.0 + _map_minus_center(p, z)


def _reduced_phase(p: StripParams, n):
    """(s, t, r, j), e^{2 pi i n mu} = e^{2 pi i s r} with r = n t - j reduced
    exactly to (-1/2, 1/2]: no subtraction follows, and integer n t gives 0."""
    s, t = p._phase()
    nt = n * t
    j = np.ceil(nt - 0.5)
    return s, t, nt - j, j


# B_{2k} / (2k+1)! for k = 1..10 (B_2 = 1/6, B_4 = -1/30, ...): the
# coefficients of Li_2(w) = u - u^2/4 + sum_k B_{2k} u^(2k+1) / (2k+1)!
# with u = -log(1 - w).  On the half-disc Re w <= 1/2, |w| < 1 the bound
# is |u| <= pi/3, and there the first omitted term (k = 11) is below 1e-18.
_LI2_BERNOULLI = (
    0.027777777777777776,
    -0.0002777777777777778,
    4.72411186696901e-06,
    -9.185773074661964e-08,
    1.8978869988971e-09,
    -4.0647616451442256e-11,
    8.921691020456452e-13,
    -1.9939295860721074e-14,
    4.518980029619918e-16,
    -1.0356517612181247e-17,
)


def _li2(z):
    """Principal dilogarithm for |z| < 1 ('t Hooft & Veltman 1979).

    The Bernoulli series in u = -log(1 - w) on Re w <= 1/2, where
    |1 - w| >= 1/2 lets :func:`_log1p` keep every digit of u; the points
    with Re z > 1/2 are reflected, Li_2(z) = pi^2/6 - log z log(1 - z)
    - Li_2(1 - z), and w = 1 - z lies in that half-disc again.
    """
    z = np.asarray(z, dtype=complex)
    v = np.atleast_1d(z)  # 1-d, so the masked assignment below also works for 0-d input
    flip = v.real > 0.5
    w = np.where(flip, 1.0 - v, v)
    u = -_log1p(-w)
    t = u * u
    acc = np.full_like(t, _LI2_BERNOULLI[-1])
    for c in reversed(_LI2_BERNOULLI[:-1]):
        acc *= t
        acc += c
    li = u - 0.25 * t + u * t * acc
    # on the flipped points u = -log z; log w only there, so z = 0 never meets log 0
    li[flip] = np.pi**2 / 6.0 + u[flip] * _log(w[flip]) - li[flip]
    return li.reshape(z.shape)


def _log1p(w):
    """Principal log(1 + w) in real arithmetic (Kahan 1987), to a few ulps
    wherever |1 + w| >= 1/2.  numpy's complex log1p takes the log of
    |1 + w| and loses the digits of a small w."""
    x, y = w.real, w.imag
    return _complex(0.5 * np.log1p(x * (2.0 + x) + y * y), np.arctan2(y, 1.0 + x))


def _log1p_split(w, far):
    """log(1 + w): log1p of w where |w| < 1/2, elsewhere the log of `far`,
    the caller's 1 + w, which keeps its digits as |log(1 + w)| >= 0.4 there."""
    small = np.abs(w) < 0.5
    # the far points feed log1p a 0, so it meets no |1 + w| near 0
    return np.where(small, _log1p(np.where(small, w, 0.0)), _log(far))


def _log(v):
    """Principal log of v != 0 from its modulus and phase, in real arithmetic."""
    return _complex(np.log(np.abs(v)), np.arctan2(v.imag, v.real))


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = im
    return out


def p_hat_eval(p: StripParams, z):
    """Pointwise integrated strip map, via dilogarithm primitives."""
    return _integrated_map(p, z)


def dorff_eval(d: DorffParam, z):
    """Value of the Dorff map, the turned strip's map minus 1, for every delta < pi."""
    return _map_minus_center(d, z)


def b_tilde_eval(d: DorffParam, z):
    """Pointwise integrated Dorff map via dilogarithm primitives, for delta <= pi - 1e-6."""
    return _integrated_map(d, z)
