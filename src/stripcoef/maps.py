"""The two convex univalent target maps and their integrated variants.

``p_strip_*`` functions realize the conformal map of the unit disc onto a
vertical strip alpha < Re w < beta, normalized to 1 at the origin;
``dorff_*`` functions realize the Dorff map, whose real part fills the
strip ((delta - pi)/(2 sin delta), delta/(2 sin delta)).  Each map comes
in pointwise-evaluation and closed-form-coefficient form, plus the
integrated variant obtained by applying Int_0^z (.)/t dt, which majorizes
log(f(z)/z) over the corresponding function class.

Both parameter classes carry what the family-blind code needs: strip
edges, map factors, integrated-map coefficients and the coefficient bounds.
The pointwise maps read each family's formula from its factors, as
``logcoef.generate_member`` does.

Each map takes one principal logarithm of the ratio of two factors with
positive real part on the disc, which equals the difference of their
logarithms, so no branch tracking is ever needed; each integrated map is
a difference of two principal dilogarithms.  Every logarithm is formed
from numpy's real ``log1p``, ``log``, ``hypot`` and ``arctan2`` (Kahan
1987): numpy's complex ``log`` is slower, and its complex ``log1p``
drops the digits of a small argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

__all__ = [
    "StripParams",
    "DorffParam",
    "p_strip_eval",
    "b_strip_coeff",
    "p_hat_eval",
    "dorff_eval",
    "a_dorff_coeff",
    "b_tilde_eval",
]

# sin(delta) degenerates at delta = pi; pointwise evaluation stays away
# from the boundary while coefficient formulas (ratios) remain stable.
_DELTA_EVAL_MARGIN = 1e-6
# pi - np.pi rounded to a double
_PI_LOW = 1.2246467991473532e-16


@dataclass(frozen=True)
class StripParams:
    """Strip edges alpha < 1 < beta; mu is the cached phase fraction."""

    family: ClassVar[str] = "strip"
    alpha: float
    beta: float
    mu: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # the width too: finite edges can still overflow it
        if not np.all(np.isfinite((self.alpha, self.beta, self.width))):
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
    def lower(self) -> float:
        return self.alpha

    @property
    def upper(self) -> float:
        return self.beta

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
        """Coefficient n of the integrated strip map: b_strip_coeff / n."""
        return _over_n(b_strip_coeff, self, n)

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
class DorffParam:
    """Angle delta in [pi/2, pi) steering the Dorff strip; NaN and inf fail."""

    family: ClassVar[str] = "dorff"
    delta: float

    def __post_init__(self) -> None:
        if not np.pi / 2.0 <= self.delta < np.pi:
            raise ValueError("delta must lie in [pi/2, pi)")

    @property
    def _pi_minus_delta(self) -> float:
        """pi - delta with the part of pi that np.pi drops added back, so
        the difference keeps its digits as delta nears pi."""
        return (np.pi - self.delta) + _PI_LOW

    @property
    def lower(self) -> float:
        """Lower edge of Re zf'/f for the associated class."""
        return 1.0 - self._pi_minus_delta / (2.0 * np.sin(self.delta))

    @property
    def upper(self) -> float:
        return 1.0 + self.delta / (2.0 * np.sin(self.delta))

    @property
    def tail_constant(self) -> float:
        return 0.5 / np.sin(self.delta)

    def factors(self) -> tuple[complex, complex, complex]:
        phase = np.exp(1j * self.delta)
        return 1.0 / (2j * np.sin(self.delta)), -phase, -np.conj(phase)

    def hat_coeff(self, n):
        """Coefficient n of the integrated Dorff map: a_dorff_coeff / n."""
        return _over_n(a_dorff_coeff, self, n)

    @staticmethod
    def per_n_bound(n):
        """|gamma_n| <= 1/(2n), the same for every delta."""
        return 0.5 / _check_index(n)

    def sum_bound(self) -> float:
        """Sharp upper bound for sum |gamma_n|^2 over the Dorff class.

        (pi^4/45 - [Li_4 at the conjugate pair with angle 2 delta])
        / (16 sin^2 delta), in the closed form
        delta^2 (pi - delta)^2 / (24 sin^2 delta); strictly positive for
        every admissible delta.
        """
        return (self.delta * self._pi_minus_delta) ** 2 / (24.0 * np.sin(self.delta) ** 2)

    def describe(self) -> dict:
        return {"delta": self.delta}


def _check_index(n) -> np.ndarray:
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("coefficient index must be >= 1")
    return n


def _check_disc(z) -> np.ndarray:
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("evaluation point must satisfy |z| < 1")
    return z


def _map_minus_center(target, z):
    """kappa log((1 - lam1 z) / (1 - lam2 z)) from ``target.factors()``.

    |lam| = 1 and |z| < 1 keep both factors in the right half-plane, so
    the principal log of their ratio is the difference of their logs.
    The ratio is 1 + w with w = (lam2 - lam1) z / (1 - lam2 z); each is
    its own numerator times conj(d) / |d|^2, d = 1 - lam2 z, so neither
    cancels.  log1p of w where |w| < 1/2; elsewhere |log(1 + w)| >= 0.4,
    and the log of the ratio keeps its digits.
    """
    z = _check_disc(z)
    kappa, lam1, lam2 = target.factors()
    den = 1.0 - lam2 * z
    conj_den = np.conj(den)
    den_sq = den.real * den.real + den.imag * den.imag
    w = (lam2 - lam1) * z * conj_den / den_sq
    small = np.abs(w) < 0.5
    # the far points feed log1p a 0, so it meets no |1 + w| near 0
    near = _log1p(np.where(small, w, 0.0))
    val = kappa * np.where(small, near, _log((1.0 - lam1 * z) * conj_den / den_sq))
    return complex(val) if val.ndim == 0 else val


def _integrated_map(target, z):
    """kappa [Li_2(lam2 z) - Li_2(lam1 z)], the integral of the map minus
    its center over t from 0 to z, by Int_0^z log(1 - c t)/t dt = -Li_2(c z)."""
    z = _check_disc(z)
    kappa, lam1, lam2 = target.factors()
    val = kappa * (_li2(lam2 * z) - _li2(lam1 * z))
    return complex(val) if val.ndim == 0 else val


def p_strip_eval(p: StripParams, z):
    """Value of the vertical-strip map; Re of the result lies in (alpha, beta)."""
    return 1.0 + _map_minus_center(p, z)


def b_strip_coeff(p: StripParams, n):
    """Taylor coefficient n >= 1 of the strip map; |result| <= 2*width/(n*pi)."""
    n = _check_index(n)
    s, t = p._phase()
    # 1 - e^{2 pi i n mu} = 1 - e^{2 pi i s r} with no subtraction, r = n t
    # reduced exactly to (-1/2, 1/2]: integer n t (even n at mu = 1/2) gives 0
    r = n * t - np.ceil(n * t - 0.5)
    one_minus_phase = _complex(2.0 * np.sin(np.pi * r) ** 2, -s * np.sin(2.0 * np.pi * r))
    val = (p.width / (n * np.pi)) * 1j * one_minus_phase
    return complex(val) if val.ndim == 0 else val


def _over_n(coeff, target, n):
    """coeff(target, n) / n: the coefficient of the integrated map."""
    n = _check_index(n)
    k = int(n) if n.ndim == 0 else n
    return coeff(target, k) / k


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
    """Value of the Dorff map; vanishes at the origin.

    Restricted to delta <= pi - 1e-6, the edge of :func:`b_tilde_eval`;
    the single log of the ratio keeps its digits up to there.
    """
    if d.delta > np.pi - _DELTA_EVAL_MARGIN:
        raise ValueError("pointwise Dorff evaluation needs delta <= pi - 1e-6")
    return _map_minus_center(d, z)


def a_dorff_coeff(d: DorffParam, n):
    """Taylor coefficient n >= 1 of the Dorff map: (-1)^(n-1) sin(n delta)/(n sin delta).

    With eps = pi - delta this is sin(n eps)/(n sin eps): the rounded
    product n * delta near n pi would keep no digits of the sine, n * eps
    keeps them all.  A_1 = 1 for every delta.
    """
    n = _check_index(n)
    eps = d._pi_minus_delta
    val = np.sin(n * eps) / (n * np.sin(eps))
    return float(val) if val.ndim == 0 else val


def b_tilde_eval(d: DorffParam, z):
    """Pointwise integrated Dorff map via dilogarithm primitives.

    Restricted to delta <= pi - 1e-6: closer to pi the 1/(2 sin delta)
    prefactor amplifies rounding in the Li_2 difference.
    """
    if d.delta > np.pi - _DELTA_EVAL_MARGIN:
        raise ValueError("pointwise Dorff evaluation needs delta <= pi - 1e-6")
    return _integrated_map(d, z)
