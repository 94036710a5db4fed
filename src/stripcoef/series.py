"""Truncated complex power series.

A :class:`TruncatedSeries` holds the Taylor coefficients ``c0..cN`` of an
analytic function on the unit disc, truncated at a declared order ``N``
(coefficient of ``z**k`` at index ``k``).  All operations are formal: the
exponential and logarithm are computed by coefficient recurrences (the
exponential by Newton iteration at high order), never pointwise, so no
branch of ``log`` is ever chosen inside the engine.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

__all__ = [
    "TruncatedSeries",
    "series_exp",
    "log_normalized",
    "coeffs_by_circle_sampling",
]

# Tolerance for the "normalized" tag (c0 = 0, c1 = 1); the operations on
# normalized series keep these exact, the slack only absorbs roundoff.
_NORMALIZED_TOL = 1e-12

# series_exp switches from the recurrence to Newton iteration at this
# order: the two paths take equal time near order 300 (README, "Formal
# exp engine")
_EXP_NEWTON_MIN = 320
# Newton starts from the recurrence at no more terms than this
_EXP_NEWTON_BASE = 64
# largest residual (_exp_residual) of a Newton result that series_exp keeps
_EXP_RESIDUAL_MAX = 1e-13


class TruncatedSeries:
    """Finite Taylor expansion ``c0 + c1*z + ... + cN*z**N``.

    Values are immutable: the coefficient array is copied on construction
    and write-protected, so instances are safe to share between threads.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        c = np.array(coeffs, dtype=complex)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        """Highest retained power of z."""
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, coeffs={self.coeffs!r})"

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> TruncatedSeries:
        """Formal derivative; result order drops by one."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 series")
        k = np.arange(1, self.order + 1)
        return TruncatedSeries(k * self.coeffs[1:])

    def integrate_over_t(self) -> TruncatedSeries:
        """Primitive of g(t)/t from 0: coefficient k becomes g_k / k.

        Requires g_0 = 0 so the integrand is analytic at the origin.
        Result order equals the input order.
        """
        if abs(self.coeffs[0]) > _NORMALIZED_TOL:
            raise ValueError("integrand g(t)/t needs g(0) = 0")
        out = np.zeros(self.order + 1, dtype=complex)
        k = np.arange(1, self.order + 1)
        out[1:] = self.coeffs[1:] / k
        return TruncatedSeries(out)

    def shift(self) -> TruncatedSeries:
        """Multiply by z exactly; order grows by one."""
        return TruncatedSeries(np.concatenate([[0.0], self.coeffs]))

    def truncate(self, order: int) -> TruncatedSeries:
        """Drop coefficients above `order` (which must not exceed self.order)."""
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1])

    # -- evaluation --------------------------------------------------------

    def circle_values(self, radius: float, angles: int) -> np.ndarray:
        """Values on the points :func:`_circle_grid` (radius, angles).

        z**n repeats with period `angles` on the grid, so folding the
        r^n-scaled coefficients modulo `angles` and one inverse FFT are
        exact for any order.  The inverse is :func:`coeffs_by_circle_sampling`.
        """
        scaled = self.coeffs * radius ** np.arange(len(self.coeffs))
        folded = np.zeros(angles, dtype=complex)
        for start in range(0, len(scaled), angles):
            chunk = scaled[start : start + angles]
            folded[: len(chunk)] += chunk
        return np.fft.ifft(folded) * angles

    # -- tags --------------------------------------------------------------

    def is_normalized(self) -> bool:
        """c0 = 0 and c1 = 1 (within roundoff)."""
        return (
            self.order >= 1
            and abs(self.coeffs[0]) <= _NORMALIZED_TOL
            and abs(self.coeffs[1] - 1.0) <= _NORMALIZED_TOL
        )


def series_exp(a: TruncatedSeries) -> TruncatedSeries:
    """Formal exponential of a series with a_0 = 0.

    Orders below ``_EXP_NEWTON_MIN`` use the recurrence from E' = a'E,
    i.e. k*E_k = sum_{j=1..k} j*a_j*E_{k-j} with E_0 = 1, in O(N^2); from
    there on Newton iteration with FFT products gives the same series in
    O(N log N).  Newton can lose every digit on large coefficients, so the
    recurrence recomputes any Newton result whose residual is above
    ``_EXP_RESIDUAL_MAX`` or NaN, as it is when Newton overflows.
    Restricting to a_0 = 0 keeps the result branch-free.
    """
    if abs(a.coeffs[0]) > _NORMALIZED_TOL:
        raise ValueError("series_exp requires a vanishing constant term")
    if a.order >= _EXP_NEWTON_MIN:
        # an overflow in Newton shows as a NaN residual, which the
        # recurrence then replaces
        with np.errstate(over="ignore", invalid="ignore"):
            e = _exp_newton(a.coeffs)
            residual = _exp_residual(a.coeffs, e)
        if residual <= _EXP_RESIDUAL_MAX:  # False for NaN
            return TruncatedSeries(e)
    return TruncatedSeries(_exp_recurrence(a.coeffs))


def _exp_recurrence(a: np.ndarray) -> np.ndarray:
    """exp of a coefficient array with a_0 = 0 by the O(N^2) recurrence:
    the path below the crossover, Newton's start, and its test reference."""
    n = len(a) - 1
    da = np.arange(n + 1) * a  # j * a_j
    out = np.zeros(n + 1, dtype=complex)
    out[0] = 1.0
    # rev[n - i] mirrors out[i]; keeps every dot product contiguous
    rev = np.zeros(n + 1, dtype=complex)
    rev[n] = 1.0
    for k in range(1, n + 1):
        val = np.dot(da[1 : k + 1], rev[n - k + 1 : n + 1]) / k
        out[k] = val
        rev[n - k] = val
    return out


def _exp_residual(a: np.ndarray, e: np.ndarray) -> float:
    """max |k E_k - sum_{j=1..k} j a_j E_{k-j}| over the last four k,
    divided by N max(1, max |E_k|); NaN when E holds a NaN."""
    n = len(a) - 1
    da = np.arange(n + 1) * a
    k = np.arange(n - 3, n + 1)
    # elementwise products, not np.dot: BLAS threads a dot this long
    sums = np.array([np.sum(da[1 : j + 1] * e[j - 1 :: -1]) for j in k])
    return float(np.max(np.abs(k * e[k] - sums)) / (n * np.maximum(1.0, np.max(np.abs(e)))))


def _fft_len(n: int) -> int:
    """Smallest 2^i * p >= n over the odd 5-smooth p dividing 675: a
    length numpy's FFT handles fast, at most 12 % above n."""
    odd = (1, 3, 5, 9, 15, 25, 27, 45, 75, 135, 225, 675)
    return min(p << max(0, (-(-n // p) - 1).bit_length()) for p in odd)


def _exp_newton(a: np.ndarray) -> np.ndarray:
    """exp of a coefficient array with a_0 = 0 by Newton iteration.

    Precision doubles on the schedule ceil(n / 2^k) from a recurrence
    start of at most ``_EXP_NEWTON_BASE`` terms.  A step from m to M
    terms keeps g = 1/f, lifted from the last step's precision to m by
    g += g (1 - f g), computes log f through z (log f)' = z f'/f, and sets
    f += f (a - log f) (Brent & Kung 1978; Bernstein 2004).  Every product
    is an FFT convolution long enough that wrap-around lands only on
    coefficients already known; the transforms of f and g serve two
    products each.
    """
    fft, ifft = np.fft.fft, np.fft.ifft
    k = np.arange(len(a))
    ta = k * a  # z a'
    sizes = []
    n = len(a)
    while n > _EXP_NEWTON_BASE:
        sizes.append(n)
        n = (n + 1) // 2
    f = _exp_recurrence(a[:n])
    g = _exp_recurrence(-a[:n])
    big_g = None  # FFT of g as it stood in the previous step's log part
    for big in reversed(sizes):
        m, h = len(f), len(g)
        if h < m:
            size = len(big_g)
            fg = ifft(fft(f, size) * big_g)[h:m]  # 1 - f g, negated, from z^h on
            g = np.concatenate([g, -ifft(big_g * fft(fg, size))[: m - h]])
        size = _fft_len(big)
        big_f, big_g = fft(f, size), fft(g, size)
        # z f' - f*ta vanishes below z^m and f has no terms from z^m on,
        # so its part m..big-1 is -(f*ta) there
        f_ta = ifft(big_f * fft(ta[:big], size))[m:big]
        a_minus_log = ifft(big_g * fft(f_ta, size))[: big - m] / k[m:big]
        f = np.concatenate([f, ifft(big_f * fft(a_minus_log, size))[: big - m]])
    return f


def _log_one(p: np.ndarray) -> np.ndarray:
    """Formal log of a coefficient array with p_0 = 1, via p*L' = p'."""
    n = len(p) - 1
    out = np.zeros(n + 1, dtype=complex)
    dl = np.zeros(n + 1, dtype=complex)  # j * L_j, filled as we go
    prev = p[::-1].copy()  # prev[n - i] = p_i, contiguous windows below
    for k in range(1, n + 1):
        acc = np.dot(dl[1:k], prev[n - k + 1 : n]) if k > 1 else 0.0
        out[k] = (p[k] - acc / k) / p[0]
        dl[k] = k * out[k]
    return out


def log_normalized(f: TruncatedSeries) -> TruncatedSeries:
    """Formal log(f(z)/z) of a normalized series (f_0 = 0, f_1 = 1).

    The result L has L_0 = 0 and satisfies (f/z) L' = (f/z)'; no branch of
    the pointwise logarithm is involved.  Result order is f.order - 1
    (the order of f/z).
    """
    if not f.is_normalized():
        raise ValueError("log_normalized requires a normalized series")
    return TruncatedSeries(_log_one(f.coeffs[1:]))


def _circle_grid(radius: float, angles: int) -> np.ndarray:
    """The points radius * exp(2 pi i j / angles), j = 0..angles-1."""
    return radius * np.exp(1j * (2.0 * np.pi * np.arange(angles) / angles))


def coeffs_by_circle_sampling(
    eval_fn: Callable,
    order: int,
    radius: float,
    samples: int | None = None,
) -> TruncatedSeries:
    """Recover Taylor coefficients of an analytic function by circle sampling.

    Discrete Fourier extraction: c_k ~ r**(-k) * mean over M samples of
    eval(r e^{i theta_j}) e^{-ik theta_j}, with M >= 4*(order+1); the
    default M is the first 5-smooth length from 4*(order+1) on, which
    numpy's FFT handles fast.  `eval_fn` is called once on the whole grid
    and must return one value per point.  ``convexity_probe`` takes its
    derivatives from these coefficients; the tests also cross-check the
    closed-form coefficients against them.  Rounding in the sampled
    values is amplified by r**(-k) at index k; callers assert their own
    tolerances.
    """
    if not 0.0 < radius < 1.0:
        raise ValueError("sampling radius must lie in (0, 1)")
    m = _fft_len(4 * (order + 1)) if samples is None else samples
    if m < 4 * (order + 1):
        raise ValueError("need at least 4*(order+1) samples")
    grid = _circle_grid(radius, m)
    vals = np.asarray(eval_fn(grid), dtype=complex)
    if vals.shape != grid.shape:
        raise ValueError(f"eval_fn returned shape {vals.shape} for a grid of {m} points")
    coeffs = np.fft.fft(vals)[: order + 1] / m
    coeffs *= radius ** -np.arange(order + 1)
    return TruncatedSeries(coeffs)
