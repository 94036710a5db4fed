"""Truncated complex power series.

A :class:`TruncatedSeries` holds the Taylor coefficients ``c0..cN`` of an
analytic function on the unit disc, truncated at a declared order ``N``
(coefficient of ``z**k`` at index ``k``).  All operations are formal: the
exponential and logarithm are computed by coefficient recurrences (the
exponential by Newton iteration at high order), never pointwise, so no
branch of ``log`` is ever chosen inside the engine.  Values on a circle
are the circle audits' business, in ``verify``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TruncatedSeries",
    "series_exp",
    "log_normalized",
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


def _require_order(value, least: int, name: str = "order") -> int:
    """`value` as a Python int; ValueError naming it unless it is an
    integer >= `least`.

    The one rule for every size argument (an order, a number of angles,
    an exponent).  Python and numpy integers pass; a bool, a float (NaN
    and infinity too) or anything else is refused rather than rounded or
    compared.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}")
    return int(value)


class TruncatedSeries:
    """Finite Taylor expansion ``c0 + c1*z + ... + cN*z**N``.

    Values are immutable: the coefficient array is copied on construction
    and write-protected, so instances are safe to share between threads.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs) -> None:
        c = np.asarray(coeffs)
        if c.dtype.kind not in "iufc" or c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a nonempty 1-D sequence of numbers")
        c = c.astype(complex)  # always a copy: the caller keeps no handle on it
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        """Highest retained power of z."""
        return len(self.coeffs) - 1

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, coeffs={self.coeffs!r})"

    def truncate(self, order: int) -> TruncatedSeries:
        """Drop coefficients above `order` (an integer from 0 to self.order)."""
        order = _require_order(order, 0)
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1])

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
    ``_EXP_RESIDUAL_MAX`` or NaN, as it is when Newton overflows.  A real
    series (every imaginary part exactly 0) runs on float arrays.
    Restricting to a_0 = 0 keeps the result branch-free.  Raises
    ValueError when the coefficients of exp(a) do not fit in a double.
    """
    if abs(a.coeffs[0]) > _NORMALIZED_TOL:
        raise ValueError("series_exp requires a vanishing constant term")
    c = a.coeffs if a.coeffs.imag.any() else a.coeffs.real
    if a.order >= _EXP_NEWTON_MIN:
        # an overflow in Newton shows as a NaN residual, which the
        # recurrence then replaces
        with np.errstate(over="ignore", invalid="ignore"):
            e = _exp_newton(c)
            residual = _exp_residual(c, e)
        if residual <= _EXP_RESIDUAL_MAX:  # False for NaN
            return TruncatedSeries(e)
    # an overflow leaves an infinity, and NaNs after it, in the result
    with np.errstate(over="ignore", invalid="ignore"):
        e = _exp_recurrence(c)
    if not np.isfinite(e).all():
        raise ValueError("coefficients of the exponential overflow a double")
    return TruncatedSeries(e)


def _exp_recurrence(a: np.ndarray) -> np.ndarray:
    """exp of a coefficient array with a_0 = 0 by the O(N^2) recurrence:
    the path below the crossover, Newton's start, and its test reference;
    real or complex as `a` is."""
    n = len(a) - 1
    da = np.arange(n + 1) * a  # j * a_j
    out = np.zeros(n + 1, dtype=a.dtype)
    out[0] = 1.0
    # rev[n - i] mirrors out[i]; keeps every dot product contiguous
    rev = np.zeros(n + 1, dtype=a.dtype)
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
    products each.  A real `a` takes numpy's real transforms, half the
    work of the complex ones.
    """
    fft, ifft = (np.fft.fft, np.fft.ifft) if np.iscomplexobj(a) else (np.fft.rfft, np.fft.irfft)
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
            # size is still the previous step's, the length of big_g
            fg = ifft(fft(f, size) * big_g, size)[h:m]  # 1 - f g, negated, from z^h on
            g = np.concatenate([g, -ifft(big_g * fft(fg, size), size)[: m - h]])
        size = _fft_len(big)
        big_f, big_g = fft(f, size), fft(g, size)
        # z f' - f*ta vanishes below z^m and f has no terms from z^m on,
        # so its part m..big-1 is -(f*ta) there
        f_ta = ifft(big_f * fft(ta[:big], size), size)[m:big]
        a_minus_log = ifft(big_g * fft(f_ta, size), size)[: big - m] / k[m:big]
        f = np.concatenate([f, ifft(big_f * fft(a_minus_log, size), size)[: big - m]])
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

