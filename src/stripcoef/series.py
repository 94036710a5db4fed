"""Truncated complex power series.

A :class:`TruncatedSeries` holds the Taylor coefficients ``c0..cN`` of an
analytic function on the unit disc, truncated at a declared order ``N``
(coefficient of ``z**k`` at index ``k``).  All operations are formal: the
exponential and logarithm are computed by coefficient recurrences or by
Newton iteration checked against them, never pointwise, so no branch of
``log`` is ever chosen inside the engine.  Values on a circle
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
# log_normalized's Newton starts 1/p by its recurrence at no more terms
# than this
_LOG_NEWTON_BASE = 16
# largest residual of log_normalized's Newton result, in eps times the
# recurrence's componentwise scale (:func:`_log_newton`): about twice the
# 2.3 eps the recurrence itself showed on 600 soundness members
_LOG_RESIDUAL_EPS = 4.0


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

    @classmethod
    def _take(cls, c: np.ndarray) -> TruncatedSeries:
        """The series of `c`, a new nonempty 1-D complex array that no
        caller keeps, write-protected in place of the copy: a member at
        order 14 020 is 224 KB, which the copy read and wrote once more."""
        s = object.__new__(cls)
        c.setflags(write=False)
        object.__setattr__(s, "coeffs", c)
        return s

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
    Restricting to a_0 = 0 keeps the result branch-free; a constant term
    that is not within ``_NORMALIZED_TOL`` of 0, NaN included, raises
    ValueError, as do coefficients of exp(a) that do not fit in a double.
    """
    if not abs(a.coeffs[0]) <= _NORMALIZED_TOL:  # NaN fails the test too
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
    da = (np.arange(n + 1) * a)[1:]  # j * a_j from j = 1
    # rev[n - i] holds E_i; keeps every dot product contiguous
    rev = np.zeros(n + 1, dtype=a.dtype)
    rev[n] = 1.0
    # the ndarray method, not np.dot, whose dispatch cost a fifth more
    for k in range(1, n + 1):
        rev[n - k] = da[:k].dot(rev[n - k + 1 :]) / k
    return rev[::-1].copy()


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


def _newton_sizes(n: int, base: int) -> tuple[int, list[int]]:
    """(start, sizes): precision ceil(n / 2^i) for i = 0, 1, ..., the
    first at most `base` being the start, the others in rising order."""
    sizes = []
    while n > base:
        sizes.append(n)
        n = (n + 1) // 2
    return n, sizes[::-1]


def _low(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The first n terms of the product a b, from one np.convolve over a
    zero-padded `a` in "valid" mode: no term past them is formed.  Those
    pair the small tail coefficients of both factors, whose products
    fall to subnormal doubles, many times slower to multiply (a log of
    f/z at |s| = 0.02 took a third longer with full products)."""
    return np.convolve(np.concatenate([np.zeros(n - 1, dtype=a.dtype), a[:n]]), b[:n], "valid")


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
    n, sizes = _newton_sizes(len(a), _EXP_NEWTON_BASE)
    f = _exp_recurrence(a[:n])
    g = _exp_recurrence(-a[:n])
    big_g = None  # FFT of g as it stood in the previous step's log part
    for big in sizes:
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
    """Formal log of a coefficient array with p_0 = 1, via p*L' = p': the
    O(n^2) recurrence, the reference and fallback of :func:`_log_newton`."""
    n = len(p) - 1
    out = np.zeros(n + 1, dtype=complex)
    dl = np.zeros(n + 1, dtype=complex)  # j * L_j, filled as we go
    prev = p[::-1].copy()  # prev[n - i] = p_i, contiguous windows below
    for k in range(1, n + 1):
        acc = dl[1:k].dot(prev[n - k + 1 : n]) if k > 1 else 0.0
        out[k] = (p[k] - acc / k) / p[0]
        dl[k] = k * out[k]
    return out


def _log_newton(p: np.ndarray) -> np.ndarray | None:
    """Formal log of a coefficient array with p_0 = 1 by Newton iteration,
    or None where its residual is above the recurrence's.

    D = z L' = (z p') (1/p), 1/p by Newton, g += g (1 - p g), on the
    schedule ceil(n / 2^k) from a start of at most ``_LOG_NEWTON_BASE``
    terms by the recurrence p (1/p) = 1, refined once by
    D -= (1/p) (p D - z p').  The residual p D - z p' of the result must
    be at most ``_LOG_RESIDUAL_EPS`` eps times (|p| * |D|)_k at every k,
    the componentwise scale of the recurrence's backward error (Brent &
    Kung 1978).  Every product is one np.convolve: exact zeros stay
    exact.
    """
    n = len(p)
    zp = np.arange(n) * p
    start, sizes = _newton_sizes(n, _LOG_NEWTON_BASE)
    g = np.empty_like(p)
    g[0] = 1.0 / p[0]
    for k in range(1, start):
        g[k] = -g[0] * p[1 : k + 1].dot(g[k - 1 :: -1])
    for h, m in zip([start, *sizes], sizes):
        # g[:h] = 1/p to h terms becomes 1/p to m <= 2h terms
        pg = np.convolve(p[1:m], g[:h], "valid")  # (p g)_h..m-1, -(1 - p g) there
        g[h:m] = -_low(g, pg, m - h)
    d = _low(zp, g, n)
    d -= _low(g, _low(p, d, n) - zp, n)
    residual = np.abs(_low(p, d, n) - zp)
    scale = _low(np.abs(p), np.abs(d), n)
    # False for a NaN, as an overflow leaves
    if not (residual <= _LOG_RESIDUAL_EPS * np.finfo(float).eps * scale).all():
        return None
    d[1:] /= np.arange(1, n)
    return d


def log_normalized(f: TruncatedSeries) -> TruncatedSeries:
    """Formal log(f(z)/z) of a normalized series (f_0 = 0, f_1 = 1).

    The result L has L_0 = 0 and satisfies (f/z) L' = (f/z)'; no branch of
    the pointwise logarithm is involved.  Result order is f.order - 1
    (the order of f/z).  Newton iteration on np.convolve products
    (:func:`_log_newton`) computes L; where its residual is above the
    recurrence's, as where it overflows, the O(n^2) recurrence
    recomputes it.  When f/z is a series in z^k, the greatest common
    divisor of the powers it holds, so is L, and both paths run on the
    k-th root series, of order (f.order - 1) // k.
    """
    if not f.is_normalized():
        raise ValueError("log_normalized requires a normalized series")
    p = f.coeffs[1:]
    # p_0 is nonzero, and gcd(0, j) = j
    step = max(1, int(np.gcd.reduce(np.flatnonzero(p))))
    q = p[::step]
    with np.errstate(over="ignore", invalid="ignore"):
        log = _log_newton(q)
    out = np.zeros(len(p), dtype=complex)
    out[::step] = _log_one(q) if log is None else log
    return TruncatedSeries._take(out)
