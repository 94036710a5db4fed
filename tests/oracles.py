"""Reference constructions and seeded target draws that only the tests need.

Each gives an independent route to a quantity the package computes in
closed form or by a faster path: Horner evaluation against the circle
audits' ``verify._fold``, a fold by one slice-and-add per chunk against
its row sum, truncated composition against ``generate_member``'s
exponents, the factor logs and the primitive of g(t)/t against the
one-pass Blaschke exponent, the factor-log member against
``generate_member`` (bit for bit on Blaschke members, against the
rotated real exponential of zero-free members), that exponential at the
full length against ``generate_member``'s proven Cauchy length, the
power-family member built at full order against ``generate_member``'s
k-th root transform, the full-mode fold against the membership audit's,
the map series against circle sampling, the strip map's closed-form
coefficients against the integrated map's, the Dorff map's own
closed-form coefficients against the turned strip that ``DorffParam``
is, and the integrated-map series against the pointwise integrated
maps and, exponentiated,
``generate_member`` with omega(z) = z, and the closed-form
Re(1 + z h''/h') against ``convexity_probe``.
"""

from collections.abc import Callable

import numpy as np

from stripcoef.logcoef import _powers, _roots
from stripcoef.maps import _PI_LOW, DorffParam, StripParams
from stripcoef.series import _NORMALIZED_TOL, TruncatedSeries, _fft_len, series_exp
from stripcoef.verify import _circle_grid


def shift(s: TruncatedSeries) -> TruncatedSeries:
    """Multiply by z exactly; order grows by one."""
    return TruncatedSeries(np.concatenate([[0.0], s.coeffs]))


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


def integrate_over_t(s: TruncatedSeries) -> TruncatedSeries:
    """Primitive of g(t)/t from 0: coefficient k becomes g_k / k.

    Requires g_0 = 0 so the integrand is analytic at the origin.
    Result order equals the input order.
    """
    if abs(s.coeffs[0]) > _NORMALIZED_TOL:
        raise ValueError("integrand g(t)/t needs g(0) = 0")
    out = np.zeros(s.order + 1, dtype=complex)
    k = np.arange(1, s.order + 1)
    out[1:] = s.coeffs[1:] / k
    return TruncatedSeries(out)


def log_p(lam: complex, s: complex, zeros: tuple, order: int) -> np.ndarray:
    """Coefficients of the factor log, log P(u), up to `order`, where
    1 - lam s u B(u) = P(u) / prod_j (1 + conj(a_j) u) with P(0) = 1:
    coefficient n is -sum_i r_i^n / n over the inverse roots
    ``logcoef._roots`` of P."""
    n = np.arange(1, order + 1)
    out = np.zeros(order + 1, dtype=complex)
    for r in _roots(lam * s, zeros):
        out[1:] -= _powers(r, n)
    out[1:] /= n
    return out


def factor_log_member(target, spec, order: int) -> TruncatedSeries:
    """``generate_member`` from q - 1 = kappa [log P_lam1 - log P_lam2]
    in u = z^k (:func:`log_p`), integrated (:func:`integrate_over_t`) and
    exponentiated once, for every kind.  Blaschke members are these
    float operations in one pass; zero-free members are built as a
    rotated real exponential instead."""
    scale, step, zeros = spec._form()
    kappa, lam1, lam2 = target.factors()
    m = (order - 1) // step
    logs = [log_p(lam, scale, zeros, m) for lam in (lam1, lam2)]
    a = integrate_over_t(TruncatedSeries(kappa * (logs[0] - logs[1]))).coeffs / step
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[1::step] = series_exp(TruncatedSeries(a)).coeffs
    return TruncatedSeries(coeffs)


def log_one_minus_strided(lam: complex, spec, order: int) -> np.ndarray:
    """log(1 - lam c z^k) up to `order` in z: -(lam c)^m / m at every
    k-th coefficient, as :func:`log_p` formed it for the
    power family before ``generate_member`` took the k-th root transform."""
    out = np.zeros(order + 1, dtype=complex)
    m = np.arange(1, order // spec.k + 1)
    out[spec.k * m] = -_powers(lam * spec.c, m) / m
    return out


def power_member_full_order(target, spec, order: int) -> TruncatedSeries:
    """``generate_member`` for omega = c z^k with ``series_exp`` at order - 1."""
    kappa, lam1, lam2 = target.factors()
    logs = [log_one_minus_strided(lam, spec, order - 1) for lam in (lam1, lam2)]
    q_minus_1 = kappa * (logs[0] - logs[1])
    return shift(series_exp(integrate_over_t(TruncatedSeries(q_minus_1))))


def zero_free_member_full_length(target, spec, order: int) -> TruncatedSeries:
    """``generate_member`` for a zero-free omega = s z^k with every
    E_j up to j = (order - 1) // k computed, not only those up to the
    Cauchy length ``logcoef._cauchy_length``."""
    scale, step, _ = spec._form()
    m = (order - 1) // step
    n, r = np.arange(1, m + 1), abs(scale)
    tau, rho = target.hat_rotation(n)
    a = np.concatenate([[0.0], rho * _powers(r, n).real / step])
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[1::step] = series_exp(TruncatedSeries(a)).coeffs
    coeffs[1 + step :: step] *= _powers(tau * scale / r if r else tau, n)
    return TruncatedSeries(coeffs)


def _series(c0: complex, coeffs: np.ndarray) -> TruncatedSeries:
    """c0 + sum_{n=1..len(coeffs)} coeffs[n - 1] z**n."""
    return TruncatedSeries(np.concatenate([[c0], coeffs]))


def b_strip_coeff(p: StripParams, n) -> np.ndarray:
    """Taylor coefficient n >= 1 of the unturned strip map from its closed
    form (width/(n pi)) i (1 - e^{2 pi i s r}), r = n t reduced to
    (-1/2, 1/2]: ``StripParams.hat_coeff`` before its division by n.
    A ``DorffParam`` is turned, so its map has n times its own ``hat_coeff``."""
    n = np.asarray(n)
    s, t = p._phase()
    nt = n * t
    r = nt - np.ceil(nt - 0.5)
    one_minus_phase = 2.0 * np.sin(np.pi * r) ** 2 - 1j * (s * np.sin(2.0 * np.pi * r))
    return (p.width / (n * np.pi)) * 1j * one_minus_phase


def p_strip_series(p: StripParams, order: int) -> TruncatedSeries:
    """Truncated Taylor series of the strip map (constant term 1)."""
    return _series(1.0, b_strip_coeff(p, np.arange(1, order + 1)))


def dorff_coeff(d: DorffParam, n) -> np.ndarray:
    """Taylor coefficient n >= 1 of the Dorff map from its own closed form,
    (-1)^(n-1) sin(n delta)/(n sin delta) = sin(n eps)/(n sin eps) with
    eps = pi - delta, none of it from the strip code: the rounded product
    n * delta near n pi would keep no digits of the sine, n * eps keeps
    them all.  A_1 = 1 for every delta."""
    n = np.asarray(n)
    eps = (np.pi - d.delta) + _PI_LOW
    return np.sin(n * eps) / (n * np.sin(eps))


def dorff_series(d: DorffParam, order: int) -> TruncatedSeries:
    """Truncated Taylor series of the Dorff map (vanishes at 0)."""
    return _series(0.0, dorff_coeff(d, np.arange(1, order + 1)))


def hat_series(target, order: int) -> TruncatedSeries:
    """Truncated Taylor series of the integrated target map (vanishes at 0)."""
    return _series(0.0, target.hat_coeff(np.arange(1, order + 1)))


def convexity_quantity(target, z, integrated: bool = False):
    """Re(1 + z h''/h') of the target map, or of its integrated map, at z.

    From ``target.factors()``: the map minus its center is
    m = kappa [log(1 - lam1 z) - log(1 - lam2 z)], so
    h' = kappa (lam2/(1 - lam2 z) - lam1/(1 - lam1 z)); the integrated
    map has h' = m/z, for which 1 + z h''/h' = z m'/m.  kappa cancels.
    """
    _, lam1, lam2 = target.factors()
    z = np.asarray(z, dtype=complex)
    d1, d2 = 1.0 - lam1 * z, 1.0 - lam2 * z
    m1 = lam2 / d2 - lam1 / d1
    if integrated:
        return np.real(z * m1 / np.log(d1 / d2))
    return np.real(1.0 + z * ((lam2 / d2) ** 2 - (lam1 / d1) ** 2) / m1)


def membership_extremes(f: TruncatedSeries, radius: float, angles: int) -> tuple:
    """(min, max) of Re(z f'/f) on the membership grid from every mode of
    `f`, trailing zeros included, folded by :func:`fold_by_chunks`."""
    k = np.arange(len(f.coeffs))
    scale = radius**k
    zf_prime = fold_by_chunks((k * f.coeffs) * scale, angles)
    re = np.real(zf_prime / fold_by_chunks(f.coeffs * scale, angles))
    return float(np.min(re)), float(np.max(re))


def fold_by_chunks(modes: np.ndarray, angles: int) -> np.ndarray:
    """``verify._fold`` by one slice-and-add per chunk of `angles` modes."""
    folded = np.zeros(angles, dtype=complex)
    for start in range(0, len(modes), angles):
        chunk = modes[start : start + angles]
        folded[: len(chunk)] += chunk
    return np.fft.ifft(folded) * angles


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
    numpy's FFT handles fast.  `eval_fn` is called once on the whole grid,
    a read-only array, and must return one value per point.
    The tests cross-check the closed-form coefficients against them;
    ``convexity_probe`` samples the same default grid but keeps all M modes.
    Rounding in the sampled values is amplified by r**(-k) at index k;
    callers assert their own tolerances.
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


def random_strip_params(rng: np.random.Generator) -> StripParams:
    """alpha ~ U[-2, 0.9], beta ~ U[1.1, 4]."""
    return StripParams(rng.uniform(-2.0, 0.9), rng.uniform(1.1, 4.0))


def random_dorff_param(rng: np.random.Generator) -> DorffParam:
    """delta ~ U[pi/2, pi - 1e-3]."""
    return DorffParam(rng.uniform(np.pi / 2.0, np.pi - 1e-3))
