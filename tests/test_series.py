import math

import numpy as np
import pytest

from stripcoef.logcoef import SchwarzSpec, generate_member
from stripcoef.maps import DorffParam, StripParams
from stripcoef.series import (
    _EXP_NEWTON_MIN,
    _EXP_RESIDUAL_MAX,
    TruncatedSeries,
    _exp_newton,
    _exp_recurrence,
    _exp_residual,
    _log_newton,
    _log_one,
    log_normalized,
    series_exp,
)
from stripcoef.verify import _circle_grid, _fold

from oracles import (
    coeffs_by_circle_sampling,
    compose_schwarz,
    evaluate,
    fold_by_chunks,
    hat_series,
    identity,
    integrate_over_t,
    log_one_minus_strided,
    log_p,
)


PI = np.pi


def _random_normalized(rng, order, scale=0.1):
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[1] = 1.0
    r = scale * np.sqrt(rng.uniform(size=order - 1))
    phase = np.exp(2j * np.pi * rng.uniform(size=order - 1))
    coeffs[2:] = r * phase
    return TruncatedSeries(coeffs)


class TestCalculus:
    def test_integrate_linear(self):
        g = integrate_over_t(TruncatedSeries([0, 1]))
        assert np.array_equal(g.coeffs, [0, 1])

    def test_integrate_square(self):
        g = integrate_over_t(TruncatedSeries([0, 0, 1]))
        assert np.allclose(g.coeffs, [0, 0, 0.5])

    def test_integrate_then_differentiate_back(self):
        g = TruncatedSeries([0, 2, 0, 4])
        integ = integrate_over_t(g)
        assert np.allclose(integ.coeffs, [0, 2, 0, 4 / 3])
        # z * d/dz of the primitive recovers the integrand exactly
        k = np.arange(len(g.coeffs))
        assert np.array_equal(k * integ.coeffs, g.coeffs)

    def test_integrate_rejects_constant_term(self):
        with pytest.raises(ValueError):
            integrate_over_t(TruncatedSeries([1, 1]))

    @pytest.mark.parametrize("order", [-5, True, 2.0])
    def test_truncate_rejects_bad_order(self, order):
        # a negative order sliced from the end and True counted as 1
        s = TruncatedSeries(np.arange(11.0))
        with pytest.raises(ValueError):
            s.truncate(order)

    def test_truncate_rejects_an_order_past_its_own(self):
        with pytest.raises(ValueError, match="cannot extend"):
            TruncatedSeries([0, 1]).truncate(2)

    def test_truncate_uses_the_checked_order(self):
        # order + 1 wrapped to -128 in np.int8, and the slice kept 172 terms
        assert TruncatedSeries(np.ones(300)).truncate(np.int8(127)).order == 127


class TestExpLog:
    def test_exp_of_zero(self):
        e = series_exp(TruncatedSeries(np.zeros(5)))
        assert np.array_equal(e.coeffs, [1, 0, 0, 0, 0])

    def test_exp_of_z(self):
        e = series_exp(identity(8))
        expected = 1.0 / np.array([math.factorial(k) for k in range(9)])
        assert np.allclose(e.coeffs, expected, atol=1e-14)

    def test_exp_rejects_constant_term(self):
        with pytest.raises(ValueError):
            series_exp(TruncatedSeries([0.5, 1]))

    @pytest.mark.parametrize("c0", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
    def test_exp_rejects_non_finite_constant_term(self, c0):
        # a NaN constant term passed abs(c0) > tol and was dropped: exp
        # of [nan, 0.1, 0.2] returned [1, 0.1, 0.205]
        with pytest.raises(ValueError, match="vanishing constant term"):
            series_exp(TruncatedSeries([c0, 0.1, 0.2]))

    def test_log_of_identity_map(self):
        ell = log_normalized(identity(6))
        assert np.allclose(ell.coeffs, 0.0)

    def test_log_of_koebe_is_harmonic_series(self):
        n = np.arange(1, 33)
        coeffs = np.concatenate([[0.0], n * 1.0])  # z/(1-z)^2
        ell = log_normalized(TruncatedSeries(coeffs))
        assert np.allclose(ell.coeffs[1:], 2.0 / n[:-1], atol=1e-12)

    def test_log_quadratic_start(self):
        a2 = 0.3 - 0.1j
        ell = log_normalized(TruncatedSeries([0, 1, a2]))
        assert abs(ell.coeffs[1] - a2) < 1e-15
        # gamma_1 = a_2 / 2 in the log-coefficient normalization
        assert abs(ell.coeffs[1] / 2.0 - a2 / 2.0) < 1e-15

    def test_log_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            log_normalized(TruncatedSeries([0, 2, 1]))

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            f = _random_normalized(rng, 64)
            back = series_exp(log_normalized(f))
            assert np.max(np.abs(back.coeffs - f.coeffs[1:])) < 1e-10


# strip and Dorff targets with large map coefficients, each under all
# three Schwarz families
_TARGETS = (StripParams(-1.9, 3.8), DorffParam(3.0))
_SPECS = (
    SchwarzSpec("scaled-rotation", c=0.95 * np.exp(1j)),
    SchwarzSpec("power", c=1.0, k=3),
    SchwarzSpec("blaschke-factor", a=0.7 * np.exp(2j), phi=0.5),
)


def _exponents(order):
    """z f'/f - 1 = q - 1 of the members, at `order`; the power member's
    at the full order, nonzero at every third coefficient only."""
    out = []
    for target in _TARGETS:
        kappa, lam1, lam2 = target.factors()
        for spec in _SPECS:
            if spec.kind == "power":
                logs = [log_one_minus_strided(lam, spec, order) for lam in (lam1, lam2)]
            else:
                s, _, zeros = spec._form()
                logs = [log_p(lam, s, zeros, order) for lam in (lam1, lam2)]
            out.append(TruncatedSeries(kappa * (logs[0] - logs[1])))
    return out


class TestExpNewton:
    @pytest.mark.parametrize(
        "order", [_EXP_NEWTON_MIN - 1, _EXP_NEWTON_MIN, _EXP_NEWTON_MIN + 1, 4096, 14019]
    )
    def test_matches_recurrence(self, order):
        for q_minus_1 in _exponents(order):
            a = integrate_over_t(q_minus_1).coeffs
            ref = _exp_recurrence(a)
            got = _exp_newton(a)
            assert len(got) == len(ref)
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_dispatch_at_crossover(self):
        paths = ((_EXP_NEWTON_MIN - 1, _exp_recurrence), (_EXP_NEWTON_MIN, _exp_newton))
        for order, path in paths:
            a = integrate_over_t(_exponents(order)[0])
            assert np.array_equal(series_exp(a).coeffs, path(a.coeffs))

    @pytest.mark.parametrize(
        "half_width, real",
        [(10.0, False), (15.0, False), (10.0, True), (15.0, True)],
        ids=["10.0", "15.0", "10.0-real", "15.0-real"],
    )
    def test_wide_strip_falls_back_to_recurrence(self, half_width, real):
        # at width 20 Newton loses every digit (coefficients up to 1.3e13
        # where the recurrence's reach 9.0e3); at width 30 it overflows.
        # Its residual, large or NaN, sends series_exp back without a
        # warning, on real transforms as on complex ones
        p = StripParams(-half_width, half_width)
        a = hat_series(p, 4000).coeffs
        if real:  # the same series rotated to real coefficients
            a = np.concatenate([[0.0], p.hat_rotation(np.arange(1, 4001))[1]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not _exp_residual(a, _exp_newton(a)) <= _EXP_RESIDUAL_MAX
        ref = _exp_recurrence(a)
        got = series_exp(TruncatedSeries(a)).coeffs
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "order", [_EXP_NEWTON_MIN - 1, _EXP_NEWTON_MIN, _EXP_NEWTON_MIN + 1, 4096, 14019]
    )
    def test_real_series_stays_real(self, order):
        # imaginary parts exactly 0, and Newton's complex-transform result
        # on the same coefficients; mu = 1e-6 as well as the two targets
        n = np.arange(1, order + 1)
        for target in (*_TARGETS, StripParams(0.999999, 2.0)):
            for k in (1, 3):
                a = np.concatenate([[0.0], target.hat_rotation(n)[1] / k])
                got = series_exp(TruncatedSeries(a)).coeffs
                ref = _exp_newton(a.astype(complex))
                assert not got.imag.any()
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref)), (target, k)

    @pytest.mark.parametrize("order", [100, 1500])
    def test_overflow_is_a_value_error(self, order):
        # exp(c z) has coefficients c^k / k!, beyond a double from here
        # on: at order 100 on the recurrence path, at 1500 after Newton
        a = np.zeros(order + 1, dtype=complex)
        a[1] = 1e5 if order < _EXP_NEWTON_MIN else 1e3
        with pytest.raises(ValueError, match="overflow"):
            series_exp(TruncatedSeries(a))

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        order = 512
        for q_minus_1 in (_exponents(order)[i] for i in (0, 5)):
            a = integrate_over_t(q_minus_1).coeffs
            with mpmath.workdps(30):
                da = [k * mpmath.mpc(c.real, c.imag) for k, c in enumerate(a)]
                exact = [mpmath.mpc(1)]
                for k in range(1, order + 1):
                    exact.append(mpmath.fsum(da[j] * exact[k - j] for j in range(1, k + 1)) / k)
                exact = np.array([complex(c) for c in exact])
            got = _exp_newton(a)
            assert np.max(np.abs(got - exact)) <= 1e-13 * max(1.0, np.max(np.abs(exact)))

    def test_residual_of_generated_members(self):
        # E = exp(a) must satisfy z E' = (z a') E, i.e. (z f')_k = (q f)_k
        # for f = z E; one FFT product measures the engine's residual
        order = 14019
        for q_minus_1 in _exponents(order):
            e = series_exp(integrate_over_t(q_minus_1)).coeffs
            k = np.arange(order + 1)
            size = 2 * (order + 1)
            product = np.fft.ifft(np.fft.fft(q_minus_1.coeffs, size) * np.fft.fft(e, size))
            assert np.max(np.abs(k * e - product[: order + 1])) <= 1e-12


def _mp_log(p, dps=40):
    """log of the coefficient array `p` (p_0 = 1) by p L' = p' in `dps` digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        q = [mpmath.mpc(c.real, c.imag) for c in p]
        dl = [mpmath.mpc(0)] * len(p)
        for k in range(1, len(p)):
            dl[k] = (k * q[k] - mpmath.fsum(dl[j] * q[k - j] for j in range(1, k))) / q[0]
        return np.array([complex(d / k) if k else 0j for k, d in enumerate(dl)])


# short exponentials keep the recurrence below _EXP_NEWTON_MIN: the
# 1/n series of DorffParam(pi - 1e-3), whose E_k stay near 1, and the
# rotated real and the complex series of the strip (-5, 5)
_SHORT_EXP_SERIES = {
    "dorff-pi-1e-3": DorffParam(PI - 1e-3).hat_rotation(np.arange(1, _EXP_NEWTON_MIN))[1],
    "strip-5-5-real": StripParams(-5.0, 5.0).hat_rotation(np.arange(1, _EXP_NEWTON_MIN))[1],
    "strip-5-5": StripParams(-5.0, 5.0).hat_coeff(np.arange(1, _EXP_NEWTON_MIN)),
}
_LOG_MEMBERS = {
    "blaschke": (StripParams(-1.3, 3.7), SchwarzSpec("blaschke-factor", a=0.6 + 0.3j, phi=1.0)),
    "strip-5-5": (StripParams(-5.0, 5.0), SchwarzSpec("scaled-rotation", c=0.95j)),
    "strip-10-10": (StripParams(-10.0, 10.0), SchwarzSpec("scaled-rotation", c=0.9)),
    "dorff-pi-1e-3": (DorffParam(PI - 1e-3), SchwarzSpec.identity()),
}


class TestShortSeriesAccuracy:
    """Short series against the recurrence and 40-digit mpmath: an
    exponential below ``_EXP_NEWTON_MIN`` is the recurrence, and the
    audit's Newton log errs at most two ulps of its largest coefficient
    more than the recurrence does, or is the recurrence."""

    @pytest.mark.parametrize("name", list(_SHORT_EXP_SERIES))
    def test_short_exp_is_the_recurrence(self, name):
        a = np.concatenate([[0.0], _SHORT_EXP_SERIES[name]])
        for order in range(100, _EXP_NEWTON_MIN):
            got = series_exp(TruncatedSeries(a[: order + 1])).coeffs
            assert np.array_equal(got, _exp_recurrence(a[: order + 1])), (name, order)

    @pytest.mark.parametrize("name", list(_LOG_MEMBERS))
    def test_log_at_the_audit_order(self, name):
        target, spec = _LOG_MEMBERS[name]
        f = generate_member(target, spec, 14020).truncate(129)
        p = f.coeffs[1:]
        exact = _mp_log(p)
        got = log_normalized(f).coeffs
        ref = _log_one(p)
        if name == "strip-10-10":
            # Newton errs 4.7e-8 here, the recurrence 7.5e-9: the residual
            # gate sends it back
            with np.errstate(over="ignore", invalid="ignore"):
                assert _log_newton(p) is None
            assert np.array_equal(got, ref)
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                assert _log_newton(p) is not None
            # in ulps, not as a ratio: where the recurrence errs below an
            # ulp, a ratio would turn on how np.sin and np.exp round
            ulp = np.spacing(np.max(np.abs(exact)))
            assert np.max(np.abs(got - exact)) <= np.max(np.abs(ref - exact)) + 2.0 * ulp, name

    def test_log_of_a_series_in_z_to_the_k(self):
        # a power member's f/z is a series in z^3: its log is the log of
        # the root series spread to every third term, with exact zeros
        # between, and matches the recurrence on the full series
        target = StripParams(-1.3, 3.7)
        f = generate_member(target, SchwarzSpec("power", c=0.9j, k=3), 14020).truncate(129)
        got = log_normalized(f).coeffs
        root = generate_member(target, SchwarzSpec("scaled-rotation", c=0.9j), 14020)
        root_log = log_normalized(root.truncate(43)).coeffs / 3.0
        assert not got[np.arange(len(got)) % 3 != 0].any()
        assert np.max(np.abs(got[::3] - root_log)) <= 1e-15 * np.max(np.abs(root_log))
        ref = _log_one(f.coeffs[1:])
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


class TestComposition:
    def test_identity_inner(self):
        h = TruncatedSeries([1, 2, 3, 4])
        got = compose_schwarz(h, identity(3))
        assert np.allclose(got.coeffs, h.coeffs)

    def test_zero_inner_gives_constant(self):
        h = TruncatedSeries([5, 2, 3])
        got = compose_schwarz(h, TruncatedSeries(np.zeros(3)))
        assert np.allclose(got.coeffs, [5, 0, 0])

    def test_geometric_substitution(self):
        order = 8
        h = TruncatedSeries(np.ones(order + 1))
        w = TruncatedSeries(np.concatenate([[0, 0.5], np.zeros(order - 1)]))
        got = compose_schwarz(h, w)
        assert np.allclose(got.coeffs, 0.5 ** np.arange(order + 1))
        # pointwise: sum (z/2)^k equals the composed series at a point
        z = 0.3 + 0.2j
        assert abs(evaluate(got, z) - evaluate(h, evaluate(w, z))) < 1e-12

    def test_rejects_nonvanishing_inner(self):
        with pytest.raises(ValueError):
            compose_schwarz(TruncatedSeries([1, 1]), TruncatedSeries([0.5, 1]))


class TestEvaluation:
    def test_at_origin(self):
        assert evaluate(TruncatedSeries([3 + 1j, 5, 7]), 0.0) == 3 + 1j

    def test_quadratic_at_half(self):
        assert abs(evaluate(TruncatedSeries([1, 1, 1]), 0.5) - 1.75) < 1e-15

    def test_truncated_geometric(self):
        s = TruncatedSeries(np.ones(65))
        assert abs(evaluate(s, 0.5) - 2.0) < 1e-10

    def test_vectorized(self):
        s = TruncatedSeries([1, 2])
        z = np.array([0.1, 0.2j])
        assert np.allclose(evaluate(s, z), 1 + 2 * z)


class TestCircleValues:
    # order 300 against 64 angles exercises the folding, 512 angles does not
    @pytest.mark.parametrize("angles", [64, 512])
    def test_matches_horner_on_members(self, angles):
        radius = 0.95
        z = radius * np.exp(2j * np.pi * np.arange(angles) / angles)
        specs = [
            (StripParams(0.5, 1.5), SchwarzSpec("blaschke-factor", a=0.3, phi=1.0)),
            (DorffParam(2.0), SchwarzSpec("power", c=0.8j, k=3)),
        ]
        members = [generate_member(target, spec, 300) for target, spec in specs]
        for f in members:
            modes = f.coeffs * radius ** np.arange(len(f.coeffs))
            assert np.max(np.abs(_fold(modes, angles) - evaluate(f, z))) < 1e-12


class TestFold:
    # lengths one below, at and one above a multiple of angles, one
    # shorter than a single row, and 8 641, one above the probe's 8 640 modes
    @pytest.mark.parametrize("angles", [2, 5, 64, 256, 1024, 8640])
    def test_bytes_match_chunk_loop(self, angles):
        rng = np.random.default_rng(angles)
        for n in (3 * angles - 1, 3 * angles, 3 * angles + 1, angles // 2 + 1, 8641):
            modes = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            # signed zeros, scattered and filling one residue class: the
            # loop adds every chunk to +0
            modes[rng.integers(0, n, size=max(1, n // 4))] = complex(-0.0, -0.0)
            modes[angles // 2 :: angles] = complex(-0.0, -0.0)
            got, ref = _fold(modes, angles), fold_by_chunks(modes, angles)
            assert got.tobytes() == ref.tobytes()


class TestCircleGrid:
    def test_read_only(self):
        grid = _circle_grid(0.9, 64)
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 0.0

    @pytest.mark.parametrize("radius, angles", [(0.9, 64), (0.995, 8640), (0.5, 7)])
    def test_bit_identical_to_formula(self, radius, angles):
        expected = radius * np.exp(1j * (2.0 * np.pi * np.arange(angles) / angles))
        assert np.array_equal(_circle_grid(radius, angles), expected)

    def test_repeat_call_returns_cached_object(self):
        assert _circle_grid(0.75, 128) is _circle_grid(0.75, 128)

    def test_cache_is_bounded(self):
        maxsize = _circle_grid.cache_info().maxsize
        assert maxsize is not None
        for angles in range(8, 8 + 2 * maxsize):
            _circle_grid(0.5, angles)
        assert _circle_grid.cache_info().currsize == maxsize


class TestCircleSampling:
    def test_identity_map(self):
        got = coeffs_by_circle_sampling(lambda z: z, 8, 0.5)
        expected = np.zeros(9)
        expected[1] = 1.0
        assert np.max(np.abs(got.coeffs - expected)) < 1e-10

    def test_exponential(self):
        got = coeffs_by_circle_sampling(np.exp, 16, 0.5)
        expected = 1.0 / np.array([math.factorial(k) for k in range(17)])
        assert np.max(np.abs(got.coeffs - expected)) < 1e-10

    def test_recovers_random_series(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            a = TruncatedSeries(rng.standard_normal(17) + 1j * rng.standard_normal(17))
            got = coeffs_by_circle_sampling(lambda z: evaluate(a, z), 16, 0.5)
            assert np.max(np.abs(got.coeffs - a.coeffs)) < 1e-8

    def test_scalar_only_callable(self):
        # no point-by-point fallback: the callable's own error reaches the caller
        def f(z):
            if np.ndim(z) != 0:
                raise TypeError("scalar only")
            return 1.0 / (1.0 - z)

        with pytest.raises(TypeError, match="scalar only"):
            coeffs_by_circle_sampling(f, 8, 0.5)

    def test_rejects_wrong_shape(self):
        # eval_fn is called once on the whole grid, one value per point
        for eval_fn in (lambda z: 1.0, lambda z: z[:-1], lambda z: z[:, None]):
            with pytest.raises(ValueError, match="shape"):
                coeffs_by_circle_sampling(eval_fn, 8, 0.5)

    def test_default_grid_is_5_smooth(self):
        # 4 * 2049 = 8196 = 2^2 * 3 * 683 would send numpy's FFT to its
        # prime-length path; the default rounds up to 8640 = 2^6 * 135
        lengths = []

        def record(z):
            lengths.append(len(z))
            return z

        coeffs_by_circle_sampling(record, 2048, 0.9)
        coeffs_by_circle_sampling(record, 2048, 0.9, samples=8196)
        assert lengths == [8640, 8196]

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            coeffs_by_circle_sampling(lambda z: z, 8, 1.0)

    def test_rejects_undersampling(self):
        with pytest.raises(ValueError):
            coeffs_by_circle_sampling(lambda z: z, 8, 0.5, samples=16)


class TestConstruction:
    @pytest.mark.parametrize("coeffs", [[], np.zeros((2, 2))], ids=["empty", "2-d"])
    def test_rejects_a_non_sequence(self, coeffs):
        with pytest.raises(ValueError, match="nonempty 1-D sequence"):
            TruncatedSeries(coeffs)

    def test_rejects_numeric_strings(self):
        # complex() parsed each one, and the series held 0 + z
        with pytest.raises(ValueError, match="sequence of numbers"):
            TruncatedSeries(["0", "1"])


class TestTags:
    def test_normalized(self):
        assert TruncatedSeries([0, 1, 5]).is_normalized()
        assert not TruncatedSeries([0, 2]).is_normalized()
        assert not TruncatedSeries([1e-6, 1]).is_normalized()

    def test_immutability(self):
        s = TruncatedSeries([1, 2])
        with pytest.raises(ValueError):
            s.coeffs[0] = 9.0
