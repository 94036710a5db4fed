import math

import numpy as np
import pytest

from stripcoef.logcoef import SchwarzSpec, _log_one_minus, generate_member
from stripcoef.maps import DorffParam, StripParams
from stripcoef.series import (
    _EXP_NEWTON_MIN,
    TruncatedSeries,
    _exp_newton,
    _exp_recurrence,
    coeffs_by_circle_sampling,
    log_normalized,
    series_exp,
)

from oracles import compose_schwarz, evaluate, hat_series, identity


def _random_normalized(rng, order, scale=0.1):
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[1] = 1.0
    r = scale * np.sqrt(rng.uniform(size=order - 1))
    phase = np.exp(2j * np.pi * rng.uniform(size=order - 1))
    coeffs[2:] = r * phase
    return TruncatedSeries(coeffs)


class TestCalculus:
    def test_derivative_direct(self):
        d = TruncatedSeries([0, 1, 1]).derivative()
        assert np.array_equal(d.coeffs, [1, 2])

    def test_derivative_of_constant(self):
        d = TruncatedSeries([5, 0]).derivative()
        assert np.array_equal(d.coeffs, [0])

    def test_derivative_cube(self):
        d = TruncatedSeries([0, 0, 0, 1]).derivative()
        assert np.array_equal(d.coeffs, [0, 0, 3])

    def test_derivative_rejects_order_zero(self):
        with pytest.raises(ValueError):
            TruncatedSeries([5]).derivative()

    def test_integrate_linear(self):
        g = TruncatedSeries([0, 1]).integrate_over_t()
        assert np.array_equal(g.coeffs, [0, 1])

    def test_integrate_square(self):
        g = TruncatedSeries([0, 0, 1]).integrate_over_t()
        assert np.allclose(g.coeffs, [0, 0, 0.5])

    def test_integrate_then_differentiate_back(self):
        g = TruncatedSeries([0, 2, 0, 4])
        integ = g.integrate_over_t()
        assert np.allclose(integ.coeffs, [0, 2, 0, 4 / 3])
        # z * d/dz of the primitive recovers the integrand exactly
        recovered = integ.derivative().shift()
        assert np.array_equal(recovered.coeffs, g.coeffs)

    def test_integrate_rejects_constant_term(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1, 1]).integrate_over_t()


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
    """The series generate_member exponentiates, z f'/f = q, at `order`."""
    out = []
    for target in _TARGETS:
        kappa, lam1, lam2 = target.factors()
        for spec in _SPECS:
            q_minus_1 = kappa * (
                _log_one_minus(lam1, spec, order) - _log_one_minus(lam2, spec, order)
            )
            out.append(TruncatedSeries(q_minus_1))
    return out


class TestExpNewton:
    @pytest.mark.parametrize(
        "order", [_EXP_NEWTON_MIN - 1, _EXP_NEWTON_MIN, _EXP_NEWTON_MIN + 1, 4096, 14019]
    )
    def test_matches_recurrence(self, order):
        for q_minus_1 in _exponents(order):
            a = q_minus_1.integrate_over_t().coeffs
            ref = _exp_recurrence(a)
            got = _exp_newton(a)
            assert len(got) == len(ref)
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, np.max(np.abs(ref)))

    def test_dispatch_at_crossover(self):
        paths = ((_EXP_NEWTON_MIN - 1, _exp_recurrence), (_EXP_NEWTON_MIN, _exp_newton))
        for order, path in paths:
            a = _exponents(order)[0].integrate_over_t()
            assert np.array_equal(series_exp(a).coeffs, path(a.coeffs))

    @pytest.mark.parametrize("half_width", [10.0, 15.0])
    def test_wide_strip_falls_back_to_recurrence(self, half_width):
        # at width 20 Newton loses every digit (coefficients up to 1.3e13
        # where the recurrence's reach 9.0e3); at width 30 it overflows.
        # Its residual, large or NaN, sends series_exp back without a warning
        a = hat_series(StripParams(-half_width, half_width), 4000)
        ref = _exp_recurrence(a.coeffs)
        got = series_exp(a).coeffs
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_matches_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        order = 512
        for q_minus_1 in (_exponents(order)[i] for i in (0, 5)):
            a = q_minus_1.integrate_over_t().coeffs
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
            e = series_exp(q_minus_1.integrate_over_t()).coeffs
            k = np.arange(order + 1)
            size = 2 * (order + 1)
            product = np.fft.ifft(np.fft.fft(q_minus_1.coeffs, size) * np.fft.fft(e, size))
            assert np.max(np.abs(k * e - product[: order + 1])) <= 1e-12


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
            assert np.max(np.abs(f.circle_values(radius, angles) - evaluate(f, z))) < 1e-12


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


class TestTags:
    def test_normalized(self):
        assert TruncatedSeries([0, 1, 5]).is_normalized()
        assert not TruncatedSeries([0, 2]).is_normalized()
        assert not TruncatedSeries([1e-6, 1]).is_normalized()

    def test_immutability(self):
        s = TruncatedSeries([1, 2])
        with pytest.raises(ValueError):
            s.coeffs[0] = 9.0
