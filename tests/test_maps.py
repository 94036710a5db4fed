import warnings

import numpy as np
import pytest

from stripcoef.maps import (
    DorffParam,
    StripParams,
    _li2,
    a_dorff_coeff,
    b_strip_coeff,
    b_tilde_eval,
    dorff_eval,
    p_hat_eval,
    p_strip_eval,
)
from stripcoef.series import coeffs_by_circle_sampling

from oracles import dorff_series, evaluate, hat_series, p_strip_series

PI = np.pi
HALF = StripParams(0.5, 1.5)  # mu = 1/2
RIGHT = DorffParam(PI / 2.0)


def polar_grid(radii, angles):
    r = np.asarray(radii)[:, None]
    theta = 2.0 * PI * np.arange(angles)[None, :] / angles
    return (r * np.exp(1j * theta)).ravel()


class TestParams:
    def test_strip_rejects_bad_order(self):
        with pytest.raises(ValueError):
            StripParams(1.0, 2.0)
        with pytest.raises(ValueError):
            StripParams(0.5, 0.9)

    def test_reject_non_finite(self):
        for alpha, beta in ((0.5, np.inf), (np.nan, 2.0), (-1e308, 1e308)):
            with pytest.raises(ValueError):
                StripParams(alpha, beta)
        for delta in (np.nan, np.inf):
            with pytest.raises(ValueError):
                DorffParam(delta)

    def test_rejects_underflowing_phase_fraction(self):
        # min(mu, 1 - mu) below the smallest normal double: the bounds built
        # from it read 0 or lose their digits
        for alpha, beta in (
            (0.9999999999999999, 1.7e308),
            (-1.7e308, 1.0000000000000002),
            (0.9999999999999999, 1.1e304),
        ):
            with pytest.raises(ValueError, match="not a normal double"):
                StripParams(alpha, beta)
        p = StripParams(0.9999999999999999, 1e290)
        assert np.finfo(float).tiny <= p.mu < 1e-305

    def test_mu_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = StripParams(rng.uniform(-2, 0.9), rng.uniform(1.1, 4))
            assert 0.0 < p.mu < 1.0

    def test_dorff_range(self):
        with pytest.raises(ValueError):
            DorffParam(1.0)
        with pytest.raises(ValueError):
            DorffParam(PI)
        assert DorffParam(PI / 2.0).delta == PI / 2.0

    def test_dorff_interval_at_right_angle(self):
        assert abs(RIGHT.lower - (1.0 - PI / 4.0)) < 1e-15
        assert abs(RIGHT.upper - (1.0 + PI / 4.0)) < 1e-15


class TestStripMap:
    def test_value_at_origin(self):
        assert p_strip_eval(HALF, 0.0) == 1.0

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            p_strip_eval(HALF, 1.0)

    def test_first_coefficient_symmetric_strip(self):
        assert abs(b_strip_coeff(HALF, 1) - 2j / PI) < 1e-15

    def test_even_coefficients_vanish_exactly(self):
        assert b_strip_coeff(HALF, 2) == 0.0
        assert b_strip_coeff(HALF, 4) == 0.0

    def test_coefficient_modulus_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = StripParams(rng.uniform(-2, 0.9), rng.uniform(1.1, 4))
            n = np.arange(1, 65)
            assert np.all(np.abs(b_strip_coeff(p, n)) <= 2 * p.width / (n * PI) + 1e-15)

    def test_first_coefficient_never_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = StripParams(rng.uniform(-2, 0.9), rng.uniform(1.1, 4))
            assert abs(b_strip_coeff(p, 1)) > 1e-3

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            b_strip_coeff(HALF, 0)

    def test_value_range_inside_strip(self):
        z = polar_grid(np.linspace(0.05, 0.999, 64), 64)
        re = np.real(p_strip_eval(HALF, z))
        assert np.all(re > HALF.alpha)
        assert np.all(re < HALF.beta)

    def test_value_at_half_consistent_with_coefficients(self):
        # mid-disc value within the coefficient-series tail envelope
        got = p_strip_eval(HALF, 0.5)
        series = evaluate(p_strip_series(HALF, 256), 0.5)
        assert abs(got - series) < 1e-15
        assert 0.5 < got.real < 1.5

    def test_coefficients_match_circle_sampling(self):
        # r = 0.5 amplifies FFT rounding by 2**32 at the top index; the
        # oversampled mean keeps the noise floor a factor ~2 under 1e-8
        sampled = coeffs_by_circle_sampling(
            lambda z: p_strip_eval(HALF, z), 32, 0.5, samples=2048
        )
        exact = p_strip_series(HALF, 32)
        assert np.max(np.abs(sampled.coeffs - exact.coeffs)) < 1e-8


class TestIntegratedStripMap:
    def test_coeff_is_scaled_map_coeff(self):
        for n in range(1, 65):
            assert HALF.hat_coeff(n) == b_strip_coeff(HALF, n) / n

    def test_symmetric_values(self):
        assert abs(HALF.hat_coeff(1) - 2j / PI) < 1e-15
        assert abs(HALF.hat_coeff(3) - 2j / (9 * PI)) < 1e-15

    def test_pointwise_matches_series(self):
        rng = np.random.default_rng(17)
        s = hat_series(HALF, 512)
        for _ in range(10):
            z = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * PI * rng.uniform())
            assert abs(p_hat_eval(HALF, z) - evaluate(s, z)) < 1e-12

    def test_series_is_integral_of_map_series(self):
        lhs = hat_series(HALF, 64)
        p = p_strip_series(HALF, 64)
        shifted = np.concatenate([[0.0], p.coeffs[1:]])  # P - 1
        from stripcoef.series import TruncatedSeries

        rhs = TruncatedSeries(shifted).integrate_over_t()
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-15


class TestDorffMap:
    def test_vanishes_at_origin(self):
        assert dorff_eval(RIGHT, 0.0) == 0.0

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            dorff_eval(RIGHT, -1.0)

    def test_rejects_delta_at_parameter_boundary(self):
        d = DorffParam(PI - 1e-7)
        with pytest.raises(ValueError):
            dorff_eval(d, 0.5)
        # the coefficient formula keeps working there
        assert a_dorff_coeff(d, 1) == 1.0

    def test_lower_edge_near_pi_against_mpmath(self):
        # 1 + (delta - np.pi)/(2 sin delta) was 0.608 at the last double below pi
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for delta in (3.0, 3.141592653589, np.nextafter(PI, 0.0)):
                x = mpmath.mpf(delta)
                exact = float(1 + (x - mpmath.pi) / (2 * mpmath.sin(x)))
                assert abs(DorffParam(delta).lower - exact) <= 1e-15 * abs(exact), delta

    def test_first_coefficient_is_one_for_all_delta(self):
        for delta in np.linspace(PI / 2.0, PI - 1e-3, 20):
            assert abs(a_dorff_coeff(DorffParam(delta), 1) - 1.0) < 1e-12

    def test_right_angle_coefficients(self):
        assert abs(a_dorff_coeff(RIGHT, 3) + 1.0 / 3.0) < 1e-15
        assert abs(a_dorff_coeff(RIGHT, 2)) < 1e-15

    def test_coefficient_bound(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            d = DorffParam(rng.uniform(PI / 2.0, PI - 1e-3))
            n = np.arange(1, 65)
            cap = np.minimum(n, 1.0 / np.sin(d.delta)) / n
            assert np.all(np.abs(a_dorff_coeff(d, n)) <= cap + 1e-12)

    def test_first_coefficient_from_sampling(self):
        sampled = coeffs_by_circle_sampling(lambda z: dorff_eval(RIGHT, z), 8, 0.5)
        assert abs(sampled.coeffs[1] - 1.0) < 1e-10

    def test_value_range_right_angle(self):
        z = polar_grid(np.linspace(0.05, 0.999, 64), 64)
        re = np.real(dorff_eval(RIGHT, z))
        assert np.all(re > -PI / 4.0)
        assert np.all(re < PI / 4.0)

    def test_coefficients_match_circle_sampling(self):
        d = DorffParam(2.2)
        sampled = coeffs_by_circle_sampling(
            lambda z: dorff_eval(d, z), 32, 0.5, samples=2048
        )
        exact = dorff_series(d, 32)
        assert np.max(np.abs(sampled.coeffs - exact.coeffs)) < 1e-8


class TestIntegratedDorffMap:
    def test_coeff_is_scaled_map_coeff(self):
        assert RIGHT.hat_coeff(1) == 1.0
        assert abs(RIGHT.hat_coeff(3) + 1.0 / 9.0) < 1e-15

    def test_series_is_integral_of_map_series(self):
        d = DorffParam(2.5)
        lhs = hat_series(d, 64)
        rhs = dorff_series(d, 64).integrate_over_t()
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-15

    def test_pointwise_matches_series(self):
        rng = np.random.default_rng(29)
        d = DorffParam(2.0)
        s = hat_series(d, 512)
        for _ in range(10):
            z = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * PI * rng.uniform())
            assert abs(b_tilde_eval(d, z) - evaluate(s, z)) < 1e-12


def _mp_map(target, z, mpmath):
    """kappa [log(1 - lam1 z) - log(1 - lam2 z)] in mpmath, from the
    target's own doubles: the strip map minus 1, or the Dorff map."""
    if target.family == "strip":
        alpha, beta = mpmath.mpf(target.alpha), mpmath.mpf(target.beta)
        kappa = 1j * (beta - alpha) / mpmath.pi
        lam1, lam2 = mpmath.expjpi(2 * (1 - alpha) / (beta - alpha)), 1
    else:
        delta = mpmath.mpf(target.delta)
        kappa = 1 / (2j * mpmath.sin(delta))
        lam1, lam2 = -mpmath.expj(delta), -mpmath.expj(-delta)
    z = mpmath.mpc(z.real, z.imag)
    return complex(kappa * (mpmath.log(1 - lam1 * z) - mpmath.log(1 - lam2 * z)))


def _disc_and_ring(seed):
    """Random disc points and the ring |z| = 0.995 a convexity probe samples."""
    rng = np.random.default_rng(seed)
    disc = np.sqrt(rng.uniform(size=100)) * np.exp(2j * PI * rng.uniform(size=100))
    return np.concatenate([disc, 0.995 * np.exp(2j * PI * np.arange(64) / 64)])


class TestMapAccuracy:
    def test_dorff_map_near_pi_against_mpmath(self):
        # the two logs nearly cancel as delta nears pi; one log of the
        # ratio keeps the digits their difference lost (2.6e-10 at pi - 1e-6)
        mpmath = pytest.importorskip("mpmath")
        z = _disc_and_ring(47)
        with mpmath.workdps(30):
            for delta in (2.0, 3.0, 3.14, 3.1415, PI - 1e-6):
                d = DorffParam(delta)
                exact = np.array([_mp_map(d, x, mpmath) for x in z])
                got = dorff_eval(d, z)
                assert np.all(np.abs(got - exact) <= 1e-14 * np.abs(exact)), delta

    def test_strip_map_near_unit_phase_against_mpmath(self):
        # mu = 1 - 1e-6: the map minus 1 is kappa log(1 + w) with a small w.
        # What is left is the rounding of 1 - lam1, 6e-6 apart.
        mpmath = pytest.importorskip("mpmath")
        p = StripParams(-1e3, 1.001)
        z = _disc_and_ring(53)
        with mpmath.workdps(30):
            exact = np.array([_mp_map(p, x, mpmath) for x in z])
        got = p_strip_eval(p, z) - 1.0
        assert np.all(np.abs(got - exact) <= 2e-11 * np.abs(exact))

    @pytest.mark.parametrize("alpha", [-1e3, -1e11])
    def test_strip_coefficients_near_unit_phase_against_mpmath(self, alpha):
        # 1 - mu = 1e-6 and 1e-14; 1 minus the rounded phase e^{2 pi i n mu}
        # erred by 7.5e-12 relative at n = 1 for alpha = -1e3
        mpmath = pytest.importorskip("mpmath")
        p = StripParams(alpha, 1.001)
        s, t = p._phase()
        n = np.arange(1, 65)
        with mpmath.workdps(40):
            # the same rounded phase n t as the library's
            phase = [mpmath.expjpi(2 * s * mpmath.mpf(float(k * t))) for k in n]
            exact = np.array(
                [complex(p.width / (k * mpmath.pi) * 1j * (1 - e)) for k, e in zip(n, phase)]
            )
        got = b_strip_coeff(p, n)
        assert np.all(np.abs(got - exact) <= 1e-14 * np.abs(exact))


def _li2_points():
    """Random disc points, the ring |z| = 0.999999, both sides of the
    Re z = 1/2 reflection seam, and z at 0, tiny, near -1 and near 1."""
    rng = np.random.default_rng(41)
    disc = np.sqrt(rng.uniform(size=400)) * np.exp(2j * PI * rng.uniform(size=400))
    ring = 0.999999 * np.exp(2j * PI * np.arange(256) / 256)
    y = np.linspace(-0.86, 0.86, 41)
    seam = np.concatenate([np.nextafter(0.5, s) + 1j * y for s in (0.0, 1.0)] + [0.5 + 1j * y])
    special = np.array([0.0, 1e-300, 1e-20j, 1e-10 - 3e-11j, -0.999999, -1.0 + 1e-16, 0.999999])
    return np.concatenate([disc, ring, seam, special])


class TestDilogarithm:
    def _check(self, ref):
        z = _li2_points()
        got = _li2(z)
        expected = np.array([ref(x) for x in z])
        assert np.all(np.abs(got - expected) <= 1e-14 * np.maximum(1.0, np.abs(expected)))

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            self._check(lambda x: complex(mpmath.polylog(2, mpmath.mpc(x.real, x.imag))))

    def test_relative_error_on_disc_points(self):
        # u = -log(1 - w) by real log1p; numpy's complex log1p lost digits
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(59)
        z = np.sqrt(rng.uniform(size=400)) * np.exp(2j * PI * rng.uniform(size=400))
        with mpmath.workdps(30):
            exact = np.array([complex(mpmath.polylog(2, mpmath.mpc(x.real, x.imag))) for x in z])
        assert np.all(np.abs(_li2(z) - exact) <= 1e-15 * np.abs(exact))

    def test_against_spence(self):
        special = pytest.importorskip("scipy.special")
        # spence(w) = Li_2(1 - w)
        self._check(lambda x: complex(special.spence(1.0 - x)))

    def test_closed_forms(self):
        assert _li2(0.0) == 0.0
        assert abs(_li2(0.5) - (PI**2 / 12.0 - np.log(2.0) ** 2 / 2.0)) < 1e-15
        assert abs(_li2(-1.0 + 1e-16) - (-(PI**2) / 12.0)) < 1e-14

    def test_zero_dim_matches_array_path(self):
        z = _li2_points()
        got = _li2(z)
        for i in range(0, len(z), 17):
            one = _li2(z[i])
            assert one.shape == ()
            assert one == got[i]

    def test_no_warning_at_zero_or_on_seam(self):
        # the point set holds z = 0 and the seam
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(_li2(_li2_points())))
            assert _li2(0.0) == 0.0
