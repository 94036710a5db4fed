import json
import warnings

import numpy as np
import pytest

from stripcoef.maps import (
    DorffParam,
    StripParams,
    _li2,
    _map_minus_center,
    _parity_sign,
    b_tilde_eval,
    dorff_eval,
    p_hat_eval,
    p_strip_eval,
)
from stripcoef.series import TruncatedSeries
from oracles import (
    b_strip_coeff,
    coeffs_by_circle_sampling,
    dorff_series,
    evaluate,
    hat_series,
    integrate_over_t,
    p_strip_series,
)

PI = np.pi
HALF = StripParams(0.5, 1.5)  # mu = 1/2
RIGHT = DorffParam(PI / 2.0)
# case ids of a family-blind check run once over each class
FAMILIES = ["strip", "dorff"]


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

    @pytest.mark.parametrize("real", [np.float32, np.float64])
    def test_fields_are_python_floats(self, real):
        # np.float32 fields gave float32 bounds (0.10280838 for the strip
        # (0.5, 1.5)) and report contexts that json refused
        for target, want in (
            (StripParams(real(0.5), real(1.5)), HALF),
            (StripParams(real(-1), real(3)), StripParams(-1.0, 3.0)),
            (DorffParam(real(2)), DorffParam(2.0)),
        ):
            assert target.sum_bound() == want.sum_bound()
            assert target.per_n_bound(7) == want.per_n_bound(7)
            assert target.tail_constant == want.tail_constant
            assert all(type(v) is float for v in target.describe().values())
            json.dumps(target.describe())

    def test_bound_overflow_raises(self):
        # np.float64 edges overflowed to inf with only a RuntimeWarning
        for real in (float, np.float64):
            with pytest.raises(OverflowError):
                StripParams(real(-1e300), real(1e300)).sum_bound()

    def test_rejects_non_real_fields(self):
        for alpha, beta in (("0.5", 1.5), (0.5, None), (0.5, 1.5 + 0j)):
            with pytest.raises(ValueError, match="real number"):
                StripParams(alpha, beta)
        with pytest.raises(ValueError, match="real number"):
            DorffParam("2.0")

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
        assert abs(RIGHT.alpha - (1.0 - PI / 4.0)) < 1e-15
        assert abs(RIGHT.beta - (1.0 + PI / 4.0)) < 1e-15


class TestStripMap:
    def test_value_at_origin(self):
        assert p_strip_eval(HALF, 0.0) == 1.0

    def test_first_coefficient_symmetric_strip(self):
        assert abs(HALF.hat_coeff(1) - 2j / PI) < 1e-15

    def test_even_coefficients_vanish_exactly(self):
        assert HALF.hat_coeff(2) == 0.0
        assert HALF.hat_coeff(4) == 0.0

    def test_coefficient_modulus_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = StripParams(rng.uniform(-2, 0.9), rng.uniform(1.1, 4))
            n = np.arange(1, 65)
            assert np.all(np.abs(n * p.hat_coeff(n)) <= 2 * p.width / (n * PI) + 1e-15)

    def test_first_coefficient_never_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = StripParams(rng.uniform(-2, 0.9), rng.uniform(1.1, 4))
            assert abs(p.hat_coeff(1)) > 1e-3

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            HALF.hat_coeff(0)

    @pytest.mark.parametrize("n", [float("nan"), 1.5, 2.5, 2.7, True, np.array([1, 2.5])])
    def test_rejects_non_integer_index(self, n):
        # these were rounded by int() or passed through to a NaN value
        for coeff in (
            HALF.hat_coeff,
            RIGHT.hat_coeff,
            DorffParam(2.0).hat_coeff,
            HALF.per_n_bound,
            RIGHT.per_n_bound,
        ):
            with pytest.raises(ValueError, match="integer"):
                coeff(n)

    @pytest.mark.parametrize("z", [complex("nan"), complex(0.1, float("nan")), [0.1, float("nan")]])
    def test_rejects_nan_point(self, z):
        for value in (
            lambda z: p_strip_eval(HALF, z),
            lambda z: p_hat_eval(HALF, z),
            lambda z: dorff_eval(RIGHT, z),
            lambda z: b_tilde_eval(RIGHT, z),
        ):
            with pytest.raises(ValueError, match=r"\|z\| < 1"):
                value(z)

    @pytest.mark.parametrize("evaluate", [p_strip_eval, p_hat_eval, dorff_eval, b_tilde_eval])
    def test_rejects_a_numeric_string(self, evaluate):
        # complex() parsed "0.3", and the map returned its value there
        target = HALF if evaluate in (p_strip_eval, p_hat_eval) else RIGHT
        for z in ("0.3", ["0.3", 0.1]):
            with pytest.raises(ValueError, match="must be a number"):
                evaluate(target, z)

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


class TestIntegratedStripMap:
    def test_coeff_is_scaled_map_coeff(self):
        for n in range(1, 65):
            assert HALF.hat_coeff(n) == b_strip_coeff(HALF, n) / n
        rng = np.random.default_rng(71)
        n = np.arange(1, 300)
        for _ in range(50):
            p = StripParams(rng.uniform(-5, 0.99), rng.uniform(1.01, 6))
            assert np.array_equal(p.hat_coeff(n), b_strip_coeff(p, n) / n)

    def test_symmetric_values(self):
        assert abs(HALF.hat_coeff(1) - 2j / PI) < 1e-15
        assert abs(HALF.hat_coeff(3) - 2j / (9 * PI)) < 1e-15

    def test_parity_sign_is_the_power(self):
        # hat_rotation's sign (-1)^j, by parity instead of a power, to the bit
        j = np.ceil(np.arange(1, 4097) * 0.3 - 0.5)
        assert np.array_equal(_parity_sign(j), (-1.0) ** j)

    @pytest.mark.parametrize(
        "p",
        [
            HALF,
            StripParams(-1.3, 3.7),
            StripParams(-1e3, 1.001),
            StripParams(0.999999, 2.0),
            StripParams(0.0, 1.000001),
        ],
        ids=repr,
    )
    def test_rotation_reproduces_coefficients(self, p):
        # hat_coeff(n) = rho_n tau^n with rho_n real; both take sin(pi r)
        # from the same reduced r, so their moduli agree to rounding
        n = np.arange(1, 4097)
        tau, rho = p.hat_rotation(n)
        hat = p.hat_coeff(n)
        assert rho.dtype == float and abs(abs(tau) - 1.0) <= 1e-16
        assert np.array_equal(rho == 0.0, hat == 0.0)
        nz = hat != 0.0
        assert np.all(np.abs(np.abs(rho[nz]) - np.abs(hat[nz])) <= 1e-15 * np.abs(hat[nz]))
        eps = np.finfo(float).eps
        assert np.all(np.abs(rho * tau**n - hat) <= 4.0 * n * eps * np.abs(hat))


class TestDorffMap:
    def test_vanishes_at_origin(self):
        assert dorff_eval(RIGHT, 0.0) == 0.0

    def test_rejects_delta_at_parameter_boundary(self):
        # delta = pi is no target; the map reads every delta below it
        with pytest.raises(ValueError, match="delta must lie"):
            DorffParam(PI)
        d = DorffParam(PI - 1e-7)
        assert np.all(np.isfinite(dorff_eval(d, [0.5, -0.5, 0.99j])))
        # the coefficients keep working there; A_1 = 1 reads
        # 0.9999999999999998, the turned strip's rounding
        assert abs(d.hat_coeff(1) - 1.0) <= 4.0 * np.spacing(1.0)

    def test_lower_edge_near_pi_against_mpmath(self):
        # 1 + (delta - np.pi)/(2 sin delta) was 0.608 at the last double below pi
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for delta in (3.0, 3.141592653589, np.nextafter(PI, 0.0)):
                x = mpmath.mpf(delta)
                exact = float(1 + (x - mpmath.pi) / (2 * mpmath.sin(x)))
                assert abs(DorffParam(delta).alpha - exact) <= 1e-15 * abs(exact), delta

    def test_first_coefficient_is_one_for_all_delta(self):
        for delta in np.linspace(PI / 2.0, PI - 1e-3, 20):
            assert abs(DorffParam(delta).hat_coeff(1) - 1.0) < 1e-12

    def test_right_angle_coefficients(self):
        # delta = pi/2 takes the strip's nu branch (mu rounds above 1/2)
        assert abs(3 * RIGHT.hat_coeff(3) + 1.0 / 3.0) < 1e-15
        assert abs(2 * RIGHT.hat_coeff(2)) < 1e-15

    def test_coefficient_bound(self):
        rng = np.random.default_rng(19)
        for _ in range(10):
            d = DorffParam(rng.uniform(PI / 2.0, PI - 1e-3))
            n = np.arange(1, 65)
            cap = np.minimum(n, 1.0 / np.sin(d.delta)) / n
            assert np.all(np.abs(n * d.hat_coeff(n)) <= cap + 1e-12)

    def test_first_coefficient_from_sampling(self):
        sampled = coeffs_by_circle_sampling(lambda z: dorff_eval(RIGHT, z), 8, 0.5)
        assert abs(sampled.coeffs[1] - 1.0) < 1e-10

    def test_value_range_right_angle(self):
        z = polar_grid(np.linspace(0.05, 0.999, 64), 64)
        re = np.real(dorff_eval(RIGHT, z))
        assert np.all(re > -PI / 4.0)
        assert np.all(re < PI / 4.0)


class TestIntegratedDorffMap:
    def test_rejects_delta_at_parameter_boundary(self):
        # the strip's own domain, min(mu, 1 - mu) >= 1e-6/pi, ends between
        # pi - 1e-6 and pi - 1e-7
        with pytest.raises(ValueError, match=r"min\(mu, 1 - mu\) >= 1e-6/pi"):
            b_tilde_eval(DorffParam(PI - 1e-7), 0.1)
        assert np.isfinite(b_tilde_eval(DorffParam(PI - 1e-6), 0.1))

    def test_coeff_is_scaled_map_coeff(self):
        assert RIGHT.hat_coeff(1) == 1.0
        assert abs(RIGHT.hat_coeff(3) + 1.0 / 9.0) < 1e-15

    def test_rotation_is_the_identity(self):
        n = np.arange(1, 4097)
        for d in (RIGHT, DorffParam(3.0), DorffParam(PI - 1e-3)):
            tau, rho = d.hat_rotation(n)
            assert tau == 1.0 and np.array_equal(rho, d.hat_coeff(n))


class TestMap:
    @pytest.mark.parametrize(
        "target, evaluate, z", [(HALF, p_strip_eval, 1.0), (RIGHT, dorff_eval, -1.0)], ids=FAMILIES
    )
    def test_rejects_boundary(self, target, evaluate, z):
        with pytest.raises(ValueError):
            evaluate(target, z)

    @pytest.mark.parametrize(
        "target, evaluate, series",
        [(HALF, p_strip_eval, p_strip_series), (DorffParam(2.2), dorff_eval, dorff_series)],
        ids=FAMILIES,
    )
    def test_coefficients_match_circle_sampling(self, target, evaluate, series):
        # r = 0.5 amplifies the sampled values' rounding by 2**n at index n:
        # at n = 32 correctly rounded values already read 7.5e-9, at n = 24
        # the floor is ~100x under 1e-8 and a 1e-12 relative error in the
        # values still reads 1.2e-7
        sampled = coeffs_by_circle_sampling(lambda z: evaluate(target, z), 24, 0.5, samples=2048)
        exact = series(target, 24)
        assert np.max(np.abs(sampled.coeffs - exact.coeffs)) < 1e-8

    def test_map_coefficients_are_n_hat_coeff(self):
        # for the turned strip as well: delta = pi/2 takes the strip's nu
        # branch (s = -1), and the unturned strip coefficient of a
        # DorffParam is not its map's
        n = np.arange(1, 25)
        for d in (RIGHT, DorffParam(2.0), DorffParam(PI - 1e-3)):
            sampled = coeffs_by_circle_sampling(
                lambda z: p_strip_eval(d, z) - 1.0, 24, 0.5, samples=2048
            )
            assert abs(sampled.coeffs[0]) < 1e-15
            assert np.max(np.abs(sampled.coeffs[1:] - n * d.hat_coeff(n))) < 1e-8, d


class TestIntegratedMap:
    @pytest.mark.parametrize(
        "seed, target, integrated",
        [(17, HALF, p_hat_eval), (29, DorffParam(2.0), b_tilde_eval)],
        ids=FAMILIES,
    )
    def test_pointwise_matches_series(self, seed, target, integrated):
        rng = np.random.default_rng(seed)
        s = hat_series(target, 512)
        for _ in range(10):
            z = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * PI * rng.uniform())
            assert abs(integrated(target, z) - evaluate(s, z)) < 1e-12

    @pytest.mark.parametrize(
        "target, series", [(HALF, p_strip_series), (DorffParam(2.5), dorff_series)], ids=FAMILIES
    )
    def test_series_is_integral_of_map_series(self, target, series):
        lhs = hat_series(target, 64)
        minus_center = np.concatenate([[0.0], series(target, 64).coeffs[1:]])
        rhs = integrate_over_t(TruncatedSeries(minus_center))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-15


class TestScalarsTakeTheArrayPath:
    """A scalar point or index returns the NumPy scalar the array
    arithmetic gives, so it rounds as the array entry does."""

    WIDE = StripParams(-1426325.2671260664, 1.0124230516919388)

    @pytest.mark.parametrize("target", [StripParams(-1.3, 3.7), DorffParam(2.9), WIDE], ids=repr)
    def test_scalar_hat_coeff_is_the_array_entry(self, target):
        # Python's complex division of a Python-int n, or libm pow squaring a
        # NumPy scalar sine (n = 299 of the wide strip), moves the last bit
        n = np.arange(1, 300)
        whole = target.hat_coeff(n)
        scalars = np.array([target.hat_coeff(int(k)) for k in n])
        assert scalars.tobytes() == whole.tobytes()

    def test_scalars_return_numpy_scalars(self):
        for value in (
            p_strip_eval(HALF, 0.3),
            p_hat_eval(HALF, 0.3j),
            dorff_eval(RIGHT, 0.3),
            b_tilde_eval(RIGHT, 0.3),
            HALF.hat_coeff(3),
        ):
            assert type(value) is np.complex128
        for d in (RIGHT, DorffParam(2.0)):
            assert type(d.hat_coeff(3)) is np.float64
        assert p_strip_eval(HALF, 0.3) == p_strip_eval(HALF, [0.3])[0]


def _mp_factors(target, mpmath):
    """(kappa, lam1, lam2) in mpmath from the target's own doubles: the
    strip's from its edges, the Dorff map's from delta."""
    if target.family == "strip":
        alpha, beta = mpmath.mpf(target.alpha), mpmath.mpf(target.beta)
        kappa = 1j * (beta - alpha) / mpmath.pi
        return kappa, mpmath.expjpi(2 * (1 - alpha) / (beta - alpha)), 1
    delta = mpmath.mpf(target.delta)
    kappa = 1 / (2j * mpmath.sin(delta))
    return kappa, -mpmath.expj(delta), -mpmath.expj(-delta)


def _mp_map(target, z, mpmath):
    """kappa [log(1 - lam1 z) - log(1 - lam2 z)] in mpmath: the strip
    map minus 1, or the Dorff map."""
    kappa, lam1, lam2 = _mp_factors(target, mpmath)
    z = mpmath.mpc(z.real, z.imag)
    return complex(kappa * (mpmath.log(1 - lam1 * z) - mpmath.log(1 - lam2 * z)))


def _mp_integrated_map(target, z, mpmath):
    """kappa [Li_2(lam2 z) - Li_2(lam1 z)] in mpmath: the integrated map."""
    kappa, lam1, lam2 = _mp_factors(target, mpmath)
    z = mpmath.mpc(z.real, z.imag)
    return complex(kappa * (mpmath.polylog(2, lam2 * z) - mpmath.polylog(2, lam1 * z)))


def _disc_and_ring(seed):
    """Random disc points and the ring |z| = 0.995 a convexity probe samples."""
    rng = np.random.default_rng(seed)
    disc = np.sqrt(rng.uniform(size=100)) * np.exp(2j * PI * rng.uniform(size=100))
    return np.concatenate([disc, 0.995 * np.exp(2j * PI * np.arange(64) / 64)])


class TestMapAccuracy:
    def test_dorff_map_near_pi_against_mpmath(self):
        # the two logs nearly cancel as delta nears pi; one log of the
        # ratio keeps the digits their difference lost (2.6e-10 at pi - 1e-6).
        # The map needs nothing of the strip, so both families' evaluators
        # read the turned strip up to the last double below pi
        mpmath = pytest.importorskip("mpmath")
        z = _disc_and_ring(47)
        with mpmath.workdps(40):
            for delta in (2.0, 3.0, 3.14, 3.1415, PI - 1e-6, PI - 1e-9, np.nextafter(PI, 0.0)):
                d = DorffParam(delta)
                exact = np.array([_mp_map(d, x, mpmath) for x in z])
                for got in (dorff_eval(d, z), p_strip_eval(d, z) - 1.0):
                    assert np.all(np.abs(got - exact) <= 1e-14 * np.abs(exact)), delta

    @pytest.mark.parametrize(
        "target",
        [StripParams(-1e9, 1.000000001), StripParams(1.0 - 1e-12, 2.0), DorffParam(PI - 1e-7)],
        ids=repr,
    )
    def test_integrated_map_refuses_a_phase_near_the_edge(self, target):
        # min(mu, 1 - mu) below 1e-6/pi, whatever the family: against
        # mpmath the first strip's Li_2 difference erred by up to 4.1
        # relative, the second's by 6.0e-5
        for evaluate in (p_hat_eval, b_tilde_eval):
            with pytest.raises(ValueError, match=r"min\(mu, 1 - mu\) >= 1e-6/pi"):
                evaluate(target, 0.5)

    @pytest.mark.parametrize("target", [DorffParam(PI - 1e-6), StripParams(-1e3, 1.001)], ids=repr)
    def test_integrated_map_near_the_edge_against_mpmath(self, target):
        # the Li_2 difference keeps ~eps/min(mu, 1 - mu): up to 3.9e-10 and
        # 7.2e-11 relative on all 164 points
        mpmath = pytest.importorskip("mpmath")
        z = _disc_and_ring(67)[::4]
        with mpmath.workdps(40):
            exact = np.array([_mp_integrated_map(target, x, mpmath) for x in z])
        for evaluate in (p_hat_eval, b_tilde_eval):
            assert np.all(np.abs(evaluate(target, z) - exact) <= 1e-9 * np.abs(exact))

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

    # mu near 1 (1 - mu from 1e-3 to 1e-12) and near 0
    @pytest.mark.parametrize(
        "alpha, beta",
        [(-1e3, 1.001), (-1e6, 1.000001), (0.999999, 3.0), (-2.0, 1.0 + 1e-9)]
        + [(1.0 - (1.0 - nu) / nu, 2.0) for nu in (1e-3, 1e-6, 1e-9, 1e-12)],
    )
    def test_strip_map_near_edge_phase_against_mpmath(self, alpha, beta):
        # lam2 - lam1 by subtraction erred by up to 3e-9 relative here; the
        # first coefficient over kappa has no cancellation.  p_strip_eval
        # adds 1, which rounds away the digits of a small map minus 1, so
        # the map minus its center is compared
        mpmath = pytest.importorskip("mpmath")
        p = StripParams(alpha, beta)
        z = _disc_and_ring(61)
        with mpmath.workdps(40):
            exact = np.array([_mp_map(p, x, mpmath) for x in z])
        got = _map_minus_center(p, z)
        assert np.all(np.abs(got - exact) <= 1e-14 * np.abs(exact))

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
        got = n * p.hat_coeff(n)
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
