import importlib

import numpy as np
import pytest

from stripcoef.polylog import li4_quadrature, li4_symmetric_circle, polylog

PI = np.pi


def brute_cos_sum(theta, terms=4000):
    """Independent oracle for sum cos(n theta)/n^4 (tail < 1/(3*terms^3))."""
    n = np.arange(1, terms + 1)
    return float(np.sum(np.cos(n * theta) / n**4.0))


class TestPolylogSeries:
    def test_zeta4(self):
        res = polylog(4, 1.0)
        assert abs(res.value - PI**4 / 90.0) < 1e-10
        assert res.value.imag == 0.0

    def test_alternating_zeta4(self):
        res = polylog(4, -1.0)
        assert abs(res.value - (-7.0 * PI**4 / 720.0)) < 1e-10

    def test_at_zero(self):
        res = polylog(4, 0.0)
        assert res.value == 0.0
        assert res.terms_used == 0
        assert res.tail_bound == 0.0

    def test_tail_bound_is_truthful(self):
        # exact value known at z = 1; the partial sum must sit within tail
        for tol in (1e-6, 1e-9, 1e-12):
            res = polylog(4, 1.0, tol=tol)
            assert abs(res.value - PI**4 / 90.0) <= res.tail_bound
            assert res.tail_bound <= tol

    def test_monotone_tail(self):
        prev_terms, prev_tail = 0, np.inf
        for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            res = polylog(4, 0.7 + 0.2j, tol=tol)
            assert res.terms_used >= prev_terms
            assert res.tail_bound <= prev_tail
            prev_terms, prev_tail = res.terms_used, res.tail_bound

    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-12, float("inf")])
    def test_rejects_bad_tolerance(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            polylog(4, 0.5, tol=tol)

    def test_interior_geometric_cutoff(self):
        # well inside the disc far fewer terms suffice than on the circle
        inside = polylog(4, 0.5)
        on_circle = polylog(4, 1.0)
        assert inside.terms_used < on_circle.terms_used / 10

    def test_weight_two_interior(self):
        res = polylog(2, 0.5, tol=1e-10)
        exact = PI**2 / 12.0 - np.log(2.0) ** 2 / 2.0
        assert abs(res.value - exact) <= max(res.tail_bound, 1e-10)

    def test_weight_two_circle_caps_terms(self):
        # 1e-12 on the circle would need ~1e12 terms; the cap binds and
        # the reported tail stays honest
        res = polylog(2, 1.0)
        assert res.terms_used == 2_000_000
        assert res.tail_bound > 1e-12
        assert abs(res.value - PI**2 / 6.0) <= res.tail_bound

    def test_weight_two_at_minus_one_meets_tolerance(self):
        # summation by parts: 2 / (|1 - z| (m+1)^2) <= 1e-9 at m = 31622,
        # where the integral test alone would need 1e9 terms
        res = polylog(2, -1.0, tol=1e-9)
        assert res.terms_used == 31_622
        assert res.tail_bound <= 1e-9
        assert abs(res.value - (-(PI**2) / 12.0)) <= res.tail_bound

    def test_weight_two_circle_point_meets_tolerance(self):
        # Li_2(e^{it}) has real part pi^2/6 - t(2 pi - t)/4 for t in [0, 2 pi]
        t = 1.0
        res = polylog(2, np.exp(1j * t), tol=1e-9)
        assert res.terms_used < 100_000
        assert res.tail_bound <= 1e-9
        exact_re = PI**2 / 6.0 - t * (2.0 * PI - t) / 4.0
        assert abs(res.value.real - exact_re) <= res.tail_bound

    def test_weight_four_at_minus_one_uses_fewer_terms(self):
        res = polylog(4, -1.0, tol=1e-9)
        assert res.terms_used == 177
        assert abs(res.value - (-7.0 * PI**4 / 720.0)) <= res.tail_bound <= 1e-9

    def test_rejects_outside_disc(self):
        with pytest.raises(ValueError):
            polylog(4, 1.0 + 1e-6)

    @pytest.mark.parametrize("z", [complex("nan"), complex(0.5, float("nan"))])
    def test_rejects_nan_argument(self, z):
        with pytest.raises(ValueError, match=r"\|z\| <= 1"):
            polylog(4, z)

    def test_rejects_a_numeric_string(self):
        # complex("0.5") parsed it, and the sum ran
        with pytest.raises(ValueError, match="complex number"):
            polylog(2, "0.5")

    @pytest.mark.parametrize("z", [True, False])
    def test_rejects_a_bool(self, z):
        # True returned Li_2(1); the weight and array rules refuse a bool too
        with pytest.raises(ValueError, match="complex number"):
            polylog(2, z)

    def test_rejects_small_weight(self):
        with pytest.raises(ValueError):
            polylog(1, 0.5)

    def test_rejects_noninteger_weight(self):
        with pytest.raises(ValueError):
            polylog(2.5, 0.5)

    def test_numpy_integer_weight(self):
        # m ** (1 - s) in np.int64 raised on the negative exponent
        assert polylog(np.int64(4), 0.5) == polylog(4, 0.5)

    def test_rejects_weight_above_48(self):
        # (2 000 001)^49, the largest n^s at the term cap, overflows a float
        with pytest.raises(ValueError, match="at most 48"):
            polylog(49, 0.5)

    @pytest.mark.filterwarnings("error")
    def test_weight_48_at_smallest_tolerance(self):
        # the integral-test estimate is inf at this tolerance and is capped;
        # n^48 stays finite up to the cap
        for z in (0.5, 1.0, -1.0, np.exp(1j)):
            res = polylog(48, z, tol=5e-324)
            assert res.terms_used <= 2_000_000
            assert res.tail_bound < 1e-297
            # Li_48(z) = z + z^2/2^48 + (terms below 1e-22)
            assert abs(res.value - (z + z * z / 2.0**48)) < 1e-15

    @pytest.mark.filterwarnings("error")
    def test_weight_two_at_smallest_tolerance(self):
        res = polylog(2, 0.5, tol=5e-324)
        assert res.tail_bound <= 5e-324
        exact = PI**2 / 12.0 - np.log(2.0) ** 2 / 2.0
        assert abs(res.value - exact) < 1e-15

    def test_real_argument_gives_real_value(self):
        # summed as complex powers of -1 + 0j, the phase of high powers
        # rounds to imaginary parts of -4.7e-19 (weight 2) and 9.4e-111 (48)
        for s, z in ((2, -1.0), (48, -1.0), (3, 0.5), (4, complex(-0.25, 0.0))):
            res = polylog(s, z, tol=5e-324)
            assert res.value.imag == 0.0
        assert abs(polylog(2, -1.0, tol=5e-324).value + PI**2 / 12.0) < 1e-12


class TestSymmetricCircle:
    def test_theta_zero_doubles_zeta4(self):
        assert abs(li4_symmetric_circle(0.0) - PI**4 / 45.0) < 1e-14

    def test_theta_pi(self):
        assert abs(li4_symmetric_circle(PI) - (-7.0 * PI**4 / 360.0)) < 1e-13

    def test_closed_form_against_brute_force_grid(self):
        for theta in np.linspace(0.0, 2.0 * PI, 101):
            closed = li4_symmetric_circle(theta)
            assert abs(closed - 2.0 * brute_cos_sum(theta)) < 1e-9

    def test_against_series_evaluator(self):
        for theta in np.linspace(0.0, 2.0 * PI, 101):
            series = 2.0 * polylog(4, np.exp(1j * theta)).value.real
            assert abs(li4_symmetric_circle(theta) - series) < 1e-9

    def test_symmetric_combination_is_real(self):
        for theta in np.linspace(0.1, 2.0 * PI - 0.1, 17):
            total = polylog(4, np.exp(1j * theta)).value + polylog(
                4, np.exp(-1j * theta)
            ).value
            assert abs(total.imag) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            li4_symmetric_circle(-0.1)
        with pytest.raises(ValueError):
            li4_symmetric_circle(2.0 * PI + 0.1)


class TestQuadrature:
    def test_at_zero(self):
        assert li4_quadrature(0.0) == 0.0

    def test_rejects_a_numeric_string(self):
        with pytest.raises(ValueError, match="complex number"):
            li4_quadrature("0.5")

    def test_rejects_a_bool(self):
        with pytest.raises(ValueError, match="complex number"):
            li4_quadrature(False)

    def test_matches_series_at_minus_one(self):
        assert abs(li4_quadrature(-1.0) - polylog(4, -1.0).value) < 1e-8

    def test_matches_series_at_half(self):
        assert abs(li4_quadrature(0.5) - polylog(4, 0.5).value) < 1e-8

    def test_matches_series_on_random_disc_points(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * PI * rng.uniform())
            assert abs(li4_quadrature(z) - polylog(4, z).value) < 1e-8

    def test_rejects_one(self):
        with pytest.raises(ValueError):
            li4_quadrature(1.0)

    def test_rejects_outside_disc(self):
        with pytest.raises(ValueError):
            li4_quadrature(1.5)

    def test_rejects_nan_argument(self):
        with pytest.raises(ValueError, match=r"\|z\| <= 1"):
            li4_quadrature(complex("nan"))

    @pytest.mark.filterwarnings("error")
    def test_against_mpmath(self):
        # scipy's quad missed this by up to 3.7e-13
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(29)
        disc = 0.9 * np.sqrt(rng.uniform(size=50)) * np.exp(2j * PI * rng.uniform(size=50))
        circle = np.exp(2j * PI * rng.uniform(size=50))
        angles = np.exp(1j * np.array([1e-4, 1e-3, PI, 2.0 * PI - 1e-4]))
        edge = 1.0 + 1e-12
        special = [-1.0, 0.5, 0.999, 1.0 - 1e-9, edge, edge * np.exp(0.7j)]
        with mpmath.workdps(40):
            for z in [*disc, *circle, *angles, *special]:
                z = complex(z)
                exact = complex(mpmath.polylog(4, mpmath.mpc(z.real, z.imag)))
                value = li4_quadrature(z)
                assert np.isfinite(value)
                assert abs(value - exact) <= 1e-14 * max(1.0, abs(exact)), z

    def test_raises_when_not_converged(self, monkeypatch):
        # the sums at steps 1/4 and 1/8 still differ by 4e-4 relative
        module = importlib.import_module("stripcoef.polylog")
        monkeypatch.setattr(module, "_QUAD_MAX_HALVINGS", 2)
        with pytest.raises(RuntimeError, match="did not converge"):
            li4_quadrature(np.exp(1e-4j))
