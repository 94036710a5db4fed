import numpy as np
import pytest

from stripcoef.logcoef import (
    SchwarzSpec,
    _log_one_minus,
    extremal_gammas,
    generate_member,
    koebe_rotation,
    log_coefficients,
    random_dorff_param,
    random_schwarz_spec,
    random_strip_params,
)
from stripcoef.maps import DorffParam, StripParams, b_strip_coeff
from stripcoef.series import TruncatedSeries, series_exp

from oracles import (
    compose_schwarz,
    evaluate,
    hat_series,
    identity,
    p_strip_series,
    schwarz_series,
)

PI = np.pi
HALF = StripParams(0.5, 1.5)
RIGHT = DorffParam(PI / 2.0)
ID = SchwarzSpec.identity()


class TestLogCoefficients:
    def test_identity_function_has_zero_gammas(self):
        v = log_coefficients(identity(16))
        assert v.shape == (15,)
        assert np.allclose(v, 0.0)

    def test_koebe_gammas(self):
        f, _ = koebe_rotation(1.0, 64)
        v = log_coefficients(f)
        n = np.arange(1, len(v) + 1)
        assert np.max(np.abs(v - 1.0 / n)) < 1e-12

    def test_gamma2_from_initial_coefficients(self):
        a2, a3 = 0.4 - 0.2j, -0.1 + 0.3j
        v = log_coefficients(TruncatedSeries([0, 1, a2, a3]))
        assert abs(v[0] - a2 / 2.0) < 1e-15
        assert abs(v[1] - 0.5 * (a3 - a2 * a2 / 2.0)) < 1e-14


class TestExtremalStrip:
    def test_symmetric_strip_gammas(self):
        v = extremal_gammas(HALF, 64)
        assert abs(v[0] - 1j / PI) < 1e-15
        assert v[1] == 0.0
        assert abs(v[2] - 1j / (9.0 * PI)) < 1e-15

    def test_series_and_closed_form_agree(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            p = random_strip_params(rng)
            f, v = generate_member(p, ID, 256), extremal_gammas(p, 256)
            extracted = log_coefficients(f)
            err = np.max(np.abs(extracted[:128] - v[:128]))
            assert err < 1e-10

    def test_log_derivative_reproduces_map_coefficients(self):
        # z f'/f of the extremal equals the strip map, order by order
        f = generate_member(HALF, ID, 128)
        ell = log_coefficients(f)
        n = np.arange(1, 65)
        got = 2.0 * n * ell[:64]
        assert np.max(np.abs(got - b_strip_coeff(HALF, n))) < 1e-12

    def test_gamma_square_sum_symmetric_strip(self):
        v = extremal_gammas(HALF, 2048)
        total = float(np.sum(np.abs(v) ** 2))
        assert abs(total - PI**2 / 96.0) < 1e-7

    def test_tail_constant_bounds_stored_gammas(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            p = random_strip_params(rng)
            v = extremal_gammas(p, 128)
            n = np.arange(1, 129)
            assert np.all(np.abs(v) <= p.tail_constant / n**2 + 1e-15)


class TestExtremalDorff:
    def test_right_angle_gammas(self):
        v = extremal_gammas(RIGHT, 64)
        assert abs(v[0] - 0.5) < 1e-15
        assert abs(v[1]) < 1e-15
        assert abs(v[2] - (-1.0 / 18.0)) < 1e-15

    def test_series_and_closed_form_agree(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            d = random_dorff_param(rng)
            f, v = generate_member(d, ID, 256), extremal_gammas(d, 256)
            extracted = log_coefficients(f)
            err = np.max(np.abs(extracted[:128] - v[:128]))
            assert err < 1e-10

    def test_gammas_near_pi_against_mpmath(self):
        # gamma_n = (-1)^(n-1) sin(n delta) / (2 n^2 sin delta); the rounded
        # n * delta was off by up to 4.4e-2 at the last double below pi
        mpmath = pytest.importorskip("mpmath")
        order = 4096
        for delta in (3.141592653589, np.nextafter(PI, 0.0)):
            gammas = extremal_gammas(DorffParam(delta), order)
            with mpmath.workdps(40):
                x = mpmath.mpf(delta)
                exact = [
                    float((-1) ** (n - 1) * mpmath.sin(n * x) / (2 * n * n * mpmath.sin(x)))
                    for n in range(1, order + 1)
                ]
            assert np.max(np.abs(gammas - exact)) <= 1e-15, delta

    def test_per_n_cap(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            d = random_dorff_param(rng)
            v = extremal_gammas(d, 128)
            n = np.arange(1, 129)
            assert np.all(np.abs(v) <= 0.5 / n + 1e-15)

    def test_gamma_square_sum_right_angle(self):
        v = extremal_gammas(RIGHT, 2048)
        total = float(np.sum(np.abs(v) ** 2))
        assert abs(total - PI**4 / 384.0) < 1e-7


class TestKoebe:
    def test_expansion_start(self):
        f, v = koebe_rotation(1.0, 8)
        assert np.allclose(f.coeffs[:4], [0, 1, 2, 3])
        assert np.allclose(v[:3], [1.0, 0.5, 1.0 / 3.0])

    def test_rotated_gamma(self):
        _, v = koebe_rotation(-1.0, 8)
        assert v[1] == 0.5

    def test_square_sum_approaches_classical_constant(self):
        _, v = koebe_rotation(1.0, 4096)
        total = float(np.sum(np.abs(v) ** 2))
        # gamma_n = 1/n: the partial sum sits ~1/N below pi^2/6
        assert total < PI**2 / 6.0
        assert PI**2 / 6.0 - total < 1.0 / 4096.0 + 1e-6

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            koebe_rotation(0.5, 8)


class TestSchwarzSpec:
    def test_families_are_schwarz(self):
        specs = [
            SchwarzSpec("scaled-rotation", c=0.7j),
            SchwarzSpec("power", c=0.9, k=3),
            SchwarzSpec("blaschke-factor", a=0.5 - 0.2j, phi=1.3),
        ]
        for spec in specs:
            s = schwarz_series(spec, 64)
            assert s.coeffs[0] == 0.0
            assert np.max(np.abs(s.circle_values(0.999, 256))) < 1.0

    def test_blaschke_series_matches_pointwise(self):
        a, phi = 0.4 + 0.3j, 0.7
        spec = SchwarzSpec("blaschke-factor", a=a, phi=phi)
        s = schwarz_series(spec, 256)
        rng = np.random.default_rng(47)
        for _ in range(10):
            z = 0.5 * np.sqrt(rng.uniform()) * np.exp(2j * PI * rng.uniform())
            exact = np.exp(1j * phi) * z * (z + a) / (1.0 + np.conj(a) * z)
            assert abs(evaluate(s, z) - exact) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            SchwarzSpec("scaled-rotation", c=1.5)
        with pytest.raises(ValueError):
            SchwarzSpec("power", c=0.5, k=0)
        with pytest.raises(ValueError):
            SchwarzSpec("blaschke-factor", a=1.0)
        with pytest.raises(ValueError):
            SchwarzSpec("unknown-kind")

    def test_non_finite_parameters_rejected(self):
        nan, inf = float("nan"), float("inf")
        for make in (
            lambda: SchwarzSpec("scaled-rotation", c=nan),
            lambda: SchwarzSpec("power", c=complex(0.1, inf), k=2),
            lambda: SchwarzSpec("blaschke-factor", a=complex(nan, 0.1)),
            lambda: SchwarzSpec("blaschke-factor", a=0.3, phi=nan),
            lambda: SchwarzSpec("blaschke-factor", a=0.3, phi=-inf),
        ):
            with pytest.raises(ValueError, match="finite"):
                make()


def _log_one_minus_by_power(lam, w, order):
    """The factor logs with np.power throughout (reference form)."""
    out = np.zeros(order + 1, dtype=complex)
    n = np.arange(1, order + 1)
    if w.kind != "blaschke-factor":
        step = w.k if w.kind == "power" else 1
        m = np.arange(1, order // step + 1)
        out[step * m] = -np.power(lam * w.c, m) / m
        return out
    rot = np.exp(1j * w.phi)
    abar = np.conj(w.a)
    r1, r2 = np.roots([1.0, abar - lam * rot * w.a, -lam * rot])
    out[1:] = (np.power(-abar, n) - np.power(r1, n) - np.power(r2, n)) / n
    return out


class TestLogOneMinus:
    @pytest.mark.parametrize(
        "spec",
        [
            SchwarzSpec("scaled-rotation", c=np.exp(0.3j)),  # |r| = 1
            SchwarzSpec("power", c=0.6 - 0.5j, k=3),  # |r| < 1
            SchwarzSpec("blaschke-factor", a=0.0, phi=1.1),  # a = 0: one exact zero power
            SchwarzSpec("blaschke-factor", a=0.7 * np.exp(2j), phi=0.5),
        ],
    )
    def test_matches_power_form(self, spec):
        for target in (StripParams(-1.9, 3.8), DorffParam(3.0)):
            _, lam1, lam2 = target.factors()
            for lam in (lam1, lam2):
                got = _log_one_minus(lam, spec, 14000)
                ref = _log_one_minus_by_power(lam, spec, 14000)
                assert np.all(np.isfinite(got))
                assert np.max(np.abs(got - ref)) <= 1e-14


class TestGenerateMember:
    # the extremal function z exp(integrated map), from the integrated-map
    # coefficients rather than the factor logs
    def test_identity_reproduces_extremal_strip(self):
        f = series_exp(hat_series(HALF, 127)).shift()
        g = generate_member(HALF, ID, 128)
        assert np.max(np.abs(f.coeffs - g.coeffs)) < 1e-12

    def test_identity_reproduces_extremal_dorff(self):
        d = DorffParam(2.0)
        f = series_exp(hat_series(d, 127)).shift()
        g = generate_member(d, ID, 128)
        assert np.max(np.abs(f.coeffs - g.coeffs)) < 1e-12

    def test_zero_inner_function_gives_identity_map(self):
        g = generate_member(HALF, SchwarzSpec("scaled-rotation", c=0.0), 64)
        assert np.array_equal(g.coeffs, identity(64).coeffs)

    def test_matches_generic_composition_route(self):
        # independent route: compose the target map series with omega,
        # then integrate and exponentiate by the series engine
        order = 64
        rng = np.random.default_rng(53)
        for _ in range(5):
            p = random_strip_params(rng)
            spec = random_schwarz_spec(rng)
            q = compose_schwarz(p_strip_series(p, order), schwarz_series(spec, order))
            q_minus_1 = TruncatedSeries(
                np.concatenate([[0.0], q.coeffs[1:]])
            ).integrate_over_t()
            expected = series_exp(q_minus_1).shift().truncate(order)
            got = generate_member(p, spec, order)
            assert np.max(np.abs(got.coeffs - expected.coeffs[: order + 1])) < 1e-10

    def test_power_member_rogosinski_partial_sums(self):
        g = generate_member(HALF, SchwarzSpec("power", c=1.0, k=2), 256)
        gam = log_coefficients(g.truncate(65))
        n = np.arange(1, 65)
        sub = np.cumsum(np.abs(2.0 * gam[:64]) ** 2)
        dom = np.cumsum(np.abs(HALF.hat_coeff(n)) ** 2)
        assert np.all(sub <= dom + 1e-12)

    def test_member_gammas_respect_per_n_bounds(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            p = random_strip_params(rng)
            spec = random_schwarz_spec(rng)
            g = generate_member(p, spec, 256)
            gam = log_coefficients(g.truncate(129))
            n = np.arange(1, 129)
            cap = (p.width / (n * PI)) * abs(np.sin(PI * p.mu))
            assert np.all(np.abs(gam) <= cap + 1e-12)

    def test_dorff_member_gammas_respect_half_over_n(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            d = random_dorff_param(rng)
            spec = random_schwarz_spec(rng)
            g = generate_member(d, spec, 256)
            gam = log_coefficients(g.truncate(129))
            n = np.arange(1, 129)
            assert np.all(np.abs(gam) <= 0.5 / n + 1e-12)

    def test_dorff_rogosinski_against_integrated_map(self):
        rng = np.random.default_rng(67)
        d = random_dorff_param(rng)
        spec = SchwarzSpec("blaschke-factor", a=0.3 + 0.4j, phi=2.0)
        g = generate_member(d, spec, 256)
        gam = log_coefficients(g.truncate(65))
        n = np.arange(1, 65)
        sub = np.cumsum(np.abs(2.0 * gam[:64]) ** 2)
        dom = np.cumsum(np.abs(d.hat_coeff(n)) ** 2)
        assert np.all(sub <= dom + 1e-12)


class TestRandomDraws:
    def test_draws_are_reproducible(self):
        a = random_schwarz_spec(np.random.default_rng(5))
        b = random_schwarz_spec(np.random.default_rng(5))
        assert a == b

    def test_draw_ranges(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            p = random_strip_params(rng)
            assert -2.0 <= p.alpha <= 0.9
            assert 1.1 <= p.beta <= 4.0
            d = random_dorff_param(rng)
            assert PI / 2.0 <= d.delta <= PI - 1e-3
