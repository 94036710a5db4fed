import numpy as np
import pytest

from stripcoef.logcoef import (
    SchwarzSpec,
    extremal_gammas,
    generate_member,
    koebe_rotation,
    random_dorff_param,
    random_strip_params,
)
from stripcoef.maps import (
    DorffParam,
    StripParams,
    b_strip_coeff,
    b_tilde_eval,
    dorff_eval,
    p_hat_eval,
    p_strip_eval,
)
from stripcoef.polylog import li4_symmetric_circle
from stripcoef.series import TruncatedSeries, coeffs_by_circle_sampling
from stripcoef.verify import (
    _report,
    EQUALITY,
    HOLDS,
    VIOLATED,
    audit_member,
    audit_min_order,
    convexity_probe,
    membership_check,
    reference_constants,
    rogosinski_check,
    sharpness,
    sharpness_dorff,
    sharpness_strip,
    sum_gamma_sq,
    sum_tail,
)

from oracles import identity

PI = np.pi
HALF = StripParams(0.5, 1.5)
RIGHT = DorffParam(PI / 2.0)


class TestBounds:
    def test_strip_symmetric_point(self):
        assert abs(HALF.sum_bound() - PI**2 / 96.0) < 1e-12

    def test_dorff_right_angle(self):
        assert abs(RIGHT.sum_bound() - PI**4 / 384.0) < 1e-12

    def test_strip_bound_vanishes_continuously_at_degenerate_phase(self):
        # mu -> 0+ is unreachable but the bound must tend to 0 smoothly
        values = [
            StripParams(1.0 - eps, 2.0 - eps).sum_bound()
            for eps in (1e-2, 1e-4, 1e-6)
        ]
        assert values[0] > values[1] > values[2] > 0.0

    def test_dorff_brute_force_term_sum(self):
        d = DorffParam(2.0 * PI / 3.0)
        n = np.arange(1, 300_000)
        brute = float(np.sum(np.sin(n * d.delta) ** 2 / (4.0 * np.sin(d.delta) ** 2 * n**4.0)))
        assert abs(d.sum_bound() - brute) < 1e-9

    def test_strip_equals_extremal_square_sum(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            p = random_strip_params(rng)
            gammas = extremal_gammas(p, 4096)
            assert abs(sum_gamma_sq(gammas) - p.sum_bound()) <= sum_tail(p, 4096)

    def test_dorff_equals_extremal_square_sum(self):
        rng = np.random.default_rng(79)
        for _ in range(5):
            d = random_dorff_param(rng)
            gammas = extremal_gammas(d, 4096)
            assert abs(sum_gamma_sq(gammas) - d.sum_bound()) <= sum_tail(d, 4096)

    @pytest.mark.parametrize("alpha, beta", [(-1e11, 1.001), (-1e12, 1.001), (-1e13, 1.01)])
    def test_extremal_sum_below_bound_as_mu_nears_one(self, alpha, beta):
        # a phase formed from the rounded mu put the sum up to 8.5e-6 over
        p = StripParams(alpha, beta)
        assert sum_gamma_sq(extremal_gammas(p, 4096)) <= p.sum_bound()

    def test_positivity_of_circle_deficit(self):
        # pi^4/45 minus the symmetric circle sum stays positive inside (0, 2pi)
        theta = np.linspace(2.0 * PI / 1001.0, 2.0 * PI * 1000.0 / 1001.0, 1000)
        deficit = np.array([PI**4 / 45.0 - li4_symmetric_circle(t) for t in theta])
        assert np.all(deficit > 0.0)

    def test_bounds_positive_on_random_draws(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            assert random_strip_params(rng).sum_bound() > 0.0
            assert random_dorff_param(rng).sum_bound() > 0.0

    def test_closed_forms_against_mpmath_li4(self):
        # the paper's statement, (pi^4/45 - 2 Re Li_4(e^{i theta})) scaled,
        # at 40 digits; its cancellation costs at most 16 of them here
        mpmath = pytest.importorskip("mpmath")

        def deficit(theta):
            return mpmath.pi**4 / 45 - 2 * mpmath.re(mpmath.polylog(4, mpmath.expj(theta)))

        with mpmath.workdps(40):
            for a in (-1e8, -1e4, -10.0, -1.0, 0.0, 0.5, 0.9):
                for b in (1.001, 1.1, 1.25, 1.5, 2.0, 4.0, 1e3, 1e6):
                    lo, hi = mpmath.mpf(a), mpmath.mpf(b)
                    theta = 2 * mpmath.pi * (1 - lo) / (hi - lo)
                    exact = (hi - lo) ** 2 / (4 * mpmath.pi**2) * deficit(theta)
                    got = StripParams(a, b).sum_bound()
                    assert abs(got - exact) <= 1e-14 * exact, (a, b)
            deltas = [*np.linspace(PI / 2.0, PI - 1e-3, 12), PI - 1e-6, PI - 1e-8]
            for delta in deltas:
                d = mpmath.mpf(delta)
                exact = deficit(2 * d) / (16 * mpmath.sin(d) ** 2)
                got = DorffParam(delta).sum_bound()
                assert abs(got - exact) <= 1e-14 * exact, delta

    def test_closed_forms_match_li4_symmetric_circle(self):
        # li4_symmetric_circle is the oracle tying the closed forms to the
        # Li_4 statement; away from theta = 0, 2 pi nothing cancels
        for theta in np.linspace(0.05, 2.0 * PI - 0.05, 61):
            mu = theta / (2.0 * PI)
            p = StripParams(1.0 - mu, 2.0 - mu)
            circle = (PI**4 / 45.0 - li4_symmetric_circle(2.0 * PI * p.mu)) / (4.0 * PI**2)
            assert abs(p.sum_bound() - circle) < 1e-14
        for delta in np.linspace(PI / 2.0, PI - 0.05, 31):
            d = DorffParam(delta)
            circle = (PI**4 / 45.0 - li4_symmetric_circle(2.0 * delta)) / (16.0 * np.sin(delta) ** 2)
            assert abs(d.sum_bound() - circle) < 1e-12

    def test_positive_and_sharp_on_extreme_sweep(self):
        # 1 - alpha log-spaced from 0.1 to 1e15 + 1, and delta up to the
        # last double below pi
        alphas = 1.0 - np.logspace(-1.0, np.log10(1e15 + 1.0), 140)
        targets = [
            StripParams(a, b)
            for a in alphas
            for b in (1.001, 1.1, 1.5, 2.0, 4.0, 1e3, 1e6)
        ]
        deltas = PI - np.logspace(np.log10(PI / 2.0), -15.0, 90)
        targets += [DorffParam(d) for d in (*deltas, np.nextafter(PI, 0.0))]
        for t in targets:
            assert t.sum_bound() > 0.0, t
            report = sharpness(t)
            assert report.verdict == EQUALITY, t
            assert report.lhs <= report.rhs, t


class TestPerNBounds:
    def test_strip_symmetric_first(self):
        assert abs(HALF.per_n_bound(1) - 1.0 / PI) < 1e-15

    def test_strip_identity_with_first_map_coefficient(self):
        rng = np.random.default_rng(89)
        for _ in range(10):
            p = random_strip_params(rng)
            for n in (1, 2, 7):
                expected = abs(b_strip_coeff(p, 1)) / (2.0 * n)
                assert abs(p.per_n_bound(n) - expected) < 1e-15

    def test_starlike_limit(self):
        p = StripParams(0.0, 1e6)
        for n in range(1, 17):
            assert p.per_n_bound(n) <= 1.0 / n + 1e-6
            assert abs(p.per_n_bound(n) - 1.0 / n) < 1e-6

    def test_dorff_values(self):
        assert DorffParam.per_n_bound(1) == 0.5
        assert DorffParam.per_n_bound(2) == 0.25

    def test_dorff_attained_at_first_gamma(self):
        gammas = extremal_gammas(RIGHT, 16)
        assert abs(gammas[0]) == DorffParam.per_n_bound(1)

    def test_reject_bad_index(self):
        with pytest.raises(ValueError):
            HALF.per_n_bound(0)
        with pytest.raises(ValueError):
            DorffParam.per_n_bound(0)


class TestSumGammaSq:
    def test_zero_vector(self):
        assert sum_gamma_sq(np.zeros(16)) == 0.0

    def test_koebe_partial_sum_with_exact_tail(self):
        from scipy.special import zeta

        # gamma_n = 1/n: no target tail model applies, the exact one does
        _, gammas = koebe_rotation(1.0, 4096)
        assert abs(sum_gamma_sq(gammas) + zeta(2, 4097) - PI**2 / 6.0) < 1e-7

    def test_extremal_strip_value(self):
        gammas = extremal_gammas(HALF, 4096)
        assert abs(sum_gamma_sq(gammas) - PI**2 / 96.0) <= sum_tail(HALF, 4096)


class TestSumTail:
    def test_quadratic_model_where_it_is_the_smaller(self):
        # C/B <= N: the tail keeps the float expression C^2/(3 N^3)
        wide = StripParams(-1e100, 1e100)
        for t in (HALF, RIGHT, StripParams(-0.7, 2.9), DorffParam(3.1), wide):
            c = t.tail_constant
            assert sum_tail(t, 4096) == (c * c) / (3.0 * 4096**3)

    def test_quadratic_model_does_not_overflow(self):
        # C = 1.9e154: C * C overflows although C^2/(3 N^3) is 7.3e300
        t = StripParams(-1e152, 6e154)
        expected = (t.tail_constant / 256) ** 2 / (3.0 * 256)
        assert abs(sum_tail(t, 256) - expected) <= 1e-15 * expected

    @pytest.mark.parametrize(
        "target",
        [HALF, StripParams(-1e8, 1.5), StripParams(0.999, 1e6), DorffParam(PI - 1e-6)],
        ids=["half", "wide", "mu-small", "near-pi"],
    )
    def test_bounds_the_extremal_remainder(self, target):
        order, far = 64, 2**16
        rest = sum_gamma_sq(extremal_gammas(target, far)[order:])
        assert rest <= sum_tail(target, order)


class TestRogosinski:
    def test_equality_for_identical_sequences(self):
        seq = np.array([1.0, 0.5j, 0.2, 0.1])
        report = rogosinski_check(seq, seq, 4)
        assert report.verdict == EQUALITY

    def test_negative_control(self):
        sub = np.concatenate([[2.0], np.zeros(63)])
        dom = np.concatenate([[1.0], np.zeros(63)])
        report = rogosinski_check(sub, dom, 64)
        assert report.verdict == VIOLATED
        assert report.lhs == 4.0
        assert report.rhs == 1.0

    def test_dominated_sequences_hold(self):
        rng = np.random.default_rng(97)
        dom = rng.uniform(0.5, 1.0, size=32)
        sub = dom * rng.uniform(0.0, 0.99, size=32)
        report = rogosinski_check(sub, dom, 32)
        assert report.verdict == HOLDS

    def test_rejects_short_sequences(self):
        with pytest.raises(ValueError):
            rogosinski_check([1.0], [1.0, 2.0], 2)

    @pytest.mark.parametrize("side", ["sub", "dom"])
    def test_nan_is_violated(self, side):
        # every comparison with NaN is false, which once read as holds
        seqs = {"sub": [0.1, 0.1, 0.1], "dom": [0.2, 0.2, 0.2]}
        seqs[side][1] = float("nan")
        report = rogosinski_check(seqs["sub"], seqs["dom"], 3)
        assert report.verdict == VIOLATED
        assert report.context["reason"] == "non-finite lhs or rhs"


class TestMembership:
    def test_identity_map_inside_any_strip(self):
        f = identity(2048)
        report = membership_check(f, HALF, 0.99, 256)
        assert report.verdict == HOLDS
        assert report.lhs == 0.0

    def test_extremal_strip_holds(self):
        f = generate_member(HALF, SchwarzSpec.identity(), 2048)
        report = membership_check(f, HALF, 0.99, 512)
        assert report.verdict == HOLDS
        assert HALF.alpha < report.context["re_min"]
        assert report.context["re_max"] < HALF.beta

    def test_extremal_dorff_holds(self):
        d = DorffParam(2.4)
        f = generate_member(d, SchwarzSpec.identity(), 2048)
        report = membership_check(f, d, 0.99, 512)
        assert report.verdict == HOLDS

    def test_extremals_belong_to_their_own_class_on_random_draws(self):
        rng = np.random.default_rng(107)
        for _ in range(5):
            p = random_strip_params(rng)
            f = generate_member(p, SchwarzSpec.identity(), 2048)
            assert membership_check(f, p, 0.99, 256).verdict == HOLDS
            d = random_dorff_param(rng)
            f = generate_member(d, SchwarzSpec.identity(), 2048)
            assert membership_check(f, d, 0.99, 256).verdict == HOLDS

    def test_koebe_violates_strip(self):
        f, _ = koebe_rotation(1.0, 2048)
        report = membership_check(f, HALF, 0.99, 512)
        assert report.verdict == VIOLATED
        assert report.lhs > 1.0

    def test_zero_inside_violates(self):
        # f = z - 100 z^2 vanishes at z = 0.01: z f'/f has a pole there,
        # although Re z f'/f stays in [1.98, 2.02] on both circles
        for radius in (0.99, 0.5):
            coeffs = np.zeros(audit_min_order(radius, n_max=0) + 1)
            coeffs[1:3] = 1.0, -100.0
            report = membership_check(TruncatedSeries(coeffs), StripParams(0.0, 2.1), radius, 256)
            assert report.verdict == VIOLATED
            assert report.lhs == 0.0
            assert report.context["reason"] == "zero count 1 for f/z inside the circle"

    def test_undersampled_zero_count_violates(self):
        # f/z = 1 + 1e8 z^21 turns its phase by 21 * 2 pi / 64 between
        # neighbouring points of the 64-point grid, and the refined grid
        # is again 64 points (64 coefficients)
        coeffs = np.zeros(65)
        coeffs[1], coeffs[22] = 1.0, 1e8
        report = membership_check(TruncatedSeries(coeffs), HALF, 0.5, 64)
        assert report.verdict == VIOLATED
        assert report.context["reason"] == "zero count undersampled"

    def test_zero_or_non_finite_sample_raises(self):
        # f/z = 1 - 2z is exactly 0 at the grid point z = 1/2; a NaN
        # coefficient makes every sample NaN.  Neither has a winding number.
        order = audit_min_order(0.5, n_max=0)
        zero = np.zeros(order + 1)
        zero[1:3] = 1.0, -2.0
        nan = np.zeros(order + 1)
        nan[1], nan[5] = 1.0, np.nan
        for coeffs in (zero, nan):
            with pytest.raises(ValueError, match="f/z vanishes or is not finite"):
                membership_check(TruncatedSeries(coeffs), HALF, 0.5, 64)

    def test_rejects_insufficient_order_for_radius(self):
        f = identity(256)
        with pytest.raises(ValueError):
            membership_check(f, HALF, 0.999, 128)

    def test_rejects_unnormalized(self):
        f = TruncatedSeries(np.concatenate([[0, 2.0], np.zeros(2047)]))
        with pytest.raises(ValueError):
            membership_check(f, HALF, 0.99, 128)


class TestConvexityProbe:
    def test_identity_map_holds(self):
        report = convexity_probe(lambda z: z, 0.9, 64, order=64)
        assert report.verdict == HOLDS
        assert abs(report.context["re_min"] - 1.0) < 1e-9

    def test_strip_map_and_integrated_variant(self):
        for h in (lambda z: p_strip_eval(HALF, z), lambda z: p_hat_eval(HALF, z)):
            report = convexity_probe(h, 0.99, 128)
            assert report.verdict == HOLDS
            assert report.context["re_min"] > 0.0

    def test_dorff_map_and_integrated_variant(self):
        d = DorffParam(2.7)
        for h in (lambda z: dorff_eval(d, z), lambda z: b_tilde_eval(d, z)):
            report = convexity_probe(h, 0.99, 128)
            assert report.verdict == HOLDS

    def test_negative_control(self):
        report = convexity_probe(lambda z: z + 2.0 * z * z, 0.9, 128, order=64)
        assert report.verdict == VIOLATED
        assert report.context["reason"].startswith("zero count 1 ")

    def test_zero_of_derivative_inside_violates(self):
        # h' = 1 + 4z vanishes at -1/4, although the ring |z| = 0.9 alone
        # reads Re(1 + z h''/h') >= 1.78
        report = convexity_probe(lambda z: z + 2.0 * z * z, 0.9, 256, order=64)
        assert report.verdict == VIOLATED
        assert report.context["re_min"] > 1.7
        assert report.lhs == 0.0
        assert report.context["reason"] == "zero count 1 for h' inside the circle"

    def test_one_ring_is_the_disc_minimum(self):
        # minimum principle: Re(1 + z h''/h') is harmonic where h' != 0, so
        # the ring at the radius holds the minimum of 16 rings up to it
        rng = np.random.default_rng(7)
        radius, angles, order = 0.99, 256, 2048
        for _ in range(2):
            p, d = random_strip_params(rng), random_dorff_param(rng)
            for h in (
                lambda z: p_strip_eval(p, z),
                lambda z: p_hat_eval(p, z),
                lambda z: dorff_eval(d, z),
                lambda z: b_tilde_eval(d, z),
            ):
                report = convexity_probe(h, radius, angles, order=order)
                h1 = coeffs_by_circle_sampling(h, order, (1.0 + radius) / 2.0).derivative()
                h2 = h1.derivative()
                z = np.exp(2j * PI * np.arange(angles) / angles)
                rings = min(
                    float(np.min(np.real(
                        1.0 + r * z * h2.circle_values(r, angles) / h1.circle_values(r, angles)
                    )))
                    for r in np.linspace(radius / 16, radius, 16)
                )
                assert report.verdict == HOLDS
                assert abs(report.context["re_min"] - rings) < 1e-9

    def test_samples_coefficients_midway_to_the_circle(self):
        for radius in (0.5, 0.9):
            report = convexity_probe(lambda z: z, radius, 64, order=64)
            assert report.context["sample_radius"] == (1.0 + radius) / 2.0

    def test_flags_vanishing_derivative(self):
        with pytest.raises(ValueError):
            convexity_probe(lambda z: z * z, 0.9, 64, order=64)


class TestReferenceConstants:
    def test_values(self):
        consts = reference_constants()
        assert abs(consts["pi2_over_6"] - 1.6449340668482264) < 1e-12
        assert abs(consts["roth"] - 2.579736267392905) < 1e-12

    def test_sanity_ordering(self):
        consts = reference_constants()
        assert consts["roth"] < 4.0 * consts["pi2_over_6"]


class TestReport:
    def test_non_finite_sides_are_violated(self):
        for lhs, rhs in ((np.nan, 0.0), (0.0, np.nan), (np.inf, 1.0)):
            report = _report(lhs, rhs, 0.0, {})
            assert report.verdict == VIOLATED
            assert "non-finite" in report.context["reason"]

    def test_tail_does_not_widen_the_tolerance(self):
        # the circle audits' radius**order tail (8.1e-7 at the soundness
        # sizes) used to widen the library's default tolerance
        assert _report(1.0 + 1e-8, 1.0, 1e-6, {}).verdict == VIOLATED
        assert _report(1.0 + 1e-8, 1.0, 1e-6, {}, tolerance=1e-7).verdict == HOLDS


class TestSharpness:
    def test_strip_random_draws(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            report = sharpness_strip(random_strip_params(rng), order=2048)
            assert report.verdict == EQUALITY

    def test_dorff_random_draws(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            report = sharpness_dorff(random_dorff_param(rng), order=2048)
            assert report.verdict == EQUALITY

    @pytest.mark.parametrize(
        "target", [StripParams(-1e8, 1.5), DorffParam(np.nextafter(PI, 0.0))], ids=["strip", "dorff"]
    )
    def test_tight_tail_at_the_class_edges(self, target):
        # C^2/(3 N^3) read 4.9e3 and 3.8e18 here
        report = sharpness(target)
        assert report.verdict == EQUALITY
        assert report.tail_estimate < 1e-4

    def test_builds_no_extremal_series(self, monkeypatch):
        def no_series(_):
            raise AssertionError("sharpness needs only the closed-form gammas")

        monkeypatch.setattr("stripcoef.logcoef.series_exp", no_series)
        assert sharpness_strip(HALF, 2048).verdict == EQUALITY
        assert sharpness_dorff(RIGHT, 2048).verdict == EQUALITY


class TestAuditMember:
    def test_strip_member_all_hold(self):
        spec = SchwarzSpec("blaschke-factor", a=0.3, phi=1.0)
        g = generate_member(HALF, spec, 2048)
        reports = audit_member(g, HALF, 0.99, 256)
        assert len(reports) == 4
        assert all(r.verdict != VIOLATED for r in reports)

    def test_dorff_member_all_hold(self):
        d = DorffParam(2.0)
        g = generate_member(d, SchwarzSpec("power", c=0.8j, k=3), 2048)
        reports = audit_member(g, d, 0.99, 256)
        assert all(r.verdict != VIOLATED for r in reports)

    def test_min_order(self):
        # at radius 0.5 the coefficient audit's n_max + 1 = 129 terms bind,
        # at 0.99 the membership tail, 14/log(1/0.99) = 1392.97
        assert audit_min_order(0.5) == 129
        assert audit_min_order(0.5, n_max=0) == 64
        assert audit_min_order(0.99) == 1393
        assert audit_min_order(0.99, n_max=2000) == 2001
        with pytest.raises(ValueError):
            audit_min_order(1.0)

    def test_rejects_series_below_min_order(self):
        with pytest.raises(ValueError, match="need 129"):
            audit_member(generate_member(HALF, SchwarzSpec.identity(), 128), HALF, 0.5, 64)
        reports = audit_member(generate_member(HALF, SchwarzSpec.identity(), 129), HALF, 0.5, 64)
        assert all(r.verdict != VIOLATED for r in reports)


    def test_fixed_audit_sizes(self):
        # Rogosinski over the first 64 coefficients, per-n and sum over 128
        g = generate_member(HALF, SchwarzSpec.identity(), 129)
        _, rog, per_n, total = audit_member(g, HALF, 0.5, 64)
        assert rog.context["k_max"] == 64
        assert per_n.context["n_max"] == 128
        assert total.context["n_max"] == 128


class TestDorffIsAStrip:
    """M(delta) is S(alpha, beta) with alpha = 1 + (delta - pi)/(2 sin delta)
    and beta = 1 + delta/(2 sin delta), which ties the two families'
    independent formulas together."""

    @pytest.mark.parametrize("delta", np.linspace(PI / 2.0, PI - 1e-3, 9))
    def test_bounds_and_extremal_agree(self, delta):
        order = 1024
        d = DorffParam(delta)
        p = StripParams(d.lower, d.upper)
        n = np.arange(1, order + 1)
        assert p.sum_bound() == pytest.approx(d.sum_bound(), rel=1e-12, abs=0.0)
        assert p.tail_constant == pytest.approx(d.tail_constant, rel=1e-12, abs=0.0)
        assert np.allclose(p.per_n_bound(n), d.per_n_bound(n), rtol=1e-12, atol=0.0)
        # the strip map at z is the Dorff map at -e^{-i delta} z, shifted by 1
        dorff = extremal_gammas(d, order)
        rotated = dorff * (-np.exp(-1j * delta)) ** n
        gap = np.max(np.abs(extremal_gammas(p, order) - rotated))
        assert gap <= 1e-12 * np.max(np.abs(dorff))
