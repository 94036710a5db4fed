import numpy as np
import pytest

from stripcoef.logcoef import (
    LogCoeffVector,
    SchwarzSpec,
    extremal,
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
from stripcoef.series import TruncatedSeries
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
    sharpness_dorff,
    sharpness_strip,
    sum_gamma_sq,
)

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
            _, vec = extremal(p, 4096)
            partial, tail = sum_gamma_sq(vec)
            assert abs(partial - p.sum_bound()) <= tail

    def test_dorff_equals_extremal_square_sum(self):
        rng = np.random.default_rng(79)
        for _ in range(5):
            d = random_dorff_param(rng)
            _, vec = extremal(d, 4096)
            partial, tail = sum_gamma_sq(vec)
            assert abs(partial - d.sum_bound()) <= tail

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
        _, vec = extremal(RIGHT, 16)
        assert abs(vec.gamma(1)) == DorffParam.per_n_bound(1)

    def test_reject_bad_index(self):
        with pytest.raises(ValueError):
            HALF.per_n_bound(0)
        with pytest.raises(ValueError):
            DorffParam.per_n_bound(0)


class TestSumGammaSq:
    def test_zero_vector(self):
        partial, tail = sum_gamma_sq(LogCoeffVector(np.zeros(16)))
        assert partial == 0.0
        assert tail == 0.0

    def test_koebe_partial_sum_with_exact_tail(self):
        from scipy.special import zeta

        _, vec = koebe_rotation(1.0, 4096)
        partial, tail = sum_gamma_sq(vec)
        assert tail == 0.0  # no quadratic tail constant for 1/n decay
        assert abs(partial + zeta(2, 4097) - PI**2 / 6.0) < 1e-7

    def test_extremal_strip_value(self):
        _, vec = extremal(HALF, 4096)
        partial, tail = sum_gamma_sq(vec)
        assert abs(partial - PI**2 / 96.0) <= tail


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


class TestMembership:
    def test_identity_map_inside_any_strip(self):
        f = TruncatedSeries.identity(2048)
        report = membership_check(f, HALF, 0.99, 256)
        assert report.verdict == HOLDS
        assert report.lhs == 0.0

    def test_extremal_strip_holds(self):
        f, _ = extremal(HALF, 2048)
        report = membership_check(f, HALF, 0.99, 512)
        assert report.verdict == HOLDS
        assert HALF.alpha < report.context["re_min"]
        assert report.context["re_max"] < HALF.beta

    def test_extremal_dorff_holds(self):
        d = DorffParam(2.4)
        f, _ = extremal(d, 2048)
        report = membership_check(f, d, 0.99, 512)
        assert report.verdict == HOLDS

    def test_extremals_belong_to_their_own_class_on_random_draws(self):
        rng = np.random.default_rng(107)
        for _ in range(5):
            p = random_strip_params(rng)
            f, _ = extremal(p, 2048)
            assert membership_check(f, p, 0.99, 256).verdict == HOLDS
            d = random_dorff_param(rng)
            f, _ = extremal(d, 2048)
            assert membership_check(f, d, 0.99, 256).verdict == HOLDS

    def test_koebe_violates_strip(self):
        f, _ = koebe_rotation(1.0, 2048)
        report = membership_check(f, HALF, 0.99, 512)
        assert report.verdict == VIOLATED
        assert report.lhs > 1.0

    def test_rejects_insufficient_order_for_radius(self):
        f = TruncatedSeries.identity(256)
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
        assert report.context["re_min"] < 0.0

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

    def test_builds_no_extremal_series(self, monkeypatch):
        def no_series(_):
            raise AssertionError("sharpness needs only the closed-form gammas")

        monkeypatch.setattr("stripcoef.logcoef.series_exp", no_series)
        assert sharpness_strip(HALF, 2048).verdict == EQUALITY
        assert sharpness_dorff(RIGHT, 2048).verdict == EQUALITY


class TestAuditMember:
    def test_strip_member_all_hold(self):
        g = generate_member(HALF, SchwarzSpec.blaschke(0.3, 1.0), 2048)
        reports = audit_member(g, HALF, 0.99, 256)
        assert len(reports) == 4
        assert all(r.verdict != VIOLATED for r in reports)

    def test_dorff_member_all_hold(self):
        d = DorffParam(2.0)
        g = generate_member(d, SchwarzSpec.power(0.8j, 3), 2048)
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
