import json
import math

import numpy as np
import pytest

from stripcoef.logcoef import (
    SchwarzSpec,
    extremal_gammas,
    generate_member,
    koebe_rotation,
)
from stripcoef.maps import (
    _PI_LOW,
    DorffParam,
    StripParams,
    b_tilde_eval,
    dorff_eval,
    p_hat_eval,
    p_strip_eval,
)
from stripcoef.polylog import li4_symmetric_circle
from stripcoef.series import TruncatedSeries, _fft_len
from stripcoef import verify
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

from oracles import (
    convexity_quantity,
    dorff_coeff,
    identity,
    membership_extremes,
    random_dorff_param,
    random_strip_params,
)

PI = np.pi
HALF = StripParams(0.5, 1.5)
RIGHT = DorffParam(PI / 2.0)
# case ids of a family-blind check run once over each class
FAMILIES = ["strip", "dorff"]


def four_maps(p, d):
    """(target, map, integrated) for the two maps of each family."""
    return [
        (p, lambda z: p_strip_eval(p, z), False),
        (p, lambda z: p_hat_eval(p, z), True),
        (d, lambda z: dorff_eval(d, z), False),
        (d, lambda z: b_tilde_eval(d, z), True),
    ]


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

    @pytest.mark.parametrize(
        "draw, seed", [(random_strip_params, 73), (random_dorff_param, 79)], ids=FAMILIES
    )
    def test_equals_extremal_square_sum(self, draw, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            target = draw(rng)
            gammas = extremal_gammas(target, 4096)
            assert abs(sum_gamma_sq(gammas) - target.sum_bound()) <= sum_tail(target, 4096)

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
                expected = abs(p.hat_coeff(1)) / (2.0 * n)
                assert abs(p.per_n_bound(n) - expected) < 1e-15

    def test_starlike_limit(self):
        p = StripParams(0.0, 1e6)
        for n in range(1, 17):
            assert p.per_n_bound(n) <= 1.0 / n + 1e-6
            assert abs(p.per_n_bound(n) - 1.0 / n) < 1e-6

    def test_dorff_values(self):
        assert RIGHT.per_n_bound(1) == 0.5
        assert RIGHT.per_n_bound(2) == 0.25

    def test_dorff_attained_at_first_gamma(self):
        gammas = extremal_gammas(RIGHT, 16)
        assert abs(gammas[0]) == RIGHT.per_n_bound(1)
        # gamma_1 and the bound share the strip's (width/pi) sin(pi t): equal to the bit
        for delta in np.linspace(PI / 2.0, PI - 1e-3, 601):
            d = DorffParam(delta)
            assert abs(extremal_gammas(d, 2)[0]) == d.per_n_bound(1), delta

    def test_reject_bad_index(self):
        with pytest.raises(ValueError):
            HALF.per_n_bound(0)
        with pytest.raises(ValueError):
            RIGHT.per_n_bound(0)


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

    def test_rejects_order_below_one(self):
        # order 0 divided by zero in the quadratic model
        with pytest.raises(ValueError, match="order"):
            sum_tail(HALF, 0)

    @pytest.mark.parametrize("order", [100.5, float("nan"), float("inf"), True], ids=repr)
    def test_rejects_non_integer_order(self, order):
        # NaN returned NaN and infinity 0.0
        with pytest.raises(ValueError, match="order"):
            sum_tail(HALF, order)

    def test_numpy_integer_order_is_used_as_checked(self):
        # order**3 wrapped in np.int64: 3.95e-21 where the true tail is 1.25e-21
        assert sum_tail(HALF, np.int64(3_000_000)) == sum_tail(HALF, 3_000_000)


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

    @pytest.mark.parametrize(
        "sub, dom",
        [(0.1, [0.2]), ([0.1], 0.2), (np.float64(0.1), np.float64(0.2)), ([[0.1]], [0.2])],
        ids=["scalar-sub", "scalar-dom", "numpy-scalars", "2-d-sub"],
    )
    def test_rejects_a_non_sequence(self, sub, dom):
        # slicing a scalar raised IndexError
        with pytest.raises(ValueError, match="both sequences"):
            rogosinski_check(sub, dom, 1)

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_rejects_empty_window(self, k_max):
        with pytest.raises(ValueError, match="k_max"):
            rogosinski_check([1.0], [1.0], k_max)

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

    @pytest.mark.parametrize("target", [HALF, DorffParam(2.4)], ids=FAMILIES)
    def test_extremal_holds(self, target):
        f = generate_member(target, SchwarzSpec.identity(), 2048)
        report = membership_check(f, target, 0.99, 512)
        assert report.verdict == HOLDS
        assert target.alpha < report.context["re_min"]
        assert report.context["re_max"] < target.beta

    def test_extremals_belong_to_their_own_class_on_random_draws(self):
        rng = np.random.default_rng(107)
        for _ in range(5):
            for draw in (random_strip_params, random_dorff_param):
                target = draw(rng)
                f = generate_member(target, SchwarzSpec.identity(), 2048)
                assert membership_check(f, target, 0.99, 256).verdict == HOLDS

    def test_koebe_violates_strip(self):
        f, _ = koebe_rotation(1.0, 2048)
        report = membership_check(f, HALF, 0.99, 512)
        assert report.verdict == VIOLATED
        assert report.lhs > 1.0

    def test_zero_inside_violates(self):
        # f = z - 100 z^2 vanishes at z = 0.01: z f'/f has a pole there,
        # although Re z f'/f stays in [1.98, 2.02] on both circles.  Grids
        # of fewer than five samples are refined: three steps of at most
        # pi/2 cannot sum to 2 pi, and four reach it only at equality
        for radius, angles in ((0.99, 256), (0.5, 256), (0.5, 1), (0.5, 4)):
            coeffs = np.zeros(audit_min_order(radius, n_max=0) + 1)
            coeffs[1:3] = 1.0, -100.0
            report = membership_check(TruncatedSeries(coeffs), StripParams(0.0, 2.1), radius, angles)
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

    def test_non_finite_excursion_violates(self):
        # 1500 * 1e306 overflows in z f', not in f at r = 0.5, so f/z winds
        # 0 times while Re(z f'/f) is NaN; max(0.0, nan) read 0.0, holds
        coeffs = np.zeros(1501)
        coeffs[1], coeffs[1500] = 1.0, 1e306
        with np.errstate(over="ignore", invalid="ignore"):
            report = membership_check(TruncatedSeries(coeffs), HALF, 0.5, 256)
        assert report.verdict == VIOLATED
        assert report.context["reason"] == "non-finite lhs or rhs"

    def test_rejects_insufficient_order_for_radius(self):
        f = identity(256)
        with pytest.raises(ValueError):
            membership_check(f, HALF, 0.999, 128)

    def test_rejects_unnormalized(self):
        f = TruncatedSeries(np.concatenate([[0, 2.0], np.zeros(2047)]))
        with pytest.raises(ValueError):
            membership_check(f, HALF, 0.99, 128)

    @pytest.mark.parametrize("angles", [0, -1])
    def test_rejects_angles_below_one(self, angles):
        with pytest.raises(ValueError, match="angles must be an integer >= 1"):
            membership_check(identity(2048), HALF, 0.99, angles)

    @pytest.mark.parametrize(
        "target, spec, radius, angles",
        [
            (StripParams(-1.3, 3.7), SchwarzSpec("scaled-rotation", c=0.5j), 0.999, 1024),
            (DorffParam(2.5), SchwarzSpec("power", c=0.9 * np.exp(2.0j), k=3), 0.999, 1024),
            (StripParams(-1.3, 3.7), SchwarzSpec("power", c=1.0, k=2), 0.999, 1024),
            (HALF, SchwarzSpec("blaschke-factor", a=0.6 + 0.3j, phi=1.0), 0.999, 1024),
            (DorffParam(2.5), SchwarzSpec("scaled-rotation", c=0.5), 0.99, 4),
        ],
        ids=["truncated", "truncated-power", "power-ends-in-0", "blaschke", "fallback"],
    )
    def test_fold_to_the_last_nonzero_is_the_full_fold(
        self, monkeypatch, target, spec, radius, angles
    ):
        # the audit folds up to the last nonzero coefficient; every mode,
        # trailing zeros included, gives the same bytes, and the fallback
        # grid keeps its size from the order
        f = generate_member(target, spec, 14020)
        if spec.kind != "blaschke-factor":
            assert np.flatnonzero(f.coeffs)[-1] < f.order
        folds = []

        def spy(modes, count):
            folds.append(count)
            return fold(modes, count)

        fold = verify._fold
        monkeypatch.setattr(verify, "_fold", spy)
        report = membership_check(f, target, radius, angles)
        got = (report.context["re_min"], report.context["re_max"])
        assert [v.hex() for v in got] == [v.hex() for v in membership_extremes(f, radius, angles)]
        assert report.verdict == HOLDS
        # fewer than 5 angles always count as undersampled
        assert folds == ([angles, _fft_len(f.order), angles] if angles < 5 else [angles, angles])


class TestConvexityProbe:
    def test_identity_map_holds(self):
        report = convexity_probe(lambda z: z, 0.9, 64, order=64)
        assert report.verdict == HOLDS
        assert abs(report.context["re_min"] - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "target, maps",
        [(HALF, (p_strip_eval, p_hat_eval)), (DorffParam(2.7), (dorff_eval, b_tilde_eval))],
        ids=FAMILIES,
    )
    def test_map_and_integrated_variant(self, target, maps):
        for evaluate in maps:
            report = convexity_probe(lambda z: evaluate(target, z), 0.99, 128)
            assert report.verdict == HOLDS
            assert report.context["re_min"] > 0.0

    def test_negative_control(self):
        report = convexity_probe(lambda z: z + 2.0 * z * z, 0.9, 128, order=64)
        assert report.verdict == VIOLATED
        assert report.context["reason"].startswith("zero count 1 ")

    def test_zero_of_derivative_inside_violates(self):
        # h' = 1 + 4z vanishes at -1/4, although the ring |z| = 0.9 alone
        # reads Re(1 + z h''/h') >= 1.78; fewer than five samples are
        # refined, as in the membership audit
        for angles in (256, 1, 4):
            report = convexity_probe(lambda z: z + 2.0 * z * z, 0.9, angles, order=64)
            assert report.verdict == VIOLATED
            assert report.context["re_min"] > 1.7
            assert report.lhs == 0.0
            assert report.context["reason"] == "zero count 1 for h' inside the circle"

    def test_one_ring_is_the_disc_minimum(self):
        # minimum principle: Re(1 + z h''/h') is harmonic where h' != 0, so
        # the ring at the radius holds the minimum of 16 rings up to it
        rng = np.random.default_rng(7)
        radius, angles, order = 0.99, 256, 2048
        z = np.exp(2j * PI * np.arange(angles) / angles)
        for _ in range(2):
            p, d = random_strip_params(rng), random_dorff_param(rng)
            for target, h, integrated in four_maps(p, d):
                report = convexity_probe(h, radius, angles, order=order)
                rings = min(
                    float(np.min(convexity_quantity(target, r * z, integrated)))
                    for r in np.linspace(radius / 16, radius, 16)
                )
                assert report.verdict == HOLDS
                assert abs(report.context["re_min"] - rings) < 1e-9

    def test_ring_matches_the_closed_form(self):
        # every sampled mode is kept: cutting h at `order` coefficients put
        # re_min up to 2.1e-5 off the closed form at these sizes
        rng = np.random.default_rng(2024)
        radius, angles, order = 0.99, 256, 2048
        z = radius * np.exp(2j * PI * np.arange(angles) / angles)
        for _ in range(10):
            p, d = random_strip_params(rng), random_dorff_param(rng)
            for target, h, integrated in four_maps(p, d):
                report = convexity_probe(h, radius, angles, order=order)
                exact = float(np.min(convexity_quantity(target, z, integrated)))
                assert abs(report.context["re_min"] - exact) < 1e-9

    @pytest.mark.parametrize("radius", [0.3, 0.1])
    def test_small_radius(self, radius):
        # the modes are scaled by (radius / sample_radius)**k < 1; scaling
        # by sample_radius**-k overflowed below radius 0.41 at order 2048
        z = radius * np.exp(2j * PI * np.arange(64) / 64)
        with np.errstate(all="raise", under="ignore"):
            report = convexity_probe(lambda w: p_strip_eval(HALF, w), radius, 64)
        assert report.verdict == HOLDS
        exact = float(np.min(convexity_quantity(HALF, z)))
        assert abs(report.context["re_min"] - exact) < 1e-12

    def test_samples_coefficients_midway_to_the_circle(self):
        for radius in (0.5, 0.9):
            report = convexity_probe(lambda z: z, radius, 64, order=64)
            assert report.context["sample_radius"] == (1.0 + radius) / 2.0

    def test_flags_vanishing_derivative(self):
        with pytest.raises(ValueError):
            convexity_probe(lambda z: z * z, 0.9, 64, order=64)

    def test_rejects_a_scalar_valued_h(self):
        with pytest.raises(ValueError, match="h returned shape"):
            convexity_probe(lambda z: 1.0, 0.9, 64, order=64)

    def test_flags_a_near_zero_of_h_prime_on_the_ring(self):
        # h' = 1 - (1 - 1e-13) (z / 0.9)**8 comes within 1e-13 of 0 at the
        # eight ring points z**8 = 0.9**8: below 1e-12 of h'(0) = 1
        def h(z):
            return z - (1.0 - 1e-13) * z**9 / (9.0 * 0.9**8)

        with pytest.raises(ValueError, match="h' vanishes at sample radius 0.9"):
            convexity_probe(h, 0.9, 64, order=64)

    @pytest.mark.parametrize("c", [1e-13, 1.0, 1e13])
    def test_constant_map_raises(self, c):
        with pytest.raises(ValueError, match=r"h'\(0\) != 0"):
            convexity_probe(lambda z: np.full_like(z, c), 0.9, 64, order=64)

    @pytest.mark.parametrize(
        "h",
        [lambda z: z, lambda z: p_hat_eval(HALF, z), lambda z: z + 2.0 * z * z],
        ids=["identity", "integrated-strip", "negative-control"],
    )
    def test_verdict_is_scale_free(self, h):
        # the zero guards were absolute: at c = 1e-13 the probe raised
        # "probe requires h'(0) != 0" for every map
        base = convexity_probe(h, 0.9, 64, order=64)
        for c in (1e-13, 1e13):
            report = convexity_probe(lambda z: c * h(z), 0.9, 64, order=64)
            assert report.verdict == base.verdict
            assert report.context["re_min"] == pytest.approx(base.context["re_min"], rel=1e-12)

    @pytest.mark.parametrize("angles", [0, -1])
    def test_rejects_angles_below_one(self, angles):
        with pytest.raises(ValueError, match="angles must be an integer >= 1"):
            convexity_probe(lambda z: z, 0.9, angles, order=64)


class TestSizeArguments:
    """Every size argument follows series._require_order: an integer >= its
    least value, numpy integers included, and a Python int in the reports."""

    @pytest.mark.parametrize("order", [100.5, float("nan"), True], ids=repr)
    def test_probe_rejects_non_integer_order(self, order):
        # 100.5 and NaN raised AttributeError from _fft_len; True read holds
        with pytest.raises(ValueError, match="order must be an integer >= 1"):
            convexity_probe(lambda z: z, 0.9, 64, order=order)

    @pytest.mark.parametrize("angles", [128.0, True], ids=repr)
    def test_rejects_non_integer_angles(self, angles):
        # both raised TypeError inside the fold
        f = generate_member(HALF, SchwarzSpec.identity(), 2048)
        for call in (
            lambda: membership_check(f, HALF, 0.99, angles),
            lambda: audit_member(f, HALF, 0.99, angles),
            lambda: convexity_probe(lambda z: z, 0.9, angles, order=64),
        ):
            with pytest.raises(ValueError, match="angles must be an integer >= 1"):
                call()

    @pytest.mark.parametrize("k_max", [2.5, True], ids=repr)
    def test_rogosinski_rejects_non_integer_window(self, k_max):
        # 2.5 raised TypeError from the slice, True read as a window of 1
        with pytest.raises(ValueError, match="k_max must be an integer >= 1"):
            rogosinski_check([0.1, 0.1, 0.1], [0.2, 0.2, 0.2], k_max)

    def test_numpy_integers_give_json_contexts(self):
        # np.int64 raised AttributeError in the probe, and the sharpness and
        # membership contexts kept it, which json.dumps refuses
        i64 = np.int64
        f = generate_member(HALF, SchwarzSpec.identity(), i64(2048))
        reports = [
            sharpness(HALF, i64(100)),
            convexity_probe(lambda z: z, 0.9, i64(64), order=i64(64)),
            rogosinski_check([0.1, 0.1], [0.2, 0.2], i64(2)),
            *audit_member(f, HALF, 0.99, i64(128)),
        ]
        for report in reports:
            assert report.verdict != VIOLATED
            json.dumps(report.context, allow_nan=False)
        assert type(reports[0].context["order"]) is int


class TestNumberArguments:
    """A radius is a real number, checked once and used as the Python float
    the check returns; a sequence must hold numbers, never strings."""

    def test_numpy_float_radius_gives_json_contexts(self):
        # the np.float32 radius stayed in both contexts, which json refused
        radius = np.float32(0.99)
        f = generate_member(HALF, SchwarzSpec.identity(), 2048)
        reports = [
            membership_check(f, HALF, radius, 256),
            convexity_probe(lambda z: z, radius, 64, order=64),
            *audit_member(f, HALF, radius, 128),
        ]
        for report in reports[:3]:
            assert type(report.context["radius"]) is float
            assert report.context["radius"] == float(radius)
        for report in reports:
            assert report.verdict != VIOLATED
            json.dumps(report.context, allow_nan=False)

    def test_string_radius_rejected(self):
        # "0.99" < 1.0 raised TypeError
        f = generate_member(HALF, SchwarzSpec.identity(), 2048)
        for call in (
            lambda: audit_min_order("0.99"),
            lambda: membership_check(f, HALF, "0.99", 256),
            lambda: audit_member(f, HALF, "0.99", 256),
            lambda: convexity_probe(lambda z: z, "0.9", 64, order=64),
        ):
            with pytest.raises(ValueError, match="radius must be a real number"):
                call()

    def test_rogosinski_squares_integers_as_doubles(self):
        # an int64 square would wrap past 9.2e18
        report = rogosinski_check([4_000_000_000], [1], 1)
        assert report.lhs == 1.6e19 and report.verdict == VIOLATED

    def test_rogosinski_rejects_numeric_strings(self):
        # np.asarray(..., dtype=complex) parsed them, and the check ran
        for sub, dom in ((["0.1"], ["0.2"]), ([0.1], ["0.2"])):
            with pytest.raises(ValueError, match="numbers"):
                rogosinski_check(sub, dom, 1)


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

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -1e-9])
    def test_rejects_bad_tolerance(self, tolerance):
        # a NaN tolerance read holds for any lhs, as did an infinite one
        with pytest.raises(ValueError, match="tolerance"):
            _report(2.0, 1.0, 0.0, {}, tolerance)
        with pytest.raises(ValueError, match="tolerance"):
            membership_check(identity(2048), HALF, 0.99, 256, tolerance=tolerance)

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -1.0])
    def test_sharpness_passes_a_bad_tolerance_on(self, tolerance):
        # max(tail, nan) is the tail, which hid the NaN; max(tail, -1.0)
        # hid the sign and read holds-with-equality
        with pytest.raises(ValueError, match="tolerance"):
            sharpness(HALF, 64, tolerance)

    def test_zero_tolerance_is_allowed(self):
        assert _report(1.0, 1.0, 0.0, {}, 0.0).verdict == HOLDS
        assert _report(1.0 + 1e-15, 1.0, 0.0, {}, 0.0).verdict == VIOLATED

    def test_tail_does_not_widen_the_tolerance(self):
        # the circle audits' radius**order tail (8.1e-7 at the soundness
        # sizes) used to widen the library's default tolerance
        assert _report(1.0 + 1e-8, 1.0, 1e-6, {}).verdict == VIOLATED
        assert _report(1.0 + 1e-8, 1.0, 1e-6, {}, tolerance=1e-7).verdict == HOLDS


class TestSharpness:
    @pytest.mark.parametrize(
        "check, draw, seed",
        [(sharpness_strip, random_strip_params, 101), (sharpness_dorff, random_dorff_param, 103)],
        ids=FAMILIES,
    )
    def test_random_draws(self, check, draw, seed):
        rng = np.random.default_rng(seed)
        for _ in range(5):
            report = check(draw(rng), order=2048)
            assert report.verdict == EQUALITY

    @pytest.mark.parametrize(
        "target", [StripParams(-1e8, 1.5), DorffParam(np.nextafter(PI, 0.0))], ids=FAMILIES
    )
    def test_tight_tail_at_the_class_edges(self, target):
        # C^2/(3 N^3) read 4.9e3 and 3.8e18 here
        report = sharpness(target)
        assert report.verdict == EQUALITY
        assert report.tail_estimate < 1e-4

    @pytest.mark.parametrize("order", [100.5, float("nan"), float("inf"), True], ids=repr)
    def test_rejects_non_integer_order(self, order):
        # order 100.5 read holds-with-equality with the float in its context
        with pytest.raises(ValueError, match="order"):
            sharpness(HALF, order)

    def test_numpy_float_target_gives_a_json_context(self):
        # json refused the np.float32 edges in the context
        for target in (StripParams(np.float32(0.5), np.float32(1.5)), DorffParam(np.float32(2))):
            report = sharpness(target, 64)
            assert report.verdict == EQUALITY
            json.dumps(report.context, allow_nan=False)

    def test_builds_no_extremal_series(self, monkeypatch):
        def no_series(_):
            raise AssertionError("sharpness needs only the closed-form gammas")

        monkeypatch.setattr("stripcoef.logcoef.series_exp", no_series)
        assert sharpness_strip(HALF, 2048).verdict == EQUALITY
        assert sharpness_dorff(RIGHT, 2048).verdict == EQUALITY


class TestAuditMember:
    @pytest.mark.parametrize(
        "target, spec",
        [
            (HALF, SchwarzSpec("blaschke-factor", a=0.3, phi=1.0)),
            (DorffParam(2.0), SchwarzSpec("power", c=0.8j, k=3)),
        ],
        ids=FAMILIES,
    )
    def test_member_all_hold(self, target, spec):
        g = generate_member(target, spec, 2048)
        reports = audit_member(g, target, 0.99, 256)
        assert len(reports) == 4
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

    @pytest.mark.parametrize("n_max", [200.5, math.nan, math.inf, -1, True, "128"])
    def test_min_order_rejects_bad_n_max(self, n_max):
        # 200.5 gave 201.5, NaN the membership floor 64 and inf inf
        with pytest.raises(ValueError, match="n_max must be an integer >= 0"):
            audit_min_order(0.5, n_max=n_max)

    def test_min_order_returns_a_python_int(self):
        # np.int64(300) gave np.int64(301)
        got = audit_min_order(0.5, n_max=np.int64(300))
        assert got == 301 and type(got) is int

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
    and beta = 1 + delta/(2 sin delta); DorffParam is that strip, turned
    by z -> e^{-i pi mu} z.  The Dorff map's own closed forms check it."""

    @pytest.mark.parametrize("delta", [*np.linspace(PI / 2.0, PI - 1e-3, 9), PI - 1e-6])
    def test_bounds_and_extremal_agree(self, delta):
        order = 1024
        d = DorffParam(delta)
        n = np.arange(1, order + 1)
        eps, sin = (PI - delta) + _PI_LOW, np.sin(delta)
        assert d.alpha == pytest.approx(1.0 - eps / (2.0 * sin), rel=1e-12, abs=0.0)
        assert d.beta == pytest.approx(1.0 + delta / (2.0 * sin), rel=1e-12, abs=0.0)
        want = (delta * eps) ** 2 / (24.0 * sin**2)
        assert d.sum_bound() == pytest.approx(want, rel=1e-12, abs=0.0)
        assert np.allclose(d.per_n_bound(n), 0.5 / n, rtol=1e-12, atol=0.0)
        assert d.tail_constant == pytest.approx(0.5 / sin, rel=1e-12, abs=0.0)
        # the turn makes the gammas real: A_n / (2n) with A_n the Dorff coefficient
        gammas = extremal_gammas(d, order)
        exact = dorff_coeff(d, n) / (2.0 * n)
        assert gammas.dtype == float
        assert np.max(np.abs(gammas - exact)) <= 1e-12 * np.max(np.abs(exact))
        # unturned, the strip's gamma_n is the Dorff gamma_n times (-e^{-i delta})^n
        strip = extremal_gammas(StripParams(d.alpha, d.beta), order)
        rotated = exact * (-np.exp(-1j * delta)) ** n
        assert np.max(np.abs(strip - rotated)) <= 1e-12 * np.max(np.abs(exact))
