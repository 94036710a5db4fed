import json
import math

import numpy as np
import pytest

from stripcoef.logcoef import (
    SchwarzSpec,
    _cauchy_length,
    _powers,
    extremal_gammas,
    generate_member,
    koebe_rotation,
    log_coefficients,
    random_schwarz_spec,
)
from stripcoef.maps import DorffParam, StripParams
from stripcoef.series import TruncatedSeries, series_exp

from oracles import (
    b_strip_coeff,
    compose_schwarz,
    evaluate,
    factor_log_member,
    hat_series,
    identity,
    integrate_over_t,
    log_p,
    p_strip_series,
    power_member_full_order,
    random_dorff_param,
    random_strip_params,
    schwarz_series,
    shift,
    zero_free_member_full_length,
)

PI = np.pi
HALF = StripParams(0.5, 1.5)
RIGHT = DorffParam(PI / 2.0)
ID = SchwarzSpec.identity()
# a float, NaN or infinity (rounded or compared wrong) and a bool
# (an int to isinstance); an integer-valued float is refused as well
BAD_ORDERS = [100.5, 300.0, float("nan"), float("inf"), True]


class TestOrderArgument:
    @pytest.mark.parametrize("order", BAD_ORDERS, ids=repr)
    def test_rejects_non_integer_order(self, order):
        for call in (
            lambda: generate_member(HALF, SchwarzSpec("power", c=0.5, k=3), order),
            lambda: extremal_gammas(HALF, order),
            lambda: koebe_rotation(1.0, order),
        ):
            with pytest.raises(ValueError, match="order"):
                call()

    def test_accepts_numpy_integer_order(self):
        order = np.int64(300)
        assert generate_member(HALF, ID, order).order == 300
        assert extremal_gammas(HALF, order).shape == (300,)
        assert koebe_rotation(1.0, order)[0].order == 300

    def test_narrow_numpy_integer_order_is_used_as_checked(self):
        # order + 1 wrapped in np.int8 and np.int16, and the arrays were
        # then allocated with a negative size
        series, gammas = koebe_rotation(1.0, np.int8(127))
        want_series, want_gammas = koebe_rotation(1.0, 127)
        assert np.array_equal(series.coeffs, want_series.coeffs)
        assert np.array_equal(gammas, want_gammas)
        got = generate_member(HALF, ID, np.int16(32767))
        assert np.array_equal(got.coeffs, generate_member(HALF, ID, 32767).coeffs)


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

    def test_rejects_a_numeric_string(self):
        # complex("1") parsed it, and the Koebe function came back
        with pytest.raises(ValueError, match="complex number"):
            koebe_rotation("1", 8)

    def test_rejects_a_bool(self):
        # True was eps = 1, as the size rule refuses it as an order
        with pytest.raises(ValueError, match="complex number"):
            koebe_rotation(True, 8)

    # a NaN modulus once passed the |eps| = 1 test and gave NaN series
    @pytest.mark.parametrize("eps", [complex("nan"), complex(1.0, np.nan), np.inf], ids=repr)
    def test_rejects_non_finite(self, eps):
        with pytest.raises(ValueError, match=r"\|eps\| = 1"):
            koebe_rotation(eps, 8)


class TestSchwarzSpec:
    def test_families_are_schwarz(self):
        specs = [
            SchwarzSpec("scaled-rotation", c=0.7j),
            SchwarzSpec("power", c=0.9, k=3),
            SchwarzSpec("blaschke-factor", a=0.5 - 0.2j, phi=1.3),
        ]
        z = 0.999 * np.exp(2j * PI * np.arange(256) / 256)
        for spec in specs:
            s = schwarz_series(spec, 64)
            assert s.coeffs[0] == 0.0
            assert np.max(np.abs(evaluate(s, z))) < 1.0

    @pytest.mark.parametrize("k", [2.5, 2.0, "2", True])
    def test_power_rejects_non_integer_exponent(self, k):
        with pytest.raises(ValueError, match="integer"):
            SchwarzSpec("power", c=0.5, k=k)

    def test_power_accepts_numpy_integer(self):
        spec = SchwarzSpec("power", c=0.5, k=np.int64(3))
        assert spec.k == 3
        # the record is for json, which refuses numpy's int64
        assert json.loads(json.dumps(spec.describe()))["k"] == 3
        assert type(spec.describe()["k"]) is int

    def test_narrow_numpy_exponent_is_used_as_checked(self):
        # (order - 1) // k ran in np.int8, which cannot hold 14 019
        got = generate_member(HALF, SchwarzSpec("power", c=0.5, k=np.int8(3)), 14020)
        want = generate_member(HALF, SchwarzSpec("power", c=0.5, k=3), 14020)
        assert np.array_equal(got.coeffs, want.coeffs)

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

    def test_each_kind_reads_only_its_own_fields(self):
        # the CLI passes k=2 to every kind and c=1 to the Blaschke factor
        for target in (HALF, DorffParam(2.0)):
            ref = generate_member(target, SchwarzSpec("scaled-rotation", c=0.5), 300).coeffs
            for k in (0, 7):
                spec = SchwarzSpec("scaled-rotation", c=0.5, k=k)
                assert generate_member(target, spec, 300).coeffs.tobytes() == ref.tobytes()
            spec = SchwarzSpec("blaschke-factor", a=0.3, phi=1.0)
            ref = generate_member(target, spec, 300).coeffs
            spec = SchwarzSpec("blaschke-factor", c=5.0, k=3, a=0.3, phi=1.0)
            assert generate_member(target, spec, 300).coeffs.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        ("fields", "unread"),
        [
            ({"kind": "scaled-rotation", "c": 0.5, "phi": float("nan")}, {"phi": 0.0}),
            ({"kind": "scaled-rotation", "c": 0.5, "a": complex("nan")}, {"a": 0.0}),
            ({"kind": "power", "c": 0.5, "k": 3, "a": float("inf")}, {"a": 0.0}),
            ({"kind": "blaschke-factor", "a": 0.3, "phi": 1.0, "c": complex("nan")}, {"c": 1.0}),
        ],
    )
    def test_non_finite_unread_field_accepted(self, fields, unread):
        spec, clean = SchwarzSpec(**fields), SchwarzSpec(**{**fields, **unread})
        for target in (HALF, DorffParam(2.0)):
            got = generate_member(target, spec, 300).coeffs
            assert got.tobytes() == generate_member(target, clean, 300).coeffs.tobytes()

    @pytest.mark.parametrize(
        "fields",
        [
            {"kind": "scaled-rotation", "c": "0.5"},
            {"kind": "power", "c": "0.5", "k": 2},
            {"kind": "blaschke-factor", "a": "0.3"},
            {"kind": "blaschke-factor", "a": 0.3, "phi": "1.0"},
            {"kind": "blaschke-factor", "a": 0.3, "phi": 1.0 + 0.5j},
            {"kind": "blaschke-factor", "a": 0.3, "phi": True},
            {"kind": "scaled-rotation", "c": True},
        ],
        ids=["c", "power-c", "a", "phi", "complex-phi", "bool-phi", "bool-c"],
    )
    def test_rejects_non_numbers(self, fields):
        # a string raised TypeError from complex() or, for phi, was
        # multiplied by 1j; a complex phi gave a non-unimodular rotation;
        # a bool was stored as 1.0
        with pytest.raises(ValueError, match="Schwarz parameter"):
            SchwarzSpec(**fields)

    def test_numpy_fields_are_stored_as_python_numbers(self):
        # json refused the np.float32 parts of an np.complex64 c
        for spec in (
            SchwarzSpec("scaled-rotation", c=np.complex64(0.5 + 0.1j)),
            SchwarzSpec("power", c=np.float32(0.5), k=2),
            SchwarzSpec("blaschke-factor", a=np.complex64(0.3j), phi=np.float32(1.0)),
        ):
            record = spec.describe()
            assert all(type(v) in (str, int, float) for v in record.values())
            json.dumps(record, allow_nan=False)
        spec = SchwarzSpec("scaled-rotation", c=np.complex64(0.5 + 0.1j))
        assert type(spec.c) is complex and spec.c == complex(np.complex64(0.5 + 0.1j))

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


def _log_p_by_power(lam, w, order):
    """The factor logs' numerators log P with np.power throughout
    (reference form)."""
    out = np.zeros(order + 1, dtype=complex)
    n = np.arange(1, order + 1)
    if w.kind != "blaschke-factor":
        out[1:] = -np.power(lam * w.c, n) / n
        return out
    rot = np.exp(1j * w.phi)
    abar = np.conj(w.a)
    r1, r2 = np.roots([1.0, abar - lam * rot * w.a, -lam * rot])
    out[1:] = -(np.power(r1, n) + np.power(r2, n)) / n
    return out


class TestLogOneMinus:
    @pytest.mark.parametrize(
        "spec",
        [
            SchwarzSpec("scaled-rotation", c=np.exp(0.3j)),  # |r| = 1
            SchwarzSpec("scaled-rotation", c=0.6 - 0.5j),  # |r| < 1
            SchwarzSpec("blaschke-factor", a=0.0, phi=1.1),  # a = 0: one exact zero power
            SchwarzSpec("blaschke-factor", a=0.7 * np.exp(2j), phi=0.5),
            SchwarzSpec("power", c=np.exp(2.1j), k=3),  # in u = z^3
        ],
    )
    def test_matches_power_form(self, spec):
        s, _, zeros = spec._form()
        for target in (StripParams(-1.9, 3.8), DorffParam(3.0)):
            _, lam1, lam2 = target.factors()
            for lam in (lam1, lam2):
                got = log_p(lam, s, zeros, 14000)
                ref = _log_p_by_power(lam, spec, 14000)
                assert np.all(np.isfinite(got))
                assert np.max(np.abs(got - ref)) <= 1e-14


class TestPowers:
    @pytest.mark.parametrize("modulus", [1.0, 0.999, 0.5])
    @pytest.mark.parametrize("angle", [0.3, 2.9, -1.7, PI])
    def test_against_mpmath(self, modulus, angle):
        # the two-level table's relative error, like np.power's, stays
        # below n eps max(1, |log r|)
        mpmath = pytest.importorskip("mpmath")
        r = complex(modulus * np.exp(1j * angle))
        n = np.arange(1, 14020)
        got = _powers(r, n)
        with mpmath.workdps(30):
            x, p, exact = mpmath.mpc(r.real, r.imag), mpmath.mpc(1), []
            for _ in n:
                p *= x
                exact.append(p)
        normal = np.array([abs(v) >= np.finfo(float).tiny for v in exact])
        exact = np.array([complex(v) for v in exact])
        err = np.abs(got - exact)[normal] / np.abs(exact[normal])
        bound = n[normal] * np.finfo(float).eps * max(1.0, abs(np.log(r)))
        assert np.all(err <= bound)
        assert np.array_equal(got[:99], np.power(r, n[:99]))

    @pytest.mark.parametrize("count", [0, 1, 2, 99, 100, 101, 143, 144, 145])
    def test_table_lengths(self, count):
        # the table is isqrt(count) columns wide; every length fills it
        n = np.arange(1, count + 1)
        got = _powers(0.9 * np.exp(0.4j), n)
        assert got.shape == (count,)
        assert np.allclose(got, np.power(0.9 * np.exp(0.4j), n), rtol=1e-13, atol=0.0)


class TestGenerateMember:
    # the extremal function z exp(integrated map), from the integrated-map
    # coefficients rather than the factor logs
    @pytest.mark.parametrize("target", [HALF, DorffParam(2.0)], ids=["strip", "dorff"])
    def test_identity_reproduces_extremal(self, target):
        f = shift(series_exp(hat_series(target, 127)))
        g = generate_member(target, ID, 128)
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
            q_minus_1 = integrate_over_t(TruncatedSeries(np.concatenate([[0.0], q.coeffs[1:]])))
            expected = shift(series_exp(q_minus_1)).truncate(order)
            got = generate_member(p, spec, order)
            assert np.max(np.abs(got.coeffs - expected.coeffs[: order + 1])) < 1e-10

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_power_member_matches_full_order(self, k):
        # the k-th root transform at order (order - 1) // k against the
        # member built at the full order
        for target in (StripParams(-1.9, 3.8), DorffParam(3.0)):
            for c in (1.0, 0.6 - 0.5j, np.exp(2.1j)):
                spec = SchwarzSpec("power", c=c, k=k)
                for order in (k + 1, 320 * k - 1, 320 * k + 1, 14020):
                    got = generate_member(target, spec, order).coeffs
                    ref = power_member_full_order(target, spec, order).coeffs
                    scale = max(1.0, np.max(np.abs(ref)))
                    assert np.max(np.abs(got - ref)) <= 1e-15 * scale, (target, c, order)

    def test_power_member_is_zero_off_the_stride(self):
        # Newton at the full order left 1 291 coefficients up to 7.9e-19
        # off the stride here; on it, E_j past the proven length is 0 too
        target, spec = StripParams(-0.7, 2.9), SchwarzSpec("power", c=0.6, k=3)
        f = generate_member(target, spec, 2000).coeffs
        length = _cauchy_length(target, 0.6, 3, 666)
        assert 0 < length < 666
        kept = np.zeros(2001, dtype=bool)
        kept[1 : 2 + 3 * length : 3] = True
        assert np.all(f[~kept] == 0.0)
        assert np.all(f[kept] != 0.0)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_power_member_below_the_first_term_is_z(self, k):
        for order in range(2, k + 1):
            g = generate_member(HALF, SchwarzSpec("power", c=0.9j, k=k), order)
            assert np.array_equal(g.coeffs, identity(order).coeffs)

    @pytest.mark.parametrize(
        "target",
        [StripParams(-0.7, 2.9), HALF, StripParams(-1e3, 1.001), DorffParam(2.0), DorffParam(3.1)],
        ids=repr,
    )
    def test_z_to_the_n_attains_the_per_n_bound(self, target):
        # omega = z^n is the sharpness witness of the per-n estimate:
        # |gamma_n| = per_n_bound(n) exactly (worst seen 4.2e-16 relative)
        for n in range(1, 129):
            f = generate_member(target, SchwarzSpec("power", c=1.0, k=n), 130)
            got = abs(log_coefficients(f)[n - 1])
            bound = target.per_n_bound(n)
            assert abs(got - bound) <= 1e-14 * bound, n

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


# Blaschke-factor draws of acceptance criterion 6 and edge targets where
# kappa is large or mu lies near 0
BLASCHKE_SEED = 21057
BLASCHKE_EDGES = (
    StripParams(-10.0, 10.0),
    StripParams(-1e6, 1.000001),
    StripParams(-1.3, 3.7),
    DorffParam(PI - 1e-6),
    DorffParam(PI - 1e-3),
    DorffParam(PI - 0.05),
)


class TestBlaschkeMembers:
    @pytest.mark.parametrize("order", [256, 1500, 14020])
    def test_bitwise_the_factor_log_member(self, order):
        # the one-pass exponent runs the float operations of the factor
        # logs, their difference and the primitive of g(t)/t, in order
        cases = [
            (target, SchwarzSpec("blaschke-factor", a=a, phi=1.0))
            for target in BLASCHKE_EDGES
            for a in (0.99, -0.999j)
        ]
        rng = np.random.default_rng(BLASCHKE_SEED)
        for draw in (random_strip_params, random_dorff_param):
            for _ in range(100):
                target, spec = draw(rng), random_schwarz_spec(rng)
                if spec.kind == "blaschke-factor":
                    cases.append((target, spec))
        assert len(cases) > 60
        for target, spec in cases:
            got = generate_member(target, spec, order).coeffs
            ref = factor_log_member(target, spec, order).coeffs
            assert np.array_equal(got, ref), (target, spec)


class TestZeroFreeMembers:
    # zero-free members are E_j = X_j (tau s)^j with X the exponential of
    # the real series rho / k; the factor logs remain for Blaschke members

    @pytest.mark.parametrize(
        "target",
        [
            StripParams(-1e3, 1.001),
            StripParams(-1e6, 1.000001),
            StripParams(0.999999, 2.0),
            HALF,
            StripParams(-1.3, 3.7),
            DorffParam(PI - 1e-3),
            DorffParam(1.6),
        ],
        ids=repr,
    )
    def test_identity_matches_closed_form_gammas(self, target):
        # kappa [(lam2 s)^n - (lam1 s)^n] lost 5 digits here with mu near 0 or 1
        gammas = extremal_gammas(target, 128)
        got = log_coefficients(generate_member(target, ID, 129))
        assert np.max(np.abs(got - gammas)) <= 2e-15 * np.max(np.abs(gammas))

    @pytest.mark.parametrize("kind, k", [("scaled-rotation", 1), *(("power", k) for k in range(2, 6))])
    def test_matches_factor_log_construction(self, kind, k):
        # mu = 1e-6 and 1 - 1e-6 at unit width, where the factor logs keep
        # their digits; they lose them with kappa, 1.5e-14 at (-1e3, 1.001)
        targets = (
            StripParams(0.999999, 2.0),
            StripParams(0.0, 1.000001),
            StripParams(-1.3, 3.7),
            DorffParam(1.6),
            DorffParam(3.0),
        )
        for target in targets:
            for c in (0.0, 0.5, 0.5 * np.exp(1j), 1.0, np.exp(2.1j)):
                spec = SchwarzSpec(kind, c=c, k=k)
                for order in (k + 1, 320 * k - 1, 320 * k + 1, 14020):
                    got = generate_member(target, spec, order).coeffs
                    ref = factor_log_member(target, spec, order).coeffs
                    scale = max(1.0, np.max(np.abs(ref)))
                    assert np.max(np.abs(got - ref)) <= 1e-15 * scale, (target, c, order)

    def test_small_s_on_a_wide_strip_stays_finite(self):
        # the real series keeps |s|: X(tau s u) itself would overflow a
        # double at these widths, where E peaks at 3.7e162
        p = StripParams(-1e3, 1e3)
        for c in (0.05, 0.3j):
            for kind, k in (("scaled-rotation", 1), ("power", 3)):
                spec = SchwarzSpec(kind, c=c, k=k)
                got = generate_member(p, spec, 2000).coeffs
                ref = factor_log_member(p, spec, 2000).coeffs
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (c, k)

    @pytest.mark.parametrize("delta", [3.14, PI - 1e-3])
    def test_closer_to_mpmath_than_factor_logs_near_pi(self, delta):
        # kappa = 1/(2i sin delta) reaches 500, and the factor logs' error
        # with it; the rotated construction does not cancel
        mpmath = pytest.importorskip("mpmath")
        order = 200
        d = DorffParam(delta)
        for c in (1.0, np.exp(2.1j)):
            spec = SchwarzSpec("scaled-rotation", c=c)
            with mpmath.workdps(30):
                x, cc = mpmath.mpf(delta), mpmath.mpc(c.real, c.imag)
                da = [mpmath.mpc(0)] + [
                    (-1) ** (n - 1) * mpmath.sin(n * x) / (n * mpmath.sin(x)) * cc**n
                    for n in range(1, order)
                ]
                exact = [mpmath.mpc(1)]
                for j in range(1, order):
                    exact.append(mpmath.fdot(da[1 : j + 1], exact[j - 1 :: -1]) / j)
                exact = np.array([0.0] + [complex(v) for v in exact])
            got = generate_member(d, spec, order).coeffs
            ref = factor_log_member(d, spec, order).coeffs
            assert np.max(np.abs(got - exact)) < np.max(np.abs(ref - exact)), c

    def test_never_reach_np_roots(self, monkeypatch):
        def refuse(poly):
            raise AssertionError("np.roots called")

        monkeypatch.setattr(np, "roots", refuse)
        for target in (StripParams(-1.9, 3.8), DorffParam(3.0)):
            for spec in (
                ID,
                SchwarzSpec("scaled-rotation", c=0.6 - 0.5j),
                SchwarzSpec("power", c=np.exp(2.1j), k=3),
            ):
                generate_member(target, spec, 2000)
            with pytest.raises(AssertionError, match="np.roots"):
                generate_member(target, SchwarzSpec("blaschke-factor", a=0.4), 64)


# each target with the tolerance its zero-free members meet against the
# full-length construction: on the strip (-1e3, 1e3), where |E_j| peaks
# at 3.7e267 for |c| = 0.5, both constructions are Newton results up to
# 1.6e-14 of the peak off 30-digit mpmath, and 4.5e-14 apart
CAUCHY_TARGETS = [
    (StripParams(-1.3, 3.7), 1e-15),
    (StripParams(-1e3, 1e3), 1e-13),
    (DorffParam(2.0), 1e-15),
    (DorffParam(PI - 1e-3), 1e-15),
    (DorffParam(PI - 0.05), 1e-15),
]

# (target, k, |c|) whose two constructions stand further apart than the
# target's tolerance, with the bound they meet: at delta = pi - 1e-3 with
# |c| = 0.99 (L = 6 355 of 14 019) they are 2.8e-15 apart, and 2.6e-15
# (stopped at L) and 3.3e-15 (full length) off 30-digit mpmath
WIDER_MATCHES = {(DorffParam(PI - 1e-3), 1, 0.99): 5e-15}


def _log_m(target, k: int) -> float:
    """log M for E = exp(p_hat(s u) / k): sup |p_hat| on the closed disc
    from |hat_n| <= min(2B/n, 2C/n^2), summed as 2B(1 + ln K) + 2C/K with
    K = floor(C/B) >= 1, or C pi^2/3 where that is smaller, over k."""
    b, c = target.per_n_bound(1), target.tail_constant
    big = math.floor(c / b)
    return min(c * PI**2 / 3, 2 * b * (1 + math.log(big)) + 2 * c / big) / k


def _log_terms(target, q: float, k: int, count: int) -> np.ndarray:
    """log[(1 + jk) M q^j] for j = 0..count - 1: what dropping E_j can move
    f and f' by on the closed unit disc, by Cauchy's estimate."""
    j = np.arange(count)
    return _log_m(target, k) + np.log1p(j * k) + j * np.log(q)


def _exact_exponential(c: complex, k: int, count: int, hats) -> np.ndarray:
    """E_0..E_count of exp(p_hat(c u) / k) by the recurrence in 30-digit
    mpmath, from the first `count` integrated-map coefficients `hats`."""
    import mpmath

    with mpmath.workdps(30):
        cc = mpmath.mpc(c.real, c.imag)
        da = [0] + [j * hats[j - 1] * cc**j / k for j in range(1, count + 1)]
        e = [mpmath.mpc(1)]
        for j in range(1, count + 1):
            e.append(mpmath.fdot(da[1 : j + 1], e[j - 1 :: -1]) / j)
        return np.array([complex(v) for v in e])


def _exact_hats(target, count: int) -> list:
    """The first `count` integrated-map coefficients in 30-digit mpmath."""
    import mpmath

    with mpmath.workdps(30):
        if target.family == "strip":
            alpha, beta = mpmath.mpf(target.alpha), mpmath.mpf(target.beta)
            width, mu = beta - alpha, (1 - alpha) / (beta - alpha)
            return [
                width * 1j * (1 - mpmath.expjpi(2 * n * mu)) / (n * n * mpmath.pi)
                for n in range(1, count + 1)
            ]
        eps = mpmath.pi - mpmath.mpf(target.delta)
        return [mpmath.sin(n * eps) / (n * n * mpmath.sin(eps)) for n in range(1, count + 1)]


class TestCauchyLength:
    # zero-free members with |s| < 1 stop at the proven length L

    @pytest.mark.parametrize("target, tol", CAUCHY_TARGETS, ids=lambda v: repr(v))
    def test_matches_the_full_length_construction(self, target, tol):
        pytest.importorskip("mpmath")
        order = 14020
        hats = _exact_hats(target, 199)
        for k in range(1, 6):
            kind = "scaled-rotation" if k == 1 else "power"
            for q in (0.0, 0.05, 0.5, 0.9, 0.99):
                c = q * np.exp(0.7j)
                spec = SchwarzSpec(kind, c=c, k=k)
                try:
                    ref = zero_free_member_full_length(target, spec, order).coeffs
                except ValueError:
                    # E overflows a double ((-1e3, 1e3) at k = 1), at every length
                    with pytest.raises(ValueError, match="overflow"):
                        generate_member(target, spec, order)
                    continue
                got = generate_member(target, spec, order).coeffs
                scale = max(1.0, np.max(np.abs(ref)))
                match = WIDER_MATCHES.get((target, k, q), tol)
                assert np.max(np.abs(got - ref)) <= match * scale, (k, q)
                # n = 1 + jk <= 200 against the truth: as close as the full length
                exact = _exact_exponential(c, k, 199 // k, hats)
                near = slice(1, 201, k)
                scale = max(1.0, np.max(np.abs(exact)))
                err_got, err_ref = (np.max(np.abs(v[near] - exact)) for v in (got, ref))
                assert err_got <= err_ref + tol * scale, (k, q)
                if q == 0.0:
                    continue
                # got stops at E_L, and what it drops is below 2^-60 by the envelope
                length = _cauchy_length(target, q, k, (order - 1) // k)
                assert not got[2 + length * k :].any(), (k, q)
                dropped = _log_terms(target, q, k, (order - 1) // k + 1)[length + 1 :]
                if len(dropped):
                    assert np.logaddexp.reduce(dropped) <= -60 * np.log(2), (k, q)
                # Cauchy: |E_j| <= M q^j with log M from the envelope, wherever
                # the full-length coefficient stands above roundoff
                e = np.abs(ref[1::k])
                j = np.flatnonzero(e > np.finfo(float).eps * np.max(e))
                log_bound = _log_m(target, k) + j * np.log(q)
                assert np.all(np.log(e[j]) <= log_bound + 1e-12 * np.abs(log_bound)), (k, q)

    @pytest.mark.parametrize("target, tol", CAUCHY_TARGETS, ids=lambda v: repr(v))
    def test_unit_scale_is_bitwise_the_full_length(self, target, tol):
        # |s| = 1 gives L = m: the parent's computation, bit for bit
        for k in range(1, 6):
            spec = SchwarzSpec("scaled-rotation" if k == 1 else "power", c=np.exp(0.7j), k=k)
            try:
                ref = zero_free_member_full_length(target, spec, 14020).coeffs
            except ValueError:
                continue
            assert np.array_equal(generate_member(target, spec, 14020).coeffs, ref), k

    def test_length_is_the_least_with_a_small_tail(self):
        # the tail bound at L is at most 2^-60 and at L - 1 above it
        for target, _ in CAUCHY_TARGETS:
            for q in (0.05, 0.5, 0.9, 0.99):
                for k in (1, 3):
                    m = 14019 // k
                    length = _cauchy_length(target, q, k, m)
                    log_terms = _log_terms(target, q, k, m + 2)
                    tail = [np.logaddexp.reduce(log_terms[i + 1 :]) for i in (length - 1, length)]
                    if length < m:
                        assert tail[1] <= -60 * np.log(2) < tail[0], (target, q, k)
                    else:
                        assert tail[0] > -60 * np.log(2), (target, q, k)

    @pytest.mark.parametrize("target", [t for t, _ in CAUCHY_TARGETS], ids=repr)
    def test_envelope_bounds_p_hat_on_the_circle(self, target):
        # k log M bounds |p_hat| sampled on |u| = 1 from 2^16 coefficients
        # plus the 2C/n^2 bound on the rest, and the envelope summed term
        # by term; near delta = pi, p_hat is near -log(1 - u) up to n = C/B
        count = 2**16
        n = np.arange(1, count)
        b, c = target.per_n_bound(1), target.tail_constant
        values = np.fft.ifft(np.concatenate([[0.0], target.hat_coeff(n)])) * count
        envelope = np.sum(np.minimum(2 * b / n, 2 * c / n**2))
        assert np.max(np.abs(values)) <= envelope
        assert envelope + 2 * c / (count - 1) <= _log_m(target, 1)

    def test_envelope_lengths(self):
        # at delta = pi - 1e-3 (C = 500, B = 1/2) C pi^2/3 = 1 645 alone
        # would keep L = m for |s| = 0.9; the envelope gives 8.9, and L
        # stays above j = 420 (k = 1) and 349 (k = 3), where the
        # full-length |E_j| fall below 2^-60.  On the strips K = 1, and
        # C pi^2/3 is the smaller bound
        near_pi = DorffParam(PI - 1e-3)
        for q, k, length in ((0.9, 1, 561), (0.5, 1, 80), (0.9, 3, 514), (0.99, 1, 6355)):
            assert _cauchy_length(near_pi, q, k, 14019 // k) == length, (q, k)
        assert _cauchy_length(DorffParam(PI - 0.05), 0.9, 1, 14019) == 523
        for q, length in ((0.05, 16), (0.5, 74), (0.9, 525)):
            assert _cauchy_length(StripParams(-1.3, 3.7), q, 1, 14019) == length
        assert _cauchy_length(StripParams(-1e3, 1e3), 0.5, 1, 14019) == 3094

    def test_edges(self):
        p = StripParams(-1.3, 3.7)
        assert _cauchy_length(p, 0.0, 2, 7009) == 0
        assert _cauchy_length(p, 1.0, 2, 7009) == 7009
        assert _cauchy_length(p, 0.9, 1, 10) == 10


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
