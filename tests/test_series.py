import random

import pytest

from iwlab._intpoly import euler_phi
from iwlab.padic import CycloPadic, PrecisionContext, PrecisionError, make_root_of_unity
from iwlab.series import (
    INFINITY,
    DistinguishedPolynomial,
    SeriesQuotient,
    TruncatedSeries,
    cyclotomic_polys,
    evaluate_quotient,
    gcd_distinguished,
    interpolate_uniqueness,
    reduce_quotient,
    substitute_twist,
    weierstrass_prepare,
)
from iwlab.suites import SkipCheck, check_quotient_reduction

CTX3 = PrecisionContext(p=3, cap_N=20, cap_D=40)
CTX5 = PrecisionContext(p=5, cap_N=20, cap_D=40)


def rand_unit(ctx, rng, deg=None):
    # keep deg(u) + deg(P) below cap_D so the product determines the factors:
    # truncation at T^cap_D is lossless and the round-trip is exact
    span = ctx.p**ctx.cap_N
    deg = deg if deg is not None else ctx.cap_D // 2
    coeffs = [rng.randrange(span) for _ in range(deg + 1)]
    c0 = coeffs[0]
    while c0 % ctx.p == 0:
        c0 = rng.randrange(span)
    coeffs[0] = c0
    return TruncatedSeries.from_coeffs(ctx, coeffs)


def rand_distinguished(ctx, rng, max_deg=6):
    d = rng.randint(1, max_deg)
    coeffs = [ctx.p * rng.randrange(ctx.p ** (ctx.cap_N - 1)) for _ in range(d)] + [1]
    return DistinguishedPolynomial.from_coeffs(ctx, coeffs)


def test_cyclotomic_polys_level_zero():
    omega, xi = cyclotomic_polys(CTX3, 0)
    t = DistinguishedPolynomial.from_coeffs(CTX3, [0, 1])
    assert omega.equals(t) and xi.equals(t)


def test_cyclotomic_polys_level_one_p3():
    omega, xi = cyclotomic_polys(CTX3, 1)
    assert omega.equals(DistinguishedPolynomial.from_coeffs(CTX3, [0, 3, 3, 1]))
    assert xi.equals(DistinguishedPolynomial.from_coeffs(CTX3, [3, 3, 1]))


def test_omega_product_of_xi():
    for ctx, nmax in ((CTX3, 4), (CTX5, 3)):
        prod = DistinguishedPolynomial.from_coeffs(ctx, [0, 1])  # xi_0
        for n in range(1, nmax + 1):
            omega, xi = cyclotomic_polys(ctx, n)
            prod = prod * xi
            assert prod.equals(omega)


def test_omega_kills_p_power_roots():
    for ctx, n in ((CTX3, 1), (CTX3, 2), (CTX5, 1), (CTX5, 2)):
        omega, _ = cyclotomic_polys(ctx, n)
        z = make_root_of_unity(ctx, ctx.p**n, 1)
        assert omega.evaluate(z - 1).equals(ctx.zero())


def test_prepare_plain_variable():
    s, u, P = weierstrass_prepare(TruncatedSeries.variable(CTX3))
    assert s == 0
    assert u.equals(TruncatedSeries.one(CTX3))
    assert P.equals(DistinguishedPolynomial.from_coeffs(CTX3, [0, 1]))


def test_prepare_unit_constant_times_p():
    s, u, P = weierstrass_prepare(TruncatedSeries.from_coeffs(CTX3, [3]))
    assert s == 1
    assert u.equals(TruncatedSeries.one(CTX3))
    assert P.degree == 0 and P.equals(DistinguishedPolynomial.one(CTX3))


def test_prepare_worked_example_p5():
    unit = TruncatedSeries.from_coeffs(CTX5, [1, 1])
    poly = DistinguishedPolynomial.from_coeffs(CTX5, [5, 5, 1])
    f = (unit * poly.to_series()).scalar_mul(25)
    s, u, P = weierstrass_prepare(f)
    assert s == 2
    assert P.equals(poly)
    assert u.equals(unit)


def test_prepare_round_trip_random():
    rng = random.Random(42)
    for ctx in (CTX3, CTX5):
        for _ in range(25):
            s0 = rng.randint(0, 3)
            p0 = rand_distinguished(ctx, rng)
            u0 = rand_unit(ctx, rng, deg=rng.randint(0, ctx.cap_D - 2 - p0.degree))
            f = (u0 * p0.to_series()).scalar_mul(ctx.p**s0)
            s, u, P = weierstrass_prepare(f)
            assert s == s0
            assert P.equals(p0)
            assert u.equals(u0)


def test_unit_times_distinguished_recovers_same_polynomial():
    # two distinguished polynomials differing by a unit factor coincide
    rng = random.Random(9)
    for _ in range(10):
        P = rand_distinguished(CTX3, rng)
        u = rand_unit(CTX3, rng, deg=CTX3.cap_D - 2 - P.degree)
        _, _, P2 = weierstrass_prepare(u * P.to_series())
        assert P2.equals(P)


def test_prepare_rejects_zero():
    with pytest.raises(PrecisionError):
        weierstrass_prepare(TruncatedSeries.zero(CTX3))


@pytest.mark.parametrize("p, m", [(3, 3), (3, 9), (5, 5)])
def test_prepare_round_trip_ramified_conductor(p, m):
    # P's low coefficients are multiples of zeta_p - 1, of valuation 1/(p - 1)
    # when the cofactor is a unit: the radical of Z[zeta_m]/p^N, not p
    ctx = PrecisionContext(p=p, cap_N=12, cap_D=16)
    rng = random.Random(m)
    pi = make_root_of_unity(ctx, p, 1) - 1

    def elt():
        return CycloPadic(ctx, m, [rng.randrange(p**ctx.cap_N) for _ in range(euler_phi(m))], ctx.cap_N)

    for _ in range(5):
        d = rng.randint(1, 5)
        p0 = DistinguishedPolynomial.from_coeffs(ctx, [pi * elt() for _ in range(d)] + [1])
        u0 = TruncatedSeries.from_coeffs(ctx, [1 + pi * elt()] + [elt() for _ in range(ctx.cap_D - 2 - d)])
        s, u, P = weierstrass_prepare(u0 * p0.to_series())
        assert s == 0
        assert P.equals(p0)
        assert u.equals(u0)


def test_prepare_round_trip_deep_precision():
    ctx = PrecisionContext(p=3, cap_N=400, cap_D=8)
    rng = random.Random(400)
    p0 = DistinguishedPolynomial.from_coeffs(ctx, [3 * rng.randrange(3**399) for _ in range(4)] + [1])
    u0 = rand_unit(ctx, rng, deg=3)
    s, u, P = weierstrass_prepare((u0 * p0.to_series()).scalar_mul(9))
    assert s == 2
    assert P.equals(p0)
    assert u.equals(u0)


def test_reduce_quotient_removes_common_factor():
    t = TruncatedSeries.variable(CTX3)
    f = t * TruncatedSeries.from_coeffs(CTX3, [3, 1])
    q = reduce_quotient(f, t)
    assert q.reduced
    assert q.num.equals(TruncatedSeries.from_coeffs(CTX3, [3, 1]))
    assert q.den.equals(TruncatedSeries.one(CTX3))


def test_reduce_quotient_trivial():
    one = TruncatedSeries.one(CTX5)
    q = reduce_quotient(one, one)
    assert q.num.equals(one) and q.den.equals(one)


def test_reduce_quotient_omega_ratio():
    for ctx in (CTX3, CTX5):
        o2, _ = cyclotomic_polys(ctx, 2)
        o1, _ = cyclotomic_polys(ctx, 1)
        _, xi2 = cyclotomic_polys(ctx, 2)
        q = reduce_quotient(o2.to_series(), o1.to_series())
        assert q.num.equals(xi2.to_series())
        assert q.den.equals(TruncatedSeries.one(ctx))


def test_gcd_distinguished():
    a = DistinguishedPolynomial.from_coeffs(CTX3, [0, 1])  # T
    b = DistinguishedPolynomial.from_coeffs(CTX3, [3, 1])  # T + 3
    prod = a * b
    assert gcd_distinguished(prod, a).equals(a)
    assert gcd_distinguished(a, b).equals(DistinguishedPolynomial.one(CTX3))


def test_evaluate_quotient_at_zero():
    f = TruncatedSeries.from_coeffs(CTX3, [2, 1])
    g = TruncatedSeries.from_coeffs(CTX3, [1, 3])
    q = reduce_quotient(f, g)
    assert evaluate_quotient(q, CTX3.zero()).equals(CTX3.make(2))


def test_evaluate_quotient_pole():
    q = reduce_quotient(TruncatedSeries.one(CTX3), TruncatedSeries.variable(CTX3))
    assert evaluate_quotient(q, CTX3.zero()) is INFINITY


def test_evaluate_quotient_root_of_numerator():
    z = make_root_of_unity(CTX5, 5, 1)
    num = TruncatedSeries.from_coeffs(CTX5, [-(z - 1), CTX5.one()])
    q = SeriesQuotient(num, TruncatedSeries.one(CTX5), reduced=True)
    assert evaluate_quotient(q, z - 1).equals(CTX5.zero())


def test_evaluate_quotient_requires_reduced():
    q = SeriesQuotient(TruncatedSeries.one(CTX3), TruncatedSeries.one(CTX3), reduced=False)
    with pytest.raises(ValueError):
        evaluate_quotient(q, CTX3.zero())


def test_substitute_twist_identity():
    t = TruncatedSeries.variable(CTX3)
    q = SeriesQuotient(t, TruncatedSeries.one(CTX3), reduced=True)
    q2 = substitute_twist(q, CTX3.one())
    assert q2.num.equals(t)


def test_substitute_twist_variable_at_zeta():
    z = make_root_of_unity(CTX3, 3, 1)
    t = TruncatedSeries.variable(CTX3)
    q = SeriesQuotient(t, TruncatedSeries.one(CTX3), reduced=True)
    tw = substitute_twist(q, z)
    assert evaluate_quotient(tw, CTX3.zero()).equals(z - 1)


def test_substitute_twist_composition():
    rng = random.Random(5)
    z = make_root_of_unity(CTX3, 9, 1)
    # iterating the twist by z three times equals a single twist by z^3
    num = TruncatedSeries.from_coeffs(CTX3, [rng.randrange(81) for _ in range(4)])
    den = TruncatedSeries.from_coeffs(CTX3, [1, 3])
    q = SeriesQuotient(num, den, reduced=True)
    lhs = substitute_twist(substitute_twist(substitute_twist(q, z), z), z)
    rhs = substitute_twist(q, z**3)
    assert lhs.num.equals(rhs.num) and lhs.den.equals(rhs.den)


def test_substitute_then_evaluate_matches_shifted_point():
    rng = random.Random(6)
    z = make_root_of_unity(CTX5, 5, 1)
    for _ in range(10):
        num = TruncatedSeries.from_coeffs(CTX5, [rng.randrange(125) for _ in range(5)])
        den = TruncatedSeries.from_coeffs(CTX5, [1] + [5 * rng.randrange(25) for _ in range(2)])
        q = SeriesQuotient(num, den, reduced=True)
        lhs = evaluate_quotient(substitute_twist(q, z), CTX5.zero())
        rhs = evaluate_quotient(q, z - 1)
        assert lhs.equals(rhs)


def test_substitute_twist_rejects_non_roots():
    q = SeriesQuotient(TruncatedSeries.one(CTX3), TruncatedSeries.one(CTX3), reduced=True)
    with pytest.raises(ValueError):
        substitute_twist(q, CTX3.make(2))


def test_interpolate_recovers_variable():
    pts = [make_root_of_unity(CTX3, 3**k, 1) - 1 for k in (1, 2)] + [CTX3.make(3), CTX3.make(6), CTX3.make(9)]
    vals = list(pts)
    res = interpolate_uniqueness(CTX3, pts, vals, 2)
    assert res is not None
    assert len(res.num) == 2 and res.num[0].is_exact_zero()
    assert len(res.den) == 1
    # T / 1 after normalisation
    assert res.num[1].equals(res.den[0])


def test_interpolate_constant():
    pts = [CTX3.make(3 * k) for k in (1, 2, 3)]
    vals = [CTX3.make(7)] * 3
    res = interpolate_uniqueness(CTX3, pts, vals, 1)
    assert res is not None
    assert len(res.num) == 1 and res.num[0].equals(CTX3.make(7))


def test_interpolate_detects_inconsistency():
    # data mixing T and T + 3 on five points cannot come from a degree-1 quotient
    pts = [CTX3.make(3 * k) for k in (1, 2, 3, 4, 5)]
    vals = [pts[0], pts[1] + 3, pts[2], pts[3] + 3, pts[4]]
    assert interpolate_uniqueness(CTX3, pts, vals, 1) is None


def test_interpolate_requires_enough_points():
    with pytest.raises(ValueError):
        interpolate_uniqueness(CTX3, [CTX3.make(3)], [CTX3.make(3)], 2)


@pytest.mark.parametrize("p, cap_n, cap_d", [(7, 20, 40), (3, 10, 8)])
def test_quotient_reduction_skips_when_omega_2_does_not_fit(p, cap_n, cap_d):
    ctx = PrecisionContext(p=p, cap_N=cap_n, cap_D=cap_d)
    with pytest.raises(SkipCheck):
        check_quotient_reduction(ctx, random.Random(0))


def test_quotient_reduction_runs_once_omega_2_fits():
    ctx = PrecisionContext(p=3, cap_N=10, cap_D=10)
    assert check_quotient_reduction(ctx, random.Random(0)) == {"count": 25}
