import json
import random
from fractions import Fraction
from math import gcd

import pytest

from iwlab._intpoly import euler_phi
from iwlab.padic import (
    CycloPadic,
    DenominatorOverflow,
    PrecisionContext,
    PrecisionError,
    galois_apply,
    make_root_of_unity,
    valuation,
)


CTX3 = PrecisionContext(p=3, cap_N=20, cap_D=40)
CTX5 = PrecisionContext(p=5, cap_N=20, cap_D=40)


def rand_value(ctx, rng, m=1, span=50):
    coeffs = [Fraction(rng.randint(-span, span)) for _ in range(len(make_root_of_unity(ctx, m, 1).coeffs))] if m > 2 else [Fraction(rng.randint(-span, span))]
    x = ctx.zero()
    zeta = make_root_of_unity(ctx, m, 1)
    for i, c in enumerate(coeffs):
        x = x + ctx.make(c) * zeta**i
    return x


def test_root_of_unity_identity_case():
    one = make_root_of_unity(CTX3, 1, 0)
    assert one.equals(CTX3.one())


def test_root_of_unity_i_squares_to_minus_one():
    i = make_root_of_unity(CTX5, 4, 1)
    assert (i * i).equals(CTX5.make(-1))
    assert (i**4).equals(CTX5.one())


def test_conductor_normalisation_of_powers():
    # zeta_9^3 has order 3, so it is constructed with conductor 3
    a = make_root_of_unity(CTX5, 9, 3)
    b = make_root_of_unity(CTX5, 3, 1)
    assert a.m == 3
    assert a.equals(b)
    # minimal polynomial check: x^2 + x + 1 = 0
    assert (a * a + a + 1).equals(CTX5.zero())


def test_root_of_unity_rejects_zero_order():
    with pytest.raises(ValueError):
        make_root_of_unity(CTX3, 0, 1)


def test_valuation_normalisation():
    assert valuation(CTX3.make(3)) == 1
    assert valuation(CTX3.make(18)) == 2
    assert valuation(CTX5.make(Fraction(1, 5))) == -1
    assert valuation(CTX5.make(7)) == 0


def test_valuation_of_zeta_p_minus_one():
    # v(zeta_p - 1) = 1/(p-1)
    z = make_root_of_unity(CTX5, 5, 1)
    assert valuation(z - 1) == Fraction(1, 4)
    # v(zeta_{p^2} - 1) = 1/(p(p-1)): p = 3 gives 1/6
    z9 = make_root_of_unity(CTX3, 9, 1)
    assert valuation(z9 - 1) == Fraction(1, 6)


def test_valuation_sentinel_for_zero():
    assert valuation(CTX3.zero()) is None
    tiny = CTX3.make(3**25)  # beyond cap_N = 20
    assert valuation(tiny) is None


def test_valuation_multiplicative_on_pure_elements():
    z = make_root_of_unity(CTX3, 9, 1)
    pi = z - 1
    x = pi * pi * 3
    assert valuation(x) == Fraction(2, 6) + 1


def test_galois_defining_action():
    z = make_root_of_unity(CTX3, 5, 1)
    assert galois_apply(2, z).equals(z * z)
    assert galois_apply(1, z).equals(z)


def test_galois_rejects_non_coprime():
    z = make_root_of_unity(CTX3, 6, 1)
    with pytest.raises(ValueError):
        galois_apply(2, z)


def test_galois_is_ring_automorphism():
    rng = random.Random(7)
    for _ in range(100):
        m = rng.choice([4, 5, 8, 9, 12])
        a = rng.choice([a for a in range(1, m) if __import__("math").gcd(a, m) == 1])
        x = rand_value(CTX3, rng, m=m, span=9)
        y = rand_value(CTX3, rng, m=m, span=9)
        assert galois_apply(a, x * y).equals(galois_apply(a, x) * galois_apply(a, y))
        assert galois_apply(a, x + y).equals(galois_apply(a, x) + galois_apply(a, y))


def test_galois_composition_law():
    z = make_root_of_unity(CTX3, 8, 1)
    x = z + 2 * z**2 - 1
    lhs = galois_apply(3, galois_apply(5, x))
    rhs = galois_apply(15 % 8, x)
    assert lhs.equals(rhs)


def test_field_axioms_random():
    rng = random.Random(11)
    for _ in range(50):
        m = rng.choice([1, 3, 4, 5])
        x = rand_value(CTX5, rng, m=m, span=20)
        y = rand_value(CTX5, rng, m=m, span=20)
        z = rand_value(CTX5, rng, m=m, span=20)
        assert ((x + y) + z).equals(x + (y + z))
        assert (x * (y + z)).equals(x * y + x * z)
        # inversion contract applies only when the valuation is finite and known
        # (impure elements of a split algebra are refused, which is the point)
        try:
            inv = x.inverse()
        except (PrecisionError, ZeroDivisionError):
            continue
        assert (x * inv).equals(CTX5.one())


def test_ultrametric_inequality():
    rng = random.Random(13)
    for _ in range(50):
        x = CTX3.make(rng.randint(-200, 200))
        y = CTX3.make(rng.randint(-200, 200))
        if x.is_exact_zero() or y.is_exact_zero() or (x + y).is_exact_zero():
            continue
        vx, vy, vs = x.valuation(), y.valuation(), (x + y).valuation()
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)
        assert (x * y).valuation() == vx + vy


def test_embed_project_round_trip():
    rng = random.Random(17)
    for _ in range(20):
        x = rand_value(CTX3, rng, m=5, span=10)
        big = x.embed(20)
        assert big.m == 20
        back = big.project(5)
        assert back.equals(x)
        assert back.m == 5
    # a new prime in the conductor, and denominators with and without p
    for small, big_m in [(5, 20), (3, 12), (9, 36), (1, 7), (4, 12), (2, 6), (3, 15)]:
        for den in (1, 2, 3, 9, 14):
            nums = [rng.randint(-10, 10) for _ in range(euler_phi(small))]
            x = CycloPadic(CTX3, small, nums, 12, den)
            back = x.embed(big_m).project(small)
            assert (back.m, back.nums, back.den, back.prec) == (small, x.nums, x.den, 12)


def test_project_detects_foreign_values():
    for small, big_m in [(5, 20), (3, 12), (9, 36), (1, 7), (4, 12)]:
        with pytest.raises(ValueError):
            make_root_of_unity(CTX3, big_m, 1).project(small)


def test_equality_is_mod_p_to_prec():
    a = CTX3.make(1)
    b = CTX3.make(1 + 3**20)
    assert a.equals(b)
    c = CTX3.make(1 + 3**19)
    assert not a.equals(c)


def test_reduce_mod_canonical_representative():
    x = CTX3.make(Fraction(1, 2))  # 1/2 is a 3-adic integer
    r = x.reduce_mod(5)
    assert r.coeffs[0].denominator == 1
    assert (2 * r).equals(CTX3.make(1))


def test_denominator_budget_enforced():
    ctx = PrecisionContext(p=3, cap_N=10, cap_D=10, max_den_exp=4)
    with pytest.raises(DenominatorOverflow):
        ctx.make(Fraction(1, 3**5))


def test_inverse_requires_certifiable_valuation():
    tiny = CTX3.make(3**25)
    with pytest.raises(PrecisionError):
        tiny.inverse()


def test_inverse_precision_drops_with_valuation():
    x = CTX3.make(9)
    inv = x.inverse()
    assert inv.equals(CTX3.make(Fraction(1, 9)))
    assert inv.prec == CTX3.cap_N - 4


def test_unit_detection():
    assert CTX3.make(2).is_unit()
    assert not CTX3.make(3).is_unit()
    z = make_root_of_unity(CTX3, 9, 1)
    assert z.is_unit()
    assert not (z - 1).is_unit()


# -- integer-coordinate representation against a Fraction reference ------------
#
# The reference below works on plain lists of Fractions (power-basis
# coordinates) and shares no code with iwlab.padic.


def _ref_polydiv_exact(f, g):
    """f / g for integer polynomials, g monic, the division exact."""
    f = list(f)
    q = [0] * (len(f) - len(g) + 1)
    for i in range(len(f) - 1, len(g) - 2, -1):
        c = f[i]
        q[i - len(g) + 1] = c
        for j, gj in enumerate(g):
            f[i - len(g) + 1 + j] -= c * gj
    assert not any(f)
    return q


_REF_PHI = {}


def _ref_phi_poly(m):
    """Phi_m, lowest degree first, from x^m - 1 = prod_{d | m} Phi_d."""
    if m not in _REF_PHI:
        f = [-1] + [0] * (m - 1) + [1]
        for d in range(1, m):
            if m % d == 0:
                f = _ref_polydiv_exact(f, _ref_phi_poly(d))
        _REF_PHI[m] = f
    return _REF_PHI[m]


def _ref_reduce(poly, m):
    phi = _ref_phi_poly(m)
    deg = len(phi) - 1
    r = [Fraction(c) for c in poly] + [Fraction(0)] * max(0, deg - len(poly))
    for i in range(len(r) - 1, deg - 1, -1):
        c = r[i]
        for j in range(deg + 1):
            r[i - deg + j] -= c * phi[j]
    return r[:deg]


def _ref_mul(a, b, m):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_reduce(out, m)


def _ref_embed(a, m, big):
    acc = [Fraction(0)] * big
    for i, c in enumerate(a):
        acc[i * (big // m)] += c
    return _ref_reduce(acc, big)


def _ref_vp(q, p):
    if q == 0:
        return None
    v, n, d = 0, q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _ref_floor(a, p):
    return min(_ref_vp(c, p) for c in a if c != 0)


def _ref_integral(a, p):
    return all(c.denominator % p != 0 for c in a)


def _ref_reduce_mod(a, p, n):
    out = []
    for c in a:
        k, rest = 0, c.denominator
        while rest % p == 0:
            rest //= p
            k += 1
        mod = p ** (n + k)
        out.append(Fraction(c.numerator * pow(rest, -1, mod) % mod, p**k))
    return out


def _ref_mul_matrix(a, m):
    """Rows of the matrix of multiplication by a on the power basis."""
    deg = len(a)
    cols = []
    for j in range(deg):
        cols.append(_ref_reduce([Fraction(0)] * j + list(a), m))
    return [[cols[j][i] for j in range(deg)] for i in range(deg)]


def _ref_solve(rows, rhs):
    """Gauss-Jordan over Q for a nonsingular square system."""
    n = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        aug[c] = [x / aug[c][c] for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [aug[i][n] for i in range(n)]


def _ref_det(rows):
    n = len(rows)
    a = [list(r) for r in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def _ref_min_valuation(a, m, p):
    """t + j/e: x = p^t y with y integral and not in pO, and j the largest
    j < e with y / pi^j integral, pi = 1 - zeta_{p^k}, e = phi(p^k)."""
    if all(c == 0 for c in a):
        return None
    t = _ref_floor(a, p)
    y = [c / Fraction(p) ** t for c in a]
    pk = 1
    while m % (pk * p) == 0:
        pk *= p
    e = len(_ref_phi_poly(pk)) - 1
    j = 0
    if e > 1:
        pi = [Fraction(0)] * m
        pi[0] += 1
        pi[m // pk] -= 1
        pi = _ref_reduce(pi, m)
        one = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
        pi_inv = _ref_solve(_ref_mul_matrix(pi, m), one)
        while j < e - 1:
            z = _ref_mul(y, pi_inv, m)
            if not _ref_integral(z, p):
                break
            y, j = z, j + 1
    return t + Fraction(j, e)


# (p, m) with Phi_m irreducible over Q_p: there min_valuation = v_p(norm) / phi(m)
_FIELDS = {(2, 3), (2, 4), (2, 9), (2, 12), (2, 27), (3, 3), (3, 4), (3, 9), (3, 12), (3, 27), (5, 3), (5, 9), (5, 27)}


def _rand_coeffs(rng, p, m):
    """Fractions whose denominators mix powers of p with a prime other than p."""
    q = 3 if p == 2 else 2
    deg = len(_ref_phi_poly(m)) - 1
    out = []
    for _ in range(deg):
        if rng.random() < 0.2:
            out.append(Fraction(0))
            continue
        num = rng.randint(-(p**6), p**6) * p ** rng.choice([0, 0, 1, 3])
        den = p ** rng.choice([0, 0, 1, 2]) * q ** rng.choice([0, 0, 1])
        out.append(Fraction(num, den))
    return out


def _check_representation(x, ref):
    assert x.coeffs == tuple(ref)
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert all(type(c) is int for c in x.nums)


def test_integer_coordinates_match_fraction_reference():
    rng = random.Random(2024)
    for p in (2, 3, 5):
        ctx = PrecisionContext(p=p, cap_N=20, cap_D=8)
        for m in (1, 2, 3, 4, 9, 12, 27):
            for _ in range(6):
                ra, rb = _rand_coeffs(rng, p, m), _rand_coeffs(rng, p, m)
                pa, pb = rng.randint(1, 20), rng.randint(1, 20)
                a = CycloPadic(ctx, m, ra, pa)
                b = CycloPadic(ctx, m, rb, pb)
                _check_representation(a, ra)
                _check_representation(a + b, [x + y for x, y in zip(ra, rb)])
                _check_representation(a - b, [x - y for x, y in zip(ra, rb)])
                _check_representation(-a, [-x for x in ra])
                assert (a + b).prec == (a - b).prec == min(pa, pb)
                prod = a * b
                _check_representation(prod, _ref_mul(ra, rb, m))
                if any(ra) and any(rb):
                    fa, fb = _ref_floor(ra, p), _ref_floor(rb, p)
                    assert prod.prec == min(pa + fb, pb + fa, pa + pb)
                big = m * rng.choice([2, 3])
                _check_representation(a.embed(big), _ref_embed(ra, m, big))
                # a rational scalar meets a value of conductor m
                r = Fraction(rng.randint(-50, 50), rng.choice([1, p, 2 * p, 7]))
                rs = ctx.make(r)
                _check_representation(a * r, [x * r for x in ra])
                _check_representation(rs + a, [ra[0] + r] + ra[1:])
                n = rng.randint(1, pa)
                _check_representation(a.reduce_mod(n), _ref_reduce_mod(ra, p, n))
                assert a.reduce_mod(n).prec == n
                assert a.is_integral() == _ref_integral(ra, p)
                assert a.is_exact_zero() == (not any(ra))
                if any(ra):
                    assert a.coeff_floor() == _ref_floor(ra, p)
                v = a.min_valuation()
                assert v == _ref_min_valuation(ra, m, p)
                if any(ra) and ((p, m) in _FIELDS or m <= 2):
                    norm = _ref_det(_ref_mul_matrix(ra, m))
                    assert v * len(ra) == _ref_vp(norm, p)
                # equality is a congruence at the joint precision
                k = rng.randint(0, 22)
                rc = [x + p**k * y for x, y in zip(ra, _rand_coeffs(rng, p, m))]
                c = CycloPadic(ctx, m, rc, rng.randint(1, 20))
                diff = [x - y for x, y in zip(ra, rc)]
                vd = _ref_min_valuation(diff, m, p)
                assert a.equals(c) == (vd is None or vd >= min(a.prec, c.prec))


def test_exact_zero_has_unit_denominator():
    for m in (1, 4, 9):
        deg = len(_ref_phi_poly(m)) - 1
        x = CycloPadic(CTX3, m, [Fraction(5, 6)] * deg, 10)
        zero = x - x
        assert zero.is_exact_zero()
        assert zero.den == 1 and zero.nums == (0,) * deg
        assert CycloPadic(CTX3, m, [Fraction(0, 7)] * deg, 5).den == 1
    assert CTX3.zero().den == 1


def test_denominator_overflow_on_the_p_part_of_the_denominator():
    ctx = PrecisionContext(p=3, cap_N=10, cap_D=10, max_den_exp=8)
    assert ctx.make(Fraction(1, 3**8)).den == 3**8
    assert ctx.make(Fraction(1, 2**40 * 3**8)).den == 2**40 * 3**8  # only the p-part counts
    with pytest.raises(DenominatorOverflow):
        ctx.make(Fraction(1, 3**9))
    with pytest.raises(DenominatorOverflow):
        CycloPadic(ctx, 9, [Fraction(1, 2 * 3**9)] + [0] * 5, 10)
    x = ctx.make(Fraction(1, 3**5))
    with pytest.raises(DenominatorOverflow):
        x * x


def test_scalar_json_round_trip_is_byte_identical():
    from iwlab.serialize import scalar_from_json, scalar_to_json

    rng = random.Random(99)
    for p in (2, 3, 5):
        ctx = PrecisionContext(p=p, cap_N=12, cap_D=8)
        for m in (1, 3, 4, 9, 12):
            ra = _rand_coeffs(rng, p, m)
            x = CycloPadic(ctx, m, ra, rng.randint(1, 12))
            doc = scalar_to_json(x)
            expect = [[c.numerator, -min(_ref_vp(c, p) or 0, 0)] for c in _ref_reduce_mod(ra, p, x.prec)]
            assert doc["coeffs"] == expect
            text = json.dumps(doc, sort_keys=True)
            assert json.dumps(scalar_to_json(scalar_from_json(ctx, json.loads(text))), sort_keys=True) == text
