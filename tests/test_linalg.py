"""Exact linear algebra over Q(zeta_m): a nonzero scalar is invertible,
whatever the splitting of Phi_m over Q_p."""

import random
from itertools import permutations

import pytest

from iwlab import linalg
from iwlab.padic import CycloPadic, PrecisionContext, _algebra_norm, make_root_of_unity
from iwlab._intpoly import euler_phi

# conductors up to 64; Phi_7 splits over Q_2 into two cubics and Phi_3 splits
# completely over Q_7, so the p-adic algebra has zero divisors there
CASES = [(2, m) for m in (1, 3, 4, 7, 9, 12, 15, 16, 21, 64)]
CASES += [(3, m) for m in (3, 5, 9, 20, 36)] + [(7, m) for m in (3, 6, 7, 9, 19, 49)]


def _random_scalar(rng, ctx, m):
    nums = [rng.randint(-5, 5) for _ in range(euler_phi(m))]
    return CycloPadic(ctx, m, nums, ctx.cap_N, rng.choice((1, 2, 3, 9, 14)))


@pytest.mark.parametrize("p, m", CASES, ids=[f"p{p}-m{m}" for p, m in CASES])
def test_nonzero_scalars_are_invertible(p, m):
    rng = random.Random(f"field:{p}:{m}")
    ctx = PrecisionContext(p=p, cap_N=10, cap_D=10)
    one = (1,) + (0,) * (euler_phi(m) - 1)
    done = 0
    while done < 12:
        x = _random_scalar(rng, ctx, m)
        if x.is_exact_zero():
            continue
        assert linalg.is_invertible(x) == (_algebra_norm(x.nums, x.m) != 0)
        y = x * linalg.exact_inverse(x)
        assert (y.m, y.nums, y.den) == (m, one, 1)
        done += 1
    zero = ctx.make(0)
    assert not linalg.is_invertible(zero)
    with pytest.raises(ZeroDivisionError):
        linalg.exact_inverse(zero)


def test_split_prime_unit_times_non_unit_is_invertible():
    # at p=7, 2 is a cube root of unity mod 7: zeta_3 - 2 has valuation 1 at
    # one place above 7 and 0 at the other, yet it is invertible in Q(zeta_3)
    ctx = PrecisionContext(p=7, cap_N=8, cap_D=8)
    x = make_root_of_unity(ctx, 3, 1) - 2
    assert linalg.is_invertible(x) and _algebra_norm(x.nums, x.m) == 7
    y = x * linalg.exact_inverse(x)
    assert (y.nums, y.den) == ((1, 0), 1)


def test_det_matches_leibniz_expansion():
    rng = random.Random("det")
    ctx = PrecisionContext(p=7, cap_N=12, cap_D=8)
    for n in range(1, 5):
        for _ in range(4):
            mat = [[_random_scalar(rng, ctx, 3) if rng.random() < 0.7 else ctx.make(0) for _ in range(n)] for _ in range(n)]
            want = ctx.make(0)
            for perm in permutations(range(n)):
                sign = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
                term = ctx.make(sign)
                for i in range(n):
                    term = term * mat[i][perm[i]]
                want = want + term
            assert (linalg.det(mat, ctx) - want).is_exact_zero()


def _scalar_mat_mul(a, b):
    """The CycloPadic loop acc = acc + a[i][t] * b[t][j] that `mat_mul`
    replaced, kept as its reference."""
    out = []
    for row in a:
        out_row = []
        for j in range(len(b[0])):
            acc = row[0] * b[0][j]
            for t in range(1, len(b)):
                acc = acc + row[t] * b[t][j]
            out_row.append(acc)
        out.append(out_row)
    return out


def _random_matrix(rng, ctx, rows, cols, conductors):
    """Entries of conductors drawn from `conductors`, a fifth of them exact
    zeros, with p-free or p-power denominators, numerators often divisible by
    p, and precisions at or below cap_N."""
    p = ctx.p
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            m = rng.choice(conductors)
            prec = ctx.cap_N - rng.choice((0, 0, 0, 1, 3))
            if rng.random() < 0.2:
                row.append(CycloPadic(ctx, m, (0,) * euler_phi(m), prec, 1))
                continue
            scale = p ** rng.choice((0, 0, 1, 2))
            nums = [scale * rng.randint(-9, 9) for _ in range(euler_phi(m))]
            den = rng.choice((1, 1, 2, 5, 7)) * p ** rng.choice((0, 0, 1, 2))
            row.append(CycloPadic(ctx, m, nums, prec, den))
        out.append(row)
    return out


def _entries(mat):
    return [(x.m, tuple(x.nums), x.den, x.prec) for row in mat for x in row]


def test_mat_mul_reproduces_the_scalar_loop():
    rng = random.Random("mat-mul")
    mixed = zeros = p_dens = short = 0
    for k in range(3000):
        p = (2, 3, 5, 7)[k % 4]
        ctx = PrecisionContext(p=p, cap_N=rng.randint(2, 10), cap_D=8)
        pool = sorted({1, 3, 4, 9, 12, p, 2 * p})
        n, inner, m = (rng.randint(1, 4) for _ in range(3))
        a = _random_matrix(rng, ctx, n, inner, rng.sample(pool, rng.randint(1, 3)))
        b = _random_matrix(rng, ctx, inner, m, rng.sample(pool, rng.randint(1, 3)))
        got = _entries(linalg.mat_mul(a, b))
        assert got == _entries(_scalar_mat_mul(a, b))
        mixed += len({x.m for row in a + b for x in row}) > 1
        zeros += sum(not any(nums) for _, nums, _, _ in got)
        p_dens += sum(den % p == 0 for _, _, den, _ in got)
        short += sum(prec < ctx.cap_N for *_, prec in got)
    # most products mix conductors; exact zeros, p-power denominators and
    # precisions below cap_N all occur among the 18k entries
    assert mixed > 2500 and zeros > 1000 and p_dens > 5000 and short > 10000


def test_mat_mul_refuses_an_empty_inner_dimension():
    with pytest.raises(ValueError):
        linalg.mat_mul([[], []], [])
