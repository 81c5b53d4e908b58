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
