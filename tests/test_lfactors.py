import random

import pytest

from iwlab import linalg
from iwlab.characters import character_table
from iwlab.groups import SubgroupDesc, cyclic_group, symmetric_group
from iwlab.lfactors import LocalDatum, direct_sum_local, euler_delta_at0, order_of_vanishing
from iwlab.padic import PrecisionContext, make_root_of_unity

CTX = PrecisionContext(p=3, cap_N=16, cap_D=10)


def rand_local_datum(ctx, rng, max_dim=3):
    """Finite-order frobenius: a permutation matrix times diagonal roots of unity,
    conjugated by a random unimodular integer matrix."""
    dim = rng.randint(1, max_dim)
    perm = list(range(dim))
    rng.shuffle(perm)
    zero, one = ctx.zero(), ctx.one()
    base = [[zero] * dim for _ in range(dim)]
    for j in range(dim):
        order = rng.choice([1, 2, 3, 4])
        base[perm[j]][j] = make_root_of_unity(ctx, order, rng.randrange(order)) if order > 1 else one
    # unimodular conjugation keeps determinants and orders
    u = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
    for _ in range(dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i != j:
            c = ctx.make(rng.randint(-2, 2))
            for k in range(dim):
                u[i][k] = u[i][k] + c * u[j][k]
    mat = linalg.mat_mul(linalg.mat_mul(u, base), linalg.mat_inverse(u, ctx))
    return LocalDatum(ctx, tuple(tuple(r) for r in mat), rng.choice([2, 4, 5, 7]))


def test_one_dimensional_identity_frobenius():
    q = 4
    d = LocalDatum(CTX, ((CTX.one(),),), q)
    inv_l0, delta0 = euler_delta_at0(d)
    assert inv_l0.equals(CTX.zero())
    assert delta0.equals(CTX.make(1 - q))


def test_empty_invariants():
    d = LocalDatum(CTX, (), 4)
    inv_l0, delta0 = euler_delta_at0(d)
    assert inv_l0.equals(CTX.one()) and delta0.equals(CTX.one())


def test_block_multiplicativity():
    rng = random.Random(21)
    for _ in range(20):
        a = rand_local_datum(CTX, rng)
        b = LocalDatum(CTX, rand_local_datum(CTX, rng).frobenius, a.norm)
        s = direct_sum_local(a, b)
        la, da = euler_delta_at0(a)
        lb, db = euler_delta_at0(b)
        ls, ds = euler_delta_at0(s)
        assert ls.equals(la * lb)
        assert ds.equals(da * db)


def test_delta_never_vanishes_randomized():
    rng = random.Random(22)
    for _ in range(60):
        d = rand_local_datum(CTX, rng)
        _, delta0 = euler_delta_at0(d)
        assert linalg.is_invertible(delta0)


def test_conjugation_invariance():
    rng = random.Random(23)
    z = make_root_of_unity(CTX, 3, 1)
    base = ((z, CTX.zero()), (CTX.zero(), z * z))
    d1 = LocalDatum(CTX, base, 4)
    one, zero = CTX.one(), CTX.zero()
    u = [[one, CTX.make(2)], [zero, one]]
    mat = linalg.mat_mul(linalg.mat_mul(u, [list(r) for r in base]), linalg.mat_inverse(u, CTX))
    d2 = LocalDatum(CTX, tuple(tuple(r) for r in mat), 4)
    assert euler_delta_at0(d1)[0].equals(euler_delta_at0(d2)[0])
    assert euler_delta_at0(d1)[1].equals(euler_delta_at0(d2)[1])


def test_infinite_order_rejected():
    with pytest.raises(ValueError):
        LocalDatum(CTX, ((CTX.make(2),),), 4, order_bound=16)


def test_order_of_vanishing_trivial_character():
    g = symmetric_group(3)
    table = character_table(g, CTX)
    triv = next(ch for ch in table if all(v.equals(CTX.one()) for v in ch.values))
    full = g.subgroup(range(g.n))
    places = [full, full, full]
    r, cross = order_of_vanishing(triv, places)
    assert r == cross == len(places) - 1


def test_order_of_vanishing_no_fixed_vectors():
    g = symmetric_group(3)
    table = character_table(g, CTX)
    two = next(ch for ch in table if ch.degree_int() == 2)
    full = g.subgroup(range(g.n))
    r, cross = order_of_vanishing(two, [full])
    assert r == cross == 0


def test_order_of_vanishing_s3_mixed_places():
    g = symmetric_group(3)
    table = character_table(g, CTX)
    two = next(ch for ch in table if ch.degree_int() == 2)
    c2 = next(s for s in g.subgroup_classes if len(s) == 2)
    c3 = next(s for s in g.subgroup_classes if len(s) == 3)
    places = [g.subgroup(c2), g.subgroup(c3)]
    r, cross = order_of_vanishing(two, places)
    assert r == cross  # both formulas agree; value fixed by the fixed-space dims
    assert r == 1  # dim V^(C2) = 1, dim V^(C3) = 0, dim V^G = 0


def test_order_of_vanishing_random_agreement():
    rng = random.Random(24)
    for g in (symmetric_group(3), cyclic_group(6), symmetric_group(4)):
        table = character_table(g, CTX)
        subs = [g.subgroup(s) for s in g.subgroup_classes]
        for _ in range(10):
            chi = rng.choice(table)
            places = [rng.choice(subs) for _ in range(rng.randint(1, 3))]
            r, cross = order_of_vanishing(chi, places)
            assert r == cross >= 0 or chi.degree_int() == 0


def test_direct_sum_order_is_the_lcm_of_orders():
    # orders 3 and 4 under bounds of 4 each: the sum has order 12, which its
    # constructor must certify
    a = LocalDatum(CTX, ((make_root_of_unity(CTX, 3, 1),),), 7, order_bound=4)
    b = LocalDatum(CTX, ((make_root_of_unity(CTX, 4, 1),),), 7, order_bound=4)
    assert direct_sum_local(a, b).dim == 2


def test_euler_suite_seed_2_passes():
    from iwlab.report import SuiteConfig
    from iwlab.suites import run_suite

    report = run_suite(SuiteConfig("euler", 3, 20, 40, 2, None, 1))
    assert {r.status for r in report.records} <= {"pass", "skip"}
