import random

import pytest

from iwlab.characters import character_table, algebra_one
from iwlab.groups import FiniteGroup, cyclic_group, dicyclic_group, semidirect_product, symmetric_group
from iwlab.padic import PrecisionContext, make_root_of_unity
from iwlab.series import (
    INFINITY,
    SeriesQuotient,
    TruncatedSeries,
    evaluate_quotient,
    reduce_quotient,
    substitute_twist,
)
from iwlab.tower import (
    ArtinCharacter,
    AttestedTower,
    PlaceDatum,
    SplitTower,
    TypeWCharacter,
    coinvariant_kernel_order,
    e_chi,
    galois_transport,
    n_of_s,
    twisted_evaluate,
    uniqueness_from_twists,
    w_chi,
    w_equivalent,
    xy_modules,
)

CTX = PrecisionContext(p=3, cap_N=12, cap_D=10)
CTX2 = PrecisionContext(p=2, cap_N=12, cap_D=10)


def c7_c9_tower(ctx=CTX):
    """Central extension with gamma-conjugation permuting restriction constituents."""
    c7, c9 = cyclic_group(7), cyclic_group(9)
    action = [[(x * pow(2, b, 7)) % 7 for x in range(7)] for b in range(9)]
    g = semidirect_product(c7, c9, action, name="C7:C9")
    h = frozenset(a * 9 for a in range(7))
    return AttestedTower(ctx, g, gamma=3, h_elements=h, n_max=1)


def dic3_tower(ctx=CTX2):
    g = dicyclic_group(3)
    h = frozenset([0, 2, 4])
    return AttestedTower(ctx, g, gamma=3, h_elements=h, n_max=1)


def artin_chars(tower, n):
    lv = tower.level(n)
    return [ArtinCharacter(tower, n, ch) for ch in character_table(lv.group, tower.ctx)]


def test_split_levels_and_projection():
    t = SplitTower(CTX, cyclic_group(2), n_max=2)
    g2 = t.level(2).group
    assert g2.n == 18
    proj = t.project_map(2, 1)
    g1 = t.level(1).group
    assert len(proj) == 18 and all(0 <= x < g1.n for x in proj)
    # gamma projects to gamma
    assert proj[t.level(2).gamma] == t.level(1).gamma


def test_attested_validation():
    g = dicyclic_group(3)
    with pytest.raises(ValueError):
        AttestedTower(CTX2, g, gamma=1, h_elements=frozenset([0, 2, 4]), n_max=1)  # a has order 6
    with pytest.raises(ValueError):
        AttestedTower(CTX2, g, gamma=3, h_elements=frozenset([0, 3]), n_max=1)  # meets <gamma>


def test_w_chi_trivial_and_abelian():
    t = SplitTower(CTX, cyclic_group(2), n_max=1)
    for chi in artin_chars(t, 1):
        assert w_chi(t, chi) == 1


def test_w_chi_split_nonabelian_is_one():
    t = SplitTower(CTX, symmetric_group(3), n_max=1)
    for chi in artin_chars(t, 1):
        assert w_chi(t, chi) == 1


def test_w_chi_attested_extension_is_p():
    t = c7_c9_tower()
    chars = artin_chars(t, 1)
    three = [c for c in chars if c.char.degree_int() == 3]
    assert three, "C7:C9 must have degree-3 characters"
    for chi in three:
        assert w_chi(t, chi) == 3
    ones = [c for c in chars if c.char.degree_int() == 1]
    for chi in ones:
        assert w_chi(t, chi) == 1


def test_w_chi_dic3():
    t = dic3_tower()
    chars = artin_chars(t, 1)
    twos = [c for c in chars if c.char.degree_int() == 2]
    assert twos
    # the faithful 2-dim characters restrict to eta + eta^-1 on C_3 and are
    # permuted by the reflection part; w = 2 exactly for those with
    # irrational restriction behaviour
    ws = sorted(w_chi(t, c) for c in twos)
    assert 2 in ws


def test_e_chi_trivial_h():
    t = SplitTower(CTX, cyclic_group(1), n_max=1)
    chars = artin_chars(t, 1)
    for chi in chars:
        e = e_chi(t, chi)
        assert e.coeffs[0].equals(CTX.one())
    for a in chars:
        for b in chars:
            assert w_equivalent(t, a, b)


def test_e_chi_c2_split():
    t = SplitTower(CTX, cyclic_group(2), n_max=1)
    chars = artin_chars(t, 1)
    groups = {}
    for chi in chars:
        key = tuple(str(v.coeffs) for v in (e_chi(t, chi).coeffs))
        groups.setdefault(key, []).append(chi)
    # two W-classes: trivial and sign H-part
    assert len(groups) == 2
    for cls in groups.values():
        for a in cls:
            for b in cls:
                assert w_equivalent(t, a, b)
    (g1, g2) = groups.values()
    assert not w_equivalent(t, g1[0], g2[0])
    # orthogonality and completeness of the distinct e_chi
    e1 = e_chi(t, g1[0])
    e2 = e_chi(t, g2[0])
    prod = e1 * e2
    assert all(c.equals(CTX.zero()) for c in prod.coeffs)
    total = e1 + e2
    assert total.equals(algebra_one(e1.group, CTX))


def test_e_chi_idempotent_attested():
    t = c7_c9_tower()
    chars = artin_chars(t, 1)
    three = next(c for c in chars if c.char.degree_int() == 3)
    e = e_chi(t, three)
    assert (e * e).equals(e)
    assert e.is_central()


def test_twisted_evaluate_variable():
    t = SplitTower(CTX, cyclic_group(1), n_max=2)
    chi = artin_chars(t, 1)[0]
    q = SeriesQuotient(TruncatedSeries.variable(CTX), TruncatedSeries.one(CTX), reduced=True)
    z = make_root_of_unity(CTX, 3, 1)
    rho = TypeWCharacter(z)
    assert twisted_evaluate(t, q, chi, rho).equals(z - 1)
    # trivial twist is evaluation at zero
    rho0 = TypeWCharacter(CTX.one())
    assert twisted_evaluate(t, q, chi, rho0).equals(CTX.zero())


def test_twisted_evaluate_matches_substitution():
    rng = random.Random(8)
    t = SplitTower(CTX, cyclic_group(2), n_max=2)
    chi = artin_chars(t, 1)[0]
    w = w_chi(t, chi)
    for _ in range(25):
        num = TruncatedSeries.from_coeffs(CTX, [rng.randrange(3**6) for _ in range(4)])
        den = TruncatedSeries.from_coeffs(CTX, [1] + [3 * rng.randrange(9) for _ in range(2)])
        q = SeriesQuotient(num, den, reduced=True)
        rho = TypeWCharacter(make_root_of_unity(CTX, 9, rng.randint(1, 8)))
        lhs = twisted_evaluate(t, q, chi, rho)
        rhs = evaluate_quotient(substitute_twist(q, rho.value**w), CTX.zero())
        assert lhs.equals(rhs)


def test_uniqueness_from_twists():
    t = SplitTower(CTX, cyclic_group(1), n_max=2)
    chi = artin_chars(t, 1)[0]
    rhos = [TypeWCharacter(make_root_of_unity(CTX, 9, j)) for j in (1, 2, 4, 5, 7)]
    tvar = TruncatedSeries.variable(CTX)
    one = TruncatedSeries.one(CTX)
    q = SeriesQuotient(tvar, one, reduced=True)
    assert uniqueness_from_twists(t, q, q, chi, rhos, degree_bound=2)
    # differ in one coefficient: some twist witnesses the difference
    q2 = SeriesQuotient(tvar + one, one, reduced=True)
    assert not uniqueness_from_twists(t, q2, q, chi, rhos, degree_bound=2)
    # reduction does not change the quotient
    q3 = reduce_quotient(tvar * tvar, tvar)
    assert uniqueness_from_twists(t, q3, q, chi, rhos, degree_bound=2)


def test_galois_transport_identity_and_rational():
    t = SplitTower(CTX, cyclic_group(2), n_max=1)
    chi = artin_chars(t, 1)[1]
    q = SeriesQuotient(
        TruncatedSeries.from_coeffs(CTX, [2, 5]), TruncatedSeries.one(CTX), reduced=True
    )
    q1, chi1 = galois_transport(1, q, chi)
    assert q1.num.equals(q.num) and chi1.same_as(chi)
    q2, chi2 = galois_transport(5, q, chi)
    assert q2.num.equals(q.num)  # rational coefficients are fixed


def test_galois_transport_commutes_with_evaluation():
    rng = random.Random(4)
    t = SplitTower(CTX, cyclic_group(2), n_max=2)
    chi = artin_chars(t, 1)[0]
    z9 = make_root_of_unity(CTX, 9, 1)
    for _ in range(20):
        coeffs = [rng.randrange(27) * z9 ** rng.randint(0, 5) for _ in range(3)]
        num = TruncatedSeries.from_coeffs(CTX, coeffs)
        q = SeriesQuotient(num, TruncatedSeries.one(CTX), reduced=True)
        a = rng.choice([2, 4, 5, 7])
        x = (z9 - 1) * 3
        qt, _ = galois_transport(a, q, chi)
        from iwlab.padic import galois_apply

        lhs = evaluate_quotient(qt, galois_apply(a, x))
        rhs = galois_apply(a, evaluate_quotient(q, x))
        assert lhs.equals(rhs)


def test_galois_transport_is_action():
    t = SplitTower(CTX, cyclic_group(1), n_max=2)
    chi = artin_chars(t, 1)[0]
    z = make_root_of_unity(CTX, 9, 1)
    q = SeriesQuotient(
        TruncatedSeries.from_coeffs(CTX, [z, 1]), TruncatedSeries.one(CTX), reduced=True
    )
    qa, _ = galois_transport(2, q, chi)
    qab, _ = galois_transport(5, qa, chi)
    qc, _ = galois_transport(10, q, chi)
    assert qab.num.equals(qc.num)


# -- places -----------------------------------------------------------------------


def example_tower():
    """p = 3, trivial H, one finite place with k_v = 1."""
    t = SplitTower(CTX, cyclic_group(1), n_max=2)
    g2 = t.level(2).group
    decomp = frozenset([0, 3, 6])
    v = PlaceDatum(t, "v", archimedean=False, norm=4, decomp_elements=decomp)
    return t, v


def test_k_v_derivation():
    t, v = example_tower()
    assert v.k_v == 1


def test_n_of_s():
    t, v = example_tower()
    assert n_of_s(t, [v]) == 1
    full = PlaceDatum(t, "w", archimedean=False, norm=7, decomp_elements=frozenset(range(9)))
    assert full.k_v == 0
    assert n_of_s(t, [full]) == 0
    assert n_of_s(t, [v, full]) == 1
    with pytest.raises(ValueError):
        n_of_s(t, [])


def test_archimedean_place_constraints():
    t, _ = example_tower()
    arch = PlaceDatum(t, "oo", archimedean=True, norm=None, decomp_elements=frozenset([0]))
    with pytest.raises(ValueError):
        n_of_s(t, [arch])
    with pytest.raises(ValueError):
        PlaceDatum(t, "bad", archimedean=True, norm=None, decomp_elements=frozenset([0, 3, 6]))


def test_coinvariant_kernel_order_example():
    t, v = example_tower()
    assert coinvariant_kernel_order(t, [v], 0) == 3
    assert coinvariant_kernel_order(t, [v], 1) == 1
    assert coinvariant_kernel_order(t, [v], 2) == 1


def test_coinvariant_kernel_order_min_formula():
    t = SplitTower(CTX, cyclic_group(1), n_max=3)
    g = t.level(3).group
    v_k2 = PlaceDatum(t, "a", False, 4, decomp_elements=frozenset([0, 9, 18]))
    v_k3 = PlaceDatum(t, "b", False, 5, decomp_elements=frozenset([0]))
    assert v_k2.k_v == 2 and v_k3.k_v == 3
    assert coinvariant_kernel_order(t, [v_k3, v_k2], 1) == 3
    # monotone decreasing, hits 1 at n(S)
    orders = [coinvariant_kernel_order(t, [v_k3, v_k2], n) for n in range(4)]
    assert orders == sorted(orders, reverse=True)
    assert orders[n_of_s(t, [v_k3, v_k2])] == 1


def test_xy_modules_single_full_place():
    t, _ = example_tower()
    g1 = t.level(1).group
    v = PlaceDatum(t, "v", False, 4, decomp_elements=frozenset(range(9)))
    y, x_rank, aug = xy_modules(t, [v], 1)
    assert y.rank == 1 and x_rank == 0


def test_xy_modules_counting_and_action():
    t = SplitTower(CTX, cyclic_group(2), n_max=1)
    g = t.level(1).group
    triv = frozenset([g.identity])
    v1 = PlaceDatum(t, "a", False, 4, decomp_elements=triv)
    v2 = PlaceDatum(t, "b", False, 5, decomp_elements=triv)
    y, x_rank, aug = xy_modules(t, [v1, v2], 1)
    assert y.rank == 2 * g.n
    assert x_rank == 2 * g.n - 1
    # permutation action matches the Cayley table orbits
    for s in range(g.n):
        perm = y.perms[s]
        assert sorted(perm) == list(range(y.rank))
        for i, (pi, cs) in enumerate(y.basis):
            img_label = y.basis[perm[i]]
            assert img_label[0] == pi
            assert img_label[1] == frozenset(g.table[s][x] for x in cs)
    # group action is a homomorphism on a sample of pairs
    for s in range(g.n):
        for u in range(g.n):
            su = g.table[s][u]
            comp = tuple(y.perms[s][y.perms[u][i]] for i in range(y.rank))
            assert comp == y.perms[su]


def test_level_is_built_once_under_threads():
    import sys
    import threading
    import time

    from iwlab.tower import LieTower

    class SlowTower(LieTower):
        builds = 0

        def _build_level(self, n):
            SlowTower.builds += 1
            time.sleep(0.05)
            return object()

    tower = SlowTower(CTX, 2)
    workers = 4  # more threads than cores
    start = threading.Barrier(workers)
    got = []

    def fetch():
        start.wait()
        got.append(tower.level(1))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fetch) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert SlowTower.builds == 1
    assert len(got) == workers and all(level is got[0] for level in got)
