import pytest

from iwlab.groups import (
    FiniteGroup,
    SubgroupDesc,
    abelian_group,
    alternating_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    quaternion_group,
    semidirect_product,
    symmetric_group,
)


def test_construction_rejects_broken_tables():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [0, 1]])  # rows not permutations... columns broken
    # associative magma without identity is rejected
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [1, 0]])


def test_non_associative_table_rejected():
    # a latin square that is not a group table (order 5 loop)
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError):
        FiniteGroup(table)


def test_cyclic_basics():
    g = cyclic_group(6)
    assert g.identity == 0
    assert g.orders[1] == 6
    assert g.exponent == 6
    assert g.is_abelian()
    assert g.num_classes == 6


def test_symmetric_group_classes():
    g = symmetric_group(4)
    assert g.n == 24
    assert g.num_classes == 5
    sizes = sorted(len(c) for c in g.conjugacy_classes)
    assert sizes == [1, 3, 6, 6, 8]
    assert g.exponent == 12


def test_dihedral_and_quaternion():
    d4 = dihedral_group(4)
    assert d4.n == 8 and not d4.is_abelian()
    q8 = quaternion_group()
    assert q8.n == 8
    # Q8 has a unique element of order 2
    assert sum(1 for x in range(8) if q8.orders[x] == 2) == 1
    dic3 = dicyclic_group(3)
    assert dic3.n == 12
    assert sum(1 for x in range(12) if dic3.orders[x] == 2) == 1


def test_alternating_group():
    a4 = alternating_group(4)
    assert a4.n == 12 and a4.num_classes == 4


def test_direct_product_orders():
    g = direct_product(cyclic_group(2), cyclic_group(4))
    assert g.n == 8 and g.exponent == 4
    assert abelian_group(2, 2, 3).n == 12


def test_semidirect_product_rejects_non_action():
    c3, c2 = cyclic_group(3), cyclic_group(2)
    bad = [[0, 1, 2], [1, 2, 0]]  # the shift is not an automorphism of C3
    with pytest.raises(ValueError):
        semidirect_product(c3, c2, bad)
    good = [[0, 1, 2], [0, 2, 1]]  # inversion: gives S3
    s3 = semidirect_product(c3, c2, good)
    assert s3.n == 6 and not s3.is_abelian()


def test_subgroup_enumeration_s3():
    g = symmetric_group(3)
    orders = sorted(len(s) for s in g.all_subgroups)
    assert orders == [1, 2, 2, 2, 3, 6]
    class_orders = sorted(len(s) for s in g.subgroup_classes)
    assert class_orders == [1, 2, 3, 6]


def test_subgroup_desc_and_normality():
    g = symmetric_group(3)
    a3 = next(s for s in g.subgroup_classes if len(s) == 3)
    sub = SubgroupDesc(g, a3)
    assert sub.normal
    c2 = next(s for s in g.subgroup_classes if len(s) == 2)
    assert not SubgroupDesc(g, c2).normal
    with pytest.raises(ValueError):
        g.subgroup([0, 1, 2, 3])  # not closed in general


def test_quotient_is_cached_and_correct():
    g = cyclic_group(4)
    q1, proj1 = g.quotient([0, 2])
    q2, proj2 = g.quotient([0, 2])
    assert q1 is q2 and proj1 == proj2
    assert q1.n == 2
    assert proj1[1] == proj1[3]


def test_quotient_requires_normal():
    g = symmetric_group(3)
    c2 = next(s for s in g.subgroup_classes if len(s) == 2)
    with pytest.raises(ValueError):
        g.quotient(c2)


def test_subgroup_as_group_round_trip():
    g = symmetric_group(4)
    v4 = next(
        s
        for s in g.subgroup_classes
        if len(s) == 4 and all(g.orders[x] <= 2 for x in s)
    )
    sub = SubgroupDesc(g, v4)
    h = sub.as_group
    assert h.n == 4 and h.exponent == 2
    for i in range(4):
        for j in range(4):
            assert sub.to_parent(h.table[i][j]) == g.table[sub.to_parent(i)][sub.to_parent(j)]


def test_generators_property():
    g = symmetric_group(4)
    gens = g.generators
    assert g.closure(gens) == frozenset(range(g.n))
    assert cyclic_group(1).generators == (0,)


def test_left_cosets_order_index_and_partition():
    for g in (symmetric_group(4), dihedral_group(4), quaternion_group(), abelian_group(2, 6)):
        for h in g.all_subgroups:
            cosets, index = g.left_cosets(h)
            assert len(cosets) * len(h) == g.n
            # least-element order, and each coset is xH for its least element x
            least = [min(cs) for cs in cosets]
            assert least == sorted(least)
            for x, cs in zip(least, cosets):
                assert cs == frozenset(g.table[x][y] for y in h)
            # the cosets partition G, and the index names each element's coset
            assert sorted(x for cs in cosets for x in cs) == list(range(g.n))
            assert len(index) == g.n
            assert all(x in cosets[index[x]] for x in range(g.n))
