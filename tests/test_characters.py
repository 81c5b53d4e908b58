import random
from fractions import Fraction

import pytest

from iwlab.characters import (
    DEFAULT_ORDER_BOUND,
    _TABLE_CACHE,
    Character,
    _cyclic_convolve,
    algebra_one,
    character_kernel,
    character_table,
    character_transform,
    conjugate_character,
    decompose,
    dual,
    idempotent,
    induce,
    inflate,
    inner_product,
    project_idempotent,
    restrict,
    tensor,
    trivial_character,
)
from iwlab.groups import (
    SubgroupDesc,
    abelian_group,
    alternating_group,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from iwlab.padic import PrecisionContext

CTX = PrecisionContext(p=3, cap_N=20, cap_D=12)
CTX5 = PrecisionContext(p=5, cap_N=20, cap_D=12)


def test_c2_table():
    g = cyclic_group(2)
    table = character_table(g, CTX)
    assert len(table) == 2
    degs = sorted(ch.degree_int() for ch in table)
    assert degs == [1, 1]
    vals = sorted(tuple(v.coeffs[0] for v in ch.values) for ch in table)
    assert vals == [(Fraction(1), Fraction(-1)), (Fraction(1), Fraction(1))]


def test_s3_table():
    g = symmetric_group(3)
    table = character_table(g, CTX)
    assert sorted(ch.degree_int() for ch in table) == [1, 1, 2]
    two = next(ch for ch in table if ch.degree_int() == 2)
    # classes ordered: identity, transpositions (order 2), 3-cycles (order 3)
    assert [len(c) for c in g.conjugacy_classes] == [1, 3, 2]
    assert two.values[0].equals(CTX.make(2))
    assert two.values[1].equals(CTX.zero())
    assert two.values[2].equals(CTX.make(-1))


def test_q8_table_degrees():
    g = quaternion_group()
    table = character_table(g, CTX)
    assert sorted(ch.degree_int() for ch in table) == [1, 1, 1, 1, 2]


def test_tables_orthogonal_on_sample_groups():
    for g in (cyclic_group(6), abelian_group(2, 2), symmetric_group(4), dihedral_group(4), alternating_group(4)):
        table = character_table(g, CTX)
        assert sum(ch.degree_int() ** 2 for ch in table) == g.n
        for i, a in enumerate(table):
            for j, b in enumerate(table):
                ip = inner_product(a, b)
                assert ip.equals(CTX.one() if i == j else CTX.zero())


def test_column_orthogonality_s4():
    g = symmetric_group(4)
    table = character_table(g, CTX)
    r = g.num_classes
    for j in range(r):
        for k in range(r):
            acc = CTX.zero()
            for ch in table:
                acc = acc + ch.values[j] * ch.values[g.inverse_class[k]]
            expected = CTX.make(g.centralizer_order(g.class_rep(j))) if j == k else CTX.zero()
            assert acc.equals(expected)


def test_schur_orthogonality():
    g = dihedral_group(6)
    table = character_table(g, CTX)
    for i, a in enumerate(table):
        for j, b in enumerate(table):
            ip = inner_product(a, b)
            assert ip.equals(CTX.one() if i == j else CTX.zero())


def test_scalar_product_tensor_duality():
    rng = random.Random(12)
    g = symmetric_group(3)
    table = character_table(g, CTX)
    for _ in range(20):
        a, b, c = (rng.choice(table) for _ in range(3))
        lhs = inner_product(a, tensor(b, c))
        rhs = inner_product(tensor(a, dual(b)), c)
        assert lhs.equals(rhs)


def test_frobenius_reciprocity():
    g = symmetric_group(3)
    a3 = next(s for s in g.subgroup_classes if len(s) == 3)
    sub = SubgroupDesc(g, a3)
    gt = character_table(g, CTX)
    ht = character_table(sub.as_group, CTX)
    for chi in gt:
        for psi in ht:
            lhs = inner_product(chi, induce(psi, sub))
            rhs = inner_product(restrict(chi, sub), psi)
            assert lhs.equals(rhs)


def test_induction_of_trivial_from_a3():
    g = symmetric_group(3)
    a3 = next(s for s in g.subgroup_classes if len(s) == 3)
    sub = SubgroupDesc(g, a3)
    ind = induce(trivial_character(sub.as_group, CTX), sub)
    table = character_table(g, CTX)
    linears = [ch for ch in table if ch.degree_int() == 1]
    expected = linears[0] + linears[1]  # trivial + sign
    assert ind.equals(expected)


def test_dual_is_involution_and_inverse_classes():
    g = quaternion_group()
    table = character_table(g, CTX)
    for ch in table:
        d = dual(ch)
        for k in range(g.num_classes):
            assert d.values[k].equals(ch.values[g.inverse_class[k]])
        assert dual(d).equals(ch)


def test_inflate_restrict_round_trip_c4():
    g = cyclic_group(4)
    n = g.subgroup([0, 2])
    q, proj = g.quotient(n.elements)
    qt = character_table(q, CTX)
    for chb in qt:
        lifted = inflate(chb, g, q, proj)
        assert lifted.degree_int() == chb.degree_int()
        # inflation then restriction along a section recovers the original values
        section = [0, 1]  # representatives of the two cosets
        for i, s in enumerate(section):
            assert lifted.value(s).equals(chb.value(proj[s]))


def test_transform_dispatch():
    g = cyclic_group(3)
    table = character_table(g, CTX)
    out = character_transform("add", table[0], table[1])
    assert out.degree_int() == 2


def test_idempotent_c2():
    g = cyclic_group(2)
    table = character_table(g, CTX)
    sign = next(ch for ch in table if not ch.values[1].equals(CTX.one()))
    e = idempotent(sign)
    assert e.coeffs[0].equals(CTX.make(Fraction(1, 2)))
    assert e.coeffs[1].equals(CTX.make(Fraction(-1, 2)))


def test_idempotent_relations_s3():
    g = symmetric_group(3)
    table = character_table(g, CTX)
    idems = [idempotent(ch) for ch in table]
    total = idems[0]
    for e in idems[1:]:
        total = total + e
    assert total.equals(algebra_one(g, CTX))
    for i, e in enumerate(idems):
        assert (e * e).equals(e)
        assert e.is_central()
        for j, f in enumerate(idems):
            if i != j:
                prod = e * f
                assert all(c.is_exact_zero() or c.equals(CTX.zero()) for c in prod.coeffs)


def test_s3_two_dim_idempotent_values():
    g = symmetric_group(3)
    table = character_table(g, CTX)
    two = next(ch for ch in table if ch.degree_int() == 2)
    e = idempotent(two)
    # (1/3)(2 id - c - c^2) over the 3-cycles
    three_cycles = g.conjugacy_classes[2]
    assert e.coeffs[g.identity].equals(CTX.make(Fraction(2, 3)))
    for c in three_cycles:
        assert e.coeffs[c].equals(CTX.make(Fraction(-1, 3)))


def test_project_idempotent_trivial_normal():
    g = symmetric_group(3)
    table = character_table(g, CTX)
    chi = next(ch for ch in table if ch.degree_int() == 2)
    n = g.subgroup([g.identity])
    img, q, proj = project_idempotent(chi, n)
    assert q.n == g.n
    e = idempotent(chi)
    for s in range(g.n):
        assert img.coeffs[proj[s]].equals(e.coeffs[s])


def test_project_idempotent_faithful_linear_dies():
    g = cyclic_group(4)
    table = character_table(g, CTX)
    faithful = next(
        ch for ch in table if ch.degree_int() == 1 and not (ch.value(1) ** 2).equals(CTX.one())
    )
    n = g.subgroup([0, 2])
    img, q, _ = project_idempotent(faithful, n)
    for c in img.coeffs:
        assert c.equals(CTX.zero())


def test_project_idempotent_sign_through_a3():
    g = symmetric_group(3)
    table = character_table(g, CTX)
    sign = next(ch for ch in table if ch.degree_int() == 1 and ch.values[1].equals(CTX.make(-1)))
    a3 = next(s for s in g.subgroup_classes if len(s) == 3)
    img, q, proj = project_idempotent(sign, g.subgroup(a3))
    qt = character_table(q, CTX)
    sbar = next(ch for ch in qt if not ch.values[1].equals(CTX.one()))
    expected = idempotent(sbar)
    assert img.equals(expected)


def test_kernel_of_character():
    g = symmetric_group(3)
    table = character_table(g, CTX)
    sign = next(ch for ch in table if ch.degree_int() == 1 and ch.values[1].equals(CTX.make(-1)))
    ker = character_kernel(sign)
    assert len(ker) == 3


def test_conjugate_character():
    g = symmetric_group(3)
    a3 = g.subgroup(next(s for s in g.subgroup_classes if len(s) == 3))
    table = character_table(a3.as_group, CTX)
    omega = next(ch for ch in table if not all(v.equals(CTX.one()) for v in ch.values))
    transposition = next(x for x in range(g.n) if g.orders[x] == 2)
    conj = conjugate_character(omega, a3, transposition)
    # conjugation by a transposition inverts the 3-cycle, swapping omega and its dual
    assert conj.equals(dual(omega))


def test_groups_above_the_order_bound_are_refused_before_any_table_is_built():
    assert DEFAULT_ORDER_BOUND == 200
    builds = len(_TABLE_CACHE)
    with pytest.raises(ValueError, match="exceeds the bound 200"):
        character_table(cyclic_group(201), CTX)
    assert len(_TABLE_CACHE) == builds


def test_cyclic_convolution_agrees_with_schoolbook_when_p_divides_the_order():
    # 1/64 in the idempotents of C64 leaves the 2-adic product of cap_N = 8
    # below zero precision; the packed product must not claim more
    ctx = PrecisionContext(p=2, cap_N=8, cap_D=10)
    g = cyclic_group(64)
    table = character_table(g, ctx)
    for i in (0, 1, 5):
        e = idempotent(table[i])
        fast = _cyclic_convolve(e, e)
        slow = [ctx.zero()] * g.n
        for x, cx in enumerate(e.coeffs):
            for y, cy in enumerate(e.coeffs):
                if not cx.is_exact_zero() and not cy.is_exact_zero():
                    slow[g.table[x][y]] = slow[g.table[x][y]] + cx * cy
        for f, s in zip(fast.coeffs, slow):
            assert f.equals(s)
            assert f.prec <= s.prec
