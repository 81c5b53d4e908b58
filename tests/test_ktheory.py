import random
from itertools import permutations

import pytest

from iwlab import linalg
from iwlab.ktheory import (
    DetGenerator,
    FreeModuleMap,
    FreeModuleRanks,
    ProductRing,
    RelK0Element,
    additivity_iso,
    apply_det,
    boundary_and_nr,
    class_of_map,
    cohomology_dims,
    composition_witness,
    det_of_map,
    dual_generator,
    dual_inverse_check,
    identity_class,
    identity_map,
    inverse_class,
    iota_value,
    is_identity_witness,
    pairing_value,
    rec_class,
    shift_complex,
    standard_generator,
    two_term_complex,
    verify_inverse_relation,
    TrivializedComplex,
)
from iwlab.padic import PrecisionContext, make_root_of_unity

CTX = PrecisionContext(p=3, cap_N=14, cap_D=10)
FIELD = ProductRing(CTX, (1,))
PAIR = ProductRing(CTX, (1, 4))
TRIPLE = ProductRing(CTX, (1, 4, 5))


def mk_map(ring, comps):
    comps = tuple(tuple(tuple(CTX.make(x) if not hasattr(x, "ctx") else x for x in row) for row in m) for m in comps)
    src = FreeModuleRanks(ring, tuple(len(m[0]) if m else 0 for m in comps))
    tgt = FreeModuleRanks(ring, tuple(len(m) for m in comps))
    return FreeModuleMap(ring, src, tgt, comps)


def rand_matrix(rng, n, ring_comp_m=1, unitary=False):
    z = make_root_of_unity(CTX, ring_comp_m, 1) if ring_comp_m > 1 else CTX.one()
    while True:
        mat = [[CTX.make(rng.randint(-3, 3)) * z ** rng.randint(0, max(ring_comp_m - 1, 0)) for _ in range(n)] for _ in range(n)]
        if linalg.is_invertible(linalg.det(mat, CTX)):
            return mat


def leibniz_det(mat):
    """Independent determinant oracle: permutation expansion."""
    n = len(mat)
    acc = CTX.zero()
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = CTX.one()
        for i in range(n):
            term = term * mat[i][perm[i]]
        acc = acc + term if sign > 0 else acc - term
    return acc


def test_det_identity():
    m = FreeModuleRanks(PAIR, (2, 3))
    assert PAIR.elem_equals(det_of_map(identity_map(m)), PAIR.one())


def test_det_2x2_wedge_formula():
    a, b, c, d = (CTX.make(v) for v in (2, 5, 7, 3))
    f = mk_map(FIELD, [[[a, b], [c, d]]])
    (got,) = det_of_map(f)
    assert got.equals(a * d - b * c)


def test_det_matches_leibniz_oracle_up_to_rank6():
    rng = random.Random(41)
    for n in range(1, 7):
        mat = rand_matrix(rng, n)
        f = mk_map(FIELD, [mat])
        (got,) = det_of_map(f)
        assert got.equals(leibniz_det(mat))


def test_det_composition():
    rng = random.Random(42)
    for _ in range(10):
        a = mk_map(PAIR, [rand_matrix(rng, 2), rand_matrix(rng, 3, ring_comp_m=4)])
        b = mk_map(PAIR, [rand_matrix(rng, 2), rand_matrix(rng, 3, ring_comp_m=4)])
        lhs = det_of_map(b.compose(a))
        rhs = PAIR.elem_mul(det_of_map(b), det_of_map(a))
        assert PAIR.elem_equals(lhs, rhs)


def test_additivity_canonical_split():
    # P' -> P' + P'' ->> P'' with the canonical inclusion/projection/splitting
    ring = FIELD
    sub = FreeModuleRanks(ring, (2,))
    quot = FreeModuleRanks(ring, (1,))
    total = FreeModuleRanks(ring, (3,))
    z, o = CTX.zero(), CTX.one()
    iota = FreeModuleMap(ring, sub, total, (((o, z), (z, o), (z, z)),))
    pi = FreeModuleMap(ring, total, quot, (((z, z, o),),))
    sigma = FreeModuleMap(ring, quot, total, (((z,), (z,), (o,)),))
    out = additivity_iso(iota, pi, sigma, standard_generator(sub), standard_generator(quot))
    assert out.module.ranks == (3,)
    assert ring.elem_equals(out.scalar, ring.one())


def test_additivity_splitting_independent():
    rng = random.Random(43)
    ring = FIELD
    sub = FreeModuleRanks(ring, (2,))
    quot = FreeModuleRanks(ring, (2,))
    total = FreeModuleRanks(ring, (4,))
    z, o = CTX.zero(), CTX.one()
    iota = FreeModuleMap(ring, sub, total, (((o, z), (z, o), (z, z), (z, z)),))
    pi = FreeModuleMap(ring, total, quot, (((z, z, o, z), (z, z, z, o)),))
    sigma0 = FreeModuleMap(ring, quot, total, (((z, z), (z, z), (o, z), (z, o)),))
    base = additivity_iso(iota, pi, sigma0, standard_generator(sub), standard_generator(quot))
    for _ in range(20):
        # sigma' = sigma + iota o h for random h: the image generator is unchanged
        h = [[CTX.make(rng.randint(-4, 4)) for _ in range(2)] for _ in range(2)]
        pert = [
            [sigma0.comps[0][i][j] + (h[i][j] if i < 2 else CTX.zero()) for j in range(2)]
            for i in range(4)
        ]
        sigma = FreeModuleMap(ring, quot, total, (tuple(tuple(r) for r in pert),))
        out = additivity_iso(iota, pi, sigma, standard_generator(sub), standard_generator(quot))
        assert ring.elem_equals(out.scalar, base.scalar)


def test_additivity_grading_bookkeeping():
    ring = PAIR
    sub = FreeModuleRanks(ring, (1, 2))
    quot = FreeModuleRanks(ring, (1, 1))
    total = FreeModuleRanks(ring, (2, 3))
    z, o = CTX.zero(), CTX.one()
    iota = FreeModuleMap(ring, sub, total, (((o,), (z,)), ((o, z), (z, o), (z, z))))
    pi = FreeModuleMap(ring, total, quot, (((z, o),), ((z, z, o),)))
    sigma = FreeModuleMap(ring, quot, total, (((z,), (o,)), ((z,), (z,), (o,))))
    out = additivity_iso(iota, pi, sigma, standard_generator(sub), standard_generator(quot))
    assert out.module.ranks == tuple(a + b for a, b in zip(sub.ranks, quot.ranks))


def test_dual_generator_relations():
    rng = random.Random(44)
    m = FreeModuleRanks(TRIPLE, (1, 2, 2))
    for _ in range(20):
        r = tuple(CTX.make(rng.choice([1, 2, 4, 5, 7, 8])) for _ in range(3))
        gen = standard_generator(m)
        dual = dual_generator(gen)
        # m*(m) = 1
        assert TRIPLE.elem_equals(pairing_value(gen, dual), TRIPLE.one())
        # (r m)* = r^{-1} m*
        scaled = gen.scaled(r)
        assert TRIPLE.elem_equals(
            dual_generator(scaled).scalar, TRIPLE.elem_mul(dual.scalar, TRIPLE.elem_inv(r))
        )
        # double dual
        assert dual_generator(dual).equals(gen)


def test_iota_scaling_relation():
    # m' = r m  ==>  iota_{m'} = r^2 iota_m evaluated anywhere
    rng = random.Random(45)
    m = FreeModuleRanks(FIELD, (2,))
    gen = standard_generator(m)
    for _ in range(10):
        r = (CTX.make(rng.choice([1, 2, 4, 5])),)
        c = (CTX.make(rng.randint(1, 9)),)
        mprime = gen.scaled(r)  # m' = r m, so iota_m = r^2 iota_{m'}
        x = gen.scaled(c)  # arbitrary element c * m
        lhs = iota_value(gen, x).scalar
        rr = FIELD.elem_mul(r, r)
        rhs = FIELD.elem_mul(rr, iota_value(mprime, x).scalar)
        assert FIELD.elem_equals(lhs, rhs)


def test_dual_inverse_identity_and_scalar():
    m = FreeModuleRanks(FIELD, (3,))
    f = identity_map(m)
    a, b = dual_inverse_check(f, standard_generator(m), standard_generator(m))
    assert FIELD.elem_equals(a, FIELD.one()) and FIELD.elem_equals(b, FIELD.one())
    c = CTX.make(5)
    scaled = mk_map(FIELD, [[[c if i == j else CTX.zero() for j in range(3)] for i in range(3)]])
    a, b = dual_inverse_check(scaled, standard_generator(m), standard_generator(m))
    assert a[0].equals(c**3) and b[0].equals((c**3).inverse())


def test_dual_inverse_random_over_zeta5():
    rng = random.Random(46)
    ring = ProductRing(CTX, (5,))
    m = FreeModuleRanks(ring, (3,))
    for _ in range(10):
        mat = rand_matrix(rng, 3, ring_comp_m=5)
        f = FreeModuleMap(ring, m, m, (tuple(tuple(r) for r in mat),))
        a, b = dual_inverse_check(f, standard_generator(m), standard_generator(m))
        prod = ring.elem_mul(a, b)
        assert ring.elem_equals(prod, ring.one())


# -- relative K0 relations -----------------------------------------------------------


def test_identity_class_is_zero_witnessed():
    m = FreeModuleRanks(PAIR, (2, 1))
    assert is_identity_witness(identity_class(m))


def test_inverse_relation_witness():
    rng = random.Random(47)
    for _ in range(10):
        f = mk_map(PAIR, [rand_matrix(rng, 2), rand_matrix(rng, 2, ring_comp_m=4)])
        cls = class_of_map(f)
        assert verify_inverse_relation(cls)


def test_composition_additivity_witness():
    rng = random.Random(48)
    for _ in range(10):
        f = mk_map(TRIPLE, [rand_matrix(rng, 2), rand_matrix(rng, 1, 4), rand_matrix(rng, 2, 5)])
        g = mk_map(TRIPLE, [rand_matrix(rng, 2), rand_matrix(rng, 1, 4), rand_matrix(rng, 2, 5)])
        a = class_of_map(f)
        b = class_of_map(g)
        w = composition_witness(a, b)
        direct = g.compose(f)
        assert w.map.equals(direct)


def test_boundary_and_nr():
    rng = random.Random(49)
    m = FreeModuleRanks(PAIR, (2, 2))
    ident = identity_map(m)
    nr, cls = boundary_and_nr(PAIR, ident.comps)
    assert PAIR.elem_equals(nr, PAIR.one())
    assert is_identity_witness(cls)
    # componentwise determinants on a diagonal matrix over two fields
    d1 = rand_matrix(rng, 2)
    d2 = rand_matrix(rng, 2, ring_comp_m=4)
    nr, cls = boundary_and_nr(PAIR, (tuple(tuple(r) for r in d1), tuple(tuple(r) for r in d2)))
    assert nr[0].equals(linalg.det(d1, CTX)) and nr[1].equals(linalg.det(d2, CTX))


def test_boundary_is_additive_via_witness():
    rng = random.Random(50)
    for _ in range(10):
        x = mk_map(PAIR, [rand_matrix(rng, 2), rand_matrix(rng, 2, 4)])
        y = mk_map(PAIR, [rand_matrix(rng, 2), rand_matrix(rng, 2, 4)])
        _, cx = boundary_and_nr(PAIR, x.comps)
        _, cy = boundary_and_nr(PAIR, y.comps)
        xy = y.compose(x)
        _, cxy = boundary_and_nr(PAIR, xy.comps)
        w = composition_witness(cx, cy)
        assert w.map.equals(cxy.map)
        nr_mult = PAIR.elem_mul(det_of_map(x.map if hasattr(x, "map") else x), det_of_map(y))
        assert PAIR.elem_equals(det_of_map(xy), nr_mult)


# -- refined Euler characteristics ----------------------------------------------------


def test_rec_class_two_term_multiplication():
    # C = [R --x--> R] in degrees 0,1 with x = p: tracing the construction gives
    # phi_t = x^{-1}, the inverse of the shifted complex's class
    x = CTX.make(3)
    c = two_term_complex(FIELD, [((x,),)])
    cls = rec_class(c)
    got = cls.map.comps[0][0][0]
    assert got.equals(x.inverse())
    shifted = shift_complex(c)
    cls2 = rec_class(shifted)
    assert cls2.map.comps[0][0][0].equals(x)
    # the two dets multiply to 1: [M, f, M] = -[M, f^{-1}, M] at witness level
    assert (got * cls2.map.comps[0][0][0]).equals(CTX.one())


def test_rec_class_acyclic_over_r():
    # an R-isomorphism gives the trivial class: det phi_t is an integral unit
    u = CTX.make(2)
    c = two_term_complex(FIELD, [((u,),)])
    cls = rec_class(c)
    d = det_of_map(cls.map)[0]
    assert d.is_unit()


def test_rec_class_splitting_invariance():
    rng = random.Random(51)
    x = CTX.make(3)
    mat = ((x, CTX.one()), (CTX.zero(), CTX.make(6)))
    c = two_term_complex(FIELD, [mat])
    base = det_of_map(rec_class(c).map)
    for seed in range(20):
        sheared = det_of_map(rec_class(c, shear_seed=seed).map)
        assert FIELD.elem_equals(base, sheared)


def test_rec_class_with_nonzero_cohomology():
    # zero differential: H^0 = H^1 = R over S; t is a scalar u, phi_t = u
    ring = FIELD
    ranks = {0: (1,), 1: (1,)}
    diffs = {0: (((CTX.zero(),),),)}
    u = CTX.make(5)
    c = TrivializedComplex(ring, (0, 1), ranks, diffs, (((u,),),))
    odd, even = cohomology_dims(c)
    assert odd == (1,) and even == (1,)
    cls = rec_class(c)
    assert cls.map.comps[0][0][0].equals(u)


def test_rec_class_basis_change_scales_by_unit_dets():
    # simultaneous basis change multiplies det(phi_t) by a ratio of R-unit dets
    x = CTX.make(3)
    c = two_term_complex(FIELD, [((x,),)])
    base = det_of_map(rec_class(c).map)[0]
    # change basis of P^1 by the unit 2: the differential becomes 2x in the new
    # coordinates, and det(phi_t) picks up exactly 2^{-1}
    c2 = two_term_complex(FIELD, [((CTX.make(2) * x,),)])
    scaled = det_of_map(rec_class(c2).map)[0]
    assert scaled.equals(base * CTX.make(2).inverse())


def test_four_term_complex_class():
    # degrees 0..3 with an exact pairing structure: phi_t det is the alternating
    # product of the diagonal multiplications
    z = CTX.zero()
    a, b = CTX.make(3), CTX.make(6)
    ranks = {0: (1,), 1: (2,), 2: (1,)}
    # d0 = (a, 0)^T : R -> R^2, d1 = (0, b): R^2 -> R
    diffs = {
        0: (((a,), (z,)),),
        1: (((z, b),),),
    }
    c = TrivializedComplex(FIELD, (0, 1, 2), ranks, diffs, None)
    cls = rec_class(c)
    d = det_of_map(cls.map)[0]
    # trace: phi_t = diag-ish assembled from a^{-1} and b: det = +- b/a
    assert d.equals(b * a.inverse()) or d.equals(-(b * a.inverse()))


# -- rank-0 components -------------------------------------------------------------


def test_compose_through_a_rank_zero_component():
    ring = ProductRing(CTX, (1, 3))
    f = identity_map(FreeModuleRanks(ring, (2, 0)))
    assert f.compose(f).equals(f)
    # R -> 0 -> R: a 1 x 0 times 0 x 1 product is the 1 x 1 zero matrix
    one, zero = FreeModuleRanks(FIELD, (1,)), FreeModuleRanks(FIELD, (0,))
    into_zero = FreeModuleMap(FIELD, one, zero, ((),))
    out_of_zero = FreeModuleMap(FIELD, zero, one, (((),),))
    composed = out_of_zero.compose(into_zero)
    assert composed.source == one and composed.target == one
    assert len(composed.comps[0]) == 1 and composed.comps[0][0][0].is_exact_zero()


def test_complex_with_a_rank_zero_middle_term():
    # degrees 0, 1, 2 with ranks 1, 0, 1: d o d passes through the zero module
    ranks = {0: (1,), 1: (0,), 2: (1,)}
    diffs = {0: ((),), 1: (((),),)}
    c = TrivializedComplex(FIELD, (0, 1, 2), ranks, diffs, None)
    assert cohomology_dims(c) == ((0,), (2,))
