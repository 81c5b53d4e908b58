import random
from collections import Counter

import pytest

from iwlab import linalg
from iwlab.characters import character_table, trivial_character
from iwlab.groups import cyclic_group, dihedral_group, quaternion_group, symmetric_group
from iwlab.padic import CycloPadic, PrecisionContext, make_root_of_unity
from iwlab.regulators import (
    KernelConditionError,
    RegulatorProblem,
    RepresentationModule,
    class_function_map,
    det_on_isotypic_part,
    hom_basis,
    irreducible_representation,
    permutation_representation,
    regulator_det,
    regulator_layer_invariance,
    x_representation,
)
from iwlab.tower import ArtinCharacter, PermutationModule, PlaceDatum, SplitTower, xy_modules

CTX = PrecisionContext(p=3, cap_N=14, cap_D=10)


def test_irreducible_realizations_cover_corpus():
    for g in (cyclic_group(6), symmetric_group(3), quaternion_group(), symmetric_group(4)):
        for chi in character_table(g, CTX):
            rep = irreducible_representation(chi)
            assert rep.character().equals(chi)
            assert rep.dim == chi.degree_int()


def test_permutation_summand_realizations():
    # the corpus characters are all monomial, so call the coset-permutation
    # path directly: every irreducible of S3 and S4 is a multiplicity-one
    # summand of some coset permutation module
    from iwlab.regulators import _permutation_summand_realization

    for g in (symmetric_group(3), symmetric_group(4)):
        for chi in character_table(g, CTX):
            rep = _permutation_summand_realization(chi, 200)
            assert rep is not None and rep.dim == chi.degree_int()
            assert rep.character().equals(chi)


def test_hom_basis_dimension_irreducible_target():
    g = symmetric_group(3)
    two = next(ch for ch in character_table(g, CTX) if ch.degree_int() == 2)
    v = irreducible_representation(two)
    assert len(hom_basis(v, v)) == 1
    double = v.direct_sum(v)
    assert len(hom_basis(v, double)) == 2
    triv = irreducible_representation(trivial_character(g, CTX))
    assert len(hom_basis(v, triv)) == 0


def test_hom_basis_identity_up_to_scalar():
    g = symmetric_group(3)
    two = next(ch for ch in character_table(g, CTX) if ch.degree_int() == 2)
    v = irreducible_representation(two)
    (h,) = hom_basis(v, v)
    # Schur: the basis element is a scalar matrix
    diag = h[0][0]
    for i in range(2):
        for j in range(2):
            expected = diag if i == j else CTX.zero()
            assert h[i][j].equals(expected)


def test_regulator_identity_and_scalar():
    g = symmetric_group(3)
    two = next(ch for ch in character_table(g, CTX) if ch.degree_int() == 2)
    v = irreducible_representation(two)
    m = v.direct_sum(v)
    ident = linalg.identity_matrix(CTX, m.dim)
    prob = RegulatorProblem(g, two, v, m, m, tuple(tuple(r) for r in ident))
    assert regulator_det(prob).equals(CTX.one())
    c = CTX.make(5)
    scaled = tuple(tuple(x * c for x in row) for row in ident)
    prob2 = RegulatorProblem(g, two, v, m, m, scaled)
    assert regulator_det(prob2).equals(c * c)  # hom dimension 2


def test_regulator_multiplicative_in_composition():
    rng = random.Random(31)
    g = symmetric_group(3)
    two = next(ch for ch in character_table(g, CTX) if ch.degree_int() == 2)
    v = irreducible_representation(two)
    m = v.direct_sum(v)
    for _ in range(5):
        f1 = class_function_map(m, [rng.randint(1, 4), rng.randint(-2, 2), rng.randint(-2, 2)])
        f2 = class_function_map(m, [rng.randint(1, 4), rng.randint(-2, 2), rng.randint(-2, 2)])
        comp = linalg.mat_mul([list(r) for r in f1], [list(r) for r in f2])
        try:
            r1 = regulator_det(RegulatorProblem(g, two, v, m, m, f1))
            r2 = regulator_det(RegulatorProblem(g, two, v, m, m, f2))
        except KernelConditionError:
            continue
        rc = regulator_det(RegulatorProblem(g, two, v, m, m, tuple(tuple(r) for r in comp)))
        assert rc.equals(r1 * r2)


def test_regulator_kernel_condition_error():
    g = symmetric_group(3)
    two = next(ch for ch in character_table(g, CTX) if ch.degree_int() == 2)
    v = irreducible_representation(two)
    zero = tuple(tuple(CTX.zero() for _ in range(2)) for _ in range(2))
    with pytest.raises(KernelConditionError):
        regulator_det(RegulatorProblem(g, two, v, v, v, zero))


def test_isotypic_determinant_power_identity():
    rng = random.Random(32)
    g = symmetric_group(3)
    table = character_table(g, CTX)
    two = next(ch for ch in table if ch.degree_int() == 2)
    v = irreducible_representation(two)
    m = v.direct_sum(v)

    for _ in range(8):
        f = class_function_map(m, [rng.randint(1, 5), rng.randint(-3, 3), rng.randint(-3, 3)])
        try:
            reg = regulator_det(RegulatorProblem(g, two, v, m, m, f))
        except KernelConditionError:
            continue
        blk = det_on_isotypic_part(two, m, f)
        assert blk.equals(reg ** two.degree_int())


def test_isotypic_determinant_on_permutation_module():
    rng = random.Random(33)
    t = SplitTower(CTX, cyclic_group(2), n_max=1)
    g = t.level(1).group
    triv = frozenset([g.identity])
    v1 = PlaceDatum(t, "a", False, 4, decomp_elements=triv)
    y, _, _ = xy_modules(t, [v1], 1)
    xrep = x_representation(y, CTX)
    table = character_table(g, CTX)
    for chi in table:
        v = irreducible_representation(chi)
        for _ in range(3):
            f = class_function_map(xrep, [rng.randint(1, 6) for _ in range(g.num_classes)])
            try:
                reg = regulator_det(RegulatorProblem(g, chi, v, xrep, xrep, f))
            except KernelConditionError:
                continue
            blk = det_on_isotypic_part(chi, xrep, f)
            assert blk.equals(reg ** chi.degree_int())


def test_layer_invariance_split_tower():
    t = SplitTower(CTX, cyclic_group(2), n_max=2)
    g0 = t.level(0).group
    decomp0 = frozenset(x for x in range(t.level(2).group.n) if True)
    # place with k_v = 0: full decomposition at the deepest level
    v_full = PlaceDatum(t, "v", False, 4, decomp_elements=frozenset(range(t.level(2).group.n)))
    # a second place with smaller decomposition subgroup: the image of H
    h_elems = t.level(2).h_sub.elements
    v_h = PlaceDatum(t, "w", False, 7, decomp_elements=frozenset(h_elems))
    chars = character_table(g0, CTX)
    for chi0 in chars:
        chi = ArtinCharacter(t, 0, chi0)
        coeffs = [2] + [1] * (t.level(1).group.num_classes - 1)
        assert regulator_layer_invariance(t, [v_full, v_h], chi, 1, coeffs)


def test_layer_invariance_scalar_map_both_levels():
    t = SplitTower(CTX, cyclic_group(1), n_max=2)
    v = PlaceDatum(t, "v", False, 4, decomp_elements=frozenset([0, 3, 6]))
    w = PlaceDatum(t, "w", False, 7, decomp_elements=frozenset(range(9)))
    chi = ArtinCharacter(t, 0, character_table(t.level(0).group, CTX)[0])
    # c * identity: class coefficients c at the identity class only
    coeffs = [3] + [0] * (t.level(1).group.num_classes - 1)
    assert regulator_layer_invariance(t, [v, w], chi, 1, coeffs)


# -- the multiplication-table check of RepresentationModule ----------------------


def _reference_law(group, mats) -> bool:
    """The law as linalg.mat_mul and CycloPadic.equals decide it, over every
    generator a and element b."""
    for a in group.generators:
        for b in range(group.n):
            left = linalg.mat_mul(mats[a], mats[b])
            target = mats[group.table[a][b]]
            if not all(x.equals(y) for ra, rb in zip(left, target) for x, y in zip(ra, rb)):
                return False
    return True


def _frozen(mats):
    return tuple(tuple(tuple(row) for row in mat) for mat in mats)


def _built(group, mats) -> bool:
    try:
        RepresentationModule(group, _frozen(mats))
    except ValueError as exc:
        assert str(exc) == "matrices do not satisfy the multiplication table"
        return False
    return True


def test_broken_module_is_refused():
    g = symmetric_group(3)
    two = next(ch for ch in character_table(g, CTX) if ch.degree_int() == 2)
    mats = [[list(row) for row in mat] for mat in irreducible_representation(two).matrices]
    e, a = g.identity, g.generators[0]
    swapped = list(mats)
    swapped[e], swapped[a] = mats[a], mats[e]
    assert not _built(g, swapped)
    # one entry moved by p^k: refused below its precision, a congruence above
    x = mats[e][0][0]
    for k, ok in ((x.prec - 1, False), (x.prec + 1, True)):
        moved = [[list(row) for row in mat] for mat in mats]
        moved[e][0][0] = x + CTX.make(3**k)
        assert _built(g, moved) is ok
        assert _reference_law(g, moved) is ok


def _seeded_modules(ctx):
    """Realizations of every irreducible character, and the x-representations
    of the coset permutation modules, of a few small groups."""
    out = []
    for g in (symmetric_group(3), quaternion_group(), cyclic_group(6), dihedral_group(5)):
        out += [irreducible_representation(chi) for chi in character_table(g, ctx)]
        for elems in g.subgroup_classes:
            if len(elems) < g.n:
                cosets, coset_of = g.left_cosets(elems)
                perms = tuple(tuple(coset_of[g.table[s][min(cs)]] for cs in cosets) for s in range(g.n))
                out.append(x_representation(PermutationModule(g, cosets, perms), ctx))
    return out


def _perturbed(rng, ctx, mats):
    """mats conjugated by a diagonal of p-powers (exact, but with p-power
    denominators), a few entries given lower precision, and most often one
    entry moved by zeta * p^k, zeta of conductor 1, 3 or 4, k near its
    precision."""
    p, dim = ctx.p, len(mats[0])
    exps = [rng.choice((0, 0, 1, 2)) for _ in range(dim)]
    out = []
    for mat in mats:
        rows = []
        for i, row in enumerate(mat):
            new = []
            for j, x in enumerate(row):
                d = exps[i] - exps[j]
                nums = tuple(c * p ** max(d, 0) for c in x.nums)
                new.append(CycloPadic(ctx, x.m, nums, x.prec, x.den * p ** max(-d, 0)))
            rows.append(new)
        out.append(rows)
    for _ in range(rng.randint(0, 3)):
        s, i, j = rng.randrange(len(out)), rng.randrange(dim), rng.randrange(dim)
        x = out[s][i][j]
        out[s][i][j] = CycloPadic(ctx, x.m, x.nums, x.prec - rng.randint(1, 3), x.den)
    if rng.random() < 0.75:
        s, i, j = rng.randrange(len(out)), rng.randrange(dim), rng.randrange(dim)
        x = out[s][i][j]
        zeta = make_root_of_unity(ctx, rng.choice((1, 3, 4)), 1)
        out[s][i][j] = x + zeta * ctx.make(p ** rng.randint(x.prec - 2, x.prec + 1))
    return out


def test_law_check_agrees_with_mat_mul_reference():
    outcomes = Counter()
    for p, cap_n in ((2, 8), (3, 6)):
        ctx = PrecisionContext(p=p, cap_N=cap_n, cap_D=10)
        rng = random.Random(f"law-check-{p}")
        for module in _seeded_modules(ctx):
            for _ in range(4):
                mats = _perturbed(rng, ctx, module.matrices)
                got = _built(module.group, mats)
                assert got == _reference_law(module.group, mats)
                outcomes[got] += 1
    assert outcomes[True] >= 20 and outcomes[False] >= 20
