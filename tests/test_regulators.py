import random

import pytest

from iwlab import linalg
from iwlab.characters import character_table, trivial_character
from iwlab.groups import cyclic_group, quaternion_group, symmetric_group
from iwlab.padic import PrecisionContext
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
from iwlab.tower import ArtinCharacter, PlaceDatum, SplitTower, xy_modules

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
