"""Hom-space regulator determinants: realizations of irreducible characters,
bases of equivariant map spaces, the determinant of post-composition by an
equivariant map, and its invariance along the tower levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import linalg
from .characters import Character, character_table, induce, inner_product
from .groups import FiniteGroup, SubgroupDesc
from .padic import CycloPadic, PrecisionContext, _floor
from .tower import ArtinCharacter, LieTower, PermutationModule, xy_modules


class KernelConditionError(ArithmeticError):
    """The supplied map is not an isomorphism on the chi-part."""


@dataclass(frozen=True)
class RepresentationModule:
    """Explicit action matrices over the cyclotomic scalar field.

    Construction checks the law A_a A_b = A_ab for every generator a and
    every element b, entry by entry, as `CycloPadic.equals` decides it on the
    `linalg.mat_mul` product (the `linalg` docstring states that product and
    its precision rule).  It runs on the integer coordinates of the product:
    every matrix is converted once, over one denominator in the conductor of
    all of them, and an entry passes when the exact difference is zero or has
    coeff_floor at least the `mat_mul` precision of the product, joined with
    the target's."""

    group: FiniteGroup
    matrices: tuple  # one square matrix per group element

    def __post_init__(self):
        g, mats = self.group, self.matrices
        if len(mats) != g.n:
            raise ValueError("one matrix per group element required")
        dim = self.dim
        for mat in mats:
            if len(mat) != dim or any(len(r) != dim for r in mat):
                raise ValueError("ragged action matrix")
        # every entry over one denominator den: a product entry is dot / den^2
        # and its target t / den, so the two are equal when dot = t * den
        m = lcm(*(x.m for mat in mats for row in mat for x in row))
        lifted, den = linalg._lift([row for mat in mats for row in mat], m)
        scaled = linalg._coords(lifted, m)
        if den != 1:
            scaled = [[[c * den for c in t] for t in row] for row in scaled]
        rows = [lifted[s * dim : (s + 1) * dim] for s in range(g.n)]
        targets = [scaled[s * dim : (s + 1) * dim] for s in range(g.n)]
        cols = [list(zip(*mat)) for mat in rows]
        for a in g.generators:
            for b in range(g.n):
                c = g.table[a][b]
                for i, (u, wants) in enumerate(zip(rows[a], targets[c])):
                    gots = linalg._dots(u, cols[b], m)
                    if gots == wants:
                        continue
                    for j, (got, want) in enumerate(zip(gots, wants)):
                        if got == want:
                            continue
                        # a nonzero exact difference (got - want) / den^2
                        col = [r[j] for r in mats[b]]
                        prec = linalg._dot_prec(linalg._prec_floors(mats[a][i]), linalg._prec_floors(col))
                        t = mats[c][i][j]
                        if _floor([x - y for x, y in zip(got, want)], den * den, t.ctx.p) < min(prec, t.prec):
                            raise ValueError("matrices do not satisfy the multiplication table")

    @property
    def dim(self) -> int:
        return len(self.matrices[0])

    @property
    def ctx(self) -> PrecisionContext:
        return self.matrices[0][0][0].ctx

    def character(self) -> Character:
        return _character_of(self.group, self.matrices)

    def direct_sum(self, other: "RepresentationModule") -> "RepresentationModule":
        if self.group is not other.group:
            raise ValueError("mixed groups")
        ctx = self.ctx
        z = ctx.zero()
        mats = []
        for a, b in zip(self.matrices, other.matrices):
            n, m = len(a), len(b)
            rows = [list(r) + [z] * m for r in a]
            rows += [[z] * n + list(r) for r in b]
            mats.append(tuple(tuple(r) for r in rows))
        return RepresentationModule(self.group, tuple(mats))

    def tensor_linear(self, lam: Character) -> "RepresentationModule":
        mats = []
        for s in range(self.group.n):
            c = lam.value(s)
            mats.append(tuple(tuple(x * c for x in row) for row in self.matrices[s]))
        return RepresentationModule(self.group, tuple(mats))


def _mat_equals(a, b) -> bool:
    return all(x.equals(y) for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _character_of(group: FiniteGroup, mats) -> Character:
    """Trace character of an action given by one matrix per group element."""
    vals = []
    for k in range(group.num_classes):
        mat = mats[group.class_rep(k)]
        acc = mat[0][0]
        for i in range(1, len(mat)):
            acc = acc + mat[i][i]
        vals.append(acc)
    return Character(group, tuple(vals))


def _scalar_mats(int_mats, ctx: PrecisionContext) -> tuple:
    return tuple(tuple(tuple(ctx.make(v) for v in row) for row in ints) for ints in int_mats)


def _group_sum(ctx: PrecisionContext, coeffs, mats) -> tuple:
    """sum_s coeffs[s] * mats[s] over the group elements s."""
    n = len(mats[0])
    acc = [[ctx.zero()] * n for _ in range(n)]
    for c, mat in zip(coeffs, mats):
        if c.is_exact_zero():
            continue
        for i in range(n):
            row = mat[i]
            for j in range(n):
                if not row[j].is_exact_zero():
                    acc[i][j] = acc[i][j] + c * row[j]
    return tuple(tuple(row) for row in acc)


def permutation_representation(module: PermutationModule, ctx: PrecisionContext) -> RepresentationModule:
    mats = _scalar_mats(map(module.action_matrix, range(module.group.n)), ctx)
    return RepresentationModule(module.group, mats)


def x_representation(module: PermutationModule, ctx: PrecisionContext) -> RepresentationModule:
    """Action on the augmentation kernel in the e_i - e_0 basis."""
    mats = _scalar_mats(map(module.x_action_matrix, range(module.group.n)), ctx)
    return RepresentationModule(module.group, mats)


def irreducible_representation(chi: Character) -> RepresentationModule:
    """Realize an irreducible character with explicit matrices: linear directly,
    else a monomial induction from a linear character of a subgroup, else a
    multiplicity-one summand of a coset permutation module, else a twist of one
    of those by a linear character."""
    if not chi.is_irreducible():
        raise ValueError("only irreducible characters are realized")
    g = chi.group
    ctx = chi.ctx
    d = chi.degree_int()
    if d == 1:
        return RepresentationModule(g, tuple(((chi.value(s),),) for s in range(g.n)))
    mono = _monomial_realization(chi)
    if mono is not None:
        return mono
    perm = _permutation_summand_realization(chi)
    if perm is not None:
        return perm
    table = character_table(g, ctx)
    linears = [c for c in table if c.degree_int() == 1]
    for mu in linears[1:]:
        base = chi * mu.dual()
        for cand in (lambda: _monomial_realization(base), lambda: _permutation_summand_realization(base)):
            got = cand()
            if got is not None:
                return got.tensor_linear(mu)
    raise ValueError("no realization found in the catalog; supply matrices explicitly")


def _monomial_realization(chi: Character):
    g = chi.group
    ctx = chi.ctx
    d = chi.degree_int()
    for elems in g.subgroup_classes:
        if len(elems) * d != g.n:
            continue
        sub = SubgroupDesc(g, elems)
        htable = character_table(sub.as_group, ctx)
        for lam in htable:
            if lam.degree_int() != 1:
                continue
            # compared exactly: induce divides by |H|, and at the precision
            # left after that a wrong character can be congruent to chi
            if all(v.is_exact_zero() for v in (induce(lam, sub) - chi).values):
                return _induced_rep(lam, sub)
    return None


def _induced_rep(lam: Character, sub: SubgroupDesc) -> RepresentationModule:
    g = sub.parent
    cosets, coset_of = g.left_cosets(sub.elements)
    reps = [min(cs) for cs in cosets]  # left transversal, deterministic
    k = len(reps)
    zero = lam.ctx.zero()
    mats = []
    for s in range(g.n):
        mat = [[zero] * k for _ in range(k)]
        for i, r in enumerate(reps):
            sr = g.table[s][r]
            j = coset_of[sr]
            h = g.table[g.inv[reps[j]]][sr]
            mat[j][i] = lam.value(sub.from_parent[h])
        mats.append(tuple(tuple(row) for row in mat))
    return RepresentationModule(g, tuple(mats))


def _permutation_summand_realization(chi: Character):
    g = chi.group
    ctx = chi.ctx
    for elems in g.subgroup_classes:
        # G permutes the cosets xH; chi must occur once in the permutation character
        cosets, coset_of = g.left_cosets(elems)
        perms = tuple(tuple(coset_of[g.table[s][min(cs)]] for cs in cosets) for s in range(g.n))
        perm_mats = _scalar_mats(map(PermutationModule(g, cosets, perms).action_matrix, range(g.n)), ctx)
        ip = inner_product(chi, _character_of(g, perm_mats))
        if ip.is_rational() and ip.rational_value() == 1:
            mats = _on_isotypic_part(chi, perm_mats, perm_mats)
            return RepresentationModule(g, tuple(tuple(tuple(row) for row in mat) for mat in mats))
    return None


def _on_isotypic_part(chi: Character, mats, maps):
    """Matrices of the equivariant maps on e(chi)M, M acted on by mats (one
    matrix per group element), in the basis of the pivot columns of e(chi)."""
    g = chi.group
    ctx = chi.ctx
    scale = Fraction(chi.degree_int(), g.n)
    proj = _group_sum(ctx, [chi.value(g.inv[s]) * scale for s in range(g.n)], mats)
    basis = linalg.column_space_basis(proj, ctx)
    bmat = [[col[i] for col in basis] for i in range(len(proj))]
    return [_coords_in_columns(bmat, linalg.mat_mul(f, bmat), ctx) for f in maps]


def _coords_in_columns(bmat, img, ctx):
    """Solve bmat * X = img column by column (bmat has full column rank)."""
    k = len(bmat[0])
    out_cols = []
    for j in range(len(img[0])):
        rhs = [img[i][j] for i in range(len(img))]
        sol = linalg.solve(bmat, rhs, ctx)
        if sol is None:
            raise AssertionError("image left the invariant subspace")
        out_cols.append(sol)
    return [[out_cols[j][i] for j in range(len(out_cols))] for i in range(k)]


# -- hom spaces and the regulator ---------------------------------------------------


def hom_basis(v: RepresentationModule, m: RepresentationModule):
    """Deterministic basis of the equivariant maps V -> M (matrices dim_M x dim_V)."""
    if v.group is not m.group:
        raise ValueError("mixed groups")
    g = v.group
    ctx = v.ctx
    dv, dm = v.dim, m.dim
    rows = []
    for s in g.generators:
        a = m.matrices[s]
        b = v.matrices[s]
        # f b = a f: unknowns f[i][j] flattened
        for i in range(dm):
            for j in range(dv):
                row = [ctx.zero()] * (dm * dv)
                for t in range(dv):
                    row[i * dv + t] = row[i * dv + t] + b[t][j]
                for t in range(dm):
                    row[t * dv + j] = row[t * dv + j] - a[i][t]
                rows.append(row)
    null = linalg.kernel_basis(rows, ctx)
    return [
        [[vec[i * dv + j] for j in range(dv)] for i in range(dm)]
        for vec in null
    ]


@dataclass(frozen=True)
class RegulatorProblem:
    """chi-part determinant data: V affords chi, f: M -> M2 equivariant."""

    group: FiniteGroup
    chi: Character
    v_rep: RepresentationModule
    m: RepresentationModule
    m2: RepresentationModule
    f: tuple  # matrix dim_m2 x dim_m

    def __post_init__(self):
        if not self.chi.is_irreducible():
            raise ValueError("regulators are attached to irreducible characters")
        if not self.v_rep.character().equals(self.chi):
            raise ValueError("v_rep does not afford chi")
        for s in self.group.generators:
            lhs = linalg.mat_mul([list(r) for r in self.f], self.m.matrices[s])
            rhs = linalg.mat_mul(self.m2.matrices[s], [list(r) for r in self.f])
            if not _mat_equals(lhs, rhs):
                raise ValueError("f is not equivariant")


def regulator_det(problem: RegulatorProblem) -> CycloPadic:
    """Determinant of h -> f o h on Hom(V, M) in the deterministic bases."""
    ctx = problem.v_rep.ctx
    basis_m = hom_basis(problem.v_rep, problem.m)
    basis_m2 = hom_basis(problem.v_rep, problem.m2)
    if len(basis_m) != len(basis_m2):
        raise KernelConditionError("chi-multiplicities of source and target differ")
    d = len(basis_m)
    if d == 0:
        return ctx.one()  # empty determinant
    stack = [
        [basis_m2[t][i][j] for t in range(d)]
        for i in range(problem.m2.dim)
        for j in range(problem.v_rep.dim)
    ]
    cols = []
    fmat = [list(r) for r in problem.f]
    for h in basis_m:
        fh = linalg.mat_mul(fmat, h)
        rhs = [fh[i][j] for i in range(problem.m2.dim) for j in range(problem.v_rep.dim)]
        sol = linalg.solve(stack, rhs, ctx)
        if sol is None:
            raise AssertionError("composition left the hom space")
        cols.append(sol)
    mat = [[cols[j][i] for j in range(d)] for i in range(d)]
    out = linalg.det(mat, ctx)
    if not linalg.is_invertible(out):
        raise KernelConditionError("map is not an isomorphism on the chi-part")
    return out


def det_on_isotypic_part(chi: Character, m: RepresentationModule, f) -> CycloPadic:
    """det of f restricted to e(chi) M; equals regulator^chi(1) when M = M2."""
    (block,) = _on_isotypic_part(chi, m.matrices, [f])
    return linalg.det(block, chi.ctx)


def class_function_map(module_rep: RepresentationModule, coeffs) -> tuple:
    """Equivariant map sum_s c(class of s) rho(s); coeffs indexed by class."""
    g = module_rep.group
    ctx = module_rep.ctx
    coeffs = [ctx.make(c) for c in coeffs]
    if len(coeffs) != g.num_classes:
        raise ValueError("one coefficient per conjugacy class required")
    return _group_sum(ctx, [coeffs[k] for k in g.class_index], module_rep.matrices)


def regulator_layer_invariance(
    tower: LieTower,
    places,
    chi: ArtinCharacter,
    level_m: int,
    class_coeffs_m,
) -> bool:
    """Compare the regulator at chi's level n with the one at level m > n for
    the canonical permutation modules and the descended test map.

    The test map at level m is sum_s c(s) rho(s) with c a class function of
    G_m; its descent along Y_m ->> Y_n is the same sum through the projection,
    so both levels carry compatible data by construction."""
    n = chi.level
    if level_m < n:
        raise ValueError("comparison level must lie above chi's level")
    ctx = tower.ctx
    y_n, _, _ = xy_modules(tower, places, n)
    y_m, _, _ = xy_modules(tower, places, level_m)
    x_n = x_representation(y_n, ctx)
    x_m = x_representation(y_m, ctx)
    g_m = tower.level(level_m).group
    proj = tower.project_map(level_m, n)
    f_m = class_function_map(x_m, class_coeffs_m)
    # the same sum, pushed through the level projection: pi f_m = f_n pi
    g_n = tower.level(n).group
    coeffs = [ctx.make(class_coeffs_m[k]) for k in g_m.class_index]
    f_n = _group_sum(ctx, coeffs, [x_n.matrices[proj[s]] for s in range(g_m.n)])
    chi_m = chi.inflate_to(level_m)
    v_n = irreducible_representation(chi.char)
    v_m = irreducible_representation(chi_m.char)
    reg_n = regulator_det(RegulatorProblem(g_n, chi.char, v_n, x_n, x_n, f_n))
    reg_m = regulator_det(RegulatorProblem(g_m, chi_m.char, v_m, x_m, x_m, f_m))
    return reg_n.equals(reg_m)
