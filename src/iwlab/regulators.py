"""Hom-space regulator determinants: realizations of irreducible characters,
bases of equivariant map spaces, the determinant of post-composition by an
equivariant map, and its invariance along the tower levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from . import linalg
from ._intpoly import euler_phi, polymul, reduce_cyclotomic
from .characters import Character, character_table, induce, inner_product
from .groups import FiniteGroup, SubgroupDesc
from .padic import _BIG, CycloPadic, PrecisionContext, _embed_nums, _vp_int
from .tower import ArtinCharacter, LieTower, PermutationModule, xy_modules


class KernelConditionError(ArithmeticError):
    """The supplied map is not an isomorphism on the chi-part."""


@dataclass(frozen=True)
class RepresentationModule:
    """Explicit action matrices over the cyclotomic scalar field.

    Construction checks the law A_a A_b = A_ab for every generator a and
    every element b, entry by entry, as the congruence `CycloPadic.equals`
    decides it on the `linalg.mat_mul` product: an entry passes when the
    exact difference is zero or has coeff_floor at least the precision
    `mat_mul` would give the product, joined with the target's.  The
    products are taken on integer coordinates in one conductor."""

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
        big_m = lcm(*(x.m for mat in mats for row in mat for x in row))
        phi = euler_phi(big_m)
        coords = [_int_coords(mat, big_m, phi) for mat in mats]
        for a in g.generators:
            rows_a, _, den_a = coords[a]
            for b in range(g.n):
                _, cols_b, den_b = coords[b]
                c = g.table[a][b]
                rows_c, _, den_c = coords[c]
                den_ab = den_a * den_b
                for i, row in enumerate(rows_a):
                    for j, col in enumerate(cols_b):
                        if phi == 1:
                            diff = (sum(map(mul, row, col)) * den_c - rows_c[i][j] * den_ab,)
                        else:
                            target = rows_c[i][j] or (0,) * phi
                            diff = [u * den_c - v * den_ab for u, v in zip(_coord_dot(row, col, big_m), target)]
                        if any(diff) and not _congruent(
                            diff, den_ab * den_c, mats[a][i], [r[j] for r in mats[b]], mats[c][i][j]
                        ):
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


def _int_coords(mat, big_m: int, phi: int):
    """(rows, columns, den): the entries of mat over one common denominator,
    as integer numerators when phi(big_m) = 1, else as coordinate tuples in
    conductor big_m with () for a zero entry."""
    den = lcm(*(x.den for row in mat for x in row))
    if phi == 1:
        rows = [[x.nums[0] * (den // x.den) for x in row] for row in mat]
    else:
        rows = [
            [tuple(c * (den // x.den) for c in _embed_nums(x.nums, x.m, big_m)) if any(x.nums) else () for x in row]
            for row in mat
        ]
    return rows, list(zip(*rows)), den


def _coord_dot(row, col, m: int) -> list[int]:
    """sum_t row[t] * col[t] on coordinate tuples in conductor m: the polymul
    products summed, then one reduction mod Phi_m."""
    terms = [polymul(x, y) for x, y in zip(row, col) if x and y]
    return reduce_cyclotomic([sum(cs) for cs in zip(*terms)] if terms else [0], m)


def _congruent(diff, den, row, col, target: CycloPadic) -> bool:
    """`CycloPadic.equals` of the `linalg.mat_mul` product of row and col with
    target, given their nonzero exact difference diff / den in integer
    coordinates.  coeff_floor is the same in every conductor; the product's
    precision is the min over its terms, zero terms included."""
    p = target.ctx.p
    prec = min(min(x.prec + y.coeff_floor(), y.prec + x.coeff_floor(), x.prec + y.prec, _BIG) for x, y in zip(row, col))
    return _vp_int(gcd(*diff), p) - _vp_int(den, p) >= min(prec, target.prec)


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


def irreducible_representation(chi: Character, order_bound: int = 200) -> RepresentationModule:
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
    mono = _monomial_realization(chi, order_bound)
    if mono is not None:
        return mono
    perm = _permutation_summand_realization(chi, order_bound)
    if perm is not None:
        return perm
    table = character_table(g, ctx, order_bound)
    linears = [c for c in table if c.degree_int() == 1]
    for mu in linears[1:]:
        base = chi * mu.dual()
        for cand in (lambda: _monomial_realization(base, order_bound), lambda: _permutation_summand_realization(base, order_bound)):
            got = cand()
            if got is not None:
                return got.tensor_linear(mu)
    raise ValueError("no realization found in the catalog; supply matrices explicitly")


def _monomial_realization(chi: Character, order_bound: int):
    g = chi.group
    ctx = chi.ctx
    d = chi.degree_int()
    for elems in g.subgroup_classes:
        if len(elems) * d != g.n:
            continue
        sub = SubgroupDesc(g, elems)
        htable = character_table(sub.as_group, ctx, order_bound)
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


def _permutation_summand_realization(chi: Character, order_bound: int):
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
