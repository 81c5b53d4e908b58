"""Determinant functors over products of cyclotomic fields, relative-K0
classes with explicit relation witnesses, reduced norms, boundary maps, and
the refined Euler characteristic of a trivialised complex of free modules.

R is the componentwise ring of integral elements, S the product of fields.
Class equality in K0(R, S) is never decided in general: classes carry their
defining data and the stated relations are verified by constructing explicit
witnesses (composition products, identity collapses, inverse pairings).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .padic import PrecisionContext


@dataclass(frozen=True)
class ProductRing:
    """S = product of cyclotomic coefficient fields; R = integral elements."""

    ctx: PrecisionContext
    conductors: tuple

    @property
    def k(self) -> int:
        return len(self.conductors)

    def one(self):
        return tuple(self.ctx.one() for _ in self.conductors)

    def zero(self):
        return tuple(self.ctx.zero() for _ in self.conductors)

    def elem_mul(self, a, b):
        return tuple(x * y for x, y in zip(a, b))

    def elem_inv(self, a):
        return tuple(linalg.exact_inverse(x) for x in a)

    def is_unit(self, a) -> bool:
        return all(linalg.is_invertible(x) for x in a)

    def is_integral(self, a) -> bool:
        return all(x.is_integral() for x in a)

    def elem_equals(self, a, b) -> bool:
        return all(x.equals(y) for x, y in zip(a, b))


@dataclass(frozen=True)
class FreeModuleRanks:
    """A componentwise-free module: one rank per ring component."""

    ring: ProductRing
    ranks: tuple

    def __post_init__(self):
        if len(self.ranks) != self.ring.k:
            raise ValueError("one rank per component required")
        if any(r < 0 for r in self.ranks):
            raise ValueError("ranks must be non-negative")


@dataclass(frozen=True)
class FreeModuleMap:
    """Componentwise matrices between componentwise-free modules."""

    ring: ProductRing
    source: FreeModuleRanks
    target: FreeModuleRanks
    comps: tuple  # per component, a (target_rank x source_rank) matrix

    def __post_init__(self):
        for c, mat in enumerate(self.comps):
            tr, sr = self.target.ranks[c], self.source.ranks[c]
            if len(mat) != tr or any(len(row) != sr for row in mat):
                raise ValueError("component matrix has wrong shape")

    def is_endomorphism(self) -> bool:
        return self.source.ranks == self.target.ranks

    def compose(self, first: "FreeModuleMap") -> "FreeModuleMap":
        """self o first."""
        if first.target.ranks != self.source.ranks:
            raise ValueError("composition shape mismatch")
        comps = tuple(
            tuple(tuple(r) for r in linalg.mat_mul([list(r) for r in a], [list(r) for r in b]))
            for a, b in zip(self.comps, first.comps)
        )
        return FreeModuleMap(self.ring, first.source, self.target, comps)

    def inverse(self) -> "FreeModuleMap":
        comps = []
        for c, mat in enumerate(self.comps):
            if self.source.ranks[c] != self.target.ranks[c]:
                raise ValueError("only square components invert")
            if self.source.ranks[c] == 0:
                comps.append(())
                continue
            comps.append(tuple(tuple(r) for r in linalg.mat_inverse([list(r) for r in mat], self.ring.ctx)))
        return FreeModuleMap(self.ring, self.target, self.source, tuple(comps))

    def is_integral(self) -> bool:
        return all(x.is_integral() for mat in self.comps for row in mat for x in row)

    def equals(self, other: "FreeModuleMap") -> bool:
        return (
            self.source.ranks == other.source.ranks
            and self.target.ranks == other.target.ranks
            and all(
                a.equals(b)
                for ca, cb in zip(self.comps, other.comps)
                for ra, rb in zip(ca, cb)
                for a, b in zip(ra, rb)
            )
        )


def identity_map(module: FreeModuleRanks) -> FreeModuleMap:
    ctx = module.ring.ctx
    comps = tuple(
        tuple(tuple(r) for r in linalg.identity_matrix(ctx, rank)) for rank in module.ranks
    )
    return FreeModuleMap(module.ring, module, module, comps)


def det_of_map(f: FreeModuleMap):
    """Componentwise determinant; the action of Det(f) on wedge generators."""
    if not f.is_endomorphism():
        raise ValueError("determinant needs a componentwise-square map")
    ctx = f.ring.ctx
    return tuple(linalg.det([list(r) for r in mat], ctx) for mat in f.comps)


# -- determinant generators ------------------------------------------------------


@dataclass(frozen=True)
class DetGenerator:
    """A generator of the invertible module Det(M): a unit scalar times the
    standard basis wedge, with the rank tuple as the grading."""

    module: FreeModuleRanks
    scalar: tuple  # unit of S
    grading: int = 1  # +1 for Det(M), -1 for Det(M)^{-1}

    def __post_init__(self):
        if not self.module.ring.is_unit(self.scalar):
            raise ValueError("generator scalar must be a unit")

    def scaled(self, unit) -> "DetGenerator":
        return DetGenerator(self.module, self.module.ring.elem_mul(self.scalar, unit), self.grading)

    def equals(self, other: "DetGenerator") -> bool:
        return (
            self.module.ranks == other.module.ranks
            and self.grading == other.grading
            and self.module.ring.elem_equals(self.scalar, other.scalar)
        )


def standard_generator(module: FreeModuleRanks) -> DetGenerator:
    return DetGenerator(module, module.ring.one())


def apply_det(f: FreeModuleMap, gen: DetGenerator) -> DetGenerator:
    """Det(f) on a generator: multiply by the componentwise determinant."""
    if gen.module.ranks != f.source.ranks:
        raise ValueError("generator does not live on the source")
    d = det_of_map(f)
    return DetGenerator(f.target, f.ring.elem_mul(gen.scalar, d), gen.grading)


def dual_generator(gen: DetGenerator) -> DetGenerator:
    """The unique functional with value 1 on the generator."""
    ring = gen.module.ring
    return DetGenerator(gen.module, ring.elem_inv(gen.scalar), -gen.grading)


def pairing_value(gen: DetGenerator, dual: DetGenerator):
    """ev(m (x) f) = f(m) for a generator and a functional on the same module."""
    if gen.module.ranks != dual.module.ranks or gen.grading != -dual.grading:
        raise ValueError("pairing needs a module and its inverse")
    return gen.module.ring.elem_mul(gen.scalar, dual.scalar)


def iota_value(gen: DetGenerator, x: DetGenerator):
    """iota_gen(x): the functional c * gen^* for x = c * gen."""
    ring = gen.module.ring
    c = ring.elem_mul(x.scalar, ring.elem_inv(gen.scalar))
    return dual_generator(gen).scaled(c)


def additivity_iso(
    iota: FreeModuleMap,
    pi: FreeModuleMap,
    sigma: FreeModuleMap,
    gen_sub: DetGenerator,
    gen_quot: DetGenerator,
) -> DetGenerator:
    """Image of gen_sub (x) gen_quot under Det(P') (x) Det(P'') -> Det(P) for a
    short exact sequence iota: P' -> P, pi: P ->> P'' with splitting sigma."""
    _verify_exact(iota, pi, sigma)
    ring = iota.ring
    ctx = ring.ctx
    dets = []
    for c in range(ring.k):
        cols = []
        for j in range(iota.source.ranks[c]):
            cols.append([iota.comps[c][i][j] for i in range(iota.target.ranks[c])])
        for j in range(sigma.source.ranks[c]):
            cols.append([sigma.comps[c][i][j] for i in range(sigma.target.ranks[c])])
        mat = [[cols[j][i] for j in range(len(cols))] for i in range(iota.target.ranks[c])]
        dets.append(linalg.det(mat, ctx))
    scalar = ring.elem_mul(ring.elem_mul(gen_sub.scalar, gen_quot.scalar), tuple(dets))
    return DetGenerator(iota.target, scalar)


def _verify_exact(iota: FreeModuleMap, pi: FreeModuleMap, sigma: FreeModuleMap):
    ring = iota.ring
    ctx = ring.ctx
    for c in range(ring.k):
        if iota.source.ranks[c] + pi.target.ranks[c] != iota.target.ranks[c]:
            raise ValueError("rank bookkeeping fails: not exact")
    comp = pi.compose(iota)
    if any(not x.is_exact_zero() and not x.equals(ctx.zero()) for mat in comp.comps for row in mat for x in row):
        raise ValueError("pi o iota != 0: not a complex")
    ident = pi.compose(sigma)
    expected = identity_map(pi.target)
    if not ident.equals(expected):
        raise ValueError("sigma is not a splitting of pi")
    for c, mat in enumerate(iota.comps):
        if iota.source.ranks[c]:
            cols = linalg.column_space_basis([list(r) for r in mat], ctx)
            if len(cols) != iota.source.ranks[c]:
                raise ValueError("iota is not injective")


def dual_inverse_check(f: FreeModuleMap, gen_m: DetGenerator, gen_n: DetGenerator):
    """The two row compositions of the dual-inverse square: alpha from Det(f),
    beta from Det(f^{-1}) computed independently; returns (alpha, beta) and
    checks beta = alpha^{-1}."""
    ring = f.ring
    alpha = pairing_value(apply_det(f, gen_m), dual_generator(gen_n))
    beta = pairing_value(apply_det(f.inverse(), gen_n), dual_generator(gen_m))
    if not ring.elem_equals(ring.elem_mul(alpha, beta), ring.one()):
        raise AssertionError("dual-inverse pairing failed: beta != alpha^{-1}")
    return alpha, beta


# -- relative K0 ------------------------------------------------------------------


@dataclass(frozen=True)
class RelK0Element:
    """[M, f, N] with its defining data and a provenance trail of relations."""

    ring: ProductRing
    source: FreeModuleRanks
    map: FreeModuleMap
    target: FreeModuleRanks
    provenance: tuple = ()

    def __post_init__(self):
        if self.source.ranks != self.target.ranks:
            raise ValueError("an S-isomorphism needs equal componentwise ranks")
        if not self.ring.is_unit(det_of_map(self.map)):
            raise ValueError("the middle map must be invertible over S")


def class_of_map(f: FreeModuleMap, note: str = "") -> RelK0Element:
    return RelK0Element(f.ring, f.source, f, f.target, (note,) if note else ())


def identity_class(module: FreeModuleRanks) -> RelK0Element:
    return class_of_map(identity_map(module), note="identity class: zero by relation (i)")


def is_identity_witness(cls: RelK0Element) -> bool:
    """[M, Id, M] = 0: witnessed by Id o Id = Id under relation (i)."""
    return cls.map.equals(identity_map(cls.source)) and cls.source.ranks == cls.target.ranks


def composition_witness(a: RelK0Element, b: RelK0Element) -> RelK0Element:
    """[M, g f, P] with the witness g f actually computed; relation (i) says
    this class equals [M, f, N] + [N, g, P]."""
    if a.target.ranks != b.source.ranks:
        raise ValueError("classes do not compose")
    comp = b.map.compose(a.map)
    return RelK0Element(
        a.ring, a.source, comp, b.target, a.provenance + b.provenance + ("composition witness",)
    )


def inverse_class(a: RelK0Element) -> RelK0Element:
    """[N, f^{-1}, M]; relation (i) applied to f^{-1} o f = Id witnesses
    [M, f, N] + [N, f^{-1}, M] = 0."""
    inv = a.map.inverse()
    return RelK0Element(a.ring, a.target, inv, a.source, a.provenance + ("inverse class",))


def verify_inverse_relation(a: RelK0Element) -> bool:
    back = composition_witness(a, inverse_class(a))
    return is_identity_witness(RelK0Element(back.ring, back.source, back.map, back.target))


def boundary_and_nr(ring: ProductRing, matrix_comps) -> tuple:
    """(reduced norm, boundary class) of an invertible matrix over S: the norm
    is the componentwise determinant in units(S), the boundary is [R^n, x, R^n]."""
    ranks = FreeModuleRanks(ring, tuple(len(mat) for mat in matrix_comps))
    f = FreeModuleMap(ring, ranks, ranks, tuple(tuple(tuple(r) for r in m) for m in matrix_comps))
    nr = det_of_map(f)
    if not ring.is_unit(nr):
        raise ValueError("matrix is singular over S")
    cls = class_of_map(f, note="boundary of a K1 class")
    return nr, cls


# -- trivialised complexes and the refined Euler characteristic --------------------


@dataclass(frozen=True)
class TrivializedComplex:
    """Bounded complex of componentwise-free R-modules with differentials over
    R, plus a trivialisation t: H^odd(C_S) -> H^even(C_S) given per component
    in the deterministic cohomology coordinates (see cohomology_data)."""

    ring: ProductRing
    degrees: tuple
    ranks: dict
    diffs: dict  # degree i -> per-component matrix P^i -> P^{i+1}
    t: tuple | None  # per component: matrix (dim H^even x dim H^odd), or None if all zero

    def __post_init__(self):
        ctx = self.ring.ctx
        for i in self.degrees:
            if i + 1 in self.degrees and i in self.diffs:
                d0 = self.diffs[i]
                for c in range(self.ring.k):
                    for row in d0[c]:
                        for x in row:
                            if not x.is_integral():
                                raise ValueError("differentials must be integral (over R)")
                if i + 1 in self.diffs:
                    for c in range(self.ring.k):
                        prod = linalg.mat_mul(
                            [list(r) for r in self.diffs[i + 1][c]], [list(r) for r in d0[c]]
                        )
                        if any(not x.equals(ctx.zero()) for row in prod for x in row):
                            raise ValueError("d o d != 0")

    def rank(self, i: int, c: int) -> int:
        return self.ranks[i][c] if i in self.ranks else 0

    def diff(self, i: int, c: int):
        if i in self.diffs:
            return [list(r) for r in self.diffs[i][c]]
        src = self.rank(i, c)
        tgt = self.rank(i + 1, c)
        return [[self.ring.ctx.zero()] * src for _ in range(tgt)]


def two_term_complex(ring: ProductRing, matrix_comps, low_degree: int = 0) -> TrivializedComplex:
    """[R^n --f--> R^n] in degrees (low_degree, low_degree + 1) with f injective
    over S; the trivialisation is the empty map (cohomology vanishes over S)."""
    n = tuple(len(mat) for mat in matrix_comps)
    ranks = {low_degree: n, low_degree + 1: n}
    diffs = {low_degree: tuple(tuple(tuple(r) for r in m) for m in matrix_comps)}
    return TrivializedComplex(ring, (low_degree, low_degree + 1), ranks, diffs, None)


def shift_complex(c: TrivializedComplex) -> TrivializedComplex:
    """C[1]: degree i becomes i - 1; odd and even swap, so t becomes t^{-1}."""
    degrees = tuple(i - 1 for i in c.degrees)
    ranks = {i - 1: r for i, r in c.ranks.items()}
    diffs = {i - 1: d for i, d in c.diffs.items()}
    t = None
    if c.t is not None:
        t = tuple(
            tuple(tuple(r) for r in linalg.mat_inverse([list(r) for r in comp], c.ring.ctx))
            for comp in c.t
        )
    return TrivializedComplex(c.ring, degrees, ranks, diffs, t)


def cohomology_data(c: TrivializedComplex):
    """Per component: deterministic bases of Z, B, and complement representatives
    for H in each degree; used to interpret the trivialisation and to build
    phi_t. Returns {degree: per-component dict}."""
    ctx = c.ring.ctx
    out = {}
    for i in c.degrees:
        per_comp = []
        for comp in range(c.ring.k):
            n_i = c.rank(i, comp)
            d_i = c.diff(i, comp)
            d_prev = c.diff(i - 1, comp)
            z_basis = (
                linalg.kernel_basis([list(r) for r in d_i], ctx)
                if d_i and n_i
                else [[ctx.one() if a == b else ctx.zero() for a in range(n_i)] for b in range(n_i)]
            )
            b_basis = []
            b_pivot_cols = []
            if c.rank(i - 1, comp) and n_i:
                rows = d_prev
                _, pivots = linalg.rref([list(r) for r in rows])
                b_pivot_cols = pivots
                b_basis = [[rows[a][j] for a in range(n_i)] for j in pivots]
            # complement of B inside Z: greedy extension, deterministic
            h_reps = []
            current = [list(v) for v in b_basis]
            for v in z_basis:
                trial = current + [list(v)]
                mat = [[trial[a][b] for a in range(len(trial))] for b in range(n_i)]
                cols = linalg.column_space_basis(mat, ctx)
                if len(cols) == len(trial):
                    current.append(list(v))
                    h_reps.append(list(v))
            per_comp.append(
                {
                    "z": [list(v) for v in z_basis],
                    "b": [list(v) for v in b_basis],
                    "b_pivot_cols": list(b_pivot_cols),
                    "h": h_reps,
                }
            )
        out[i] = per_comp
    return out


def cohomology_dims(c: TrivializedComplex):
    data = cohomology_data(c)
    odd = []
    even = []
    for comp in range(c.ring.k):
        odd.append(sum(len(data[i][comp]["h"]) for i in c.degrees if i % 2))
        even.append(sum(len(data[i][comp]["h"]) for i in c.degrees if i % 2 == 0))
    return tuple(odd), tuple(even)


def rec_class(c: TrivializedComplex, shear_seed: int | None = None) -> RelK0Element:
    """[P^odd, phi_t, P^even] from the splitting chain; deterministic splittings
    (leftmost pivots), optionally sheared by a seeded perturbation to exercise
    the splitting-independence of the class determinant."""
    import random as _random

    ctx = c.ring.ctx
    rng = _random.Random(shear_seed) if shear_seed is not None else None
    data = cohomology_data(c)
    odd_dims, even_dims = cohomology_dims(c)
    if c.t is None:
        if any(odd_dims) or any(even_dims):
            raise ValueError("missing trivialisation for non-vanishing cohomology")
    else:
        for comp in range(c.ring.k):
            tmat = c.t[comp]
            if len(tmat) != even_dims[comp] or any(len(r) != odd_dims[comp] for r in tmat):
                raise ValueError("trivialisation has the wrong shape")
            if odd_dims[comp] and not linalg.is_invertible(linalg.det([list(r) for r in tmat], ctx)):
                raise ValueError("trivialisation is not invertible")

    odd_degs = sorted(i for i in c.degrees if i % 2)
    even_degs = sorted(i for i in c.degrees if i % 2 == 0)
    comps = []
    for comp in range(c.ring.k):
        odd_rank = sum(c.rank(i, comp) for i in odd_degs)
        even_rank = sum(c.rank(i, comp) for i in even_degs)
        if odd_rank != even_rank:
            raise ValueError("odd and even ranks differ; no trivialised class")
        phi = _phi_t_component(c, comp, data, odd_degs, even_degs, rng)
        comps.append(tuple(tuple(r) for r in phi))
    source = FreeModuleRanks(c.ring, tuple(sum(c.rank(i, comp) for i in odd_degs) for comp in range(c.ring.k)))
    target = FreeModuleRanks(c.ring, tuple(sum(c.rank(i, comp) for i in even_degs) for comp in range(c.ring.k)))
    f = FreeModuleMap(c.ring, source, target, tuple(comps))
    return RelK0Element(c.ring, source, f, target, ("refined Euler characteristic",))


def _phi_t_component(c, comp, data, odd_degs, even_degs, rng):
    ctx = c.ring.ctx
    odd_offset = {}
    acc = 0
    for i in odd_degs:
        odd_offset[i] = acc
        acc += c.rank(i, comp)
    odd_rank = acc
    even_offset = {}
    acc = 0
    for i in even_degs:
        even_offset[i] = acc
        acc += c.rank(i, comp)
    even_rank = acc

    # odd H coordinates are stacked in degree order; same for even
    h_odd_offset = {}
    acc = 0
    for i in odd_degs:
        h_odd_offset[i] = acc
        acc += len(data[i][comp]["h"])
    h_even_offset = {}
    acc = 0
    for i in even_degs:
        h_even_offset[i] = acc
        acc += len(data[i][comp]["h"])

    # sheared H-complements: changing representatives by boundaries is another
    # legitimate splitting choice and must not move the class
    h_local = {}
    for i in c.degrees:
        h_vecs = [list(v) for v in data[i][comp]["h"]]
        if rng is not None and h_vecs:
            b_vecs = data[i][comp]["b"]
            for idx in range(len(h_vecs)):
                for b in b_vecs:
                    coef = ctx.make(rng.randint(-2, 2))
                    h_vecs[idx] = [a + coef * bb for a, bb in zip(h_vecs[idx], b)]
        h_local[i] = h_vecs

    # splitting s_i : B^{i+1} -> P^i via the pivot columns (plus optional shear
    # by a kernel-valued perturbation: the class determinant must not move)
    def splitting_vectors(i):
        dat_next = data[i + 1][comp] if i + 1 in data else None
        if dat_next is None:
            return []
        cols = dat_next["b_pivot_cols"]
        n_i = c.rank(i, comp)
        vecs = []
        for j in cols:
            v = [ctx.zero()] * n_i
            v[j] = ctx.one()
            vecs.append(v)
        if rng is not None and vecs:
            z_vecs = data[i][comp]["z"]
            for idx in range(len(vecs)):
                for z in z_vecs:
                    coef = ctx.make(rng.randint(-2, 2))
                    vecs[idx] = [a + coef * b for a, b in zip(vecs[idx], z)]
        return vecs

    phi = [[ctx.zero()] * odd_rank for _ in range(even_rank)]
    for i in odd_degs:
        n_i = c.rank(i, comp)
        if n_i == 0:
            continue
        d_i = c.diff(i, comp)
        dat = data[i][comp]
        s_vecs = splitting_vectors(i)
        b_next = data[i + 1][comp]["b"] if (i + 1) in data else []
        for e_idx in range(n_i):
            col = [ctx.zero()] * even_rank
            # image d(e) in B^{i+1} coordinates
            de = [d_i[r][e_idx] for r in range(len(d_i))] if d_i else []
            if b_next:
                mat = [[b_next[j][a] for j in range(len(b_next))] for a in range(len(de))]
                beta = linalg.solve(mat, de, ctx)
                if beta is None:
                    raise AssertionError("differential image left its own column space")
            else:
                beta = []
            # z = e - s(de)
            z = [ctx.zero()] * n_i
            z[e_idx] = ctx.one()
            for coef, svec in zip(beta, s_vecs):
                z = [a - coef * b for a, b in zip(z, svec)]
            # decompose z in [B^i | H^i]
            b_here = dat["b"]
            h_here = h_local[i]
            basis = [list(v) for v in b_here] + [list(v) for v in h_here]
            if basis:
                mat = [[basis[j][a] for j in range(len(basis))] for a in range(n_i)]
                coords = linalg.solve(mat, z, ctx)
                if coords is None:
                    raise AssertionError("cycle decomposition failed")
                gamma = coords[: len(b_here)]
                eta = coords[len(b_here) :]
            else:
                gamma, eta = [], []
            # B^{i+1} part: include into P^{i+1} (even) through the B-basis
            if beta and (i + 1) in even_offset:
                off = even_offset[i + 1]
                for coef, bvec in zip(beta, b_next):
                    for a, val in enumerate(bvec):
                        if not val.is_exact_zero():
                            col[off + a] = col[off + a] + coef * val
            # gamma in B^i goes through the splitting of P^{i-1} ->> B^i
            if gamma and (i - 1) in even_offset:
                off = even_offset[i - 1]
                s_prev = splitting_vectors(i - 1)
                for coef, svec in zip(gamma, s_prev):
                    for a, val in enumerate(svec):
                        if not val.is_exact_zero():
                            col[off + a] = col[off + a] + coef * val
            # eta goes through t into even H representatives
            if eta and c.t is not None:
                tmat = c.t[comp]
                stacked = [ctx.zero()] * len(tmat)
                off_o = h_odd_offset[i]
                for r in range(len(tmat)):
                    accv = ctx.zero()
                    for jj, coef in enumerate(eta):
                        accv = accv + tmat[r][off_o + jj] * coef
                    stacked[r] = accv
                for j_deg in even_degs:
                    h_j = h_local[j_deg]
                    off_h = h_even_offset[j_deg]
                    off = even_offset[j_deg]
                    for local, hvec in enumerate(h_j):
                        coef = stacked[off_h + local]
                        if not coef.is_exact_zero():
                            for a, val in enumerate(hvec):
                                if not val.is_exact_zero():
                                    col[off + a] = col[off + a] + coef * val
            for r in range(even_rank):
                phi[r][odd_offset[i] + e_idx] = col[r]
    return phi
