"""One-dimensional p-adic Lie groups modelled by compatible finite quotients.

A tower holds a finite group H and a central procyclic direction; level n is
the finite quotient G_n.  Split towers are H x C_{p^n}; attested towers accept
an arbitrary central extension G* with a distinguished central gamma of order
p^{n_max} (levels are G*/<gamma^{p^n}>), verifying centrality, normality of H,
trivial intersection, and that G*/H is a cyclic p-group.

Characters at finite levels, type-W twists, Clifford stabiliser indices w_chi,
restriction idempotents e_chi, twisted evaluation of series quotients, and the
coset permutation modules attached to places with their coinvariant kernel
orders all live here.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .characters import (
    Character,
    GroupAlgebraElement,
    character_table,
    conjugate_character,
    decompose,
    idempotent,
    inflate,
    restrict,
)
from .groups import FiniteGroup, SubgroupDesc, cyclic_group, direct_product
from .padic import CycloPadic, PrecisionContext, galois_apply
from .series import SeriesQuotient, TruncatedSeries, evaluate_quotient


@dataclass(frozen=True)
class LevelData:
    group: FiniteGroup
    gamma: int
    h_sub: SubgroupDesc


class LieTower:
    def __init__(self, ctx: PrecisionContext, n_max: int):
        self.ctx = ctx
        self.p = ctx.p
        self.n_max = n_max
        self._levels: dict[int, LevelData] = {}
        # callers may share a tower across threads: each level is built once,
        # so every caller sees the same group object its characters live on
        self._lock = threading.RLock()

    # subclass hooks: _build_level(n), _project_map(m, n)

    def level(self, n: int) -> LevelData:
        if n < 0 or n > self.n_max:
            raise ValueError(f"level {n} outside [0, {self.n_max}]")
        with self._lock:
            if n not in self._levels:
                self._levels[n] = self._build_level(n)
            return self._levels[n]

    def project_map(self, m: int, n: int):
        """Element map G_m -> G_n for n <= m."""
        if n > m:
            raise ValueError("projection goes down the tower")
        with self._lock:
            return self._project_map(m, n)


class SplitTower(LieTower):
    """G = H x (procyclic direction); level n is H x C_{p^n}."""

    def __init__(self, ctx: PrecisionContext, h_group: FiniteGroup, n_max: int):
        super().__init__(ctx, n_max)
        self.h_group = h_group

    def _build_level(self, n: int) -> LevelData:
        q = self.p**n
        g = direct_product(self.h_group, cyclic_group(q), name=f"{self.h_group.name}xC{q}")
        gamma = self.h_group.identity * q + (1 % q)
        h_elems = frozenset(h * q for h in range(self.h_group.n))
        return LevelData(g, gamma, SubgroupDesc(g, h_elems, name="H"))

    def _project_map(self, m: int, n: int):
        qm, qn = self.p**m, self.p**n
        return tuple((x // qm) * qn + (x % qm) % qn for x in range(self.h_group.n * qm))


class AttestedTower(LieTower):
    """Levels are G*/<gamma^(p^n)>; the extension need not split."""

    def __init__(self, ctx: PrecisionContext, g_star: FiniteGroup, gamma: int, h_elements, n_max: int):
        super().__init__(ctx, n_max)
        self.g_star = g_star
        self.gamma = gamma
        self.h_elements = frozenset(h_elements)
        self._validate()
        self._projs: dict[int, tuple] = {}

    def _validate(self):
        g = self.g_star
        if g.orders[self.gamma] != self.p**self.n_max:
            raise ValueError("gamma must have order p^n_max")
        if any(g.table[self.gamma][x] != g.table[x][self.gamma] for x in range(g.n)):
            raise ValueError("gamma must be central")
        if not g.is_subgroup(self.h_elements):
            raise ValueError("H is not a subgroup")
        if not g.is_normal(self.h_elements):
            raise ValueError("H must be normal")
        gamma_sub = g.closure([self.gamma])
        if gamma_sub & self.h_elements != {g.identity}:
            raise ValueError("gamma subgroup must meet H trivially")
        q, _ = g.quotient(self.h_elements)
        if max(q.orders) != q.n:
            raise ValueError("G*/H must be cyclic")
        k = q.n
        while k % self.p == 0:
            k //= self.p
        if k != 1:
            raise ValueError("G*/H must be a p-group")

    def _quotient_at(self, n: int):
        key = n
        if key not in self._projs:
            sub = self.g_star.closure([self.g_star.power(self.gamma, self.p**n)])
            q, proj = self.g_star.quotient(sub)
            self._projs[key] = (q, proj)
        return self._projs[key]

    def _build_level(self, n: int) -> LevelData:
        q, proj = self._quotient_at(n)
        gamma = proj[self.gamma]
        h_elems = frozenset(proj[h] for h in self.h_elements)
        return LevelData(q, gamma, SubgroupDesc(q, h_elems, name="H"))

    def _project_map(self, m: int, n: int):
        _, proj_m = self._quotient_at(m)
        _, proj_n = self._quotient_at(n)
        gm, _ = self._quotient_at(m)
        reps = [None] * gm.n
        for x in range(self.g_star.n):
            if reps[proj_m[x]] is None:
                reps[proj_m[x]] = x
        return tuple(proj_n[r] for r in reps)


# -- characters on the tower -----------------------------------------------------


@dataclass(frozen=True)
class ArtinCharacter:
    """A character of some finite level; records agree after common inflation."""

    tower: LieTower
    level: int
    char: Character

    def __post_init__(self):
        if self.char.group is not self.tower.level(self.level).group:
            raise ValueError("character does not live on the stated level")

    def inflate_to(self, m: int) -> "ArtinCharacter":
        if m == self.level:
            return self
        if m < self.level:
            raise ValueError("can only inflate to a deeper level")
        gm = self.tower.level(m).group
        gn = self.tower.level(self.level).group
        proj = self.tower.project_map(m, self.level)
        return ArtinCharacter(self.tower, m, inflate(self.char, gm, gn, proj))

    def is_irreducible(self) -> bool:
        return self.char.is_irreducible()

    def same_as(self, other: "ArtinCharacter") -> bool:
        m = max(self.level, other.level)
        return self.inflate_to(m).char.equals(other.inflate_to(m).char)


@dataclass(frozen=True)
class TypeWCharacter:
    """A linear character trivial on H, recorded by its value on the generator."""

    value: CycloPadic

    def __post_init__(self):
        v = self.value
        p = v.ctx.p
        ok = False
        k = v.m
        if k == 1:
            ok = v.equals(v.ctx.one())
        else:
            kk = k
            while kk % p == 0:
                kk //= p
            ok = kk == 1 and (v**v.m).equals(v.ctx.one())
        if not ok:
            raise ValueError("type-W value must be a p-power root of unity")


def w_chi(tower: LieTower, chi: ArtinCharacter) -> int:
    """Index of the Clifford stabiliser of a restriction constituent; a p-power."""
    if not chi.is_irreducible():
        raise ValueError("w_chi requires an irreducible character")
    lv = tower.level(chi.level)
    eta = _first_constituent(tower, chi)
    g = lv.group
    stab = sum(1 for s in range(g.n) if conjugate_character(eta, lv.h_sub, s).equals(eta))
    w, rem = divmod(g.n, stab)
    if rem:
        raise AssertionError("stabiliser order must divide the group order")
    k = w
    while k % tower.p == 0:
        k //= tower.p
    if k != 1:
        raise AssertionError("stabiliser index must be a power of p")
    return w


def _first_constituent(tower: LieTower, chi: ArtinCharacter) -> Character:
    lv = tower.level(chi.level)
    res = restrict(chi.char, lv.h_sub)
    htable = character_table(lv.h_sub.as_group, tower.ctx)
    mults = decompose(res, htable)
    for eta, m in zip(htable, mults):
        if m > 0:
            return eta
    raise AssertionError("restriction has no constituent")


def restriction_constituents(tower: LieTower, chi: ArtinCharacter):
    lv = tower.level(chi.level)
    res = restrict(chi.char, lv.h_sub)
    htable = character_table(lv.h_sub.as_group, tower.ctx)
    return [(eta, m) for eta, m in zip(htable, decompose(res, htable)) if m > 0]


def e_chi(tower: LieTower, chi: ArtinCharacter) -> GroupAlgebraElement:
    """Sum of e(eta) over the irreducible constituents of the restriction to H."""
    if not chi.is_irreducible():
        raise ValueError("e_chi requires an irreducible character")
    parts = restriction_constituents(tower, chi)
    acc = None
    for eta, _m in parts:
        e = idempotent(eta)
        acc = e if acc is None else acc + e
    return acc


def w_equivalent(tower: LieTower, chi: ArtinCharacter, chi2: ArtinCharacter) -> bool:
    """Equal restrictions to H (equivalently, equal idempotents e_chi)."""
    m = max(chi.level, chi2.level)
    a = chi.inflate_to(m)
    b = chi2.inflate_to(m)
    lv = tower.level(m)
    return restrict(a.char, lv.h_sub).equals(restrict(b.char, lv.h_sub))


def twisted_evaluate(tower: LieTower, q: SeriesQuotient, chi: ArtinCharacter, rho: TypeWCharacter):
    """Evaluate at the twist point rho(gamma)^w_chi - 1."""
    w = w_chi(tower, chi)
    point = rho.value**w - 1
    return evaluate_quotient(q, point)


def uniqueness_from_twists(
    tower: LieTower,
    q: SeriesQuotient,
    q2: SeriesQuotient,
    chi: ArtinCharacter,
    rhos,
    degree_bound: int,
) -> bool:
    """True iff the twisted evaluations agree on all of rhos; with more than
    2 * degree_bound points of pairwise distinct twist values this certifies
    equality within the degree bound."""
    w = w_chi(tower, chi)
    points = []
    for rho in rhos:
        pt = rho.value**w - 1
        points.append(pt)
    for i, a in enumerate(points):
        for b in points[:i]:
            if a.equals(b):
                raise ValueError("twist points must be pairwise distinct")
    if len(points) <= 2 * degree_bound:
        raise ValueError("not enough twists for the stated degree bound")
    for pt in points:
        va = evaluate_quotient(q, pt)
        vb = evaluate_quotient(q2, pt)
        if _is_inf(va) != _is_inf(vb):
            return False
        if not _is_inf(va) and not va.equals(vb):
            return False
    return True


def _is_inf(v) -> bool:
    from .series import INFINITY

    return v is INFINITY


def galois_transport(a: int, q: SeriesQuotient, chi: ArtinCharacter):
    """Apply the coefficient automorphism zeta -> zeta^a to the quotient and
    transport the character; evaluation commutes with the transport."""
    new_num = _galois_series(a, q.num)
    new_den = _galois_series(a, q.den)
    new_vals = tuple(galois_apply(a, v) for v in chi.char.values)
    new_chi = ArtinCharacter(chi.tower, chi.level, Character(chi.char.group, new_vals))
    return SeriesQuotient(new_num, new_den, reduced=q.reduced), new_chi


def _galois_series(a: int, f: TruncatedSeries) -> TruncatedSeries:
    coeffs = [galois_apply(a, f.coeff(i)) for i in range(f.ctx.cap_D)]
    return TruncatedSeries.from_coeffs(f.ctx, coeffs, prec=f.prec)


# -- places and permutation modules ------------------------------------------------


@dataclass(frozen=True)
class PlaceDatum:
    """Decomposition data of a place at the deepest level of the tower."""

    tower: LieTower
    label: str
    archimedean: bool
    norm: int | None
    decomp_elements: frozenset

    def __post_init__(self):
        lv = self.tower.level(self.tower.n_max)
        if not lv.group.is_subgroup(self.decomp_elements):
            raise ValueError("decomposition set is not a subgroup")
        if self.archimedean:
            if len(self.decomp_elements) > 2:
                raise ValueError("archimedean decomposition groups have order <= 2")
        else:
            if self.norm is None or self.norm <= 1:
                raise ValueError("finite places need an integer norm > 1")
            self.k_v  # must exist: decomposition subgroup open in the tower direction

    @property
    def k_v(self) -> int:
        """Least k with gamma^(p^k) inside the decomposition subgroup."""
        lv = self.tower.level(self.tower.n_max)
        for k in range(self.tower.n_max + 1):
            if lv.group.power(lv.gamma, self.tower.p**k) in self.decomp_elements:
                return k
        raise ValueError("decomposition subgroup is not open in the tower direction")

    def decomposition_at(self, n: int) -> frozenset:
        proj = self.tower.project_map(self.tower.n_max, n)
        return frozenset(proj[x] for x in self.decomp_elements)


def n_of_s(tower: LieTower, finite_places) -> int:
    """Least n with gamma^(p^n) inside every decomposition subgroup."""
    places = list(finite_places)
    if not places:
        raise ValueError("need at least one finite place")
    if any(v.archimedean for v in places):
        raise ValueError("archimedean place in the finite-place list")
    return max(v.k_v for v in places)


@dataclass(frozen=True)
class PermutationModule:
    """Direct sum over places of coset permutation modules at one level."""

    group: FiniteGroup
    basis: tuple  # (place index, frozenset coset) labels
    perms: tuple  # per group element, a permutation of basis indices

    @property
    def rank(self) -> int:
        return len(self.basis)

    def action_matrix(self, g: int):
        perm = self.perms[g]
        n = self.rank
        return [[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)]

    def x_action_matrix(self, g: int):
        """Action on the augmentation kernel in the basis e_i - e_0."""
        perm = self.perms[g]
        n = self.rank
        out = [[0] * (n - 1) for _ in range(n - 1)]
        for j in range(1, n):
            img = perm[j]
            img0 = perm[0]
            # e_j - e_0 -> e_{img} - e_{img0} = (e_img - e_0) - (e_img0 - e_0)
            if img != 0:
                out[img - 1][j - 1] += 1
            if img0 != 0:
                out[img0 - 1][j - 1] -= 1
        return out


def xy_modules(tower: LieTower, places, n: int):
    """(Y, X descriptor, augmentation) at level n: Y permutes the cosets of the
    decomposition subgroups, X is the augmentation kernel of rank |basis| - 1."""
    lv = tower.level(n)
    g = lv.group
    basis = []
    blocks = []  # (offset in basis, least element of each coset, coset index)
    for pi, v in enumerate(places):
        cosets, coset_of = g.left_cosets(v.decomposition_at(n))
        blocks.append((len(basis), [min(cs) for cs in cosets], coset_of))
        basis.extend((pi, cs) for cs in cosets)
    perms = tuple(
        tuple(off + coset_of[g.table[s][x]] for off, reps, coset_of in blocks for x in reps)
        for s in range(g.n)
    )
    y = PermutationModule(g, tuple(basis), perms)
    aug = tuple(1 for _ in basis)
    x_rank = y.rank - 1
    return y, x_rank, aug


def coinvariant_kernel_order(tower: LieTower, finite_places, n: int) -> int:
    """min over places of p^max(0, k_v - n); 1 iff some place is non-split
    above level n."""
    places = list(finite_places)
    if not places:
        raise ValueError("need at least one finite place")
    if any(v.archimedean for v in places):
        raise ValueError("archimedean place in the finite-place list")
    return min(tower.p ** max(0, v.k_v - n) for v in places)
