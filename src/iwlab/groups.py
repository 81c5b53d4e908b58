"""Finite groups as Cayley tables: constructors, conjugacy classes, subgroup
enumeration up to conjugacy, quotients, and subgroup views.

Elements are indices 0..n-1.  Construction verifies the group axioms (identity,
inverses, associativity via Light's test on a generating set).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from math import gcd, lcm


class FiniteGroup:
    def __init__(self, table, name: str = "G", labels=None):
        self.table = tuple(tuple(row) for row in table)
        self.n = len(self.table)
        self.name = name
        self.labels = list(labels) if labels is not None else list(range(self.n))
        self._verify()
        self.identity = self._find_identity()
        self.inv = self._build_inverses()

    # -- construction-time verification ------------------------------------

    def _verify(self):
        n = self.n
        for row in self.table:
            if len(row) != n or sorted(row) != list(range(n)):
                raise ValueError("multiplication table rows must be permutations")
        for j in range(n):
            col = sorted(self.table[i][j] for i in range(n))
            if col != list(range(n)):
                raise ValueError("multiplication table columns must be permutations")
        e = self._find_identity()
        gens = self._greedy_generators(e)
        # Light's associativity test: checking a(bc) = (ab)c for all generators a
        # and all b, c suffices when rows/columns are permutations
        for a in gens:
            ta = self.table[a]
            for b in range(n):
                ab = ta[b]
                for c in range(n):
                    if self.table[ab][c] != ta[self.table[b][c]]:
                        raise ValueError("multiplication table is not associative")

    def _find_identity(self) -> int:
        for e in range(self.n):
            if all(self.table[e][x] == x and self.table[x][e] == x for x in range(self.n)):
                return e
        raise ValueError("no identity element")

    def _build_inverses(self):
        inv = [None] * self.n
        for a in range(self.n):
            for b in range(self.n):
                if self.table[a][b] == self.identity:
                    if self.table[b][a] != self.identity:
                        raise ValueError("one-sided inverse")
                    inv[a] = b
                    break
            if inv[a] is None:
                raise ValueError("missing inverse")
        return tuple(inv)

    def _greedy_generators(self, e: int):
        gens: list[int] = []
        known = {e}
        for x in range(self.n):
            if x not in known:
                gens.append(x)
                frontier = [x]
                while frontier:
                    nxt = []
                    for a in frontier:
                        for b in list(known) + [a]:
                            for c in (self.table[a][b], self.table[b][a]):
                                if c not in known:
                                    known.add(c)
                                    nxt.append(c)
                    frontier = nxt
                if len(known) == self.n:
                    break
        return gens

    # -- basic operations ---------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def conj(self, a: int, g: int) -> int:
        """g a g^-1."""
        return self.table[self.table[g][a]][self.inv[g]]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv[a], -k)
        result = self.identity
        base = a
        while k:
            if k & 1:
                result = self.table[result][base]
            base = self.table[base][base]
            k >>= 1
        return result

    @cached_property
    def generators(self):
        """A small generating set (greedy closure order)."""
        return tuple(self._greedy_generators(self.identity)) or (self.identity,)

    @cached_property
    def orders(self):
        out = [0] * self.n
        for a in range(self.n):
            x, k = a, 1
            while x != self.identity:
                x = self.table[x][a]
                k += 1
            out[a] = k
        return tuple(out)

    @cached_property
    def exponent(self) -> int:
        e = 1
        for o in self.orders:
            e = lcm(e, o)
        return e

    def is_abelian(self) -> bool:
        return all(
            self.table[a][b] == self.table[b][a] for a in range(self.n) for b in range(a)
        )

    # -- conjugacy classes ----------------------------------------------------

    @cached_property
    def conjugacy_classes(self):
        """List of sorted element tuples; class 0 is the identity's."""
        seen = [False] * self.n
        classes = []
        for a in range(self.n):
            if not seen[a]:
                orbit = sorted({self.conj(a, g) for g in range(self.n)})
                for x in orbit:
                    seen[x] = True
                classes.append(tuple(orbit))
        classes.sort(key=lambda c: (c != (self.identity,), self.orders[c[0]], c))
        return tuple(classes)

    @cached_property
    def class_index(self):
        idx = [0] * self.n
        for k, cls in enumerate(self.conjugacy_classes):
            for x in cls:
                idx[x] = k
        return tuple(idx)

    @property
    def num_classes(self) -> int:
        return len(self.conjugacy_classes)

    def class_rep(self, k: int) -> int:
        return self.conjugacy_classes[k][0]

    @cached_property
    def inverse_class(self):
        return tuple(self.class_index[self.inv[self.class_rep(k)]] for k in range(self.num_classes))

    def centralizer_order(self, a: int) -> int:
        return self.n // len(self.conjugacy_classes[self.class_index[a]])

    # -- subgroups -------------------------------------------------------------

    def closure(self, gens) -> frozenset:
        known = {self.identity}
        frontier = list(set(gens))
        known.update(frontier)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(known):
                    for c in (self.table[a][b], self.table[b][a]):
                        if c not in known:
                            known.add(c)
                            nxt.append(c)
            frontier = nxt
        return frozenset(known)

    @cached_property
    def all_subgroups(self):
        """Every subgroup, as frozensets, by closure BFS; desk scale."""
        subs = {frozenset([self.identity])}
        frontier = list(subs)
        cyclics = {self.closure([a]) for a in range(self.n)}
        subs.update(cyclics)
        frontier = list(cyclics)
        while frontier:
            new = []
            for h in frontier:
                if len(h) == self.n:
                    continue
                for g in range(self.n):
                    if g not in h:
                        ext = self.closure(list(h) + [g])
                        if ext not in subs:
                            subs.add(ext)
                            new.append(ext)
            frontier = new
        return sorted(subs, key=lambda s: (len(s), sorted(s)))

    def conjugate_subgroup(self, elems: frozenset, g: int) -> frozenset:
        return frozenset(self.conj(a, g) for a in elems)

    @cached_property
    def subgroup_classes(self):
        """Conjugacy classes of subgroups; a sorted tuple of orbit representatives."""
        seen = set()
        reps = []
        for h in self.all_subgroups:
            if h not in seen:
                orbit = {self.conjugate_subgroup(h, g) for g in range(self.n)}
                seen.update(orbit)
                reps.append(h)
        return tuple(reps)

    def is_subgroup(self, elems) -> bool:
        s = set(elems)
        if self.identity not in s:
            return False
        return all(self.table[a][b] in s for a in s for b in s) and all(self.inv[a] in s for a in s)

    def is_normal(self, elems) -> bool:
        s = frozenset(elems)
        return all(self.conjugate_subgroup(s, g) == s for g in range(self.n))

    def subgroup(self, elems, name: str | None = None) -> "SubgroupDesc":
        if not self.is_subgroup(elems):
            raise ValueError("not closed under product and inverse")
        return SubgroupDesc(self, frozenset(elems), name=name)

    def quotient(self, normal_elems):
        """(quotient group, projection list); requires a normal subgroup.
        Cached: the same subgroup yields the identical quotient object."""
        nset = frozenset(normal_elems)
        cache = getattr(self, "_quotient_cache", None)
        if cache is None:
            cache = {}
            self._quotient_cache = cache
        if nset in cache:
            return cache[nset]
        if not self.is_subgroup(nset):
            raise ValueError("not a subgroup")
        if not self.is_normal(nset):
            raise ValueError("subgroup is not normal")
        cosets, proj = self.left_cosets(nset)
        reps = [min(coset) for coset in cosets]
        k = len(reps)
        table = [[proj[self.table[reps[i]][reps[j]]] for j in range(k)] for i in range(k)]
        q = FiniteGroup(table, name=f"{self.name}/N", labels=[self.labels[r] for r in reps])
        cache[nset] = (q, proj)
        return cache[nset]

    def left_cosets(self, elems):
        """(cosets, index): the left cosets xH of the subgroup H = elems as
        frozensets, in order of their least element, and index[x] = the
        position of x's coset."""
        index = [None] * self.n
        cosets = []
        for x in range(self.n):
            if index[x] is None:
                coset = frozenset(self.table[x][h] for h in elems)
                for y in coset:
                    index[y] = len(cosets)
                cosets.append(coset)
        return tuple(cosets), tuple(index)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.n})"


@dataclass(frozen=True)
class SubgroupDesc:
    """A subgroup of `parent` with an explicit element set."""

    parent: FiniteGroup
    elements: frozenset
    name: str | None = None

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def normal(self) -> bool:
        return self.parent.is_normal(self.elements)

    @cached_property
    def sorted_elements(self):
        return tuple(sorted(self.elements))

    @cached_property
    def as_group(self) -> FiniteGroup:
        order = {g: i for i, g in enumerate(self.sorted_elements)}
        table = [
            [order[self.parent.table[a][b]] for b in self.sorted_elements]
            for a in self.sorted_elements
        ]
        labels = [self.parent.labels[g] for g in self.sorted_elements]
        return FiniteGroup(table, name=self.name or f"sub({self.parent.name})", labels=labels)

    def to_parent(self, i: int) -> int:
        return self.sorted_elements[i]

    @cached_property
    def from_parent(self):
        return {g: i for i, g in enumerate(self.sorted_elements)}


# -- constructors -------------------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)], name=f"C{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup, name: str | None = None) -> FiniteGroup:
    n, m = g.n, h.n
    table = [
        [g.table[a][c] * m + h.table[b][d] for c in range(n) for d in range(m)]
        for a in range(n)
        for b in range(m)
    ]
    labels = [(g.labels[a], h.labels[b]) for a in range(n) for b in range(m)]
    return FiniteGroup(table, name=name or f"{g.name}x{h.name}", labels=labels)


def abelian_group(*orders: int) -> FiniteGroup:
    out = cyclic_group(orders[0])
    for k in orders[1:]:
        out = direct_product(out, cyclic_group(k))
    out.name = "C" + "xC".join(str(k) for k in orders)
    return out


def dihedral_group(n: int) -> FiniteGroup:
    """Order 2n: r^n = s^2 = 1, s r s = r^-1; element i + n*e is r^i s^e."""
    size = 2 * n

    def mul(x, y):
        i, e = x % n, x // n
        j, f = y % n, y // n
        if e == 0:
            return (i + j) % n + n * f
        return (i - j) % n + n * (1 - f)

    return FiniteGroup([[mul(x, y) for y in range(size)] for x in range(size)], name=f"D{n}")


def dicyclic_group(m: int) -> FiniteGroup:
    """Order 4m: a^(2m) = 1, b^2 = a^m, b a b^-1 = a^-1; Q8 is m = 2."""
    size = 4 * m
    n2 = 2 * m

    def mul(x, y):
        i, e = x % n2, x // n2
        j, f = y % n2, y // n2
        if e == 0:
            return (i + j) % n2 + n2 * f
        # (a^i b)(a^j b^f) = a^(i-j) b^(1+f)
        i2 = (i - j) % n2
        if f == 0:
            return i2 + n2
        return (i2 + m) % n2  # b^2 = a^m

    name = f"Q{size}" if (m & (m - 1)) == 0 else f"Dic{m}"
    return FiniteGroup([[mul(x, y) for y in range(size)] for x in range(size)], name=name)


def quaternion_group() -> FiniteGroup:
    return dicyclic_group(2)


def symmetric_group(n: int) -> FiniteGroup:
    if n > 5:
        raise ValueError("symmetric groups only up to n = 5")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(table, name=f"S{n}", labels=perms)


def alternating_group(n: int) -> FiniteGroup:
    if n > 5:
        raise ValueError("alternating groups only up to n = 5")

    def sign(p):
        s = 1
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    s = -s
        return s

    perms = sorted(p for p in permutations(range(n)) if sign(p) == 1)
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[i]] for i in range(n))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(table, name=f"A{n}", labels=perms)


def semidirect_product(n_grp: FiniteGroup, h_grp: FiniteGroup, action, name: str | None = None) -> FiniteGroup:
    """N x| H with action[h] a permutation of N's elements (an automorphism);
    element (a, b) is a * h_grp.n + b."""
    for b in range(h_grp.n):
        perm = action[b]
        if sorted(perm) != list(range(n_grp.n)):
            raise ValueError("action entries must be permutations of N")
        for x in range(n_grp.n):
            for y in range(n_grp.n):
                if perm[n_grp.table[x][y]] != n_grp.table[perm[x]][perm[y]]:
                    raise ValueError("action is not by automorphisms")
    m = h_grp.n

    def mul(u, v):
        a, b = divmod(u, m)
        c, d = divmod(v, m)
        return n_grp.table[a][action[b][c]] * m + h_grp.table[b][d]

    size = n_grp.n * m
    return FiniteGroup(
        [[mul(u, v) for v in range(size)] for u in range(size)],
        name=name or f"{n_grp.name}:{h_grp.name}",
    )
