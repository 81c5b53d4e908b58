"""Complex-cyclotomic character theory of finite groups over Q(zeta_e):
exact tables (hom enumeration for abelian groups, eigenvector splitting mod a
suitable prime with exact lifting for the rest), transforms, primitive central
idempotents, and constructive decomposition into inductions of linear
characters from elementary subgroups.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

from ._intpoly import factorize, is_prime, packed_mul
from .groups import FiniteGroup, SubgroupDesc
from .padic import CycloPadic, PrecisionContext, _split_p, make_root_of_unity
from .series import _recoord
from .snf import kernel_lattice, solve_integer

DEFAULT_ORDER_BOUND = 200


@dataclass(frozen=True)
class Character:
    """A class function with cyclotomic values; possibly virtual."""

    group: FiniteGroup
    values: tuple

    def __post_init__(self):
        if len(self.values) != self.group.num_classes:
            raise ValueError("one value per conjugacy class required")

    @property
    def ctx(self) -> PrecisionContext:
        return self.values[0].ctx

    @property
    def degree(self) -> CycloPadic:
        return self.values[0]

    def degree_int(self) -> int:
        d = self.values[0]
        if not d.is_rational():
            raise ValueError("degree is not rational")
        q = d.rational_value()
        if q.denominator != 1:
            raise ValueError("degree is not an integer")
        return int(q)

    def value(self, g: int) -> CycloPadic:
        return self.values[self.group.class_index[g]]

    def __add__(self, other: "Character") -> "Character":
        _same_group(self, other)
        return Character(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __sub__(self, other: "Character") -> "Character":
        _same_group(self, other)
        return Character(self.group, tuple(a - b for a, b in zip(self.values, other.values)))

    def __mul__(self, other):
        if isinstance(other, Character):
            return tensor(self, other)
        return Character(self.group, tuple(v * other for v in self.values))

    __rmul__ = __mul__

    def dual(self) -> "Character":
        return dual(self)

    def equals(self, other: "Character") -> bool:
        return self.group is other.group and all(a.equals(b) for a, b in zip(self.values, other.values))

    def is_irreducible(self) -> bool:
        ip = inner_product(self, self)
        return ip.equals(ip.ctx.one()) and not self.degree.is_exact_zero()

    def sort_key(self):
        key = []
        for v in self.values:
            key.append((v.m, tuple((c.numerator, c.denominator) for c in v.coeffs)))
        return (self.degree_int(), key)

    def __repr__(self):
        vals = ", ".join(str(v.coeffs[0]) if v.m == 1 else f"zeta[{v.m}]" for v in self.values[:6])
        return f"Character({self.group.name}; deg {self.values[0].coeffs[0]}; {vals}...)"


def _same_group(a: Character, b: Character):
    if a.group is not b.group:
        raise ValueError("characters live on different groups")


def trivial_character(group: FiniteGroup, ctx: PrecisionContext) -> Character:
    return Character(group, tuple(ctx.one() for _ in range(group.num_classes)))


# -- character tables ------------------------------------------------------------


def character_table(group: FiniteGroup, ctx: PrecisionContext, order_bound: int = DEFAULT_ORDER_BOUND):
    return _character_table_cached(group, ctx, order_bound)


_TABLE_CACHE: dict = {}


def _character_table_cached(group, ctx, order_bound):
    if group.n > order_bound:
        raise ValueError(f"group order {group.n} exceeds the bound {order_bound}")
    key = (id(group), ctx.p, ctx.cap_N)
    if key in _TABLE_CACHE:
        return _TABLE_CACHE[key]
    if group.is_abelian():
        table = _abelian_table(group, ctx)
    else:
        table = _dixon_table(group, ctx)
    total = sum(ch.degree_int() ** 2 for ch in table)
    if total != group.n or len(table) != group.num_classes:
        raise AssertionError("character table failed the degree check")
    table = sorted(table, key=Character.sort_key)
    _TABLE_CACHE[key] = table
    return table


def _abelian_table(group: FiniteGroup, ctx: PrecisionContext):
    """All homomorphisms G -> mu_e, found over a greedy generating set."""
    e = group.exponent
    gens = []
    known = group.closure([])
    while len(known) < group.n:
        candidates = [x for x in range(group.n) if x not in known]
        g = max(candidates, key=lambda x: group.orders[x])
        gens.append(g)
        known = group.closure(gens)
    if not gens:
        gens = [group.identity]
    orders = [group.orders[g] for g in gens]
    # enumerate exponent boxes; a candidate is consistent iff the induced value
    # is single-valued on every group element
    boxes = [[]]
    for o in orders:
        boxes = [b + [t] for b in boxes for t in range(o)]
    # element expression table: exponent tuple -> element
    expr = [[]]
    elems = [group.identity]
    for g, o in zip(gens, orders):
        new_expr, new_elems = [], []
        for ex, el in zip(expr, elems):
            acc = el
            for a in range(o):
                new_expr.append(ex + [a])
                new_elems.append(acc)
                acc = group.table[acc][g]
        expr, elems = new_expr, new_elems
    chars = []
    for cand in boxes:
        valexp = {}
        ok = True
        for ex, el in zip(expr, elems):
            s = sum(a * t * (e // o) for a, t, o in zip(ex, cand, orders)) % e
            if el in valexp and valexp[el] != s:
                ok = False
                break
            valexp.setdefault(el, s)
        if ok and len(valexp) == group.n:
            values = tuple(
                make_root_of_unity(ctx, e, valexp[group.class_rep(k)])
                for k in range(group.num_classes)
            )
            chars.append(Character(group, values))
    if len(chars) != group.n:
        raise AssertionError("abelian dual enumeration miscounted")
    return chars


def _find_modulus(e: int, n: int) -> int:
    ell = e + 1
    while True:
        if ell > 2 * isqrt(n) and is_prime(ell):
            return ell
        ell += e


def _primitive_root(ell: int) -> int:
    qs = list(factorize(ell - 1))
    for g in range(2, ell):
        if all(pow(g, (ell - 1) // q, ell) != 1 for q in qs):
            return g
    raise AssertionError("no primitive root found")


def _dixon_table(group: FiniteGroup, ctx: PrecisionContext):
    """Burnside-style splitting of the class algebra over F_ell, ell = 1 mod e,
    followed by the exact lift via root-of-unity multiplicity counts."""
    r = group.num_classes
    n = group.n
    e = group.exponent
    ell = _find_modulus(e, n)
    w = pow(_primitive_root(ell), (ell - 1) // e, ell)
    classes = group.conjugacy_classes
    cls_of = group.class_index

    # class-sum multiplication tensors a[i][j][k], scaled by |C_k|
    mats = []
    for i in range(r):
        acc = [[0] * r for _ in range(r)]
        for x in classes[i]:
            row = group.table[x]
            for y in range(n):
                acc[cls_of[y]][cls_of[row[y]]] += 1
        for j in range(r):
            for k in range(r):
                q, rem = divmod(acc[j][k], len(classes[k]))
                if rem:
                    raise AssertionError("class constants must divide evenly")
                acc[j][k] = q % ell
        # transpose: the splitting acts on row vectors, central characters are
        # right eigenvectors of (a_ijk)_{jk}
        mats.append([[acc[j][k] for j in range(r)] for k in range(r)])

    spaces = [[_unit_vec(r, i) for i in range(r)]]
    for i in range(1, r):
        if all(len(s) == 1 for s in spaces):
            break
        nxt = []
        for basis in spaces:
            if len(basis) == 1:
                nxt.append(basis)
                continue
            small = _action_matrix(mats[i], basis, ell)
            for lam in range(ell):
                # coordinate rows act by c -> c * small, so eigencoordinates are
                # the right kernel of small^T - lam
                shifted = [
                    [(small[b][a] - (lam if a == b else 0)) % ell for b in range(len(basis))]
                    for a in range(len(basis))
                ]
                ker = _kernel_mod(shifted, ell)
                if ker:
                    sub = [
                        [sum(v[t] * basis[t][j] for t in range(len(basis))) % ell for j in range(r)]
                        for v in ker
                    ]
                    nxt.append(sub)
        spaces = nxt
    if any(len(s) != 1 for s in spaces):
        raise AssertionError("class algebra did not split into lines")

    id_cls = cls_of[group.identity]
    chars = []
    for (vec,) in spaces:
        if vec[id_cls] % ell == 0:
            raise AssertionError("eigenvector vanishes at the identity class")
        scale = pow(vec[id_cls], -1, ell)
        v = [x * scale % ell for x in vec]  # v_j = |C_j| chi(g_j) / chi(1)
        t = 0
        for j in range(r):
            jj = group.inverse_class[j]
            t = (t + v[j] * v[jj] * pow(len(classes[j]), -1, ell)) % ell
        d2 = n * pow(t, -1, ell) % ell
        d = next((x for x in range(1, 2 * isqrt(n) + 1) if x * x % ell == d2), None)
        if d is None:
            raise AssertionError("degree recovery failed")
        chi_mod = [v[j] * d * pow(len(classes[j]), -1, ell) % ell for j in range(r)]
        values = []
        for j in range(r):
            g = group.class_rep(j)
            nj = group.orders[g]
            wn = pow(w, e // nj, ell)
            inv_nj = pow(nj, -1, ell)
            val = None
            acc_val = ctx.zero()
            for k in range(nj):
                c = 0
                for tt in range(nj):
                    c = (c + chi_mod[cls_of[group.power(g, tt)]] * pow(wn, (-tt * k) % nj, ell)) % ell
                c = c * inv_nj % ell
                if c > d:
                    raise AssertionError("eigenvalue multiplicity out of range")
                if c:
                    acc_val = acc_val + c * make_root_of_unity(ctx, nj, k)
            values.append(acc_val)
        chars.append(Character(group, tuple(values)))
    return chars


def _unit_vec(r, i):
    v = [0] * r
    v[i] = 1
    return v


def _action_matrix(mat, basis, ell):
    """Matrix of v -> v M restricted to the span of basis (row vectors)."""
    r = len(mat)
    images = []
    for b in basis:
        img = [sum(b[j] * mat[j][k] for j in range(r)) % ell for k in range(r)]
        images.append(img)
    # solve img = sum coords * basis via the rref of the basis
    rows = [list(b) for b in basis]
    coords = _solve_many_mod(rows, images, ell)
    return coords


def _rref_mod(rows, ncols, ell):
    """Reduced row echelon form over F_ell, pivoting on the first ncols
    columns: (rows, pivot columns)."""
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(ncols):
        row = len(pivots)
        if row == len(rows):
            break
        pr = next((i for i in range(row, len(rows)) if rows[i][col] % ell), None)
        if pr is None:
            continue
        rows[row], rows[pr] = rows[pr], rows[row]
        inv = pow(rows[row][col], -1, ell)
        rows[row] = [x * inv % ell for x in rows[row]]
        for i in range(len(rows)):
            if i != row and rows[i][col] % ell:
                f = rows[i][col]
                rows[i] = [(x - f * y) % ell for x, y in zip(rows[i], rows[row])]
        pivots.append(col)
    return rows, pivots


def _solve_many_mod(basis_rows, images, ell):
    """Coordinates of each image in the span of basis_rows, mod ell."""
    k = len(basis_rows)
    r = len(basis_rows[0])
    # row-reduce [basis | I] so we can express the span's elements
    aug, pivots = _rref_mod([list(b) + _unit_vec(k, i) for i, b in enumerate(basis_rows)], r, ell)
    out = []
    for img in images:
        rem = list(img)
        coord = [0] * k
        for i, col in enumerate(pivots):
            f = rem[col] % ell
            if f:
                coord = [(c + f * t) % ell for c, t in zip(coord, aug[i][r:])]
                rem = [(x - f * y) % ell for x, y in zip(rem, aug[i][:r])]
        if any(x % ell for x in rem):
            raise AssertionError("image not in span")
        out.append(coord)
    return out


def _kernel_mod(mat, ell):
    """Right-kernel basis of a square matrix over F_ell."""
    k = len(mat)
    rows, pivots = _rref_mod(mat, k, ell)
    out = []
    free = [c for c in range(k) if c not in pivots]
    for fc in free:
        v = [0] * k
        v[fc] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-rows[i][fc]) % ell
        out.append(v)
    return out


# -- scalar product and transforms --------------------------------------------------


def inner_product(a: Character, b: Character) -> CycloPadic:
    """(1/|G|) sum chi(s) psi(s^-1); symmetric and bilinear."""
    _same_group(a, b)
    g = a.group
    acc = a.ctx.zero()
    for j in range(g.num_classes):
        term = a.values[j] * b.values[g.inverse_class[j]]
        acc = acc + len(g.conjugacy_classes[j]) * term
    return acc * Fraction(1, g.n)


def induce(chi: Character, sub: SubgroupDesc) -> Character:
    """Induction from a subgroup via the averaged-conjugation formula."""
    if chi.group is not sub.as_group:
        raise ValueError("character must live on the subgroup view")
    g = sub.parent
    ctx = chi.ctx
    values = []
    for k in range(g.num_classes):
        rep = g.class_rep(k)
        acc = ctx.zero()
        for tau in range(g.n):
            c = g.conj(rep, tau)
            if c in sub.elements:
                acc = acc + chi.value(sub.from_parent[c])
        values.append(acc * Fraction(1, sub.order))
    return Character(g, tuple(values))


def restrict(chi: Character, sub: SubgroupDesc) -> Character:
    if chi.group is not sub.parent:
        raise ValueError("character does not live on the parent group")
    h = sub.as_group
    values = tuple(chi.value(sub.to_parent(h.class_rep(k))) for k in range(h.num_classes))
    return Character(h, values)


def inflate(chi: Character, group: FiniteGroup, quotient: FiniteGroup, proj) -> Character:
    """Pull back along group ->> quotient (proj maps elements to quotient elements)."""
    if chi.group is not quotient:
        raise ValueError("character does not live on the quotient")
    values = tuple(chi.value(proj[group.class_rep(k)]) for k in range(group.num_classes))
    return Character(group, values)


def dual(chi: Character) -> Character:
    g = chi.group
    return Character(g, tuple(chi.values[g.inverse_class[k]] for k in range(g.num_classes)))


def tensor(a: Character, b: Character) -> Character:
    _same_group(a, b)
    return Character(a.group, tuple(x * y for x, y in zip(a.values, b.values)))


def character_transform(kind: str, *args, **kwargs) -> Character:
    ops = {
        "induce": induce,
        "restrict": restrict,
        "inflate": inflate,
        "dual": dual,
        "tensor": tensor,
        "add": lambda a, b: a + b,
    }
    if kind not in ops:
        raise ValueError(f"unknown transform {kind!r}")
    return ops[kind](*args, **kwargs)


def conjugate_character(chi: Character, sub: SubgroupDesc, sigma: int) -> Character:
    """chi^sigma on the subgroup: tau -> chi(sigma tau sigma^-1); requires the
    subgroup to be stable under conjugation by sigma."""
    g = sub.parent
    h = sub.as_group
    values = []
    for k in range(h.num_classes):
        tau = sub.to_parent(h.class_rep(k))
        c = g.conj(tau, sigma)
        if c not in sub.elements:
            raise ValueError("subgroup is not stable under this conjugation")
        values.append(chi.value(sub.from_parent[c]))
    return Character(h, tuple(values))


def decompose(chi: Character, table) -> list[int]:
    """Multiplicities of chi in the irreducible basis; exact integers."""
    out = []
    for irr in table:
        ip = inner_product(irr, chi)
        if not ip.is_rational():
            raise ValueError("inner product is not rational")
        q = ip.rational_value()
        if q.denominator != 1:
            raise ValueError("multiplicity is not an integer")
        out.append(int(q))
    return out


# -- group algebra ------------------------------------------------------------------


@dataclass(frozen=True)
class GroupAlgebraElement:
    """Element of E[G], one cyclotomic coefficient per group element."""

    group: FiniteGroup
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.group.n:
            raise ValueError("one coefficient per group element required")

    @property
    def ctx(self):
        return self.coeffs[0].ctx

    def __add__(self, other):
        self._chk(other)
        return GroupAlgebraElement(self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._chk(other)
        return GroupAlgebraElement(self.group, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return GroupAlgebraElement(self.group, tuple(c * other for c in self.coeffs))
        self._chk(other)
        g = self.group
        if g.n > 16:
            fast = _cyclic_convolve(self, other)
            if fast is not None:
                return fast
        ctx = self.ctx
        out = [ctx.zero()] * g.n
        for a, ca in enumerate(self.coeffs):
            if ca.is_exact_zero():
                continue
            row = g.table[a]
            for b, cb in enumerate(other.coeffs):
                if not cb.is_exact_zero():
                    out[row[b]] = out[row[b]] + ca * cb
        return GroupAlgebraElement(g, tuple(out))

    __rmul__ = __mul__

    def _chk(self, other):
        if self.group is not other.group:
            raise ValueError("mixed group algebras")

    def equals(self, other) -> bool:
        return self.group is other.group and all(a.equals(b) for a, b in zip(self.coeffs, other.coeffs))

    def is_central(self) -> bool:
        g = self.group
        if g.is_abelian():
            return True
        return all(
            self.coeffs[g.conj(a, s)].equals(self.coeffs[a]) for a in range(g.n) for s in range(g.n)
        )


def _cyclic_log_table(group: FiniteGroup):
    """Discrete logarithms to a generator for a cyclic group, else None."""
    gen = next((x for x in range(group.n) if group.orders[x] == group.n), None)
    if gen is None:
        return None
    logs = [0] * group.n
    x = group.identity
    for k in range(group.n):
        logs[x] = k
        x = group.table[x][gen]
    return logs


def _cyclic_convolve(a: GroupAlgebraElement, b: GroupAlgebraElement):
    """Packed convolution for cyclic groups: one packed product in log
    coordinates, folded modulo u^n - 1.  The p-parts of the denominators are
    cleared by exact powers of p first, and the result carries the
    precision a scalar product of these coefficients would."""
    logs = _cyclic_log_table(a.group)
    if logs is None:
        return None
    ctx = a.ctx
    p = ctx.p
    big = lcm(*(c.m for c in a.coeffs + b.coeffs))
    pa = min(c.prec for c in a.coeffs)
    pb = min(c.prec for c in b.coeffs)
    fa = min(c.coeff_floor() for c in a.coeffs)  # an exact zero has floor _BIG
    fb = min(c.coeff_floor() for c in b.coeffs)
    ka, kb = max(0, -fa), max(0, -fb)
    work = min(pa, pb) + ka + kb
    if work <= 0:
        return None
    pmod = p**work
    n = a.group.n

    def slots(x: GroupAlgebraElement, k: int):
        # p^k * coefficient as integral coordinates, placed at its log index
        out = [None] * n
        for elem, c in enumerate(x.coeffs):
            pk, rest = _split_p(c.den, p)
            scale = p**k // pk * pow(rest, -1, pmod)
            out[logs[elem]] = _recoord([v * scale for v in c.nums], c.m, big, pmod)
        return out

    prod = packed_mul(slots(a, ka), slots(b, kb), big, 2 * n, pmod)
    prec = min(pa, pb, pa + fb, pb + fa, pa + pb)
    den = p ** (ka + kb)
    out = []
    for elem in range(n):
        k = logs[elem]
        out.append(CycloPadic(ctx, big, [(x + y) % pmod for x, y in zip(prod[k], prod[k + n])], prec, den))
    return GroupAlgebraElement(a.group, tuple(out))


def algebra_one(group: FiniteGroup, ctx: PrecisionContext) -> GroupAlgebraElement:
    coeffs = [ctx.zero()] * group.n
    coeffs[group.identity] = ctx.one()
    return GroupAlgebraElement(group, tuple(coeffs))


def idempotent(chi: Character) -> GroupAlgebraElement:
    """e(chi) = (chi(1)/|G|) sum chi(s^-1) s; requires chi irreducible."""
    if not chi.is_irreducible():
        raise ValueError("idempotents are attached to irreducible characters")
    g = chi.group
    scale = Fraction(chi.degree_int(), g.n)
    coeffs = tuple(chi.value(g.inv[s]) * scale for s in range(g.n))
    return GroupAlgebraElement(g, coeffs)


def project_idempotent(chi: Character, normal: SubgroupDesc):
    """Image of e(chi) under E[G] ->> E[G/N]: e(chi-bar) if N <= ker(chi), else 0."""
    if not normal.normal:
        raise ValueError("subgroup is not normal")
    g = chi.group
    if normal.parent is not g:
        raise ValueError("subgroup of a different group")
    q, proj = g.quotient(normal.elements)
    e = idempotent(chi)
    ctx = chi.ctx
    out = [ctx.zero()] * q.n
    for s, c in enumerate(e.coeffs):
        out[proj[s]] = out[proj[s]] + c
    return GroupAlgebraElement(q, tuple(out)), q, proj


def character_kernel(chi: Character) -> frozenset:
    """Elements s with chi(s) = chi(1), compared exactly: at a small budget
    chi(s) can be congruent to chi(1) mod p^prec off the kernel."""
    g = chi.group
    d = chi.values[g.class_index[g.identity]]
    return frozenset(s for s in range(g.n) if (chi.value(s) - d).is_exact_zero())


# -- elementary subgroups and constructive induction decomposition ------------------


def is_elementary_for(sub_group: FiniteGroup, ell: int) -> bool:
    """H = C_n x H_ell with gcd(n, ell) = 1: the ell-prime elements must form a
    cyclic central subgroup of the right order."""
    n = sub_group.n
    ell_part = 1
    rest = n
    while rest % ell == 0:
        ell_part *= ell
        rest //= ell
    prime_to_ell = [x for x in range(n) if gcd(sub_group.orders[x], ell) == 1]
    if len(prime_to_ell) != rest:
        return False
    cyc = any(sub_group.orders[x] == rest for x in prime_to_ell)
    if not cyc:
        return False
    s = set(prime_to_ell)
    for x in s:
        row = sub_group.table[x]
        for y in range(n):
            if row[y] != sub_group.table[y][x]:
                return False  # the would-be C_n is not central
    return True


def is_elementary(sub_group: FiniteGroup) -> bool:
    primes = list(factorize(sub_group.n)) or [2]
    return any(is_elementary_for(sub_group, ell) for ell in primes)


def elementary_subgroups(group: FiniteGroup, ell: int) -> list[SubgroupDesc]:
    """All ell-elementary subgroups up to conjugacy."""
    out = []
    for elems in group.subgroup_classes:
        sub = SubgroupDesc(group, elems)
        if is_elementary_for(sub.as_group, ell):
            out.append(sub)
    return out


def all_elementary_subgroups(group: FiniteGroup) -> list[SubgroupDesc]:
    out = []
    for elems in group.subgroup_classes:
        sub = SubgroupDesc(group, elems)
        if is_elementary(sub.as_group):
            out.append(sub)
    return out


def brauer_decompose(chi: Character, order_bound: int = DEFAULT_ORDER_BOUND):
    """Integer decomposition chi = sum z_i Ind(lambda_i, H_i) over linear
    characters of elementary subgroups.  Deterministic: exact minimal support
    up to 3 terms, then an SNF particular solution reduced by kernel vectors.
    """
    group = chi.group
    ctx = chi.ctx
    table = character_table(group, ctx, order_bound)
    # irreducible inputs decompose as an indicator without any inner products
    key = _values_key(chi.values)
    target = None
    for i, irr in enumerate(table):
        if _values_key(irr.values) == key:
            target = [0] * len(table)
            target[i] = 1
            break
    if target is None:
        target = decompose(chi, table)
    cols, witnesses = _induced_linear_columns(group, ctx, table, order_bound)

    # support-1/2/3 exact search in preference order: minimal support first,
    # then minimal sum |z|, then the (-|H|, lambda index) order of the columns
    best = None
    for c, col in enumerate(cols):
        z = _single_column_solve(col, target)
        if z is not None:
            score = (abs(z), (c,))
            if best is None or score < best[0]:
                best = (score, [(c, z)])
    if best is not None:
        return [(z, witnesses[c][0], witnesses[c][1]) for c, z in best[1]]
    for support in (2, 3):
        for combo in combinations(range(len(cols)), support):
            mat = [[cols[c][i] for c in combo] for i in range(len(target))]
            sol = solve_integer(mat, target)
            if sol is not None and all(sol):
                score = (sum(abs(z) for z in sol), combo)
                if best is None or score < best[0]:
                    best = (score, list(zip(combo, sol)))
        if best is not None:
            return [(z, witnesses[c][0], witnesses[c][1]) for c, z in best[1]]

    # general solution via SNF, then greedy reduction of sum |z| by kernel moves
    mat = [[cols[c][i] for c in range(len(cols))] for i in range(len(target))]
    sol = solve_integer(mat, target)
    if sol is None:
        raise AssertionError("induction decomposition must exist for virtual characters")
    kern = kernel_lattice(mat)
    improved = True
    while improved:
        improved = False
        for v in kern:
            for sgn in (1, -1):
                cand = [a + sgn * b for a, b in zip(sol, v)]
                if sum(map(abs, cand)) < sum(map(abs, sol)):
                    sol = cand
                    improved = True
    return [(z, witnesses[c][0], witnesses[c][1]) for c, z in enumerate(sol) if z]


def _induced_linear_columns(group, ctx, table, order_bound):
    """Coordinates (in the irreducible basis) of every Ind(lambda, H) with H
    elementary up to conjugacy and lambda linear; deterministic order.
    Cached on the group per (p, cap_N)."""
    cache = getattr(group, "_column_cache", None)
    if cache is None:
        cache = {}
        group._column_cache = cache
    cache_key = (ctx.p, ctx.cap_N)
    if cache_key in cache:
        return cache[cache_key]
    cols = []
    witnesses = []
    subs = all_elementary_subgroups(group)
    subs.sort(key=lambda s: (-s.order, s.sorted_elements))
    abelian = group.is_abelian()
    for sub in subs:
        h = sub.as_group
        htable = character_table(h, ctx, order_bound)
        linears = [c for c in htable if c.degree_int() == 1]
        if abelian:
            # Frobenius reciprocity: <chi, Ind lam> = [res chi = lam] for linear chi
            keys = {}
            for idx, lam in enumerate(linears):
                keys.setdefault(_values_key(lam.values), []).append(idx)
            by_lam = {idx: [0] * len(table) for idx in range(len(linears))}
            for i, chi in enumerate(table):
                res = restrict(chi, sub)
                for idx in keys.get(_values_key(res.values), []):
                    by_lam[idx][i] = 1
            for idx, lam in enumerate(linears):
                cols.append(by_lam[idx])
                witnesses.append((sub, lam))
        else:
            for lam in linears:
                ind = induce(lam, sub)
                cols.append(decompose(ind, table))
                witnesses.append((sub, lam))
    cache[cache_key] = (cols, witnesses)
    return cols, witnesses


def _single_column_solve(col, target):
    """Integer z with z * col = target, or None."""
    z = None
    for a, b in zip(col, target):
        if a == 0:
            if b != 0:
                return None
            continue
        if b % a:
            return None
        q = b // a
        if z is None:
            z = q
        elif z != q:
            return None
    return z if z not in (None, 0) else None


def _values_key(values):
    out = []
    for v in values:
        r = v.reduce_mod()
        out.append((r.m, r.nums, r.den))
    return tuple(out)


def resum_induced(decomp, group: FiniteGroup, ctx: PrecisionContext) -> Character:
    """Sum z * Ind(lambda, H) for verification against the input character."""
    acc = Character(group, tuple(ctx.zero() for _ in range(group.num_classes)))
    for z, sub, lam in decomp:
        acc = acc + z * induce(lam, sub)
    return acc
