"""Arithmetic in O_E[[T]] and its fraction field, truncated in degree and precision.

The internal coefficient format is a list of integer coordinate vectors on the
power basis of the conductor, reduced mod p^prec; series equality is equality
modulo (p^cap_N, T^cap_D).  Series and distinguished polynomials multiply by
`_intpoly.packed_mul`, the one packed product, divide by a monic polynomial
with `_monic_divmod`, the one long division, evaluate at a scalar with
`_horner`, the one Horner loop, and change conductor by `_recoord` without
building scalars.  Weierstrass preparation lifts
f = u * T^d mod the radical to f = u * P by Newton iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from ._intpoly import euler_phi, packed_mul, polymul, reduce_cyclotomic
from .padic import CycloPadic, PrecisionContext, PrecisionError, _embed_nums, _floor


class Infinity:
    """Evaluation blew up: denominator vanished, numerator did not."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = Infinity()


# -- integer-coordinate kernels -------------------------------------------------


def _scalar_to_coords(x: CycloPadic, m: int, prec: int) -> tuple[int, ...]:
    """Coordinates in conductor m of the integral scalar x, reduced into
    [0, p^n) with n = min(prec, x.prec)."""
    if m % x.m != 0:
        raise ValueError(f"{x.m} does not divide {m}")
    n = min(prec, x.prec)
    if n <= 0:
        raise PrecisionError("no precision left to reduce to")
    p = x.ctx.p
    if x.den % p == 0:
        raise ValueError("series coefficients must be integral")
    nums = x.nums if m == x.m else _embed_nums(x.nums, x.m, m)
    pmod = p**n
    if x.den == 1:
        return tuple(c % pmod for c in nums)
    r = pow(x.den, -1, pmod)
    return tuple(c * r % pmod for c in nums)


def _recoord(u, m: int, big_m: int, pmod: int) -> tuple[int, ...]:
    """The coordinates u in conductor m rewritten in conductor big_m (a
    multiple of m) and reduced mod pmod = p^prec, which must exceed 1."""
    if pmod <= 1:
        raise PrecisionError("no precision left to reduce to")
    if m != big_m:
        u = _embed_nums(tuple(u), m, big_m)
    return tuple(c % pmod for c in u)


def _coords_of(ctx: PrecisionContext, coeffs, prec: int | None):
    """(m, prec, coords): ints, Fractions or scalars as integral coordinates
    over their common conductor m; prec defaults to cap_N."""
    prec = ctx.cap_N if prec is None else prec
    vals = [c if isinstance(c, CycloPadic) else ctx.make(c) for c in coeffs]
    m = lcm(1, *(v.m for v in vals))
    return m, prec, [_scalar_to_coords(v, m, prec) for v in vals]


def _coords_to_scalar(ctx: PrecisionContext, m: int, coords, prec: int) -> CycloPadic:
    return CycloPadic(ctx, m, coords, prec, 1)


def _zmul(u, v, m: int, pmod: int) -> tuple[int, ...]:
    return tuple(c % pmod for c in reduce_cyclotomic(polymul(u, v), m))


def _zadd(u, v, pmod):
    return tuple((a + b) % pmod for a, b in zip(u, v))


def _zsub(u, v, pmod):
    return tuple((a - b) % pmod for a, b in zip(u, v))


def _zzero(m):
    return (0,) * euler_phi(m)


def _zone(m):
    return (1,) + (0,) * (euler_phi(m) - 1)


def _horner(ctx: PrecisionContext, m: int, prec: int, coords, x: CycloPadic) -> CycloPadic:
    """sum_i coords[i] * x^i for coordinates in conductor m at precision prec,
    by Horner's rule on exact integer coordinates over the one conductor
    lcm(m, x.m) and one denominator, with no reduction mod p^k.  The precision
    follows the scalar product rule at every step, so the result is the
    `CycloPadic` of the scalar loop acc = acc * x + c_i."""
    if len(coords) == 1:
        return CycloPadic(ctx, m, coords[0], prec, 1)
    big = lcm(m, x.m)
    if big != m:
        coords = [_embed_nums(u, m, big) for u in coords]
    xs = x.nums if x.m == big else _embed_nums(x.nums, x.m, big)
    p, xden, xprec = ctx.p, x.den, x.prec
    fx = _floor(xs, xden, p)
    acc, den, acc_prec = coords[-1], 1, prec
    for c in reversed(coords[:-1]):
        acc_prec = min(acc_prec + fx, xprec + _floor(acc, den, p), acc_prec + xprec, prec)
        den *= xden
        acc = [a + den * b for a, b in zip(reduce_cyclotomic(polymul(acc, xs), big), c)]
    return CycloPadic(ctx, big, acc, acc_prec, den)


def _ser_mul(a, b, m: int, pmod: int, out_len: int):
    """Truncated product of two coordinate series over conductor m."""
    return packed_mul(a, b, m, out_len, pmod)


def _ser_is_zero(a):
    return all(all(c == 0 for c in u) for u in a)


def _ser_inverse(a, m: int, pmod: int, out_len: int, ctx: PrecisionContext, prec: int):
    """Inverse of a unit series (constant term a unit of the order)."""
    c0 = _coords_to_scalar(ctx, m, a[0], prec)
    if not c0.is_unit():
        raise PrecisionError("series is not a unit (constant term not a unit)")
    c0i = _scalar_to_coords(c0.inverse(), m, prec)
    phi = euler_phi(m)
    if phi == 1:  # rational coordinates: the recurrence in plain ints
        a0 = [u[0] for u in a]
        inv0 = c0i[0]
        vals = [inv0]
        for n in range(1, out_len):
            acc = sum(a0[i] * vals[n - i] for i in range(1, min(n, len(a) - 1) + 1))
            vals.append(-inv0 * acc % pmod)
        return [(c,) for c in vals]
    out = [c0i]
    for n in range(1, out_len):
        acc = [0] * (2 * phi - 1)
        for i in range(1, min(n, len(a) - 1) + 1):
            u, v = a[i], out[n - i]
            pr = polymul(u, v)
            for j, c in enumerate(pr):
                acc[j] += c
        t = tuple(c % pmod for c in reduce_cyclotomic(acc, m))
        out.append(tuple((-x) % pmod for x in _zmul(c0i, t, m, pmod)))
    return out


# -- public types ----------------------------------------------------------------


class TruncatedSeries:
    """Element of O_E[[T]] mod (p^prec, T^cap_D), coefficients integral."""

    __slots__ = ("ctx", "m", "prec", "coords")

    def __init__(self, ctx: PrecisionContext, m: int, prec: int, coords):
        self.ctx = ctx
        self.m = m
        self.prec = prec
        cs = list(coords)[: ctx.cap_D]
        cs += [_zzero(m)] * (ctx.cap_D - len(cs))
        self.coords = tuple(tuple(u) for u in cs)

    # -- constructors

    @classmethod
    def from_coeffs(cls, ctx: PrecisionContext, coeffs, prec: int | None = None):
        m, prec, coords = _coords_of(ctx, coeffs, prec)
        return cls(ctx, m, prec, coords)

    @classmethod
    def zero(cls, ctx: PrecisionContext):
        return cls(ctx, 1, ctx.cap_N, [])

    @classmethod
    def one(cls, ctx: PrecisionContext):
        return cls.from_coeffs(ctx, [1])

    @classmethod
    def variable(cls, ctx: PrecisionContext):
        return cls.from_coeffs(ctx, [0, 1])

    # -- accessors

    def coeff(self, i: int) -> CycloPadic:
        return _coords_to_scalar(self.ctx, self.m, self.coords[i], self.prec)

    def is_exact_zero(self) -> bool:
        return _ser_is_zero(self.coords)

    def __repr__(self):
        head = []
        for i, u in enumerate(self.coords[:6]):
            if any(u):
                head.append(f"{list(u) if self.m > 1 else u[0]}*T^{i}")
        return f"TruncatedSeries({' + '.join(head) or '0'} + O(T^{self.ctx.cap_D}), prec={self.prec})"

    # -- conductor/energy merging

    def _embed(self, big_m: int, prec: int) -> "TruncatedSeries":
        """The same series in conductor big_m, reduced mod p^prec (prec <= self.prec)."""
        if big_m == self.m and prec == self.prec:
            return self
        pmod = self.ctx.p**prec
        return TruncatedSeries(self.ctx, big_m, prec, [_recoord(u, self.m, big_m, pmod) for u in self.coords])

    def _common(self, other: "TruncatedSeries"):
        big = lcm(self.m, other.m)
        prec = min(self.prec, other.prec)
        return self._embed(big, prec), other._embed(big, prec)

    # -- arithmetic

    def __add__(self, other):
        a, b = self._common(self._coerce(other))
        pmod = self.ctx.p**a.prec
        return TruncatedSeries(self.ctx, a.m, a.prec, [_zadd(u, v, pmod) for u, v in zip(a.coords, b.coords)])

    def __sub__(self, other):
        a, b = self._common(self._coerce(other))
        pmod = self.ctx.p**a.prec
        return TruncatedSeries(self.ctx, a.m, a.prec, [_zsub(u, v, pmod) for u, v in zip(a.coords, b.coords)])

    def __neg__(self):
        pmod = self.ctx.p**self.prec
        return TruncatedSeries(self.ctx, self.m, self.prec, [tuple((-c) % pmod for c in u) for u in self.coords])

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            return other
        if isinstance(other, DistinguishedPolynomial):
            return other.to_series()
        return TruncatedSeries.from_coeffs(self.ctx, [other], prec=self.prec)

    def __mul__(self, other):
        if isinstance(other, CycloPadic) or isinstance(other, (int, Fraction)):
            return self.scalar_mul(other)
        a, b = self._common(self._coerce(other))
        pmod = self.ctx.p**a.prec
        coords = _ser_mul(list(a.coords), list(b.coords), a.m, pmod, self.ctx.cap_D)
        return TruncatedSeries(self.ctx, a.m, a.prec, coords)

    __rmul__ = __mul__

    def scalar_mul(self, s) -> "TruncatedSeries":
        s = s if isinstance(s, CycloPadic) else self.ctx.make(s)
        big = lcm(self.m, s.m)
        a = self._embed(big, self.prec)
        sc = _scalar_to_coords(s, big, a.prec)
        pmod = self.ctx.p**a.prec
        return TruncatedSeries(self.ctx, big, a.prec, [_zmul(u, sc, big, pmod) for u in a.coords])

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by T^k."""
        coords = [_zzero(self.m)] * k + list(self.coords[: self.ctx.cap_D - k])
        return TruncatedSeries(self.ctx, self.m, self.prec, coords)

    def unit_inverse(self) -> "TruncatedSeries":
        pmod = self.ctx.p**self.prec
        coords = _ser_inverse(list(self.coords), self.m, pmod, self.ctx.cap_D, self.ctx, self.prec)
        return TruncatedSeries(self.ctx, self.m, self.prec, coords)

    def evaluate(self, x: CycloPadic) -> CycloPadic:
        """Value at a point of positive valuation (or zero); precision is the
        budget min(prec, floor(cap_D * v(x)))."""
        if x.is_exact_zero():
            return self.coeff(0)
        v = x.min_valuation()
        if v <= 0:
            raise ValueError("evaluation point must have positive valuation")
        prec = min(self.prec, int(self.ctx.cap_D * v))
        if prec <= 0:
            raise PrecisionError("evaluation exhausted the precision budget")
        acc = _horner(self.ctx, self.m, self.prec, self.coords, x)
        return CycloPadic(acc.ctx, acc.m, acc.nums, min(acc.prec, prec), acc.den)

    def equals(self, other) -> bool:
        a, b = self._common(self._coerce(other))
        return a.coords == b.coords

    def __eq__(self, other):
        if isinstance(other, (TruncatedSeries, DistinguishedPolynomial, int)):
            return self.equals(other)
        return NotImplemented

    __hash__ = None


class DistinguishedPolynomial:
    """Monic polynomial whose non-leading coefficients have positive valuation."""

    __slots__ = ("ctx", "m", "prec", "coords")

    def __init__(self, ctx: PrecisionContext, m: int, prec: int, coords):
        self.ctx = ctx
        self.m = m
        self.prec = prec
        self.coords = tuple(tuple(u) for u in coords)
        self._validate()

    def _validate(self):
        if not self.coords:
            raise ValueError("empty polynomial")
        lead = self.coeff(self.degree)
        if not lead.equals(self.ctx.one()):
            raise ValueError("distinguished polynomial must be monic")
        for i in range(self.degree):
            c = self.coeff(i)
            if c.is_exact_zero():
                continue
            v = c.min_valuation()
            if not v > 0:
                raise ValueError("non-leading coefficients must have positive valuation")

    @classmethod
    def from_coeffs(cls, ctx: PrecisionContext, coeffs, prec: int | None = None):
        m, prec, coords = _coords_of(ctx, coeffs, prec)
        while len(coords) > 1 and all(c == 0 for c in coords[-1]):
            coords.pop()
        return cls(ctx, m, prec, coords)

    @classmethod
    def one(cls, ctx: PrecisionContext):
        return cls.from_coeffs(ctx, [1])

    @property
    def degree(self) -> int:
        return len(self.coords) - 1

    def coeff(self, i: int) -> CycloPadic:
        return _coords_to_scalar(self.ctx, self.m, self.coords[i], self.prec)

    def __repr__(self):
        return f"DistinguishedPolynomial(deg={self.degree}, m={self.m}, prec={self.prec})"

    def to_series(self) -> TruncatedSeries:
        return TruncatedSeries(self.ctx, self.m, self.prec, list(self.coords))

    def _common(self, other: "DistinguishedPolynomial"):
        big = lcm(self.m, other.m)
        prec = min(self.prec, other.prec)
        pmod = self.ctx.p**prec
        a = [_recoord(u, self.m, big, pmod) for u in self.coords]
        b = [_recoord(u, other.m, big, pmod) for u in other.coords]
        return a, b, big, prec

    def __mul__(self, other):
        if not isinstance(other, DistinguishedPolynomial):
            return NotImplemented
        a, b, big, prec = self._common(other)
        out = packed_mul(a, b, big, len(a) + len(b) - 1, self.ctx.p**prec)
        return DistinguishedPolynomial(self.ctx, big, prec, out)

    def __pow__(self, n: int):
        result = DistinguishedPolynomial.one(self.ctx)
        for _ in range(n):
            result = result * self
        return result

    def divmod(self, other: "DistinguishedPolynomial"):
        """Polynomial division by a monic divisor; exact at working precision."""
        a, b, big, prec = self._common(other)
        q, rem = _monic_divmod(a, b, big, self.ctx.p**prec)
        return q, rem, big, prec

    def exact_div(self, other: "DistinguishedPolynomial") -> "DistinguishedPolynomial":
        q, rem, big, prec = self.divmod(other)
        if any(any(u) for u in rem):
            raise ValueError("division is not exact")
        return DistinguishedPolynomial(self.ctx, big, prec, q)

    def evaluate(self, x: CycloPadic) -> CycloPadic:
        """Value at x by Horner's rule (`_horner`)."""
        return _horner(self.ctx, self.m, self.prec, self.coords, x)

    def equals(self, other) -> bool:
        if isinstance(other, int):  # the constant polynomial, prec cap_N
            if self.degree != 0:
                return False
            pmod = self.ctx.p ** min(self.prec, self.ctx.cap_N)
            return _recoord(self.coords[0], self.m, self.m, pmod) == _recoord((other,), 1, self.m, pmod)
        if self.degree != other.degree:
            return False
        a, b, _, _ = self._common(other)
        return a == b

    def __eq__(self, other):
        if isinstance(other, (DistinguishedPolynomial, int)):
            return self.equals(other)
        return NotImplemented

    __hash__ = None


@dataclass
class SeriesQuotient:
    """f/g with f, g in O_E[[T]]; `reduced` asserts coprimality (certified)."""

    num: TruncatedSeries
    den: TruncatedSeries
    reduced: bool = False

    def __post_init__(self):
        if self.den.is_exact_zero():
            raise ZeroDivisionError("denominator indistinguishable from zero")

    def equals(self, other: "SeriesQuotient") -> bool:
        # cross-multiplication equality, valid mod (p^cap_N, T^cap_D)
        return (self.num * other.den).equals(other.num * self.den)


# -- operations -------------------------------------------------------------------


def cyclotomic_polys(ctx: PrecisionContext, n: int) -> tuple[DistinguishedPolynomial, DistinguishedPolynomial]:
    """(omega_n, xi_n): omega_n = (T+1)^(p^n) - 1, xi_n = omega_n / omega_(n-1),
    with omega_0 = xi_0 = T."""
    if n < 0:
        raise ValueError("level must be non-negative")
    p = ctx.p
    if n == 0:
        t = DistinguishedPolynomial.from_coeffs(ctx, [0, 1])
        return t, t
    q = p**n
    omega = DistinguishedPolynomial.from_coeffs(ctx, [0] + [comb(q, k) for k in range(1, q + 1)])
    # xi_n = sum_{k=0}^{p-1} (T+1)^(k p^(n-1))
    step = p ** (n - 1)
    deg = (p - 1) * step
    coeffs = [0] * (deg + 1)
    for k in range(p):
        e = k * step
        for j in range(e + 1):
            coeffs[j] += comb(e, j)
    xi = DistinguishedPolynomial.from_coeffs(ctx, coeffs)
    return omega, xi


def _scan_reduced_degree(coords, m: int, ctx: PrecisionContext, prec: int) -> int:
    """Index of the first certified-unit coefficient; raises when impossible."""
    for i, u in enumerate(coords):
        c = _coords_to_scalar(ctx, m, u, prec)
        if c.is_exact_zero():
            continue
        v = c.min_valuation()
        if v >= prec:
            continue  # indistinguishable from zero
        if v == 0:
            if c.is_unit():
                return i
            raise PrecisionError(
                "coefficient has valuation 0 at one embedding but not all; reduced degree not certifiable"
            )
        # v > 0: keep scanning
    raise PrecisionError("no unit coefficient: reduced degree not certifiable")


def _monic_divmod(a, b, m: int, pmod: int):
    """(q, r) with a = q * b + r and len(r) = deg b: long division of a
    coordinate polynomial by a monic one over Z[zeta_m]/pmod."""
    phi = euler_phi(m)
    db = len(b) - 1
    r = [list(u) for u in a] + [[0] * phi for _ in range(db - len(a))]
    q = [_zzero(m)] * max(0, len(a) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = tuple(x % pmod for x in r[i])
        if any(c):
            q[i - db] = c
            for j in range(db):  # b[db] = 1 cancels r[i], which is not read again
                row = r[i - db + j]
                for k, y in enumerate(reduce_cyclotomic(polymul(c, b[j]), m)):
                    row[k] -= y
    return q, [tuple(x % pmod for x in u) for u in r[:db]]


def _mulmod(a, b, P, m: int, pmod: int):
    """a * b mod the monic P, as deg P coordinate vectors."""
    d = len(P) - 1
    return _monic_divmod(packed_mul(a, b, m, max(len(a) + len(b) - 1, d), pmod), P, m, pmod)[1]


def _prepare_raw(coords, m: int, ctx: PrecisionContext, prec: int):
    """(s, u, P, nprec) with f = p^s * u * P on raw coordinate arrays.

    f / p^s, read as a polynomial, is congruent to u_0 * T^d modulo the
    radical J of Z[zeta_m]/p^nprec.  Newton (Hensel) lifting of that
    factorisation keeps W ~ u^-1 mod P and repeats
        (u, R) = f divmod P;  W <- W (2 - u W) mod P;  P <- P + (R W mod P),
    which squares the ideal holding R: at round k, R lies in J^(2^(k-1)).
    J^(e * nprec) = 0 with e <= phi(m) the ramification index, so R = 0
    within bit_length(nprec * phi(m)) + 1 rounds.
    R = 0 certifies f = u * P mod p^nprec, and the preparation is unique, so
    u is the polynomial unit and P the distinguished polynomial (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 9 and 15)."""
    if all(not any(u) for u in coords):
        raise PrecisionError("series indistinguishable from zero")
    p = ctx.p
    s = min(_floor(u, 1, p) for u in coords)
    nprec = prec - s
    if nprec <= 0:
        raise PrecisionError("uniformizer power exhausts the precision budget")
    pm = p**nprec
    f = [tuple((c // p**s) % pm for c in u) for u in coords]
    while not any(f[-1]):
        f.pop()
    d = _scan_reduced_degree(f, m, ctx, nprec)
    P = [_zzero(m)] * d + [_zone(m)]
    w = _ser_inverse(f[d : 2 * d + 1], m, pm, d, ctx, nprec)[:d]
    for _ in range((nprec * euler_phi(m)).bit_length() + 1):
        u, r = _monic_divmod(f, P, m, pm)
        if _ser_is_zero(r):
            return s, u, P, nprec
        e = [tuple((-c) % pm for c in x) for x in _mulmod(u, w, P, m, pm)]
        e[0] = _zadd(e[0], _zadd(_zone(m), _zone(m), pm), pm)  # 2 - u W
        w = _mulmod(w, e, P, m, pm)
        P = [_zadd(x, y, pm) for x, y in zip(P, _mulmod(r, w, P, m, pm))] + [P[d]]
    raise PrecisionError("Newton lifting did not converge within the budget")


def weierstrass_prepare(f: TruncatedSeries) -> tuple[int, TruncatedSeries, DistinguishedPolynomial]:
    """Unique decomposition f = p^s * u * P with u a unit and P distinguished."""
    ctx = f.ctx
    s, u, pcoords, nprec = _prepare_raw(list(f.coords), f.m, ctx, f.prec)
    return s, TruncatedSeries(ctx, f.m, nprec, u), DistinguishedPolynomial(ctx, f.m, nprec, pcoords)


def _distinguished_part(coords, m: int, ctx: PrecisionContext, prec: int):
    """(s, P) of a finite coordinate polynomial; the unit is discarded."""
    s, _, pcoords, nprec = _prepare_raw(list(coords), m, ctx, prec)
    return s, DistinguishedPolynomial(ctx, m, nprec, pcoords)


def gcd_distinguished(a: DistinguishedPolynomial, b: DistinguishedPolynomial) -> DistinguishedPolynomial:
    """Monic gcd of two distinguished polynomials (Euclid; remainders replaced
    by their distinguished parts, which does not change the gcd)."""
    ctx = a.ctx
    hi, lo = (a, b) if a.degree >= b.degree else (b, a)
    while lo.degree > 0:
        _, rem, big, prec = hi.divmod(lo)
        rem = list(rem)
        while rem and not any(rem[-1]):
            rem.pop()
        if not rem:
            return lo
        _, prem = _distinguished_part(rem, big, ctx, prec)
        hi, lo = lo, prem
    return DistinguishedPolynomial.one(ctx)


def reduce_quotient(f: TruncatedSeries, g: TruncatedSeries) -> SeriesQuotient:
    """f/g with common uniformizer powers and distinguished factors removed;
    denominator normalised to p^a * (monic distinguished)."""
    ctx = f.ctx
    if g.is_exact_zero():
        raise ZeroDivisionError("denominator indistinguishable from zero")
    if f.is_exact_zero():
        return SeriesQuotient(TruncatedSeries.zero(ctx), TruncatedSeries.one(ctx), reduced=True)
    sf, uf, Pf = weierstrass_prepare(f)
    sg, ug, Pg = weierstrass_prepare(g)
    s = min(sf, sg)
    d = gcd_distinguished(Pf, Pg)
    if d.degree > 0:
        Pf = Pf.exact_div(d)
        Pg = Pg.exact_div(d)
    num = uf * ug.unit_inverse() * Pf.to_series()
    num = num.scalar_mul(ctx.make(ctx.p ** (sf - s)))
    den = Pg.to_series().scalar_mul(ctx.make(ctx.p ** (sg - s)))
    return SeriesQuotient(num, den, reduced=True)


def evaluate_quotient(q: SeriesQuotient, x: CycloPadic):
    """num(x)/den(x); INFINITY when only the denominator vanishes."""
    if not q.reduced:
        raise ValueError("quotient must be reduced before evaluation")
    if not x.is_exact_zero() and not (x.min_valuation() > 0):
        raise ValueError("evaluation point must lie in the open unit ball")
    nv = q.num.evaluate(x)
    dv = q.den.evaluate(x)
    if dv.is_exact_zero():
        if nv.is_exact_zero():
            raise AssertionError("numerator and denominator both vanish: quotient was not reduced")
        return INFINITY
    v = dv.min_valuation()
    if v >= dv.prec:
        raise PrecisionError("denominator value indistinguishable from zero at this budget")
    return nv / dv


def substitute_twist(q: SeriesQuotient, a: CycloPadic) -> SeriesQuotient:
    """T -> a(T+1) - 1 on numerator and denominator; a must be a root of unity
    with v(a - 1) > 0 (in particular any p-power root of unity)."""
    ctx = q.num.ctx
    if not (a ** a.m).equals(ctx.one()):
        raise ValueError("twist scalar is not a root of unity")
    am1 = a - 1
    if not am1.is_exact_zero() and not (am1.min_valuation() > 0):
        raise ValueError("twist scalar must satisfy v(a - 1) > 0")
    if am1.is_exact_zero():
        return q
    return SeriesQuotient(_substitute(q.num, a), _substitute(q.den, a), reduced=q.reduced)


def _substitute(f: TruncatedSeries, a: CycloPadic) -> TruncatedSeries:
    ctx = f.ctx
    big = lcm(f.m, a.m)
    prec = min(f.prec, a.prec)
    pmod = ctx.p**prec
    av = _scalar_to_coords(a.reduce_mod(prec), big, prec)
    am1 = _scalar_to_coords((a - 1).reduce_mod(prec), big, prec)
    D = ctx.cap_D
    acc = [_zzero(big)] * D
    coeffs = [_recoord(u, f.m, big, pmod) for u in f.coords]
    for i in range(D - 1, -1, -1):
        # acc <- acc * (a T + (a-1)) + c_i
        nxt = [_zzero(big)] * D
        for k in range(D - 1, -1, -1):
            u = acc[k]
            if any(u):
                if k + 1 < D:
                    nxt[k + 1] = _zadd(nxt[k + 1], _zmul(u, av, big, pmod), pmod)
                nxt[k] = _zadd(nxt[k], _zmul(u, am1, big, pmod), pmod)
        nxt[0] = _zadd(nxt[0], coeffs[i], pmod)
        acc = nxt
    return TruncatedSeries(ctx, big, prec, acc)


@dataclass
class PolyQuotient:
    """Quotient of plain polynomials in normal form (monic denominator,
    numerator and denominator coprime)."""

    num: list
    den: list

    def equals(self, other: "PolyQuotient") -> bool:
        if len(self.num) != len(other.num) or len(self.den) != len(other.den):
            return False
        return all(a.equals(b) for a, b in zip(self.num, other.num)) and all(
            a.equals(b) for a, b in zip(self.den, other.den)
        )


def interpolate_uniqueness(
    ctx: PrecisionContext, points, values, degree_bound: int
) -> PolyQuotient | None:
    """Reconstruct the unique quotient of polynomials of degree <= degree_bound
    through the data, or None when the data is inconsistent with any such."""
    from . import linalg

    d = degree_bound
    if len(points) <= 2 * d:
        raise ValueError("need more than 2 * degree_bound points")
    seen = []
    for x in points:
        for y in seen:
            if x.equals(y):
                raise ValueError("points must be pairwise distinct")
        seen.append(x)
    rows = []
    for x, y in zip(points, values):
        pw = [ctx.one()]
        for _ in range(d):
            pw.append(pw[-1] * x)
        rows.append([pw[i] for i in range(d + 1)] + [-(y * pw[j]) for j in range(d + 1)])
    null = linalg.kernel_basis(rows, ctx)
    for vec in null:
        den = vec[d + 1 :]
        if any(not c.is_exact_zero() for c in den):
            num = vec[: d + 1]
            cand = _poly_quotient_normalise(ctx, num, den)
            if cand is None:
                continue
            if _check_interpolation(ctx, cand, points, values):
                return cand
    return None


def _poly_trim(cs):
    out = list(cs)
    while out and out[-1].is_exact_zero():
        out.pop()
    return out


def _poly_quotient_normalise(ctx, num, den) -> PolyQuotient | None:
    from . import linalg

    num = _poly_trim(num)
    den = _poly_trim(den)
    if not den:
        return None
    g = _poly_gcd_field(ctx, num, den)
    if len(g) > 1:
        parts = [_poly_divmod_field(ctx, f, g) for f in (num, den)]
        if any(not c.is_exact_zero() for _, r in parts for c in r):
            raise ValueError("division is not exact")
        num, den = (_poly_trim(q) or [ctx.zero()] for q, _ in parts)
    lead = den[-1]
    inv = linalg.exact_inverse(lead)
    num = [c * inv for c in num]
    den = [c * inv for c in den]
    return PolyQuotient(num, den)


def _poly_gcd_field(ctx, a, b):
    a, b = _poly_trim(a), _poly_trim(b)
    if not a:
        return b
    if not b:
        return a
    hi, lo = (a, b) if len(a) >= len(b) else (b, a)
    while lo:
        _, rem = _poly_divmod_field(ctx, hi, lo)
        hi, lo = lo, _poly_trim(rem)
    return hi


def _poly_divmod_field(ctx, a, b):
    """(q, r) with a = q * b + r and deg r < deg b, over the field."""
    from . import linalg

    r = list(a)
    inv = linalg.exact_inverse(b[-1])
    db = len(b) - 1
    q = [ctx.zero()] * max(0, len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        if not r[i].is_exact_zero():
            c = r[i] * inv
            q[i - db] = c
            for j in range(db + 1):
                r[i - db + j] = r[i - db + j] - c * b[j]
    return q, r[:db]


def _check_interpolation(ctx, cand: PolyQuotient, points, values) -> bool:
    for x, y in zip(points, values):
        nv = _poly_eval(cand.num, x, ctx)
        dv = _poly_eval(cand.den, x, ctx)
        if dv.is_exact_zero():
            return False  # finite data demanded at every point
        if not (nv - y * dv).equals(ctx.zero()):
            return False
    return True


def _poly_eval(cs, x, ctx):
    if not cs:
        return ctx.zero()
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * x + c
    return acc
