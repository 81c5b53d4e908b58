"""Exact arithmetic in cyclotomic extensions of Q_p with explicit precision tracking.

A value lives in the etale algebra Q_p[x]/Phi_m(x) ("conductor m"), represented
on the power basis 1, zeta, ..., zeta^(phi(m)-1) by integer numerators `nums`
over one positive common denominator `den`, normalised so that
gcd(den, *nums) = 1 (the exact zero is ((0,) * phi(m), 1)).  Every operation
stays in Python ints; `coeffs` gives the same value as reduced `Fraction`s.
The p-part of `den` is bounded by `max_den_exp`.  The integer `prec` means the
value is trusted modulo p^prec in the maximal order; two values are equal when
their difference has valuation at least the joint precision.

The algebra is a product of fields when Phi_m splits over Q_p, so "the"
valuation of an element is only well defined place by place.  `min_valuation`
returns the minimum over all Q_p-embeddings (computed exactly by pi-power
division, pi = zeta_{p^k} - 1); operations that need a single well-defined
valuation certify purity (x = p^t * pi^j * unit) and raise otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, lcm

from ._intpoly import cyclotomic_poly, euler_phi, is_prime, polymul, reduce_cyclotomic
from .snf import solve_integer

_BIG = 10**9  # stands in for +infinity in integer precision arithmetic


class PrecisionError(ArithmeticError):
    """Raised when a result cannot be certified within the precision budget."""


class DenominatorOverflow(ArithmeticError):
    """Raised when a coefficient denominator exceeds the allowed p-power bound."""


@dataclass(frozen=True)
class PrecisionContext:
    """Working budget: scalars mod p^cap_N, series truncated below degree cap_D."""

    p: int
    cap_N: int = 20
    cap_D: int = 40
    max_den_exp: int = 64

    def __post_init__(self):
        if self.p < 2 or not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.cap_N < 1 or self.cap_D < 1:
            raise ValueError("cap_N and cap_D must be >= 1")

    # -- constructors ------------------------------------------------------

    def make(self, value, prec: int | None = None) -> "CycloPadic":
        if isinstance(value, CycloPadic):
            return value
        prec = self.cap_N if prec is None else prec
        if type(value) is int:
            return CycloPadic(self, 1, (value,), prec, 1)
        q = Fraction(value)
        return CycloPadic(self, 1, (q.numerator,), prec, q.denominator)

    def zero(self) -> "CycloPadic":
        return self.make(0)

    def one(self) -> "CycloPadic":
        return self.make(1)


def _vp_int(n: int, p: int) -> int:
    if n == 0:
        return _BIG
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _floor(nums, den: int, p: int) -> int:
    """Exact min_i v_p(nums_i / den); _BIG for the zero vector."""
    g = gcd(*nums)
    if g == 0:
        return _BIG
    v = 0
    while g % p == 0:
        g //= p
        v += 1
    if den % p == 0:
        v -= _vp_int(den, p)
    return v


def _split_p(n: int, p: int) -> tuple[int, int]:
    """(p^v, n / p^v) for the largest v with p^v | n, n != 0."""
    pv = 1
    while n % p == 0:
        n //= p
        pv *= p
    return pv, n


def _to_nums(coeffs) -> tuple[tuple[int, ...], int]:
    """Integer numerators over the least common denominator of ints/Fractions."""
    cs = tuple(coeffs)
    if all(type(c) is int for c in cs):
        return cs, 1
    fs = [Fraction(c) for c in cs]
    den = lcm(*(f.denominator for f in fs))
    return tuple(f.numerator * (den // f.denominator) for f in fs), den


def _embed_nums(nums: tuple[int, ...], m: int, big_m: int) -> tuple[int, ...]:
    """Coordinates in conductor big_m of the value with coordinates nums in m."""
    if len(nums) == 1:  # m = 1 or 2: the value is rational
        return nums + (0,) * (euler_phi(big_m) - 1)
    step = big_m // m
    acc = [0] * ((len(nums) - 1) * step + 1)
    acc[::step] = nums
    return tuple(reduce_cyclotomic(acc, big_m))


class CycloPadic:
    """An element of Q_p(zeta_m) (as the etale algebra Q_p[x]/Phi_m) mod p^prec.

    The stored representative nums/den is an exact element of the field
    Q(zeta_m), where every nonzero element is invertible; only valuations and
    precision see the splitting of Phi_m over Q_p.
    `CycloPadic(ctx, m, coeffs, prec)` takes ints or Fractions; with `den`
    given, `coeffs` are integer numerators over that positive denominator."""

    __slots__ = ("ctx", "m", "nums", "den", "prec")

    def __init__(self, ctx: PrecisionContext, m: int, coeffs, prec: int, den: int | None = None):
        if den is None:
            nums, den = _to_nums(coeffs)
        else:
            nums = tuple(coeffs)
            if den != 1:
                g = gcd(den, *nums)
                if g != 1:
                    den //= g
                    nums = tuple(c // g for c in nums)
        if len(nums) != euler_phi(m):
            raise ValueError(f"conductor {m} needs {euler_phi(m)} coefficients, got {len(nums)}")
        if den != 1 and den % ctx.p == 0 and _vp_int(den, ctx.p) > ctx.max_den_exp:
            raise DenominatorOverflow(f"denominator exponent exceeds {ctx.max_den_exp}")
        _set_ctx(self, ctx)
        _set_m(self, m)
        _set_nums(self, nums)
        _set_den(self, den)
        _set_prec(self, prec)

    def __setattr__(self, *a):
        raise AttributeError("CycloPadic values are immutable")

    # -- representation ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates as reduced Fractions."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.nums)

    def __repr__(self):
        if self.m == 1:
            return f"CycloPadic({self.coeffs[0]}, p={self.ctx.p}, prec={self.prec})"
        return f"CycloPadic(m={self.m}, {list(self.coeffs)}, p={self.ctx.p}, prec={self.prec})"

    def is_exact_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self.nums[0], self.den)

    def coeff_floor(self) -> int:
        """min_i v_p(coeff_i): an exact lower bound for the valuation."""
        return _floor(self.nums, self.den, self.ctx.p)

    def is_integral(self) -> bool:
        # power basis is a Z_p-basis of the maximal order
        return self.den % self.ctx.p != 0

    # -- conductor plumbing -------------------------------------------------

    def embed(self, big_m: int) -> "CycloPadic":
        """Rewrite in conductor big_m (m must divide big_m)."""
        if big_m == self.m:
            return self
        if big_m % self.m != 0:
            raise ValueError(f"{self.m} does not divide {big_m}")
        return CycloPadic(self.ctx, big_m, _embed_nums(self.nums, self.m, big_m), self.prec, self.den)

    def project(self, small_m: int) -> "CycloPadic":
        """Rewrite in conductor small_m; error if the value does not lie there."""
        if small_m == self.m:
            return self
        if self.m % small_m != 0:
            raise ValueError(f"{small_m} does not divide {self.m}")
        # column i: zeta_small^i in conductor m; the solution is integral
        # because Z[zeta_m] meets Q(zeta_small) in Z[zeta_small]
        k = euler_phi(small_m)
        cols = [_embed_nums((0,) * i + (1,) + (0,) * (k - 1 - i), small_m, self.m) for i in range(k)]
        y = solve_integer([list(row) for row in zip(*cols)], list(self.nums))
        if y is None:
            raise ValueError(f"value does not lie in conductor {small_m}")
        return CycloPadic(self.ctx, small_m, y, self.prec, self.den)

    def _common(self, other: "CycloPadic") -> tuple["CycloPadic", "CycloPadic"]:
        if self.ctx.p != other.ctx.p:
            raise ValueError("mixed primes")
        if self.m == other.m:
            return self, other
        big = lcm(self.m, other.m)
        return self.embed(big), other.embed(big)

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other) -> "CycloPadic":
        if isinstance(other, CycloPadic):
            return other
        return self.ctx.make(other)

    def _combine(self, other: "CycloPadic", sign: int) -> "CycloPadic":
        """self + sign * other, one construction."""
        a, b = (self, other) if self.m == other.m and self.ctx is other.ctx else self._common(other)
        da, db = a.den, b.den
        if da == db:
            if len(a.nums) == 1:
                nums = (a.nums[0] + sign * b.nums[0],)
            else:
                nums = tuple(x + sign * y for x, y in zip(a.nums, b.nums))
        else:
            g = gcd(da, db)
            fa, fb = db // g, sign * (da // g)
            nums = tuple(x * fa + y * fb for x, y in zip(a.nums, b.nums))
            da *= db // g
        return CycloPadic(a.ctx, a.m, nums, min(a.prec, b.prec), da)

    def __add__(self, other):
        return self._combine(self._coerce(other), 1)

    __radd__ = __add__

    def __neg__(self):
        return CycloPadic(self.ctx, self.m, tuple(-c for c in self.nums), self.prec, self.den)

    def __sub__(self, other):
        return self._combine(self._coerce(other), -1)

    def __rsub__(self, other):
        return self._coerce(other)._combine(self, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = (self, other) if self.m == other.m and self.ctx is other.ctx else self._common(other)
        if len(a.nums) == 1:
            nums = (a.nums[0] * b.nums[0],)
        else:
            nums = reduce_cyclotomic(polymul(a.nums, b.nums), a.m)
        fa, fb = a.coeff_floor(), b.coeff_floor()
        prec = min(a.prec + fb, b.prec + fa, a.prec + b.prec, _BIG)
        return CycloPadic(a.ctx, a.m, nums, prec, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloPadic":
        """Multiplicative inverse; requires certifiable (pure) valuation."""
        if self.is_exact_zero():
            raise ZeroDivisionError("inverse of zero")
        v, pure = self._valuation_and_purity()
        if not pure:
            raise PrecisionError("valuation structure not certifiable (impure element)")
        if v >= self.prec:
            raise PrecisionError("element indistinguishable from zero at current precision")
        new_prec = self.prec - 2 * ceil(max(v, 0))
        if new_prec <= 0:
            raise PrecisionError("precision exhausted by inversion")
        nums, den = _field_inverse(self.nums, self.den, self.m)
        return CycloPadic(self.ctx, self.m, nums, new_prec, den)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    # -- valuation ----------------------------------------------------------

    def min_valuation(self) -> Fraction | None:
        """Exact min over Q_p-embeddings of v_p; None for the exact zero."""
        v, _ = self._valuation_and_purity(check_purity=False)
        return v

    def _valuation_and_purity(self, check_purity: bool = True):
        nums = self.nums
        if not any(nums):
            return None, True
        p, m = self.ctx.p, self.m
        # x = p^t * cur / cur_den with cur integral, not all divisible by p, p-free cur_den
        ps, _ = _split_p(gcd(*nums), p)
        pk_den, cur_den = _split_p(self.den, p)
        t = _vp_int(ps, p) - _vp_int(pk_den, p)
        cur = tuple(c // ps for c in nums) if ps != 1 else nums
        e = euler_phi(_split_p(m, p)[0])
        j = 0
        if e > 1:
            inv_nums, inv_den = _pi_inverse(p, m)
            while j < e - 1:
                nxt = reduce_cyclotomic(polymul(cur, inv_nums), m)
                nxt_den = cur_den * inv_den
                g = gcd(nxt_den, *nxt)
                if (nxt_den // g) % p:
                    cur = tuple(c // g for c in nxt)
                    cur_den = nxt_den // g
                    j += 1
                else:
                    break
        v = Fraction(t) + Fraction(j, e)
        if not check_purity:
            return v, True
        return v, _is_order_unit(p, m, cur)

    def valuation(self) -> Fraction | None:
        """v_p normalised to v_p(p) = 1, or None when the value is
        indistinguishable from zero at the current precision budget."""
        if self.is_exact_zero():
            return None
        v = self.min_valuation()
        if v >= self.prec:
            return None
        return v

    def is_unit(self) -> bool:
        """Integral with valuation zero at every embedding."""
        if self.is_exact_zero():
            return False
        return self.is_integral() and _is_order_unit(self.ctx.p, self.m, self.nums)

    # -- comparison ---------------------------------------------------------

    def equals(self, other) -> bool:
        other = self._coerce(other)
        diff = self - other
        if diff.is_exact_zero():
            return True
        # min_valuation lies in [coeff_floor, coeff_floor + 1), and the
        # joint precision is an integer
        return diff.coeff_floor() >= min(self.prec, other.prec)

    def __eq__(self, other):
        if isinstance(other, (CycloPadic, int, Fraction)):
            return self.equals(other)
        return NotImplemented

    __hash__ = None

    # -- canonical reduction -------------------------------------------------

    def reduce_mod(self, prec: int | None = None) -> "CycloPadic":
        """Canonical representative with integer-over-p-power coefficients
        reduced modulo p^prec (same congruence class)."""
        p = self.ctx.p
        n = self.prec if prec is None else min(prec, self.prec)
        if n <= 0:
            raise PrecisionError("no precision left to reduce to")
        pk, rest = _split_p(self.den, p)
        mod = p**n * pk
        if rest == 1:
            nums = tuple(c % mod for c in self.nums)
        else:
            r = pow(rest, -1, mod)
            nums = tuple(c * r % mod for c in self.nums)
        return CycloPadic(self.ctx, self.m, nums, n, pk)

    def galois(self, a: int) -> "CycloPadic":
        return galois_apply(a, self)


# direct slot setters: __setattr__ refuses writes, and these cost half of
# object.__setattr__ on the constructor every scalar operation runs
_set_ctx = CycloPadic.ctx.__set__
_set_m = CycloPadic.m.__set__
_set_nums = CycloPadic.nums.__set__
_set_den = CycloPadic.den.__set__
_set_prec = CycloPadic.prec.__set__


# -- module-level operations ---------------------------------------------------


def make_root_of_unity(ctx: PrecisionContext, m: int, j: int) -> CycloPadic:
    """zeta_m^j as an exact value, with the conductor normalised to the order."""
    if m <= 0:
        raise ValueError("order m must be positive")
    j %= m
    d = m // gcd(m, j)
    jj = (j * d // m) % max(d, 1)
    if d == 1:
        return ctx.one()
    acc = [0] * d
    acc[jj] = 1
    return CycloPadic(ctx, d, reduce_cyclotomic(acc, d), ctx.cap_N, 1)


def valuation(x: CycloPadic) -> Fraction | None:
    return x.valuation()


def galois_apply(a: int, x: CycloPadic) -> CycloPadic:
    """The automorphism zeta_m -> zeta_m^a; requires gcd(a, m) = 1."""
    m = x.m
    a %= m
    if gcd(a, m) != 1:
        raise ValueError(f"gcd({a}, {m}) != 1")
    acc = [0] * m
    for i, c in enumerate(x.nums):
        acc[(a * i) % m] += c
    return CycloPadic(x.ctx, m, reduce_cyclotomic(acc, m), x.prec, x.den)


# -- internal helpers ----------------------------------------------------------


@lru_cache(maxsize=None)
def _pi_inverse(p: int, m: int) -> tuple[tuple[int, ...], int]:
    """(nums, den) of 1 / (1 - zeta_{p^k}), p^k the p-part of m."""
    acc = [0] * m
    acc[0] = 1
    acc[m // _split_p(m, p)[0]] = -1  # 1 - zeta_{p^k}
    nums, den = _field_inverse(reduce_cyclotomic(acc, m), 1, m)
    g = gcd(den, *nums)
    return tuple(c // g for c in nums), den // g


def _mul_rows(nums, m: int) -> list[list[int]]:
    """Integer matrix of multiplication by nums: column j holds nums * zeta^j."""
    deg = len(nums)
    phi = cyclotomic_poly(m)
    cols = []
    cur = list(nums)
    for _ in range(deg):
        cols.append(cur)
        # multiply by zeta: shift and fold the overflow via Phi
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            for i in range(deg):
                cur[i] -= top * phi[i]
    return [[col[i] for col in cols] for i in range(deg)]


def _bareiss(a: list[list[int]], n: int) -> int:
    """Fraction-free elimination of the leading n x n block of the rows a, in
    place and carrying any further columns along; returns its determinant."""
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = a[k]
        akk = row_k[k]
        for i in range(k + 1, n):
            row = a[i]
            aik = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * akk - aik * row_k[j]) // prev
        prev = akk
    return sign * a[n - 1][n - 1]


def _algebra_norm(nums, m: int) -> int:
    """Determinant of multiplication by the numerators: the algebra norm of
    nums/den is this over den^phi(m)."""
    return _bareiss(_mul_rows(nums, m), len(nums))


def _field_inverse(nums, den: int, m: int) -> tuple[list[int], int]:
    """(nums', den') of the inverse of nums/den in the field Q(zeta_m), den' > 0.
    Solves nums * y = den by fraction-free elimination: Cramer's rule makes
    det * y integral, so back substitution divides exactly.  The determinant
    is the norm, nonzero for every nonzero element of the field."""
    n = len(nums)
    rows = _mul_rows(nums, m)
    for i, row in enumerate(rows):
        row.append(den if i == 0 else 0)
    if _bareiss(rows, n) == 0:
        raise ZeroDivisionError("inverse of zero")
    d = rows[n - 1][n - 1]
    y = [0] * n
    for i in range(n - 1, -1, -1):
        row = rows[i]
        acc = row[n] * d
        for j in range(i + 1, n):
            acc -= row[j] * y[j]
        y[i] = acc // row[i]
    if d < 0:
        return [-c for c in y], -d
    return y, d


def _is_order_unit(p: int, m: int, nums) -> bool:
    """Whether the integral element with numerators nums (over a p-free
    denominator) is a unit of the maximal order."""
    return _algebra_norm(nums, m) % p != 0
