"""Integer-polynomial kernels shared by the exact arithmetic layers.

Polynomials are lists of Python ints, lowest degree first.  Multiplication
uses Kronecker substitution (pack into one big integer, one machine multiply,
unpack with balanced digits, or with byte-aligned slots when no coefficient
is negative) so the hot loops run at bigint speed; products of at most 36
coefficient pairs use the schoolbook loop.  `reduce_cyclotomic`
is the one reduction modulo Phi_m shared by scalars, series and the group
algebra, and `packed_mul` is the one product of polynomials whose
coefficients are coordinate vectors in Z[zeta_m] (series, distinguished
polynomials, the cyclic group algebra).
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            while m % d == 0:
                m //= d
            result -= result // d
        d += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d <= isqrt(n):
        if n % d == 0:
            return False
        d += 2
    return True


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def trim(a: list[int]) -> list[int]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def polymul(a: list[int], b: list[int]) -> list[int]:
    """Exact product of two integer polynomials via Kronecker substitution."""
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    if la == 1:
        s = a[0]
        return [s * c for c in b]
    if lb == 1:
        s = b[0]
        return [s * c for c in a]
    if la * lb <= 36:  # schoolbook beats packing on small products
        out = [0] * (la + lb - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out
    n = la + lb - 1
    if min(a) >= 0 and min(b) >= 0:
        # residues, as the series and group-algebra kernels pass: byte-aligned
        # slots pack and unpack in linear time, with no sign to carry
        bound = max(a) * max(b) * min(la, lb)
        if bound == 0:
            return [0] * n
        w = (bound.bit_length() + 7) // 8
        pack_a = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a), "little")
        pack_b = int.from_bytes(b"".join(c.to_bytes(w, "little") for c in b), "little")
        buf = (pack_a * pack_b).to_bytes(w * n, "little")
        return [int.from_bytes(buf[i : i + w], "little") for i in range(0, w * n, w)]
    ma = max(abs(c) for c in a)
    mb = max(abs(c) for c in b)
    if ma == 0 or mb == 0:
        return [0] * n
    # slot width: products plus carries from min(la, lb) summands, one sign bit
    bound = ma * mb * min(la, lb)
    bits = (2 * bound + 1).bit_length()
    pack_a = sum(c << (bits * i) for i, c in enumerate(a))
    pack_b = sum(c << (bits * i) for i, c in enumerate(b))
    v = pack_a * pack_b
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    out = []
    for _ in range(n):
        d = v & mask
        if d >= half:
            d -= 1 << bits
        out.append(d)
        v = (v - d) >> bits
    return out


def polydivmod_monic(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Divide a by the monic integer polynomial b; exact integer quotient/remainder."""
    if not b or b[-1] != 1:
        raise ValueError("divisor must be a monic integer polynomial")
    r = list(a)
    db = len(b) - 1
    if db == 0:
        return list(a), []
    q = [0] * max(0, len(r) - db)
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if c:
            q[i - db] = c
            for j in range(db + 1):
                r[i - db + j] -= c * b[j]
    return q, trim(r[:db])


@lru_cache(maxsize=None)
def cyclotomic_poly(m: int) -> tuple[int, ...]:
    """Coefficients of the m-th cyclotomic polynomial, lowest degree first."""
    if m < 1:
        raise ValueError("conductor must be positive")
    if m == 1:
        return (-1, 1)
    f = [0] * (m + 1)
    f[0], f[m] = -1, 1
    for d in divisors(m)[:-1]:
        q, r = polydivmod_monic(f, list(cyclotomic_poly(d)))
        if r:
            raise AssertionError("cyclotomic division must be exact")
        f = q
    return tuple(f)


@lru_cache(maxsize=None)
def _cyclotomic_fold(m: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(phi(m), nonzero lower terms (j, c_j) of Phi_m): x^phi = -sum c_j x^j."""
    f = cyclotomic_poly(m)
    return len(f) - 1, tuple((j, c) for j, c in enumerate(f[:-1]) if c)


def reduce_cyclotomic(a, m: int) -> list[int]:
    """The remainder of the integer polynomial a modulo Phi_m, exactly, as
    exactly phi(m) coefficients.  Only the nonzero terms of Phi_m are folded,
    so the sparse Phi_{p^k} cost one subtraction per term, not phi(m)."""
    deg, terms = _cyclotomic_fold(m)
    r = list(a)
    if len(r) <= deg:
        r.extend([0] * (deg - len(r)))
        return r
    for i in range(len(r) - 1, deg - 1, -1):
        c = r[i]
        if c:
            base = i - deg
            for j, cj in terms:
                r[base + j] -= c * cj
    del r[deg:]
    return r


def packed_mul(a, b, m: int, count: int, pmod: int) -> list[tuple[int, ...]]:
    """The first `count` coefficients of the product of two polynomials whose
    coefficients are coordinate vectors in Z[zeta_m], each reduced modulo
    Phi_m and then modulo pmod.

    Each vector takes a slot of 2 phi(m) - 1 entries, wide enough for the
    product of two vectors, so the whole product is one `polymul` (Harvey,
    "Faster polynomial multiplication via multipoint Kronecker substitution",
    JSC 2009)."""
    phi = euler_phi(m)
    stride = 2 * phi - 1
    fa = [0] * (len(a) * stride)
    for i, u in enumerate(a):
        fa[i * stride : i * stride + phi] = u
    fb = [0] * (len(b) * stride)
    for i, u in enumerate(b):
        fb[i * stride : i * stride + phi] = u
    prod = polymul(fa, fb)
    if phi == 1:  # rational coordinates: nothing to fold
        prod += [0] * (count - len(prod))
        return [(c % pmod,) for c in prod[:count]]
    out = []
    for k in range(count):
        chunk = reduce_cyclotomic(prod[k * stride : k * stride + stride], m)
        out.append(tuple(c % pmod for c in chunk))
    return out
