"""Exact linear algebra over the cyclotomic scalar layer.

Used on exact data (character values, representation matrices, interpolation
systems), so inverses here bypass the precision-certification gate: the stored
representative is the true value, an element of the field Q(zeta_m).  Every
nonzero element of a field is invertible, so a pivot is the first nonzero
entry of its column.

`mat_mul` is the one matrix product.  An entry lives in the conductor lcm of
its row and its column.  Each row of the left factor and each column of the
right factor is converted once per entry conductor to integer coordinates
over one denominator (`_lift`), and each entry is built as one `CycloPadic`:
the `polymul` products summed with one reduction mod Phi_m (`_dots`).  The
entry keeps the precision of the scalar loop acc = acc + a[i][t] * b[t][j]:
the min over all terms, zero terms included, of the product precision
min(pa + fb, pb + fa, pa + pb), with pa, pb the precisions and fa, fb the
coefficient floors of the two factors (`_dot_prec`).
"""

from __future__ import annotations

from math import lcm
from operator import mul

from ._intpoly import euler_phi, polymul, reduce_cyclotomic
from .padic import _BIG, CycloPadic, PrecisionContext, _embed_nums, _field_inverse


def is_invertible(x: CycloPadic) -> bool:
    return not x.is_exact_zero()


def exact_inverse(x: CycloPadic) -> CycloPadic:
    nums, den = _field_inverse(x.nums, x.den, x.m)
    return CycloPadic(x.ctx, x.m, nums, x.prec, den)


def mat_mul(a, b):
    """The product a b (see the module docstring).  The inner dimension must
    be positive: an n x 0 times 0 x m product is a zero matrix whose shape
    only the caller knows."""
    if not b:
        raise ValueError("inner dimension 0: the zero product takes its shape from the caller")
    assert all(len(r) == len(b) for r in a)
    cols = list(zip(*b))
    col_pfs = [_prec_floors(col) for col in cols]
    groups = {}  # column conductor -> indices of those columns
    for j, col in enumerate(cols):
        groups.setdefault(lcm(*(x.m for x in col)), []).append(j)
    lifted = {}  # (entry conductor, column conductor) -> _lift of those columns
    out = []
    for row in a:
        row_m, row_pf, out_row = lcm(*(x.m for x in row)), _prec_floors(row), [None] * len(cols)
        for col_m, js in groups.items():
            m = lcm(row_m, col_m)
            (u,), du = _lift([row], m)
            vs, dv = lifted.get((m, col_m)) or lifted.setdefault((m, col_m), _lift([cols[j] for j in js], m))
            for j, nums in zip(js, _dots(u, vs, m)):
                out_row[j] = CycloPadic(row[0].ctx, m, nums, _dot_prec(row_pf, col_pfs[j]), du * dv)
        out.append(out_row)
    return out


def _lift(vecs, m: int):
    """(nums, den): the scalars of vecs, their conductors dividing m, over
    their least common denominator, per vector: an integer numerator per
    scalar when phi(m) = 1, else a coordinate tuple in conductor m, with ()
    for a zero."""
    den = lcm(*(x.den for vec in vecs for x in vec))
    if euler_phi(m) == 1:
        return [[x.nums[0] * (den // x.den) for x in vec] for vec in vecs], den
    return [[_scaled(x, den // x.den, m) if any(x.nums) else () for x in vec] for vec in vecs], den


def _scaled(x: CycloPadic, s: int, m: int) -> tuple[int, ...]:
    nums = x.nums if x.m == m else _embed_nums(x.nums, x.m, m)
    return nums if s == 1 else tuple(c * s for c in nums)


def _coords(vecs, m: int) -> list[list[list[int]]]:
    """The phi(m) coordinates of each numerator of the vectors of a `_lift`."""
    phi = euler_phi(m)
    if phi == 1:
        return [[[x] for x in vec] for vec in vecs]
    return [[list(x) if x else [0] * phi for x in vec] for vec in vecs]


def _dots(u, vs, m: int) -> list[list[int]]:
    """The phi(m) coordinates of sum_t u[t] * v[t] for each v in vs, on
    `_lift` numerators: the polymul products summed, then one reduction mod
    Phi_m."""
    if euler_phi(m) == 1:
        return [[sum(map(mul, u, v))] for v in vs]
    out = []
    for v in vs:
        terms = [polymul(x, y) for x, y in zip(u, v) if x and y]
        out.append(reduce_cyclotomic([sum(cs) for cs in zip(*terms)], m))
    return out


def _prec_floors(xs) -> list[tuple[int, int]]:
    return [(x.prec, x.coeff_floor()) for x in xs]


def _dot_prec(u, v) -> int:
    """Precision of sum_t x_t * y_t from the `_prec_floors` pairs of the x_t
    and the y_t: the min over all terms, zero terms included, of the
    precision `CycloPadic.__mul__` gives x_t * y_t, which is at most _BIG."""
    return min(_BIG, *(min(pa + fb, pb + fa, pa + pb) for (pa, fa), (pb, fb) in zip(u, v)))


def identity_matrix(ctx: PrecisionContext, n: int):
    return [[ctx.one() if i == j else ctx.zero() for j in range(n)] for i in range(n)]


def rref(rows: list[list[CycloPadic]]):
    """Reduced row echelon form; returns (matrix, pivot_columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return mat, []
    nrows, ncols = len(mat), len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if is_invertible(mat[i][c])), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = exact_inverse(mat[r][c])
        mat[r] = [inv * x for x in mat[r]]
        for i in range(nrows):
            if i != r and not mat[i][c].is_exact_zero():
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivots


def kernel_basis(rows: list[list[CycloPadic]], ctx: PrecisionContext):
    """Basis of the right kernel, deterministic (free columns in order)."""
    if not rows:
        return []
    ncols = len(rows[0])
    mat, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ctx.zero()] * ncols
        v[fc] = ctx.one()
        for r, pc in enumerate(pivots):
            v[pc] = -mat[r][fc]
        basis.append(v)
    return basis


def solve(rows: list[list[CycloPadic]], rhs: list[CycloPadic], ctx: PrecisionContext):
    """One solution of A x = b, or None if inconsistent."""
    if not rows:
        return [] if not rhs else None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    mat, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [ctx.zero()] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = mat[r][ncols]
    return x


def det(rows: list[list[CycloPadic]], ctx: PrecisionContext) -> CycloPadic:
    n = len(rows)
    if n == 0:
        return ctx.one()
    mat = [list(r) for r in rows]
    acc = ctx.one()
    for c in range(n):
        pr = next((i for i in range(c, n) if is_invertible(mat[i][c])), None)
        if pr is None:
            return ctx.zero()
        if pr != c:
            mat[c], mat[pr] = mat[pr], mat[c]
            acc = -acc
        piv = mat[c][c]
        acc = acc * piv
        inv = exact_inverse(piv)
        for i in range(c + 1, n):
            if not mat[i][c].is_exact_zero():
                f = mat[i][c] * inv
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return acc


def mat_inverse(rows: list[list[CycloPadic]], ctx: PrecisionContext):
    n = len(rows)
    aug = [list(r) + list(e) for r, e in zip(rows, identity_matrix(ctx, n))]
    mat, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix not invertible")
    return [row[n:] for row in mat[:n]]


def column_space_basis(rows: list[list[CycloPadic]], ctx: PrecisionContext):
    """Deterministic basis (original columns at the RREF pivot positions)."""
    if not rows:
        return []
    _, pivots = rref(rows)
    return [[rows[i][c] for i in range(len(rows))] for c in pivots]
