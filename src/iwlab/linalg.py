"""Exact linear algebra over the cyclotomic scalar layer.

Used on exact data (character values, representation matrices, interpolation
systems), so inverses here bypass the precision-certification gate: the stored
representative is the true value, an element of the field Q(zeta_m).  Every
nonzero element of a field is invertible, so a pivot is the first nonzero
entry of its column.
"""

from __future__ import annotations

from .padic import CycloPadic, PrecisionContext, _field_inverse


def is_invertible(x: CycloPadic) -> bool:
    return not x.is_exact_zero()


def exact_inverse(x: CycloPadic) -> CycloPadic:
    nums, den = _field_inverse(x.nums, x.den, x.m)
    return CycloPadic(x.ctx, x.m, nums, x.prec, den)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    assert all(len(r) == k for r in a)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


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
