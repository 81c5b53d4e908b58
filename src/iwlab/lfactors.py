"""Local factors at s = 0 on inertia invariants, and the order-of-vanishing
bookkeeping that ties fixed-space dimensions to the coset-module multiplicity.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .characters import Character, induce, inner_product, restrict, trivial_character
from .groups import SubgroupDesc
from .padic import PrecisionContext

DEFAULT_ORDER_BOUND = 64


@dataclass(frozen=True)
class LocalDatum:
    """Frobenius action on the inertia invariants, plus the residue norm."""

    ctx: PrecisionContext
    frobenius: tuple  # square matrix of CycloPadic, possibly 0x0
    norm: int
    order_bound: int = DEFAULT_ORDER_BOUND

    def __post_init__(self):
        if self.norm <= 1:
            raise ValueError("residue norm must be an integer > 1")
        n = len(self.frobenius)
        for row in self.frobenius:
            if len(row) != n:
                raise ValueError("frobenius matrix must be square")
        if n:
            order = _multiplicative_order(self.frobenius, self.ctx, self.order_bound)
            if order is None:
                raise ValueError(f"frobenius order not certified within {self.order_bound}")

    @property
    def dim(self) -> int:
        return len(self.frobenius)


def _multiplicative_order(mat, ctx, bound) -> int | None:
    n = len(mat)
    ident = linalg.identity_matrix(ctx, n)
    acc = [list(r) for r in mat]
    for k in range(1, bound + 1):
        if all(acc[i][j].equals(ident[i][j]) for i in range(n) for j in range(n)):
            return k
        acc = linalg.mat_mul(acc, [list(r) for r in mat])
    return None


def euler_delta_at0(d: LocalDatum):
    """(det(1 - phi), det(1 - fN * phi)); the second never vanishes because the
    eigenvalues of phi are roots of unity and fN > 1."""
    ctx = d.ctx
    n = d.dim
    one = ctx.one()
    a = [[(one if i == j else ctx.zero()) - d.frobenius[i][j] for j in range(n)] for i in range(n)]
    b = [
        [(one if i == j else ctx.zero()) - ctx.make(d.norm) * d.frobenius[i][j] for j in range(n)]
        for i in range(n)
    ]
    inv_l0 = linalg.det(a, ctx)
    delta0 = linalg.det(b, ctx)
    if not linalg.is_invertible(delta0):
        raise AssertionError("delta factor vanished at 0: Frobenius was not of finite order")
    return inv_l0, delta0


def direct_sum_local(a: LocalDatum, b: LocalDatum) -> LocalDatum:
    if a.norm != b.norm:
        raise ValueError("direct sums need a common residue norm")
    ctx = a.ctx
    n, m = a.dim, b.dim
    z = ctx.zero()
    mat = [
        [a.frobenius[i][j] if i < n and j < n else z for j in range(n)]
        + [z] * m
        for i in range(n)
    ]
    for i in range(m):
        mat.append([z] * n + list(b.frobenius[i]))
    # the order of the sum is the lcm of the two orders, at most their product
    return LocalDatum(ctx, tuple(tuple(r) for r in mat), a.norm, a.order_bound * b.order_bound)


def fixed_space_dim(chi: Character, sub: SubgroupDesc) -> int:
    """dim of the sub-fixed subspace: the average of chi over the subgroup."""
    ip = inner_product(restrict(chi, sub), trivial_character(sub.as_group, chi.ctx))
    if not ip.is_rational():
        raise ValueError("fixed-space dimension did not come out rational")
    q = ip.rational_value()
    if q.denominator != 1 or q < 0:
        raise ValueError("fixed-space dimension must be a non-negative integer")
    return int(q)


def order_of_vanishing(chi: Character, places):
    """r = sum_w dim V^{G_w} - dim V^G, cross-checked against the multiplicity
    of chi in the augmentation-kernel module character; returns (r, crosscheck)."""
    group = chi.group
    ctx = chi.ctx
    full = group.subgroup(range(group.n))
    r = sum(fixed_space_dim(chi, gw) for gw in places) - fixed_space_dim(chi, full)
    psi = None
    for gw in places:
        ind = induce(trivial_character(gw.as_group, ctx), gw)
        psi = ind if psi is None else psi + ind
    psi = psi - trivial_character(group, ctx)
    ip = inner_product(chi, psi)
    if not ip.is_rational() or ip.rational_value().denominator != 1:
        raise ValueError("multiplicity is not an integer")
    cross = int(ip.rational_value())
    if cross != r:
        raise AssertionError("fixed-space and multiplicity formulas disagree")
    return r, cross
