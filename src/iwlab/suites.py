"""Named verification suites: deterministic, seeded implementations of the
acceptance checks, shared by the CLI and the test suite.

Checks run one at a time, in order, in the calling thread.  Each check gets
its own RNG derived from (seed, check id), so results do not depend on which
other checks run or in what order."""

from __future__ import annotations

import json
import random
import time

from . import linalg
from ._oracles import snf_corank_of_omega_action, xi_int
from .characters import (
    brauer_decompose,
    character_table,
    dual,
    idempotent,
    induce,
    inner_product,
    project_idempotent,
    resum_induced,
    restrict,
    tensor,
    algebra_one,
)
from .corpus import (
    corpus_groups,
    corpus_towers,
    random_local_datum,
    small_corpus_groups,
    tower_places,
    worked_example_tower,
)
from .groups import SubgroupDesc
from .iwmodules import ElementaryModuleDesc, coinvariant_ranks
from .ktheory import (
    FreeModuleMap,
    FreeModuleRanks,
    ProductRing,
    additivity_iso,
    boundary_and_nr,
    class_of_map,
    composition_witness,
    det_of_map,
    dual_generator,
    dual_inverse_check,
    identity_class,
    iota_value,
    is_identity_witness,
    pairing_value,
    rec_class,
    standard_generator,
    two_term_complex,
    verify_inverse_relation,
)
from .lfactors import LocalDatum, direct_sum_local, euler_delta_at0, order_of_vanishing
from .padic import PrecisionContext, make_root_of_unity
from .regulators import (
    KernelConditionError,
    RegulatorProblem,
    class_function_map,
    det_on_isotypic_part,
    hom_basis,
    irreducible_representation,
    regulator_det,
    regulator_layer_invariance,
    x_representation,
)
from .report import CheckFailure, CheckRecord, Report, SuiteConfig
from .series import (
    DistinguishedPolynomial,
    SeriesQuotient,
    TruncatedSeries,
    cyclotomic_polys,
    evaluate_quotient,
    interpolate_uniqueness,
    reduce_quotient,
    substitute_twist,
    weierstrass_prepare,
)
from .tower import (
    ArtinCharacter,
    TypeWCharacter,
    coinvariant_kernel_order,
    e_chi,
    galois_transport,
    n_of_s,
    twisted_evaluate,
    uniqueness_from_twists,
    w_chi,
    w_equivalent,
    xy_modules,
)


class SkipCheck(Exception):
    pass


# ---------------------------------------------------------------------------
# series suite
# ---------------------------------------------------------------------------


def check_weierstrass_roundtrip(ctx: PrecisionContext, rng, count: int = 200):
    """Random (s, u, P) with total degree below cap_D: preparation recovers
    (s, P) exactly and u modulo precision."""
    if ctx.cap_D < 8:
        raise SkipCheck("P of degree up to 6 times a unit needs cap_D >= 8")
    if ctx.cap_N < 4:
        raise SkipCheck("p^s with s up to 3 times u * P needs cap_N >= 4")
    for k in range(count):
        s0 = rng.randint(0, 3)
        deg = rng.randint(1, 6)
        pcoeffs = [ctx.p * rng.randrange(ctx.p ** (ctx.cap_N - 1)) for _ in range(deg)] + [1]
        p0 = DistinguishedPolynomial.from_coeffs(ctx, pcoeffs)
        udeg = rng.randint(0, ctx.cap_D - 2 - deg)
        ucoeffs = [rng.randrange(ctx.p**ctx.cap_N) for _ in range(udeg + 1)]
        while ucoeffs[0] % ctx.p == 0:
            ucoeffs[0] = rng.randrange(ctx.p**ctx.cap_N)
        u0 = TruncatedSeries.from_coeffs(ctx, ucoeffs)
        f = (u0 * p0.to_series()).scalar_mul(ctx.p**s0)
        s, u, pp = weierstrass_prepare(f)
        if s != s0 or not pp.equals(p0) or not u.equals(u0):
            raise CheckFailure(
                "preparation round trip failed",
                {"instance": k, "s_expected": s0, "s_got": s, "deg": deg},
            )
    return {"count": count}


def check_cyclotomic_identities(ctx: PrecisionContext, rng, n_max: int = 4):
    """omega_n = prod_{i<=n} xi_i and omega_n(zeta_{p^n} - 1) = 0 for n <= 4."""
    prod = DistinguishedPolynomial.from_coeffs(ctx, [0, 1])
    for n in range(1, n_max + 1):
        omega, xi = cyclotomic_polys(ctx, n)
        prod = prod * xi
        if not prod.equals(omega):
            raise CheckFailure("omega_n != product of xi_i", {"n": n})
        z = make_root_of_unity(ctx, ctx.p**n, 1)
        val = omega.evaluate(z - 1)
        if not val.equals(ctx.zero()):
            raise CheckFailure("omega_n does not kill zeta_{p^n} - 1", {"n": n})
    return {"levels": n_max}


def check_rank_stabilisation(ctx: PrecisionContext, rng, count: int = 50, n_top: int = 8):
    """coinvariant_ranks vs the SNF oracle at every level n <= 8; equal
    invariant/coinvariant ranks; stability above n0."""
    p = ctx.p
    for k in range(count):
        parts = []
        ints = []
        for _j in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                i = rng.randint(0, 2)
                _, xi = cyclotomic_polys(ctx, i)
                l = rng.randint(1, 2)
                parts.append((xi, l))
                ints.append((xi_int(p, i), l))
            else:
                coeffs = [p * rng.randint(1, p - 1), p * rng.randint(0, p - 1), 1]
                parts.append((DistinguishedPolynomial.from_coeffs(ctx, coeffs), 1))
                ints.append((coeffs, 1))
        mu = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 1)))
        m = ElementaryModuleDesc(ctx, 0, mu_parts=mu, lambda_parts=tuple(parts), attested=True)
        prev = None
        n0 = coinvariant_ranks(m, 0)[2]
        for n in range(n_top + 1):
            inv, coinv, _ = coinvariant_ranks(m, n)
            if inv != coinv:
                raise CheckFailure("invariant and coinvariant ranks differ", {"instance": k, "n": n})
            oracle = sum(snf_corank_of_omega_action(p, n, f, l) for f, l in ints)
            if inv != oracle:
                raise CheckFailure(
                    "rank disagrees with the SNF oracle",
                    {"instance": k, "n": n, "got": inv, "oracle": oracle},
                )
            if n >= n0 and prev is not None and n - 1 >= n0 and inv != prev:
                raise CheckFailure("rank moved above the stabilisation level", {"instance": k, "n": n})
            prev = inv
    return {"count": count, "levels": n_top}


def check_quotient_reduction(ctx: PrecisionContext, rng, count: int = 25):
    """reduce_quotient removes constructed common factors; omega_2/omega_1 = xi_2."""
    if ctx.cap_D <= ctx.p**2:
        raise SkipCheck("omega_2 has degree p^2, which does not fit below T^cap_D")
    o2, xi2 = cyclotomic_polys(ctx, 2)
    o1, _ = cyclotomic_polys(ctx, 1)
    q = reduce_quotient(o2.to_series(), o1.to_series())
    if not q.num.equals(xi2.to_series()) or not q.den.equals(TruncatedSeries.one(ctx)):
        raise CheckFailure("omega ratio did not reduce to xi_2", {})
    for k in range(count):
        common = DistinguishedPolynomial.from_coeffs(
            ctx, [ctx.p * rng.randint(1, ctx.p - 1), 1]
        )
        extra = DistinguishedPolynomial.from_coeffs(
            ctx, [ctx.p * rng.randint(1, ctx.p - 1), ctx.p * rng.randint(0, 2), 1]
        )
        f = (common * extra).to_series()
        g = common.to_series()
        q = reduce_quotient(f, g)
        if not q.num.equals(extra.to_series()) or not q.den.equals(TruncatedSeries.one(ctx)):
            raise CheckFailure("constructed common factor not removed", {"instance": k})
    return {"count": count}


def check_interpolation(ctx: PrecisionContext, rng):
    """Reconstruction from twist points and detection of inconsistent data."""
    pts = [make_root_of_unity(ctx, ctx.p, 1) - 1, make_root_of_unity(ctx, ctx.p**2, 1) - 1]
    pts += [ctx.make(ctx.p * k) for k in (1, 2, 3)]
    res = interpolate_uniqueness(ctx, pts, list(pts), 2)
    if res is None or len(res.num) != 2 or not res.num[1].equals(res.den[0]):
        raise CheckFailure("variable not reconstructed from twist values", {})
    vals = [pts[0], pts[1] + ctx.make(ctx.p), pts[2], pts[3] + ctx.make(ctx.p), pts[4]]
    if interpolate_uniqueness(ctx, pts, vals, 1) is not None:
        raise CheckFailure("inconsistent data not detected", {})
    return {}


# ---------------------------------------------------------------------------
# character suite
# ---------------------------------------------------------------------------


def check_tables_and_orthogonality(ctx: PrecisionContext, rng):
    for name, g in corpus_groups():
        table = character_table(g, ctx)
        if sum(ch.degree_int() ** 2 for ch in table) != g.n:
            raise CheckFailure("degree sum failed", {"group": name})
        pairs = [(i, j) for i in range(len(table)) for j in range(i, len(table))]
        if g.n > 32:
            pairs = [pairs[rng.randrange(len(pairs))] for _ in range(40)]
        for i, j in pairs:
            ip = inner_product(table[i], table[j])
            want = ctx.one() if i == j else ctx.zero()
            if not ip.equals(want):
                raise CheckFailure("Schur orthogonality failed", {"group": name, "pair": [i, j]})
    return {"groups": len(corpus_groups())}


def check_column_orthogonality(ctx: PrecisionContext, rng):
    for name, g in small_corpus_groups():
        table = character_table(g, ctx)
        for j in range(g.num_classes):
            for k in range(g.num_classes):
                acc = ctx.zero()
                for ch in table:
                    acc = acc + ch.values[j] * ch.values[g.inverse_class[k]]
                want = ctx.make(g.centralizer_order(g.class_rep(j))) if j == k else ctx.zero()
                if not acc.equals(want):
                    raise CheckFailure("column orthogonality failed", {"group": name, "cols": [j, k]})
    return {}


def check_idempotent_laws(ctx: PrecisionContext, rng):
    for name, g in corpus_groups():
        table = character_table(g, ctx)
        idems = [idempotent(ch) for ch in table]
        total = idems[0]
        for e in idems[1:]:
            total = total + e
        if not total.equals(algebra_one(g, ctx)):
            raise CheckFailure("idempotents do not sum to 1", {"group": name})
        for i, e in enumerate(idems):
            if not (e * e).equals(e):
                raise CheckFailure("idempotent is not idempotent", {"group": name, "index": i})
            if not e.is_central():
                raise CheckFailure("idempotent is not central", {"group": name, "index": i})
        pairs = [(i, j) for i in range(len(idems)) for j in range(i + 1, len(idems))]
        if g.n > 32:
            pairs = [pairs[rng.randrange(len(pairs))] for _ in range(20)]
        for i, j in pairs:
            prod = idems[i] * idems[j]
            if not all(c.equals(ctx.zero()) for c in prod.coeffs):
                raise CheckFailure("distinct idempotents not orthogonal", {"group": name, "pair": [i, j]})
    return {}


def check_frobenius_reciprocity(ctx: PrecisionContext, rng, samples: int = 4):
    for name, g in small_corpus_groups():
        table = character_table(g, ctx)
        subs = [SubgroupDesc(g, s) for s in g.subgroup_classes if 1 < len(s) < g.n]
        if not subs:
            continue
        for _ in range(samples):
            sub = subs[rng.randrange(len(subs))]
            htable = character_table(sub.as_group, ctx)
            chi = table[rng.randrange(len(table))]
            psi = htable[rng.randrange(len(htable))]
            lhs = inner_product(chi, induce(psi, sub))
            rhs = inner_product(restrict(chi, sub), psi)
            if not lhs.equals(rhs):
                raise CheckFailure("Frobenius reciprocity failed", {"group": name})
    return {}


def check_projection_rule(ctx: PrecisionContext, rng):
    """Image of e(chi) in the quotient algebra: e(chi-bar) or 0."""
    from .characters import character_kernel, inflate

    for name, g in small_corpus_groups():
        table = character_table(g, ctx)
        normals = [s for s in g.subgroup_classes if 1 < len(s) < g.n and g.is_normal(s)]
        for nels in normals:
            nsub = g.subgroup(nels)
            for chi in table:
                img, q, proj = project_idempotent(chi, nsub)
                qtable = character_table(q, ctx)
                if nels <= character_kernel(chi):
                    bar = next(cb for cb in qtable if inflate(cb, g, q, proj).equals(chi))
                    if not img.equals(idempotent(bar)):
                        raise CheckFailure("projection missed e(chi-bar)", {"group": name})
                else:
                    if not all(c.equals(ctx.zero()) for c in img.coeffs):
                        raise CheckFailure("projection not zero off the kernel", {"group": name})
    return {}


def check_transform_laws(ctx: PrecisionContext, rng, samples: int = 20):
    g = dict(corpus_groups())["S3"]
    table = character_table(g, ctx)
    for _ in range(samples):
        a, b, c = (table[rng.randrange(len(table))] for _ in range(3))
        if not inner_product(a, tensor(b, c)).equals(inner_product(tensor(a, dual(b)), c)):
            raise CheckFailure("tensor-dual adjunction failed", {})
        if not dual(dual(a)).equals(a):
            raise CheckFailure("dual is not an involution", {})
        if not (a + b).equals(b + a):
            raise CheckFailure("character addition not commutative", {})
    return {}


# ---------------------------------------------------------------------------
# brauer suite
# ---------------------------------------------------------------------------


def check_brauer_resummation(ctx: PrecisionContext, rng):
    total = 0
    for name, g in corpus_groups():
        table = character_table(g, ctx)
        for chi in table:
            decomp = brauer_decompose(chi)
            if not resum_induced(decomp, g, ctx).equals(chi):
                raise CheckFailure("decomposition does not re-sum", {"group": name})
            if any(not isinstance(z, int) or z == 0 for z, _s, _l in decomp):
                raise CheckFailure("non-integer or zero coefficient", {"group": name})
            total += 1
    return {"characters": total}


def check_brauer_s3_witness(ctx: PrecisionContext, rng):
    g = dict(corpus_groups())["S3"]
    table = character_table(g, ctx)
    two = next(ch for ch in table if ch.degree_int() == 2)
    decomp = brauer_decompose(two)
    if len(decomp) != 1:
        raise CheckFailure("expected a single induction term", {"got": len(decomp)})
    z, sub, lam = decomp[0]
    if z != 1 or sub.order != 3 or all(v.equals(ctx.one()) for v in lam.values):
        raise CheckFailure(
            "expected coefficient 1 on a nontrivial linear character of C_3",
            {"z": z, "order": sub.order},
        )
    return {}


# ---------------------------------------------------------------------------
# tower suite
# ---------------------------------------------------------------------------


def check_w_chi_values(ctx: PrecisionContext, rng):
    out = {}
    for name, t in corpus_towers(ctx):
        lv = t.level(min(1, t.n_max))
        table = character_table(lv.group, ctx)
        ws = []
        for ch in table:
            chi = ArtinCharacter(t, min(1, t.n_max), ch)
            w = w_chi(t, chi)
            ws.append(w)
            k = w
            while k % ctx.p == 0:
                k //= ctx.p
            if k != 1:
                raise CheckFailure("w is not a p-power", {"tower": name, "w": w})
            if name.startswith("split") and w != 1:
                raise CheckFailure("split tower must have w = 1", {"tower": name})
        if name.startswith("attested") and max(ws) != ctx.p:
            raise CheckFailure("attested tower should exhibit w = p", {"tower": name, "ws": ws})
        out[name] = max(ws)
    return out


def check_e_chi_laws(ctx: PrecisionContext, rng):
    for name, t in corpus_towers(ctx):
        lv = t.level(min(1, t.n_max))
        table = character_table(lv.group, ctx)
        chars = [ArtinCharacter(t, min(1, t.n_max), ch) for ch in table]
        reps = []
        for chi in chars:
            e = e_chi(t, chi)
            if not (e * e).equals(e) or not e.is_central():
                raise CheckFailure("e_chi not a central idempotent", {"tower": name})
            if not any(w_equivalent(t, chi, other) for other, _ in reps):
                reps.append((chi, e))
        total = reps[0][1]
        for _, e in reps[1:]:
            total = total + e
        if not total.equals(algebra_one(reps[0][1].group, ctx)):
            raise CheckFailure("W-class idempotents do not sum to 1", {"tower": name})
        for i, (ci, ei) in enumerate(reps):
            for j, (cj, ej) in enumerate(reps):
                if i < j:
                    prod = ei * ej
                    if not all(c.equals(ctx.zero()) for c in prod.coeffs):
                        raise CheckFailure("inequivalent e_chi not orthogonal", {"tower": name})
                    if w_equivalent(t, ci, cj):
                        raise CheckFailure("distinct reps marked equivalent", {"tower": name})
    return {}


def _budget_twist_level(ctx: PrecisionContext) -> int:
    """Largest k with v(zeta_{p^k} - 1) * cap_D >= 1: evaluation at such points
    certifies at least one digit within the truncation budget."""
    k = 1
    while ctx.p**k * (ctx.p - 1) <= ctx.cap_D:
        k += 1
    return k


def check_twisted_evaluation(ctx: PrecisionContext, rng, count: int = 500):
    towers = corpus_towers(ctx)
    pool = []
    for name, t in towers:
        lv = t.level(min(1, t.n_max))
        for ch in character_table(lv.group, ctx):
            if ch.is_irreducible():
                pool.append((t, ArtinCharacter(t, min(1, t.n_max), ch)))
    k_top = min(2, _budget_twist_level(ctx))
    for k in range(count):
        t, chi = pool[rng.randrange(len(pool))]
        w = w_chi(t, chi)
        num = TruncatedSeries.from_coeffs(ctx, [rng.randrange(ctx.p**6) for _ in range(rng.randint(1, 5))])
        den = TruncatedSeries.from_coeffs(
            ctx, [1] + [ctx.p * rng.randrange(ctx.p**4) for _ in range(rng.randint(0, 2))]
        )
        q = SeriesQuotient(num, den, reduced=True)
        cond = ctx.p ** rng.randint(0, k_top)
        rho = TypeWCharacter(make_root_of_unity(ctx, cond, rng.randrange(cond)))
        lhs = twisted_evaluate(t, q, chi, rho)
        rhs = evaluate_quotient(substitute_twist(q, rho.value**w), ctx.zero())
        if not lhs.equals(rhs):
            raise CheckFailure("twisted evaluation disagrees with substitution", {"instance": k})
    return {"count": count}


def check_twist_uniqueness(ctx: PrecisionContext, rng, count: int = 100):
    name, t = corpus_towers(ctx)[0]
    lv = t.level(1)
    chi = ArtinCharacter(t, 1, character_table(lv.group, ctx)[0])
    # pick a twist conductor inside the budget, then a degree bound the number
    # of available distinct points can certify
    k = _budget_twist_level(ctx)
    while k > 1 and ctx.p**k - ctx.p ** (k - 1) > 8:
        k -= 1
    exps = [j for j in range(1, ctx.p**k) if j % ctx.p]
    points = min(len(exps), 5)
    bound = min(2, (points - 1) // 2)
    if bound < 1:
        raise SkipCheck("budget leaves too few twist points for any degree bound")
    rhos = [TypeWCharacter(make_root_of_unity(ctx, ctx.p**k, j)) for j in exps[:points]]
    tvar = TruncatedSeries.variable(ctx)
    one = TruncatedSeries.one(ctx)
    for k in range(count):
        coeffs = [rng.randrange(ctx.p**4) for _ in range(2)]
        q = SeriesQuotient(TruncatedSeries.from_coeffs(ctx, coeffs), one, reduced=True)
        if k % 2 == 0:
            q2 = reduce_quotient(TruncatedSeries.from_coeffs(ctx, coeffs) * tvar, tvar)
            if not uniqueness_from_twists(t, q, q2, chi, rhos, degree_bound=bound):
                raise CheckFailure("equal quotients not certified equal", {"instance": k})
        else:
            bumped = [coeffs[0] + 1, coeffs[1]]
            q2 = SeriesQuotient(TruncatedSeries.from_coeffs(ctx, bumped), one, reduced=True)
            if uniqueness_from_twists(t, q, q2, chi, rhos, degree_bound=bound):
                raise CheckFailure("distinct quotients certified equal", {"instance": k})
    return {"count": count}


def check_worked_example(ctx: PrecisionContext, rng):
    if ctx.p != 3:
        raise SkipCheck("the worked example is 3-adic")
    t, v = worked_example_tower(ctx)
    if v.k_v != 1 or n_of_s(t, [v]) != 1:
        raise CheckFailure("place data wrong", {"k_v": v.k_v})
    if coinvariant_kernel_order(t, [v], 0) != 3:
        raise CheckFailure("kernel order at level 0 must be 3", {})
    if coinvariant_kernel_order(t, [v], 1) != 1:
        raise CheckFailure("kernel order at level 1 must be 1", {})
    return {"orders": [3, 1]}


def check_kernel_order_monotone(ctx: PrecisionContext, rng):
    for name, t in corpus_towers(ctx):
        places = tower_places(t, name)
        orders = [coinvariant_kernel_order(t, places, n) for n in range(t.n_max + 1)]
        if orders != sorted(orders, reverse=True):
            raise CheckFailure("kernel order is not monotone", {"tower": name, "orders": orders})
        if orders[n_of_s(t, places)] != 1:
            raise CheckFailure("kernel order not 1 at n(S)", {"tower": name})
    return {}


def check_xy_modules(ctx: PrecisionContext, rng):
    for name, t in corpus_towers(ctx):
        places = tower_places(t, name)
        for n in range(t.n_max + 1):
            y, x_rank, aug = xy_modules(t, places, n)
            if x_rank != y.rank - 1:
                raise CheckFailure("augmentation kernel rank wrong", {"tower": name})
            g = y.group
            for s in range(g.n):
                perm = y.perms[s]
                if sorted(perm) != list(range(y.rank)):
                    raise CheckFailure("action not a permutation", {"tower": name})
            for _ in range(10):
                s, u = rng.randrange(g.n), rng.randrange(g.n)
                su = g.table[s][u]
                comp = tuple(y.perms[s][y.perms[u][i]] for i in range(y.rank))
                if comp != y.perms[su]:
                    raise CheckFailure("action is not a homomorphism", {"tower": name})
    return {}


def check_galois_transport(ctx: PrecisionContext, rng, count: int = 60):
    from .padic import galois_apply

    name, t = corpus_towers(ctx)[1]
    chi = ArtinCharacter(t, 1, character_table(t.level(1).group, ctx)[0])
    z = make_root_of_unity(ctx, ctx.p**2, 1)
    for k in range(count):
        coeffs = [rng.randrange(ctx.p**4) * z ** rng.randint(0, 3) for _ in range(3)]
        q = SeriesQuotient(TruncatedSeries.from_coeffs(ctx, coeffs), TruncatedSeries.one(ctx), reduced=True)
        a = rng.choice([a for a in range(2, ctx.p**2) if a % ctx.p])
        x = (z - 1) * ctx.p
        qt, _ = galois_transport(a, q, chi)
        lhs = evaluate_quotient(qt, galois_apply(a, x))
        rhs = galois_apply(a, evaluate_quotient(q, x))
        if not lhs.equals(rhs):
            raise CheckFailure("transport does not commute with evaluation", {"instance": k})
        b = rng.choice([b for b in range(2, ctx.p**2) if b % ctx.p])
        qa, _ = galois_transport(a, q, chi)
        q_ab, _ = galois_transport(b, qa, chi)
        q_c, _ = galois_transport((a * b) % (ctx.p**2), q, chi)
        if not q_ab.num.equals(q_c.num):
            raise CheckFailure("transport is not a group action", {"instance": k})
    return {"count": count}


# ---------------------------------------------------------------------------
# euler suite
# ---------------------------------------------------------------------------


def check_delta_nonvanishing(ctx: PrecisionContext, rng, count: int = 500):
    for k in range(count):
        d = random_local_datum(ctx, rng)
        _, delta0 = euler_delta_at0(d)
        if not linalg.is_invertible(delta0):
            raise CheckFailure("delta factor vanished", {"instance": k})
    return {"count": count}


def check_local_multiplicativity(ctx: PrecisionContext, rng, count: int = 50):
    for k in range(count):
        a = random_local_datum(ctx, rng)
        b0 = random_local_datum(ctx, rng)
        b = LocalDatum(ctx, b0.frobenius, a.norm)
        s = direct_sum_local(a, b)
        la, da = euler_delta_at0(a)
        lb, db = euler_delta_at0(b)
        ls, ds = euler_delta_at0(s)
        if not ls.equals(la * lb) or not ds.equals(da * db):
            raise CheckFailure("factors not multiplicative under direct sum", {"instance": k})
    return {"count": count}


def check_order_of_vanishing(ctx: PrecisionContext, rng, count: int = 100):
    groups = small_corpus_groups()
    for k in range(count):
        name, g = groups[rng.randrange(len(groups))]
        table = character_table(g, ctx)
        chi = table[rng.randrange(len(table))]
        subs = [g.subgroup(s) for s in g.subgroup_classes]
        places = [subs[rng.randrange(len(subs))] for _ in range(rng.randint(1, 3))]
        r, cross = order_of_vanishing(chi, places)  # raises if the formulas disagree
        if r < 0:
            raise CheckFailure("negative order of vanishing", {"instance": k, "group": name})
    return {"count": count}


# ---------------------------------------------------------------------------
# regulator suite
# ---------------------------------------------------------------------------


def check_regulator_scalar_maps(ctx: PrecisionContext, rng):
    g = dict(small_corpus_groups())["S3"]
    table = character_table(g, ctx)
    two = next(ch for ch in table if ch.degree_int() == 2)
    v = irreducible_representation(two)
    m = v.direct_sum(v)
    for c_int in (2, 5, 7):
        c = ctx.make(c_int)
        ident = linalg.identity_matrix(ctx, m.dim)
        scaled = tuple(tuple(x * c for x in row) for row in ident)
        reg = regulator_det(RegulatorProblem(g, two, v, m, m, scaled))
        d = len(hom_basis(v, m))
        if not reg.equals(c**d):
            raise CheckFailure("scalar map should give c^d", {"c": c_int, "d": d})
    return {}


def check_regulator_isotypic_power(ctx: PrecisionContext, rng, count: int = 50):
    towers = corpus_towers(ctx)
    done = 0
    attempts = 0
    while done < count and attempts < count * 6:
        attempts += 1
        name, t = towers[rng.randrange(len(towers))]
        n = rng.randint(0, min(1, t.n_max))
        g = t.level(n).group
        places = tower_places(t, name)
        y, _, _ = xy_modules(t, places, n)
        xrep = x_representation(y, ctx)
        table = character_table(g, ctx)
        chi = table[rng.randrange(len(table))]
        coeffs = [rng.randint(-2, 3) for _ in range(g.num_classes)]
        coeffs[0] = rng.randint(1, 4)
        f = class_function_map(xrep, coeffs)
        v = irreducible_representation(chi)
        try:
            reg = regulator_det(RegulatorProblem(g, chi, v, xrep, xrep, f))
        except KernelConditionError:
            continue
        blk = det_on_isotypic_part(chi, xrep, f)
        if not blk.equals(reg ** chi.degree_int()):
            raise CheckFailure("isotypic determinant is not regulator^deg", {"tower": name})
        done += 1
    if done < count:
        raise CheckFailure("too many degenerate instances", {"done": done})
    return {"count": done}


def check_regulator_multiplicativity(ctx: PrecisionContext, rng, count: int = 10):
    g = dict(small_corpus_groups())["S3"]
    table = character_table(g, ctx)
    two = next(ch for ch in table if ch.degree_int() == 2)
    v = irreducible_representation(two)
    m = v.direct_sum(v)
    done = 0
    while done < count:
        c1 = [rng.randint(1, 4), rng.randint(-2, 2), rng.randint(-2, 2)]
        c2 = [rng.randint(1, 4), rng.randint(-2, 2), rng.randint(-2, 2)]
        f1 = class_function_map(m, c1)
        f2 = class_function_map(m, c2)
        comp = linalg.mat_mul([list(r) for r in f1], [list(r) for r in f2])
        try:
            r1 = regulator_det(RegulatorProblem(g, two, v, m, m, f1))
            r2 = regulator_det(RegulatorProblem(g, two, v, m, m, f2))
        except KernelConditionError:
            continue
        rc = regulator_det(RegulatorProblem(g, two, v, m, m, tuple(tuple(r) for r in comp)))
        if not rc.equals(r1 * r2):
            raise CheckFailure("regulator not multiplicative", {})
        done += 1
    return {"count": done}


def check_regulator_layer_invariance(ctx: PrecisionContext, rng):
    for name, t in corpus_towers(ctx):
        if t.n_max < 1:
            continue
        places = tower_places(t, name)
        g0 = t.level(0).group
        gm = t.level(1).group
        for chi0 in character_table(g0, ctx)[:4]:
            chi = ArtinCharacter(t, 0, chi0)
            coeffs = [rng.randint(1, 3)] + [rng.randint(0, 2) for _ in range(gm.num_classes - 1)]
            try:
                ok = regulator_layer_invariance(t, places, chi, 1, coeffs)
            except KernelConditionError:
                continue
            if not ok:
                raise CheckFailure("regulator moved between levels", {"tower": name})
    return {}


# ---------------------------------------------------------------------------
# ktheory suite
# ---------------------------------------------------------------------------


def _rand_unit_matrix(ctx, rng, n, m=1):
    z = make_root_of_unity(ctx, m, 1) if m > 1 else ctx.one()
    while True:
        mat = [
            [ctx.make(rng.randint(-3, 3)) * z ** rng.randint(0, max(m - 1, 0)) for _ in range(n)]
            for _ in range(n)
        ]
        if linalg.is_invertible(linalg.det(mat, ctx)):
            return mat


def check_det_against_oracle(ctx: PrecisionContext, rng):
    from itertools import permutations as _perms

    ring = ProductRing(ctx, (1,))
    for n in range(1, 7):
        mat = _rand_unit_matrix(ctx, rng, n)
        ranks = FreeModuleRanks(ring, (n,))
        f = FreeModuleMap(ring, ranks, ranks, (tuple(tuple(r) for r in mat),))
        (got,) = det_of_map(f)
        acc = ctx.zero()
        for perm in _perms(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = ctx.one()
            for i in range(n):
                term = term * mat[i][perm[i]]
            acc = acc + term if sign > 0 else acc - term
        if not got.equals(acc):
            raise CheckFailure("determinant disagrees with the wedge oracle", {"rank": n})
    return {}


def check_dual_relations(ctx: PrecisionContext, rng, count: int = 100):
    ring = ProductRing(ctx, (1, 4))
    m = FreeModuleRanks(ring, (2, 1))
    gen = standard_generator(m)
    for k in range(count):
        r = tuple(ctx.make(rng.choice([1, 2, 4, 5, 7])) for _ in range(2))
        dualg = dual_generator(gen)
        if not ring.elem_equals(pairing_value(gen, dualg), ring.one()):
            raise CheckFailure("m*(m) != 1", {"instance": k})
        scaled = gen.scaled(r)
        want = ring.elem_mul(dualg.scalar, ring.elem_inv(r))
        if not ring.elem_equals(dual_generator(scaled).scalar, want):
            raise CheckFailure("(rm)* != r^-1 m*", {"instance": k})
        if not dual_generator(dualg).equals(gen):
            raise CheckFailure("double dual failed", {"instance": k})
        c = tuple(ctx.make(rng.randint(1, 9)) for _ in range(2))
        x = gen.scaled(c)
        lhs = iota_value(gen, x).scalar
        rr = ring.elem_mul(r, r)
        rhs = ring.elem_mul(rr, iota_value(scaled, x).scalar)
        if not ring.elem_equals(lhs, rhs):
            raise CheckFailure("iota scaling relation failed", {"instance": k})
    return {"count": count}


def check_dual_inverse_lemma(ctx: PrecisionContext, rng, count: int = 100):
    ring = ProductRing(ctx, (5,))
    m = FreeModuleRanks(ring, (3,))
    for k in range(count):
        mat = _rand_unit_matrix(ctx, rng, 3, m=5)
        f = FreeModuleMap(ring, m, m, (tuple(tuple(r) for r in mat),))
        a, b = dual_inverse_check(f, standard_generator(m), standard_generator(m))
        if not ring.elem_equals(ring.elem_mul(a, b), ring.one()):
            raise CheckFailure("beta != alpha^-1", {"instance": k})
    return {"count": count}


def check_additivity_splittings(ctx: PrecisionContext, rng, sequences: int = 5, splittings: int = 20):
    ring = ProductRing(ctx, (1,))
    z, o = ctx.zero(), ctx.one()
    for s_idx in range(sequences):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        sub = FreeModuleRanks(ring, (a,))
        quot = FreeModuleRanks(ring, (b,))
        total = FreeModuleRanks(ring, (a + b,))
        iota = FreeModuleMap(
            ring, sub, total, (tuple(tuple(o if i == j else z for j in range(a)) for i in range(a + b)),)
        )
        pi = FreeModuleMap(
            ring, total, quot, (tuple(tuple(o if j == a + i else z for j in range(a + b)) for i in range(b)),)
        )
        sigma0 = FreeModuleMap(
            ring, quot, total, (tuple(tuple(o if i == a + j else z for j in range(b)) for i in range(a + b)),)
        )
        base = additivity_iso(iota, pi, sigma0, standard_generator(sub), standard_generator(quot))
        for _ in range(splittings):
            h = [[ctx.make(rng.randint(-4, 4)) for _ in range(b)] for _ in range(a)]
            pert = [
                [sigma0.comps[0][i][j] + (h[i][j] if i < a else z) for j in range(b)]
                for i in range(a + b)
            ]
            sigma = FreeModuleMap(ring, quot, total, (tuple(tuple(r) for r in pert),))
            out = additivity_iso(iota, pi, sigma, standard_generator(sub), standard_generator(quot))
            if not ring.elem_equals(out.scalar, base.scalar):
                raise CheckFailure("splitting changed the additivity image", {"sequence": s_idx})
    return {"sequences": sequences, "splittings": splittings}


def check_k0_relations(ctx: PrecisionContext, rng, count: int = 100):
    ring = ProductRing(ctx, (1, 4, 5))
    m = FreeModuleRanks(ring, (2, 1, 2))
    for k in range(count):
        comps = (
            tuple(tuple(r) for r in _rand_unit_matrix(ctx, rng, 2)),
            tuple(tuple(r) for r in _rand_unit_matrix(ctx, rng, 1, m=4)),
            tuple(tuple(r) for r in _rand_unit_matrix(ctx, rng, 2, m=5)),
        )
        f = FreeModuleMap(ring, m, m, comps)
        if not is_identity_witness(identity_class(m)):
            raise CheckFailure("[M, Id, M] witness failed", {"instance": k})
        cls = class_of_map(f)
        if not verify_inverse_relation(cls):
            raise CheckFailure("inverse relation witness failed", {"instance": k})
        comps_g = (
            tuple(tuple(r) for r in _rand_unit_matrix(ctx, rng, 2)),
            tuple(tuple(r) for r in _rand_unit_matrix(ctx, rng, 1, m=4)),
            tuple(tuple(r) for r in _rand_unit_matrix(ctx, rng, 2, m=5)),
        )
        g = FreeModuleMap(ring, m, m, comps_g)
        w = composition_witness(cls, class_of_map(g))
        if not w.map.equals(g.compose(f)):
            raise CheckFailure("composition witness failed", {"instance": k})
        nr_f, bf = boundary_and_nr(ring, f.comps)
        nr_g, bg = boundary_and_nr(ring, g.comps)
        nr_fg, bfg = boundary_and_nr(ring, g.compose(f).comps)
        if not ring.elem_equals(nr_fg, ring.elem_mul(nr_f, nr_g)):
            raise CheckFailure("reduced norm not multiplicative", {"instance": k})
        if not composition_witness(bf, bg).map.equals(bfg.map):
            raise CheckFailure("boundary additivity witness failed", {"instance": k})
    return {"count": count}


def check_rec_class_behaviour(ctx: PrecisionContext, rng, splittings: int = 20):
    ring = ProductRing(ctx, (1,))
    x = ctx.make(ctx.p)
    c = two_term_complex(ring, [((x,),)])
    cls = rec_class(c)
    got = cls.map.comps[0][0][0]
    if not got.equals(x.inverse()):
        raise CheckFailure("two-term class is not multiplication by x^-1", {})
    from .ktheory import shift_complex

    shifted = rec_class(shift_complex(c))
    if not shifted.map.comps[0][0][0].equals(x):
        raise CheckFailure("shifted class is not the inverse", {})
    mat = ((x, ctx.one()), (ctx.zero(), ctx.make(2 * ctx.p)))
    c2 = two_term_complex(ring, [mat])
    base = det_of_map(rec_class(c2).map)
    for seed in range(splittings):
        sheared = det_of_map(rec_class(c2, shear_seed=seed).map)
        if not ring.elem_equals(base, sheared):
            raise CheckFailure("splitting choice moved the class determinant", {"seed": seed})
    # generator pairing: phi_t applied to a generator is a unit whose boundary
    # class has the matrix determinant of the class itself
    u = det_of_map(rec_class(c2).map)
    if not ring.is_unit(u):
        raise CheckFailure("phi_t generator image is not a unit", {})
    _, bcls = boundary_and_nr(ring, ((u,),))
    if not det_of_map(bcls.map)[0].equals(det_of_map(rec_class(c2).map)[0]):
        raise CheckFailure("boundary of the generator image mismatches the class", {})
    return {"splittings": splittings}


# ---------------------------------------------------------------------------
# registry and the runner
# ---------------------------------------------------------------------------

SUITES = {
    "series": [
        ("series/weierstrass-roundtrip", "preparation round trip", check_weierstrass_roundtrip),
        ("series/cyclotomic-identities", "tower polynomial identities", check_cyclotomic_identities),
        ("series/rank-stabilisation", "coinvariant ranks vs SNF oracle", check_rank_stabilisation),
        ("series/quotient-reduction", "common factor removal", check_quotient_reduction),
        ("series/interpolation", "quotient reconstruction from values", check_interpolation),
    ],
    "chars": [
        ("chars/tables-orthogonality", "schur-orthogonality and degree sums", check_tables_and_orthogonality),
        ("chars/column-orthogonality", "column orthogonality", check_column_orthogonality),
        ("chars/idempotent-laws", "central idempotent relations", check_idempotent_laws),
        ("chars/frobenius-reciprocity", "frobenius reciprocity", check_frobenius_reciprocity),
        ("chars/projection-rule", "idempotent projection rule", check_projection_rule),
        ("chars/transform-laws", "transform adjunctions", check_transform_laws),
    ],
    "brauer": [
        ("brauer/resummation", "induction decompositions re-sum", check_brauer_resummation),
        ("brauer/s3-witness", "S3 two-dimensional witness", check_brauer_s3_witness),
    ],
    "tower": [
        ("tower/w-chi", "stabiliser indices", check_w_chi_values),
        ("tower/e-chi", "restriction idempotents", check_e_chi_laws),
        ("tower/twisted-evaluation", "twist vs substitution", check_twisted_evaluation),
        ("tower/twist-uniqueness", "uniqueness from twists", check_twist_uniqueness),
        ("tower/worked-example", "3-adic kernel order example", check_worked_example),
        ("tower/kernel-order", "kernel order monotonicity", check_kernel_order_monotone),
        ("tower/xy-modules", "coset module bookkeeping", check_xy_modules),
        ("tower/galois-transport", "coefficient transport", check_galois_transport),
    ],
    "euler": [
        ("euler/delta-nonvanishing", "delta factors at 0", check_delta_nonvanishing),
        ("euler/multiplicativity", "direct sum multiplicativity", check_local_multiplicativity),
        ("euler/order-of-vanishing", "two vanishing-order formulas", check_order_of_vanishing),
    ],
    "regulator": [
        ("regulator/scalar-maps", "c id gives c^d", check_regulator_scalar_maps),
        ("regulator/isotypic-power", "block det = regulator^deg", check_regulator_isotypic_power),
        ("regulator/multiplicativity", "composition multiplicativity", check_regulator_multiplicativity),
        ("regulator/layer-invariance", "level independence", check_regulator_layer_invariance),
    ],
    "ktheory": [
        ("ktheory/det-oracle", "wedge determinant oracle", check_det_against_oracle),
        ("ktheory/dual-relations", "dual generator laws", check_dual_relations),
        ("ktheory/dual-inverse", "inverse pairing lemma", check_dual_inverse_lemma),
        ("ktheory/additivity", "splitting independence", check_additivity_splittings),
        ("ktheory/k0-relations", "relative K0 relation witnesses", check_k0_relations),
        ("ktheory/rec-class", "refined Euler characteristic", check_rec_class_behaviour),
    ],
}

SUITES["all"] = [entry for name in ("series", "chars", "brauer", "tower", "euler", "regulator", "ktheory") for entry in SUITES[name]]


def _corpus_fixture_checks(cfg: SuiteConfig):
    """External corpus claims become extra checks; a bad claim yields a fail
    record with a reproducible witness."""
    if not cfg.corpus_path:
        return []
    with open(cfg.corpus_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    checks = []
    for idx, claim in enumerate(doc.get("claims", [])):
        checks.append(_make_claim_check(idx, claim))
    return checks


def _make_claim_check(idx: int, claim: dict):
    kind = claim.get("type", "unknown")

    def run(ctx, rng):
        from . import serialize

        if kind == "weierstrass":
            f = serialize.series_from_json(ctx, claim["series"])
            s, _u, pp = weierstrass_prepare(f)
            want_s = claim["s"]
            want_p = serialize.poly_from_json(ctx, claim["P"])
            if s != want_s or not pp.equals(want_p):
                raise CheckFailure(
                    "claimed preparation is wrong",
                    {"claim": idx, "s_got": s, "s_claimed": want_s},
                )
            return {}
        if kind == "kernel-order":
            t = serialize.tower_from_json(ctx, claim["tower"])
            places = [serialize.place_from_json(t, p) for p in claim["places"]]
            got = coinvariant_kernel_order(t, places, claim["level"])
            if got != claim["order"]:
                raise CheckFailure(
                    "claimed kernel order is wrong",
                    {"claim": idx, "got": got, "claimed": claim["order"]},
                )
            return {}
        raise CheckFailure(f"unknown claim type {kind!r}", {"claim": idx})

    return (f"corpus/claim-{idx}", f"external claim ({kind})", run)


def _crash_witness(exc: BaseException) -> dict:
    """The exception, its class name, and its innermost iwlab frame as
    module:line:function."""
    where = None
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module == "iwlab" or module.startswith("iwlab."):
            where = f"{module}:{tb.tb_lineno}:{tb.tb_frame.f_code.co_name}"
        tb = tb.tb_next
    return {"error": repr(exc), "type": type(exc).__name__, "where": where}


def run_suite(cfg: SuiteConfig) -> Report:
    if cfg.suite not in SUITES:
        raise ValueError(f"unknown suite {cfg.suite!r}")
    ctx = PrecisionContext(p=cfg.p, cap_N=cfg.cap_n, cap_D=cfg.cap_d)
    checks = list(SUITES[cfg.suite]) + _corpus_fixture_checks(cfg)
    start = time.monotonic()

    def run_one(entry):
        check_id, law, fn = entry
        rng = random.Random(f"{cfg.seed}:{check_id}")
        try:
            witness = fn(ctx, rng)
            return CheckRecord(check_id, law, "pass", witness if witness else None)
        except SkipCheck as exc:
            return CheckRecord(check_id, law, "skip", {"reason": str(exc)})
        except CheckFailure as exc:
            return CheckRecord(check_id, law, "fail", exc.witness)
        except Exception as exc:  # noqa: BLE001 - a crash is a failed check with a witness
            return CheckRecord(check_id, law, "fail", _crash_witness(exc))

    records = [run_one(entry) for entry in checks]
    records.sort(key=lambda r: r.id)
    report = Report(cfg.suite, cfg.p, cfg.cap_n, cfg.cap_d, cfg.seed, records)
    report.elapsed = time.monotonic() - start
    return report
