"""Layer probe: seeded direct calls into single layers, for the scaling points
in ROADMAP.md.  Runs only beside a traced benchmark run, never in a timed one.

Each figure is the median over a few rounds of the mean time per call in a
round; a round repeats the call until it has run for at least ``MIN_ROUND_S``.
"""

from __future__ import annotations

import random
import statistics
import time

MIN_ROUND_S = 0.1
ROUNDS = 3


def _per_call(fn) -> float:
    """Median seconds per call of ``fn()``."""
    fn()  # warm caches that users would also have warm
    rounds = []
    for _ in range(ROUNDS):
        reps = 0
        t0 = time.perf_counter()
        while True:
            fn()
            reps += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= MIN_ROUND_S:
                break
        rounds.append(elapsed / reps)
    return statistics.median(rounds)


def _scalar(ctx, rng, m):
    from iwlab._intpoly import euler_phi
    from iwlab.padic import CycloPadic

    return CycloPadic(ctx, m, [rng.randrange(ctx.p**ctx.cap_N) for _ in range(euler_phi(m))], ctx.cap_N)


def _prepare_input(p, cap_n, cap_d, deg, rng):
    """f = u * P with P distinguished of degree ``deg`` and u a unit."""
    from iwlab.padic import PrecisionContext
    from iwlab.series import DistinguishedPolynomial, TruncatedSeries

    ctx = PrecisionContext(p=p, cap_N=cap_n, cap_D=cap_d)
    pc = [p * rng.randrange(p ** (cap_n - 1)) for _ in range(deg)] + [1]
    uc = [rng.randrange(p**cap_n) for _ in range(cap_d - 1 - deg)]
    while uc[0] % p == 0:
        uc[0] = rng.randrange(p**cap_n)
    return TruncatedSeries.from_coeffs(ctx, uc) * DistinguishedPolynomial.from_coeffs(ctx, pc).to_series()


def _idempotent_pair(group, p):
    """Two central idempotents of the group algebra, as the chars suite uses."""
    from iwlab.characters import character_table, idempotent
    from iwlab.padic import PrecisionContext

    table = character_table(group, PrecisionContext(p=p, cap_N=20, cap_D=40))
    return idempotent(table[-1]), idempotent(table[-2])


def run(seed: int) -> dict:
    """Every probe metric, in the units its name states."""
    from iwlab._intpoly import polymul
    from iwlab.groups import dihedral_group, symmetric_group
    from iwlab.padic import PrecisionContext
    from iwlab.series import weierstrass_prepare

    rng = random.Random(f"probe:{seed}")
    ctx = PrecisionContext(p=3, cap_N=20, cap_D=40)
    out = {}

    a1, b1 = ctx.make(rng.randrange(3**20)), ctx.make(rng.randrange(3**20))
    out["padic.mul_us.m1"] = _per_call(lambda: a1 * b1) * 1e6
    x, y, w = (_scalar(ctx, rng, 9) for _ in range(3))
    near = x + w * ctx.make(3**10)
    out["padic.mul_us.m9"] = _per_call(lambda: x * y) * 1e6
    out["padic.add_us.m9"] = _per_call(lambda: x + y) * 1e6
    out["padic.equals_us.m9"] = _per_call(lambda: x.equals(near)) * 1e6
    out["padic.valuation_us.m9"] = _per_call(x.min_valuation) * 1e6
    out["padic.coerce_us.m9"] = _per_call(lambda: ctx.make(1).embed(9)) * 1e6

    pa = [rng.randrange(-(3**20), 3**20) for _ in range(65)]
    pb = [rng.randrange(-(3**20), 3**20) for _ in range(65)]
    out["intpoly.polymul_us.deg64"] = _per_call(lambda: polymul(pa, pb)) * 1e6

    for cap_n in (20, 40, 80):
        f = _prepare_input(3, cap_n, 8, 4, rng)
        out[f"series.prepare_ms.N{cap_n}"] = _per_call(lambda: weierstrass_prepare(f)) * 1e3

    for label, group, p in (
        ("G8", dihedral_group(4), 3),
        ("G24", symmetric_group(4), 3),
        ("G64", dihedral_group(32), 3),
        ("G24.p2", symmetric_group(4), 2),
    ):
        e1, e2 = _idempotent_pair(group, p)
        out[f"characters.algebra_mul_ms.{label}"] = _per_call(lambda: e1 * e2) * 1e3
    return out
