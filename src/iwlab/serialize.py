"""Versioned JSON encodings of the domain types.

Scalars are serialized as canonical residues: {m, coeffs: [[num, den_exp], ...],
prec} meaning sum coeff_i zeta_m^i with coeff_i = num / p^den_exp, the numerator
reduced modulo p^(prec + den_exp).  All container schemas carry a "schema" key.
"""

from __future__ import annotations

from ._intpoly import euler_phi
from .groups import FiniteGroup
from .iwmodules import ElementaryModuleDesc
from .lfactors import LocalDatum
from .padic import CycloPadic, PrecisionContext, _vp_int
from .series import DistinguishedPolynomial, SeriesQuotient, TruncatedSeries

SCHEMAS = {
    "scalar": "iwlab-scalar/1",
    "series": "iwlab-series/1",
    "quotient": "iwlab-quotient/1",
    "module": "iwlab-elementary-module/1",
    "group": "iwlab-group/1",
    "character": "iwlab-character/1",
    "tower": "iwlab-tower/1",
    "place": "iwlab-place/1",
    "local": "iwlab-local-datum/1",
    "complex": "iwlab-complex/1",
    "corpus": "iwlab-corpus/1",
}


def scalar_to_json(x: CycloPadic) -> dict:
    r = x.reduce_mod()
    p = x.ctx.p
    top = _vp_int(r.den, p)  # r.den = p^top
    coeffs = []
    for num in r.nums:
        k = top
        while k and num % p == 0:
            num //= p
            k -= 1
        coeffs.append([num, k])
    return {"schema": SCHEMAS["scalar"], "m": r.m, "coeffs": coeffs, "prec": r.prec}


def scalar_from_json(ctx: PrecisionContext, doc: dict) -> CycloPadic:
    m = doc["m"]
    pairs = doc["coeffs"]
    if len(pairs) != euler_phi(m):
        raise ValueError("wrong coefficient count for the conductor")
    if any(k < 0 for _, k in pairs):
        raise ValueError("negative denominator exponent")
    top = max(k for _, k in pairs)
    return CycloPadic(ctx, m, [num * ctx.p ** (top - k) for num, k in pairs], doc["prec"], ctx.p**top)


def series_to_json(f: TruncatedSeries) -> dict:
    return {
        "schema": SCHEMAS["series"],
        "coeffs": [scalar_to_json(f.coeff(i)) for i in range(f.ctx.cap_D)],
        "prec": f.prec,
    }


def series_from_json(ctx: PrecisionContext, doc: dict) -> TruncatedSeries:
    coeffs = [scalar_from_json(ctx, c) for c in doc["coeffs"]]
    return TruncatedSeries.from_coeffs(ctx, coeffs, prec=doc["prec"])


def quotient_to_json(q: SeriesQuotient) -> dict:
    return {
        "schema": SCHEMAS["quotient"],
        "num": series_to_json(q.num),
        "den": series_to_json(q.den),
        "reduced": q.reduced,
    }


def quotient_from_json(ctx: PrecisionContext, doc: dict) -> SeriesQuotient:
    return SeriesQuotient(
        series_from_json(ctx, doc["num"]), series_from_json(ctx, doc["den"]), doc["reduced"]
    )


def poly_to_json(f: DistinguishedPolynomial) -> dict:
    return {"coeffs": [scalar_to_json(f.coeff(i)) for i in range(f.degree + 1)], "prec": f.prec}


def poly_from_json(ctx: PrecisionContext, doc: dict) -> DistinguishedPolynomial:
    coeffs = [scalar_from_json(ctx, c) for c in doc["coeffs"]]
    return DistinguishedPolynomial.from_coeffs(ctx, coeffs, prec=doc["prec"])


def module_to_json(m: ElementaryModuleDesc) -> dict:
    return {
        "schema": SCHEMAS["module"],
        "r": m.free_rank,
        "mu": list(m.mu_parts),
        "lambda": [{"poly": poly_to_json(f), "power": l} for f, l in m.lambda_parts],
        "attested": m.attested,
    }


def module_from_json(ctx: PrecisionContext, doc: dict) -> ElementaryModuleDesc:
    parts = tuple((poly_from_json(ctx, e["poly"]), e["power"]) for e in doc["lambda"])
    return ElementaryModuleDesc(
        ctx, doc["r"], tuple(doc["mu"]), parts, attested=doc.get("attested", False)
    )


def group_to_json(g: FiniteGroup) -> dict:
    return {"schema": SCHEMAS["group"], "order": g.n, "cayley": [list(r) for r in g.table]}


def group_from_json(doc: dict, name: str = "G") -> FiniteGroup:
    if doc["order"] != len(doc["cayley"]):
        raise ValueError("order does not match the table")
    return FiniteGroup(doc["cayley"], name=name)


def character_to_json(ch, group_id: str) -> dict:
    return {
        "schema": SCHEMAS["character"],
        "group_id": group_id,
        "values": [scalar_to_json(v) for v in ch.values],
    }


def character_from_json(ctx: PrecisionContext, doc: dict, groups: dict):
    from .characters import Character

    g = groups[doc["group_id"]]
    return Character(g, tuple(scalar_from_json(ctx, v) for v in doc["values"]))


def tower_to_json(t) -> dict:
    from .tower import AttestedTower, SplitTower

    if isinstance(t, SplitTower):
        return {
            "schema": SCHEMAS["tower"],
            "p": t.p,
            "mode": "split",
            "H": group_to_json(t.h_group),
            "n_max": t.n_max,
        }
    if isinstance(t, AttestedTower):
        return {
            "schema": SCHEMAS["tower"],
            "p": t.p,
            "mode": "attested",
            "G_n0": group_to_json(t.g_star),
            "gamma_index": t.gamma,
            "h_elements": sorted(t.h_elements),
            "n_max": t.n_max,
        }
    raise TypeError("unknown tower kind")


def tower_from_json(ctx: PrecisionContext, doc: dict):
    from .tower import AttestedTower, SplitTower

    if doc["p"] != ctx.p:
        raise ValueError("tower prime does not match the context")
    if doc["mode"] == "split":
        return SplitTower(ctx, group_from_json(doc["H"], name="H"), doc["n_max"])
    if doc["mode"] == "attested":
        return AttestedTower(
            ctx,
            group_from_json(doc["G_n0"], name="G*"),
            doc["gamma_index"],
            frozenset(doc["h_elements"]),
            doc["n_max"],
        )
    raise ValueError(f"unknown tower mode {doc['mode']!r}")


def place_to_json(v) -> dict:
    return {
        "schema": SCHEMAS["place"],
        "label": v.label,
        "archimedean": v.archimedean,
        "norm": v.norm,
        "decomp_elements": sorted(v.decomp_elements),
        "k_v": None if v.archimedean else v.k_v,
    }


def place_from_json(tower, doc: dict):
    from .tower import PlaceDatum

    v = PlaceDatum(
        tower,
        doc["label"],
        doc["archimedean"],
        doc["norm"],
        frozenset(doc["decomp_elements"]),
    )
    if doc.get("k_v") is not None and v.k_v != doc["k_v"]:
        raise ValueError("stored k_v disagrees with the decomposition subgroup")
    return v


def local_to_json(d: LocalDatum) -> dict:
    return {
        "schema": SCHEMAS["local"],
        "dim": d.dim,
        "frobenius": [[scalar_to_json(x) for x in row] for row in d.frobenius],
        "norm": d.norm,
    }


def local_from_json(ctx: PrecisionContext, doc: dict) -> LocalDatum:
    mat = tuple(tuple(scalar_from_json(ctx, x) for x in row) for row in doc["frobenius"])
    if len(mat) != doc["dim"]:
        raise ValueError("dimension mismatch")
    return LocalDatum(ctx, mat, doc["norm"])


def matrix_to_json(mat) -> list:
    return [[scalar_to_json(x) for x in row] for row in mat]


def matrix_from_json(ctx: PrecisionContext, doc) -> tuple:
    return tuple(tuple(scalar_from_json(ctx, x) for x in row) for row in doc)


def regulator_problem_to_json(problem, group_id: str) -> dict:
    return {
        "schema": "iwlab-regulator-problem/1",
        "group_id": group_id,
        "chi": [scalar_to_json(v) for v in problem.chi.values],
        "v_rep": [matrix_to_json(m) for m in problem.v_rep.matrices],
        "m": [matrix_to_json(m) for m in problem.m.matrices],
        "m2": [matrix_to_json(m) for m in problem.m2.matrices],
        "f": matrix_to_json(problem.f),
    }


def regulator_problem_from_json(ctx: PrecisionContext, doc: dict, groups: dict):
    from .characters import Character
    from .regulators import RegulatorProblem, RepresentationModule

    g = groups[doc["group_id"]]
    chi = Character(g, tuple(scalar_from_json(ctx, v) for v in doc["chi"]))
    mods = {}
    for key in ("v_rep", "m", "m2"):
        mods[key] = RepresentationModule(g, tuple(matrix_from_json(ctx, m) for m in doc[key]))
    return RegulatorProblem(g, chi, mods["v_rep"], mods["m"], mods["m2"], matrix_from_json(ctx, doc["f"]))


def complex_to_json(c) -> dict:
    return {
        "schema": SCHEMAS["complex"],
        "rings": list(c.ring.conductors),
        "degrees": list(c.degrees),
        "modules": {str(i): list(c.ranks[i]) for i in c.ranks},
        "differentials": {
            str(i): [[[scalar_to_json(x) for x in row] for row in comp] for comp in c.diffs[i]]
            for i in c.diffs
        },
        "t": None
        if c.t is None
        else [[[scalar_to_json(x) for x in row] for row in comp] for comp in c.t],
    }


def complex_from_json(ctx: PrecisionContext, doc: dict):
    from .ktheory import ProductRing, TrivializedComplex

    ring = ProductRing(ctx, tuple(doc["rings"]))
    ranks = {int(i): tuple(r) for i, r in doc["modules"].items()}
    diffs = {
        int(i): tuple(
            tuple(tuple(scalar_from_json(ctx, x) for x in row) for row in comp) for comp in mats
        )
        for i, mats in doc["differentials"].items()
    }
    t = None
    if doc["t"] is not None:
        t = tuple(
            tuple(tuple(scalar_from_json(ctx, x) for x in row) for row in comp) for comp in doc["t"]
        )
    return TrivializedComplex(ring, tuple(doc["degrees"]), ranks, diffs, t)
