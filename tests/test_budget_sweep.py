"""Small budgets must give pass or skip, never fail: a check that cannot
certify its law at the given precision skips, and exact data (character
values, representation matrices) must not depend on the budget at all.

Covers the `chars` and `regulator` suites, and `series/weierstrass-roundtrip`
below cap_D = 8 and below cap_N = 4; `tower`, `ktheory` and the rest of
`series` still record failures at these budgets."""

import random

import pytest

from iwlab.padic import PrecisionContext
from iwlab.report import SuiteConfig
from iwlab.suites import SkipCheck, check_weierstrass_roundtrip, run_suite

POINTS = [(suite, p, n, d, 0) for p, n, d in ((3, 1, 1), (2, 2, 2)) for suite in ("chars", "regulator")]


@pytest.mark.parametrize("point", POINTS, ids=[f"{s}-p{p}-{n},{d}-seed{k}" for s, p, n, d, k in POINTS])
def test_small_budget_gives_only_pass_or_skip(point):
    report = run_suite(SuiteConfig(*point))
    bad = [(r.id, r.witness) for r in report.records if r.status not in ("pass", "skip")]
    assert not bad


WEIERSTRASS_POINTS = [(3, 20, 7, 0), (3, 1, 1, 0)]


@pytest.mark.parametrize("point", WEIERSTRASS_POINTS, ids=[f"p{p}-{n},{d}-seed{k}" for p, n, d, k in WEIERSTRASS_POINTS])
def test_weierstrass_roundtrip_skips_below_cap_d_8(point):
    report = run_suite(SuiteConfig("series", *point))
    (record,) = [r for r in report.records if r.id == "series/weierstrass-roundtrip"]
    assert record.status == "skip" and "cap_D >= 8" in record.witness["reason"]


CAP_N_POINTS = [(3, 2, 8, 0), (3, 3, 8, 0), (5, 3, 8, 1), (2, 1, 8, 0)]


@pytest.mark.parametrize("point", CAP_N_POINTS, ids=[f"p{p}-{n},{d}-seed{k}" for p, n, d, k in CAP_N_POINTS])
def test_weierstrass_roundtrip_skips_below_cap_n_4(point):
    # s up to 3 leaves f = p^s * u * P indistinguishable from zero mod p^cap_N;
    # the skip comes before any draw, so larger budgets keep their bytes
    p, n, d, seed = point
    rng = random.Random(f"{seed}:series/weierstrass-roundtrip")
    state = rng.getstate()
    with pytest.raises(SkipCheck, match="cap_N >= 4"):
        check_weierstrass_roundtrip(PrecisionContext(p=p, cap_N=n, cap_D=d), rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_weierstrass_roundtrip_passes_at_cap_n_4(p):
    rng = random.Random("0:series/weierstrass-roundtrip")
    assert check_weierstrass_roundtrip(PrecisionContext(p=p, cap_N=4, cap_D=8), rng) == {"count": 200}
