"""Fixed-seed reports pinned by SHA-256, a regression gate for refactors of
the exact layers: a refactor must leave these bytes unchanged.

The hashes were recorded at commit bd5f936, before the integer-coordinate
rewrite of CycloPadic, so they are the reports of the Fraction-coordinate
implementation."""

import hashlib

import pytest

from iwlab.report import SuiteConfig, emit_report
from iwlab.suites import run_suite

PINNED = [
    (("series", 2, 10, 8, 0), "ae39e823ed48b2d2a9770ef810bb9e3ea365345632cf22a9beacfe7133bee00f"),
    (("euler", 3, 20, 40, 0), "8b453c267bb37a0a4dbd4c0c528f33741e640bc95f2aabd9a3a04c1c9005ad71"),
    (("ktheory", 3, 8, 10, 0), "3ae059152e4882bc71f381c791bcd596cb98d8d645c8b39a53bbb2678e397c8c"),
    (("tower", 3, 8, 10, 0), "b8353a1941cae721a741be208f3b8113ad2e8837ce9b4adcdcb3083243109016"),
    # recorded at commit a4964ab, before the group-algebra product moved onto
    # the shared packed product
    (("chars", 3, 8, 10, 0), "f837b9dac51cf3c51f4ca96c19e31f1ff4a047d32b96c6cd1ccaf55f28dd5a73"),
    (("brauer", 3, 8, 10, 0), "5b3005f01dfa78e00abf8bb0826e8fcb189d99ffedc91968956631f52603fec0"),
    # recorded at commit 62481f4, before the representation layer kept one
    # copy of each algorithm
    (("regulator", 3, 8, 10, 0), "fd3ff0e34ca4a8779f065872d9a2c401ec788ef04dfdbb5b6961c23622526292"),
    # recorded at commit 7d36fd1, before the representation law was checked in
    # integer coordinates; p=2, where the splitting of Phi_m differs from p=3
    (("regulator", 2, 8, 10, 0), "3be233708596ee1eba93677838988a6f3800ea80819c621fbb44b6c4a85ab782"),
]


@pytest.mark.parametrize("point, digest", PINNED, ids=[f"{s}-p{p}-{n},{d}-seed{k}" for (s, p, n, d, k), _ in PINNED])
def test_report_hash_is_pinned(point, digest):
    suite, p, cap_n, cap_d, seed = point
    text = emit_report(run_suite(SuiteConfig(suite, p, cap_n, cap_d, seed, None, 1)), "json")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
