"""Acceptance gate: every criterion at its stated size and tolerance, one
pass/fail line per criterion (the parametrized test ids are the lines; each
test also prints a `[criterion] PASS` marker)."""

import hashlib
import random
import time

from iwlab.padic import PrecisionContext
from iwlab.report import SuiteConfig, emit_report
from iwlab.suites import (
    check_additivity_splittings,
    check_brauer_resummation,
    check_brauer_s3_witness,
    check_column_orthogonality,
    check_cyclotomic_identities,
    check_delta_nonvanishing,
    check_det_against_oracle,
    check_dual_inverse_lemma,
    check_dual_relations,
    check_e_chi_laws,
    check_frobenius_reciprocity,
    check_idempotent_laws,
    check_k0_relations,
    check_local_multiplicativity,
    check_order_of_vanishing,
    check_projection_rule,
    check_rank_stabilisation,
    check_rec_class_behaviour,
    check_regulator_isotypic_power,
    check_regulator_layer_invariance,
    check_regulator_scalar_maps,
    check_tables_and_orthogonality,
    check_twist_uniqueness,
    check_twisted_evaluation,
    check_w_chi_values,
    check_weierstrass_roundtrip,
    check_worked_example,
    run_suite,
)

CTX3 = PrecisionContext(p=3, cap_N=20, cap_D=40)
CTX5 = PrecisionContext(p=5, cap_N=20, cap_D=40)


def rng_for(tag):
    return random.Random(f"acceptance:{tag}")


def report_line(name, ok=True):
    print(f"[{name}] {'PASS' if ok else 'FAIL'}")


def test_criterion_weierstrass_roundtrip():
    # 200 random triples per p in {3, 5} at precision (p^20, T^40); < 10 s
    t0 = time.monotonic()
    check_weierstrass_roundtrip(CTX3, rng_for("w3"), count=200)
    check_weierstrass_roundtrip(CTX5, rng_for("w5"), count=200)
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report_line("weierstrass-roundtrip")


def test_criterion_cyclotomic_identities():
    check_cyclotomic_identities(CTX3, rng_for("c3"), n_max=4)
    check_cyclotomic_identities(CTX5, rng_for("c5"), n_max=4)
    report_line("cyclotomic-identities")


def test_criterion_rank_stabilisation():
    # 50 random module descriptions, SNF oracle at every n <= 8, zero tolerance
    check_rank_stabilisation(CTX3, rng_for("rank"), count=50, n_top=8)
    report_line("rank-stabilisation")


def test_criterion_worked_example():
    check_worked_example(CTX3, rng_for("example"))
    report_line("worked-example-kernel-orders")


def test_criterion_character_theory():
    t0 = time.monotonic()
    check_tables_and_orthogonality(CTX3, rng_for("tab"))
    check_column_orthogonality(CTX3, rng_for("col"))
    check_idempotent_laws(CTX3, rng_for("idem"))
    check_frobenius_reciprocity(CTX3, rng_for("frob"))
    check_projection_rule(CTX3, rng_for("proj"))
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report_line("character-theory")


def test_criterion_brauer_decomposition():
    check_brauer_resummation(CTX3, rng_for("brauer"))
    check_brauer_s3_witness(CTX3, rng_for("brauer-s3"))
    report_line("brauer-decomposition")


def test_criterion_twisted_evaluation():
    check_twisted_evaluation(CTX3, rng_for("twist"), count=500)
    check_twist_uniqueness(CTX3, rng_for("uniq"), count=100)
    report_line("twisted-evaluation")


def test_criterion_euler_delta():
    check_delta_nonvanishing(CTX3, rng_for("delta"), count=500)
    check_local_multiplicativity(CTX3, rng_for("mult"), count=50)
    check_order_of_vanishing(CTX3, rng_for("order"), count=100)
    report_line("euler-delta-factors")


def test_criterion_regulator():
    check_regulator_scalar_maps(CTX3, rng_for("reg-scalar"))
    check_regulator_isotypic_power(CTX3, rng_for("reg-block"), count=50)
    check_regulator_layer_invariance(CTX3, rng_for("reg-layer"))
    report_line("regulator")


def test_criterion_determinant_functor():
    check_det_against_oracle(CTX3, rng_for("det"))
    check_dual_relations(CTX3, rng_for("dual"), count=100)
    check_dual_inverse_lemma(CTX3, rng_for("dualinv"), count=100)
    check_additivity_splittings(CTX3, rng_for("add"), sequences=5, splittings=20)
    report_line("determinant-functor")


def test_criterion_k_relations():
    check_k0_relations(CTX3, rng_for("k0"), count=100)
    check_rec_class_behaviour(CTX3, rng_for("rec"), splittings=20)
    report_line("k-relations")


def test_criterion_determinism():
    cfg = SuiteConfig(suite="all", p=3, cap_n=20, cap_d=40, seed=42)
    t0 = time.monotonic()
    first = run_suite(cfg)
    first_elapsed = time.monotonic() - t0
    second = run_suite(cfg)
    text = emit_report(first, "json")
    assert text == emit_report(second, "json")
    # the report of `iwlab all --seed 42`, recorded at commit a4964ab
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == "c77821f5a7dddf7fe93572856a7621d88480912e419ccfd3306a7f18e2f3ec65"
    assert first.all_passed(), {r.id: r.witness for r in first.records if r.status == "fail"}
    assert first_elapsed < 300, f"full run took {first_elapsed:.0f}s"
    report_line("determinism")
