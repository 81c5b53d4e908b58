"""Tests of the benchmark's own correctness gate and refusal paths.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402


def report(statuses: dict, seed: int = 42) -> str:
    """A JSON report in the iwlab-report/1 layout with the given check statuses."""
    checks = [{"id": cid, "law": "law", "status": st, "witness": None} for cid, st in sorted(statuses.items())]
    doc = {"schema": "iwlab-report/1", "suite": "x", "p": 3, "prec": [20, 40], "seed": seed, "checks": checks}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


CLEAN = [report({"x/a": "pass", "x/b": "skip"})]


def test_clean_runs_pass_against_their_golden_value():
    refs = {"42": run.digests(CLEAN)}
    attempted, failures = run.gate([("it0", 42, CLEAN, None), ("it1", 42, CLEAN, None)], refs)
    assert (attempted, failures) == (4, [])


def test_gate_catches_a_wrong_golden_hash():
    refs = {"42": run.digests(CLEAN)}
    refs["42"]["checks"]["x/a"] = "0" * 64
    attempted, failures = run.gate([("it0", 42, CLEAN, None)], refs)
    assert attempted == 2
    assert [(f["kind"], f["seed"], f["check"]) for f in failures] == [("hash-mismatch", 42, "x/a")]


def test_gate_catches_a_wrong_whole_report_hash():
    refs = {"42": dict(run.digests(CLEAN), sha256="0" * 64)}
    _, failures = run.gate([("it0", 42, CLEAN, None)], refs)
    assert [f["kind"] for f in failures] == ["report-hash"]


def test_gate_catches_a_fail_record_and_keeps_its_witness():
    bad = json.loads(CLEAN[0])
    bad["checks"][0].update(status="fail", witness={"message": "law broken", "instance": 7})
    attempted, failures = run.gate([("it0", 5, [json.dumps(bad)], None)], {})
    assert attempted == 2
    assert failures == [
        {"run": "it0", "seed": 5, "check": "x/a", "kind": "fail", "witness": {"message": "law broken", "instance": 7}}
    ]


def test_a_clean_run_becomes_the_reference_for_its_seed_only():
    other = [report({"x/a": "pass", "x/b": "pass"})]
    refs = {}
    runs = [("it0", 1, CLEAN, None), ("it1", 2, other, None), ("it2", 1, other, None)]
    _, failures = run.gate(runs, refs)
    assert [(f["run"], f["kind"], f["check"]) for f in failures] == [("it2", "hash-mismatch", "x/b")]
    assert refs == {"1": run.digests(CLEAN), "2": run.digests(other)}


def test_golden_values_are_recorded_by_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "GOLDEN", tmp_path / "golden.json")
    clean = {"workload": "w", "report_digests": {"7": run.digests(CLEAN)}, "failures": []}
    failed = {"workload": "w", "report_digests": {}, "failures": [{"seed": 8}]}
    assert run.record_golden([clean, failed]) == ["w@8"]
    assert run.golden_digests("w") == {"7": run.digests(CLEAN)}
    assert run.golden_digests("v") == {}


def test_crashed_and_incomplete_runs_count_as_failures():
    refs = {"42": run.digests(CLEAN)}
    partial = [report({"x/a": "pass"})]
    attempted, failures = run.gate([("it0", 42, None, "timeout"), ("it1", 42, partial, None)], refs)
    assert attempted == 3
    assert [(f["kind"], f["check"]) for f in failures] == [("crash", None), ("missing", "x/b")]


def test_result_line_reports_a_tripped_gate():
    spec = {"end_to_end": [{"name": "verdict_s", "unit": "s"}], "per_layer": []}
    result = {"trace": 0, "attempted": 4, "failed": 1, "metrics": {"verdict_s": 1.5, "other": 2}}
    assert run.result_line(result, spec) == {
        "correct": False,
        "attempted": 4,
        "failed": 1,
        "metrics": {"verdict_s": {"value": 1.5, "unit": "s"}},
    }


def test_high_percentile_needs_ten_samples_beyond_it():
    assert run.high_percentile(list(range(10))) is None
    assert run.high_percentile(list(range(20))) == (50, 9)


def test_refuses_to_run_without_the_sources(tmp_path):
    root = Path(run.ROOT)
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "series-deep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_charges_nested_time_to_the_inner_call():
    tracer = Tracer("test")
    inner = tracer._timed("inner", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tracer._span("outer", body)
    outer()
    m = tracer.metrics()
    assert (m["outer.calls"], m["inner.calls"]) == (1, 2)
    assert m["inner.self_s"] == m["inner.s"] >= 0.04
    assert m["outer.self_s"] == pytest.approx(m["outer.s"] - m["inner.s"])
    assert m["outer.self_s"] >= 0.01
    (spans,) = tracer._threads
    assert [(name, parent) for _, name, _, _, parent in spans.spans] == [("outer", None)]


def test_worker_runs_a_suite_without_its_left_out_checks():
    job = {"mode": "suites", "suites": ["euler"], "p": 3, "prec": [20, 40], "jobs": 2, "seed": 0}
    job.update(serial_suites=["euler"], left_out=["euler/multiplicativity"], root=str(run.ROOT))
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "worker.py"), json.dumps(job)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    (text,) = json.loads(proc.stdout.splitlines()[-1])["reports"]
    ids = [rec["id"] for rec in json.loads(text)["checks"]]
    assert ids == ["euler/delta-nonvanishing", "euler/order-of-vanishing"]
