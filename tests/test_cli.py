import json

import pytest

from iwlab.cli import main
from iwlab.report import SuiteConfig, emit_report
from iwlab.suites import run_suite


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out


def test_unknown_suite_is_config_error(capsys):
    assert main(["nonsense"]) == 2


def test_bad_prec_is_config_error():
    assert main(["series", "--prec", "banana"]) == 2
    assert main(["series", "--prec", "0,5"]) == 2


def test_series_suite_small_run(capsys):
    code, out = run_cli(["series", "--p", "3", "--prec", "8,12", "--seed", "1", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"].startswith("iwlab-report/")
    assert doc["summary"]["fail"] == 0
    assert all(c["status"] in ("pass", "skip") for c in doc["checks"])


def test_report_determinism_same_seed():
    cfg = SuiteConfig(suite="euler", p=3, cap_n=8, cap_d=10, seed=42)
    a = emit_report(run_suite(cfg), "json")
    b = emit_report(run_suite(cfg), "json")
    assert a == b


def test_report_jobs_do_not_change_bytes():
    cfg1 = SuiteConfig(suite="ktheory", p=3, cap_n=8, cap_d=10, seed=7, jobs=1)
    cfg4 = SuiteConfig(suite="ktheory", p=3, cap_n=8, cap_d=10, seed=7, jobs=4)
    assert emit_report(run_suite(cfg1), "json") == emit_report(run_suite(cfg4), "json")


def test_run_suite_starts_no_thread(monkeypatch):
    import threading

    def refuse(self):
        raise AssertionError("run_suite started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    report = run_suite(SuiteConfig(suite="ktheory", p=3, cap_n=8, cap_d=10, seed=0, jobs=4))
    assert report.records and all(r.status == "pass" for r in report.records)


def test_text_format_mentions_counts(capsys):
    code, out = run_cli(["ktheory", "--prec", "8,10", "--seed", "3"], capsys)
    assert code == 0
    assert "passed" in out


def test_bad_corpus_claim_fails_with_witness(tmp_path, capsys):
    from iwlab import serialize
    from iwlab.padic import PrecisionContext
    from iwlab.series import DistinguishedPolynomial, TruncatedSeries

    ctx = PrecisionContext(p=3, cap_N=8, cap_D=10)
    f = TruncatedSeries.from_coeffs(ctx, [3, 1])  # is ( T + 3 ), s = 0
    claim = {
        "type": "weierstrass",
        "series": serialize.series_to_json(f),
        "s": 1,  # wrong on purpose
        "P": serialize.poly_to_json(DistinguishedPolynomial.from_coeffs(ctx, [3, 1])),
    }
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"schema": "iwlab-corpus/1", "claims": [claim]}))
    code, out = run_cli(
        ["euler", "--prec", "8,10", "--seed", "1", "--corpus", str(corpus), "--format", "json"],
        capsys,
    )
    assert code == 1
    doc = json.loads(out)
    bad = [c for c in doc["checks"] if c["status"] == "fail"]
    assert len(bad) == 1
    assert bad[0]["id"].startswith("corpus/claim-")
    assert bad[0]["witness"]["s_claimed"] == 1 and bad[0]["witness"]["s_got"] == 0


def test_kernel_order_corpus_claim(tmp_path, capsys):
    from iwlab import serialize
    from iwlab.padic import PrecisionContext
    from iwlab.tower import PlaceDatum, SplitTower
    from iwlab.groups import cyclic_group

    ctx = PrecisionContext(p=3, cap_N=8, cap_D=10)
    t = SplitTower(ctx, cyclic_group(1), n_max=2)
    v = PlaceDatum(t, "v", False, 27, frozenset([0, 3, 6]))
    claim = {
        "type": "kernel-order",
        "tower": serialize.tower_to_json(t),
        "places": [serialize.place_to_json(v)],
        "level": 0,
        "order": 3,
    }
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"schema": "iwlab-corpus/1", "claims": [claim]}))
    code, out = run_cli(
        ["ktheory", "--prec", "8,10", "--seed", "1", "--corpus", str(corpus), "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert any(c["id"].startswith("corpus/claim-") and c["status"] == "pass" for c in doc["checks"])


def test_good_corpus_claim_passes(tmp_path, capsys):
    from iwlab import serialize
    from iwlab.padic import PrecisionContext
    from iwlab.series import DistinguishedPolynomial, TruncatedSeries

    ctx = PrecisionContext(p=3, cap_N=8, cap_D=10)
    f = TruncatedSeries.from_coeffs(ctx, [9, 3]).scalar_mul(1)  # 3 * (T + 3)
    claim = {
        "type": "weierstrass",
        "series": serialize.series_to_json(f),
        "s": 1,
        "P": serialize.poly_to_json(DistinguishedPolynomial.from_coeffs(ctx, [3, 1])),
    }
    corpus = tmp_path / "corpus.json"
    corpus.write_text(json.dumps({"schema": "iwlab-corpus/1", "claims": [claim]}))
    code, out = run_cli(
        ["euler", "--prec", "8,10", "--seed", "1", "--corpus", str(corpus), "--format", "json"],
        capsys,
    )
    assert code == 0


def test_crash_witness_names_type_and_innermost_iwlab_frame(monkeypatch):
    from iwlab import suites
    from iwlab.padic import make_root_of_unity

    def crashing_check(ctx, rng):
        make_root_of_unity(ctx, 0, 1)  # raises ValueError inside iwlab.padic

    monkeypatch.setitem(suites.SUITES, "euler", [("euler/crash", "a check that crashes", crashing_check)])
    (record,) = run_suite(SuiteConfig("euler", 3, 8, 10, 0)).records
    assert record.status == "fail"
    assert record.witness["type"] == "ValueError"
    assert record.witness["error"] == repr(ValueError("order m must be positive"))
    module, line, function = record.witness["where"].split(":")
    assert (module, function) == ("iwlab.padic", "make_root_of_unity") and int(line) > 0


def _run_module(args, timeout):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "iwlab", *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)


def test_python_dash_m_runs_the_cli():
    out = _run_module(["ktheory", "--prec", "8,10", "--seed", "3", "--format", "json"], timeout=120)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert doc["summary"]["fail"] == 0


def test_series_at_deep_precision_is_bounded():
    # Weierstrass preparation at cap_N = 400 takes a few Newton rounds
    out = _run_module(["series", "--prec", "400,8", "--seed", "0", "--format", "json"], timeout=30)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    assert all(c["status"] in ("pass", "skip") for c in doc["checks"])
