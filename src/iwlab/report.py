"""Suite configuration, check records, and report emission.

JSON reports are byte-deterministic under a fixed seed: records are sorted by
id, keys are sorted, and wall-clock timing is kept out of the JSON document
(the text rendering prints it)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA = "iwlab-report/1"


class CheckFailure(AssertionError):
    """A check failed; carries a reproducible witness payload."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = dict(witness or {})
        self.witness.setdefault("message", message)


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    p: int = 3
    cap_n: int = 20
    cap_d: int = 40
    seed: int = 0
    corpus_path: str | None = None
    jobs: int = 1  # kept for bench/worker.py; selects nothing, checks run in order


@dataclass(frozen=True)
class CheckRecord:
    id: str
    law: str
    status: str  # pass | fail | skip
    witness: dict | None = None


@dataclass
class Report:
    suite: str
    p: int
    cap_n: int
    cap_d: int
    seed: int
    records: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "skip": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    def all_passed(self) -> bool:
        return self.counts["fail"] == 0


def emit_report(report: Report, fmt: str = "json") -> str:
    if fmt == "json":
        doc = {
            "schema": SCHEMA,
            "suite": report.suite,
            "p": report.p,
            "prec": [report.cap_n, report.cap_d],
            "seed": report.seed,
            "checks": [
                {
                    "id": r.id,
                    "law": r.law,
                    "status": r.status,
                    "witness": _jsonable(r.witness),
                }
                for r in sorted(report.records, key=lambda r: r.id)
            ],
            "summary": report.counts,
        }
        return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    if fmt == "text":
        lines = [
            f"suite {report.suite} (p={report.p}, prec={report.cap_n},{report.cap_d}, seed={report.seed})"
        ]
        for r in sorted(report.records, key=lambda r: r.id):
            lines.append(f"  [{r.status.upper():4}] {r.id}: {r.law}")
            if r.status == "fail" and r.witness:
                lines.append(f"         witness: {_jsonable(r.witness)}")
        c = report.counts
        lines.append(
            f"  {c['pass']} passed, {c['fail']} failed, {c['skip']} skipped in {report.elapsed:.2f}s"
        )
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return repr(obj)
