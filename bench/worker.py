"""One benchmark worker: a fresh process that imports iwlab from the
checkout's ``src``, says it is ready, does its one job and exits.

    python3 bench/worker.py '<json job>'

The job names ``root`` and ``mode``: ``setup`` (import only), ``suites`` (run
the workload's suites in one process, as ``iwlab all`` shares its caches) or
``probe`` (the layer probe).  A ``suites`` job runs each suite at ``jobs``,
or at 1 if it is in ``serial_suites``, without the check ids in
``left_out``.  The first stdout line is the ready line; the
last is the result, one JSON object.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _peak_rss_mb() -> float:
    """Peak resident set of this process and of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv) -> int:
    job = json.loads(argv[1])
    src = os.path.join(job["root"], "src")
    sys.path.insert(0, src)
    import iwlab
    from iwlab import SuiteConfig, emit_report, run_suite

    where = os.path.realpath(iwlab.__file__)
    if os.path.dirname(os.path.dirname(where)) != os.path.realpath(src):
        print(f"iwlab resolves to {where}, not to {src}", file=sys.stderr)
        return 3
    # checks left out of the workload because of a known defect
    from iwlab.suites import SUITES

    for check_id in job.get("left_out", ()):
        suite = check_id.split("/")[0]
        SUITES[suite] = [entry for entry in SUITES[suite] if entry[0] != check_id]
    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer(job["run_id"])
        tracer.install(job["suites"])
    print(json.dumps({"ready": True, "iwlab": where}), flush=True)

    if job["mode"] == "setup":
        result = {}
    elif job["mode"] == "probe":
        import probe

        result = {"probe": probe.run(job["seed"])}
    else:
        cap_n, cap_d = job["prec"]
        t0 = time.perf_counter()
        c0 = time.process_time()
        reports = []
        for suite in job["suites"]:
            jobs = 1 if suite in job.get("serial_suites", ()) else job["jobs"]
            cfg = SuiteConfig(suite, job["p"], cap_n, cap_d, job["seed"], None, jobs)
            reports.append(emit_report(run_suite(cfg), "json"))
        verdict_s = time.perf_counter() - t0
        cpu_s = time.process_time() - c0
        result = {"verdict_s": verdict_s, "cpu_s": cpu_s, "peak_rss_mb": _peak_rss_mb(), "reports": reports}
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.write_spans(job["spans_path"])
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
