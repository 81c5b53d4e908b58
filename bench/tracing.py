"""Outside-in layer tracing for the benchmark worker.

The tracer rebinds public names of the iwlab layers, from outside the
package: a module-level function is replaced in its defining module and in
every iwlab module that imported it by name (so ``iwlab.suites`` sees the
wrapped ``weierstrass_prepare``), and a method is replaced on its class.
Nothing under ``src/`` is edited.

Three kinds of wrapper keep the cost in proportion to how often a name runs:

- ``span``: coarse calls.  Each call records a span (id, name, start, end,
  parent id) on its thread's span stack, plus calls, inclusive time and self
  time.  Spans stay in memory until :meth:`Tracer.write_spans`.
- ``timed``: hot operations called up to millions of times per run (scalar
  arithmetic, ``polymul``, series products).  Calls and self time only; no
  span of their own.
- ``count``: the hottest constructors.  Calls only; their time stays charged
  to the enclosing span or timed call.

Self time is a call's duration minus the part covered by wrapped calls made
inside it.  State is per thread, so counts stay exact under ``--jobs``; with
several threads, a call's duration also includes time its thread waited for
the interpreter lock.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# metric prefix, wrapper kind, defining module, names in that module
LAYERS = [
    ("intpoly.polymul", "timed", "iwlab._intpoly", ["polymul"]),
    ("padic.construct", "count", "iwlab.padic", ["CycloPadic.__init__"]),
    ("padic.mul", "timed", "iwlab.padic", ["CycloPadic.__mul__", "CycloPadic.__rmul__"]),
    ("padic.add", "timed", "iwlab.padic", ["CycloPadic.__add__", "CycloPadic.__radd__"]),
    ("padic.equals", "timed", "iwlab.padic", ["CycloPadic.equals"]),
    ("padic.valuation", "timed", "iwlab.padic", ["CycloPadic._valuation_and_purity"]),
    ("padic.inverse", "count", "iwlab.padic", ["CycloPadic.inverse"]),
    ("series.mul", "timed", "iwlab.series", ["_ser_mul", "DistinguishedPolynomial.__mul__"]),
    ("series.prepare", "span", "iwlab.series", ["weierstrass_prepare"]),
    ("series.evaluate", "span", "iwlab.series", ["evaluate_quotient", "substitute_twist"]),
    ("iwmodules.coinvariant_ranks", "span", "iwlab.iwmodules", ["coinvariant_ranks"]),
    (
        "groups.build",
        "span",
        "iwlab.groups",
        [
            "FiniteGroup.__init__",
            "cyclic_group",
            "direct_product",
            "abelian_group",
            "dihedral_group",
            "dicyclic_group",
            "quaternion_group",
            "symmetric_group",
            "alternating_group",
            "semidirect_product",
        ],
    ),
    ("characters.table", "table", "iwlab.characters", ["character_table"]),
    ("characters.algebra_mul", "timed", "iwlab.characters", ["GroupAlgebraElement.__mul__", "GroupAlgebraElement.__rmul__"]),
    ("characters.induce", "span", "iwlab.characters", ["induce"]),
    ("characters.inner_product", "timed", "iwlab.characters", ["inner_product"]),
    ("characters.brauer_decompose", "span", "iwlab.characters", ["brauer_decompose"]),
    ("snf.smith_normal_form", "span", "iwlab.snf", ["smith_normal_form"]),
    ("linalg.det", "span", "iwlab.linalg", ["det"]),
    ("linalg.rref", "span", "iwlab.linalg", ["rref"]),
    ("tower.twisted_evaluate", "span", "iwlab.tower", ["twisted_evaluate"]),
    ("tower.uniqueness_from_twists", "span", "iwlab.tower", ["uniqueness_from_twists"]),
    ("lfactors.euler_delta_at0", "span", "iwlab.lfactors", ["euler_delta_at0"]),
    ("regulators.module_build", "span", "iwlab.regulators", ["RepresentationModule.__post_init__"]),
    ("regulators.regulator_det", "span", "iwlab.regulators", ["regulator_det"]),
    ("regulators.hom_basis", "span", "iwlab.regulators", ["hom_basis"]),
    ("ktheory.det_of_map", "span", "iwlab.ktheory", ["det_of_map"]),
    ("ktheory.rec_class", "span", "iwlab.ktheory", ["rec_class"]),
]


def check_metric(check_id: str) -> str:
    """Metric prefix of a suite check: ``series/interpolation`` becomes
    ``suites.check.series.interpolation``."""
    return "suites.check." + check_id.replace("/", ".")


class _ThreadState:
    __slots__ = ("name", "stats", "child", "stack", "spans", "next_id")

    def __init__(self, name):
        self.name = name
        self.stats = {}  # metric -> [calls, inclusive seconds, self seconds]
        self.child = 0.0  # seconds covered by wrapped calls inside the current one
        self.stack = []  # ids of the open spans
        self.spans = []  # (id, name, start, end, parent id), in end order
        self.next_id = 0


class Tracer:
    """Per-layer counters, self times and spans for one worker process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self.table_builds = 0
        self._known: list[str] = []  # every prefix a metric is reported for, run or not
        self._origin = time.perf_counter()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._local.st = st
            with self._lock:
                self._threads.append(st)
        return st

    # -- wrappers -------------------------------------------------------------

    def _count(self, metric, fn):
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = state().stats
            stat = stats.get(metric)
            if stat is None:
                stat = stats[metric] = [0, 0.0, 0.0]
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, metric, fn):
        state = self._state
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            stat = st.stats.get(metric)
            if stat is None:
                stat = st.stats[metric] = [0, 0.0, 0.0]
            outer = st.child
            st.child = 0.0
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - st.child
                st.child = outer + dt

        return wrapper

    def _span(self, metric, fn):
        state = self._state
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            stat = st.stats.get(metric)
            if stat is None:
                stat = st.stats[metric] = [0, 0.0, 0.0]
            sid = st.next_id
            st.next_id += 1
            parent = st.stack[-1] if st.stack else None
            st.stack.append(sid)
            outer = st.child
            st.child = 0.0
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - st.child
                st.child = outer + dt
                st.stack.pop()
                st.spans.append((sid, metric, t0, t1, parent))

        return wrapper

    def _table(self, metric, fn):
        """``character_table`` as a span that also counts cache misses: a
        call after which the table cache holds more entries built a table."""
        cache = importlib.import_module("iwlab.characters")._TABLE_CACHE
        span = self._span(metric, fn)
        lock = self._lock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = len(cache)
            try:
                return span(*args, **kwargs)
            finally:
                if len(cache) > before:
                    with lock:
                        self.table_builds += 1

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, suites=()):
        """Wrap every layer in LAYERS and every check of the named suites."""
        makers = {"count": self._count, "timed": self._timed, "span": self._span, "table": self._table}
        for metric, kind, module_name, names in LAYERS:
            module = importlib.import_module(module_name)
            for qualname in names:
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    setattr(owner, attr, makers[kind](metric, owner.__dict__[attr]))
                else:
                    original = getattr(module, attr)
                    _rebind(original, makers[kind](metric, original))
        registry = importlib.import_module("iwlab.suites").SUITES
        self._known = [metric for metric, *_ in LAYERS] + [
            check_metric(check_id) for name, checks in registry.items() if name != "all" for check_id, _, _ in checks
        ]
        for suite in suites:
            registry[suite] = [
                (check_id, law, self._span(check_metric(check_id), fn)) for check_id, law, fn in registry[suite]
            ]

    # -- results --------------------------------------------------------------

    def metrics(self) -> dict:
        """``<prefix>.calls``, ``.self_s`` and ``.s`` (inclusive) summed over
        threads, plus the table-cache figures.  Layers and checks that did not
        run read zero."""
        total: dict = {metric: [0, 0.0, 0.0] for metric in self._known}
        for st in self._threads:
            for metric, (calls, incl, own) in st.stats.items():
                acc = total.setdefault(metric, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += incl
                acc[2] += own
        out = {}
        for metric, (calls, incl, own) in total.items():
            out[metric + ".calls"] = calls
            out[metric + ".s"] = incl
            out[metric + ".self_s"] = own
        calls = total.get("characters.table", [0])[0]
        out["characters.table.builds"] = self.table_builds
        out["characters.table.hit_ratio"] = (calls - self.table_builds) / calls if calls else 0.0
        return out

    def write_spans(self, path: str):
        """Write every thread's spans, times relative to tracer creation."""
        origin = self._origin
        doc = {
            "run_id": self.run_id,
            "fields": ["id", "name", "start_s", "end_s", "parent"],
            "threads": {
                st.name: [[sid, name, t0 - origin, t1 - origin, parent] for sid, name, t0, t1, parent in st.spans]
                for st in self._threads
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rebind(original, wrapped):
    """Replace a module-level function in every loaded iwlab module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "iwlab" or name.startswith("iwlab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
