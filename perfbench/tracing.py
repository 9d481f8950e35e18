"""Spans around the package's layer entry points, recorded from outside it.

`install` rebinds the names callers look up -- module attributes of
`henonlocus._kernel`, the names `escape`, `locus`, `holonomy`, `gridfield`,
`manifolds` and `rigidity` import from each other, the package's own
re-exports, and the `MultiPoly`/`TruncSeries` multiplication methods -- to
wrappers that record one span per call.  Nothing in the package changes;
`uninstall` puts the originals back.

A span is the tuple (id, name, t0, t1, c0, c1, parent, op, thread, info):
wall-clock start/end from perf_counter, the calling thread's CPU clock at
start/end, the enclosing span in the same thread (None for a thread's
outermost span), the operation id, the thread ident and a small per-layer
payload (kernel status and entry depth, term-pair counts, output sizes).
Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time

import henonlocus
from henonlocus import _kernel, escape, gridfield, holonomy, locus, manifolds, rigidity
from henonlocus.series import MultiPoly, TruncSeries

ID, NAME, T0, T1, C0, C1, PARENT, OP, THREAD, INFO = range(10)

# Modules whose imported names are rebound along with the defining module.
_IMPORTERS = (henonlocus, _kernel, escape, gridfield, holonomy, locus, manifolds, rigidity)


def _kernel_info(args, result):
    return (result[0], result[1])  # status, entry depth k or m


def _mp_mul_info(args, result):
    self, other = args
    if isinstance(other, MultiPoly):
        return len(self.terms) * len(other.terms)
    return None  # scalar scaling, not a product


def _trim_info(args, result):
    return (len(args[0].terms), len(result.terms))


def _size_info(args, result):
    return len(result)


def _px_info(args, result):
    return int(result.values.size)


# (module, attribute, span name, payload)
FUNCTIONS = (
    (_kernel, "phi_plus_eval", "kernel.phi_plus_eval", _kernel_info),
    (_kernel, "phi_minus_eval", "kernel.phi_minus_eval", _kernel_info),
    (escape, "phi_plus", "escape.phi_plus", None),
    (escape, "phi_minus", "escape.phi_minus", None),
    (escape, "phi_with_gradient", "escape.phi_with_gradient", None),
    (escape, "green", "escape.green", None),
    (gridfield, "green_grid", "gridfield.green_grid", _px_info),
    (gridfield, "grid_to_pgm", "gridfield.export", _size_info),
    (gridfield, "grid_sidecar", "gridfield.export", _size_info),
    (gridfield, "grid_to_csv", "gridfield.export", _size_info),
    (locus, "tangency_value", "locus.tangency_value", None),
    (locus, "locate_on_locus", "locus.locate_on_locus", None),
    (locus, "trace_primary_component", "locus.trace", None),
    (locus, "contact_order", "locus.contact", None),
    (locus, "verify_biholomorphism", "locus.cover", None),
    (holonomy, "monodromy_orbit", "holonomy.orbit", None),
    (holonomy, "psi_pair", "holonomy.psi_pair", None),
    (holonomy, "same_leaf_plus", "holonomy.same_leaf", None),
    (manifolds, "local_stable_graph", "manifolds.graph", None),
    (manifolds, "gradient_index", "manifolds.index", None),
    (manifolds, "point_from_uv", "manifolds.point_from_uv", None),
    (rigidity, "phi_series", "rigidity.phi_series", None),
    (rigidity, "locus_series", "rigidity.locus_series", None),
    (rigidity, "chart_series", "rigidity.chart", None),
    (rigidity, "sigma_series", "rigidity.sigma", None),
    (rigidity, "rigidity_defect", "rigidity.defect", None),
    (rigidity, "verify_table_case", "rigidity.cases", None),
    (rigidity, "check_partial_solution", "rigidity.cases", None),
)

METHODS = (
    (MultiPoly, "__mul__", "series.mp_mul", _mp_mul_info),
    (MultiPoly, "__rmul__", "series.mp_mul", _mp_mul_info),
    (TruncSeries, "__mul__", "series.ts_mul", None),
    (TruncSeries, "__rmul__", "series.ts_mul", None),
    (MultiPoly, "truncate_var", "series.truncate_var", _trim_info),
)


class Tracer:
    """Collects spans while `op` is set; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def wrap(self, fn, name, payload=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            info = None
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if payload is not None:
                    info = payload(args, result)
                return result
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                tracer.spans.append(
                    (sid, name, t0, t1, c0, c1, parent, op, threading.get_ident(), info)
                )

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, attr, name, payload in FUNCTIONS:
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, payload)
            for target in _IMPORTERS:
                if target.__dict__.get(attr) is original:
                    self._patches.append((target, attr, original))
                    setattr(target, attr, wrapper)
        for cls, attr, name, payload in METHODS:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, name, payload))

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches = []

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


# ---------------------------------------------------------------- analysis


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    end = None
    start = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            if end is not None:
                total += end - start
            start, end = s, e
        elif e > end:
            end = e
    if end is not None:
        total += end - start
    return total


def self_times(spans, keep=lambda span: True, clock="wall"):
    """{span id: duration minus the part of it its children cover}.

    Only spans accepted by `keep` count; each one's children are its
    nearest kept descendants (same thread by construction).  `clock` is
    "wall" (perf_counter) or "cpu" (the thread's CPU clock).
    """
    lo, hi = (T0, T1) if clock == "wall" else (C0, C1)
    by_id = {s[ID]: s for s in spans}
    children = {}
    for s in spans:
        if not keep(s):
            continue
        p = s[PARENT]
        while p is not None and not keep(by_id[p]):
            p = by_id[p][PARENT]
        if p is not None:
            children.setdefault(p, []).append((s[lo], s[hi]))
    out = {}
    for s in spans:
        if keep(s):
            own = s[hi] - s[lo]
            inner = [(max(a, s[lo]), min(b, s[hi])) for a, b in children.get(s[ID], ())]
            out[s[ID]] = own - _covered([iv for iv in inner if iv[1] > iv[0]])
    return out


def _ancestor_names(span, by_id):
    names = set()
    p = span[PARENT]
    while p is not None:
        names.add(by_id[p][NAME])
        p = by_id[p][PARENT]
    return names


def layer_metrics(spans, workers, main_thread):
    """The per-layer metrics, by name, from the spans of a traced run.

    `workers` is green_grid's thread count and `main_thread` the ident of
    the thread that issued the operations: outermost spans on any other
    thread are gridfield's per-pixel calls.
    """
    by_id = {s[ID]: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s[NAME], []).append(s)

    def of(*names):
        return [s for n in names for s in named.get(n, ())]

    def wall(*names):
        return sum(s[T1] - s[T0] for s in of(*names))

    def under(span_name, ancestor):
        return sum(1 for s in of(span_name) if ancestor in _ancestor_names(s, by_id))

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    kernel = of("kernel.phi_plus_eval", "kernel.phi_minus_eval")
    busy = sum(s[C1] - s[C0] for s in kernel)
    out["kernel.calls"] = len(kernel)
    out["kernel.busy_s"] = busy
    out["kernel.us_per_call"] = ratio(busy * 1e6, len(kernel))
    out["kernel.entry_steps"] = sum(s[INFO][1] for s in kernel)
    out["kernel.no_escape_frac"] = ratio(
        sum(1 for s in kernel if s[INFO][0] == _kernel.NO_ESCAPE), len(kernel)
    )

    escape_names = {n for n in named if n.startswith("escape.")}
    escape_spans = of(*escape_names)
    out["escape.calls"] = sum(
        1 for s in escape_spans
        if s[PARENT] is None or by_id[s[PARENT]][NAME] not in escape_names
    )
    esc_self = self_times(spans, clock="cpu")
    out["escape.self_s"] = sum(esc_self[s[ID]] for s in escape_spans)

    grids = of("gridfield.green_grid")
    render = wall("gridfield.green_grid")
    worker_cpu = sum(
        s[C1] - s[C0]
        for s in spans
        if s[PARENT] is None and s[THREAD] != main_thread
    )
    out["gridfield.px"] = sum(s[INFO] for s in grids)
    out["gridfield.render_s"] = render
    out["gridfield.export_s"] = wall("gridfield.export")
    out["gridfield.export_bytes"] = sum(s[INFO] for s in of("gridfield.export"))
    out["gridfield.thread_util"] = ratio(worker_cpu, render * workers)

    locate = len(of("locus.locate_on_locus"))
    out["locus.tangency_calls"] = len(of("locus.tangency_value"))
    out["locus.locate_calls"] = locate
    out["locus.tangency_per_locate"] = ratio(
        under("locus.tangency_value", "locus.locate_on_locus"), locate
    )
    out["locus.trace_s"] = wall("locus.trace")
    out["locus.cover_s"] = wall("locus.cover")
    out["locus.contact_s"] = wall("locus.contact")

    out["holonomy.orbit_s"] = wall("holonomy.orbit")
    out["holonomy.tangency_calls"] = under("locus.tangency_value", "holonomy.orbit")

    out["manifolds.graph_s"] = wall("manifolds.graph")
    out["manifolds.index_s"] = wall("manifolds.index")
    out["manifolds.uv_calls"] = len(of("manifolds.point_from_uv"))
    out["manifolds.green_calls"] = under("escape.green", "manifolds.index")

    products = [s for s in of("series.mp_mul") if s[INFO] is not None]
    trims = of("series.truncate_var")
    out["series.mp_mul_calls"] = len(products)
    out["series.mp_mul_pairs"] = sum(s[INFO] for s in products)
    out["series.mp_mul_s"] = sum(s[C1] - s[C0] for s in products)
    out["series.ts_mul_calls"] = len(of("series.ts_mul"))
    out["series.trim_keep_ratio"] = ratio(
        sum(s[INFO][1] for s in trims), sum(s[INFO][0] for s in trims)
    )

    stage = self_times(spans, keep=lambda s: s[NAME].startswith("rigidity."))
    for metric, name in (
        ("rigidity.phi_series_s", "rigidity.phi_series"),
        ("rigidity.locus_series_s", "rigidity.locus_series"),
        ("rigidity.chart_s", "rigidity.chart"),
        ("rigidity.sigma_s", "rigidity.sigma"),
        ("rigidity.defect_s", "rigidity.defect"),
        ("rigidity.cases_s", "rigidity.cases"),
    ):
        out[metric] = sum(stage[s[ID]] for s in of(name))
    return out
