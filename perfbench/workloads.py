"""The three closed-loop workloads: one client issues operations back to back.

`setup(name, seed, workers)` builds a workload from its seeded inputs; it is
exactly the work the set-up probe times.  `ops()` yields `Op`s forever (the
input pool is reused with fresh map objects if a run exhausts it).  Each op
carries the number of the input cycle it belongs to: every cycle holds the
same mix of ops, so a run that stops between cycles measures a fixed mix.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import henonlocus as hl

import inputs
import ops
from pkgpath import ROOT

FIELD_POOL = 240
CERTIFY_POOL = 64
RIGIDITY_CASES = ("beta_ratio", "a2_one", "a2_minus_one", "c1_zero")
GOLDEN = os.path.join("src", "henonlocus", "golden", "defect_coefficients.txt")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
CHILD_TIMEOUT_S = 150


@dataclass
class Op:
    name: str
    run: Callable
    check: Callable  # result -> None, or the violated certificate
    digest: Callable  # result -> plain values for identity comparisons
    cycle: int  # ops of one cycle have the same mix in every cycle


def _provenance_map(henon):
    dp = henon.domain_params()
    d = henon.degree
    return {
        "p": [[complex(c).real, complex(c).imag] for c in henon.p.coefficients],
        "a": [henon.a.real, henon.a.imag],
        "r": dp.r,
        "R": dp.R,
        "alpha": dp.alpha,
        "K": hl.truncation_K(d, dp.r, hl.escape.DEFAULT_TOL),
        "K_green": hl.truncation_K(d, dp.r, ops.GREEN_TOL),
    }


class Field:
    name = "field"

    def __init__(self, seed, workers):
        self.workers = workers
        self.tiles = inputs.field_tiles(seed, FIELD_POOL)
        self.maps = [ops.build_map(t.map) for t in self.tiles]
        self.used = 0

    def ops(self):
        for n in itertools.count():
            i = n % len(self.tiles)
            tile = self.tiles[i]
            henon = self.maps[i] if n < len(self.tiles) else ops.build_map(tile.map)
            self.used = max(self.used, i + 1)
            yield Op(
                "tile",
                lambda tile=tile, henon=henon: ops.field_op(tile, henon, self.workers),
                lambda result, tile=tile, henon=henon: ops.check_field(tile, henon, result),
                ops.digest_field,
                n // len(inputs.FIELD_STRATA),
            )

    def refusal_probes(self):
        return []

    def provenance(self):
        return [_provenance_map(m) for m in self.maps[: self.used]]


class Certify:
    name = "certify"

    def __init__(self, seed, workers):
        self.specs = inputs.certify_maps(seed, CERTIFY_POOL)
        self.maps = [ops.build_map(s.map) for s in self.specs]
        self.used = 0

    def ops(self):
        for n in itertools.count():
            i = n % len(self.specs)
            henon = self.maps[i] if n < len(self.specs) else ops.build_map(self.specs[i].map)
            self.used = max(self.used, i + 1)
            cycle = n // len(inputs.CERTIFY_STRATA)
            for name, run, check, digest in ops.certify_ops(self.specs[i], henon):
                yield Op(name, run, check, digest, cycle)

    def refusal_probes(self):
        """The known refusals as (label, Op): the op certify_ops makes for each."""
        probes = []
        for label, name, spec in inputs.known_refusals():
            henon = ops.build_map(spec.map)
            op = next(Op(*o, 0) for o in ops.certify_ops(spec, henon) if o[0] == name)
            probes.append((label, op))
        return probes

    def provenance(self):
        return [_provenance_map(m) for m in self.maps[: self.used]]


class Rigidity:
    """One op is the cold exact pipeline in a fresh interpreter; the seed is unused."""

    name = "rigidity"

    def __init__(self, seed, workers):
        self.setup_samples = []  # child start-to-import times
        self.reports = []  # the children's reports, in order
        self.spans_path = None  # set to make the next child trace itself

    def ops(self):
        for n in itertools.count():
            yield Op("pipeline", self._run_child, _check_rigidity, _digest_rigidity, n)

    def refusal_probes(self):
        return []

    def _run_child(self):
        cmd = [sys.executable, CHILD, "rigidity"]
        if self.spans_path:
            cmd.append(self.spans_path)
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                ready = proc.stdout.readline().strip() == "ready"
                if ready:
                    self.setup_samples.append(time.perf_counter() - start)
                out = proc.stdout.read()
            finally:
                timer.cancel()
            code = proc.wait()
        if not ready or code != 0:
            raise ChildFailed(f"rigidity child exited {code}")
        report = json.loads(out.strip().splitlines()[-1])
        self.reports.append(report)
        return report

    def provenance(self):
        return []


class ChildFailed(RuntimeError):
    """A child process died or timed out before reporting."""


def _check_rigidity(result):
    if not result["golden_match"]:
        return "defect coefficients differ from the golden file"
    bad = [case for case, ok in result["cases"].items() if not ok]
    if bad or set(result["cases"]) != set(RIGIDITY_CASES):
        return f"table cases not ok: {bad}"
    if not result["partial_ok"]:
        return "partial-solution check fails"
    return None


def _digest_rigidity(result):
    return (result["digest"], result["cases"], result["partial_ok"])


def rigidity_pipeline():
    """The rigidity op's work, as run inside the child; returns its report."""
    text = hl.defect_coefficients_text(13)
    cases = {case: hl.verify_table_case(case).ok for case in RIGIDITY_CASES}
    partial = hl.check_partial_solution().ok
    with open(os.path.join(ROOT, GOLDEN), "rb") as fh:
        golden = fh.read()
    data = text.encode("utf-8")
    return {
        "golden_match": data == golden,
        "cases": cases,
        "partial_ok": partial,
        "digest": hashlib.sha256(data).hexdigest(),
    }


WORKLOADS = {"field": Field, "certify": Certify, "rigidity": Rigidity}


def setup(name, seed, workers):
    return WORKLOADS[name](seed, workers)
