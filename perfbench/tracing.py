"""Spans and counts taken from outside the hopfcycl package.

``Tracer`` replaces the package's public functions, at every module that
binds them by name, and a few methods on their classes, with wrappers that
record one span per call: name, start, end, parent span and job.  Spans stay
in memory; per-layer metrics are derived from them after the pass.

``Counter`` is the separate counting pass: it counts payload operations made
through ``Ring`` objects, keeps a sample of ``mul`` operands for timing, and
fingerprints every matrix handed to ``rank``.  Wrapping the ~10^6 payload
calls would inflate every self time, so these counts never share a pass with
the spans.

Both restore every original attribute in ``restore()``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import types
import weakref
from time import perf_counter, perf_counter_ns

PACKAGE = "hopfcycl"
LAYERS = ("rings", "sparse", "hopf", "cyclic", "groups", "quivers", "cli")

# Per-entry helpers called millions of times inside operator assembly and
# Hopf-structure loops; spanning them would bury their callers' self time.
UNSPANNED = {
    "cyclic.tuple_to_index",
    "cyclic.index_to_tuple",
    "hopf.vec_add",
    "hopf.vec_scale",
    "hopf.tensor_add_scaled",
}

OPERATORS = ("face", "degeneracy", "cyclic")
BOUNDARIES = ("boundary_b", "boundary_bprime", "norm", "one_minus_lambda")


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


def package_modules() -> list[types.ModuleType]:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def public_functions(layer: types.ModuleType):
    """(short name, function) for each public function a layer module defines."""
    short = layer.__name__.rsplit(".", 1)[1]
    for name, obj in sorted(vars(layer).items()):
        if (
            isinstance(obj, types.FunctionType)
            and obj.__module__ == layer.__name__
            and not name.startswith("_")
            and f"{short}.{name}" not in UNSPANNED
        ):
            yield f"{short}.{name}", obj


def layer_modules() -> dict[str, types.ModuleType]:
    """Package modules by short name ("sparse", "cyclic", ...)."""
    return {m.__name__.rsplit(".", 1)[-1]: m for m in package_modules()}


def wrap_everywhere(patches: Patches, wrappers: dict) -> None:
    """Rebind every name in the package that refers to a wrapped function."""
    by_id = {id(fn): wrapper for fn, wrapper in wrappers.items()}
    for mod in package_modules():
        for name, obj in list(vars(mod).items()):
            wrapper = by_id.get(id(obj))
            if wrapper is not None:
                patches.replace(mod, name, wrapper)


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "attrs")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.start = self.end = 0.0
        self.attrs = None

    def as_list(self, origin: float) -> list:
        return [self.name, self.start - origin, self.end - origin, self.parent,
                self.job, self.attrs]


# -- span attributes, taken from arguments and results ---------------------


def _rank_attrs(args, result):
    return {"nnz": args[0].nnz()}


def _snf_attrs(args, result):
    M = args[0]
    rows = M.nrows if M.ring.name == "Z" else M.nrows + M.ncols
    return {"cells": rows * M.ncols}


def _matmul_attrs(args, result):
    return {"nnz": result.nnz()}


def _cli_attrs(args, result):
    stream = args[1] if len(args) > 1 else None
    return {"bytes": len(stream.getvalue().encode())} if stream is not None else None


ATTRS = {
    "sparse.rank": _rank_attrs,
    "sparse.smith_normal_form": _snf_attrs,
    "sparse.matmul": _matmul_attrs,
    "cli.run": _cli_attrs,
}


class Tracer:
    """Records a span around each call into the package's public surface."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = -1  # -1 is set-up; jobs are numbered from 0
        self._stack: list[int] = []
        self._patches = Patches()
        self._requested: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def install(self) -> None:
        mods = layer_modules()
        wrappers = {}
        for layer in LAYERS:
            if layer in mods:
                for name, fn in public_functions(mods[layer]):
                    wrappers[fn] = self._wrap(name, fn)
        wrap_everywhere(self._patches, wrappers)

        sparse, cyclic, hopf = mods["sparse"], mods["cyclic"], mods["hopf"]
        self._patch_method(sparse.SparseMatrix, "__matmul__", "sparse.matmul")
        for op in OPERATORS:
            self._patch_method(cyclic.CyclicModule, op, f"cyclic.{op}", operator=True)
        for op in BOUNDARIES:
            self._patch_method(cyclic.CyclicModule, op, f"cyclic.{op}")
        self._patch_method(cyclic.ChainComplexWindow, "homology", "cyclic.window_homology")
        self._patch_method(hopf.HopfAlgebraData, "verify_axioms", "hopf.verify_axioms")

    def restore(self) -> None:
        self._patches.restore()

    def begin_job(self, index: int, job) -> None:
        self.job = index

    def _patch_method(self, cls, attr, name, operator=False):
        self._patches.replace(cls, attr, self._wrap(name, vars(cls)[attr], operator))

    def _wrap(self, name, fn, operator=False):
        after = ATTRS.get(name)
        spans, stack, requested = self.spans, self._stack, self._requested

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.job)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if operator:
                seen = requested.setdefault(args[0], set())
                key = (name, args[1:])
                span.attrs = {"build": key not in seen}
                seen.add(key)
            elif after is not None:
                span.attrs = after(args, result)
            return result

        return traced


# -- self time and per-layer metrics -----------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent is not None:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            lo, hi = max(spans[c].start, reach), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


def _outermost(spans, names) -> float:
    """Time inside spans of the given names, not counting such spans nested in others."""
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and spans[p].name not in names:
            p = spans[p].parent
        if p is None:
            total += s.end - s.start
    return total


def layer_metrics(spans) -> dict[str, float]:
    """The span-derived per-layer metrics of one traced pass."""
    selfs = self_times(spans)

    def self_of(*names):
        return sum(t for s, t in zip(spans, selfs) if s.name in names)

    def calls(name):
        return sum(1 for s in spans if s.name == name)

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in spans if s.name == name and s.attrs)

    ops = [s for s in spans if s.name in {f"cyclic.{op}" for op in OPERATORS}]
    builds = [s for s in ops if s.attrs["build"]]
    return {
        "sparse.rank_calls": calls("sparse.rank"),
        "sparse.rank_s": _outermost(spans, {"sparse.rank"}),
        "sparse.rank_nnz_in": attr_sum("sparse.rank", "nnz"),
        "sparse.snf_calls": calls("sparse.smith_normal_form"),
        "sparse.snf_s": _outermost(spans, {"sparse.smith_normal_form"}),
        "sparse.snf_cells": attr_sum("sparse.smith_normal_form", "cells"),
        "sparse.matmul_calls": calls("sparse.matmul"),
        "sparse.matmul_s": _outermost(spans, {"sparse.matmul"}),
        "sparse.matmul_nnz_out": attr_sum("sparse.matmul", "nnz"),
        "sparse.homology_at_calls": calls("sparse.homology_at"),
        "sparse.homology_at_self_s": self_of("sparse.homology_at"),
        "cyclic.operator_builds": len(builds),
        "cyclic.operator_build_s": sum(s.end - s.start for s in builds),
        "cyclic.operator_hit_ratio": (len(ops) - len(builds)) / len(ops) if ops else 0.0,
        "cyclic.boundary_self_s": self_of(*(f"cyclic.{b}" for b in BOUNDARIES)),
        "cyclic.lambda_self_s": self_of("cyclic.connes_lambda_hc"),
        "cyclic.bicomplex_self_s": self_of("cyclic.cyclic_bicomplex_hc"),
        "cyclic.window_self_s": self_of(
            "cyclic.hochschild_window", "cyclic.hochschild_homology", "cyclic.window_homology"
        ),
        "cyclic.axioms_self_s": self_of("cyclic.verify_cyclic_axioms"),
        "hopf.triple_check_s": _outermost(spans, {"hopf.check_cm_triple", "hopf.twisted_antipode"}),
        "hopf.verify_axioms_s": _outermost(spans, {"hopf.verify_axioms"}),
        "groups.module_build_s": _outermost(spans, {"groups.cm_group_module"}),
        "quivers.taft_build_s": _outermost(
            spans, {"quivers.taft_hopf", "quivers.taft_cm_triples", "quivers.taft_cm_module"}
        ),
        "quivers.resolution_self_s": self_of("quivers.skoldberg_resolution"),
        "quivers.small_complex_self_s": self_of("quivers.hh_via_skoldberg"),
        "quivers.graded_sbi_self_s": self_of("quivers.graded_sbi_hc"),
        "cli.self_s": sum(t for s, t in zip(spans, selfs) if s.name.startswith("cli.")),
        "cli.json_bytes": attr_sum("cli.run", "bytes"),
    }


def top_self(spans, limit=5) -> dict:
    """The span names with the largest summed self time: over the whole pass
    (``all``, the first ``limit``) and for each job (``jobs``, the first one)."""
    totals: dict[str, float] = {}
    per_job: dict[int, dict[str, float]] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
        job = per_job.setdefault(s.job, {})
        job[s.name] = job.get(s.name, 0.0) + t

    def largest(table, n):
        return sorted(table.items(), key=lambda kv: -kv[1])[:n]

    return {"all": largest(totals, limit),
            "jobs": {job: largest(table, 1)[0] for job, table in per_job.items()}}


# -- the counting pass -------------------------------------------------------

RING_OPS = {"add": "add", "sub": "add", "neg": "add", "mul": "mul", "inv": "inv"}
MUL_SAMPLE_STRIDE = 97
MUL_SAMPLES_PER_RING = 200
MUL_REPEATS = 200


class Counter:
    """Counts ring payload operations and repeated rank inputs in one pass."""

    def __init__(self):
        self.job_group = ""
        self.counts = {"add": 0, "mul": 0, "inv": 0}
        self.mul_seen = 0
        self.mul_samples: dict[str, list] = {}
        self.rank_calls = 0
        self.rank_repeats = 0
        self._ranked: set = set()
        self._depth = 0
        self._patches = Patches()

    def install(self) -> None:
        mods = layer_modules()
        rings = mods["rings"]
        for cls in vars(rings).values():
            if isinstance(cls, type) and issubclass(cls, rings.Ring):
                for op, kind in RING_OPS.items():
                    if op in vars(cls):
                        self._patches.replace(cls, op, self._count(kind, vars(cls)[op]))
        rank = mods["sparse"].rank
        wrap_everywhere(self._patches, {rank: self._fingerprint(rank)})

    def restore(self) -> None:
        self._patches.restore()

    def begin_job(self, index: int, job) -> None:
        self.job_group = job.group

    def _count(self, kind, fn):
        counter = self

        @functools.wraps(fn)
        def counted(ring, *args):
            # a composite operation (Ring.sub = add . neg) counts once
            if counter._depth:
                return fn(ring, *args)
            counter.counts[kind] += 1
            if kind == "mul":
                counter.mul_seen += 1
                if counter.mul_seen % MUL_SAMPLE_STRIDE == 0:
                    sample = counter.mul_samples.setdefault(ring.name, [])
                    if len(sample) < MUL_SAMPLES_PER_RING:
                        sample.append((ring, fn, args))
            counter._depth += 1
            try:
                return fn(ring, *args)
            finally:
                counter._depth -= 1

        return counted

    def _fingerprint(self, fn):
        counter = self

        @functools.wraps(fn)
        def fingerprinted(M):
            key = (counter.job_group, M.ring, M.nrows, M.ncols,
                   hash(frozenset(M.entries.items())))
            counter.rank_calls += 1
            if key in counter._ranked:
                counter.rank_repeats += 1
            counter._ranked.add(key)
            return fn(M)

        return fingerprinted

    def mul_ns(self) -> dict[str, float]:
        """Median time of one mul on the sampled operand pairs, per ring."""
        out = {}
        for ring_name, sample in self.mul_samples.items():
            times = []
            for ring, fn, args in sample:
                t = perf_counter_ns()
                for _ in range(MUL_REPEATS):
                    fn(ring, *args)
                times.append((perf_counter_ns() - t) / MUL_REPEATS)
            out[ring_name] = statistics.median(times)
        return out

    def metrics(self) -> dict[str, float]:
        out = {
            "rings.mul_calls": self.counts["mul"],
            "rings.add_calls": self.counts["add"],
            "rings.inv_calls": self.counts["inv"],
            "sparse.rank_repeat_ratio": (
                self.rank_repeats / self.rank_calls if self.rank_calls else 0.0
            ),
        }
        mul_ns = self.mul_ns()
        for ring_name in RING_NAMES:
            out[f"rings.mul_ns.{metric_ring(ring_name)}"] = mul_ns.get(ring_name, 0.0)
        return out


RING_NAMES = ("Z", "Q", "F2", "F3", "Q(zeta2)", "Q(zeta3)")


def metric_ring(ring_name: str) -> str:
    return ring_name.replace("(", "").replace(")", "")
