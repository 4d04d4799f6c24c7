"""Self-tests of the benchmark harness (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import random
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hopfcycl  # noqa: E402
import hopfcycl.cli  # noqa: E402,F401

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CHEAP = {
    "taft_twisted": lambda name: name.startswith("taft2"),
    "quiver_bar": lambda name: name.startswith(("crown1", "crown2 n=2")),
    "group_integral": lambda name: "cyclic:4" not in name and " Z " not in name,
    "law_suite": lambda name: name.startswith(("Q[Z/3]", "taft2")),
}

NAMED_IMPORTS = ("rank", "homology_at", "smith_normal_form", "connes_lambda_hc",
                 "cyclic_bicomplex_hc", "hochschild_window")


def cheap_jobs(name, seed=0):
    return [j for j in workloads.WORKLOADS[name](random.Random(seed)) if CHEAP[name](j.name)]


def bindings():
    """Every attribute of every package module and of every patched class."""
    owners = list(tracing.package_modules())
    for mod in owners[:]:
        owners += [c for c in vars(mod).values()
                   if isinstance(c, type) and c.__module__.startswith("hopfcycl")]
    return {(id(o), name): value for o in owners for name, value in list(vars(o).items())}


def test_originals_restored_after_traced_and_counting_runs():
    before = bindings()
    for probe in (tracing.Tracer(), tracing.Counter()):
        probe.install()
        try:
            workloads.run_jobs(cheap_jobs("taft_twisted")[:3], probe)
        finally:
            probe.restore()
        after = bindings()
        assert after.keys() == before.keys()
        changed = [key for key in before if after[key] is not before[key]]
        assert not changed


def test_every_import_site_is_wrapped():
    originals = {name: getattr(hopfcycl, name) for name in NAMED_IMPORTS}
    sites = {
        name: [m for m in tracing.package_modules() if vars(m).get(name) is fn]
        for name, fn in originals.items()
    }
    assert {m.__name__ for m in sites["rank"]} >= {"hopfcycl.cyclic", "hopfcycl.quivers"}
    assert {m.__name__ for m in sites["connes_lambda_hc"]} >= {"hopfcycl.groups", "hopfcycl.cli"}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, mods in sites.items():
            wrapped = {id(vars(m)[name]) for m in mods}
            assert len(wrapped) == 1 and id(originals[name]) not in wrapped, name
        assert hopfcycl.SparseMatrix.__matmul__.__wrapped__ is not None
        assert hopfcycl.CyclicModule.face.__wrapped__ is not None
    finally:
        tracer.restore()
    assert all(getattr(hopfcycl, name) is fn for name, fn in originals.items())


def test_traced_counted_and_untraced_answers_are_identical():
    for name in workloads.WORKLOADS:
        answers = []
        for probe in (None, tracing.Tracer(), tracing.Counter()):
            jobs = cheap_jobs(name)  # fresh modules, so operators are rebuilt under the probe
            if probe is not None:
                probe.install()
            try:
                records = workloads.run_jobs(jobs, probe)
            finally:
                if probe is not None:
                    probe.restore()
            assert all(r["ok"] for r in records), [r for r in records if not r["ok"]]
            answers.append([(r["job"], r["answer"]) for r in records])
        assert answers[0] == answers[1] == answers[2], name


def span(name, start, end, parent=None, job=0):
    s = tracing.Span(name, parent, job)
    s.start, s.end = start, end
    return s


def test_self_time_arithmetic_on_a_synthetic_tree():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, parent=0),
        span("a.child", 2.0, 2.5, parent=1),
        span("b", 5.0, 7.0, parent=0),
        span("b", 5.5, 6.0, parent=3),  # nested span of the same name
        span("other", 20.0, 26.0, job=1),
        span("c1", 21.0, 24.0, parent=5, job=1),
        span("c2", 23.0, 27.0, parent=5, job=1),  # overlaps c1 and ends past its parent
    ]
    assert tracing.self_times(spans) == [5.0, 2.5, 0.5, 1.5, 0.5, 1.0, 3.0, 4.0]
    assert tracing._outermost(spans, {"b"}) == 2.0
    assert tracing._outermost(spans, {"a", "a.child"}) == 3.0
    assert tracing.top_self(spans, limit=2) == {
        "all": [("root", 5.0), ("c2", 4.0)],
        "jobs": {0: ("root", 5.0), 1: ("c2", 4.0)},
    }


def test_wrong_reference_and_raising_job_count_as_failed():
    good = cheap_jobs("taft_twisted")[0]
    wrong = workloads.Job(
        good.name + " (wrong reference)", good.group, good.compute,
        lambda: {**good.reference(), "free_rank": good.reference()["free_rank"] + 1},
    )

    def boom():
        raise hopfcycl.HopfCyclError("raised on purpose")

    raising = workloads.Job("raising job", "none", boom, lambda: None)
    records = workloads.run_jobs([good, wrong, raising])
    assert [r["ok"] for r in records] == [True, False, False]
    assert records[2]["error"] == "HopfCyclError: raised on purpose"
    assert run.failed_jobs([{"jobs": records}]) == 2


def test_tail_percentile_needs_ten_samples_above_it():
    assert run.tail_percentile([1.0] * 5) is None
    assert run.tail_percentile(list(map(float, range(100)))) == (90, 89.0)
    assert run.tail_percentile(list(map(float, range(20)))) == (50, 9.0)


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "taft_twisted", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_metrics_cover_every_per_layer_name():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    counter = tracing.Counter()
    produced = set(tracing.layer_metrics([])) | set(counter.metrics())
    produced |= {"trace.wall_s", "trace.overhead_ratio"}
    assert produced == names


def test_reference_seconds_drop_probe_time_and_scale_by_speed():
    sampler = speed.Sampler()
    sampler.samples = [(0.0, 0.1, 1.0), (1.0, 0.2, 0.5), (2.0, 0.2, 0.5), (3.5, 0.05, 2.0),
                       (9.0, 0.1, 1.0)]
    # inside [0.5, 3.0): the samples at 1.0 and 2.0; nearest outside: 0.0 and 3.5
    seconds, reference = sampler.reference_seconds(0.5, 3.0)
    assert math.isclose(seconds, 2.5 - 0.4)
    assert math.isclose(reference, seconds * (1 + 0.5 + 0.5 + 2) / 4)
    # nothing inside [4, 5): two neighbours before it, one after it
    assert math.isclose(sampler.speed(4.0, 5.0, neighbours=2), (0.5 + 2 + 1) / 3)


def test_probe_speed_is_the_mean_of_both_kernels(monkeypatch):
    monkeypatch.setattr(speed, "arithmetic", lambda: 2 * speed.REFERENCE_ARITHMETIC_S)
    monkeypatch.setattr(speed, "scan", lambda: speed.REFERENCE_SCAN_S / 2)
    seconds, rate = speed.probe()
    assert math.isclose(seconds, 2 * speed.REFERENCE_ARITHMETIC_S + speed.REFERENCE_SCAN_S / 2)
    assert math.isclose(rate, (0.5 + 2) / 2)


def test_sampler_probes_on_a_timer_and_stops():
    sampler = speed.Sampler()
    sampler.start()
    try:
        end = speed.time.perf_counter() + 5 * speed.INTERVAL_S
        while speed.time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
