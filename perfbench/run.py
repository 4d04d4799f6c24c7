"""hopfcycl benchmark: time to a verified homology table.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``).
Every pass of a workload runs in a fresh single-threaded Python process
(``worker.py``), one at a time: a closed loop with one caller, jobs back to
back.  Every answer is checked against its reference.

``--trace 0`` runs passes until the next one would end after ``--seconds``
(always at least one), with at least ``SETUP_SAMPLES`` set-up-only processes
spread over the run, and reports the end-to-end metrics as medians over them,
times in seconds at the reference speed of ``speed.py``.
``--trace 1`` runs one untraced pass, one traced pass (spans) and one
counting pass (ring operations), and reports the per-layer metrics and the
tracing overhead.  Metric names and units come from ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the machine, every job's answer with its reference, the sample counts
and, when tracing, the largest self times.  Spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 9
DEADLINE_S = 170  # every run must end within 180 s


class BenchError(Exception):
    """A worker process failed; the run reports no result."""


def worker(workload: str, seed: int, mode: str, started: float, spans: Path | None = None) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    if spans is not None:
        argv.append(str(spans))
    # one hash seed for every pass, so set and dict orders do not vary between passes;
    # bytecode is cached under out/ whatever the caller's environment says, so
    # every timed import reads the same cache
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise BenchError("out of time before the next worker")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(values: list[float]):
    """The highest of p50/p75/p90/p95/p99 (nearest rank) with ten samples above it."""
    ordered = sorted(values)
    for p in (99, 95, 90, 75, 50):
        value = ordered[math.ceil(len(ordered) * p / 100) - 1]
        if sum(v > value for v in ordered) >= 10:
            return p, value
    return None


def summary(name: str, values: list[float]) -> str:
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]} {tail[1]:.4f}" if tail else "no percentile with 10 samples above it"
    return (f"{name}: median {statistics.median(values):.4f} over {len(values)} samples, "
            f"{tail_text}; samples {' '.join(f'{v:.4f}' for v in values)}")


def failed_jobs(passes: list[dict]) -> int:
    return sum(not r["ok"] for p in passes for r in p["jobs"])


def answers(records: list[dict]) -> list[dict]:
    return sorted(
        ({k: r[k] for k in ("job", "answer", "reference", "ok", "error")} for r in records),
        key=lambda r: r["job"],
    )


def meta() -> dict:
    src = ROOT / "src" / "hopfcycl"
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": sum(len(f.read_text().splitlines()) for f in sorted(src.glob("*.py"))),
    }


def measure(workload: str, seed: int, seconds: int, started: float):
    OUT.mkdir(exist_ok=True)
    worker(workload, seed, "setup", started)  # fills the bytecode caches; not measured
    passes, setups = [], []
    window = time.monotonic()
    while True:
        # set-up samples are spread over the run, so one slow spell of the
        # shared machine does not cover all of them
        setups.append(worker(workload, seed, "setup", started))
        t = time.monotonic()
        passes.append(worker(workload, seed, "plain", started))
        last = time.monotonic() - t
        if time.monotonic() - window + last > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(worker(workload, seed, "setup", started))
    setups += passes
    by_job: dict[str, list[dict]] = {}
    for p in passes:
        for r in p["jobs"]:
            by_job.setdefault(r["job"], []).append(r)
    # the job with the longest median time; taking each pass's longest job
    # instead would pick whichever job a slow spell of the machine hit
    slowest = max(by_job, key=lambda job: statistics.median(r["ref_seconds"] for r in by_job[job]))
    # (at the reference speed of speed.py, as measured without the probes' time)
    times = {
        "wall_s": ([p["wall_ref_s"] for p in passes], [p["wall_s"] for p in passes]),
        "slowest_job_s": ([r["ref_seconds"] for r in by_job[slowest]],
                          [r["seconds"] for r in by_job[slowest]]),
        "setup_s": ([p["setup_ref_s"] for p in setups], [p["setup_s"] for p in setups]),
    }
    samples = {name: ref for name, (ref, _) in times.items()}
    samples["peak_rss_mb"] = [p["peak_rss_mb"] for p in passes]
    print(f"slowest job: {slowest}")
    print(f"probe samples per pass: {' '.join(str(p['probes']) for p in passes)}")
    for name, values in samples.items():
        print(summary(name, values))
    for name, (_, measured) in times.items():
        print(summary(f"{name} as measured", measured))
    print("answers: " + json.dumps(answers(passes[0]["jobs"])))
    return passes, {name: statistics.median(values) for name, values in samples.items()}


def trace(workload: str, seed: int, started: float):
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    plain = worker(workload, seed, "plain", started)
    traced = worker(workload, seed, "trace", started, spans)
    counted = worker(workload, seed, "count", started)
    untraced = {r["job"]: r["answer"] for r in plain["jobs"]}
    for other in (traced, counted):
        for r in other["jobs"]:
            # an answer that changes under the wrappers is a failed job
            r["ok"] = r["ok"] and r["answer"] == untraced[r["job"]]
    metrics = {
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"],
        **traced["layers"],
        **counted["layers"],
    }
    print(f"untraced wall_s {plain['wall_s']:.4f}, traced wall_s {traced['wall_s']:.4f}, "
          f"counting wall_s {counted['wall_s']:.4f}")
    print("largest self times: " + json.dumps(traced["top_self"]["all"]))
    top = traced["top_self"]["jobs"]  # keyed by job index; "-1" is set-up
    print(f"set-up: largest self time {top.get('-1')}")
    slowest = sorted(enumerate(traced["jobs"]), key=lambda t: -t[1]["seconds"])[:3]
    for i, rec in slowest:
        print(f"job {rec['job']!r}: {rec['seconds']:.4f} s traced, "
              f"largest self time {top.get(str(i))}")
    print(f"spans: {spans.relative_to(ROOT)}")
    print("answers: " + json.dumps(answers(plain["jobs"])))
    return [plain, traced, counted], metrics


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "hopfcycl" / "__init__.py").is_file():
        print(f"error: no hopfcycl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print("meta: " + json.dumps(meta()))
    try:
        if args.trace:
            passes, metrics = trace(args.workload, args.seed, started)
        else:
            passes, metrics = measure(args.workload, args.seed, args.seconds, started)
        if metrics.keys() != units.keys():
            raise BenchError(f"metrics {sorted(metrics.keys() ^ units.keys())} "
                             "do not match BENCHMARK.json")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = failed_jobs(passes)
    print(f"fail_ratio: {failed}/{attempted} jobs")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
