"""One pass of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is ``setup`` (set-up only), ``plain`` (the pass that gives the
end-to-end numbers), ``trace`` (spans around the package's public calls) or
``count`` (ring-operation counts and rank fingerprints).  Set-up is the
import of hopfcycl plus the workload's building and validation; the harness's
own imports and the installation of wrappers are kept out of it.  Only
``sys``, ``time`` and ``speed`` (which loads ``signal``) are loaded before the
timed import, so the standard modules hopfcycl pulls in (fractions, re,
dataclasses, argparse, json) are charged to it; that is why the other imports
sit inside ``main``.

In ``setup`` and ``plain`` mode the machine's speed is probed around the
set-up and, in ``plain`` mode, on a timer throughout the jobs (``speed.py``);
each time is then reported both as measured, without the probes' own time,
and in seconds at the reference speed (the ``*ref*`` keys).
"""

import sys
import time

import speed


def main(argv: list[str]) -> dict:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    spans_path = argv[3] if len(argv) > 3 else None
    sampler = speed.Sampler() if mode in ("setup", "plain") else None
    if sampler is not None:
        speed.probe()  # the first run of a fresh process is slow; not a sample
        for _ in range(speed.SETUP_PROBES):
            sampler.sample()

    t0 = time.perf_counter()
    import hopfcycl

    if workload == "group_integral":
        import hopfcycl.cli  # noqa: F401
    import_s = time.perf_counter() - t0

    import json
    import os
    import random
    import resource

    import tracing
    import workloads

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(hopfcycl.__file__).startswith(src + os.sep):
        raise SystemExit(f"hopfcycl was imported from {hopfcycl.__file__}, not from {src}")

    probe = tracing.Tracer() if mode == "trace" else tracing.Counter() if mode == "count" else None
    if probe is not None:
        probe.install()
    try:
        t1 = time.perf_counter()
        jobs = workloads.WORKLOADS[workload](random.Random(seed))
        setup_end = time.perf_counter()
        out = {"mode": mode, "setup_s": import_s + (setup_end - t1)}
        if sampler is not None:
            speed.probe()  # likewise the first after the set-up's imports
            for _ in range(speed.SETUP_PROBES):
                sampler.sample()
            out["setup_ref_s"] = out["setup_s"] * sampler.speed(t0, setup_end, speed.SETUP_PROBES)
        if mode == "setup":
            return out
        if sampler is not None:
            sampler.start()
        try:
            start = time.perf_counter()
            records = workloads.run_jobs(jobs, probe)
            end = time.perf_counter()
        finally:
            if sampler is not None:
                sampler.stop()
                sampler.sample()
    finally:
        if probe is not None:
            probe.restore()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for r in records:
        job_start, job_end = r.pop("start"), r.pop("end")
        if sampler is not None:
            r["seconds"], r["ref_seconds"] = sampler.reference_seconds(job_start, job_end)
    if sampler is not None:
        out["wall_s"], out["wall_ref_s"] = sampler.reference_seconds(start, end)
        out["probes"] = len(sampler.samples)
    else:
        out["wall_s"] = end - start
    out["jobs"] = records
    if mode == "trace":
        out["layers"] = tracing.layer_metrics(probe.spans)
        out["top_self"] = tracing.top_self(probe.spans)
        if spans_path:
            with open(spans_path, "w") as fh:
                json.dump([s.as_list(start) for s in probe.spans], fh)
    elif mode == "count":
        out["layers"] = probe.metrics()
    return out


if __name__ == "__main__":
    result = main(sys.argv[1:])
    import json

    print(json.dumps(result))
