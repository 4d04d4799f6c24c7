"""The four benchmark workloads: their set-up and their jobs.

A job is one query a user would make: one homology group of one module, one
``hopfcycl.cli.run`` invocation, or one law-suite module.  ``compute`` is the
timed call into the library; ``reference`` gives the value the answer must
equal, taken from a closed formula or an expected law-suite verdict.  Both
return plain JSON data so that answers can be recorded and compared between
commits.

``WORKLOADS[name](rng)`` performs the workload's set-up (building and validating
every algebra, Hopf structure, character and admissible triple it uses) and
returns its jobs.  The seed only permutes the job order and picks the two
Taft-3 triples of ``law_suite``; the library receives only the generated
inputs.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass
from math import gcd
from typing import Callable

import hopfcycl as hc


@dataclass(frozen=True)
class Job:
    name: str
    group: str  # the module the job computes on; rank repeats are counted per group
    compute: Callable[[], object]
    reference: Callable[[], object]


def run_jobs(jobs, probe=None) -> list[dict]:
    """Run the jobs back to back; each record holds the answer and its reference.

    Only ``compute`` is timed; its ``start`` and ``end`` (``perf_counter``)
    are kept so that the speed probes inside it can be found.  A job that
    raises, or whose answer differs from its reference, is recorded with
    ``ok`` false and the pass goes on.
    """
    records = []
    for index, job in enumerate(jobs):
        if probe is not None:
            probe.begin_job(index, job)
        error = answer = reference = None
        start = time.perf_counter()
        try:
            answer = job.compute()
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        try:
            reference = job.reference()
        except Exception as exc:
            error = error or f"reference {type(exc).__name__}: {exc}"
        records.append({
            "job": job.name,
            "seconds": end - start,
            "start": start,
            "end": end,
            "answer": answer,
            "reference": reference,
            "ok": error is None and answer == reference,
            "error": error,
        })
    return records


def homology(mod) -> dict:
    return {"free_rank": mod.free_rank, "torsion": list(mod.torsion)}


def failures(report: dict) -> list[str]:
    return sorted(name for name, ok in report.items() if not ok)


# -- taft_twisted ------------------------------------------------------------


def taft_twisted(rng) -> list[Job]:
    """HC_n of every admissible triple of the Taft algebras of size 2 and 3,
    by the Connes quotient complex over Q(zeta_n), against the closed form."""
    jobs = []
    for n, top in ((2, 4), (3, 3)):
        hopf = hc.taft_hopf(n)
        for triple in hc.taft_cm_triples(n):
            module = hc.taft_cm_module(hopf, *triple)
            group = f"taft{n} {triple}"
            for p in range(top + 1):
                jobs.append(Job(
                    f"{group} HC_{p}", group,
                    lambda module=module, p=p: homology(hc.connes_lambda_hc(module, p)),
                    lambda n=n, triple=triple, p=p: {
                        "free_rank": hc.taft_cm_closed_form(n, *triple, p), "torsion": [],
                    },
                ))
    rng.shuffle(jobs)
    return jobs


# -- quiver_bar --------------------------------------------------------------


def _graded(per_grade: dict) -> dict:
    return {str(q): homology(mod) for q, mod in sorted(per_grade.items()) if not mod.is_zero}


# The bar oracle runs where its boundary b_(p+1) has at most this many
# columns.  The one case above it, HH_3 of the 3-crown at n = 3 (a rank of the
# 6561 x 59049 b_4), takes 12-20 s on its own: a pass that long runs once per
# run, and that memory-bound rank is the part most slowed by other tenants of
# the shared machine, so its run-to-run spread exceeded the metric bounds.
BAR_MAX_COLUMNS = 10_000


def _hh_answer(A, AZ, bar, p) -> dict:
    total, per_q = hc.hh_via_skoldberg(A, p)
    _, per_z = hc.hh_via_skoldberg(AZ, p)
    out = {
        "small_Q": _graded(per_q),
        "small_Z": _graded(per_z),
        "small_total_Q": total.free_rank,
    }
    if bar is not None:
        out["bar_Q"] = hc.hochschild_homology(bar, p).free_rank
    return out


def _hh_reference(quiver, n, p, with_bar) -> dict:
    # every grade a degree-p pair (a, gamma) can have lies below this limit
    grades = range(n * (p // 2 + 2) + 2)
    closed = {
        ring.name: {q: hc.hh_closed_form(quiver, n, p, q, ring) for q in grades}
        for ring in (hc.QQ, hc.ZZ)
    }
    total = sum(mod.free_rank for mod in closed["Q"].values())
    out = {
        "small_Q": _graded(closed["Q"]),
        "small_Z": _graded(closed["Z"]),
        "small_total_Q": total,
    }
    if with_bar:
        out["bar_Q"] = total
    return out


def quiver_bar(rng) -> list[Job]:
    """Truncated crown algebras: the small resolution, HH from the small complex
    over Q and Z against the closed form and (up to BAR_MAX_COLUMNS) against
    the bar complex, and HC from the graded SBI argument."""
    jobs = []
    for c in (1, 2, 3):
        quiver = hc.Quiver.crown(c)
        for n in (2, 3):
            A = hc.truncated_algebra(quiver, n, hc.QQ)
            AZ = hc.truncated_algebra(quiver, n, hc.ZZ)
            bar = hc.ClassicalCyclicModule(A.algebra)
            group = f"crown{c} n={n}"

            def resolution(A=A):
                report = hc.skoldberg_resolution(A, 5)
                return {k: report[k] for k in ("d_squared_zero", "grade_preserving", "exact")}

            jobs.append(Job(
                f"{group} resolution", group, resolution,
                lambda: {"d_squared_zero": True, "grade_preserving": True, "exact": True},
            ))
            for p in range(4):
                oracle = bar if A.dim ** (p + 2) <= BAR_MAX_COLUMNS else None
                jobs.append(Job(
                    f"{group} HH_{p}", group,
                    lambda A=A, AZ=AZ, oracle=oracle, p=p: _hh_answer(A, AZ, oracle, p),
                    lambda quiver=quiver, n=n, p=p, with_bar=oracle is not None:
                        _hh_reference(quiver, n, p, with_bar),
                ))
            jobs.append(Job(
                f"{group} graded SBI HC_0..5", group,
                lambda A=A: hc.graded_sbi_hc(A, 5),
                lambda quiver=quiver, n=n: [
                    hc.hc_closed_form_truncated(quiver, n, p, hc.QQ) for p in range(6)
                ],
            ))
    rng.shuffle(jobs)
    return jobs


# -- group_integral ----------------------------------------------------------


def _cli_answer(argv) -> dict:
    stream = io.StringIO()
    code = hc.cli.run(argv, stream)
    table = json.loads(stream.getvalue())
    return {
        "exit": code,
        "passed": table["passed"],
        "rows": [{k: r[k] for k in ("degree", "free_rank", "torsion")} for r in table["rows"]],
    }


def group_integral(rng) -> list[Job]:
    """``hopfcycl hc --group cyclic:m --compare closed --format json`` over Z,
    F2 and F3; every row is checked against closed_hc_cyclic_group here, not
    only through the CLI's own pass flag."""
    jobs = []
    for spec in ("Z", "F2", "F3"):
        ring = hc.parse_ring(spec)
        for m in (2, 3, 4):
            G = hc.FiniteGroup.cyclic(m)
            for pi in range(m):
                top = 3 if m == 4 and pi != 0 else 4
                module = hc.cm_group_module(G, pi, ring)
                if not module.triple.valid:
                    raise RuntimeError(f"Z/{m} pi={pi} over {spec}: triple not admissible")
                m_pi = gcd(m, pi)  # m / order of g^pi; gcd(m, 0) = m
                argv = [
                    "hc", "--group", f"cyclic:{m}", "--ring", spec, "--pi", str(pi),
                    "--max-degree", str(top), "--compare", "closed", "--format", "json",
                ]
                jobs.append(Job(
                    f"hc cyclic:{m} {spec} pi={pi} N={top}", " ".join(argv),
                    lambda argv=argv: _cli_answer(argv),
                    lambda ring=ring, m_pi=m_pi, top=top: {
                        "exit": 0,
                        "passed": True,
                        "rows": [
                            {"degree": n, **homology(hc.closed_hc_cyclic_group(ring, m_pi, n))}
                            for n in range(top + 1)
                        ],
                    },
                ))
    rng.shuffle(jobs)
    return jobs


# -- law_suite ---------------------------------------------------------------

HOPF_AXIOMS = ("associativity", "unit", "coassociativity", "counit", "antipode")


def _inadmissible_taft2(hopf) -> dict:
    triple = hc.check_cm_triple(
        hopf, hc.taft_grouplike(hopf, 1),
        hc.taft_vertex_character(hopf, 1), hc.taft_vertex_character(hopf, 1),
    )
    module = hc.ConnesMoscoviciModule(hopf, triple, require_valid=False)
    report = hc.verify_cyclic_axioms(module, 2)
    return {"valid": triple.valid, "t_1^2 = id": report["t_1^2 = id"],
            "t_2^3 = id": report["t_2^3 = id"]}


def law_suite(rng) -> list[Job]:
    """Exact verification of the cyclic-module laws up to level 3 and of the
    Hopf axioms, plus detection of the inadmissible Taft-2 triple."""
    modules = {
        "Q[Z/3] pi=e": hc.cm_group_module(hc.FiniteGroup.cyclic(3), 0, hc.QQ),
        "Q[Z/3] pi=g": hc.cm_group_module(hc.FiniteGroup.cyclic(3), 1, hc.QQ),
        "Q[S3] pi=e": hc.cm_group_module(hc.FiniteGroup.symmetric(3), 0, hc.QQ),
    }
    hopfs = {n: hc.taft_hopf(n) for n in (2, 3)}
    chosen = {
        2: hc.taft_cm_triples(2),
        3: sorted(rng.sample(hc.taft_cm_triples(3), 2)),
    }
    for n, triples in chosen.items():
        for triple in triples:
            modules[f"taft{n} {triple}"] = hc.taft_cm_module(hopfs[n], *triple)
    jobs = [
        Job(f"{name} cyclic laws to level 3", name,
            lambda module=module: failures(hc.verify_cyclic_axioms(module, 3)),
            lambda: [])
        for name, module in modules.items()
    ]
    jobs += [
        Job(f"taft{n} Hopf axioms", f"taft{n}",
            lambda hopf=hopf: hopf.verify_axioms(),
            lambda: {name: True for name in HOPF_AXIOMS})
        for n, hopf in hopfs.items()
    ]
    jobs.append(Job(
        "taft2 (1,1,1) inadmissible", "taft2 (1, 1, 1)",
        lambda: _inadmissible_taft2(hopfs[2]),
        lambda: {"valid": False, "t_1^2 = id": True, "t_2^3 = id": False},
    ))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "taft_twisted": taft_twisted,
    "quiver_bar": quiver_bar,
    "group_integral": group_integral,
    "law_suite": law_suite,
}
