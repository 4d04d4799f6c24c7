"""Command-line driver.

Subcommands: verify (Hopf + cyclic-module axiom suites), hh (Hochschild
table), hc / cm-hc (cyclic homology of a twisted module, optionally compared
against the closed formulas), compare (dual-path comparison for the chosen
algebra family) and report (everything at once).  Output is a deterministic
JSON document or an aligned text table; the exit status is 0 exactly when
every requested comparison passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .cyclic import (
    ClassicalCyclicModule,
    ConnesMoscoviciModule,
    connes_lambda_hc,
    cyclic_bicomplex_hc_upto,
    hochschild_homology_upto,
    verify_cyclic_axioms,
)
from .errors import HopfCyclError, ParseError, ResourceCap, UnsupportedCombination
from .groups import (
    FiniteGroup,
    character_from_zeta,
    closed_hc_cyclic_group,
    cm_group_module,
    group_algebra,
    trivial_character,
)
from .hopf import GroupLike, check_cm_triple
from .quivers import (
    Quiver,
    graded_sbi_hc,
    hc_closed_form_truncated,
    hh_via_skoldberg,
    taft_cm_closed_form,
    taft_cm_module,
    taft_cm_triples,
    taft_hopf,
    taft_grouplike,
    taft_vertex_character,
    truncated_algebra,
)
from .rings import CyclotomicField, HomologyModule, parse_ring, primitive_root_of_unity

DEFAULT_CARRIER_CAP = 100_000


def carrier_cap() -> int:
    raw = os.environ.get("HOPFCYCL_MAX_CARRIER")
    if raw is None:
        return DEFAULT_CARRIER_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ParseError(f"HOPFCYCL_MAX_CARRIER must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ParseError("HOPFCYCL_MAX_CARRIER must be positive")
    return value


def ensure_within_cap(base_dim: int, top_level: int) -> None:
    """Refuse before allocating any carrier larger than the configured cap."""
    cap = carrier_cap()
    size = max(base_dim, 1) ** top_level if base_dim > 1 else 1
    if size > cap:
        raise ResourceCap(
            f"carrier dimension {base_dim}^{top_level} = {size} exceeds the cap {cap}"
        )


# -- source construction -----------------------------------------------------


def _spec_size(spec: str) -> int:
    """The integer after the colon of a spec such as cyclic:M or crown:N."""
    size = spec.split(":", 1)[1]
    try:
        return int(size)
    except ValueError:
        raise ParseError(f"spec {spec!r} needs an integer size, got {size!r}") from None


def _read_json(path: str):
    """The JSON document of a --group-file or --quiver-file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read a JSON spec from {path!r}: {exc}") from None


def _load_group(args) -> FiniteGroup:
    if args.group_file:
        return FiniteGroup.from_json(_read_json(args.group_file))
    spec = args.group
    if spec.startswith("cyclic:"):
        return FiniteGroup.cyclic(_spec_size(spec))
    if spec.startswith("symmetric:"):
        return FiniteGroup.symmetric(_spec_size(spec))
    raise ParseError(f"unknown group spec {spec!r} (use cyclic:M or symmetric:N)")


def _load_quiver(args) -> Quiver:
    if args.quiver_file:
        return Quiver.from_json(_read_json(args.quiver_file))
    spec = args.quiver
    if spec.startswith("crown:"):
        return Quiver.crown(_spec_size(spec))
    raise ParseError(f"unknown quiver spec {spec!r} (use crown:N or --quiver-file)")


def _check_scalar_options(args) -> None:
    """Refuse a malformed --taft, --pi, --alpha or --beta before any algebra
    is built."""
    if args.taft is not None and args.taft < 2:
        raise ParseError(f"Taft algebra size must be >= 2, got {args.taft}")
    for name in ("pi", "alpha", "beta"):
        raw = getattr(args, name)
        if raw is None or (raw == "eps" and name != "pi"):
            continue
        try:
            int(raw)
        except ValueError:
            raise ParseError(f"--{name} must be an integer selector, got {raw!r}") from None


def _taft_hopf_from_args(args):
    """The Taft algebra of size --taft over --ring (default Q(zeta_n))."""
    ring = parse_ring(args.ring) if args.ring else CyclotomicField(args.taft)
    return taft_hopf(args.taft, ring)


def _ring_for(args, default: str):
    return parse_ring(args.ring if args.ring else default)


def _group_character(ring, m, selector):
    if selector in (None, "eps"):
        zeta_pow = ring.one
    else:
        zeta = primitive_root_of_unity(ring, m)
        zeta_pow = ring.pow(zeta, int(selector) % m)
    return character_from_zeta(ring, m, zeta_pow)


def _cm_module_from_args(args):
    """Build the twisted cyclic module selected by the source flags."""
    if args.taft is not None:
        n = args.taft
        hopf = _taft_hopf_from_args(args)
        i = int(args.pi or 0)
        u = 0 if args.alpha in (None, "eps") else int(args.alpha)
        v = 0 if args.beta in (None, "eps") else int(args.beta)
        module = taft_cm_module(hopf, i, u, v, require_valid=not args.allow_invalid)
        return module, ("taft", n, i, u, v)
    if args.group or args.group_file:
        G = _load_group(args)
        ring = _ring_for(args, "Q")
        pi_exp = int(args.pi or 0)
        if args.alpha in (None, "eps") and args.beta in (None, "eps"):
            module = cm_group_module(G, _pi_element(G, pi_exp), ring)
        else:
            if not G.is_cyclic():
                raise UnsupportedCombination(
                    "nontrivial characters are only supported for cyclic groups"
                )
            alpha = _group_character(ring, G.order, args.alpha)
            beta = _group_character(ring, G.order, args.beta)
            hopf = group_algebra(G, ring)
            triple = check_cm_triple(
                hopf, GroupLike.from_vector({_pi_element(G, pi_exp): ring.one}),
                alpha, beta,
            )
            module = ConnesMoscoviciModule(
                hopf, triple, require_valid=not args.allow_invalid
            )
        return module, ("group", G, pi_exp)
    if args.trivial:
        ring = _ring_for(args, "Q")
        G = FiniteGroup.cyclic(1)
        return cm_group_module(G, 0, ring), ("trivial",)
    raise ParseError("no algebra source given (use --group, --quiver, --taft or --trivial)")


def _pi_element(G: FiniteGroup, exponent: int) -> int:
    """Grouplike selector: the exponent of a fixed generator for cyclic groups,
    otherwise a raw element index."""
    if G.is_cyclic():
        gen = next(a for a in range(G.order) if G.element_order(a) == G.order)
        out = G.identity
        for _ in range(exponent % G.order):
            out = G.op(out, gen)
        return out
    if not 0 <= exponent < G.order:
        raise ParseError(f"grouplike index {exponent} out of range")
    return exponent


def _module_dim(module) -> int:
    return module.level_dim(1)


def _hc_table(module, N):
    """(HC_n, provenance) for n = 0..N."""
    if module.ring.contains_rationals:
        return [(connes_lambda_hc(module, n), "computed-lambda") for n in range(N + 1)]
    return [(h, "computed-bicomplex") for h in cyclic_bicomplex_hc_upto(module, N)]


def _describe(mod: HomologyModule) -> dict:
    return {
        "free_rank": mod.free_rank,
        "torsion": list(mod.torsion),
        "value": str(mod),
    }


# -- commands ----------------------------------------------------------------


def _cmd_verify(args) -> dict:
    rows = []
    passed = True
    N = args.max_degree
    if args.taft is not None:
        hopf = _taft_hopf_from_args(args)
        ensure_within_cap(hopf.dim, N + 1)
        axioms = hopf.verify_axioms()
        rows.append({"check": "hopf-axioms", "detail": axioms,
                     "pass": all(axioms.values())})
        passed &= all(axioms.values())
        for (i, u, v) in taft_cm_triples(args.taft, hopf.ring):
            module = taft_cm_module(hopf, i, u, v)
            rep = verify_cyclic_axioms(module, N)
            ok = all(rep.values())
            rows.append({
                "check": f"cyclic-axioms (pi_{i}, alpha_{u}, alpha_{v})",
                "failures": sorted(k for k, good in rep.items() if not good),
                "pass": ok,
            })
            passed &= ok
    else:
        module, _ = _cm_module_from_args(args)
        ensure_within_cap(_module_dim(module), N + 1)
        axioms = module.hopf.verify_axioms()
        rows.append({"check": "hopf-axioms", "detail": axioms,
                     "pass": all(axioms.values())})
        rep = verify_cyclic_axioms(module, N)
        ok = all(rep.values())
        rows.append({
            "check": "cyclic-axioms",
            "failures": sorted(k for k, good in rep.items() if not good),
            "pass": ok,
        })
        passed &= all(axioms.values()) and ok
    return {"rows": rows, "passed": passed}


def _cmd_hh(args) -> dict:
    N = args.max_degree
    rows = []
    if args.quiver or args.quiver_file:
        quiver = _load_quiver(args)
        ring = _ring_for(args, "Q")
        A = truncated_algebra(quiver, args.truncation, ring)
        ensure_within_cap(1, 1)
        for p in range(N + 1):
            total, per = hh_via_skoldberg(A, p)
            rows.append({
                "degree": p, **_describe(total), "provenance": "resolution",
                "graded": {str(q): _describe(mod) for q, mod in sorted(per.items())},
            })
    else:
        module, _ = _cm_module_from_args(args)
        ensure_within_cap(_module_dim(module), N + 1)
        for p, h in enumerate(hochschild_homology_upto(module, N)):
            rows.append({"degree": p, **_describe(h), "provenance": "computed-b-complex"})
    return {"rows": rows, "passed": True}


def _closed_hc(source, ring, n):
    kind = source[0]
    if kind == "taft":
        _, size, i, u, v = source
        return HomologyModule(ring, taft_cm_closed_form(size, i, u, v, n))
    if kind in ("group", "trivial"):
        if kind == "trivial":
            return closed_hc_cyclic_group(ring, 1, n)
        _, G, pi_exp = source
        if not G.is_cyclic():
            return None
        pi = _pi_element(G, pi_exp)
        m_pi = G.order // G.element_order(pi)
        return closed_hc_cyclic_group(ring, m_pi, n)
    return None


def _cmd_hc(args) -> dict:
    N = args.max_degree
    rows = []
    comparisons = []
    passed = True
    if args.quiver or args.quiver_file:
        quiver = _load_quiver(args)
        ring = _ring_for(args, "Q")
        A = truncated_algebra(quiver, args.truncation, ring)
        dims = graded_sbi_hc(A, N)
        for p in range(N + 1):
            rows.append({"degree": p, **_describe(HomologyModule(ring, dims[p])),
                         "provenance": "graded-sbi"})
            if args.compare == "closed":
                closed = hc_closed_form_truncated(quiver, args.truncation, p, ring)
                ok = closed == dims[p]
                comparisons.append({"degree": p, "left": dims[p], "right": closed,
                                    "pass": ok})
                passed &= ok
    else:
        module, source = _cm_module_from_args(args)
        ensure_within_cap(_module_dim(module), N + 2)
        if args.compare == "closed":
            closed_rows = [_closed_hc(source, module.ring, n) for n in range(N + 1)]
            if any(closed is None for closed in closed_rows):
                raise UnsupportedCombination("no closed formula available for this source")
        for n, (computed, provenance) in enumerate(_hc_table(module, N)):
            rows.append({"degree": n, **_describe(computed), "provenance": provenance})
            if args.compare == "closed":
                closed = closed_rows[n]
                ok = (computed.free_rank, computed.torsion) == (
                    closed.free_rank, closed.torsion,
                )
                comparisons.append({
                    "degree": n, "left": _describe(computed),
                    "right": _describe(closed), "pass": ok,
                })
                passed &= ok
    return {"rows": rows, "comparisons": comparisons, "passed": passed}


def _cmd_compare(args) -> dict:
    args.compare = "closed"
    return _cmd_hc(args)


def _cmd_report(args) -> dict:
    verify = _cmd_verify(args)
    args.compare = args.compare or "closed"
    try:
        hc = _cmd_hc(args)
    except UnsupportedCombination:
        args.compare = None
        hc = _cmd_hc(args)
    hh = _cmd_hh(args)
    return {
        "verify": verify["rows"],
        "hh": hh["rows"],
        "hc": hc["rows"],
        "comparisons": hc["comparisons"],
        "passed": verify["passed"] and hc["passed"],
    }


# -- rendering ---------------------------------------------------------------


def emit_report(table: dict, fmt: str, stream=None) -> None:
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(table, stream, indent=2, sort_keys=True, default=str)
        stream.write("\n")
        return
    rows = table.get("rows", [])
    if rows and "degree" in rows[0]:
        theory = "HH" if table.get("command") == "hh" else "HC"
        width = max(len(str(r.get("value", r))) for r in rows)
        for r in rows:
            stream.write(
                f"  {theory}_{r['degree']:<3} {str(r.get('value', '')):<{width}}"
                f"  [{r.get('provenance', '')}]\n"
            )
    for r in table.get("verify", []) + [r for r in rows if "check" in r]:
        status = "pass" if r.get("pass") else "FAIL"
        stream.write(f"  {r['check']:<50} {status}\n")
    for c in table.get("comparisons", []):
        status = "pass" if c["pass"] else "FAIL"
        stream.write(f"  degree {c['degree']}: computed vs closed  {status}\n")
        if not c["pass"]:
            stream.write(f"    computed: {c['left']}\n    closed:   {c['right']}\n")
    stream.write("PASSED\n" if table.get("passed") else "FAILED\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfcycl",
        description="exact cyclic homology of Hopf algebras and quiver algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("verify", "hh", "hc", "cm-hc", "compare", "report"):
        p = sub.add_parser(name)
        p.add_argument("--group", help="group spec: cyclic:M or symmetric:N")
        p.add_argument("--group-file", help="path to a group JSON file")
        p.add_argument("--quiver", help="quiver spec: crown:N")
        p.add_argument("--quiver-file", help="path to a quiver JSON file")
        p.add_argument("--taft", type=int, help="Taft algebra size n")
        p.add_argument("--trivial", action="store_true", help="the trivial Hopf algebra")
        p.add_argument("--truncation", type=int, default=2,
                       help="truncation exponent for quiver algebras")
        p.add_argument("--ring", help="coefficient ring: Z, Q, Z/m, Fp, Q(zetaN)")
        p.add_argument("--pi", help="grouplike selector (exponent / index)")
        p.add_argument("--alpha", help="character selector: eps or an index")
        p.add_argument("--beta", help="character selector: eps or an index")
        p.add_argument("--max-degree", type=int, default=3)
        p.add_argument("--compare", choices=["closed"], default=None)
        p.add_argument("--allow-invalid", action="store_true",
                       help="build the module even for an inadmissible triple")
        p.add_argument("--format", choices=["json", "text"], default="text")
    return parser


COMMANDS = {
    "verify": _cmd_verify,
    "hh": _cmd_hh,
    "hc": _cmd_hc,
    "cm-hc": _cmd_hc,
    "compare": _cmd_compare,
    "report": _cmd_report,
}


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `run` of the process and kept."""
    return build_parser()


def run(argv=None, stream=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.max_degree < 0:
        parser.error("--max-degree must be >= 0")
    try:
        _check_scalar_options(args)
        table = COMMANDS[args.command](args)
    except HopfCyclError as exc:
        (stream or sys.stderr).write(f"error: {type(exc).__name__}: {exc}\n")
        return 2
    table["command"] = args.command
    emit_report(table, args.format, stream)
    return 0 if table.get("passed", True) else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
