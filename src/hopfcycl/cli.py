"""Command-line driver.

Subcommands: verify (Hopf + cyclic-module axiom suites), hh (Hochschild
table), hc (cyclic homology, optionally compared against the closed
formulas; cm-hc is the same command and compare is hc with --compare closed)
and report (everything at once).  Each source is sized from its spec and
checked against the carrier cap before any algebra is built.  Output is a
deterministic JSON document or an aligned text table; the exit status is 0
exactly when every requested comparison passes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from math import prod
from operator import attrgetter

from .cyclic import (
    ClassicalCyclicModule,
    connes_lambda_hc,
    cyclic_bicomplex_hc_upto,
    hochschild_homology_upto,
    total_offsets,
    verify_cyclic_axioms,
)
from .errors import (
    HopfCyclError,
    InvalidCharacter,
    ParseError,
    ResourceCap,
    UnsupportedCombination,
)
from .groups import (
    FiniteGroup,
    character_from_zeta,
    closed_hc_cyclic_group,
    cm_group_module,
    trivial_character,
)
from .hopf import Character
from .quivers import (
    Quiver,
    _algebra_dim,
    _graded_hh,
    _relative_chain_dims,
    _resolution_dims,
    _small_complex_dims,
    graded_sbi_hc,
    hc_closed_form_truncated,
    skoldberg_resolution,
    taft_cm_closed_form,
    taft_cm_module,
    taft_cm_triples,
    taft_hopf,
    truncated_algebra,
)
from .rings import QQ, ZZ, CyclotomicField, HomologyModule, parse_ring, primitive_root_of_unity
from .sparse import _paused

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


def ensure_table_within_cap(dim: int) -> None:
    """Refuse before building the dim x dim product table of an algebra."""
    if dim**2 > carrier_cap():
        raise ResourceCap(f"product table {dim} x {dim} exceeds the cap {carrier_cap()}")


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


def _group_spec(args):
    """(order, build) for --group-file, --group or --trivial (the group
    cyclic:1): the order the spec declares, and a builder of the group."""
    if args.group_file:
        obj = _read_json(args.group_file)
        order = obj.get("cyclic", obj.get("order")) if isinstance(obj, dict) else None
        return (order if isinstance(order, int) else 1), lambda: FiniteGroup.from_json(obj)
    spec = args.group or "cyclic:1"
    if spec.startswith("cyclic:"):
        m = _spec_size(spec)
        return m, lambda: FiniteGroup.cyclic(m)
    if spec.startswith("symmetric:"):
        n = _spec_size(spec)
        # n! for n >= 1; the builder refuses a smaller n
        return prod(range(1, n + 1)), lambda: FiniteGroup.symmetric(n)
    raise ParseError(f"unknown group spec {spec!r} (use cyclic:M or symmetric:N)")


def _load_quiver(args) -> Quiver:
    if args.quiver_file:
        return Quiver.from_json(_read_json(args.quiver_file))
    spec = args.quiver
    if spec.startswith("crown:"):
        return Quiver.crown(_spec_size(spec))
    raise ParseError(f"unknown quiver spec {spec!r} (use crown:N or --quiver-file)")


def _quiver_algebra(args, carrier_dims, top: int, table: bool = False):
    """The truncated algebra of --quiver or --quiver-file over --ring
    (default Q), refused before it is built when carrier_dims(quiver,
    truncation, top) has a carrier above the cap, or, for a caller that
    reads its dim x dim product table (table=True), when dim^2 is."""
    quiver, ring = _load_quiver(args), _ring_for(args, "Q")
    ensure_within_cap(max(carrier_dims(quiver, args.truncation, top)), 1)
    ensure_table_within_cap(_algebra_dim(quiver, args.truncation) if table else 0)
    return truncated_algebra(quiver, args.truncation, ring)


def _bicomplex_dims(quiver: Quiver, n: int, top: int) -> list[int]:
    """dim Tot_0..Tot_top of the normalized (b, B) bicomplex of the
    classical module of the truncation of quiver at n, on the chains
    relative to the vertex idempotents, counted without building the
    algebra."""
    chains = _relative_chain_dims(quiver, n, top)
    return [total_offsets(chains.__getitem__, k)[-1] for k in range(top + 1)]


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


def _taft_hopf(args, top: int, normalized: bool = False):
    """The Taft algebra of size --taft over --ring (default Q(zeta_n)),
    refused before it is built when its carrier (n^2)^top, or with
    normalized=True its normalized carrier (n^2 - 1)^top, or its product
    table (n^2)^2 is above the cap."""
    ring = parse_ring(args.ring) if args.ring else CyclotomicField(args.taft)
    ensure_within_cap(args.taft**2 - int(normalized), top)
    ensure_table_within_cap(args.taft**2)
    return taft_hopf(args.taft, ring)


def _ring_for(args, default: str):
    return parse_ring(args.ring if args.ring else default)


def _group_character(ring, G: FiniteGroup, selector):
    """The character at a selector: eps (or none) is trivial on any group;
    an integer s on a cyclic group sends gen^k to zeta^(s k), with gen the
    generator that `_pi_element` picks, whatever the order of the elements.
    A non-cyclic group has no such character."""
    if selector in (None, "eps"):
        return trivial_character(G, ring)
    if not G.is_cyclic():
        raise InvalidCharacter(
            f"character selector {selector} needs a cyclic group; this group of order "
            f"{G.order} is not cyclic"
        )
    zeta = ring.pow(primitive_root_of_unity(ring, G.order), int(selector) % G.order)
    gen, values, element = _generator(G), [None] * G.order, G.identity
    for value in character_from_zeta(ring, G.order, zeta).values:
        values[element], element = value, G.op(element, gen)
    return Character(ring, values)


def _cm_module(args, top: int, normalized: bool = False):
    """The twisted cyclic module selected by the source flags and its source
    for `_closed_hc`, refused before anything is built when its carrier at
    level top or its product table is above the cap.  With normalized=True
    the cap counts the normalized carrier, one basis element fewer per leg
    (the unit is dropped), which is all that HH builds."""
    pi_exp = int(args.pi or 0)
    if args.taft is not None:
        hopf = _taft_hopf(args, top, normalized)
        u, v = (0 if s in (None, "eps") else int(s) for s in (args.alpha, args.beta))
        module = taft_cm_module(hopf, pi_exp, u, v, require_valid=not args.allow_invalid)
        return module, ("taft", args.taft, pi_exp, u, v)
    if not (args.group or args.group_file or args.trivial):
        raise ParseError("no algebra source given (use --group, --quiver, --taft or --trivial)")
    order, build = _group_spec(args)
    ring = _ring_for(args, "Q")
    ensure_within_cap(order - int(normalized), top)
    ensure_table_within_cap(order)
    G = build()
    alpha, beta = (_group_character(ring, G, s) for s in (args.alpha, args.beta))
    module = cm_group_module(G, _pi_element(G, pi_exp), ring, alpha, beta,
                             require_valid=not args.allow_invalid)
    return module, ("group", G, pi_exp, alpha == beta)


def _generator(G: FiniteGroup) -> int:
    """The generator of a cyclic group that the selectors count powers of:
    its first element of full order."""
    return next(a for a in range(G.order) if G.element_order(a) == G.order)


def _pi_element(G: FiniteGroup, exponent: int) -> int:
    """Grouplike selector: the exponent of a fixed generator for cyclic groups,
    otherwise a raw element index."""
    if G.is_cyclic():
        gen, out = _generator(G), G.identity
        for _ in range(exponent % G.order):
            out = G.op(out, gen)
        return out
    if not 0 <= exponent < G.order:
        raise ParseError(f"grouplike index {exponent} out of range")
    return exponent


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
    N = args.max_degree
    if args.quiver or args.quiver_file:
        A = _quiver_algebra(args, _resolution_dims, N + 1, table=True)
        details = {"algebra-axioms": {"associativity": A.algebra.verify_associativity(),
                                      "unit": A.algebra.verify_unit()}}
        resolution = skoldberg_resolution(A, N + 1)
        details["small-resolution"] = {
            k: resolution[k] for k in ("d_squared_zero", "grade_preserving", "exact")
            if k in resolution
        }
        reports = {}
    elif args.taft is not None:
        hopf = _taft_hopf(args, N + 1)
        details = {"hopf-axioms": hopf.verify_axioms()}
        reports = {
            f"cyclic-axioms (pi_{i}, alpha_{u}, alpha_{v})":
                verify_cyclic_axioms(taft_cm_module(hopf, i, u, v), N)
            for i, u, v in taft_cm_triples(args.taft, hopf.ring)
        }
    else:
        module, _ = _cm_module(args, N + 1)
        details = {"hopf-axioms": module.hopf.verify_axioms()}
        reports = {"cyclic-axioms": verify_cyclic_axioms(module, N)}
    rows = [{"check": name, "detail": detail, "pass": all(detail.values())}
            for name, detail in details.items()]
    rows += [{"check": name, "failures": sorted(k for k, good in rep.items() if not good),
              "pass": all(rep.values())} for name, rep in reports.items()]
    return {"rows": rows, "passed": all(row["pass"] for row in rows)}


def _cmd_hh(args) -> dict:
    N = args.max_degree
    if args.quiver or args.quiver_file:
        A = _quiver_algebra(args, _small_complex_dims, N + 1)
        rows = [{"degree": p, **_describe(total), "provenance": "resolution",
                 "graded": {str(q): _describe(mod) for q, mod in sorted(per.items())}}
                for p, (total, per) in enumerate(_graded_hh(A, N))]
    else:
        module, _ = _cm_module(args, N + 1, normalized=True)
        rows = [{"degree": p, **_describe(h), "provenance": "computed-b-complex"}
                for p, h in enumerate(hochschild_homology_upto(module, N))]
    return {"rows": rows, "passed": True}


def _closed_hc(source, ring, n):
    """The closed HC_n of a module source, or None where no formula is known.
    The formula of a cyclic group is that of (pi, eps, eps), which holds for
    a pair alpha = beta as well (the chi conjugation), but not for alpha !=
    beta."""
    if source[0] == "taft":
        _, size, i, u, v = source
        return HomologyModule(ring, taft_cm_closed_form(size, i, u, v, n))
    _, G, pi_exp, equal_characters = source
    if not (G.is_cyclic() and equal_characters):
        return None
    m_pi = G.order // G.element_order(_pi_element(G, pi_exp))
    return closed_hc_cyclic_group(ring, m_pi, n)


def _cmd_hc(args) -> dict:
    """HC_0..N, and with --compare closed one comparison per degree: the
    dimensions for a quiver, the described modules for a module source."""
    N = args.max_degree
    compare = args.compare == "closed"
    if args.quiver or args.quiver_file:
        # over Q the small complex of the graded S, B, I sequence; over a
        # ring without Q the (b, B) bicomplex of the classical module, on
        # chains relative to the vertex idempotents
        ring = _ring_for(args, "Q")
        if ring.contains_rationals:
            A = _quiver_algebra(args, _small_complex_dims, N + 1)
            table = [(HomologyModule(A.ring, d), "graded-sbi") for d in graded_sbi_hc(A, N)]
        elif compare and ring != ZZ:
            raise UnsupportedCombination(
                "the closed HC formula of a truncation gives dimensions over Q and free "
                f"ranks over Z, not modules over {ring}"
            )
        else:
            A = _quiver_algebra(args, _bicomplex_dims, N + 1, table=True)
            module = ClassicalCyclicModule(A.algebra)
            table = [(h, "computed-bicomplex") for h in cyclic_bicomplex_hc_upto(module, N)]
        # Q is flat over Z, so the free rank of HC over Z is the dimension over Q
        closed = [HomologyModule(A.ring, hc_closed_form_truncated(A.quiver, A.n, p, QQ))
                  for p in range(N + 1)] if compare else []
        side = attrgetter("free_rank")
    else:
        module, source = _cm_module(args, N + 1)
        closed = [_closed_hc(source, module.ring, n) for n in range(N + 1)] if compare else []
        if any(c is None for c in closed):
            raise UnsupportedCombination("no closed formula available for this source")
        table = _hc_table(module, N)
        side = _describe
    rows, comparisons = [], []
    for n, (computed, provenance) in enumerate(table):
        rows.append({"degree": n, **_describe(computed), "provenance": provenance})
        if compare:
            left, right = side(computed), side(closed[n])
            comparisons.append({"degree": n, "left": left, "right": right,
                                "pass": left == right})
    return {"rows": rows, "comparisons": comparisons,
            "passed": all(c["pass"] for c in comparisons)}


def _cmd_report(args) -> dict:
    verify = _cmd_verify(args)
    try:
        hc = _cmd_hc(args)
    except UnsupportedCombination:
        hc = _cmd_hc(argparse.Namespace(**{**vars(args), "compare": None}))
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
    tables = [("HH", table.get("hh")), ("HC", table.get("hc")),
              ("HH" if table.get("command") == "hh" else "HC", rows)]
    for theory, degree_rows in tables:
        if not degree_rows or "degree" not in degree_rows[0]:
            continue
        width = max(len(str(r.get("value", r))) for r in degree_rows)
        for r in degree_rows:
            stream.write(
                f"  {theory}_{r['degree']:<3} {str(r.get('value', '')):<{width}}"
                f"  [{r.get('provenance', '')}]\n"
            )
    for r in table.get("verify", []) + [r for r in rows if "check" in r]:
        status = "pass" if r.get("pass") else "FAIL"
        stream.write(f"  {r['check']:<50} {status}\n")
        if not r.get("pass"):
            for name in r.get("failures", []):
                stream.write(f"      {name}\n")
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
        p.add_argument("--compare", choices=["closed"],
                       default="closed" if name in ("compare", "report") else None)
        p.add_argument("--allow-invalid", action="store_true",
                       help="build the module even for an inadmissible triple")
        p.add_argument("--format", choices=["json", "text"], default="text")
    return parser


COMMANDS = {
    "verify": _cmd_verify,
    "hh": _cmd_hh,
    "hc": _cmd_hc,
    "cm-hc": _cmd_hc,
    "compare": _cmd_hc,
    "report": _cmd_report,
}


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first `run` of the process and kept."""
    return build_parser()


@_paused
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
