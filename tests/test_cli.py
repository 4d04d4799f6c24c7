"""Command-line driver: spec strings, determinism, caps, exit codes."""

import io
import json
import subprocess
import sys
from math import gcd

import pytest

import hopfcycl.sparse as sparse
from hopfcycl import ZZ, HomologyModule, QQ, closed_hc_cyclic_group
from hopfcycl.cli import build_parser, carrier_cap, emit_report, run


def run_cli(argv):
    stream = io.StringIO()
    code = run(argv, stream)
    return code, stream.getvalue()


def test_hc_cyclic_group_over_z_torsion_row():
    code, out = run_cli(
        ["hc", "--group", "cyclic:2", "--ring", "Z", "--pi", "0",
         "--alpha", "eps", "--beta", "eps", "--max-degree", "3",
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][1]["value"] == "Z/2"
    assert doc["rows"][1]["provenance"] == "computed-bicomplex"
    assert doc["rows"][3]["torsion"] == [2, 2]


def test_cm_hc_taft_compare_closed():
    code, out = run_cli(
        ["cm-hc", "--taft", "2", "--ring", "Q(zeta2)", "--pi", "1",
         "--alpha", "0", "--beta", "0", "--max-degree", "4",
         "--compare", "closed", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"]
    assert [r["free_rank"] for r in doc["rows"]] == [1, 0, 2, 0, 3]
    assert all(c["pass"] for c in doc["comparisons"])


@pytest.mark.parametrize("m, pi", [(4, 0), (4, 1), (4, 2), (4, 3), (5, 0)])
def test_hc_over_z_at_scale_matches_closed_form(monkeypatch, m, pi):
    """HC_0..4(Z[Z/m]): degree 4 needs the Smith normal form of a 341x1365
    (m = 4) or 781x3906 (m = 5) boundary.  Its +-1 pivots are eliminated
    sparsely, so only a small residual may reach the dense stage."""
    dense_cells = []
    dense_snf = sparse._snf_invariants

    def recording(dense):
        dense_cells.append(len(dense) * (len(dense[0]) if dense else 0))
        return dense_snf(dense)

    monkeypatch.setattr(sparse, "_snf_invariants", recording)
    code, out = run_cli(
        ["hc", "--group", f"cyclic:{m}", "--ring", "Z", "--pi", str(pi),
         "--max-degree", "4", "--compare", "closed", "--format", "json"]
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 5
    for n, row in enumerate(rows):
        closed = closed_hc_cyclic_group(ZZ, gcd(m, pi), n)
        assert (row["free_rank"], tuple(row["torsion"])) == (
            closed.free_rank, closed.torsion,
        ), n
    assert dense_cells and max(dense_cells) <= 10_000


def test_verify_taft_all_triples():
    code, out = run_cli(["verify", "--taft", "2", "--max-degree", "2"])
    assert code == 0
    assert "FAIL" not in out and out.strip().endswith("PASSED")


def test_verify_group_module():
    code, out = run_cli(
        ["verify", "--group", "cyclic:3", "--pi", "1", "--max-degree", "2",
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] and len(doc["rows"]) == 2


def test_hh_quiver_graded_rows():
    code, out = run_cli(
        ["hh", "--quiver", "crown:2", "--truncation", "2", "--max-degree", "2",
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["free_rank"] for r in doc["rows"]] == [2, 1, 1]
    assert doc["rows"][0]["graded"]["0"]["free_rank"] == 2


def test_text_rows_name_the_theory():
    code, out = run_cli(["hh", "--quiver", "crown:3", "--truncation", "3"])
    assert code == 0
    labels = [line.split()[0] for line in out.splitlines() if "[" in line]
    assert labels == ["HH_0", "HH_1", "HH_2", "HH_3"]
    for command in ("hc", "cm-hc", "compare"):
        code, out = run_cli([command, "--trivial", "--max-degree", "1"])
        assert code == 0
        labels = [line.split()[0] for line in out.splitlines() if "[" in line]
        assert labels == ["HC_0", "HC_1"], command


def test_hc_quiver_compare_closed():
    code, out = run_cli(
        ["hc", "--quiver", "crown:2", "--truncation", "2", "--max-degree", "3",
         "--compare", "closed", "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["free_rank"] for r in doc["rows"]] == [2, 1, 2, 1]
    assert doc["passed"]


def test_report_command():
    code, out = run_cli(
        ["report", "--group", "cyclic:2", "--pi", "1", "--max-degree", "2",
         "--format", "json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) >= {"verify", "hh", "hc", "comparisons", "passed"}
    assert doc["passed"]


def test_trivial_source():
    code, out = run_cli(["hc", "--trivial", "--max-degree", "2", "--format", "json"])
    assert code == 0
    assert [r["free_rank"] for r in json.loads(out)["rows"]] == [1, 0, 1]


def test_json_output_is_deterministic():
    argv = ["hc", "--group", "cyclic:3", "--pi", "1", "--max-degree", "2",
            "--compare", "closed", "--format", "json"]
    _, first = run_cli(argv)
    _, second = run_cli(argv)
    assert first == second


def test_group_and_quiver_files(tmp_path):
    gf = tmp_path / "group.json"
    gf.write_text(json.dumps({"cyclic": 2}))
    code, out = run_cli(["hc", "--group-file", str(gf), "--max-degree", "1",
                         "--format", "json"])
    assert code == 0
    qf = tmp_path / "quiver.json"
    qf.write_text(json.dumps({"crown": 2}))
    code, out = run_cli(["hh", "--quiver-file", str(qf), "--max-degree", "1",
                         "--format", "json"])
    assert code == 0


def test_parse_errors_exit_2():
    for argv in (
        ["hc", "--group", "cyclic:2", "--ring", "GF(7)"],
        ["hc", "--group", "dihedral:4"],
        ["hc", "--max-degree", "2"],  # no source
        ["hh", "--quiver", "wheel:3"],
    ):
        code, out = run_cli(argv)
        assert code == 2, argv
        assert "error:" in out


def test_invalid_triple_exit_2_and_allow_invalid():
    argv = ["hc", "--taft", "2", "--pi", "1", "--alpha", "1", "--beta", "1",
            "--max-degree", "1"]
    code, out = run_cli(argv)
    assert code == 2 and "PreconditionFailed" in out
    code, out = run_cli(argv + ["--allow-invalid"])
    assert code == 0


@pytest.mark.parametrize("triple,level", [((1, 1, 0), 1), ((1, 1, 1), 2)])
def test_inadmissible_triple_refused_where_the_module_is_not_cyclic(triple, level):
    """HC_n by the quotient complex needs t_m^(m+1) = id for m <= n; the
    inadmissible Taft-2 triples break it at one level, where the rank formula
    gave negative dimensions."""
    pi, alpha, beta = triple
    argv = ["cm-hc", "--taft", "2", "--pi", str(pi), "--alpha", str(alpha),
            "--beta", str(beta), "--allow-invalid", "--format", "json"]
    code, out = run_cli(argv + ["--max-degree", str(level - 1)])
    assert code == 0
    assert all(row["free_rank"] >= 0 for row in json.loads(out)["rows"])
    for top in (level, level + 1):
        code, out = run_cli(argv + ["--max-degree", str(top)])
        assert code == 2
        assert f"PreconditionFailed: t_{level}^{level + 1} != id" in out


def test_resource_cap(monkeypatch):
    monkeypatch.setenv("HOPFCYCL_MAX_CARRIER", "10")
    assert carrier_cap() == 10
    code, out = run_cli(["hc", "--group", "cyclic:4", "--max-degree", "3"])
    assert code == 2 and "ResourceCap" in out
    monkeypatch.setenv("HOPFCYCL_MAX_CARRIER", "abc")
    code, out = run_cli(["hc", "--group", "cyclic:2", "--max-degree", "1"])
    assert code == 2 and "ParseError" in out
    monkeypatch.setenv("HOPFCYCL_MAX_CARRIER", "0")
    with pytest.raises(Exception):
        carrier_cap()


def test_mismatch_prints_diff_and_exits_1(monkeypatch):
    import hopfcycl.cli as cli

    monkeypatch.setattr(cli, "_closed_hc", lambda source, ring, n: HomologyModule(ring, 99))
    code, out = run_cli(
        ["hc", "--group", "cyclic:2", "--pi", "0", "--max-degree", "1",
         "--compare", "closed"]
    )
    assert code == 1
    assert "FAIL" in out and "computed:" in out and "closed:" in out
    assert out.strip().endswith("FAILED")


def test_emit_report_empty_table():
    stream = io.StringIO()
    emit_report({}, "json", stream)
    assert json.loads(stream.getvalue()) == {}


def test_parser_rejects_negative_degree():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])  # a subcommand is required
    stream = io.StringIO()
    with pytest.raises(SystemExit):
        run(["hc", "--group", "cyclic:2", "--max-degree", "-1"], stream)


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "hopfcycl.cli", "hc", "--trivial",
         "--max-degree", "1", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"][0]["free_rank"] == 1


@pytest.mark.parametrize("ring, reduction", [("Z", "smith_normal_form"), ("F2", "rank")])
def test_hc_reduces_each_total_boundary_once(monkeypatch, ring, reduction):
    """HC_0..4 over a ring without Q needs the total boundaries D_1..D_5 of
    the bicomplex; each is built and reduced once, not once per degree."""
    seen = []
    reduce = getattr(sparse, reduction)

    def counting(M):
        seen.append((M.nrows, M.ncols, frozenset(M.entries.items())))
        return reduce(M)

    monkeypatch.setattr(sparse, reduction, counting)
    code, out = run_cli(["hc", "--group", "cyclic:4", "--ring", ring, "--pi", "0",
                         "--max-degree", "4", "--compare", "closed", "--format", "json"])
    assert code == 0 and json.loads(out)["passed"]
    assert len(seen) == len(set(seen)) == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["hc", "--quiver", "crown:x"],
        ["hc", "--group", "cyclic:x"],
        ["cm-hc", "--taft", "0"],
        ["cm-hc", "--taft", "1"],
        ["hc", "--group", "cyclic:2", "--ring", "Q(zeta0)"],
        ["hc", "--group", "cyclic:2", "--ring", "F4"],
    ],
    ids=["crown:x", "cyclic:x", "taft 0", "taft 1", "Q(zeta0)", "F4"],
)
def test_malformed_inputs_are_refused_before_any_algebra(monkeypatch, argv):
    import hopfcycl.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("an algebra was built for a malformed input")

    for builder in ("taft_hopf", "truncated_algebra", "cm_group_module", "group_algebra"):
        monkeypatch.setattr(cli, builder, refuse)
    code, out = run_cli(argv + ["--max-degree", "1"])
    assert code == 2
    assert out.startswith("error: ParseError: ")


def test_parser_is_built_once_per_process(monkeypatch):
    import hopfcycl.cli as cli

    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        argv = ["hc", "--trivial", "--max-degree", "1", "--format", "json"]
        first = run_cli(argv)
        second = run_cli(argv)
    finally:
        cli._parser.cache_clear()
    assert first == second and first[0] == 0
    assert len(builds) == 1


def test_unreadable_spec_files_are_refused(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    missing = tmp_path / "missing.json"
    for flag, path in (("--group-file", broken), ("--group-file", missing),
                       ("--quiver-file", broken), ("--quiver-file", missing)):
        command = "hc" if flag == "--group-file" else "hh"
        code, out = run_cli([command, flag, str(path), "--max-degree", "1"])
        assert code == 2, (flag, path)
        assert out.startswith("error: ParseError: "), (flag, path)
