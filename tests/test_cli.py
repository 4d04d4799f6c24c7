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


def test_closed_hc_of_a_group_needs_equal_characters():
    """The closed HC of a cyclic group is that of (pi, eps, eps), and holds
    for alpha = beta by the chi conjugation; a pair alpha != beta has no
    closed formula, so it is not compared."""
    for extra in (["--ring", "Q"], ["--ring", "Z"]):
        code, out = run_cli(["hc", "--group", "cyclic:2", "--alpha", "1", "--beta", "0",
                             "--compare", "closed", *extra])
        assert code == 2, extra
        assert out.startswith("error: UnsupportedCombination: "), extra
    code, out = run_cli(["hc", "--group", "cyclic:3", "--alpha", "1", "--beta", "2",
                         "--ring", "F7", "--compare", "closed"])
    assert code == 2 and out.startswith("error: UnsupportedCombination: ")
    # report prints its tables without the comparison
    code, out = run_cli(["report", "--group", "cyclic:2", "--alpha", "1", "--beta", "0",
                         "--max-degree", "2", "--format", "json"])
    doc = json.loads(out)
    assert code == 0 and doc["passed"]
    assert doc["comparisons"] == [] and len(doc["hc"]) == 3
    # alpha = beta stays compared, over Q(zeta_n) as well
    for argv in (["--group", "cyclic:3", "--alpha", "1", "--beta", "1", "--ring", "Q(zeta3)"],
                 ["--group", "cyclic:4", "--pi", "2", "--alpha", "2", "--beta", "2",
                  "--ring", "Q(zeta4)"]):
        code, out = run_cli(["hc", *argv, "--max-degree", "4", "--compare", "closed",
                             "--format", "json"])
        doc = json.loads(out)
        assert code == 0 and len(doc["comparisons"]) == 5, argv


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


def test_verify_and_report_quiver():
    code, out = run_cli(["verify", "--quiver", "crown:2", "--max-degree", "2",
                         "--format", "json"])
    assert code == 0
    rows = {row["check"]: row for row in json.loads(out)["rows"]}
    assert rows["algebra-axioms"]["detail"] == {"associativity": True, "unit": True}
    assert rows["small-resolution"]["detail"] == {
        "d_squared_zero": True, "grade_preserving": True, "exact": True,
    }
    assert all(row["pass"] for row in rows.values())
    code, out = run_cli(["report", "--quiver", "crown:2", "--max-degree", "2"])
    assert code == 0 and out.strip().endswith("PASSED")


@pytest.mark.parametrize(
    "argv",
    [
        ["hc", "--quiver", "crown:2", "--truncation", "4", "--max-degree", "3",
         "--compare", "closed"],
        ["verify", "--taft", "2", "--ring", "F3"],
        ["verify", "--taft", "2", "--ring", "F5"],
        ["verify", "--taft", "2", "--ring", "F7"],
        ["verify", "--taft", "3", "--ring", "F7"],
        ["cm-hc", "--taft", "3", "--ring", "F7", "--pi", "0", "--alpha", "1",
         "--beta", "0", "--max-degree", "3", "--compare", "closed"],
    ],
    ids=["quiver closed HC", "taft2 F3", "taft2 F5", "taft2 F7", "taft3 F7", "taft3 F7 HC"],
)
def test_invocations_that_pass(argv):
    code, out = run_cli(argv)
    assert code == 0, out
    assert out.strip().endswith("PASSED")


def enumerated_degrees(monkeypatch) -> list[int]:
    """The degrees of the small complex whose closed pairs are enumerated
    from now on, in call order."""
    import hopfcycl.quivers as quivers

    degrees = []
    enumerate_pairs = quivers._closed_pairs

    def counting(A, i, top=None):
        degrees.append(i)
        return enumerate_pairs(A, i, top)

    monkeypatch.setattr(quivers, "_closed_pairs", counting)
    return degrees


def test_hh_quiver_enumerates_each_degree_once(monkeypatch):
    degrees = enumerated_degrees(monkeypatch)
    code, _ = run_cli(["hh", "--quiver", "crown:3", "--truncation", "3", "--max-degree", "4"])
    assert code == 0
    assert degrees == [0, 1, 2, 3, 4, 5]


@pytest.mark.parametrize("command", ["hh", "hc"])
def test_resource_cap_bounds_the_small_complex(monkeypatch, command):
    # the small complex of crown(3) mod paths of length 3 has 3 pairs in
    # every degree
    degrees = enumerated_degrees(monkeypatch)
    argv = [command, "--quiver", "crown:3", "--truncation", "3", "--max-degree", "4"]
    monkeypatch.setenv("HOPFCYCL_MAX_CARRIER", "2")
    code, out = run_cli(argv)
    assert code == 2 and "ResourceCap" in out
    assert degrees == []
    monkeypatch.setenv("HOPFCYCL_MAX_CARRIER", "3")
    code, _ = run_cli(argv)
    assert code == 0 and degrees == [0, 1, 2, 3, 4, 5]


def test_hc_quiver_caps_the_relative_bicomplex(monkeypatch):
    """hc --quiver over Z through degree 4 reduces the (b, B) bicomplex of
    the classical module up to Tot_5, on chains relative to the vertex
    idempotents: for crown(3) mod paths of length 3, C-bar_m has 3 * 2^m
    chains for m >= 1, so Tot_5 = 96 + 24 + 6 = 126, and the product table
    is 9 x 9.  Both are counted before the algebra is built."""
    import hopfcycl.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("the algebra was built above the cap")

    argv = ["hc", "--quiver", "crown:3", "--truncation", "3", "--ring", "Z",
            "--max-degree", "4", "--format", "json"]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "truncated_algebra", refuse)
        patch.setenv("HOPFCYCL_MAX_CARRIER", "125")
        code, out = run_cli(argv)
        assert code == 2 and "ResourceCap: carrier dimension 126^1" in out
        patch.setenv("HOPFCYCL_MAX_CARRIER", "80")
        code, out = run_cli(argv[:-4] + ["--max-degree", "0"])
        assert code == 2 and "ResourceCap: product table 9 x 9" in out
    monkeypatch.setenv("HOPFCYCL_MAX_CARRIER", "126")
    code, out = run_cli(argv)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [row["free_rank"] for row in rows] == [3, 2, 3, 2, 3]
    assert {row["provenance"] for row in rows} == {"computed-bicomplex"}


def test_hc_quiver_over_q_keeps_the_small_complex(monkeypatch):
    """Over Q, hc --quiver reads HC off the small complex of the graded S,
    B, I sequence and builds no classical cyclic module."""
    import hopfcycl.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("the classical cyclic module was built")

    monkeypatch.setattr(cli, "ClassicalCyclicModule", refuse)
    code, out = run_cli(["hc", "--quiver", "crown:3", "--truncation", "3", "--max-degree", "4",
                         "--compare", "closed", "--format", "json"])
    doc = json.loads(out)
    assert code == 0 and doc["passed"]
    assert [row["value"] for row in doc["rows"]] == ["Q^3", "Q^2", "Q^3", "Q^2", "Q^3"]
    assert {row["provenance"] for row in doc["rows"]} == {"graded-sbi"}


def test_hc_quiver_over_z_and_large_crowns():
    """Integral HC of a truncated crown computes, torsion included, in hc
    and in report, and crown(6) mod paths of length 6 through degree 6,
    with 6 * 5^7 chains in degree 7 alone, is refused by the default cap."""
    code, out = run_cli(["hc", "--quiver", "crown:3", "--truncation", "3", "--ring", "Z",
                         "--max-degree", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out)["rows"][4]["value"] == "Z^3 + Z/2 + Z/2"
    # Q is flat over Z, so the free ranks are the dimensions the closed
    # formula counts: hc and report compare them over Z
    code, out = run_cli(["hc", "--quiver", "crown:3", "--truncation", "3", "--ring", "Z",
                         "--max-degree", "4", "--compare", "closed", "--format", "json"])
    doc = json.loads(out)
    assert code == 0 and doc["passed"]
    assert [(c["left"], c["right"]) for c in doc["comparisons"]] == [
        (3, 3), (2, 2), (3, 3), (2, 2), (3, 3)]
    code, out = run_cli(["report", "--quiver", "crown:3", "--truncation", "3", "--ring", "Z",
                         "--max-degree", "4", "--format", "json"])
    doc = json.loads(out)
    assert code == 0 and doc["passed"] and len(doc["comparisons"]) == 5
    assert all(c["pass"] for c in doc["comparisons"])
    assert doc["hc"][4]["value"] == "Z^3 + Z/2 + Z/2"
    # over F_p and Z/m the formula says nothing of the torsion
    for ring in ("F2", "Z/4"):
        code, out = run_cli(["hc", "--quiver", "crown:3", "--truncation", "3", "--ring", ring,
                             "--max-degree", "2", "--compare", "closed"])
        assert code == 2 and out.startswith("error: UnsupportedCombination: "), ring
    code, out = run_cli(["hc", "--quiver", "crown:6", "--truncation", "6", "--ring", "Z",
                         "--max-degree", "6"])
    assert code == 2 and out.startswith("error: ResourceCap: ")


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


@pytest.mark.parametrize("argv,message", [
    (["hc", "--group", "cyclic:3", "--pi", "x"], "--pi must be an integer selector, got 'x'"),
    (["hc", "--group", "cyclic:3", "--alpha", "y"], "--alpha must be an integer selector, got 'y'"),
    (["hc", "--group", "symmetric:3", "--pi", "9"], "grouplike index 9 out of range"),
], ids=["pi", "alpha", "pi out of range"])
def test_group_selectors_are_refused_with_exit_2(argv, message):
    code, out = run_cli(argv)
    assert code == 2
    assert out.startswith("error: ParseError: ") and message in out


def test_invalid_triple_exit_2_and_allow_invalid():
    argv = ["hc", "--taft", "2", "--pi", "1", "--alpha", "1", "--beta", "1",
            "--max-degree", "1"]
    code, out = run_cli(argv)
    assert code == 2 and "triple fails the admissibility condition" in out
    # past the construction gate, the quotient complex refuses the module:
    # d_0 t and d_1 t fail at level 1, as `verify` of the module shows
    code, out = run_cli(argv + ["--allow-invalid"])
    assert code == 2
    assert "not cyclic through level 1 (d_0 t (level 1), d_1 t (level 1) fail)" in out
    assert "PASSED" not in out


@pytest.mark.parametrize("triple,level", [((1, 1, 0), 1), ((1, 1, 1), 2)])
def test_inadmissible_triple_refused_where_the_module_is_not_cyclic(triple, level):
    """HC_n by the quotient complex needs a module that is cyclic through
    level n + 1.  The inadmissible Taft-2 triples break t_m^(m+1) = id at one
    level, where the rank formula gave negative dimensions, and d_0 t already
    at level 1, where it gave meaningless ones: HC_0 is refused."""
    pi, alpha, beta = triple
    argv = ["cm-hc", "--taft", "2", "--pi", str(pi), "--alpha", str(alpha),
            "--beta", str(beta), "--allow-invalid", "--format", "json"]
    for top in (level - 1, level, level + 1):
        code, out = run_cli(argv + ["--max-degree", str(top)])
        assert code == 2
        assert "PreconditionFailed: the module is not cyclic through level 1 (d_0 t (level 1)" in out


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
        ["hc", "--group", "symmetric:-1", "--ring", "Z"],
        ["hc", "--group", "symmetric:0"],
    ],
    ids=["crown:x", "cyclic:x", "taft 0", "taft 1", "Q(zeta0)", "F4", "symmetric:-1",
         "symmetric:0"],
)
def test_malformed_inputs_are_refused_before_any_algebra(monkeypatch, argv):
    import hopfcycl.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("an algebra was built for a malformed input")

    for builder in ("taft_hopf", "truncated_algebra", "cm_group_module"):
        monkeypatch.setattr(cli, builder, refuse)
    code, out = run_cli(argv + ["--max-degree", "1"])
    assert code == 2
    assert out.startswith("error: ParseError: ")


def test_a_missing_root_of_unity_is_named_by_its_order():
    code, out = run_cli(["hh", "--taft", "3", "--ring", "Q"])
    assert code == 2
    assert out == "error: MissingRootOfUnity: Q has no primitive root of unity of order 3\n"


@pytest.mark.parametrize("command, compare", [
    ("verify", None), ("hh", None), ("hc", None), ("cm-hc", None),
    ("compare", "closed"), ("report", "closed"),
])
def test_compare_defaults_to_closed_only_for_compare_and_report(command, compare):
    """The subcommands share one parent parser, so a default set on one of
    them would reach them all."""
    import hopfcycl.cli as cli

    argv = [command, "--trivial"]
    for _ in range(2):  # a second parse sees what the first one left behind
        assert cli.parse_args(argv).compare == compare
        assert cli.parse_args(argv + ["--compare", "closed"]).compare == "closed"


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
    cases = [("--group-file", broken), ("--group-file", missing),
             ("--quiver-file", broken), ("--quiver-file", missing)]
    # well-formed JSON that describes no group or quiver
    malformed = [
        ("--quiver-file", {"vertices": ["a"], "arrows": [{"id": "x", "tgt": "a"}]}),
        ("--quiver-file", {"vertices": ["a"], "arrows": ["x"]}),
        ("--quiver-file", {"vertices": ["a"], "arrows": [{"id": 5, "src": "a", "tgt": "a"}]}),
        ("--quiver-file", {"crown": "3"}),
        ("--quiver-file", {"crown": 2.5}),
        ("--group-file", {"order": 2, "table": 5}),
        ("--group-file", {"order": 2, "table": [1, 2]}),
        ("--group-file", {"cyclic": True}),
    ]
    for n, (flag, spec) in enumerate(malformed):
        path = tmp_path / f"malformed{n}.json"
        path.write_text(json.dumps(spec))
        cases.append((flag, path))
    for flag, path in cases:
        command = "hc" if flag == "--group-file" else "hh"
        code, out = run_cli([command, flag, str(path), "--max-degree", "1"])
        assert code == 2, (flag, path)
        assert out.startswith("error: ParseError: "), (flag, path)


def test_report_text_shows_its_tables():
    for source in (["--group", "cyclic:2", "--pi", "1"], ["--quiver", "crown:2"]):
        code, out = run_cli(["report", *source, "--max-degree", "2"])
        assert code == 0
        # the tables come first, then the check lines
        labels = [line.split()[0] for line in out.splitlines()]
        assert labels[:6] == ["HH_0", "HH_1", "HH_2", "HC_0", "HC_1", "HC_2"], source
        assert not any(label.startswith(("HH_", "HC_")) for label in labels[6:])


def test_allow_invalid_holds_for_every_group_source():
    argv = ["verify", "--group", "symmetric:3", "--pi", "1", "--max-degree", "2"]
    code, out = run_cli(argv)
    assert code == 2 and "triple fails the admissibility condition" in out
    code, out = run_cli(argv + ["--allow-invalid", "--format", "json"])
    assert code == 1
    failures = json.loads(out)["rows"][1]["failures"]
    assert {"t_1^2 = id", "t_2^3 = id"} <= set(failures)
    # HC_0 needs the laws of t through level 1, and t_1^2 = id fails there
    code, out = run_cli(["hc", "--group", "symmetric:3", "--pi", "1", "--allow-invalid",
                         "--max-degree", "0", "--format", "json"])
    assert code == 2
    assert "not cyclic through level 1 (t_1^2 = id fail)" in out


def test_group_characters_follow_the_generator(tmp_path):
    """A group file that lists Z/4 as [e, g^2, g, g^3] gets the characters
    g^k -> zeta^(s k) of the generator the selectors count powers of, so it
    computes what cyclic:4 computes."""
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
    gf = tmp_path / "z4.json"
    gf.write_text(json.dumps({"order": 4, "table": table}))
    for selectors in (["--alpha", "1", "--beta", "1"], ["--alpha", "3", "--beta", "3"],
                      ["--pi", "2", "--alpha", "2", "--beta", "2"]):
        tail = [*selectors, "--ring", "Q(zeta4)", "--max-degree", "3", "--format", "json"]
        code, out = run_cli(["hc", "--group-file", str(gf), *tail])
        assert code == 0, out
        assert out == run_cli(["hc", "--group", "cyclic:4", *tail])[1], selectors


def test_characters_of_a_non_cyclic_group_are_refused(monkeypatch):
    import hopfcycl.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("a module was built")

    monkeypatch.setattr(cli, "cm_group_module", refuse)
    for selector in (["--alpha", "1"], ["--beta", "2"]):
        code, out = run_cli(["hc", "--group", "symmetric:3", *selector, "--max-degree", "1"])
        assert code == 2 and out.startswith("error: InvalidCharacter: "), selector


def test_verify_quiver_bounds_the_resolution(monkeypatch):
    """The bimodule resolution of crown(3) mod paths of length 3 has 27
    triples (u, gamma, v) in every degree, its small complex 3 pairs."""
    import hopfcycl.cli as cli

    argv = ["--quiver", "crown:3", "--truncation", "3", "--max-degree", "4"]
    monkeypatch.setenv("HOPFCYCL_MAX_CARRIER", "10")
    code, _ = run_cli(["hh", *argv])
    assert code == 0

    def refuse(*args, **kwargs):
        raise AssertionError("the resolution was built above the cap")

    monkeypatch.setattr(cli, "truncated_algebra", refuse)
    code, out = run_cli(["verify", *argv])
    assert code == 2 and "ResourceCap: carrier dimension 27^1" in out


@pytest.mark.parametrize(
    "argv, cap",
    [
        (["hc", "--group", "cyclic:200", "--max-degree", "1"], "39999"),
        (["hh", "--group", "symmetric:6", "--max-degree", "1"], None),
        (["verify", "--group-file", "GROUP", "--max-degree", "1"], "8"),
        (["verify", "--taft", "12"], None),
        (["hc", "--taft", "3", "--max-degree", "1"], "80"),
        (["hh", "--quiver", "crown:200", "--truncation", "2", "--max-degree", "1"], "1"),
        (["verify", "--quiver", "crown:200", "--max-degree", "1"], "500"),
        (["verify", "--quiver", "crown:200", "--truncation", "2", "--max-degree", "0"], None),
        (["hc", "--group", "cyclic:1000", "--max-degree", "0"], None),
        (["hh", "--group", "symmetric:7", "--max-degree", "0"], None),
        (["verify", "--group", "cyclic:400", "--max-degree", "0"], None),
        (["hc", "--taft", "60", "--max-degree", "0"], None),
        (["verify", "--group-file", "GROUP", "--max-degree", "0"], "8"),
    ],
    ids=["cyclic:200", "symmetric:6", "group file", "taft 12", "taft 3", "crown:200",
         "verify crown:200", "crown:200 product table", "cyclic:1000 product table",
         "symmetric:7 product table", "verify cyclic:400 product table",
         "taft 60 product table", "group file product table"],
)
def test_resource_cap_comes_before_any_builder(monkeypatch, tmp_path, argv, cap):
    import hopfcycl.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("an algebra was built above the cap")

    class Refused:
        cyclic = symmetric = from_json = staticmethod(refuse)

    group = tmp_path / "group.json"
    group.write_text(json.dumps({"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}))
    for builder in ("taft_hopf", "truncated_algebra", "cm_group_module"):
        monkeypatch.setattr(cli, builder, refuse)
    monkeypatch.setattr(cli, "FiniteGroup", Refused)
    if cap is not None:
        monkeypatch.setenv("HOPFCYCL_MAX_CARRIER", cap)
    code, out = run_cli([str(group) if a == "GROUP" else a for a in argv])
    assert code == 2
    assert out.startswith("error: ResourceCap: ")


def test_hc_caps_the_highest_level_it_builds(monkeypatch):
    """hc through degree N builds carriers up to level N + 1 only: Z[Z/18]
    through degree 2 (18^3 = 5832) computes under the default cap, though
    18^4 is above it."""
    monkeypatch.delenv("HOPFCYCL_MAX_CARRIER", raising=False)
    code, out = run_cli(["hc", "--group", "cyclic:18", "--ring", "Z", "--max-degree", "2",
                         "--compare", "closed", "--format", "json"])
    assert code == 0
    assert [row["value"] for row in json.loads(out)["rows"]] == ["Z", "Z/18", "Z"]


def test_hh_caps_the_normalized_carrier(monkeypatch):
    """hh through degree N builds only b-bar_(N+1), on (d - 1)^(N+1) columns
    for a d-dimensional algebra: Z[Z/5] through degree 2 has 4^3 = 64 of
    them, under a cap of 100 that the full 5^3 = 125 exceeds, and Taft-2
    has 3^3 = 27.  hc keeps counting the full carrier."""
    argv = ["hh", "--group", "cyclic:5", "--ring", "Z", "--max-degree", "2", "--format", "json"]
    monkeypatch.setenv("HOPFCYCL_MAX_CARRIER", "100")
    code, out = run_cli(argv)
    assert code == 0
    assert [row["value"] for row in json.loads(out)["rows"]] == ["Z", "Z/5", "0"]
    code, out = run_cli(["hc", *argv[1:]])
    assert code == 2 and out.startswith("error: ResourceCap: carrier dimension 5^3 = 125 ")
    monkeypatch.setenv("HOPFCYCL_MAX_CARRIER", "63")
    code, out = run_cli(argv)
    assert code == 2 and out.startswith("error: ResourceCap: carrier dimension 4^3 = 64 ")
    taft = ["hh", "--taft", "2", "--pi", "1", "--max-degree", "2"]
    monkeypatch.setenv("HOPFCYCL_MAX_CARRIER", "27")
    assert run_cli(taft)[0] == 0
    monkeypatch.setenv("HOPFCYCL_MAX_CARRIER", "26")
    code, out = run_cli(taft)
    assert code == 2 and out.startswith("error: ResourceCap: carrier dimension 3^3 = 27 ")


def test_hc_refuses_a_module_whose_laws_fail():
    """An inadmissible triple whose t^(m+1) = id holds at level 1, but whose
    faces and degeneracies do not commute with t: refused, not a traceback,
    by the quotient complex over Q(zeta3) and the bicomplex over F7."""
    argv = ["hc", "--group", "cyclic:3", "--alpha", "1", "--beta", "2", "--pi", "1",
            "--max-degree", "1", "--allow-invalid"]
    for ring in ("Q(zeta3)", "F7"):
        code, out = run_cli(argv + ["--ring", ring])
        assert code == 2, ring
        assert out.startswith("error: PreconditionFailed: ") and "d_0 t (level 1)" in out, ring


def test_verify_text_names_the_failing_laws():
    code, out = run_cli(["verify", "--group", "symmetric:3", "--pi", "1", "--allow-invalid",
                         "--max-degree", "2"])
    assert code == 1
    lines = out.splitlines()
    at = next(i for i, line in enumerate(lines) if "cyclic-axioms" in line)
    assert lines[at].split()[-1] == "FAIL"
    assert [line.strip() for line in lines[at + 1:at + 3]] == ["t_1^2 = id", "t_2^3 = id"]
    assert lines[at + 1].startswith("      ")


def test_prime_modulus_is_the_prime_field():
    code, out = run_cli(["hc", "--group", "cyclic:3", "--ring", "Z/3", "--max-degree", "2",
                         "--compare", "closed", "--format", "json"])
    assert code == 0
    assert [r["value"] for r in json.loads(out)["rows"]] == ["F3", "F3", "F3^2"]
    code, out = run_cli(["hc", "--group", "cyclic:2", "--ring", "Z/4", "--max-degree", "1"])
    assert code == 2 and out.startswith("error: UnsupportedRing: ")


def test_hc_over_z_reduces_the_normalized_total_complex(monkeypatch):
    """D_5 of Z[Z/4] maps Tot_5 = C_5 + C_3 + C_1 to Tot_4 = C_4 + C_2 + C_0 of
    the normalized complex, (4 - 1)^m per level: 91 x 273.  The
    (b, b', 1 - lambda, N) bicomplex reduced 341 x 1365 there."""
    shapes = []
    reduce = sparse.smith_normal_form

    def recording(M):
        shapes.append((M.nrows, M.ncols))
        return reduce(M)

    monkeypatch.setattr(sparse, "smith_normal_form", recording)
    code, _ = run_cli(["hc", "--group", "cyclic:4", "--ring", "Z", "--pi", "0",
                       "--max-degree", "4", "--format", "json"])
    assert code == 0
    assert max(shapes, key=lambda shape: shape[0] * shape[1]) == (91, 273)


def test_hh_on_paths_builds_no_product_table(monkeypatch):
    """The small complex works on paths: crown(200) mod paths of length 2
    computes HH without the 400 x 400 product table of the algebra."""
    import hopfcycl.quivers as quivers

    def refuse(*args, **kwargs):
        raise AssertionError("the product table was built")

    monkeypatch.setattr(quivers, "AlgebraData", refuse)
    code, out = run_cli(["hh", "--quiver", "crown:200", "--truncation", "2",
                         "--max-degree", "1", "--format", "json"])
    assert code == 0
    assert json.loads(out)["rows"][0]["free_rank"] == 200
