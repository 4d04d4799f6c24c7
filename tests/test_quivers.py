"""Quivers and truncated path algebras: necklace counts, the small
resolution, closed formulas, the Taft Hopf structure."""

from itertools import product
from math import gcd

import pytest

from hopfcycl import (
    QQ,
    ZZ,
    Character,
    ClassicalCyclicModule,
    CyclotomicField,
    NegativePartialSum,
    NotAComplex,
    ParseError,
    PreconditionFailed,
    PrimeField,
    Quiver,
    RingWithoutRationals,
    SparseMatrix,
    check_cm_triple,
    coefficient_homology_skoldberg,
    connes_lambda_hc,
    cycle_orbit_counts,
    cyclic_bicomplex_hc_upto,
    graded_sbi_hc,
    hc_closed_form_truncated,
    hh_closed_form,
    hh_via_skoldberg,
    hochschild_homology,
    hochschild_homology_upto,
    hochschild_window,
    homology_sequence,
    is_grouplike,
    path_algebra_hh,
    skoldberg_resolution,
    taft_cm_closed_form,
    taft_cm_congruences,
    taft_cm_homology,
    taft_cm_module,
    taft_cm_triples,
    taft_grouplike,
    taft_hopf,
    taft_vertex_character,
    truncated_algebra,
    vertex_character,
    zero_module,
)
from hopfcycl.errors import HopfCyclError, MissingRootOfUnity
from hopfcycl.hopf import contract
from hopfcycl.rings import euler_phi

TWO_LOOP = Quiver(["v"], [("a", 0, 0), ("b", 0, 0)])
LOOP_AND_ARROW = Quiver(["v", "w"], [("l", 0, 0), ("a", 0, 1)])
BRANCHING = Quiver.from_json({
    "vertices": ["a", "b"],
    "arrows": [{"id": "x", "src": "a", "tgt": "a"}, {"id": "y", "src": "a", "tgt": "b"},
               {"id": "z", "src": "b", "tgt": "a"}],
})


def moebius(n):
    out, x, p = 1, n, 2
    while x > 1:
        if p * p > x:
            p = x
        if x % p == 0:
            x //= p
            if x % p == 0:
                return 0
            out = -out
        else:
            p += 1
    return out


# -- quiver plumbing ---------------------------------------------------------


def test_crown_paths_and_compose():
    q = Quiver.crown(3)
    assert q.num_vertices == 3 and q.num_arrows == 3
    assert len(q.paths_of_length(0)) == 3
    assert len(q.paths_of_length(4)) == 3
    p = q.paths_of_length(2)[0]
    assert q.path_len(p) == 2 and q.path_tgt(p) == (q.path_src(p) + 2) % 3
    e = q.trivial_path(q.path_src(p))
    assert q.compose(e, p) == p and q.compose(p, q.trivial_path(q.path_tgt(p))) == p
    assert q.compose(p, p) is None  # endpoints do not match for 2+2 on a 3-crown


def test_quiver_from_json():
    assert Quiver.from_json({"crown": 2}).num_arrows == 2
    obj = {
        "vertices": ["x", "y"],
        "arrows": [{"id": "a", "src": "x", "tgt": "y"}],
    }
    q = Quiver.from_json(obj)
    assert q.src == [0] and q.tgt == [1]
    with pytest.raises(ParseError):
        Quiver.from_json({"vertices": ["x"], "arrows": [{"id": "a", "src": "x", "tgt": "z"}]})
    with pytest.raises(ParseError):
        Quiver.from_json({"crown": 0})
    with pytest.raises(ParseError):
        Quiver.from_json(3)
    with pytest.raises(ParseError):
        Quiver.from_json({})
    with pytest.raises(ParseError):
        Quiver(["v"], [("a", 0, 1)])
    for malformed in MALFORMED_QUIVERS:
        with pytest.raises(ParseError):
            Quiver.from_json(malformed)


# quiver specs that parse as JSON but describe no quiver
MALFORMED_QUIVERS = [
    {"vertices": ["a"], "arrows": [{"id": "x", "tgt": "a"}]},
    {"vertices": ["a"], "arrows": ["x"]},
    {"vertices": ["a"], "arrows": [{"id": 5, "src": "a", "tgt": "a"}]},
    {"vertices": ["a"], "arrows": [{"id": "x", "src": ["a"], "tgt": "a"}]},
    {"vertices": "a", "arrows": []},
    {"vertices": [["a"]], "arrows": []},
    {"vertices": ["a", "a"], "arrows": [{"id": "x", "src": "a", "tgt": "a"}]},
    {"vertices": ["a"], "arrows": {"id": "x"}},
    {"crown": "3"},
    {"crown": 2.5},
    {"crown": True},
]


# -- necklace counts ---------------------------------------------------------


def test_cycle_orbits_crown_and_loop():
    for n in (2, 3):
        crown = Quiver.crown(n)
        for q in range(0, 3 * n + 1):
            a_q, b = cycle_orbit_counts(crown, q)
            if q == 0:
                assert a_q == n
            else:
                assert a_q == (1 if q % n == 0 else 0)
                assert all(b[r] == (1 if r == n else 0) for r in b)
    loop = Quiver.crown(1)
    for q in range(1, 6):
        a_q, b = cycle_orbit_counts(loop, q)
        assert a_q == 1
        assert all(b[r] == (1 if r == 1 else 0) for r in b)


@pytest.mark.parametrize("q", range(1, 7))
def test_cycle_orbits_two_loop_burnside_oracle(q):
    # all length-q words in two letters are cycles; orbits and primitive
    # orbits are counted by the classical necklace formulas
    a_q, b = cycle_orbit_counts(TWO_LOOP, q)
    necklaces = sum(euler_phi(d) * 2 ** (q // d) for d in range(1, q + 1) if q % d == 0) // q
    primitive = sum(moebius(d) * 2 ** (q // d) for d in range(1, q + 1) if q % d == 0) // q
    assert a_q == necklaces
    assert b[q] == primitive


def listed_cycle_orbits(quiver, q):
    """The reference for `cycle_orbit_counts`: list every closed path of
    each length r <= q, collect its rotations and read off its period."""
    b = {}
    a_q = quiver.num_vertices if q == 0 else 0
    for r in range(1, q + 1):
        seen = set()
        orbits = primitive = 0
        for p in quiver.paths_of_length(r):
            if quiver.path_tgt(p) != quiver.path_src(p) or p in seen:
                continue
            seen |= {p[i:] + p[:i] for i in range(r)}
            orbits += 1
            period = min(d for d in range(1, r + 1) if r % d == 0 and p[d:] + p[:d] == p)
            primitive += period == r
        b[r] = primitive
        if r == q:
            a_q = orbits
    return a_q, b


KRONECKER = Quiver(["u", "v"], [("a", 0, 1), ("b", 0, 1)])
LOOP_AND_TWO_CYCLE = Quiver(["u", "v"], [("l", 0, 0), ("a", 0, 1), ("b", 1, 0)])


@pytest.mark.parametrize(
    "quiver",
    [*(Quiver.crown(c) for c in range(1, 6)), TWO_LOOP, BRANCHING, KRONECKER,
     LOOP_AND_TWO_CYCLE],
    ids=[*(f"crown{c}" for c in range(1, 6)), "two-loop", "branching", "kronecker",
         "loop-and-2-cycle"],
)
def test_cycle_orbit_counts_match_the_listed_orbits(quiver):
    for q in range(9):
        assert cycle_orbit_counts(quiver, q) == listed_cycle_orbits(quiver, q), q


def test_necklaces_are_counted_without_listing_paths(monkeypatch):
    """HC_13 of the two-loop quiver mod paths of length 3 reads the primitive
    orbits of lengths r | 21 from path counts, 2 b_3 + 2 b_21 = 4 + 199716,
    without listing one of the 2^21 paths of length 21."""

    def refuse(self, q):
        raise AssertionError("a path was listed")

    monkeypatch.setattr(Quiver, "paths_of_length", refuse)
    assert hc_closed_form_truncated(TWO_LOOP, 3, 13, QQ) == 199720


# -- truncated algebras ------------------------------------------------------


def test_truncated_algebra_structure():
    A = truncated_algebra(Quiver.crown(2), 3, QQ)
    assert A.dim == 6
    assert A.algebra.verify_associativity() and A.algebra.verify_unit()
    assert A.grades == [0, 0, 1, 1, 2, 2]
    vertex_character(A, 0).validate(A.algebra)
    vertex_character(A, 1).validate(A.algebra)
    with pytest.raises(PreconditionFailed):
        truncated_algebra(Quiver.crown(2), 0, QQ)


# -- the small resolution ----------------------------------------------------


@pytest.mark.parametrize(
    "quiver,n",
    [(Quiver.crown(2), 2), (Quiver.crown(1), 3), (TWO_LOOP, 2)],
    ids=["crown2", "loop3", "twoloop2"],
)
def test_skoldberg_resolution_report(quiver, n):
    A = truncated_algebra(quiver, n, QQ)
    report = skoldberg_resolution(A, 4)
    assert report["d_squared_zero"]
    assert report["grade_preserving"]
    assert report["exact"]
    assert len(report["dims"]) == 5


@pytest.mark.parametrize("ring", [QQ, ZZ], ids=["Q", "Z"])
def test_hh_skoldberg_vs_closed_form_lambda2(ring):
    quiver = Quiver.crown(2)
    A = truncated_algebra(quiver, 2, ring)
    for p in range(4):
        total, per_grade = hh_via_skoldberg(A, p)
        acc = None
        for q in range(0, 2 * (p + 2)):
            closed = hh_closed_form(quiver, 2, p, q, ring)
            got = per_grade.get(q)
            if got is None:
                assert closed.is_zero
            else:
                assert (got.free_rank, got.torsion) == (closed.free_rank, closed.torsion)
            acc = closed if acc is None else acc + closed
        assert (total.free_rank, total.torsion) == (acc.free_rank, acc.torsion)


def test_hh_skoldberg_vs_bar_oracle_one_loop():
    # the b-complex of the classical cyclic module is the bar-resolution
    # Hochschild complex; it must agree with the small resolution
    A = truncated_algebra(Quiver.crown(1), 2, QQ)
    bar = hochschild_window(ClassicalCyclicModule(A.algebra), 4)
    for p in range(4):
        total, _ = hh_via_skoldberg(A, p)
        assert total.free_rank == bar.homology(p).free_rank


def test_hh_closed_form_guards():
    assert hh_closed_form(Quiver.crown(2), 2, -1, 0, QQ).is_zero
    assert hh_closed_form(Quiver.crown(2), 2, 0, 0, QQ).free_rank == 2
    with pytest.raises(PreconditionFailed):
        hh_closed_form(Quiver.crown(2), 1, 0, 0, QQ)
    with pytest.raises(PreconditionFailed):
        hh_via_skoldberg(truncated_algebra(Quiver.crown(2), 1, QQ), 0)


# -- coefficient homology ----------------------------------------------------


def test_coefficient_homology_vertex_characters():
    A = truncated_algebra(Quiver.crown(2), 2, QQ)
    # the degree-p carrier is the set of generator paths from the beta vertex
    # to the alpha vertex; on the 2-crown that is one path when the length
    # parity matches and none otherwise
    for u in range(2):
        for v in range(2):
            for p in range(4):
                length = (p // 2) * 2 + p % 2
                want = 1 if (v + length) % 2 == u else 0
                assert coefficient_homology_skoldberg(A, u, v, p).free_rank == want


# -- untruncated and semisimple cases ----------------------------------------


def test_path_algebra_hh_loop_and_crown():
    out = path_algebra_hh(Quiver.crown(1), 4, QQ)
    assert [out["hh0"][q].free_rank for q in range(5)] == [1, 1, 1, 1, 1]
    assert [out["hh1"][q].free_rank for q in range(5)] == [0, 1, 1, 1, 1]
    out = path_algebra_hh(Quiver.crown(2), 4, QQ)
    assert [out["hh0"][q].free_rank for q in range(5)] == [2, 0, 1, 0, 1]
    assert [out["hh1"][q].free_rank for q in range(5)] == [0, 0, 1, 0, 1]


def test_coefficient_homology_reads_the_characters(monkeypatch):
    """The vertex-character complex is built whole, so its carry reads the
    characters: one that does not kill the loop x of k[x]/x^2 sends
    x (x) x to 2 (x) x in D_2, and the built homology leaves the closed
    carrier in every degree that D_2 or D_4 touches."""
    import hopfcycl.quivers as quivers

    A = truncated_algebra(Quiver.crown(1), 2, QQ)
    assert [coefficient_homology_skoldberg(A, 0, 0, p).free_rank for p in range(4)] == [1] * 4
    monkeypatch.setattr(quivers, "vertex_character",
                        lambda A, v: Character(A.ring, [A.ring.one] * A.dim))
    assert coefficient_homology_skoldberg(A, 0, 0, 0).free_rank == 1
    for p in range(1, 4):
        with pytest.raises(HopfCyclError):
            coefficient_homology_skoldberg(A, 0, 0, p)


def test_coefficient_homology_needs_truncation_at_least_two():
    """Mod the arrows (truncation 1) the small complex does not apply."""
    with pytest.raises(PreconditionFailed, match="truncation exponent >= 2"):
        coefficient_homology_skoldberg(truncated_algebra(Quiver.crown(2), 1, QQ), 0, 0, 0)


def length_one_resolution_hh(quiver, grade_cap, ring):
    """Per-grade HH_0 and HH_1 of the full path algebra from the length-1
    bimodule resolution: in grade q the complex k[pairs (nu, arrow) closing
    up] -> k[cycles of length q], with (nu, a) -> nu.a - a.nu."""
    from hopfcycl.quivers import _boundaries, _hochschild_carry

    out = {"hh0": {}, "hh1": {}}
    for q in range(grade_cap + 1):
        cycles = [(p, ("e", quiver.path_src(p))) for p in quiver.paths_of_length(q)
                  if quiver.path_src(p) == quiver.path_tgt(p)]
        pairs = [] if q == 0 else [
            (nu, (a,)) for nu in quiver.paths_of_length(q - 1) for a in range(quiver.num_arrows)
            if quiver.path_tgt(nu) == quiver.src[a] and quiver.tgt[a] == quiver.path_src(nu)
        ]
        # n = 0 marks no truncation; degree 1 does not depend on n
        delta = _boundaries(quiver, 0, ring, [cycles, pairs], _hochschild_carry(quiver))[1]
        out["hh0"][q], out["hh1"][q] = homology_sequence(
            [delta, SparseMatrix.zero(ring, len(pairs), 0)])
    return out


@pytest.mark.parametrize("ring", [QQ, ZZ, PrimeField(2)], ids=["Q", "Z", "F2"])
@pytest.mark.parametrize(
    "quiver", [Quiver.crown(1), Quiver.crown(2), Quiver.crown(3), TWO_LOOP, LOOP_AND_ARROW,
               BRANCHING],
    ids=["crown1", "crown2", "crown3", "two-loop", "loop-and-arrow", "branching"],
)
def test_path_algebra_hh_matches_the_length_one_resolution(quiver, ring):
    """`path_algebra_hh` reads degrees 0 and 1 of `_graded_hh` on a
    truncation above the grade cap; it equals the complex of the length-1
    resolution in every grade up to the cap."""
    for cap in range(6):
        assert path_algebra_hh(quiver, cap, ring) == length_one_resolution_hh(quiver, cap, ring)


def test_path_algebra_hh_lists_degree_two_in_one_grade(monkeypatch):
    """On two loops the truncation at cap + 1 = 7 has 2^7 degree-2
    generators, each with 2^7 - 1 closing paths; only the pairs of grade 7,
    the top grade of degree 1, are listed: the generators with a = e."""
    import hopfcycl.quivers as quivers

    listed = {}
    enumerate_pairs = quivers._closed_pairs

    def recording(A, i, top=None):
        listed[i] = enumerate_pairs(A, i, top)
        return listed[i]

    monkeypatch.setattr(quivers, "_closed_pairs", recording)
    path_algebra_hh(TWO_LOOP, 6, QQ)
    assert sorted(listed) == [0, 1, 2]
    assert len(listed[2]) == 2 ** 7 and all(a == ("e", 0) for a, _ in listed[2])


def vertex_bar_homology(A, alpha, beta, N):
    """H_0..H_N of the b-complex k (x) A^(x m) of two vertex characters,
    built tuple by tuple: d_0 sends a_1 (x) ... (x) a_m to
    beta(a_1) a_2 (x) ... (x) a_m, the inner faces multiply neighbouring
    legs, and d_m sends it to alpha(a_m) a_1 (x) ... (x) a_(m-1)."""
    R, d, mult = A.ring, A.algebra.dim, A.algebra.mult
    chi_alpha, chi_beta = vertex_character(A, alpha), vertex_character(A, beta)
    boundaries = []
    for m in range(1, N + 2):
        index = {t: k for k, t in enumerate(product(range(d), repeat=m - 1))}
        cols = []
        for t in product(range(d), repeat=m):
            terms = [(t[1:], chi_beta(t[0]))]
            for i in range(1, m):
                terms += [(t[: i - 1] + (k,) + t[i + 1 :], R.mul(R.from_int((-1) ** i), c))
                          for k, c in mult[t[i - 1]][t[i]].items()]
            terms.append((t[:-1], R.mul(R.from_int((-1) ** m), chi_alpha(t[-1]))))
            col = {}
            for key, c in terms:
                col[index[key]] = R.add(col.get(index[key], R.zero), c)
            cols.append(col)
        boundaries.append(SparseMatrix.from_columns(R, len(index), cols))
    return homology_sequence(boundaries)


@pytest.mark.parametrize("v", [1, 2, 3])
def test_semisimple_coefficient_row_matches_the_b_complex(v):
    """The homology of the b-complex of k^v (truncation 1) with a pair of
    vertex characters, Tor over the semisimple k^v, is k_alpha (x)_(k^v)
    k_beta in degree 0: k when the vertices agree and 0 otherwise."""
    A = truncated_algebra(Quiver.crown(v), 1, QQ)
    for alpha in range(v):
        for beta in range(v):
            computed = vertex_bar_homology(A, alpha, beta, 3)
            assert [(h.free_rank, h.torsion) for h in computed] == [
                (int(alpha == beta), ()), (0, ()), (0, ()), (0, ())], (alpha, beta)


# -- cyclic homology of the truncation ---------------------------------------


@pytest.mark.parametrize(
    "quiver,n",
    [(Quiver.crown(1), 2), (Quiver.crown(1), 3), (Quiver.crown(2), 2), (Quiver.crown(2), 3)],
    ids=["loop2", "loop3", "crown2-2", "crown2-3"],
)
def test_graded_sbi_matches_closed_form(quiver, n):
    A = truncated_algebra(quiver, n, QQ)
    dims = graded_sbi_hc(A, 4)
    closed = [hc_closed_form_truncated(quiver, n, p, QQ) for p in range(5)]
    assert dims == closed


def test_two_loop_arbitrates_the_correction_reading():
    A = truncated_algebra(TWO_LOOP, 2, QQ)
    assert graded_sbi_hc(A, 2) == [3, 1, 5]
    assert [hc_closed_form_truncated(TWO_LOOP, 2, p, QQ) for p in range(3)] == [3, 1, 5]


def test_hc_closed_form_guards():
    with pytest.raises(PreconditionFailed):
        hc_closed_form_truncated(Quiver.crown(2), 1, 0, QQ)
    with pytest.raises(RingWithoutRationals):
        hc_closed_form_truncated(Quiver.crown(2), 2, 0, ZZ)
    with pytest.raises(RingWithoutRationals):
        graded_sbi_hc(truncated_algebra(Quiver.crown(2), 2, ZZ), 1)


# every crown c = 1..6 with n = 2..6, the two-loop and a loop with an
# outgoing arrow, up to HC_top
HC_SWEEP = [
    pytest.param(Quiver.crown(c), n, 5, id=f"crown{c}-n{n}")
    for c in range(1, 7)
    for n in range(2, 7)
] + [
    pytest.param(TWO_LOOP, 2, 5, id="twoloop-n2"),
    pytest.param(TWO_LOOP, 3, 5, id="twoloop-n3"),
    pytest.param(TWO_LOOP, 4, 4, id="twoloop-n4"),
    pytest.param(LOOP_AND_ARROW, 2, 5, id="looparrow-n2"),
    pytest.param(LOOP_AND_ARROW, 3, 5, id="looparrow-n3"),
]


@pytest.mark.parametrize("quiver,n,top", HC_SWEEP)
def test_hc_closed_form_equals_graded_sbi(quiver, n, top):
    A = truncated_algebra(quiver, n, QQ)
    assert [hc_closed_form_truncated(quiver, n, p, QQ) for p in range(top + 1)] == (
        graded_sbi_hc(A, top)
    )


@pytest.mark.parametrize(
    "quiver,n,top",
    [
        pytest.param(Quiver.crown(2), 4, 3, id="crown2-n4"),
        pytest.param(Quiver.crown(4), 2, 3, id="crown4-n2"),
        pytest.param(Quiver.crown(2), 6, 2, id="crown2-n6"),
        pytest.param(Quiver.crown(3), 6, 2, id="crown3-n6"),
        pytest.param(Quiver.crown(6), 3, 2, id="crown6-n3"),
        pytest.param(TWO_LOOP, 2, 4, id="twoloop-n2"),
    ],
)
def test_hc_closed_form_equals_the_bar_module(quiver, n, top):
    # cases where an earlier closed formula failed, against the Connes
    # quotient complex of the full bar module
    bar = ClassicalCyclicModule(truncated_algebra(quiver, n, QQ).algebra)
    for p in range(top + 1):
        assert connes_lambda_hc(bar, p).free_rank == hc_closed_form_truncated(quiver, n, p, QQ)


def test_bar_hh_of_the_3_crown_at_3_relative_to_the_vertices():
    """HH_3 of crown(3) mod paths of length 3 from the classical module,
    whose chains relative to the vertex idempotents are 24 and 48 in
    degrees 3 and 4 (b_4 of the full b-complex is 6561 x 59049), equals the
    closed form summed over the grades, over Q and Z."""
    quiver = Quiver.crown(3)
    for ring in (QQ, ZZ):
        bar = ClassicalCyclicModule(truncated_algebra(quiver, 3, ring).algebra)
        assert [bar.normalized_dim(m) for m in (3, 4)] == [24, 48]
        closed = sum((hh_closed_form(quiver, 3, 3, q, ring) for q in range(13)), zero_module(ring))
        got = hochschild_homology(bar, 3)
        assert (got.free_rank, got.torsion) == (closed.free_rank, closed.torsion), ring


@pytest.mark.parametrize("c, expected", [
    (2, ["Z^3", "0", "Z^3", "Z/6", "Z^3"]),
    (3, ["Z^3", "Z^2", "Z^3", "Z^2", "Z^3 + Z/2 + Z/2"]),
], ids=["crown2", "crown3"])
def test_integral_hc_of_the_truncated_crowns(c, expected):
    """HC_0..4 over Z of crown(c) mod paths of length 3, from the normalized
    (b, B) bicomplex of the classical module."""
    bar = ClassicalCyclicModule(truncated_algebra(Quiver.crown(c), 3, ZZ).algebra)
    assert [str(h) for h in cyclic_bicomplex_hc_upto(bar, 4)] == expected


# -- Taft algebras -----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_taft_hopf_axioms(n):
    hopf = taft_hopf(n)
    report = hopf.verify_axioms()
    assert report == {k: True for k in report}
    eps = Character(hopf.ring, hopf.counit)
    one = SparseMatrix.identity(hopf.ring, hopf.dim)
    assert contract(hopf, eps, 0) == contract(hopf, eps, 1) == one
    for i in range(n):
        assert is_grouplike(hopf, taft_grouplike(hopf, i).as_vector())
        taft_vertex_character(hopf, i).validate(hopf.algebra)


def test_taft_over_explicit_ring():
    hopf = taft_hopf(2, QQ)
    assert hopf.ring == QQ and hopf.q == QQ.neg(QQ.one)
    assert all(hopf.verify_axioms().values())
    with pytest.raises(MissingRootOfUnity):
        taft_hopf(3, QQ)


def test_taft_valid_triples():
    assert taft_cm_triples(2) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert taft_cm_triples(3) == [(0, 0, 2), (0, 1, 0), (0, 2, 1), (2, 0, 0)]
    assert taft_cm_triples(4) == [(0, 0, 3), (0, 1, 0), (0, 2, 1), (0, 3, 2), (3, 0, 0)]
    assert taft_cm_triples(5) == [(0, 0, 4), (0, 1, 0), (0, 2, 1), (0, 3, 2), (0, 4, 3), (4, 0, 0)]
    for n in (2, 3, 4):
        for (i, u, v) in taft_cm_congruences(n):
            assert (u * i) % n == 0 and (v * i) % n == 0
            assert (v - u + 1 + i) % n == 0


def test_taft_invalid_triple_fails_cyclic_power_law():
    hopf = taft_hopf(2)
    triple = check_cm_triple(
        hopf, taft_grouplike(hopf, 1),
        taft_vertex_character(hopf, 1), taft_vertex_character(hopf, 1),
    )
    assert not triple.valid
    module = taft_cm_module(hopf, 1, 1, 1, require_valid=False)
    from hopfcycl import SparseMatrix

    t1 = module.cyclic(1)
    # the level-1 square happens to close up for this triple ...
    assert t1 @ t1 == SparseMatrix.identity(hopf.ring, 4)
    # ... the cyclic power law first fails at level 2
    t2 = module.cyclic(2)
    assert t2 @ t2 @ t2 != SparseMatrix.identity(hopf.ring, 16)


def test_taft_closed_form_values():
    assert [taft_cm_closed_form(2, 1, 0, 0, p) for p in range(5)] == [1, 0, 2, 0, 3]
    assert [taft_cm_closed_form(2, 0, 1, 0, p) for p in range(5)] == [0, 1, 0, 2, 0]
    assert [taft_cm_closed_form(3, 0, 2, 1, p) for p in range(4)] == [0, 1, 0, 2]
    assert [taft_cm_closed_form(3, 2, 0, 0, p) for p in range(4)] == [1, 0, 2, 0]
    with pytest.raises(PreconditionFailed):
        taft_cm_closed_form(2, 1, 1, 1, 0)


@pytest.mark.parametrize("triple", [(2, 0, 3), (2, 3, 0), (3, 0, 2), (3, 2, 4), (3, 4, 0)])
def test_taft6_triples_outside_both_closed_cases_have_no_cyclic_homology(triple):
    """Five admissible Taft-6 triples are neither (n - 1, 0, 0) nor
    (0, u, u - 1): the closed form gives 0 in every degree, and the
    bicomplex over Q(zeta6) agrees through degree 2."""
    assert triple in taft_cm_congruences(6)
    computed = cyclic_bicomplex_hc_upto(taft_cm_module(taft_hopf(6), *triple), 2)
    assert [taft_cm_closed_form(6, *triple, p) for p in range(3)] == [0, 0, 0]
    assert all(h.free_rank == 0 and not h.torsion for h in computed)


def test_taft4_bicomplex_matches_the_closed_form():
    """HC_0..3 of all five Taft-4 triples over Q(zeta4), from the normalized
    (b, B) bicomplex: the closed form holds beyond n = 3."""
    hopf = taft_hopf(4)
    for triple in taft_cm_congruences(4):
        computed = cyclic_bicomplex_hc_upto(taft_cm_module(hopf, *triple), 3)
        assert [h.free_rank for h in computed] == [
            taft_cm_closed_form(4, *triple, p) for p in range(4)
        ], triple
        assert not any(h.torsion for h in computed)


def test_taft_hh_is_tor_over_the_small_complex():
    """HH of the Connes-Moscovici module of a Taft triple (i, u, v) is
    Tor^H(k_alpha, k_beta), whatever pi is: it equals the homology of the
    truncated crown with alpha at vertex u and beta at vertex v.  With the
    vertices swapped, three Taft-3 and four Taft-4 triples differ, which pins
    alpha at d_0."""
    swapped_differs = []
    for n, top in ((2, 4), (3, 3), (4, 3)):
        hopf = taft_hopf(n)
        for i, u, v in taft_cm_triples(n):
            hh = hochschild_homology_upto(taft_cm_module(hopf, i, u, v), top)
            small = [coefficient_homology_skoldberg(hopf.truncated, u, v, p) for p in range(top + 1)]
            assert hh == small, (n, i, u, v)
            if small != [coefficient_homology_skoldberg(hopf.truncated, v, u, p)
                         for p in range(top + 1)]:
                swapped_differs.append((n, i, u, v))
    assert swapped_differs == [
        (3, 0, 0, 2), (3, 0, 1, 0), (3, 0, 2, 1),
        (4, 0, 0, 3), (4, 0, 1, 0), (4, 0, 2, 1), (4, 0, 3, 2),
    ]


def test_taft_homology_small_degrees():
    hopf = taft_hopf(2)
    assert [taft_cm_homology(hopf, 1, 0, 0, p).free_rank for p in range(3)] == [1, 0, 2]
    assert [taft_cm_homology(hopf, 0, 1, 0, p).free_rank for p in range(3)] == [0, 1, 0]


# values of the per-degree construction (one small complex per HH_j)
GRADED_SBI_HC_5 = {
    (1, 2): [2, 0, 2, 0, 2, 0],
    (1, 3): [3, 0, 3, 0, 3, 0],
    (2, 2): [2, 1, 2, 1, 2, 1],
    (2, 3): [3, 0, 3, 0, 3, 0],
    (3, 2): [3, 0, 4, 0, 3, 0],
    (3, 3): [3, 2, 3, 2, 3, 2],
}


def enumerated_degrees(monkeypatch) -> list[int]:
    """The degrees whose `_closed_pairs` are enumerated from now on, in
    call order."""
    import hopfcycl.quivers as quivers

    degrees = []
    enumerate_pairs = quivers._closed_pairs

    def counting(A, i, top=None):
        degrees.append(i)
        return enumerate_pairs(A, i, top)

    monkeypatch.setattr(quivers, "_closed_pairs", counting)
    return degrees


@pytest.mark.parametrize("crown,n", sorted(GRADED_SBI_HC_5))
def test_graded_sbi_builds_the_small_complex_once(monkeypatch, crown, n):
    degrees = enumerated_degrees(monkeypatch)
    A = truncated_algebra(Quiver.crown(crown), n, QQ)
    assert graded_sbi_hc(A, 5) == GRADED_SBI_HC_5[crown, n]
    assert degrees == list(range(7))
    assert GRADED_SBI_HC_5[crown, n] == [
        hc_closed_form_truncated(Quiver.crown(crown), n, p, QQ) for p in range(6)
    ]


@pytest.mark.parametrize("p", range(6))
def test_hh_via_skoldberg_enumerates_degrees_p_minus_one_to_p_plus_one(monkeypatch, p):
    degrees = enumerated_degrees(monkeypatch)
    quiver = Quiver.crown(2)
    A = truncated_algebra(quiver, 3, ZZ)
    total, per_grade = hh_via_skoldberg(A, p)
    assert degrees == list(range(max(p - 1, 0), p + 2))
    assert per_grade == {q: hh_closed_form(quiver, 3, p, q, ZZ) for q in per_grade}
    assert total == sum(per_grade.values(), zero_module(ZZ))


def test_graded_sbi_needs_truncation_two():
    with pytest.raises(PreconditionFailed):
        graded_sbi_hc(truncated_algebra(Quiver.crown(2), 1, QQ), 2)


@pytest.mark.parametrize("quiver", [Quiver.crown(1), Quiver.crown(3), BRANCHING],
                         ids=["crown1", "crown3", "branching"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_counted_carriers_match_the_built_complexes(quiver, n):
    """The cap sizes a quiver source from path counts; the counts are the
    carrier dimensions of the complexes that are then built."""
    from hopfcycl.quivers import (
        _closed_pairs,
        _relative_chain_dims,
        _resolution_dims,
        _small_complex_dims,
    )

    A = truncated_algebra(quiver, n, QQ)
    assert _resolution_dims(quiver, n, 4) == skoldberg_resolution(A, 4)["dims"]
    assert _small_complex_dims(quiver, n, 4) == [len(_closed_pairs(A, i)) for i in range(5)]
    bar = ClassicalCyclicModule(A.algebra)
    assert _relative_chain_dims(quiver, n, 5) == [bar.normalized_dim(m) for m in range(6)]


def pair_grade(quiver, pair) -> int:
    a, g = pair
    return quiver.path_len(a) + quiver.path_len(g)


@pytest.mark.parametrize("ring", [QQ, ZZ, PrimeField(2)], ids=["Q", "Z", "F2"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize(
    "quiver", [Quiver.crown(1), Quiver.crown(2), Quiver.crown(3), BRANCHING],
    ids=["crown1", "crown2", "crown3", "branching"],
)
def test_graded_hh_is_the_grade_split_of_the_full_small_complex(monkeypatch, quiver, n, ring):
    """The full small complex on `_closed_pairs`, its squares checked and
    split by grade here: `_graded_hh` builds each grade block entry for
    entry, and its homology is that of the blocks."""
    import hopfcycl.quivers as quivers
    from hopfcycl.quivers import _boundaries, _closed_pairs, _hochschild_carry

    N = 5
    A = truncated_algebra(quiver, n, ring)
    bases = [_closed_pairs(A, i) for i in range(N + 2)]
    full = _boundaries(quiver, n, ring, bases, _hochschild_carry(quiver))
    assert all((full[i] @ full[i + 1]).is_zero for i in range(1, N + 1))
    # at[i][q]: the positions of the pairs of grade q in degree i
    at = [{} for _ in bases]
    for i, basis in enumerate(bases):
        for k, pair in enumerate(basis):
            at[i].setdefault(pair_grade(quiver, pair), []).append(k)

    def grade_basis(i, q):
        return [bases[i][k] for k in at[i].get(q, [])]

    def block(i, q):
        rows = {k: r for r, k in enumerate(at[i - 1].get(q, []))}
        cols = {k: c for c, k in enumerate(at[i].get(q, []))}
        return SparseMatrix(ring, len(rows), len(cols), {
            (rows[r], cols[c]): v for (r, c), v in full[i].entries.items()
            if r in rows and c in cols
        })

    built = []
    build = quivers._boundaries

    def recording(quiver_, n_, ring_, grade_bases, carry):
        out = build(quiver_, n_, ring_, grade_bases, carry)
        built.append((grade_bases, out))
        return out

    monkeypatch.setattr(quivers, "_boundaries", recording)
    table = quivers._graded_hh(A, N)

    # one build per grade of degrees 0..N, each on complete grade-q bases
    # up to one past its last degree <= N
    present = sorted({q for level in at[: N + 1] for q in level})
    assert sorted(pair_grade(quiver, next(p for b in gb for p in b)) for gb, _ in built) == present
    for grade_bases, out in built:
        q = pair_grade(quiver, next(p for b in grade_bases for p in b))
        assert len(grade_bases) == max(p for p in range(N + 1) if q in at[p]) + 2
        assert grade_bases == [grade_basis(i, q) for i in range(len(grade_bases))]
        assert all(D == block(i, q) for i, D in out.items())

    for q in present:
        reference = homology_sequence(block(i, q) for i in range(1, N + 2))
        for p in range(N + 1):
            assert table[p][1].get(q) == (reference[p] if q in at[p] else None)
    for total, per_grade in table:
        assert total == sum(per_grade.values(), zero_module(ring))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize(
    "quiver", [Quiver.crown(1), Quiver.crown(2), Quiver.crown(3), BRANCHING],
    ids=["crown1", "crown2", "crown3", "branching"],
)
def test_each_grade_of_the_small_complex_spans_two_adjacent_degrees(quiver, n):
    """The `_closed_pairs` of one grade lie in at most two adjacent degrees,
    since the generator lengths of degrees i and i + 2 differ by n, so each
    grade block of `_graded_hh` has at most one nonzero boundary and its
    squares vanish whatever the carry rule."""
    from hopfcycl.quivers import _closed_pairs

    A = truncated_algebra(quiver, n, QQ)
    degrees: dict[int, set] = {}
    for i in range(9):
        for pair in _closed_pairs(A, i):
            degrees.setdefault(pair_grade(quiver, pair), set()).add(i)
    assert degrees
    for q, ds in degrees.items():
        assert max(ds) - min(ds) <= 1, (q, sorted(ds))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("quiver", [Quiver.crown(3), TWO_LOOP, BRANCHING],
                         ids=["crown3", "two-loop", "branching"])
def test_closed_pairs_up_to_a_top_grade_are_the_grade_filter(quiver, n):
    """`_graded_hh` lists degree N + 1 up to the top grade of the degrees
    below it; the cut keeps the pairs of grade <= top, in order."""
    from hopfcycl.quivers import _closed_pairs

    A = truncated_algebra(quiver, n, QQ)
    for i in range(5):
        full = _closed_pairs(A, i)
        for top in range(-1, 3 * n + 2):
            assert _closed_pairs(A, i, top) == [
                pair for pair in full if pair_grade(quiver, pair) <= top]


def test_graded_hh_refuses_a_boundary_whose_square_is_nonzero(monkeypatch):
    """Each grade of the small complex spans at most two adjacent degrees
    (the generator lengths of degrees i and i + 2 differ by n), so its
    squares vanish for any carry rule.  With every pair in one grade, the
    carry a -> right.a, which drops the left factor, gives
    D_1 . D_2 (1 (x) gamma) = 1 - x^n = 1 on one loop, and the per-grade
    homology refuses it."""
    import hopfcycl.quivers as quivers

    A = truncated_algebra(Quiver.crown(1), 3, QQ)
    graded = [total for total, _ in quivers._graded_hh(A, 3)]
    monkeypatch.setattr(A.quiver, "path_len", lambda path: 0)
    assert [total for total, _ in quivers._graded_hh(A, 3)] == graded
    monkeypatch.setattr(quivers, "_hochschild_carry",
                        lambda quiver: lambda a, left, right: quiver.compose(right, a))
    with pytest.raises(NotAComplex):
        quivers._graded_hh(A, 3)
