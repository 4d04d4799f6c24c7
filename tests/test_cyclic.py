"""Cyclic modules: operator laws, homology engines, dual paths, SBI."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcycl import (
    QQ,
    ZZ,
    ChainComplexWindow,
    ClassicalCyclicModule,
    ConnesMoscoviciModule,
    CyclotomicField,
    FiniteGroup,
    GammaCyclicModule,
    GroupLike,
    IndexOutOfRange,
    IntegersMod,
    NotAComplex,
    PreconditionFailed,
    PrimeField,
    Quiver,
    RingWithoutRationals,
    SparseMatrix,
    burghelea_check,
    character_from_zeta,
    check_cm_triple,
    cm_group_module,
    coefficient_homology_skoldberg,
    conjugacy_classes,
    connes_lambda_hc,
    cyclic_bicomplex_hc,
    cyclic_bicomplex_hc_upto,
    graded_sbi_hc,
    group_algebra,
    hh_via_skoldberg,
    hochschild_homology,
    hochschild_homology_upto,
    hochschild_window,
    periodic_resolution_homology,
    sbi_check,
    sbi_rank_assignment,
    skoldberg_resolution,
    taft_cm_closed_form,
    taft_cm_congruences,
    taft_cm_module,
    taft_cm_triples,
    taft_hopf,
    theta_chain_map_check,
    truncated_algebra,
    verify_cyclic_axioms,
)
from hopfcycl.cyclic import _mixed_boundary, index_to_tuple, total_offsets, tuple_to_index
from hopfcycl.rings import primitive_root_of_unity
from hopfcycl.sparse import homology_sequence


@given(d=st.integers(2, 5), length=st.integers(0, 5), data=st.data())
@settings(max_examples=50, deadline=None)
def test_tuple_index_round_trip(d, length, data):
    t = tuple(data.draw(st.integers(0, d - 1)) for _ in range(length))
    idx = tuple_to_index(t, d)
    assert 0 <= idx < d**length or length == 0
    assert index_to_tuple(idx, d, length) == t


def cm_z3(pi):
    return cm_group_module(FiniteGroup.cyclic(3), pi, QQ)


@pytest.mark.parametrize("pi", [0, 1])
def test_cyclic_axioms_cm_group_module(pi):
    report = verify_cyclic_axioms(cm_z3(pi), 3)
    assert report == {k: True for k in report}


def test_cyclic_axioms_classical_module():
    algebra = group_algebra(FiniteGroup.cyclic(2), QQ).algebra
    report = verify_cyclic_axioms(ClassicalCyclicModule(algebra), 3)
    assert report == {k: True for k in report}


def test_cm_cyclic_operator_closed_form():
    # for k[Z/m] with pi = g, t sends g^(a_1) (x) ... (x) g^(a_m) to
    # g^(1 - a_1 - ... - a_m) (x) g^(a_1) (x) ... (x) g^(a_(m-1))
    module = cm_z3(1)
    t1 = module.cyclic(1)
    for a in range(3):
        assert t1.column(a) == {(1 - a) % 3: QQ.one}
    t2 = module.cyclic(2)
    for a in range(3):
        for b in range(3):
            col = t2.column(tuple_to_index((a, b), 3))
            assert col == {tuple_to_index(((1 - a - b) % 3, a), 3): QQ.one}


def test_cm_face_degeneracy_closed_form():
    module = cm_z3(1)
    # d_1 at level 2 multiplies the two slots
    d1 = module.face(2, 1)
    for a in range(3):
        for b in range(3):
            assert d1.column(tuple_to_index((a, b), 3)) == {(a + b) % 3: QQ.one}
    # d_0 and d_2 apply the trivial characters
    assert module.face(2, 0).column(tuple_to_index((1, 2), 3)) == {2: QQ.one}
    assert module.face(2, 2).column(tuple_to_index((1, 2), 3)) == {1: QQ.one}
    # degeneracies insert the unit g^0
    s0 = module.degeneracy(1, 0)
    assert s0.column(2) == {tuple_to_index((0, 2), 3): QQ.one}


def test_operator_index_guards():
    module = cm_z3(1)
    with pytest.raises(IndexOutOfRange):
        module.face(0, 0)
    with pytest.raises(IndexOutOfRange):
        module.face(2, 3)
    with pytest.raises(IndexOutOfRange):
        module.degeneracy(1, 2)
    with pytest.raises(IndexOutOfRange):
        module.cyclic(-1)


def test_invalid_triple_rejected():
    from hopfcycl import (
        CyclotomicField,
        ConnesMoscoviciModule,
        GroupLike,
        character_from_zeta,
        check_cm_triple,
    )

    K = CyclotomicField(4)
    H = group_algebra(FiniteGroup.cyclic(4), K)
    alpha = character_from_zeta(K, 4, K.zeta)
    triple = check_cm_triple(H, GroupLike.from_vector({1: K.one}), alpha, alpha)
    with pytest.raises(PreconditionFailed):
        ConnesMoscoviciModule(H, triple)
    # but the operators can still be materialized on request
    module = ConnesMoscoviciModule(H, triple, require_valid=False)
    assert module.cyclic(1).ncols == 4


def test_hochschild_dimensions():
    assert [hochschild_homology(cm_z3(1), n).free_rank for n in range(3)] == [1, 0, 0]
    classical = ClassicalCyclicModule(group_algebra(FiniteGroup.cyclic(3), QQ).algebra)
    assert [hochschild_homology(classical, n).free_rank for n in range(3)] == [3, 0, 0]


def dual_path_module(source, args):
    if source == "taft":
        n, *triple = args
        return taft_cm_module(taft_hopf(n), *triple)
    if source == "group":
        m, pi = args
        return cm_group_module(FiniteGroup.cyclic(m), pi, QQ)
    group = FiniteGroup.cyclic(3) if args == "cyclic:3" else FiniteGroup.symmetric(3)
    return ClassicalCyclicModule(group_algebra(group, QQ).algebra)


DUAL_PATH_CASES = (
    [("taft", (n, *triple), top) for n, top in ((2, 4), (3, 3))
     for triple in taft_cm_congruences(n)]
    + [("group", (m, pi), 3) for m in range(2, 6) for pi in range(m)]
    + [("classical", "cyclic:3", 3), ("classical", "symmetric:3", 3)]
)


@pytest.mark.parametrize(
    "source,args,top", DUAL_PATH_CASES, ids=[f"{s} {a}" for s, a, _ in DUAL_PATH_CASES]
)
def test_hc_dual_path_agreement(source, args, top):
    """HC_0..top of the production engine, the normalized (b, B) bicomplex,
    equals the Connes quotient complex degree by degree over Q and Q(zeta_n)."""
    module = dual_path_module(source, args)
    bicomplex = cyclic_bicomplex_hc_upto(module, top)
    assert bicomplex == [connes_lambda_hc(module, n) for n in range(top + 1)]
    expected = {("group", (3, 1)): [1, 0, 1, 0], ("classical", "cyclic:3"): [3, 0, 3, 0]}
    if (source, args) in expected:
        assert [h.free_rank for h in bicomplex] == expected[source, args]


def test_lambda_engine_needs_rationals():
    module = cm_group_module(FiniteGroup.cyclic(2), 0, ZZ)
    with pytest.raises(RingWithoutRationals):
        connes_lambda_hc(module, 1)


def test_bicomplex_over_integers_torsion():
    module = cm_group_module(FiniteGroup.cyclic(2), 0, ZZ)
    hc = [cyclic_bicomplex_hc(module, n) for n in range(4)]
    assert [(h.free_rank, h.torsion) for h in hc] == [
        (1, ()),
        (0, (2,)),
        (1, ()),
        (0, (2, 2)),
    ]


def test_chain_window_guards():
    one = SparseMatrix.from_rows(QQ, [[1]])
    # the square of the pair is checked where the window reads it
    bad = ChainComplexWindow(QQ, [1, 1, 1], {1: one, 2: one})
    with pytest.raises(NotAComplex):
        bad.homology(1)
    window = hochschild_window(cm_z3(1), 2)
    with pytest.raises(IndexOutOfRange):
        window.homology(2)
    assert window.top == 2


@pytest.mark.parametrize("build", [
    lambda: cm_z3(1),
    lambda: taft_cm_module(taft_hopf(2), *taft_cm_triples(2)[0]),
    lambda: ClassicalCyclicModule(truncated_algebra(Quiver.crown(2), 2, QQ).algebra),
    lambda: GammaCyclicModule(FiniteGroup.symmetric(3), 1, ZZ),
], ids=["cm-group", "cm-taft", "classical", "gamma"])
def test_the_first_boundary_has_one_row_per_degree_zero_chain(build):
    """Degree 0 is read from D_1 alone, as D_0 = 0, so the rows of D_1 must
    be the chains of degree 0: in the normalized b-complex, in the total
    complex of the (b, B) bicomplex and in the full b-complex window."""
    module = build()
    assert module.normalized_b(1).nrows == module.normalized_dim(0)
    assert _mixed_boundary(module, 1).nrows == total_offsets(module.normalized_dim, 0)[-1]
    window = hochschild_window(module, 1)
    assert window.boundaries[1].nrows == window.dims[0] == module.level_dim(0)


def test_norm_and_lambda_relations():
    # (1 - lambda) N = 0 = N (1 - lambda) on every level
    module = cm_z3(1)
    for m in range(3):
        N = module.norm(m)
        w = module.one_minus_lambda(m)
        assert (w @ N).is_zero and (N @ w).is_zero


@pytest.mark.parametrize("ring", [ZZ, PrimeField(2), IntegersMod(4), CyclotomicField(3)],
                         ids=lambda r: r.name)
def test_norm_is_the_sum_of_the_powers_of_lambda(ring):
    """norm(m) equals sum(lambda^k, k = 0..m) taken with matrix @ and +
    (`reference_norm`), on a twisted and a classical module, levels 0..3."""
    for module in (cm_group_module(FiniteGroup.cyclic(4), 1, ring),
                   ClassicalCyclicModule(group_algebra(FiniteGroup.cyclic(3), ring).algebra)):
        for m in range(4):
            assert module.norm(m) == reference_norm(module, m), m


@pytest.mark.parametrize("ring", [PrimeField(2), IntegersMod(4), CyclotomicField(3)],
                         ids=lambda r: r.name)
@pytest.mark.parametrize("pi", [0, 1])
def test_assembled_operators_store_no_cancelled_sum(ring, pi):
    """b, b' and 1 - lambda add up faces and the diagonal entry by entry,
    and drop only the sums that cancel (1 + 1 over F2, 1 + 3 over Z/4):
    each matrix holds no zero payload, passes the checked constructor
    unchanged, and equals the same sum taken with matrix + and -."""
    module = cm_group_module(FiniteGroup.cyclic(4), pi, ring)

    def alternating(faces):
        out = faces[0]
        for i, face in enumerate(faces[1:], 1):
            out = out - face if i % 2 else out + face
        return out

    for m in range(1, 5):
        faces = [module.face(m, i) for i in range(m + 1)]
        identity = SparseMatrix.identity(ring, module.level_dim(m))
        t = module.cyclic(m)
        expected = {"b": alternating(faces), "b'": alternating(faces[:m]),
                    "1 - lambda": identity - (-t if m % 2 else t)}
        built = {"b": module.boundary_b(m), "b'": module.boundary_bprime(m),
                 "1 - lambda": module.one_minus_lambda(m)}
        for name, M in built.items():
            assert not any(ring.is_zero(v) for v in M.entries.values()), (name, m)
            assert M == SparseMatrix(ring, M.nrows, M.ncols, M.entries), (name, m)
            assert M == expected[name], (name, m)


def test_sbi_rank_assignment():
    rep = sbi_rank_assignment([1, 0, 0, 0], [1, 0, 1, 0])
    assert rep.consistent
    assert rep.ranks == [(1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 0)]
    rep = sbi_rank_assignment([2, 0], [1, 0])
    assert not rep.consistent and "H_0" in rep.reason
    rep = sbi_rank_assignment([1, 0, 0], [1, 1, 0])
    assert not rep.consistent and "negative" in rep.reason


def test_sbi_check_group_module():
    rep = sbi_check(cm_z3(1), 3)
    assert rep.consistent
    assert rep.ranks == [(1, 0, 0), (0, 0, 0), (0, 1, 0), (0, 0, 0)]
    h_dims = [h.free_rank for h in hochschild_homology_upto(cm_z3(1), 3)]
    hc_dims = [h.free_rank for h in cyclic_bicomplex_hc_upto(cm_z3(1), 3)]
    rep2 = sbi_rank_assignment(h_dims, hc_dims)
    assert rep2.consistent and rep2.ranks == rep.ranks


# -- operator assembly by index arithmetic -----------------------------------


class TupleDecodingCM(ConnesMoscoviciModule):
    """Reference operators: every column decodes its basis tuple and encodes
    the sliced tuples of its image (the assembly before index arithmetic)."""

    def _face(self, m, i):
        R = self.ring
        d = self.hopf.dim
        mult = self.hopf.algebra.mult
        if m == 1:
            if i == 0:
                values = {(0, b): self.alpha(b) for b in range(d)}
            else:
                values = {(0, b): self.beta(b) for b in range(d)}
            return SparseMatrix(R, 1, d, values)
        cols = []
        for idx in range(d**m):
            t = index_to_tuple(idx, d, m)
            col = {}
            if i == 0:
                c = self.alpha(t[0])
                if not R.is_zero(c):
                    col[tuple_to_index(t[1:], d)] = c
            elif i == m:
                c = self.beta(t[-1])
                if not R.is_zero(c):
                    col[tuple_to_index(t[:-1], d)] = c
            else:
                for k, c in mult[t[i - 1]][t[i]].items():
                    col[tuple_to_index(t[: i - 1] + (k,) + t[i + 1 :], d)] = c
            cols.append(col)
        return SparseMatrix.from_columns(R, d ** (m - 1), cols)

    def _degeneracy(self, m, i):
        d = self.hopf.dim
        unit = self.hopf.algebra.unit
        cols = []
        for idx in range(self.level_dim(m)):
            t = index_to_tuple(idx, d, m)
            cols.append({tuple_to_index(t[:i] + (u,) + t[i:], d): c for u, c in unit.items()})
        return SparseMatrix.from_columns(self.ring, d ** (m + 1), cols)

    def _cyclic(self, m):
        R = self.ring
        if m == 0:
            return SparseMatrix.identity(R, 1)
        d = self.hopf.dim
        mult = self.hopf.algebra.mult
        cop3a = self._cop3_alpha
        cols = []
        for idx in range(d**m):
            t = index_to_tuple(idx, d, m)
            state = {(y, (z,)): c for (y, z), c in cop3a[t[0]].items()}
            for b in t[1:]:
                nxt = {}
                for (yacc, zt), c in state.items():
                    for (y2, z2), c2 in cop3a[b].items():
                        cc = R.mul(c, c2)
                        for k, pv in mult[yacc][y2].items():
                            key = (k, zt + (z2,))
                            s = R.add(nxt.get(key, R.zero), R.mul(cc, pv))
                            if R.is_zero(s):
                                nxt.pop(key, None)
                            else:
                                nxt[key] = s
                state = nxt
            col = {}
            for (yacc, zt), c in state.items():
                c = R.mul(c, self.beta(zt[-1]))
                if R.is_zero(c):
                    continue
                for w, sv in self.s_pi.column(yacc).items():
                    out_idx = tuple_to_index((w,) + zt[:-1], d)
                    s = R.add(col.get(out_idx, R.zero), R.mul(c, sv))
                    if R.is_zero(s):
                        col.pop(out_idx, None)
                    else:
                        col[out_idx] = s
            cols.append(col)
        return SparseMatrix.from_columns(R, d**m, cols)


class TupleDecodingClassical(ClassicalCyclicModule):
    """Reference operators of the classical module, tuple by tuple."""

    def _face(self, m, i):
        d = self.algebra.dim
        mult = self.algebra.mult
        cols = []
        for idx in range(d ** (m + 1)):
            t = index_to_tuple(idx, d, m + 1)
            col = {}
            if i < m:
                for k, c in mult[t[i]][t[i + 1]].items():
                    col[tuple_to_index(t[:i] + (k,) + t[i + 2 :], d)] = c
            else:
                for k, c in mult[t[m]][t[0]].items():
                    col[tuple_to_index((k,) + t[1:m], d)] = c
            cols.append(col)
        return SparseMatrix.from_columns(self.ring, d**m, cols)

    def _degeneracy(self, m, i):
        d = self.algebra.dim
        unit = self.algebra.unit
        cols = []
        for idx in range(d ** (m + 1)):
            t = index_to_tuple(idx, d, m + 1)
            cols.append(
                {tuple_to_index(t[: i + 1] + (u,) + t[i + 1 :], d): c for u, c in unit.items()}
            )
        return SparseMatrix.from_columns(self.ring, d ** (m + 2), cols)

    def _cyclic(self, m):
        d = self.algebra.dim
        ent = {}
        for idx in range(d ** (m + 1)):
            t = index_to_tuple(idx, d, m + 1)
            ent[(tuple_to_index((t[m],) + t[:m], d), idx)] = self.ring.one
        return SparseMatrix(self.ring, d ** (m + 1), d ** (m + 1), ent)


def assert_same_operators(module, reference, top, cyclic_top=None):
    cyclic_top = top if cyclic_top is None else cyclic_top
    for m in range(top + 1):
        for i in range(m + 1):
            if m >= 1:
                assert module.face(m, i) == reference.face(m, i), ("d", m, i)
            assert module.degeneracy(m, i) == reference.degeneracy(m, i), ("s", m, i)
        if m <= cyclic_top:
            assert module.cyclic(m) == reference.cyclic(m), ("t", m)


def cm_reference(module):
    return TupleDecodingCM(module.hopf, module.triple, require_valid=False)


@pytest.mark.parametrize(
    "group,pi",
    [(FiniteGroup.cyclic(3), 1), (FiniteGroup.symmetric(3), 0)],
    ids=["Z3 pi=g", "S3"],
)
def test_cm_group_operators_match_tuple_decoding(group, pi):
    module = cm_group_module(group, pi, QQ)
    assert_same_operators(module, cm_reference(module), 3)


def test_taft_operators_match_tuple_decoding():
    hopf = taft_hopf(2)
    for triple in taft_cm_triples(2):
        module = taft_cm_module(hopf, *triple)
        assert_same_operators(module, cm_reference(module), 3)
    # an inadmissible triple exercises alpha and beta values other than 1
    module = taft_cm_module(hopf, 1, 1, 1, require_valid=False)
    assert_same_operators(module, cm_reference(module), 3)
    module = taft_cm_module(taft_hopf(3), *taft_cm_triples(3)[2])
    assert_same_operators(module, cm_reference(module), 3, cyclic_top=2)


def test_classical_operators_match_tuple_decoding():
    # the crown algebra is not commutative, so the last face must multiply
    # t[m] . t[0] in that order
    algebra = truncated_algebra(Quiver.crown(2), 2, QQ).algebra
    module = ClassicalCyclicModule(algebra)
    assert_same_operators(module, TupleDecodingClassical(algebra), 3)
    commutative = group_algebra(FiniteGroup.cyclic(3), QQ).algebra
    assert_same_operators(
        ClassicalCyclicModule(commutative), TupleDecodingClassical(commutative), 3
    )


# -- degeneracies applied to the rows of a matrix ----------------------------


def dual_numbers(ring):
    """ring[x]/(x^2) on the basis b0 = 1 + 2x, b1 = x: b0 b0 = 1 + 4x =
    b0 + 2 b1, b0 b1 = b1 b0 = b1, b1 b1 = 0.  The unit b0 - 2 b1 is no sum
    of basis idempotents; over Z/4 it is b0 + 2 b1, with the zero divisor 2
    as a coefficient."""
    from hopfcycl.hopf import AlgebraData

    two = ring.from_int(2)
    mult = [[{0: ring.one, 1: two}, {1: ring.one}], [{1: ring.one}, {}]]
    algebra = AlgebraData(ring, ["1+2x", "x"], mult, {0: ring.one, 1: ring.neg(two)})
    assert algebra.verify_associativity() and algebra.verify_unit()
    return algebra


def degenerate_cases():
    cases = []
    for ring in (QQ, ZZ, PrimeField(3), CyclotomicField(3)):
        cases.append((f"CM {ring.name}[Z/3] pi=g",
                      lambda ring=ring: cm_group_module(FiniteGroup.cyclic(3), 1, ring), cm_reference))
        cases.append((f"classical {ring.name}[Z/2]",
                      lambda ring=ring: ClassicalCyclicModule(
                          group_algebra(FiniteGroup.cyclic(2), ring).algebra),
                      lambda module: TupleDecodingClassical(module.algebra)))
        cases.append((f"classical crown(2) n=2 over {ring.name}",
                      lambda ring=ring: ClassicalCyclicModule(
                          truncated_algebra(Quiver.crown(2), 2, ring).algebra),
                      lambda module: TupleDecodingClassical(module.algebra)))
    cases.append(("CM Taft-3 over Q(zeta3)",
                  lambda: taft_cm_module(taft_hopf(3), *taft_cm_triples(3)[1]), cm_reference))
    cases.append(("classical Z/4[x]/(x^2)", lambda: ClassicalCyclicModule(dual_numbers(IntegersMod(4))),
                  lambda module: TupleDecodingClassical(module.algebra)))
    return cases


def random_matrix(ring, nrows, ncols, rng):
    """About a third of the entries set, to small multiples of 1 and zeta."""
    zeta = getattr(ring, "zeta", ring.one)
    ent = {}
    for row in range(nrows):
        for col in range(ncols):
            if rng.random() < 0.35:
                a, b = (ring.from_int(rng.randint(-3, 3)) for _ in range(2))
                ent[(row, col)] = ring.add(a, ring.mul(b, zeta))
    return SparseMatrix(ring, nrows, ncols, ent)


@pytest.mark.parametrize("case", degenerate_cases(), ids=lambda case: case[0])
def test_degenerate_is_the_product_with_the_degeneracy(case):
    """s_i applied to the rows of X equals the product with the matrix of
    s_i, and with that of the tuple-decoding reference."""
    import random

    _, build, reference = case
    module = build()
    ref = reference(module)
    rng = random.Random(10)
    for m in range(3):
        for i in range(m + 1):
            X = random_matrix(module.ring, module.level_dim(m), 5, rng)
            expected = ref.degeneracy(m, i) @ X
            assert module.degenerate(m, i, X) == expected, (m, i)
            assert module.degeneracy(m, i) @ X == expected, (m, i)
    with pytest.raises(IndexOutOfRange):
        module.degenerate(1, 2, SparseMatrix.identity(module.ring, module.level_dim(1)))
    with pytest.raises(ValueError):
        module.degenerate(1, 0, SparseMatrix.identity(module.ring, module.level_dim(2)))


def test_zero_divisor_unit_coefficient_drops_zero_products():
    """Over Z/4 the unit coefficient 2 times an entry 2 is zero: s_0 of 2 b0
    is 2 b0 (x) b0 alone, with no stored zero at 2 b0 (x) 2 b1."""
    module = ClassicalCyclicModule(dual_numbers(IntegersMod(4)))
    R = module.ring
    X = SparseMatrix(R, 2, 1, {(0, 0): R.from_int(2)})
    assert module.degenerate(0, 0, X).entries == {(0, 0): R.from_int(2)}


@pytest.mark.parametrize("build", [
    lambda: cm_z3(1),
    lambda: taft_cm_module(taft_hopf(2), *taft_cm_triples(2)[0]),
    lambda: ClassicalCyclicModule(group_algebra(FiniteGroup.cyclic(2), QQ).algebra),
], ids=["Q[Z/3] pi=g", "Taft-2", "classical Q[Z/2]"])
def test_verify_builds_no_operator_above_its_level(build):
    """verify_cyclic_axioms(module, 3) builds faces, degeneracies and cyclic
    operators with source level at most 3: no degeneracy from level 4."""
    module = build()
    report = verify_cyclic_axioms(module, 3)
    assert all(report.values())
    assert not [key for key in module._cache if key[0] == "s" and key[1] == 4]
    assert max(key[1] for key in module._cache if key[0] in ("d", "s", "t")) == 3


class LateUnitCM(ConnesMoscoviciModule):
    """`degenerate` inserts the unit one slot late (s_i acts as s_(i+1),
    s_m as itself); the matrices `degeneracy(m, i)` stay right."""

    def degenerate(self, m, i, M):
        return super().degenerate(m, min(i + 1, m), M)


def test_verify_names_the_laws_a_late_unit_breaks():
    good = cm_z3(1)
    module = LateUnitCM(good.hopf, good.triple)
    failures = {name for name, ok in verify_cyclic_axioms(module, 3).items() if not ok}
    assert {"s_0 s_0 (level 1)", "s_2 s_3 (level 3)", "d_0 s_1 (level 2)",
            "d_3 s_0 (level 2)", "s_1 t (level 2)"} <= failures
    # the laws without a degeneracy still hold
    assert all("s_" in name for name in failures)


# -- degeneracy laws checked once per algebra and class ------------------------


def law_keys(algebra):
    """The (module class, level) keys of the degeneracy-law verdicts in the
    algebra's table store."""
    return sorted((key[1].__name__, key[2]) for key in algebra._shared
                  if key[0] == "degeneracy laws")


def spy_composites(monkeypatch):
    """Record the shape of every s o s_j that `_insert_unit` builds: the
    degeneracy applied to the rows of a degeneracy matrix, d^(m+1) x d^m,
    the only tall matrix a law check hands it."""
    import hopfcycl.cyclic as cyclic

    built = []
    insert_unit = cyclic._insert_unit

    def spying(ring, d, unit, p, s, M):
        if M.nrows == d * M.ncols:
            built.append((M.nrows, M.ncols))
        return insert_unit(ring, d, unit, p, s, M)

    monkeypatch.setattr(cyclic, "_insert_unit", spying)
    return built


def test_second_taft_triple_builds_no_degeneracy_composite(monkeypatch):
    """The laws s_i s_j = s_(j+1) s_i read only the unit of the algebra: the
    first Taft-3 triple builds their 40 composites through level 3, and a
    second triple of the same algebra reuses the verdicts and builds none."""
    hopf = taft_hopf(3)
    first, second = (taft_cm_module(hopf, *triple) for triple in taft_cm_triples(3)[:2])
    built = spy_composites(monkeypatch)
    report = verify_cyclic_axioms(first, 3)
    # (m + 1)(m + 2) / 2 laws at level m, two composites each
    assert len(built) == 2 * (1 + 3 + 6 + 10)
    # the level-3 composites, on the 9-dimensional Taft-3 legs
    assert max(built) == (9**4, 9**3)
    built.clear()
    shared = verify_cyclic_axioms(second, 3)
    assert built == []
    assert list(shared) == list(report) and all(shared.values())


def test_late_unit_after_a_good_module_still_fails_its_laws():
    good = cm_z3(1)
    assert all(verify_cyclic_axioms(good, 3).values())
    module = LateUnitCM(good.hopf, good.triple)
    failures = {name for name, ok in verify_cyclic_axioms(module, 3).items() if not ok}
    assert {"s_0 s_0 (level 1)", "s_2 s_3 (level 3)"} <= failures
    # and the verdicts of the good module's class are untouched by the late one
    assert all(verify_cyclic_axioms(ConnesMoscoviciModule(good.hopf, good.triple), 3).values())


def test_cm_and_classical_modules_of_one_algebra_check_their_own_laws(monkeypatch):
    """C_m has m legs in the Connes-Moscovici module and m + 1 in the
    classical one (fixed_legs 0 and 1), so each computes its own laws."""
    cm = cm_z3(1)
    classical = ClassicalCyclicModule(cm.algebra)
    built = spy_composites(monkeypatch)
    verify_cyclic_axioms(cm, 2)
    assert sorted(set(built)) == [(3, 1), (9, 3), (27, 9)]
    built.clear()
    assert all(verify_cyclic_axioms(classical, 2).values())
    assert sorted(set(built)) == [(9, 3), (27, 9), (81, 27)]
    built.clear()
    verify_cyclic_axioms(cm, 2)
    verify_cyclic_axioms(ClassicalCyclicModule(cm.algebra), 2)
    assert built == []
    assert law_keys(cm.algebra) == [
        ("ClassicalCyclicModule", m) for m in range(3)
    ] + [("ConnesMoscoviciModule", m) for m in range(3)]


def test_gamma_module_checks_its_degeneracy_laws_on_every_call(monkeypatch):
    """A module without tensor legs multiplies by its degeneracy matrices and
    shares no verdict: its own cache is the only thing reused, and no
    algebra's table store is read or written."""
    import hopfcycl.cyclic as cyclic
    from hopfcycl import AlgebraData

    module = GammaCyclicModule(FiniteGroup.cyclic(3), 1, QQ)
    calls = []
    laws = cyclic._degeneracy_laws
    monkeypatch.setattr(cyclic, "_degeneracy_laws", lambda *a: calls.append(a[1]) or laws(*a))
    stored = []
    shared = AlgebraData.shared
    monkeypatch.setattr(AlgebraData, "shared", lambda *a: stored.append(a[1]) or shared(*a))
    first = verify_cyclic_axioms(module, 2)
    assert verify_cyclic_axioms(module, 2) == first and all(first.values())
    assert calls == [0, 1, 2, 0, 1, 2]
    assert stored == []


def test_degeneracy_verdicts_are_dropped_with_their_algebra():
    import gc
    import weakref

    module = cm_group_module(FiniteGroup.cyclic(3), 1, QQ)
    verify_cyclic_axioms(module, 2)
    algebra = weakref.ref(module.algebra)
    assert law_keys(algebra()) == [("ConnesMoscoviciModule", m) for m in range(3)]
    del module
    gc.collect()
    assert algebra() is None


def test_negative_degree_is_refused_before_any_lookup():
    """At degree -1 every engine refuses, and no operator or verdict is
    looked up or stored; the refusal is a HopfCyclError."""
    from hopfcycl import HopfCyclError

    module = cm_z3(1)
    engines = [verify_cyclic_axioms, hochschild_homology, hochschild_homology_upto,
               cyclic_bicomplex_hc, cyclic_bicomplex_hc_upto, connes_lambda_hc, sbi_check]
    for engine in engines:
        with pytest.raises(IndexOutOfRange, match="negative degree -1"):
            engine(module, -1)
    assert module._cache == {}
    # the store holds only what the admissibility check built
    assert {key[0] for key in module.algebra._shared} == {"S_pi", "M"}
    with pytest.raises(HopfCyclError):
        verify_cyclic_axioms(module, -2)
    with pytest.raises(IndexOutOfRange, match="negative degree -1"):
        hochschild_window(module, 2).homology(-1)


NEGATIVE_DEGREE_CALLS = {
    "burghelea_check": lambda G, A, K: burghelea_check(G, QQ, -1),
    "theta_chain_map_check": lambda G, A, K: theta_chain_map_check(G, 1, -1, QQ),
    "skoldberg_resolution": lambda G, A, K: skoldberg_resolution(A, -1),
    "coefficient_homology_skoldberg":
        lambda G, A, K: coefficient_homology_skoldberg(A, 0, 1, -1),
    "graded_sbi_hc": lambda G, A, K: graded_sbi_hc(A, -1),
    "periodic_resolution_homology": lambda G, A, K: periodic_resolution_homology(
        3, K, K.zeta, K.zeta, -1),
    "hh_via_skoldberg": lambda G, A, K: hh_via_skoldberg(A, -1),
}


@pytest.mark.parametrize("engine", sorted(NEGATIVE_DEGREE_CALLS))
def test_group_and_quiver_engines_refuse_a_negative_degree(monkeypatch, engine):
    """At degree -1 the group and small-resolution engines refuse before
    anything is built (no product is taken), where they returned vacuous
    passes, empty tables or a zero module, or raised a bare IndexError;
    on crown(2) mod paths of length 2, and Z/3."""
    A = truncated_algebra(Quiver.crown(2), 2, QQ)
    products = count_products(monkeypatch)
    with pytest.raises(IndexOutOfRange, match="negative degree -1"):
        NEGATIVE_DEGREE_CALLS[engine](FiniteGroup.cyclic(3), A, CyclotomicField(3))
    assert products == []


@pytest.mark.parametrize("triple", [(1, 0, 0), (0, 1, 0)])
def test_lambda_engine_ranks_each_matrix_once(monkeypatch, triple):
    """HC_n ranks [b_n | 1 - lambda_(n-1)], the matrix HC_(n-1) already
    ranked, and reads rank(1 - lambda) from traces, ranking no square
    1 - lambda."""
    import hopfcycl.cyclic as cyclic

    seen = []
    real_rank = cyclic.rank

    def recording(M):
        seen.append((M.nrows, M.ncols, frozenset(M.entries.items())))
        return real_rank(M)

    monkeypatch.setattr(cyclic, "rank", recording)
    module = taft_cm_module(taft_hopf(2), *triple)
    dims = {n: connes_lambda_hc(module, n).free_rank for n in (3, 1, 2, 0)}
    assert dims == {n: taft_cm_closed_form(2, *triple, n) for n in range(4)}
    # the augmented ranks at levels 1..4, each once: [b_m | 1 - lambda_(m-1)]
    # is 4^(m-1) x (4^m + 4^(m-1)), and no matrix ranked is square
    assert len(seen) == len(set(seen)) == 4
    assert sorted((rows, cols) for rows, cols, _ in seen) == [
        (4 ** (m - 1), 4**m + 4 ** (m - 1)) for m in range(1, 5)
    ]


FIXED_DIM_CASES = (
    [("taft", (n, *triple)) for n in (2, 3) for triple in taft_cm_triples(n)]
    + [("group", (m, pi)) for m in range(1, 6) for pi in range(m)]
    + [("classical", "cyclic:3"), ("classical", "symmetric:3")]
)


@pytest.mark.parametrize(
    "source,args", FIXED_DIM_CASES, ids=[f"{s} {a}" for s, a in FIXED_DIM_CASES]
)
def test_fixed_dimension_from_traces_is_the_kernel_of_one_minus_lambda(source, args):
    """f_m = dim ker(1 - lambda_m), which the quotient engine reads from the
    traces of the powers of t_m, equals dim C_m - rank(1 - lambda_m) at every
    level <= 3; at level 0, where lambda = id, it is all of C_0 (|G| for the
    classical module of a group algebra)."""
    from hopfcycl.cyclic import _lambda_level
    from hopfcycl.sparse import rank

    module = dual_path_module(source, args)
    for m in range(4):
        holds, f, _ = _lambda_level(module, m, {})
        assert holds
        assert f == module.level_dim(m) - rank(module.one_minus_lambda(m)), m


def test_lambda_engine_keeps_numbers_not_matrices(monkeypatch):
    """HC_0..3 of a Taft-3 triple leave no matrix in the module's memo, only
    the numbers of each level; asking again takes no product and no rank."""
    import hopfcycl.cyclic as cyclic

    triple = taft_cm_triples(3)[1]
    module = taft_cm_module(taft_hopf(3), *triple)
    first = [connes_lambda_hc(module, n) for n in range(4)]
    assert [h.free_rank for h in first] == [taft_cm_closed_form(3, *triple, n) for n in range(4)]
    assert not [key for key, value in module._cache.items() if isinstance(value, SparseMatrix)]
    products = count_products(monkeypatch)
    ranked = []
    monkeypatch.setattr(cyclic, "rank", lambda M: ranked.append(M) or 0)
    assert [connes_lambda_hc(module, n) for n in range(4)] == first
    assert products == [] and ranked == []


# -- one-pass boundaries against the sum of face matrices ----------------------


def boundary_by_face_sums(module, m, count):
    """Reference: sum((-1)^i d_i) over i < count through SparseMatrix.__add__,
    with a negated copy of each odd face (the assembly before one pass)."""
    out = SparseMatrix.zero(module.ring, module.level_dim(m - 1), module.level_dim(m))
    for i in range(count):
        di = module.face(m, i)
        out = out + (di if i % 2 == 0 else -di)
    return out


def boundary_modules(ring):
    crown = truncated_algebra(Quiver.crown(2), 2, ring).algebra
    modules = [ClassicalCyclicModule(crown)]
    if isinstance(ring, CyclotomicField):
        hopf = taft_hopf(3, ring)
        modules += [taft_cm_module(hopf, *triple) for triple in taft_cm_triples(3, ring)[:3]]
    else:
        modules += [
            cm_group_module(FiniteGroup.cyclic(3), 1, ring),
            cm_group_module(FiniteGroup.symmetric(3), 0, ring),
        ]
    return modules


@pytest.mark.parametrize(
    "ring", [QQ, ZZ, PrimeField(2), IntegersMod(4), CyclotomicField(3)], ids=lambda r: r.name
)
def test_one_pass_boundaries_match_face_sums(ring):
    for module in boundary_modules(ring):
        for m in range(1, 4):
            assert module.boundary_b(m) == boundary_by_face_sums(module, m, m + 1), ("b", m)
            assert module.boundary_bprime(m) == boundary_by_face_sums(module, m, m), ("b'", m)


def test_admissible_taft_modules_share_the_inner_face_sum(monkeypatch):
    """The inner faces multiply neighbouring legs and read no character, so
    every admissible triple of one Taft algebra shares their sum: b_4 of all
    four Taft-3 modules builds d_1, d_2 and d_3 once (12 times when each
    module summed its own faces), and b-bar_3 of all four builds the two
    inner faces of the legs of H / k.1 once."""
    import hopfcycl.cyclic as cyclic

    hopf = taft_hopf(3)
    modules = [taft_cm_module(hopf, *triple) for triple in taft_cm_triples(3)]
    assert len(modules) == 4
    merged = []
    merge_face = cyclic._merge_face
    monkeypatch.setattr(
        cyclic, "_merge_face", lambda *args: merged.append(args) or merge_face(*args)
    )
    for module in modules:
        module.boundary_b(4)
    assert len(merged) == 3
    for module in modules:
        module.normalized_b(3)
    assert len(merged) == 5
    monkeypatch.undo()
    second = modules[1]
    assert second.boundary_b(4) == boundary_by_face_sums(second, 4, 5)
    for m in range(1, 5):
        assert second.normalized_b(m) == projected_boundary(second, m), m


def test_triples_of_one_taft_algebra_share_its_tables():
    """S_pi, M and the inner face sums are kept in the algebra's store: two
    Taft-3 triples with one grouplike read the same S_pi, two with one
    character pair the same M, and two modules the same inner face sums;
    a second Taft-3 algebra builds its own, equal, tables."""
    from hopfcycl.cyclic import _inner_face_sum
    from hopfcycl.hopf import twisted_middle

    def tables(hopf):
        # (0, 1, 0) and (0, 2, 1) share pi_0; (2, 0, 0) and the inadmissible
        # (1, 0, 0) share the character pair (alpha_0, alpha_0)
        first, second = taft_cm_module(hopf, 0, 1, 0), taft_cm_module(hopf, 0, 2, 1)
        third = taft_cm_module(hopf, 2, 0, 0)
        fourth = taft_cm_module(hopf, 1, 0, 0, require_valid=False)
        assert first.s_pi is second.s_pi and third.s_pi is not fourth.s_pi
        middle = twisted_middle(hopf, third.alpha, third.beta)
        assert twisted_middle(hopf, fourth.alpha, fourth.beta) is middle
        for module in (first, second):
            module.boundary_b(3)
            module.normalized_b(3)
        sums = [_inner_face_sum(hopf.algebra, legs, 3)
                for legs in (first._legs, first._normal.legs, second._legs, second._normal.legs)]
        assert sums[0] is sums[2] and sums[1] is sums[3]
        return first.s_pi, middle, sums[0], sums[1]

    mine = tables(taft_hopf(3))
    other = tables(taft_hopf(3))
    assert all(a is not b and a == b for a, b in zip(mine, other))


def cop3_alpha_reference(module):
    """(alpha (x) id (x) id)(id (x) Delta)Delta(b) per basis element b,
    written from the two-leg table: (y, z) -> the sum of c * d * alpha(x)
    over the terms c * x (x) w of Delta(b) and d * y (x) z of Delta(w)."""
    R, cop = module.ring, module.hopf.coproduct
    tables = []
    for b in range(module.hopf.dim):
        table = {}
        for (x, w), c in cop[b].items():
            for (y, z), d in cop[w].items():
                v = R.mul(R.mul(c, d), module.alpha(x))
                table[y, z] = R.add(table.get((y, z), R.zero), v)
        tables.append({key: v for key, v in table.items() if not R.is_zero(v)})
    return tables


def test_cop3_alpha_is_the_three_leg_coproduct_contracted_on_its_first_leg():
    """Every admissible triple of Taft-2, 3 and 4 over Q(zeta_n) and over F3,
    F7 and F5, and every pi of Z/4 and S3 over Q, Z and F3 (eps, eps; the
    inadmissible pi of S3 too): 54 modules."""
    modules = []
    for n, p in ((2, 3), (3, 7), (4, 5)):
        for ring in (CyclotomicField(n), PrimeField(p)):
            hopf = taft_hopf(n, ring)
            modules += [taft_cm_module(hopf, *triple) for triple in taft_cm_triples(n, ring)]
    for G in (FiniteGroup.cyclic(4), FiniteGroup.symmetric(3)):
        for ring in (QQ, ZZ, PrimeField(3)):
            modules += [cm_group_module(G, pi, ring, require_valid=False)
                        for pi in range(G.order)]
    assert len(modules) == 54
    for module in modules:
        assert module._cop3_alpha == cop3_alpha_reference(module)


# -- d^2 = 0 checked once per path ---------------------------------------------


def count_products(monkeypatch):
    products = []
    real = SparseMatrix.__matmul__

    def counting(a, b):
        products.append((a.nrows, a.ncols, b.ncols))
        return real(a, b)

    monkeypatch.setattr(SparseMatrix, "__matmul__", counting)
    return products


def test_each_square_is_checked_once(monkeypatch):
    module = cm_z3(1)
    expected = [hochschild_homology(module, n) for n in range(4)]
    # HH reads the normalized boundaries only
    assert not any(key[0] == "b" for key in module._cache)
    window = hochschild_window(module, 4)
    products = count_products(monkeypatch)
    # one product per window read above degree 0, the square of the pair it
    # reads: b_n b_(n+1) on the full carriers of Q[Z/3], of dimension 3^m;
    # degree 0 reads b_1 alone, as D_0 = 0
    assert [window.homology(n) for n in range(4)] == expected
    assert sorted(products) == [(1, 3, 9), (3, 9, 27), (9, 27, 81)]
    products.clear()
    # one sequence over b-bar_1..b-bar_4 checks b-bar_1 b-bar_2, b-bar_2
    # b-bar_3 and b-bar_3 b-bar_4 once each, on the normalized carriers of
    # Q[Z/3], of dimension 2^m
    assert hochschild_homology_upto(module, 3) == expected
    assert sorted(products) == [(1, 2, 4), (2, 4, 8), (4, 8, 16)]
    products.clear()
    hochschild_homology(module, 2)
    assert products == [(2, 4, 8)]
    products.clear()
    assert sbi_check(module, 3).consistent
    # out of the 1-dimensional degree 0, once each: b-bar_1 b-bar_2 of HH and
    # D_1 D_2 of the (b, B) bicomplex of HC, Tot_2 = C-bar_2 (+) C-bar_0
    assert sorted(p for p in products if p[0] == 1) == [(1, 2, 4), (1, 2, 5)]


def test_hochschild_homology_still_refuses_a_bad_pair():
    module = cm_z3(1)
    b3 = module.normalized_b(3)
    j, c = next(iter(b3.entries))
    # (bad . b-bar_3)[0, c] = b-bar_3[j, c] != 0
    module._cache[("b-bar", 2)] = SparseMatrix(QQ, 2, 4, {(0, j): 1})
    with pytest.raises(NotAComplex):
        hochschild_homology(module, 2)
    with pytest.raises(NotAComplex):
        hochschild_homology_upto(module, 2)


# -- the quotient engine needs t^(m+1) = id -------------------------------------


@pytest.mark.parametrize("triple,level", [((1, 1, 0), 1), ((1, 1, 1), 2)])
def test_lambda_engine_refuses_levels_that_are_not_cyclic(monkeypatch, triple, level):
    module = taft_cm_module(taft_hopf(2), *triple, require_valid=False)
    report = verify_cyclic_axioms(module, 3)
    assert [m for m in range(4) if not report[f"t_{m}^{m + 1} = id"]][0] == level
    # below that level t^(m+1) = id holds, but d_0 t fails at level 1
    assert not report["d_0 t (level 1)"]
    for n in range(level):
        with pytest.raises(PreconditionFailed, match="d_0 t \\(level 1\\)"):
            connes_lambda_hc(module, n)
    with pytest.raises(PreconditionFailed, match=f"t_{level}\\^{level + 1}"):
        connes_lambda_hc(module, level)
    # the level checks are kept with the module: asking again multiplies nothing
    products = count_products(monkeypatch)
    with pytest.raises(PreconditionFailed):
        connes_lambda_hc(module, level + 1)
    assert products == []


@pytest.mark.parametrize("triple", [(1, 1, 0), (1, 1, 1)])
def test_bicomplex_refuses_at_the_lowest_level_a_law_fails(triple):
    module = taft_cm_module(taft_hopf(2), *triple, require_valid=False)
    with pytest.raises(PreconditionFailed, match=r"through level 1 \(d_0 t \(level 1\)"):
        cyclic_bicomplex_hc_upto(module, 3)
    # the laws are checked level by level: no operator above level 1 is built
    assert max(key[1] for key in module._cache if key[0] in ("d", "t")) == 1


# -- the cyclic operator with a pre-contracted closing leg ---------------------


class PrefixFoldCM(ConnesMoscoviciModule):
    """Reference: the cyclic operator folding all m legs with prefix sharing
    and applying beta and S_pi per column, and the boundary faces d_0, d_m
    writing alpha resp. beta of every basis element, zeros included, for the
    validating constructor to drop (the assembly before the closing table)."""

    def _face(self, m, i):
        if 0 < i < m:
            return super()._face(m, i)
        d = self.hopf.dim
        D = d ** (m - 1)
        ent = {}
        if i == 0:
            for a in range(d):
                c = self.alpha(a)
                for row in range(D):
                    ent[(row, a * D + row)] = c
        else:
            betas = [self.beta(b) for b in range(d)]
            for row in range(D):
                for b, c in enumerate(betas):
                    ent[(row, row * d + b)] = c
        return SparseMatrix(self.ring, D, d**m, ent)

    def _cyclic(self, m):
        from itertools import product

        R = self.ring
        if m == 0:
            return SparseMatrix.identity(R, 1)
        mul, add, is_zero = R.mul, R.add, R.is_zero
        d = self.hopf.dim
        D = d ** (m - 1)
        mult = self.hopf.algebra.mult
        cop3a = self._cop3_alpha
        s_pi_cols = [self.s_pi.column(j) for j in range(d)]
        betas = [self.beta(z) for z in range(d)]
        states: list = [None] * m
        prev = None
        ent = {}
        for col, t in enumerate(product(range(d), repeat=m)):
            p = 0 if prev is None else next(q for q in range(m) if t[q] != prev[q])
            prev = t
            if p == 0:
                states[0] = cop3a[t[0]]
                p = 1
            for p in range(p, m):
                nxt: dict = {}
                table = cop3a[t[p]].items()
                for (yacc, zidx), c in states[p - 1].items():
                    row = mult[yacc]
                    zidx *= d
                    for (y2, z2), c2 in table:
                        cc = mul(c, c2)
                        for k, pv in row[y2].items():
                            key = (k, zidx + z2)
                            s = nxt.get(key)
                            nxt[key] = mul(cc, pv) if s is None else add(s, mul(cc, pv))
                states[p] = {key: c for key, c in nxt.items() if not is_zero(c)}
            out: dict = {}
            for (yacc, zidx), c in states[m - 1].items():
                zprefix, zlast = divmod(zidx, d)
                c = mul(c, betas[zlast])
                if is_zero(c):
                    continue
                for w, sv in s_pi_cols[yacc].items():
                    key = w * D + zprefix
                    s = out.get(key)
                    out[key] = mul(c, sv) if s is None else add(s, mul(c, sv))
            for row, c in out.items():
                ent[(row, col)] = c
        return SparseMatrix(R, d**m, d**m, ent)


def prefix_fold_reference(module):
    return PrefixFoldCM(module.hopf, module.triple, require_valid=False)


def assert_same_cyclic_and_boundary_faces(module, top):
    reference = prefix_fold_reference(module)
    for m in range(top + 1):
        assert module.cyclic(m) == reference.cyclic(m), ("t", m)
        if m >= 1:
            for i in (0, m):
                assert module.face(m, i) == reference.face(m, i), ("d", m, i)


@pytest.mark.parametrize("n,top", [(2, 4), (3, 3)])
def test_closing_table_operators_match_prefix_fold_on_taft(n, top):
    hopf = taft_hopf(n)
    for triple in taft_cm_triples(n):
        assert_same_cyclic_and_boundary_faces(taft_cm_module(hopf, *triple), top)


CLOSING_TABLE_MODULES = {
    "Taft-2 (1,1,1)": lambda: taft_cm_module(taft_hopf(2), 1, 1, 1, require_valid=False),
    "Q[Z3] pi=g": lambda: cm_group_module(FiniteGroup.cyclic(3), 1, QQ),
    "Q[S3]": lambda: cm_group_module(FiniteGroup.symmetric(3), 0, QQ),
    "Z[Z4] pi=2": lambda: cm_group_module(FiniteGroup.cyclic(4), 2, ZZ),
    "F3[Z3]": lambda: cm_group_module(FiniteGroup.cyclic(3), 1, PrimeField(3)),
}


@pytest.mark.parametrize("name", list(CLOSING_TABLE_MODULES))
def test_closing_table_operators_match_prefix_fold_beyond_taft(name):
    assert_same_cyclic_and_boundary_faces(CLOSING_TABLE_MODULES[name](), 3)


def algebra_with_zero_constants(ring):
    """Q[Z/3] with a zero structure constant added to every product and a
    zero coefficient added to the unit: the same algebra, written badly."""
    from hopfcycl import AlgebraData, HopfAlgebraData

    hopf = group_algebra(FiniteGroup.cyclic(3), ring)
    A = hopf.algebra
    mult = [
        [{**{(k + 1) % A.dim: ring.zero for k in v}, **v} for v in row] for row in A.mult
    ]
    unit = {**{(u + 1) % A.dim: ring.zero for u in A.unit}, **A.unit}
    algebra = AlgebraData(ring, A.basis_labels, mult, unit)
    return HopfAlgebraData(algebra, hopf.coproduct, hopf.counit, hopf.antipode)


def test_algebra_data_drops_zero_structure_constants():
    from hopfcycl import GroupLike, check_cm_triple, trivial_character

    hopf = algebra_with_zero_constants(QQ)
    assert all(c != 0 for row in hopf.algebra.mult for v in row for c in v.values())
    assert all(c != 0 for c in hopf.algebra.unit.values())
    eps = trivial_character(FiniteGroup.cyclic(3), QQ)
    triple = check_cm_triple(hopf, GroupLike.from_vector({1: QQ.one}), eps, eps)
    module = ConnesMoscoviciModule(hopf, triple)
    assert_same_operators(module, cm_reference(module), 3)


def test_no_operator_stores_a_zero_payload():
    from hopfcycl import GroupLike, check_cm_triple, trivial_character

    modules = [build() for build in CLOSING_TABLE_MODULES.values()]
    modules += [taft_cm_module(taft_hopf(3), *triple) for triple in taft_cm_triples(3)]
    hopf = algebra_with_zero_constants(QQ)
    eps = trivial_character(FiniteGroup.cyclic(3), QQ)
    triple = check_cm_triple(hopf, GroupLike.from_vector({1: QQ.one}), eps, eps)
    modules.append(ConnesMoscoviciModule(hopf, triple))
    modules.append(ClassicalCyclicModule(hopf.algebra))
    modules.append(ClassicalCyclicModule(truncated_algebra(Quiver.crown(2), 2, QQ).algebra))
    for module in modules:
        is_zero = module.ring.is_zero
        for m in range(4):
            operators = [module.cyclic(m)]
            operators += [module.degeneracy(m, i) for i in range(m + 1)]
            if m >= 1:
                operators += [module.face(m, i) for i in range(m + 1)]
            for op in operators:
                assert not any(is_zero(v) for v in op.entries.values()), (module, m)


def test_closing_table_cuts_cyclotomic_products(monkeypatch):
    """t_3 of a Taft-3 triple, from a fresh module: at most a fifth of the
    products the fold over every leg makes (closing table included)."""
    module = taft_cm_module(taft_hopf(3), *taft_cm_triples(3)[0])
    reference = prefix_fold_reference(module)
    real = CyclotomicField.mul

    def products_for_t3(mod):
        calls = []

        def counting(self, a, b):
            calls.append(1)
            return real(self, a, b)

        with monkeypatch.context() as patch:
            patch.setattr(CyclotomicField, "mul", counting)
            t3 = mod.cyclic(3)
        return len(calls), t3

    (new, t3), (old, reference_t3) = products_for_t3(module), products_for_t3(reference)
    assert t3 == reference_t3
    assert 5 * new <= old, (new, old)


# -- the normalized (b, B) bicomplex against the (b, b', 1-lambda, N) one -----


def reference_total_boundary(module, n):
    """D: Tot_n -> Tot_(n-1) of the (b, b', 1-lambda, N) bicomplex: column p
    carries b (p even) or -b' (p odd); the horizontal map out of an odd
    column is 1 - lambda and out of a positive even column the norm N.  The
    engine before the normalized complex, kept as the reference."""
    R = module.ring
    src_off, off = [], 0
    for p in range(n + 1):
        src_off.append(off)
        off += module.level_dim(n - p)
    src_total = off
    tgt_off, off = [], 0
    for p in range(n):
        tgt_off.append(off)
        off += module.level_dim(n - 1 - p)
    tgt_total = off
    ent = {}

    def insert(block, row0, col0):
        for (i, j), v in block.entries.items():
            key = (row0 + i, col0 + j)
            s = R.add(ent.get(key, R.zero), v)
            if R.is_zero(s):
                ent.pop(key, None)
            else:
                ent[key] = s

    for p in range(n + 1):
        q = n - p
        if q >= 1:
            vert = module.boundary_b(q) if p % 2 == 0 else -module.boundary_bprime(q)
            insert(vert, tgt_off[p], src_off[p])
        if p >= 1:
            horiz = module.one_minus_lambda(q) if p % 2 == 1 else module.norm(q)
            insert(horiz, tgt_off[p - 1], src_off[p])
    return SparseMatrix(R, tgt_total, src_total, ent)


def reference_bicomplex_hc(module, N):
    return homology_sequence(reference_total_boundary(module, k) for k in range(1, N + 2))


def described(mods):
    return [(h.free_rank, h.torsion) for h in mods]


# (name, top, build over a ring): algebras whose unit is a sum of orthogonal
# basis idempotents splitting the basis, off the crowns
KRONECKER = Quiver(["u", "v"], [("a", 0, 1), ("b", 0, 1)])
LOOP_AND_CYCLE = Quiver(["u", "v"], [("a", 0, 1), ("b", 1, 0), ("c", 0, 0)])
RELATIVE_ALGEBRAS = [
    ("Kronecker n=2", 3, lambda ring: truncated_algebra(KRONECKER, 2, ring).algebra),
    ("loop and 2-cycle n=2", 3, lambda ring: truncated_algebra(LOOP_AND_CYCLE, 2, ring).algebra),
    ("Taft-2 algebra", 3, lambda ring: taft_hopf(2, ring).algebra),
]


@pytest.mark.parametrize("ring", [QQ, ZZ], ids=lambda r: r.name)
@pytest.mark.parametrize("quiver", [Quiver.crown(1), Quiver.crown(2), Quiver.crown(3),
                                    KRONECKER, LOOP_AND_CYCLE],
                         ids=["crown(1)", "crown(2)", "crown(3)", "Kronecker", "loop and 2-cycle"])
def test_semisimple_tables_are_the_relative_chains(quiver, ring):
    """HH and HC of the vertex algebra k^v (truncation 1), computed on its
    chains relative to E = k^v, where no basis element lies outside E: HH is
    k^v in degree 0 and HC alternates between k^v and 0."""
    module = ClassicalCyclicModule(truncated_algebra(quiver, 1, ring).algebra)
    v = quiver.num_vertices
    assert [(h.free_rank, h.torsion) for h in hochschild_homology_upto(module, 4)] == [
        (v, ()), (0, ()), (0, ()), (0, ()), (0, ())]
    assert [(h.free_rank, h.torsion) for h in cyclic_bicomplex_hc_upto(module, 4)] == [
        (v, ()), (0, ()), (v, ()), (0, ()), (v, ())]


def bicomplex_cases():
    cases = []
    for ring in (ZZ, PrimeField(2), PrimeField(3)):
        for m, top in ((2, 4), (3, 4), (4, 3), (5, 2)):
            cases += [(f"{ring.name}[Z/{m}] pi={pi}", top,
                       lambda m=m, pi=pi, ring=ring: cm_group_module(FiniteGroup.cyclic(m), pi, ring))
                      for pi in range(m)]
        if ring != PrimeField(3):
            cases.append((f"{ring.name}[S3] pi=e", 2,
                          lambda ring=ring: cm_group_module(FiniteGroup.symmetric(3), 0, ring)))
    for n, p, top in ((2, 3, 3), (2, 5, 3), (3, 7, 2)):
        cases += [(f"Taft-{n} {triple} over F{p}", top,
                   lambda n=n, p=p, triple=triple: taft_cm_module(taft_hopf(n, PrimeField(p)), *triple))
                  for triple in taft_cm_triples(n, PrimeField(p))]
    for c in (1, 2):
        cases.append((f"classical crown({c}) n=2 over Z", 2,
                      lambda c=c: ClassicalCyclicModule(truncated_algebra(Quiver.crown(c), 2, ZZ).algebra)))
    # chains relative to the vertex idempotents off the crowns, and the
    # k.1 chains of a unit that is no sum of basis idempotents
    for ring in (QQ, ZZ):
        cases += [(f"classical {name} over {ring.name}", top,
                   lambda build=build, ring=ring: ClassicalCyclicModule(build(ring)))
                  for name, top, build in RELATIVE_ALGEBRAS]
        cases.append((f"classical {ring.name}[x]/(x^2) on 1 + 2x, x", 3,
                      lambda ring=ring: ClassicalCyclicModule(dual_numbers(ring))))
    for G, top in ((FiniteGroup.cyclic(3), 4), (FiniteGroup.symmetric(3), 3)):
        cases += [(f"Gamma({G.order}, {cls[0]}) over Z", top,
                   lambda G=G, pi=cls[0]: GammaCyclicModule(G, pi, ZZ))
                  for cls in conjugacy_classes(G)]
    return cases


@pytest.mark.parametrize("case", bicomplex_cases(), ids=lambda case: case[0])
def test_normalized_bicomplex_matches_the_reference(case):
    _, top, build = case
    module = build()
    assert described(cyclic_bicomplex_hc_upto(module, top)) == described(
        reference_bicomplex_hc(module, top)
    )


def k1_projection(module, m):
    """(P, J) at level m for the k.1 normalization of a tensor module: J
    includes the basis tensors with no pivot digit in the legs that the
    degeneracies fill (all but the first `fixed_legs`), and P projects each
    of those legs of a basis tensor to A / k.1, leaving the fixed legs."""
    from itertools import product

    from hopfcycl.cyclic import _Normalization

    R, d, fixed = module.ring, module.algebra.dim, module.fixed_legs
    normal = _Normalization(module.algebra)
    kept = normal.legs[0]
    tuples = list(product(*[range(d)] * fixed, *[kept] * m))
    at = {t: j for j, t in enumerate(tuples)}
    J = SparseMatrix(R, module.level_dim(m), len(tuples),
                     {(tuple_to_index(t, d), j): R.one for j, t in enumerate(tuples)})
    ent = {}
    for idx in range(module.level_dim(m)):
        terms = [((), R.one)]
        for leg, x in enumerate(index_to_tuple(idx, d, m + fixed)):
            image = {x: R.one} if leg < fixed else {kept[r]: p for r, p in normal.image[x].items()}
            terms = [(t + (y,), R.mul(c, p)) for t, c in terms for y, p in image.items()]
        for t, c in terms:
            ent[(at[t], idx)] = R.add(ent.get((at[t], idx), R.zero), c)
    return SparseMatrix(R, len(tuples), module.level_dim(m), ent), J


def projected_boundary(module, m):
    """P b_m J: the full boundary on the normalized columns, its rows
    projected, for comparison with the directly built b-bar."""
    return k1_projection(module, m - 1)[0] @ module.boundary_b(m) @ k1_projection(module, m)[1]


def reference_norm(module, m):
    """N_m = sum(lambda^k, k = 0..m) with lambda = (-1)^m t_m, taken with
    matrix @ and +, apart from the package's signed sum."""
    t = module.cyclic(m)
    lam = -t if m % 2 else t
    power = total = SparseMatrix.identity(module.ring, module.level_dim(m))
    for _ in range(m):
        power = lam @ power
        total = total + power
    return total


def projected_connes(module, m):
    """P t_(m+1) s_m N_m J, for comparison with the directly built B-bar."""
    full = module.cyclic(m + 1) @ module.degenerate(m, m, reference_norm(module, m))
    return k1_projection(module, m + 1)[0] @ full @ k1_projection(module, m)[1]


def relative_quotient(module, m):
    """q: C_m -> C-bar_m for the chains relative to the vertex idempotents:
    a basis tensor that is a cyclically composable tuple with no idempotent
    in slots 1..m goes to that tuple, every other one to zero."""
    d = module.algebra.dim
    at = module._relative.basis(m)[1]
    ent = {}
    for idx in range(module.level_dim(m)):
        j = at.get(index_to_tuple(idx, d, m + 1))
        if j is not None:
            ent[(j, idx)] = module.ring.one
    return SparseMatrix(module.ring, module.normalized_dim(m), module.level_dim(m), ent)


def b_bar_is_induced(module, m):
    """q b_m = b-bar_m q, with q the quotient map onto the relative chains."""
    q = relative_quotient
    return q(module, m - 1) @ module.boundary_b(m) == module.normalized_b(m) @ q(module, m)


@pytest.mark.parametrize("build", [
    lambda: cm_group_module(FiniteGroup.symmetric(3), 0, ZZ),
    lambda: taft_cm_module(taft_hopf(3, PrimeField(7)), *taft_cm_triples(3, PrimeField(7))[1]),
    lambda: cm_group_module(FiniteGroup.cyclic(4), 1, ZZ),
    lambda: ClassicalCyclicModule(truncated_algebra(Quiver.crown(2), 3, ZZ).algebra),
], ids=["Z[S3]", "Taft-3 over F7", "Z[Z/4] pi=g", "classical crown(2) n=3"])
def test_direct_normalized_boundary_is_the_projected_one(build):
    """b-bar is induced by b: on the k.1 chains it is P b J, and on the
    chains relative to the vertex idempotents q b = b-bar q on every basis
    tensor.  On the k.1 chains the directly folded B-bar is also
    P t_(m+1) s_m N_m J, built from the full operators."""
    module = build()
    for m in range(1, 4):
        if isinstance(module, ClassicalCyclicModule):
            assert b_bar_is_induced(module, m), m
        else:
            assert module.normalized_b(m) == projected_boundary(module, m), m
    if not isinstance(module, ClassicalCyclicModule):
        for m in range(4):
            assert module.normalized_B(m) == projected_connes(module, m), m


@pytest.mark.parametrize("build", [
    lambda: taft_cm_module(taft_hopf(2, PrimeField(3)), 1, 0, 0),
    lambda: cm_group_module(FiniteGroup.cyclic(4), 1, ZZ),
], ids=["Taft-2 (1,0,0) over F3", "Z[Z/4] pi=g"])
def test_bicomplex_builds_the_cyclic_operator_below_its_top_degree(monkeypatch, build):
    """HC_0..4 reads B-bar_m for m <= 3 only, and B-bar_m folds its
    t_(m+1) s_m directly: t is built through level 3, not 4."""
    levels = []
    real = ConnesMoscoviciModule._cyclic

    def recording(self, m):
        levels.append(m)
        return real(self, m)

    monkeypatch.setattr(ConnesMoscoviciModule, "_cyclic", recording)
    module = build()
    assert len(cyclic_bicomplex_hc_upto(module, 4)) == 5
    assert max(levels) == 3


@pytest.mark.parametrize("ring", [QQ, ZZ], ids=lambda r: r.name)
@pytest.mark.parametrize("case", [
    ("classical crown(3) n=2", lambda ring: truncated_algebra(Quiver.crown(3), 2, ring).algebra),
    *[(name, build) for name, _, build in RELATIVE_ALGEBRAS],
    ("classical Z/3", lambda ring: group_algebra(FiniteGroup.cyclic(3), ring).algebra),
], ids=lambda case: case[0])
def test_relative_chains_are_a_quotient_of_the_full_ones(case, ring):
    """q b = b-bar q and q t_(m+1) s_m N_m = B-bar q on every basis tensor,
    with the full operators of the classical module."""
    module = ClassicalCyclicModule(case[1](ring))
    q = relative_quotient
    for m in range(3):
        assert m == 0 or b_bar_is_induced(module, m), m
        full_B = module.cyclic(m + 1) @ module.degenerate(m, m, module.norm(m))
        assert q(module, m + 1) @ full_B == module.normalized_B(m) @ q(module, m), m


@pytest.mark.parametrize("ring", [IntegersMod(4), ZZ, QQ], ids=lambda r: r.name)
def test_dual_numbers_keep_the_k1_chains(ring):
    """A unit that is no sum of basis idempotents gives the chains relative
    to E = k.1: over Z/4 (the unit b0 + 2 b1), Z and Q (b0 - 2 b1) every
    basis element has one colour, C-bar_m = A (x) (A / k.1)^(x m) has
    dimension 2, b-bar is P b J and B-bar is P t s N J."""
    module = ClassicalCyclicModule(dual_numbers(ring))
    chains = module._relative
    assert len(set(chains.left + chains.right)) == len(chains.closing) == 1
    assert [module.normalized_dim(m) for m in range(4)] == [2, 2, 2, 2]
    for m in range(4):
        assert m == 0 or module.normalized_b(m) == projected_boundary(module, m), m
        assert module.normalized_B(m) == projected_connes(module, m), m


def test_k1_normalization_drops_the_group_identity():
    """For a group algebra the pivot is e: its rows are dropped, and the
    normalized carriers of Z[Z/4] are (4 - 1)^m."""
    module = cm_group_module(FiniteGroup.cyclic(4), 0, ZZ)
    assert [module.normalized_dim(m) for m in range(5)] == [1, 3, 9, 27, 81]
    assert module._normal.image[0] == {}
    classical = ClassicalCyclicModule(group_algebra(FiniteGroup.cyclic(4), ZZ).algebra)
    assert [classical.normalized_dim(m) for m in range(3)] == [4, 12, 36]


def test_unit_without_invertible_coefficient_is_refused():
    from hopfcycl import NotAUnit
    from hopfcycl.hopf import AlgebraData

    # Z x Z on the basis b0 = (2, -1), b1 = (-1, 1): its unit (1, 1) is
    # 2 b0 + 3 b1, and neither coefficient is invertible in Z
    mult = [[{0: 5, 1: 6}, {0: -3, 1: -4}], [{0: -3, 1: -4}, {0: 2, 1: 3}]]
    algebra = AlgebraData(ZZ, ["b0", "b1"], mult, {0: 2, 1: 3})
    assert algebra.verify_associativity() and algebra.verify_unit()
    module = ClassicalCyclicModule(algebra)
    with pytest.raises(NotAUnit):
        cyclic_bicomplex_hc_upto(module, 1)
    # HH reads the same normalized chains; the full b-complex still computes
    with pytest.raises(NotAUnit):
        hochschild_homology_upto(module, 1)
    assert hochschild_window(module, 2).homology(0).free_rank == 2


def test_bicomplex_refuses_a_module_that_is_not_cyclic():
    from hopfcycl.rings import primitive_root_of_unity
    from hopfcycl import GroupLike, character_from_zeta, check_cm_triple

    R = PrimeField(7)
    H = group_algebra(FiniteGroup.cyclic(3), R)
    zeta = primitive_root_of_unity(R, 3)
    alpha, beta = (character_from_zeta(R, 3, R.pow(zeta, a)) for a in (1, 2))
    triple = check_cm_triple(H, GroupLike.from_vector({1: R.one}), alpha, beta)
    module = ConnesMoscoviciModule(H, triple, require_valid=False)
    with pytest.raises(PreconditionFailed, match="d_0 t \\(level 1\\)"):
        cyclic_bicomplex_hc_upto(module, 1)
    with pytest.raises(PreconditionFailed):
        cyclic_bicomplex_hc(module, 0)


# -- HH from the normalized chains against the full b-complex ------------------


def zeta3_group_module(pi, a, b):
    """Q(zeta3)[Z/3] at the grouplike pi with the characters g -> zeta^a and
    g -> zeta^b, admissible or not."""
    K = CyclotomicField(3)
    H = group_algebra(FiniteGroup.cyclic(3), K)
    zeta = primitive_root_of_unity(K, 3)
    alpha, beta = (character_from_zeta(K, 3, K.pow(zeta, e)) for e in (a, b))
    triple = check_cm_triple(H, GroupLike.from_vector({pi: K.one}), alpha, beta)
    return ConnesMoscoviciModule(H, triple, require_valid=False)


def hochschild_cases():
    cases = []
    for ring in (QQ, ZZ, PrimeField(2), PrimeField(3)):
        for m in (2, 3, 4):
            cases += [(f"{ring.name}[Z/{m}] pi={pi}", 3,
                       lambda m=m, pi=pi, ring=ring: cm_group_module(FiniteGroup.cyclic(m), pi, ring))
                      for pi in range(m)]
        cases.append((f"{ring.name}[S3] pi=e", 2,
                      lambda ring=ring: cm_group_module(FiniteGroup.symmetric(3), 0, ring)))
    cases += [(f"Q(zeta3)[Z/3] ({pi}, {a}, {b})", 3, lambda t=(pi, a, b): zeta3_group_module(*t))
              for pi in range(3) for a in range(3) for b in range(3)]
    # every triple, admissible or not: the b-complex does not involve t
    for n, top in ((2, 3), (3, 2)):
        cases += [(f"Taft-{n} {(i, u, v)}", top,
                   lambda n=n, t=(i, u, v): taft_cm_module(taft_hopf(n), *t, require_valid=False))
                  for i in range(n) for u in range(n) for v in range(n)]
    for G in (FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)):
        cases += [(f"Gamma({G.order}, {cls[0]}) over Z", 3,
                   lambda G=G, pi=cls[0]: GammaCyclicModule(G, pi, ZZ))
                  for cls in conjugacy_classes(G)]
    # the classical modules of the crowns up to the bar cap of the benchmark,
    # b_(top+1) with at most 10 000 columns
    for c, n, top in ((1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 3), (3, 2, 3), (3, 3, 2)):
        cases += [(f"classical crown({c}) n={n} over {ring.name}", top,
                   lambda c=c, n=n, ring=ring:
                       ClassicalCyclicModule(truncated_algebra(Quiver.crown(c), n, ring).algebra))
                  for ring in (QQ, ZZ)]
    for ring in (QQ, ZZ):
        cases += [(f"classical {name} over {ring.name}", top,
                   lambda build=build, ring=ring: ClassicalCyclicModule(build(ring)))
                  for name, top, build in RELATIVE_ALGEBRAS]
        cases.append((f"classical {ring.name}[x]/(x^2) on 1 + 2x, x", 3,
                      lambda ring=ring: ClassicalCyclicModule(dual_numbers(ring))))
    return cases


@pytest.mark.parametrize("case", hochschild_cases(), ids=lambda case: case[0])
def test_normalized_hochschild_homology_is_that_of_the_full_complex(case):
    _, top, build = case
    module = build()
    window = hochschild_window(module, top + 1)
    expected = described(window.homology(n) for n in range(top + 1))
    assert described(hochschild_homology_upto(module, top)) == expected
    assert described(hochschild_homology(module, n) for n in range(top + 1)) == expected
