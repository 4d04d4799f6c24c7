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
    IndexOutOfRange,
    IntegersMod,
    NotAComplex,
    PreconditionFailed,
    PrimeField,
    Quiver,
    RingWithoutRationals,
    SparseMatrix,
    cm_group_module,
    connes_lambda_hc,
    cyclic_bicomplex_hc,
    group_algebra,
    hochschild_homology,
    hochschild_homology_upto,
    hochschild_window,
    sbi_check,
    sbi_rank_assignment,
    taft_cm_closed_form,
    taft_cm_module,
    taft_cm_triples,
    taft_hopf,
    truncated_algebra,
    verify_cyclic_axioms,
)
from hopfcycl.cyclic import index_to_tuple, tuple_to_index


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


def test_hc_dual_path_agreement():
    for module in (cm_z3(1), cm_z3(0)):
        for n in range(4):
            lam = connes_lambda_hc(module, n)
            bic = cyclic_bicomplex_hc(module, n)
            assert lam.free_rank == bic.free_rank
    assert [connes_lambda_hc(cm_z3(1), n).free_rank for n in range(4)] == [1, 0, 1, 0]
    classical = ClassicalCyclicModule(group_algebra(FiniteGroup.cyclic(3), QQ).algebra)
    assert [connes_lambda_hc(classical, n).free_rank for n in range(3)] == [3, 0, 3]
    assert [cyclic_bicomplex_hc(classical, n).free_rank for n in range(3)] == [3, 0, 3]


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
    with pytest.raises(NotAComplex):
        ChainComplexWindow(QQ, [1, 1, 1], {1: one, 2: one})
    window = hochschild_window(cm_z3(1), 2)
    with pytest.raises(IndexOutOfRange):
        window.homology(2)
    assert window.top == 2


def test_norm_and_lambda_relations():
    # (1 - lambda) N = 0 = N (1 - lambda) on every level
    module = cm_z3(1)
    for m in range(3):
        N = module.norm(m)
        w = module.one_minus_lambda(m)
        assert (w @ N).is_zero and (N @ w).is_zero


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
    rep2 = sbi_check(cm_z3(1), 3, use_bicomplex=True)
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
        cop3a = self._cop3_alpha()
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


@pytest.mark.parametrize("triple", [(1, 0, 0), (0, 1, 0)])
def test_lambda_engine_ranks_each_matrix_once(monkeypatch, triple):
    """HC_n ranks [b_n | 1 - lambda_(n-1)], the matrix HC_(n-1) already ranked."""
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
    # augmented ranks at levels 1..4 and rank(1 - lambda) at levels 0..2
    assert len(seen) == len(set(seen)) == 7


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
    window = hochschild_window(module, 4)
    products = count_products(monkeypatch)
    # the window's constructor checked its squares; homology does not again
    assert [window.homology(n) for n in range(4)] == expected
    assert products == []
    # one sequence over b_1..b_4 checks b_1 b_2, b_2 b_3, b_3 b_4 once each
    assert hochschild_homology_upto(module, 3) == expected
    assert len(products) == len(set(products)) == 3
    products.clear()
    hochschild_homology(module, 2)
    assert len(products) == 1
    products.clear()
    assert sbi_check(module, 3).consistent
    assert len([p for p in products if p[0] == 1]) == 1  # b_1 b_2, out of C_0 = k


def test_hochschild_homology_still_refuses_a_bad_pair():
    module = cm_z3(1)
    b3 = module.boundary_b(3)
    j, c = next(iter(b3.entries))
    # (bad . b_3)[0, c] = b_3[j, c] != 0
    module._cache[("b", 2)] = SparseMatrix(QQ, 3, 9, {(0, j): 1})
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
    for n in range(level):
        assert connes_lambda_hc(module, n).free_rank >= 0
    with pytest.raises(PreconditionFailed, match=f"t_{level}\\^{level + 1}"):
        connes_lambda_hc(module, level)
    # the level checks are kept with the module: asking again multiplies nothing
    products = count_products(monkeypatch)
    with pytest.raises(PreconditionFailed):
        connes_lambda_hc(module, level + 1)
    assert products == []


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
        cop3a = self._cop3_alpha()
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
