"""Sparse exact linear algebra: rank, Smith normal form, homology."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcycl import (
    QQ,
    ZZ,
    CyclotomicField,
    HomologyModule,
    IntegersMod,
    NotAComplex,
    NotAField,
    PrimeField,
    Ring,
    RingMismatch,
    SparseMatrix,
    UnsupportedRing,
    homology_at,
    rank,
    smith_normal_form,
)
import hopfcycl.sparse as sparse
from hopfcycl.sparse import _eliminate, _rows_and_colindex, _snf_invariants

F7 = PrimeField(7)
QZETA3 = CyclotomicField(3)


def rank_over_rationals(M):
    """Rank of an integer matrix, computed over Q (a Z payload is a Q payload)."""
    if M.ring == QQ:
        return rank(M)
    if M.ring != ZZ:
        raise UnsupportedRing("rank_over_rationals expects a matrix over Z or Q")
    entries = {k: QQ.from_int(v) for k, v in M.entries.items()}
    return rank(SparseMatrix(QQ, M.nrows, M.ncols, entries))


def dense_rank_oracle(ring, rows):
    """Plain dense Gaussian elimination, written independently of the library."""
    A = [[ring.from_int(v) if isinstance(v, int) else v for v in row] for row in rows]
    m = len(A)
    n = len(A[0]) if A else 0
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if not ring.is_zero(A[i][c])), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = ring.inv(A[r][c])
        A[r] = [ring.mul(inv, v) for v in A[r]]
        for i in range(m):
            if i != r and not ring.is_zero(A[i][c]):
                f = A[i][c]
                A[i] = [ring.sub(A[i][j], ring.mul(f, A[r][j])) for j in range(n)]
        r += 1
    return r


def random_int_rows(rng, m, n, lo=-4, hi=4, density=0.6):
    return [
        [rng.randint(lo, hi) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]


@pytest.mark.parametrize("ring", [QQ, F7], ids=lambda r: r.name)
@given(seed=st.integers(0, 10**6), m=st.integers(1, 6), n=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_rank_matches_dense_oracle(ring, seed, m, n):
    rng = random.Random(seed)
    rows = random_int_rows(rng, m, n)
    M = SparseMatrix.from_rows(ring, rows)
    r = rank(M)
    assert r == dense_rank_oracle(ring, rows)
    assert r == rank(M.transpose())


def test_rank_requires_field():
    M = SparseMatrix.from_rows(ZZ, [[2, 0], [0, 3]])
    with pytest.raises(NotAField):
        rank(M)
    assert rank_over_rationals(M) == 2
    with pytest.raises(UnsupportedRing):
        rank_over_rationals(SparseMatrix.identity(F7, 2))


def test_matrix_algebra_basics():
    A = SparseMatrix.from_rows(QQ, [[1, 2], [3, 4]])
    B = SparseMatrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert (A @ B) == SparseMatrix.from_rows(QQ, [[2, 1], [4, 3]])
    assert (A + (-A)).is_zero
    assert (A - A).is_zero
    assert A.hstack(B).ncols == 4
    assert A.column(0) == {0: Fraction(1), 1: Fraction(3)}
    assert A.transpose().transpose() == A
    with pytest.raises(RingMismatch):
        A @ SparseMatrix.identity(ZZ, 2)
    with pytest.raises(ValueError):
        A @ SparseMatrix.identity(QQ, 3)
    with pytest.raises(IndexError):
        SparseMatrix(QQ, 1, 1, {(1, 0): Fraction(1)})


def test_smith_normal_form_known_values():
    assert smith_normal_form(SparseMatrix.from_rows(ZZ, [[2, 0], [0, 6]])) == [2, 6]
    assert smith_normal_form(SparseMatrix.from_rows(ZZ, [[1, 2], [3, 4]])) == [1, 2]
    assert smith_normal_form(SparseMatrix.from_rows(ZZ, [[6, 4], [4, 6]])) == [2, 10]
    assert smith_normal_form(SparseMatrix.zero(ZZ, 3, 2)) == []
    with pytest.raises(UnsupportedRing):
        smith_normal_form(SparseMatrix.identity(QQ, 2))


def unimodular(rng, n):
    """Random product of elementary integer row operations."""
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        for k in range(n):
            M[i][k] += c * M[j][k]
    return SparseMatrix.from_rows(ZZ, M)


@given(seed=st.integers(0, 10**6), m=st.integers(1, 4), n=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_snf_unimodular_invariance_and_divisibility(seed, m, n):
    rng = random.Random(seed)
    M = SparseMatrix.from_rows(ZZ, random_int_rows(rng, m, n, -6, 6, 0.8))
    inv = smith_normal_form(M)
    for a, b in zip(inv, inv[1:]):
        assert b % a == 0
    L, R = unimodular(rng, m), unimodular(rng, n)
    assert smith_normal_form(L @ M @ R) == inv
    assert len(inv) == rank_over_rationals(M)


@pytest.mark.parametrize("modulus", [4, 6])
@pytest.mark.parametrize("seed", range(6))
def test_snf_over_zmod_cokernel_oracle(modulus, seed):
    ring = IntegersMod(modulus)
    rng = random.Random(seed)
    m, n = rng.randint(1, 3), rng.randint(1, 3)
    rows = [[rng.randrange(modulus) for _ in range(n)] for _ in range(m)]
    M = SparseMatrix.from_rows(ring, rows)
    inv = smith_normal_form(M)
    assert all(modulus % d == 0 or d < modulus for d in inv)
    # enumeration oracle: order of the image subgroup of (Z/modulus)^m
    image = set()
    for coeffs in product(range(modulus), repeat=n):
        vec = tuple(
            sum(rows[i][j] * coeffs[j] for j in range(n)) % modulus for i in range(m)
        )
        image.add(vec)
    expected_coker = modulus**m // len(image)
    coker = modulus ** (m - len(inv))
    for d in inv:
        coker *= d
    assert coker == expected_coker


def test_homology_at_field_and_integer():
    # Q <-2- Q: homology at the target is 0, at degree 0 with zero out-map
    d_in = SparseMatrix.from_rows(QQ, [[2]])
    d_out = SparseMatrix.zero(QQ, 0, 1)
    assert homology_at(d_in, d_out) == HomologyModule(QQ, 0)
    # Z <-2- Z: cokernel Z/2
    d_in = SparseMatrix.from_rows(ZZ, [[2]])
    d_out = SparseMatrix.zero(ZZ, 0, 1)
    h = homology_at(d_in, d_out)
    assert h.free_rank == 0 and h.torsion == (2,)
    # Z^2 <-0- 0 with zero out-map: free of rank 2
    h = homology_at(SparseMatrix.zero(ZZ, 2, 0), SparseMatrix.zero(ZZ, 0, 2))
    assert h.free_rank == 2 and h.torsion == ()


def test_homology_at_guards():
    good = SparseMatrix.from_rows(ZZ, [[1]])
    with pytest.raises(NotAComplex):
        homology_at(good, good)
    with pytest.raises(ValueError):
        homology_at(SparseMatrix.zero(ZZ, 2, 1), SparseMatrix.zero(ZZ, 1, 1))
    with pytest.raises(RingMismatch):
        homology_at(SparseMatrix.zero(ZZ, 1, 1), SparseMatrix.zero(QQ, 1, 1))
    with pytest.raises(UnsupportedRing):
        homology_at(
            SparseMatrix.zero(IntegersMod(4), 1, 1),
            SparseMatrix.zero(IntegersMod(4), 0, 1),
        )


# -- the pivot-queue elimination kernel ---------------------------------------


def eliminate_by_column_scan(M):
    """Reference pivot order: rescan every column for the fewest live rows
    (ties to the lowest column), then take the live row with the fewest
    entries (ties to the lowest row)."""
    R = M.ring
    rows, col_rows = _rows_and_colindex(M)
    pivots = []
    while True:
        best = None
        for j, rs in col_rows.items():
            live = len(rs)
            if live == 0:
                continue
            if best is None or live < best[1] or (live == best[1] and j < best[0]):
                best = (j, live)
        if best is None:
            break
        c = best[0]
        r = min(col_rows[c], key=lambda i: (len(rows[i]), i))
        pivots.append((r, c))
        pv_inv = R.inv(rows[r][c])
        for r2 in set(col_rows[c]) - {r}:
            f = R.mul(rows[r2][c], pv_inv)
            row2 = rows[r2]
            for j, v in rows[r].items():
                nv = R.sub(row2.get(j, R.zero), R.mul(f, v))
                if R.is_zero(nv):
                    if j in row2:
                        del row2[j]
                        col_rows[j].discard(r2)
                else:
                    if j not in row2:
                        col_rows[j].add(r2)
                    row2[j] = nv
        for j in rows[r]:
            col_rows[j].discard(r)
    return rows, pivots


def random_field_matrix(ring, rng, m, n, density):
    ent = {}
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                v = ring.from_int(rng.randint(-3, 3))
                if ring == QZETA3:
                    v = ring.mul(v, ring.zeta_pow(rng.randrange(3)))
                ent[(i, j)] = v
    return SparseMatrix(ring, m, n, ent)


@pytest.mark.parametrize("ring", [F7, QQ, QZETA3], ids=lambda r: r.name)
@given(seed=st.integers(0, 10**6), m=st.integers(1, 12), n=st.integers(1, 12),
       density=st.sampled_from([0.15, 0.4, 0.8]))
@settings(max_examples=30, deadline=None)
def test_pivot_queue_matches_column_scan(ring, seed, m, n, density):
    M = random_field_matrix(ring, random.Random(seed), m, n, density)
    assert _eliminate(M) == eliminate_by_column_scan(M)


def random_integer_matrix(rng, m, n, values, per_column):
    """Each column gets up to per_column entries, drawn from values."""
    return SparseMatrix(ZZ, m, n, {
        (i, j): rng.choice(values)
        for j in range(n)
        for i in rng.sample(range(m), rng.randint(0, min(m, per_column)))
    })


# values, largest shape, most entries per column
SNF_REGIMES = {
    # boundary-like: a few entries per column, most of them +-1
    "unit-rich": ((1, -1, 1, -1, 1, -1, 2, -2, 3), (30, 60), 4),
    # no pivot is a unit, so the whole matrix reaches the dense stage; the
    # dense reference's entries grow too fast to run it beyond about 10x20
    "no-units": ((2, -2, 3, -3, 6, -6), (10, 20), 10),
}


@pytest.mark.parametrize("regime", sorted(SNF_REGIMES))
@given(seed=st.integers(0, 10**6), zero_lines=st.booleans())
@settings(max_examples=100, deadline=None)
def test_snf_matches_dense_snf_of_the_full_matrix(regime, seed, zero_lines):
    values, (max_rows, max_cols), per_column = SNF_REGIMES[regime]
    rng = random.Random(seed)
    m, n = rng.randint(1, max_rows), rng.randint(1, max_cols)
    M = random_integer_matrix(rng, m, n, values, rng.randint(1, per_column))
    if zero_lines:
        dead_rows = set(rng.sample(range(m), m // 3))
        dead_cols = set(rng.sample(range(n), n // 3))
        M = SparseMatrix(ZZ, m, n, {
            (i, j): v for (i, j), v in M.entries.items()
            if i not in dead_rows and j not in dead_cols
        })
    dense = [[0] * n for _ in range(m)]
    for (i, j), v in M.entries.items():
        dense[i][j] = v
    assert smith_normal_form(M) == _snf_invariants(dense)


@pytest.mark.parametrize("modulus", [4, 6, 9])
@given(seed=st.integers(0, 10**6), m=st.integers(1, 12), n=st.integers(1, 16),
       density=st.sampled_from([0.15, 0.5]))
@settings(max_examples=20, deadline=None)
def test_snf_over_zmod_matches_dense_snf(modulus, seed, m, n, density):
    rng = random.Random(seed)
    rows = [
        [rng.randrange(modulus) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(m)
    ]
    lifted = rows + [[modulus * (i == j) for j in range(n)] for i in range(n)]
    expected = [d % modulus for d in _snf_invariants(lifted) if d % modulus]
    assert smith_normal_form(SparseMatrix.from_rows(IntegersMod(modulus), rows)) == expected


def test_snf_over_zmod_sends_only_the_residual_to_the_dense_stage(monkeypatch):
    """m * e_j is appended only for the residual's columns: an 80x160 matrix
    over Z/4 used to carry all 160 appended rows into the dense stage."""
    modulus, m, n = 4, 80, 160
    rng = random.Random(0)
    entries = {
        (i, j): rng.randrange(1, modulus) for j in range(n) for i in rng.sample(range(m), 3)
    }
    M = SparseMatrix(IntegersMod(modulus), m, n, entries)
    lifted = {k: v - modulus if 2 * v > modulus else v for k, v in entries.items()}
    rows, pivots = _eliminate(SparseMatrix(ZZ, m, n, lifted))
    pivot_rows = {r for r, _ in pivots}
    residual_rows = sum(1 for i, row in enumerate(rows) if row and i not in pivot_rows)

    shapes = []
    dense_snf = sparse._snf_invariants

    def recording(dense):
        shapes.append((len(dense), len(dense[0]) if dense else 0))
        return dense_snf(dense)

    monkeypatch.setattr(sparse, "_snf_invariants", recording)
    inv = smith_normal_form(M)
    assert len(shapes) == 1
    dense_rows, dense_cols = shapes[0]
    assert dense_rows <= residual_rows + dense_cols
    # the former route: the whole lift with m * identity rows through the kernel
    for j in range(n):
        lifted[(m + j, j)] = modulus
    full = sparse._integer_invariants(SparseMatrix(ZZ, m + n, n, lifted))
    assert inv == [d % modulus for d in full if d % modulus]


# -- the sparse product ---------------------------------------------------------


def matmul_by_indexing_the_left(A, B):
    """Reference product: index the left operand by column, scan the right
    one, and add every product into the result with a zero check."""
    R = A.ring
    rows = {}
    for (i, j), v in A.entries.items():
        rows.setdefault(j, []).append((i, v))
    out = {}
    for (j, l), w in B.entries.items():
        for i, v in rows.get(j, ()):
            k = (i, l)
            s = R.add(out.get(k, R.zero), R.mul(v, w))
            if R.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
    return SparseMatrix(R, A.nrows, B.ncols, out)


F3 = PrimeField(3)


def random_signed_matrix(ring, rng, m, n, density):
    """Entries +-1 and +-2 (as ring elements), times a power of zeta over
    Q(zeta3): many products cancel in the sums."""
    ent = {}
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                v = ring.from_int(rng.choice((1, -1, 1, -1, 2, -2)))
                if ring == QZETA3:
                    v = ring.mul(v, ring.zeta_pow(rng.randrange(3)))
                if not ring.is_zero(v):
                    ent[(i, j)] = v
    return SparseMatrix(ring, m, n, ent)


@pytest.mark.parametrize("ring", [ZZ, QQ, F3, QZETA3], ids=lambda r: r.name)
@given(seed=st.integers(0, 10**6), m=st.integers(0, 9), k=st.integers(0, 9),
       n=st.integers(0, 9), left=st.sampled_from([0.1, 0.5, 0.9]),
       right=st.sampled_from([0.1, 0.5, 0.9]))
@settings(max_examples=60, deadline=None)
def test_product_matches_the_reference(ring, seed, m, k, n, left, right):
    rng = random.Random(seed)
    A = random_signed_matrix(ring, rng, m, k, left)
    B = random_signed_matrix(ring, rng, k, n, right)
    P = A @ B
    assert P == matmul_by_indexing_the_left(A, B)
    assert not any(ring.is_zero(v) for v in P.entries.values())


@pytest.mark.parametrize("ring", [ZZ, QQ, F3, QZETA3], ids=lambda r: r.name)
def test_product_either_operand_larger_with_cancellation(ring):
    rng = random.Random(5)
    one, minus = ring.one, ring.neg(ring.one)
    # [1 1] @ [[1, 1], [-1, 1]]: the first column cancels to zero
    row = SparseMatrix(ring, 1, 2, {(0, 0): one, (0, 1): one})
    square = SparseMatrix(ring, 2, 2, {(0, 0): one, (0, 1): one, (1, 0): minus, (1, 1): one})
    for A, B in ((row, square), (square.transpose(), row.transpose())):
        P = A @ B
        assert P == matmul_by_indexing_the_left(A, B)
        assert len(P.entries) == 1
    for shape in ((30, 4, 30), (4, 30, 4)):
        m, k, n = shape
        for dense_left in (True, False):
            A = random_signed_matrix(ring, rng, m, k, 0.8 if dense_left else 0.1)
            B = random_signed_matrix(ring, rng, k, n, 0.1 if dense_left else 0.8)
            assert (len(A.entries) > len(B.entries)) == dense_left
            assert A @ B == matmul_by_indexing_the_left(A, B)
            # [A | -A] @ [B ; B] = AB - AB cancels everywhere
            stacked = B.transpose().hstack(B.transpose()).transpose()
            assert (A.hstack(-A) @ stacked).is_zero


def test_from_columns_checks_every_entry():
    with pytest.raises(IndexError):
        SparseMatrix.from_columns(QQ, 2, [{0: Fraction(1)}, {2: Fraction(1)}])
    with pytest.raises(IndexError):
        SparseMatrix.from_columns(QQ, 2, [{-1: Fraction(1)}])
    M = SparseMatrix.from_columns(QQ, 3, [{0: Fraction(0), 2: Fraction(5)}, {}])
    assert (M.nrows, M.ncols) == (3, 2)
    assert M.entries == {(2, 0): Fraction(5)}


# -- elimination over Q with int payloads, against Fraction payloads ---------


class FractionRationalField(Ring):
    """Reference: Q with Fraction payloads throughout, the field's former
    payload (the same reference as in test_rings)."""

    name = "Q"
    is_field = True
    contains_rationals = True

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, c):
        return Fraction(c)

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        return 1 / Fraction(a)


QQ_REF = FractionRationalField()


@pytest.mark.parametrize("entries", ["integral", "fractional"])
@given(seed=st.integers(0, 10**6), m=st.integers(1, 10), n=st.integers(1, 10),
       density=st.sampled_from([0.2, 0.5, 0.9]))
@settings(max_examples=40, deadline=None)
def test_elimination_over_q_matches_fraction_payloads(entries, seed, m, n, density):
    rng = random.Random(seed)
    top_den = 6 if entries == "fractional" else 1
    values = {}
    for i in range(m):
        for j in range(n):
            if rng.random() < density:
                values[(i, j)] = Fraction(rng.randint(-4, 4), rng.randint(1, top_den))
    # the same matrix with canonical payloads (int when integral) and as Fractions
    M = SparseMatrix(QQ, m, n, {k: QQ.add(0, v) for k, v in values.items()})
    ref = SparseMatrix(QQ_REF, m, n, values)
    assert rank(M) == rank(ref)
    rows, pivots = _eliminate(M)
    assert (rows, pivots) == _eliminate(ref)
    assert all(type(v) is int or v.denominator > 1 for row in rows for v in row.values())
    if entries == "integral":
        assert all(type(v) is int for v in M.entries.values())
