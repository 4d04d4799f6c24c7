"""Exact sparse matrices: rank over fields, Smith normal form over
Z and Z/m, and homology of a composable pair of boundary maps.

Matrices are dictionaries (row, col) -> nonzero payload together with a ring.
They are treated as immutable; every operation returns a fresh matrix.  No
row or column index is cached on a matrix (one per operator would cost more
memory than it saves time): a product indexes whichever operand has fewer
entries by the shared index, scans the other, and drops the sums that cancel
in one pass at the end.  The constructor checks every entry; operations
whose entries are in range and nonzero by construction (negation,
transpose, stacking, sums and products after dropping their zeros) skip it.

Every rank and Smith normal form goes through one elimination kernel,
`_eliminate`.  It keeps rows as dictionaries and takes pivots from a lazy
min-heap of columns keyed by (live row count, column), so the next pivot
column is always the sparsest one (Markowitz order) without rescanning the
matrix.  Only unit entries qualify as pivots: every nonzero entry over a
field, +-1 over Z.  The Smith normal form over Z runs in two phases: the
kernel eliminates the +-1 pivots sparsely, each contributing an invariant
factor 1, and a dense Smith normal form reduces the small residual that is
left.  Over Z/m the matrix is lifted to Z; the residual is reduced mod m
and m * identity rows are appended for its columns only.  `homology_sequence`
reduces every boundary of a complex once for a whole table of degrees.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import NotAComplex, NotAField, RingMismatch, UnsupportedRing
from .rings import ZZ, HomologyModule, IntegersMod, Ring


class SparseMatrix:
    __slots__ = ("ring", "nrows", "ncols", "entries")

    def __init__(self, ring: Ring, nrows: int, ncols: int, entries=None):
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self.entries = ent = {}
        if entries:
            is_zero = ring.is_zero
            for key, v in entries.items():
                i, j = key
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                if not is_zero(v):
                    ent[key] = v

    # -- constructors --------------------------------------------------------
    @classmethod
    def _unchecked(cls, ring, nrows, ncols, entries):
        """A matrix on `entries` as given, unchecked: for operations whose keys
        are in range and whose values are nonzero by construction."""
        out = cls.__new__(cls)
        out.ring, out.nrows, out.ncols, out.entries = ring, nrows, ncols, entries
        return out

    @classmethod
    def zero(cls, ring, nrows, ncols):
        return cls(ring, nrows, ncols)

    @classmethod
    def identity(cls, ring, n):
        return cls._unchecked(ring, n, n, {(i, i): ring.one for i in range(n)})

    @classmethod
    def from_rows(cls, ring, rows):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        ent = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                v = v if not isinstance(v, int) or ring == ZZ else ring.from_int(v)
                if not ring.is_zero(v):
                    ent[(i, j)] = v
        return cls(ring, nrows, ncols, ent)

    @classmethod
    def from_columns(cls, ring, nrows, columns):
        """columns: list of dicts row -> payload; zero payloads are dropped."""
        out = cls(ring, nrows, len(columns))
        ent, is_zero = out.entries, ring.is_zero
        for j, col in enumerate(columns):
            for i, v in col.items():
                if not 0 <= i < nrows:
                    raise IndexError(f"entry ({i},{j}) outside {nrows}x{len(columns)}")
                if not is_zero(v):
                    ent[(i, j)] = v
        return out

    # -- basic algebra -------------------------------------------------------
    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        ent = dict(self.entries)
        R = self.ring
        for k, v in other.entries.items():
            s = R.add(ent.get(k, R.zero), v)
            if R.is_zero(s):
                ent.pop(k, None)
            else:
                ent[k] = s
        return SparseMatrix._unchecked(R, self.nrows, self.ncols, ent)

    def __neg__(self):
        neg = self.ring.neg
        return SparseMatrix._unchecked(
            self.ring, self.nrows, self.ncols, {k: neg(v) for k, v in self.entries.items()}
        )

    def __sub__(self, other):
        return self + (-other)

    def __matmul__(self, other):
        self._check(other)
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in product")
        R = self.ring
        mul, add = R.mul, R.add
        out = {}
        get = out.get
        # index the operand with fewer entries by the shared index, scan the other
        if len(self.entries) <= len(other.entries):
            by_col = {}
            for (i, j), v in self.entries.items():
                by_col.setdefault(j, []).append((i, v))
            for (j, l), w in other.entries.items():
                for i, v in by_col.get(j, ()):
                    k = (i, l)
                    s = get(k)
                    out[k] = mul(v, w) if s is None else add(s, mul(v, w))
        else:
            by_row = {}
            for (j, l), w in other.entries.items():
                by_row.setdefault(j, []).append((l, w))
            for (i, j), v in self.entries.items():
                for l, w in by_row.get(j, ()):
                    k = (i, l)
                    s = get(k)
                    out[k] = mul(v, w) if s is None else add(s, mul(v, w))
        # drop the sums that cancelled to zero, once
        is_zero = R.is_zero
        out = {k: v for k, v in out.items() if not is_zero(v)}
        return SparseMatrix._unchecked(R, self.nrows, other.ncols, out)

    def transpose(self):
        return SparseMatrix._unchecked(
            self.ring,
            self.ncols,
            self.nrows,
            {(j, i): v for (i, j), v in self.entries.items()},
        )

    def hstack(self, other):
        self._check(other)
        if self.nrows != other.nrows:
            raise ValueError("row mismatch in hstack")
        ent = dict(self.entries)
        for (i, j), v in other.entries.items():
            ent[(i, j + self.ncols)] = v
        return SparseMatrix._unchecked(self.ring, self.nrows, self.ncols + other.ncols, ent)

    # -- access --------------------------------------------------------------
    def column(self, j):
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def nnz(self):
        return len(self.entries)

    @property
    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.ring == other.ring
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.ring}, {self.nrows}x{self.ncols}, nnz={len(self.entries)})"


# ---------------------------------------------------------------------------
# elimination over fields
# ---------------------------------------------------------------------------


def _rows_and_colindex(M: SparseMatrix):
    rows = [dict() for _ in range(M.nrows)]
    for (i, j), v in M.entries.items():
        rows[i][j] = v
    col_rows = {}
    for i, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    return rows, col_rows


def _eliminate(M: SparseMatrix):
    """Sparse elimination with a pivot queue; returns (rows, pivots).

    pivots is a list of (row_index, col_index).  The next pivot column is the
    one with the fewest live (not yet pivot) rows, ties going to the lowest
    column index, and its pivot row the one with the fewest entries, ties
    going to the lowest row index.  Only entries that are units of the ring
    qualify: over Z a column whose live entries are all non-units is skipped
    until one of its entries changes.  A pivot changes live counts only in
    the columns of its own row, so only those are pushed back on the queue;
    stale queue entries are dropped when popped.  The pivot column is cleared
    from the live rows only.
    """
    R = M.ring
    rows, col_rows = _rows_and_colindex(M)  # column index over live rows only
    pivots = []
    queue = [(len(rs), j) for j, rs in col_rows.items()]
    heapify(queue)
    while queue:
        live, c = heappop(queue)
        if live != len(col_rows[c]):
            continue
        units = [i for i in col_rows[c] if R.is_unit(rows[i][c])]
        if not units:
            continue
        r = min(units, key=lambda i: (len(rows[i]), i))
        pivots.append((r, c))
        pv_inv = R.inv(rows[r][c])
        for r2 in col_rows[c] - {r}:
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
        # retire the pivot row from further pivot selection
        for j in rows[r]:
            rs = col_rows[j]
            rs.discard(r)
            if rs:
                heappush(queue, (len(rs), j))
    return rows, pivots


def rank(M: SparseMatrix) -> int:
    """Rank of a matrix over a field, by exact sparse elimination."""
    if not M.ring.is_field:
        raise NotAField(f"rank needs a field, got {M.ring}")
    _, pivots = _eliminate(M)
    return len(pivots)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def _snf_invariants(dense):
    """Nonzero invariant factors of a dense integer matrix (list of lists)."""
    A = [row[:] for row in dense]
    m = len(A)
    n = len(A[0]) if A else 0
    t = 0
    invariants = []
    while t < min(m, n):
        # locate a nonzero entry of smallest magnitude in the trailing block
        pr = pc = None
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                v = Ai[j]
                if v and (best is None or abs(v) < best):
                    best, pr, pc = abs(v), i, j
        if pr is None:
            break
        A[t], A[pr] = A[pr], A[t]
        for row in A:
            row[t], row[pc] = row[pc], row[t]
        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    for j in range(t, n):
                        A[i][j] -= q * A[t][j]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for i in range(t, m):
                        A[i][j] -= q * A[i][t]
                    if A[t][j]:
                        for i in range(t, m):
                            A[i][t], A[i][j] = A[i][j], A[i][t]
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the trailing block by the pivot
            d = A[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if A[i][j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, n):
                A[t][j] += A[offender][j]
        invariants.append(abs(A[t][t]))
        t += 1
    return invariants


def _integer_invariants(M: SparseMatrix, m: int = 0) -> list[int]:
    """Nonzero invariant factors of a matrix over Z, or over Z/m when m > 0.

    Each +-1 pivot of the elimination kernel is a unimodular row and column
    operation: it contributes the invariant factor 1, and its row and column
    leave the matrix.  The rows that are not pivots form the residual, which
    the dense `_snf_invariants` reduces.  Over Z/m the lattice also holds
    m * Z^n, so the residual entries are reduced mod m and m * e_j is
    appended for the residual's columns only (the m * e_j of an eliminated
    column lies in the lattice spanned by the others).
    """
    rows, pivots = _eliminate(M)
    pivot_rows = {r for r, _ in pivots}
    residual = [row for i, row in enumerate(rows) if row and i not in pivot_rows]
    if m:
        residual = [{j: _lift(v % m, m) for j, v in row.items() if v % m} for row in residual]
        residual = [row for row in residual if row]
    cols = {j: k for k, j in enumerate(sorted({j for row in residual for j in row}))}
    dense = [[0] * len(cols) for _ in residual]
    for drow, row in zip(dense, residual):
        for j, v in row.items():
            drow[cols[j]] = v
    if m:
        dense += [[m * (k == j) for j in range(len(cols))] for k in range(len(cols))]
    return [1] * len(pivots) + _snf_invariants(dense)


def _lift(v: int, m: int) -> int:
    """The representative of the residue v in (-m/2, m/2], so that m - 1 is -1."""
    return v - m if 2 * v > m else v


def smith_normal_form(M: SparseMatrix) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of a matrix over Z or Z/m.

    Over Z/m these are the invariant factors of the lift of M to Z stacked on
    m * identity, reduced mod m (zeros dropped); the lift takes residues in
    (-m/2, m/2], so that m - 1 becomes the unit pivot -1.
    """
    if M.ring == ZZ:
        return _integer_invariants(M)
    if isinstance(M.ring, IntegersMod):
        m = M.ring.m
        lifted = {k: _lift(v, m) for k, v in M.entries.items()}
        inv = _integer_invariants(SparseMatrix(ZZ, M.nrows, M.ncols, lifted), m)
        return [d % m for d in inv if d % m]
    raise UnsupportedRing(f"Smith normal form over {M.ring} is not supported")


# ---------------------------------------------------------------------------
# homology of a pair of boundary maps
# ---------------------------------------------------------------------------


def _rank_and_torsion(d: SparseMatrix) -> tuple[int, tuple[int, ...]]:
    """Rank of a boundary and, over Z, its invariant factors > 1."""
    R = d.ring
    if R.is_field:
        return rank(d), ()
    if R == ZZ:
        invariants = smith_normal_form(d)
        return len(invariants), tuple(x for x in invariants if x > 1)
    raise UnsupportedRing(f"homology over {R} is not supported")


def homology_at(d_in: SparseMatrix, d_out: SparseMatrix) -> HomologyModule:
    """ker(d_out) / im(d_in) for d_in: C_{p+1} -> C_p, d_out: C_p -> C_{p-1},
    after checking d_out . d_in = 0.

    Over a field the answer has dimension dim ker(d_out) - rank(d_in).
    Over Z both maps go through the Smith normal form: a rank is the number of
    nonzero invariant factors, and the torsion is the list of invariant
    factors > 1 of d_in (ker d_out is a saturated subgroup, so the elementary
    divisors of im(d_in) inside it agree with those inside the ambient
    lattice).
    """
    return homology_sequence([d_out, d_in])[1]


def homology_sequence(boundaries) -> list[HomologyModule]:
    """H_0..H_N of a complex given by its boundaries D_1, ..., D_(N+1) in order.

    Every boundary is reduced (rank or Smith normal form) once, and only the
    previous boundary is kept, for the d^2 = 0 check of each adjacent pair.
    The boundaries may be a generator, so each is built only when it is
    needed.
    """
    out = []
    prev, prev_rank = None, 0
    for d in boundaries:
        if prev is not None:
            if d.ring != prev.ring:
                raise RingMismatch("boundary maps over different rings")
            if d.nrows != prev.ncols:
                raise ValueError("boundary maps are not composable")
            if not (prev @ d).is_zero:
                raise NotAComplex("d_out . d_in != 0")
        r, torsion = _rank_and_torsion(d)
        out.append(HomologyModule(d.ring, d.nrows - prev_rank - r, torsion))
        prev, prev_rank = d, r
    return out
