"""Exact sparse matrices: rank over fields, Smith normal form over
Z and Z/m, and homology of a composable pair of boundary maps.

Matrices are dictionaries (row, col) -> nonzero payload together with a ring.
They are treated as immutable; every operation returns a fresh matrix.  No
row or column index is cached on a matrix (one per operator would cost more
memory than it saves time): a product indexes whichever operand has fewer
entries by the shared index, scans the other, and drops the sums that cancel
in one pass at the end.  Over int payloads (Z, Z/m and F_p, see
`Ring.int_payloads`) it sums the raw int products and reduces each sum mod
m once, dropping the sums that are zero mod m; elsewhere it adds with the
ring's methods.  The constructor checks every entry; operations
whose entries are in range and nonzero by construction (negation,
transpose, sums and products after dropping their zeros) skip it.

Every rank and Smith normal form goes through one elimination kernel,
`_eliminate`.  It keeps rows as dictionaries and takes pivots from a lazy
min-heap of columns keyed by (live row count, column), so the next pivot
column is always the sparsest one (Markowitz order) without rescanning the
matrix.  Only unit entries qualify as pivots: every nonzero entry over a
field, +-1 over Z.  A column with one live row is a pivot as it stands,
with no inverse and no row operation; the kernel takes these first from a
heap of bare column indices, and builds the (count, column) queue only
for what is left.  Otherwise the pivot column's entries in the other live
rows are dropped, not computed, since they cancel exactly.  The row update
row2 -= f * pivot_row has two forms, picked once per call: over int
payloads it is int arithmetic reduced mod m (no reduction over Z), with a
truthiness test for zero; over Q and Q(zeta_n) it calls the ring's
methods.  Pivot selection and the bookkeeping are shared.  The Smith
normal form over Z runs in two phases: the
kernel eliminates the +-1 pivots sparsely, each contributing an invariant
factor 1, and a dense Smith normal form reduces the small residual that is
left.  Over Z/m the matrix is lifted to Z; the residual is reduced mod m
and m * identity rows are appended for its columns only.  `homology_sequence`
reduces every boundary of a complex once for a whole table of degrees.

Every public engine that answers a query (the HH and HC engines of
`cyclic`, `ChainComplexWindow.homology`, the cyclic-law and Hopf-axiom
checks, the small-resolution engines of `quivers`, the group checks and
`cli.run`) is wrapped in `_paused`: it runs with the cyclic garbage
collector off, and the caller's state comes back when it returns or
raises; inside another paused engine the call passes straight through.
Builders and kernels are not wrapped.  An engine allocates millions of
entry-key tuples, payload tuples and entry dicts, which the collector would
walk every 700 container allocations, but none of them forms a reference
cycle, so the pause frees nothing later and holds no memory:
`tests/test_collector.py` runs engines of every kind with the collector off
and `gc.collect()` then finds nothing to free.  The collector is
process-wide, so another thread's cyclic garbage waits until the engine
returns.
"""

from __future__ import annotations

import gc
from functools import wraps
from heapq import heapify, heappop, heappush

from .errors import NotAComplex, NotAField, RingMismatch, UnsupportedRing
from .rings import ZZ, HomologyModule, IntegersMod, Ring


def _paused(engine):
    """`engine` run with the cyclic garbage collector off, and the
    caller's collector state restored when it returns or raises.  When the
    collector is already off, as inside another paused engine, the call
    passes straight through."""

    @wraps(engine)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return engine(*args, **kwargs)
        gc.disable()
        try:
            return engine(*args, **kwargs)
        finally:
            gc.enable()

    return paused


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
        one = ring.one
        return cls._unchecked(ring, n, n, {(i, i): one for i in range(n)})

    @classmethod
    def from_rows(cls, ring, rows):
        """rows: list of lists of payloads or ints; zero payloads are dropped."""
        ent = {(i, j): v if not isinstance(v, int) or ring == ZZ else ring.from_int(v)
               for i, row in enumerate(rows) for j, v in enumerate(row)}
        return cls(ring, len(rows), len(rows[0]) if rows else 0, ent)

    @classmethod
    def from_columns(cls, ring, nrows, columns):
        """columns: list of dicts row -> payload; zero payloads are dropped."""
        ent = {(i, j): v for j, col in enumerate(columns) for i, v in col.items()}
        return cls(ring, nrows, len(columns), ent)

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
        mul, add, ints = R.mul, R.add, R.int_payloads
        out = {}
        get = out.get
        # index the operand with fewer entries by the shared index, scan the
        # other; over int payloads sum the raw products and reduce once
        if len(self.entries) <= len(other.entries):
            by_col = {}
            for (i, j), v in self.entries.items():
                by_col.setdefault(j, []).append((i, v))
            if ints:
                for (j, l), w in other.entries.items():
                    for i, v in by_col.get(j, ()):
                        k = (i, l)
                        out[k] = get(k, 0) + v * w
            else:
                for (j, l), w in other.entries.items():
                    for i, v in by_col.get(j, ()):
                        k = (i, l)
                        s = get(k)
                        out[k] = mul(v, w) if s is None else add(s, mul(v, w))
        else:
            by_row = {}
            for (j, l), w in other.entries.items():
                by_row.setdefault(j, []).append((l, w))
            if ints:
                for (i, j), v in self.entries.items():
                    for l, w in by_row.get(j, ()):
                        k = (i, l)
                        out[k] = get(k, 0) + v * w
            else:
                for (i, j), v in self.entries.items():
                    for l, w in by_row.get(j, ()):
                        k = (i, l)
                        s = get(k)
                        out[k] = mul(v, w) if s is None else add(s, mul(v, w))
        # drop the sums that cancelled to zero, once; over Z/m a product of
        # zero divisors vanishes too (2 * 2 in Z/4)
        if not ints:
            is_zero = R.is_zero
            out = {k: v for k, v in out.items() if not is_zero(v)}
        elif p := R.characteristic:
            out = {k: r for k, v in out.items() if (r := v % p)}
        else:
            out = {k: v for k, v in out.items() if v}
        return SparseMatrix._unchecked(R, self.nrows, other.ncols, out)

    def transpose(self):
        return SparseMatrix._unchecked(
            self.ring,
            self.ncols,
            self.nrows,
            {(j, i): v for (i, j), v in self.entries.items()},
        )

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
    """The rows of M as dicts col -> payload and the column index col ->
    set of rows, in one pass over the entries."""
    rows = [{} for _ in range(M.nrows)]
    col_rows = {}
    get = col_rows.get
    for (i, j), v in M.entries.items():
        rows[i][j] = v
        rs = get(j)
        if rs is None:
            col_rows[j] = {i}
        else:
            rs.add(i)
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
    from the live rows only: its entries there become zero exactly, so they
    are dropped without arithmetic, and a column with one live row clears
    nothing and needs no inverse.  The ring operations are looked up once.

    Columns with one live row come first in that order, and taking one
    changes no entry, so a first phase takes them from a heap of column
    indices alone, pushing a column when its count falls to 1.  When none is
    left, or over Z at the first non-unit one, the live columns go to the
    (count, column) queue, which goes on in the same order.
    """
    R = M.ring
    mul, sub, neg, is_zero = R.mul, R.sub, R.neg, R.is_zero
    is_unit = None if R.is_field else R.is_unit
    # the row update over int payloads: int arithmetic reduced mod p, where
    # p = 0 (over Z) reduces nothing; None takes the ring methods
    p = R.characteristic if R.int_payloads else None
    rows, col_rows = _rows_and_colindex(M)  # column index over live rows only
    pivots = []
    # singleton phase: retiring a row only lowers counts, so a column joins
    # the singletons once, when its count falls to 1, and leaves at 0
    singles = [j for j, rs in col_rows.items() if len(rs) == 1]
    heapify(singles)
    while singles:
        c = heappop(singles)
        rs = col_rows[c]
        if not rs:
            continue
        (r,) = rs
        if is_unit is not None and not is_unit(rows[r][c]):
            break  # the queue skips this column, as it skips any non-unit singleton
        pivots.append((r, c))
        for j in rows[r]:
            rs = col_rows[j]
            rs.discard(r)
            if len(rs) == 1:
                heappush(singles, j)
    queue = [(len(rs), j) for j, rs in col_rows.items() if rs]
    heapify(queue)
    while queue:
        live, c = heappop(queue)
        rs = col_rows[c]
        if live != len(rs):
            continue
        if live == 1:
            (r,) = rs
            if is_unit is not None and not is_unit(rows[r][c]):
                continue
            pivots.append((r, c))
        else:
            units = rs if is_unit is None else [i for i in rs if is_unit(rows[i][c])]
            if not units:
                continue
            r = min(units, key=lambda i: (len(rows[i]), i))
            pivots.append((r, c))
            pivot_row = rows[r]
            pv_inv = R.inv(pivot_row[c])
            terms = [(j, v) for j, v in pivot_row.items() if j != c]
            for r2 in rs:
                if r2 == r:
                    continue
                row2 = rows[r2]
                if p is None:
                    f = mul(row2.pop(c), pv_inv)
                    for j, v in terms:
                        w = mul(f, v)
                        old = row2.get(j)
                        if old is None:
                            # fill-in: -f v is nonzero over a field and over Z
                            row2[j] = neg(w)
                            col_rows[j].add(r2)
                        else:
                            nv = sub(old, w)
                            if is_zero(nv):
                                del row2[j]
                                col_rows[j].discard(r2)
                            else:
                                row2[j] = nv
                else:
                    f = row2.pop(c) * pv_inv
                    for j, v in terms:
                        old = row2.get(j)
                        if old is None:
                            # fill-in: -f v can vanish mod a composite m
                            nv = -f * v % p if p else -f * v
                            if nv:
                                row2[j] = nv
                                col_rows[j].add(r2)
                        else:
                            nv = old - f * v
                            if p:
                                nv %= p
                            if nv:
                                row2[j] = nv
                            else:
                                del row2[j]
                                col_rows[j].discard(r2)
            col_rows[c] = {r}
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


def homology_window(boundary, first: int, last: int) -> list[HomologyModule]:
    """H_first..H_last of the complex with boundaries D_n = boundary(n): C_n ->
    C_(n-1).  H_n reads D_n and D_(n+1), and D_0 = 0, so the window builds
    D_max(first,1)..D_(last+1) in order, through one `homology_sequence`."""
    sequence = homology_sequence(boundary(n) for n in range(max(first, 1), last + 2))
    # from D_first on, the first entry is the cokernel of D_first, not H_(first-1)
    return sequence[1:] if first else sequence
