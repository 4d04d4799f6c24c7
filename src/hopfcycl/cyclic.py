"""Cyclic modules and their homology engines.

A cyclic module is presented operator-wise: carrier dimensions per level,
face / degeneracy / cyclic operators as exact sparse matrices.  Level m has
faces d_0..d_m, degeneracies s_0..s_m and a cyclic operator t with
t^(m+1) = id.  Carriers are tensor powers of a basis of size d, and the
operators are assembled by index arithmetic on the base-d digits of the
basis index; no basis tuple is decoded, and no operator stores a zero
entry.  Two main instances live here:

* the Connes-Moscovici module of a Hopf algebra with an admissible
  (grouplike, character, character) triple, whose level-m carrier is the
  m-th tensor power of the algebra; its cyclic operator folds all legs of
  a column but the last, and closes the column with a per-module table of
  the last leg with beta and S_pi applied, and
* the classical cyclic module of an algebra, with carrier the (m+1)-st
  tensor power.

On top of the operators sit the homology engines: the Hochschild b-complex,
the (b, b', 1-t, N) first-quadrant bicomplex (works over Z as well), the
Connes quotient by the cyclic action (rings containing Q), and the
rank-bookkeeping checker for the periodicity long exact sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .errors import (
    IndexOutOfRange,
    NotAComplex,
    PreconditionFailed,
    RingWithoutRationals,
)
from .hopf import CMTriple, Character, HopfAlgebraData, twisted_antipode
from .rings import HomologyModule, Ring
from .sparse import SparseMatrix, homology_at, homology_sequence, rank


def tuple_to_index(t, d):
    idx = 0
    for x in t:
        idx = idx * d + x
    return idx


def index_to_tuple(idx, d, length):
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        idx, out[pos] = divmod(idx, d)
    return tuple(out)


# Operators on tensor powers are assembled by index arithmetic: a basis
# tensor of length p + 2 + s (or p + s) is the index (A * d + x) * d**s + C
# with A the index of its first p legs and C that of its last s legs, so an
# operator acting on the middle legs only moves the middle digit(s).  The
# structure constants and the unit of an `AlgebraData` hold no zeros, so the
# operators built from them skip the constructor's zero check.


def _merge_face(ring, d, mult, p, s):
    """The face multiplying legs p and p + 1 of a tensor of length p + 2 + s:
    column ((A * d + x) * d + y) * D + C goes to rows (A * d + k) * D + C,
    D = d**s, with the structure constants mult[x][y][k]."""
    D = d**s
    # the row offsets k * D and constants of each (x, y), in column order
    pair_terms = [[(k * D, c) for k, c in mult[x][y].items()] for x in range(d) for y in range(d)]
    ent = {}
    col = 0
    for A in range(d**p):
        base = A * d * D
        for terms in pair_terms:
            for C in range(base, base + D):
                for k, c in terms:
                    ent[(k + C, col)] = c
                col += 1
    return SparseMatrix._unchecked(ring, d ** (p + 1 + s), col, ent)


def _insert_unit(ring, d, unit, p, s):
    """The degeneracy inserting the unit after the first p legs of a tensor of
    length p + s: column A * D + C goes to rows (A * d + u) * D + C, D = d**s."""
    D = d**s
    terms = [(u * D, c) for u, c in unit.items()]
    ent = {}
    for A in range(d**p):
        base = A * d * D
        for C in range(D):
            col = A * D + C
            for u, c in terms:
                ent[(base + u + C, col)] = c
    return SparseMatrix._unchecked(ring, d ** (p + 1 + s), d ** (p + s), ent)


class CyclicModule:
    """Operator-level view of a cyclic module; subclasses fill in columns."""

    ring: Ring

    def level_dim(self, m: int) -> int:
        raise NotImplementedError

    def _face(self, m: int, i: int) -> SparseMatrix:
        raise NotImplementedError

    def _degeneracy(self, m: int, i: int) -> SparseMatrix:
        raise NotImplementedError

    def _cyclic(self, m: int) -> SparseMatrix:
        raise NotImplementedError

    def __init__(self):
        self._cache: dict = {}

    def face(self, m: int, i: int) -> SparseMatrix:
        if m < 1 or not 0 <= i <= m:
            raise IndexOutOfRange(f"face d_{i} undefined at level {m}")
        return self._memo(("d", m, i), lambda: self._face(m, i))

    def degeneracy(self, m: int, i: int) -> SparseMatrix:
        if m < 0 or not 0 <= i <= m:
            raise IndexOutOfRange(f"degeneracy s_{i} undefined at level {m}")
        return self._memo(("s", m, i), lambda: self._degeneracy(m, i))

    def cyclic(self, m: int) -> SparseMatrix:
        if m < 0:
            raise IndexOutOfRange("negative level")
        return self._memo(("t", m), lambda: self._cyclic(m))

    def _memo(self, key, thunk):
        out = self._cache.get(key)
        if out is None:
            out = thunk()
            self._cache[key] = out
        return out

    # -- derived operators ---------------------------------------------------
    def boundary_b(self, m: int) -> SparseMatrix:
        """Hochschild boundary sum((-1)^i d_i), i = 0..m."""
        return self._memo(("b", m), lambda: self._alternating_faces(m, m + 1))

    def boundary_bprime(self, m: int) -> SparseMatrix:
        """Truncated boundary sum((-1)^i d_i), i = 0..m-1 (acyclic column)."""
        return self._memo(("bp", m), lambda: self._alternating_faces(m, m))

    def _alternating_faces(self, m: int, count: int) -> SparseMatrix:
        """sum((-1)^i d_i) over i < count, accumulated in one entries dict;
        the constructor drops the sums that cancelled to zero."""
        R = self.ring
        add, sub, neg = R.add, R.sub, R.neg
        ent: dict = {}
        get = ent.get
        for i in range(count):
            face = self.face(m, i).entries
            if i % 2 == 0:
                for k, v in face.items():
                    s = get(k)
                    ent[k] = v if s is None else add(s, v)
            else:
                for k, v in face.items():
                    s = get(k)
                    ent[k] = neg(v) if s is None else sub(s, v)
        return SparseMatrix(R, self.level_dim(m - 1), self.level_dim(m), ent)

    def signed_cyclic(self, m: int) -> SparseMatrix:
        t = self.cyclic(m)
        return t if m % 2 == 0 else -t

    def one_minus_lambda(self, m: int) -> SparseMatrix:
        """1 - lambda = 1 - (-1)^m t, in one pass over the entries of t."""
        R = self.ring
        n = self.level_dim(m)
        t = self.cyclic(m).entries
        ent = dict(t) if m % 2 else {k: R.neg(v) for k, v in t.items()}
        one, add = R.one, R.add
        for i in range(n):
            s = ent.get((i, i))
            ent[(i, i)] = one if s is None else add(s, one)
        # the constructor drops the diagonal sums that cancelled
        return SparseMatrix(R, n, n, ent)

    def norm(self, m: int) -> SparseMatrix:
        """N = sum(lambda^i, i = 0..m) with lambda the signed cyclic operator."""

        def build():
            lam = self.signed_cyclic(m)
            acc = SparseMatrix.identity(self.ring, self.level_dim(m))
            out = acc
            for _ in range(m):
                acc = lam @ acc
                out = out + acc
            return out

        return self._memo(("N", m), build)


# ---------------------------------------------------------------------------
# the Connes-Moscovici cyclic module of a Hopf algebra
# ---------------------------------------------------------------------------


class ConnesMoscoviciModule(CyclicModule):
    """C_m = H^(tensor m), with operators twisted by (pi, alpha, beta).

    d_0 applies alpha to the first leg, d_m applies beta to the last one and
    the inner faces multiply neighbouring legs.  The cyclic operator sends
    h_1 (x) ... (x) h_m, with three-leg coproducts x_p (x) y_p (x) z_p, to

        alpha(x_1 ... x_m) beta(z_m) S_pi(y_1 ... y_m) (x) z_1 (x) ... (x) z_(m-1).

    Operators are materialized column by column in basis-index order.  The
    three-leg coproducts are pre-contracted with alpha per basis element,
    and the last leg h_m, which enters only through beta(z_m) and the
    closing S_pi, is pre-contracted with the second-leg product of the legs
    before it into one table per module (`_closing`).
    """

    def __init__(self, hopf: HopfAlgebraData, triple: CMTriple, require_valid: bool = True):
        super().__init__()
        if require_valid and not triple.valid:
            raise PreconditionFailed(
                "triple fails the admissibility condition: " + "; ".join(triple.failures)
            )
        self.hopf = hopf
        self.triple = triple
        self.ring = hopf.ring
        self.alpha = triple.alpha
        self.beta = triple.beta
        self.s_pi = twisted_antipode(hopf, triple.pi)
        self._cop3a: list[dict] | None = None

    def level_dim(self, m: int) -> int:
        return self.hopf.dim**m if m else 1

    @cached_property
    def _s_pi_cols(self) -> list[dict]:
        """Columns of S_pi, one per basis element."""
        return [self.s_pi.column(j) for j in range(self.hopf.dim)]

    def _cop3_alpha(self) -> list[dict]:
        """Per basis element b, the three-leg coproduct of b with alpha
        applied to the first leg: (y, z) -> sum of c * alpha(x) (cached)."""
        if self._cop3a is None:
            R = self.ring
            tables = []
            for b in range(self.hopf.dim):
                table: dict = {}
                for (x, y, z), c in self.hopf.iterated_coproduct_basis(b, 3).items():
                    v = R.mul(c, self.alpha(x))
                    if R.is_zero(v):
                        continue
                    key = (y, z)
                    s = R.add(table.get(key, R.zero), v)
                    if R.is_zero(s):
                        table.pop(key, None)
                    else:
                        table[key] = s
                tables.append(table)
            self._cop3a = tables
        return self._cop3a

    @cached_property
    def _closing(self) -> list[list[dict]]:
        """closing[Y][h] = S_pi(b_Y . sum of c * beta(z) * b_y) over the entries
        (y, z) -> c of `_cop3_alpha()[h]`: the last leg h of a column of the
        cyclic operator, closed against the second-leg product b_Y of the legs
        before it, as a sparse vector.  One d x d table per module."""
        R = self.ring
        mul, add, is_zero = R.mul, R.add, R.is_zero
        d = self.hopf.dim
        mult = self.hopf.algebra.mult
        s_pi_cols = self._s_pi_cols
        betas = [self.beta(z) for z in range(d)]

        def accumulate(out, vec, c):
            for k, v in vec.items():
                s = out.get(k)
                out[k] = mul(c, v) if s is None else add(s, mul(c, v))

        def nonzero(vec):
            return {k: c for k, c in vec.items() if not is_zero(c)}

        # sum of c * beta(z) * b_y over the last leg's coproduct, per h
        legs = []
        for table in self._cop3_alpha():
            leg: dict = {}
            for (y, z), c in table.items():
                if not is_zero(betas[z]):
                    accumulate(leg, {y: betas[z]}, c)
            legs.append(nonzero(leg))
        closing = []
        for row in mult:
            out_row = []
            for leg in legs:
                prod: dict = {}
                for y, c in leg.items():
                    accumulate(prod, row[y], c)
                image: dict = {}
                for k, c in nonzero(prod).items():
                    accumulate(image, s_pi_cols[k], c)
                out_row.append(nonzero(image))
            closing.append(out_row)
        return closing

    def _face(self, m, i):
        R = self.ring
        d = self.hopf.dim
        if 0 < i < m:
            return _merge_face(R, d, self.hopf.algebra.mult, i - 1, m - 1 - i)
        D = d ** (m - 1)
        ent = {}
        if i == 0:
            # column a * D + c goes to row c with alpha(a), for alpha(a) != 0
            for a in range(d):
                c = self.alpha(a)
                if not R.is_zero(c):
                    for row in range(D):
                        ent[(row, a * D + row)] = c
        else:
            # column c * d + b goes to row c with beta(b), for beta(b) != 0
            betas = [(b, c) for b in range(d) if not R.is_zero(c := self.beta(b))]
            for row in range(D):
                for b, c in betas:
                    ent[(row, row * d + b)] = c
        return SparseMatrix._unchecked(R, D, d**m, ent)

    def _degeneracy(self, m, i):
        return _insert_unit(self.ring, self.hopf.dim, self.hopf.algebra.unit, i, m - i)

    def _cyclic(self, m):
        """Columns in index order.  Legs 1..m-1 are folded into states keyed
        by (product of the second legs, index of the emitted third legs); the
        fold of each prefix is kept, so a column re-folds only from the first
        leg that differs from the previous column's, and the d columns that
        share legs 1..m-1 share their whole fold.  Each column then closes
        with the table `_closing` of its last leg, one lookup per state
        entry.  Level 1 folds from the unit, a sum of basis elements."""
        R = self.ring
        if m == 0:
            return SparseMatrix.identity(R, 1)
        mul, add, is_zero = R.mul, R.add, R.is_zero
        d = self.hopf.dim
        D = d ** (m - 1)
        mult = self.hopf.algebra.mult
        cop3a = self._cop3_alpha()
        closing = self._closing
        # states[p]: the fold over legs 1..p; states[0] is the unit
        states: list = [None] * m
        states[0] = {(u, 0): c for u, c in self.hopf.algebra.unit.items()}
        prev = None
        ent = {}
        col = 0
        for t in product(range(d), repeat=m - 1):
            # re-fold from the first leg that differs from the previous prefix's
            p = 0 if prev is None else next(q for q in range(m - 1) if t[q] != prev[q])
            prev = t
            if p == 0 and m > 1:
                # folding the first leg into the unit leaves its table as it is
                states[1] = cop3a[t[0]]
                p = 1
            for p in range(p, m - 1):
                nxt: dict = {}
                table = cop3a[t[p]].items()
                for (yacc, zidx), c in states[p].items():
                    row = mult[yacc]
                    zidx *= d
                    for (y2, z2), c2 in table:
                        cc = mul(c, c2)
                        for k, pv in row[y2].items():
                            key = (k, zidx + z2)
                            s = nxt.get(key)
                            nxt[key] = mul(cc, pv) if s is None else add(s, mul(cc, pv))
                states[p + 1] = {key: c for key, c in nxt.items() if not is_zero(c)}
            state = states[m - 1].items()
            for last in range(d):
                out: dict = {}
                for (yacc, zidx), c in state:
                    for w, sv in closing[yacc][last].items():
                        key = w * D + zidx
                        s = out.get(key)
                        out[key] = mul(c, sv) if s is None else add(s, mul(c, sv))
                for row, c in out.items():
                    if not is_zero(c):
                        ent[(row, col)] = c
                col += 1
        return SparseMatrix._unchecked(R, d**m, d**m, ent)


# ---------------------------------------------------------------------------
# the classical cyclic module of an associative algebra
# ---------------------------------------------------------------------------


class ClassicalCyclicModule(CyclicModule):
    """C_m = A^(tensor m+1) with the standard faces, degeneracies and rotation."""

    def __init__(self, algebra):
        super().__init__()
        self.algebra = algebra
        self.ring = algebra.ring

    def level_dim(self, m: int) -> int:
        return self.algebra.dim ** (m + 1)

    def _face(self, m, i):
        R = self.ring
        d = self.algebra.dim
        mult = self.algebra.mult
        if i < m:
            return _merge_face(R, d, mult, i, m - 1 - i)
        # the last face multiplies t[m] . t[0]: column (x * E + B) * d + y
        # goes to rows k * E + B for k in mult[y][x], E = d**(m - 1)
        E = d ** (m - 1)
        ent = {}
        col = 0
        for x in range(d):
            terms = [[(k * E, c) for k, c in mult[y][x].items()] for y in range(d)]
            for B in range(E):
                for y_terms in terms:
                    for k, c in y_terms:
                        ent[(k + B, col)] = c
                    col += 1
        return SparseMatrix(R, d**m, d ** (m + 1), ent)

    def _degeneracy(self, m, i):
        return _insert_unit(self.ring, self.algebra.dim, self.algebra.unit, i + 1, m - i)

    def _cyclic(self, m):
        # t[0..m] goes to (t[m],) + t[0..m-1]: column B * d + y to row y * E + B
        R = self.ring
        d = self.algebra.dim
        E = d**m
        one = R.one
        ent = {(y * E + B, B * d + y): one for B in range(E) for y in range(d)}
        return SparseMatrix(R, d * E, d * E, ent)


# ---------------------------------------------------------------------------
# chain windows and homology
# ---------------------------------------------------------------------------


@dataclass
class ChainComplexWindow:
    """Degrees 0..N of a chain complex: carrier dims and boundary matrices.

    boundaries[m] maps degree m to degree m-1, for 1 <= m <= N.
    """

    ring: Ring
    dims: list[int]
    boundaries: dict[int, SparseMatrix] = field(default_factory=dict)

    def __post_init__(self):
        for m, bm in self.boundaries.items():
            if m >= 2 and (m - 1) in self.boundaries:
                if not (self.boundaries[m - 1] @ bm).is_zero:
                    raise NotAComplex(f"boundary square nonzero at degree {m}")

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    def homology(self, n: int) -> HomologyModule:
        """Homology at degree n; needs boundaries n and n+1 inside the window.
        The constructor has checked the pair's square already."""
        if n + 1 > self.top:
            raise IndexOutOfRange(f"degree {n} needs boundary {n + 1} in the window")
        d_in = self.boundaries[n + 1]
        if n == 0:
            d_out = SparseMatrix.zero(self.ring, 0, self.dims[0])
        else:
            d_out = self.boundaries[n]
        return homology_at(d_in, d_out, check_square=False)


def hochschild_window(module: CyclicModule, N: int) -> ChainComplexWindow:
    """The b-complex of the underlying simplicial module, degrees 0..N."""
    dims = [module.level_dim(m) for m in range(N + 1)]
    boundaries = {m: module.boundary_b(m) for m in range(1, N + 1)}
    return ChainComplexWindow(module.ring, dims, boundaries)


def hochschild_homology(module: CyclicModule, n: int) -> HomologyModule:
    """HH_n from b_(n+1) and b_n alone; their square is checked once."""
    d_in = module.boundary_b(n + 1)
    if n == 0:
        d_out = SparseMatrix.zero(module.ring, 0, module.level_dim(0))
    else:
        d_out = module.boundary_b(n)
    return homology_at(d_in, d_out)


def hochschild_homology_upto(module: CyclicModule, N: int) -> list[HomologyModule]:
    """HH_0..HH_N from b_1, ..., b_(N+1), each reduced and each square
    checked once."""
    return homology_sequence(module.boundary_b(m) for m in range(1, N + 2))


# -- cyclic bicomplex --------------------------------------------------------


def _total_dim(module, n):
    return sum(module.level_dim(q) for q in range(n + 1))


def _total_boundary(module: CyclicModule, n: int) -> SparseMatrix:
    """D: Tot_n -> Tot_(n-1) of the (b, b', 1-lambda, N) bicomplex.

    Column p of the bicomplex carries b (p even) or -b' (p odd); the
    horizontal map out of an odd column is 1 - lambda and out of a positive
    even column is the norm N.  With the signed cyclic operator the squares
    anticommute, so the total boundary is the plain block sum.
    """
    R = module.ring
    # block (p, q) with p + q = n, laid out p = 0..n; same for the target
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
    ent: dict = {}

    def insert(block: SparseMatrix, row0: int, col0: int):
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


def cyclic_bicomplex_hc(module: CyclicModule, n: int) -> HomologyModule:
    """HC_n as homology of the total complex of the cyclic bicomplex."""
    d_in = _total_boundary(module, n + 1)
    if n == 0:
        d_out = SparseMatrix.zero(module.ring, 0, _total_dim(module, 0))
    else:
        d_out = _total_boundary(module, n)
    return homology_at(d_in, d_out)


def cyclic_bicomplex_hc_upto(module: CyclicModule, N: int) -> list[HomologyModule]:
    """HC_0..HC_N from the total complex, each total boundary built and
    reduced once (`cyclic_bicomplex_hc` per degree builds D_n and D_(n+1))."""
    return homology_sequence(_total_boundary(module, k) for k in range(1, N + 2))


# -- Connes quotient complex -------------------------------------------------


def connes_lambda_hc(module: CyclicModule, n: int) -> HomologyModule:
    """HC_n from the quotient of the b-complex by the cyclic action.

    Only valid when the coefficient ring contains Q.  Dimensions of the
    quotient homology are recovered from ranks of the boundary matrices
    augmented by generators of the cyclic-action image:

        dim H_n = dim C_n + rank(1 - lambda_{n-1})
                  - rank[b_n | 1 - lambda_{n-1}] - rank[b_{n+1} | 1 - lambda_n]

    The formula needs t_m^(m+1) = id on every level m <= n; it refuses a
    module that is not cyclic there (an inadmissible triple), where it
    would return a meaningless, possibly negative, dimension.  The ranks and
    the level checks are cached on the module, so neighbouring degrees share
    the augmented rank they have in common.
    """
    R = module.ring
    if not R.contains_rationals:
        raise RingWithoutRationals(
            f"the quotient complex computes HC only over rings containing Q, not {R}"
        )
    for m in range(n + 1):
        if not _cyclic_order_holds(module, m):
            raise PreconditionFailed(
                f"t_{m}^{m + 1} != id: the module is not cyclic at level {m}, "
                f"so the quotient complex does not compute HC_{n}"
            )
    dim_n = module.level_dim(n)
    r_in = _augmented_rank(module, n + 1)
    if n == 0:
        return HomologyModule(R, dim_n - r_in)
    r_w = module._memo(("rank 1-lambda", n - 1), lambda: rank(module.one_minus_lambda(n - 1)))
    return HomologyModule(R, dim_n + r_w - _augmented_rank(module, n) - r_in)


def _augmented_rank(module: CyclicModule, m: int) -> int:
    """rank[b_m | 1 - lambda_(m-1)], kept with the module's operators: it is
    the r_in of HC_(m-1) and the r_out of HC_m."""

    def build():
        return rank(module.boundary_b(m).hstack(module.one_minus_lambda(m - 1)))

    return module._memo(("rank [b|1-lambda]", m), build)


def _cyclic_order_holds(module: CyclicModule, m: int) -> bool:
    """Whether t_m^(m+1) = id, kept with the module's operators.

    The power is split as t^a . t^b with a = ceil((m + 1) / 2) and
    b = m + 1 - a, so it takes a products instead of m.
    """

    def build():
        t = module.cyclic(m)
        identity = SparseMatrix.identity(module.ring, module.level_dim(m))
        if m == 0:
            return t == identity
        a = (m + 2) // 2
        powers = [t]  # powers[k - 1] = t^k
        while len(powers) < a:
            powers.append(t @ powers[-1])
        return powers[a - 1] @ powers[m - a] == identity

    return module._memo(("t^(m+1) = id", m), build)


# -- cyclic module law verification ------------------------------------------


def verify_cyclic_axioms(module: CyclicModule, N: int) -> dict[str, bool]:
    """Exact matrix verification of the simplicial and cyclic identities.

    Checks, for every level m <= N: the simplicial relations among faces and
    degeneracies, the compatibilities of the cyclic operator with both, and
    t^(m+1) = id.  Returns a name -> pass map; failures are itemized by name.
    """
    report: dict[str, bool] = {}

    def check(name, lhs, rhs):
        report[name] = lhs == rhs

    for m in range(N + 1):
        t = module.cyclic(m)
        report[f"t_{m}^{m + 1} = id"] = _cyclic_order_holds(module, m)

        if m >= 2:
            for j in range(m + 1):
                for i in range(j):
                    # d_i d_j = d_(j-1) d_i for i < j
                    check(
                        f"d_{i} d_{j} (level {m})",
                        module.face(m - 1, i) @ module.face(m, j),
                        module.face(m - 1, j - 1) @ module.face(m, i),
                    )
        if m >= 1:
            # cyclic-face compatibility
            check(f"d_0 t (level {m})", module.face(m, 0) @ t, module.face(m, m))
            for i in range(1, m + 1):
                check(
                    f"d_{i} t (level {m})",
                    module.face(m, i) @ t,
                    module.cyclic(m - 1) @ module.face(m, i - 1),
                )
        for j in range(m + 1):
            for i in range(j + 1):
                # s_i s_j = s_(j+1) s_i for i <= j
                check(
                    f"s_{i} s_{j} (level {m})",
                    module.degeneracy(m + 1, i) @ module.degeneracy(m, j),
                    module.degeneracy(m + 1, j + 1) @ module.degeneracy(m, i),
                )
        if m >= 1:
            for j in range(m):
                for i in range(m + 1):
                    # mixed identities d_i s_j on level m - 1 degeneracies
                    lhs = module.face(m, i) @ module.degeneracy(m - 1, j)
                    if i < j:
                        rhs = module.degeneracy(m - 2, j - 1) @ module.face(m - 1, i) if m >= 2 else None
                    elif i in (j, j + 1):
                        rhs = SparseMatrix.identity(module.ring, module.level_dim(m - 1))
                    else:
                        rhs = (
                            module.degeneracy(m - 2, j) @ module.face(m - 1, i - 1)
                            if m >= 2
                            else None
                        )
                    if rhs is not None:
                        check(f"d_{i} s_{j} (level {m - 1})", lhs, rhs)
            # cyclic-degeneracy compatibility on level m - 1
            tm1 = module.cyclic(m - 1)
            check(
                f"s_0 t (level {m - 1})",
                module.degeneracy(m - 1, 0) @ tm1,
                t @ t @ module.degeneracy(m - 1, m - 1),
            )
            for i in range(1, m):
                check(
                    f"s_{i} t (level {m - 1})",
                    module.degeneracy(m - 1, i) @ tm1,
                    t @ module.degeneracy(m - 1, i - 1),
                )
    return report


# -- SBI rank bookkeeping ----------------------------------------------------


@dataclass
class SBIReport:
    consistent: bool
    ranks: list[tuple[int, int, int]]  # per degree: rank(I_n), rank(S_n), rank(B_n)
    reason: str = ""


def sbi_rank_assignment(h_dims: list[int], hc_dims: list[int]) -> SBIReport:
    """Solve the exactness constraints of the periodicity sequence.

    The sequence ... -> H_n -> HC_n -> HC_(n-2) -> H_(n-1) -> ... forces a
    unique rank for each arrow once the dimensions are fixed; the sequence of
    dimensions is consistent iff the forward recursion stays nonnegative.
    """
    N = min(len(h_dims), len(hc_dims)) - 1
    ranks: list[tuple[int, int, int]] = []
    z_prev = 0
    for n in range(N + 1):
        if n == 0:
            x, y, z = hc_dims[0], 0, 0
            if h_dims[0] != hc_dims[0]:
                return SBIReport(False, ranks, "H_0 and HC_0 dimensions differ")
        elif n == 1:
            x, y = hc_dims[1], 0
            z = h_dims[1] - x
        else:
            y = hc_dims[n - 2] - z_prev
            x = hc_dims[n] - y
            z = h_dims[n] - x
        if x < 0 or y < 0 or z < 0:
            return SBIReport(
                False, ranks, f"negative rank forced at degree {n}: (I, S, B) = ({x}, {y}, {z})"
            )
        ranks.append((x, y, z))
        z_prev = z
    return SBIReport(True, ranks)


def sbi_check(module: CyclicModule, N: int, use_bicomplex: bool = False) -> SBIReport:
    """Compute Hochschild and cyclic dimensions up to N and run the bookkeeping."""
    h_dims = [h.free_rank for h in hochschild_homology_upto(module, N)]
    if use_bicomplex or not module.ring.contains_rationals:
        hc_dims = [h.free_rank for h in cyclic_bicomplex_hc_upto(module, N)]
    else:
        hc_dims = [connes_lambda_hc(module, n).free_rank for n in range(N + 1)]
    return sbi_rank_assignment(h_dims, hc_dims)
