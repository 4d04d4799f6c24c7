"""Cyclic modules and their homology engines.

A cyclic module is presented operator-wise: carrier dimensions per level,
face / degeneracy / cyclic operators as exact sparse matrices.  Level m has
faces d_0..d_m, degeneracies s_0..s_m and a cyclic operator t with
t^(m+1) = id.  Carriers are tensor powers of a basis of size d, and the
operators are assembled by index arithmetic on the base-d digits of the
basis index; no basis tuple is decoded, and no operator stores a zero
entry.  A degeneracy, which inserts the unit, also acts directly on the
rows of a matrix (`CyclicModule.degenerate`); the law checks apply it that
way, so the checks through level N build no operator from a level above N.
On tensor legs a degeneracy reads only the ring, the dimension and unit of
the algebra and the number of fixed legs, so the verdicts of the laws
s_i s_j = s_(j+1) s_i are kept, with the inner face sums, S_pi and M, in
the algebra's table store (`AlgebraData.shared`) under (module class,
level): every module of one algebra and class shares them
(`_degeneracy_laws`), so the triples of a Hopf algebra build their
level-(m + 2) composites once.
Two main instances live here:

* the Connes-Moscovici module of a Hopf algebra with an admissible
  (grouplike, character, character) triple, whose level-m carrier is the
  m-th tensor power of the algebra; its cyclic operator folds all legs of
  a column but the last, and closes the column with a per-module table of
  the last leg with beta and S_pi applied.  Its B-bar_m runs the same fold
  over all m legs, closed by S_pi alone (the last leg of s_m is the unit)
  and emitting legs of H / k.1, so it builds no operator of level m + 1, and
* the classical cyclic module of an algebra, with carrier the (m+1)-st
  tensor power; its normalized chains are always taken relative to a
  separable E (`_RelativeChains`): the span of the vertex idempotents when
  the unit is a sum of basis idempotents that split the basis (truncated
  quiver, Taft and group algebras), and k.1 otherwise.

On top of the operators sit the homology engines: HH from the normalized
b-complex (the full b-complex, `hochschild_window`, is its oracle), HC from
the total complex of the normalized (b, B) bicomplex over every ring (Z,
F_p, Q and Q(zeta_n) alike), the Connes quotient by the cyclic action
(rings containing Q; the CLI's group and Taft sources and
`burghelea_check` read HC from it there, and the tests hold the bicomplex
to it), and the rank-bookkeeping checker for the periodicity long exact
sequence.
"""

from __future__ import annotations

from functools import cached_property, partial
from itertools import accumulate, product

from .errors import (
    HopfCyclError,
    IndexOutOfRange,
    NotAUnit,
    PreconditionFailed,
    RingWithoutRationals,
)
from .hopf import (
    CMTriple,
    HopfAlgebraData,
    contract,
    twisted_antipode,
    twisted_middle,
)
from .rings import HomologyModule, Record, Ring
from .sparse import SparseMatrix, _paused, homology_window, rank


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


# Operators on tensor powers are assembled by index arithmetic: the basis
# tensor b_(x_1) (x) ... (x) b_(x_m) on a leg basis of size d is the number
# with base-d digits x_1 ... x_m, the first leg most significant, so an
# operator M on a block of neighbouring legs, with legs of dimension P
# before it and D after it, is 1_P (x) M (x) 1_D (`SparseMatrix.amid`): a
# face multiplying two legs pads the product matrix mu.  The structure
# constants and the unit of an `AlgebraData` hold no zeros, so the operators
# built from them skip the constructor's zero check.


def _insert_unit(ring, d, unit, p, s, M):
    """s o M for the degeneracy s inserting the unit after the first p legs
    of a tensor of length p + s, applied to the rows of M without building
    s: row A * D + C of M, D = d**s, goes to rows (A * d + u) * D + C with
    value c_u * v.  Distinct (row, u) give distinct rows, so nothing is
    summed; a product c_u * v that is zero (Z/m has zero divisors) is
    dropped, and a unit coefficient c_u skips the multiply."""
    if M.nrows != d ** (p + s):
        raise ValueError("shape mismatch in product")
    D = d**s
    step = (d - 1) * D
    one, mul, is_zero = ring.one, ring.mul, ring.is_zero
    copies = [u * D for u, c in unit.items() if c == one]
    scaled = [(u * D, c) for u, c in unit.items() if c != one]
    ent = {}
    for (row, col), v in M.entries.items():
        # (A * d + u) * D + C = row + A * (d - 1) * D + u * D
        base = row + row // D * step
        for off in copies:
            ent[(base + off, col)] = v
        for off, c in scaled:
            w = mul(c, v)
            if not is_zero(w):
                ent[(base + off, col)] = w
    return SparseMatrix._unchecked(ring, d * M.nrows, M.ncols, ent)


def _signed_sum(ring, terms, nrows, ncols) -> SparseMatrix:
    """sum(+-M) over the (M, negate) pairs in terms, accumulated in one
    entries dict.  A key written once holds a nonzero entry of some M or
    its negative, so only a sum is tested for zero, and a sum that
    cancelled is dropped at once (a later term starts the key afresh)."""
    add, sub, neg, is_zero = ring.add, ring.sub, ring.neg, ring.is_zero
    ent: dict = {}
    get = ent.get
    for M, negate in terms:
        op = sub if negate else add
        for k, v in M.entries.items():
            s = get(k)
            if s is None:
                ent[k] = neg(v) if negate else v
            elif is_zero(s := op(s, v)):
                del ent[k]
            else:
                ent[k] = s
    return SparseMatrix._unchecked(ring, nrows, ncols, ent)


def _write_one_minus_lambda(ring, m, t: SparseMatrix, ent: dict, offset: int) -> dict:
    """Write 1 - lambda = 1 - (-1)^m t, with t = t_m, into ent, its column j
    at column offset + j, in one pass over the entries of t; ent holds no
    entry in those columns.  Only a diagonal sum can cancel."""
    neg, odd = ring.neg, m % 2
    for (i, j), v in t.entries.items():
        ent[(i, j + offset)] = v if odd else neg(v)
    one, add, is_zero = ring.one, ring.add, ring.is_zero
    for i in range(t.nrows):
        key = (i, i + offset)
        s = ent.get(key)
        if s is None:
            ent[key] = one
        elif is_zero(s := add(s, one)):
            del ent[key]
        else:
            ent[key] = s
    return ent


def _inner_face_sum(algebra, legs, m) -> SparseMatrix:
    """sum((-1)^i d_i, 0 < i < m) of a Connes-Moscovici module on tensor
    powers of the leg basis legs = (digits, mu) of `algebra`: its own
    basis, or that of H / k.1.  The inner faces multiply neighbouring legs
    and read neither the grouplike nor the characters, so every module of
    the algebra shares the sum, built once per leg basis and level and kept
    in the algebra's table store."""
    digits, mu = legs
    d = len(digits)

    def build():
        faces = [(mu.amid(d ** (i - 1), d ** (m - 1 - i)), i % 2 == 1) for i in range(1, m)]
        return _signed_sum(algebra.ring, faces, d ** (m - 1), d**m)

    return algebra.shared(("inner face sum", tuple(digits), m), build)


class _Normalization:
    """H / k.1 for an algebra H whose unit has a coefficient c* that is a
    ring unit, at the pivot basis element u*: then H = k.1 (+) span(b_u,
    u != u*), and the b_u, u != u*, are a basis of the quotient.  `image[x]`
    is the image of b_x in it: b_x itself for x != u*, and
    -c*^-1 sum(c_u b_u, u != u*) for u*, since 1 maps to zero.  For a group
    algebra, whose unit is e, the image of e is zero.  `legs` is the leg
    basis (digits, mu) of the quotient: digit r stands for the basis
    element digits[r], and mu is the product matrix of the digits, written
    in the quotient."""

    def __init__(self, algebra):
        R = algebra.ring
        unit = algebra.unit
        pivot = next((u for u in sorted(unit) if R.is_unit(unit[u])), None)
        if pivot is None:
            raise NotAUnit(
                f"no coefficient of the unit {unit} is invertible in {R}: k.1 does not "
                "split off, so the normalized complex is not defined"
            )
        scale = R.neg(R.inv(unit[pivot]))
        kept = [u for u in range(algebra.dim) if u != pivot]
        at = {u: r for r, u in enumerate(kept)}
        self.image = [
            {at[u]: R.mul(scale, c) for u, c in unit.items() if u != pivot}
            if x == pivot else {at[x]: R.one}
            for x in range(algebra.dim)
        ]
        mult = algebra.mult
        self.legs = (kept, SparseMatrix.from_columns(
            R, len(kept), [_project(R, self.image, mult[x][y]) for x in kept for y in kept]))


def _project(R, image, vec: dict) -> dict:
    """The vector vec taken to a quotient in which basis element k has the
    image image[k]; a coefficient one skips the multiply."""
    one = R.one
    out: dict = {}
    for k, c in vec.items():
        for r, p in image[k].items():
            v = c if p == one else R.mul(c, p)
            s = out.get(r)
            out[r] = v if s is None else R.add(s, v)
    return {r: c for r, c in out.items() if not R.is_zero(c)}


class _RelativeChains:
    """The normalized chains of the classical module of an algebra A taken
    relative to a separable E that holds the unit, A (x)_E A/E (x)_E ...
    (x)_E A/E closed into a cycle, which carry HH and HC (Loday, Cyclic
    Homology, 1.2.13).  When the summands of the unit are orthogonal basis
    idempotents e_v that split the basis, E is their span: each basis
    element b is e_s b e_t for exactly one pair, its colours `left[b]` = s
    and `right[b]` = t, and the basis elements outside E are a basis of A/E
    (truncated quiver, Taft and group algebras).  For any other unit
    E = k.1, A/E is that of `_Normalization`, and every basis element has
    the colour 0.  `image[b]` is the image of b in A/E, in basis indices, and
    `closing[s]` holds the terms of the unit that close a cycle at colour s.

    Level m has as basis the tuples (a0, r1, ..., rm), a0 any basis element
    and r_i a basis element of A/E, with right(a0) = left(r1), ...,
    right(rm) = left(a0), in lexicographic order.  The operators are built
    on given column tuples, so a summand closed under them (a conjugacy
    class of a group algebra) is built on its own tuples."""

    def __init__(self, algebra, left, right, image, closing):
        self.ring, self.mult = algebra.ring, algebra.mult
        self.left, self.right = left, right
        self.image, self.closing = image, closing
        # the basis elements of A/E, those in their own image, by left colour
        self.out_of = {s: [] for s in closing}
        for b in range(algebra.dim):
            if b in image[b]:
                self.out_of[left[b]].append(b)
        self._walks: dict = {}
        self._levels: dict = {}

    @cached_property
    def _products(self) -> list[list[dict]]:
        """products[x][y]: b_x . b_y taken to A/E, for the inner faces."""
        return [[_project(self.ring, self.image, vec) if vec else vec for vec in row]
                for row in self.mult]

    @classmethod
    def of(cls, algebra) -> "_RelativeChains":
        """The chains relative to E = span(e_v) when the unit splits the
        basis as above, and relative to E = k.1 otherwise."""
        R, unit, mult, dim = algebra.ring, algebra.unit, algebra.mult, algebra.dim
        sides = [([u for u in unit if mult[u][b]], [u for u in unit if mult[b][u]])
                 for b in range(dim)]
        if (all(c == R.one for c in unit.values())
                and all(mult[u][w] == ({u: R.one} if u == w else {}) for u in unit for w in unit)
                and all(len(s) == len(t) == 1 and mult[s[0]][b] == mult[b][t[0]] == {b: R.one}
                        for b, (s, t) in enumerate(sides))):
            image = [{} if b in unit else {b: R.one} for b in range(dim)]
            return cls(algebra, [s[0] for s, _ in sides], [t[0] for _, t in sides], image,
                       {v: [(v, R.one)] for v in unit})
        normal = _Normalization(algebra)
        kept = normal.legs[0]
        image = [{kept[r]: p for r, p in vec.items()} for vec in normal.image]
        return cls(algebra, [0] * dim, [0] * dim, image, {0: list(unit.items())})

    def _walk(self, m: int, s, t) -> list[tuple]:
        """The tuples (r1, ..., rm) in A/E with left(r1) = s,
        right(r_i) = left(r_(i+1)) and right(rm) = t, in lexicographic order."""
        key = (m, s, t)
        out = self._walks.get(key)
        if out is None:
            if m == 0:
                out = [()] if s == t else []
            else:
                walk, right = self._walk, self.right
                out = [(r,) + w for r in self.out_of[s] for w in walk(m - 1, right[r], t)]
            self._walks[key] = out
        return out

    def basis(self, m: int) -> tuple[list[tuple], dict]:
        """The basis tuples of level m and the position of each."""
        level = self._levels.get(m)
        if level is None:
            left, right = self.left, self.right
            tuples = [(a,) + w for a in range(len(left)) for w in self._walk(m, right[a], left[a])]
            level = self._levels[m] = (tuples, {t: j for j, t in enumerate(tuples)})
        return level

    def boundary(self, columns: list[tuple], rows: dict) -> SparseMatrix:
        """b-bar_m on the tuples `columns` of a level m >= 1, with `rows` the
        positions of level m - 1: d_i for i < m multiplies slots i and i + 1
        (taken to A/E when i >= 1), and d_m puts rm . a0 in slot 0."""
        R = self.ring
        add, neg = R.add, R.neg
        mult, products = self.mult, self._products
        ent: dict = {}
        for col, x in enumerate(columns):
            m = len(x) - 1
            faces = [(x[:i] + (k,) + x[i + 2:], c, i % 2) for i in range(m)
                     for k, c in (products if i else mult)[x[i]][x[i + 1]].items()]
            faces += [((k,) + x[1:m], c, m % 2) for k, c in mult[x[m]][x[0]].items()]
            for face, c, odd in faces:
                key = (rows[face], col)
                c = neg(c) if odd else c
                s = ent.get(key)
                ent[key] = c if s is None else add(s, c)
        # the constructor drops the sums that cancelled
        return SparseMatrix(R, len(rows), len(columns), ent)

    def connes(self, columns: list[tuple], rows: dict) -> SparseMatrix:
        """B-bar_m on the tuples `columns` of a level m, with `rows` the
        positions of level m + 1: x = (a0, r1, ..., rm) goes to the sum over
        k of (-1)^(mk) (1, t^k x'), x' with a0 taken to A/E, t^k moving the
        last k slots to the front and 1 written with `closing`."""
        R = self.ring
        add, neg, mul, one = R.add, R.neg, R.mul, R.one
        minus_one = neg(one)
        left, image, closing = self.left, self.image, self.closing
        ent: dict = {}
        for col, x in enumerate(columns):
            m = len(x) - 1
            for r, p in image[x[0]].items():
                y = x if r == x[0] else (r,) + x[1:]
                signs = (one, minus_one) if p == one else (p, neg(p))
                for k in range(m + 1):
                    turned = y[m + 1 - k:] + y[:m + 1 - k]
                    c = signs[m * k % 2]
                    for u, cu in closing[left[turned[0]]]:
                        key = (rows[(u,) + turned], col)
                        v = c if cu == one else mul(cu, c)
                        s = ent.get(key)
                        ent[key] = v if s is None else add(s, v)
        return SparseMatrix(R, len(rows), len(columns), ent)


class CyclicModule:
    """Operator-level view of a cyclic module; subclasses fill in columns.

    `degenerate(m, i, M)` is s_i o M.  A module with tensor legs applies s_i
    to the rows of M by index arithmetic (`_insert_unit`), and its matrix
    `degeneracy(m, i)` is s_i applied to the identity; a module without
    tensor legs defines `_degeneracy`, and `degenerate` multiplies by it.

    Every module also supplies its normalized chains, C_m modulo the
    degenerate tensors (the images of the degeneracies): their dimension
    `normalized_dim(m)`, the boundary `normalized_b(m)` induced by b and
    Connes' `normalized_B(m)`.  The degenerate subcomplex is acyclic over any
    ring (Loday, Cyclic Homology, 1.1.14-1.1.15), so HH and HC are computed
    on them.  A Connes-Moscovici module projects every leg to H / k.1; the
    classical module takes the chains relative to a separable E that holds
    the unit (`_RelativeChains`).
    """

    ring: Ring
    # whether the module is cyclic by construction; the normalized complex
    # checks the laws of t of any other module before it is built
    cyclic_by_construction = True

    def level_dim(self, m: int) -> int:
        raise NotImplementedError

    def normalized_dim(self, m: int) -> int:
        raise NotImplementedError

    def normalized_b(self, m: int) -> SparseMatrix:
        """b-bar_m: C-bar_m -> C-bar_(m-1), induced by the Hochschild boundary."""
        raise NotImplementedError

    def normalized_B(self, m: int) -> SparseMatrix:
        """B-bar_m: C-bar_m -> C-bar_(m+1), the normalized Connes boundary
        t_(m+1) s_m N_m, with b-bar B-bar = -B-bar b-bar."""
        raise NotImplementedError

    def _face(self, m: int, i: int) -> SparseMatrix:
        raise NotImplementedError

    def _degeneracy(self, m: int, i: int) -> SparseMatrix:
        raise NotImplementedError

    def _degenerate(self, m: int, i: int, M: SparseMatrix) -> SparseMatrix:
        return self.degeneracy(m, i) @ M

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

    def degenerate(self, m: int, i: int, M: SparseMatrix) -> SparseMatrix:
        """s_i o M with s_i the degeneracy at level m, not memoized."""
        if m < 0 or not 0 <= i <= m:
            raise IndexOutOfRange(f"degeneracy s_{i} undefined at level {m}")
        return self._degenerate(m, i, M)

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

    def _peek(self, key, thunk):
        """The memoized value under key, or thunk() unstored if there is none."""
        out = self._cache.get(key)
        return thunk() if out is None else out

    # -- derived operators ---------------------------------------------------
    def boundary_b(self, m: int) -> SparseMatrix:
        """Hochschild boundary sum((-1)^i d_i), i = 0..m."""
        return self._memo(("b", m), lambda: self._alternating_faces(m, m + 1))

    def boundary_bprime(self, m: int) -> SparseMatrix:
        """Truncated boundary sum((-1)^i d_i), i = 0..m-1 (acyclic column)."""
        return self._memo(("bp", m), lambda: self._alternating_faces(m, m))

    def _alternating_faces(self, m: int, count: int) -> SparseMatrix:
        """sum((-1)^i d_i, i < count) in a fresh entries dict; a face is read
        from the memo if it is there, and not stored otherwise."""
        faces = [(self._peek(("d", m, i), partial(self._face, m, i)), i % 2 == 1)
                 for i in range(count)]
        return _signed_sum(self.ring, faces, self.level_dim(m - 1), self.level_dim(m))

    def one_minus_lambda(self, m: int) -> SparseMatrix:
        """1 - lambda = 1 - (-1)^m t, in one pass over the entries of t."""
        n = self.level_dim(m)
        ent = _write_one_minus_lambda(self.ring, m, self.cyclic(m), {}, 0)
        return SparseMatrix._unchecked(self.ring, n, n, ent)

    def norm(self, m: int) -> SparseMatrix:
        """N = sum(lambda^i, i = 0..m), lambda = (-1)^m t_m: `_norm_of` the
        identity, built on each call (no engine reads it)."""
        return self._norm_of(m, SparseMatrix.identity(self.ring, self.level_dim(m)))

    def _norm_of(self, m: int, M: SparseMatrix) -> SparseMatrix:
        """N_m M = sum((-1)^(mk) t_m^k M, k = 0..m) as one `_signed_sum`,
        fed each power t^k M as it is built from the last, so only the
        current power and the sum are alive at once."""
        t = self.cyclic(m)

        def powers():
            term = M
            yield term, False
            for k in range(1, m + 1):
                term = t @ term
                yield term, m * k % 2 == 1

        return _signed_sum(self.ring, powers(), M.nrows, M.ncols)


class TensorCyclicModule(CyclicModule):
    """A cyclic module whose carriers are tensor powers of an algebra
    (`algebra`), and whose degeneracies insert its unit."""

    # the number of leading legs that no degeneracy fills: C_m has
    # m + fixed_legs legs, and s_i inserts the unit after the first
    # i + fixed_legs of them
    fixed_legs: int

    def level_dim(self, m: int) -> int:
        return self.algebra.dim ** (m + self.fixed_legs)

    def _degenerate(self, m, i, M):
        algebra = self.algebra
        return _insert_unit(self.ring, algebra.dim, algebra.unit, i + self.fixed_legs, m - i, M)

    def _degeneracy(self, m, i):
        return self._degenerate(m, i, SparseMatrix.identity(self.ring, self.level_dim(m)))


# ---------------------------------------------------------------------------
# the Connes-Moscovici cyclic module of a Hopf algebra
# ---------------------------------------------------------------------------


class ConnesMoscoviciModule(TensorCyclicModule):
    """C_m = H^(tensor m), with operators twisted by (pi, alpha, beta).

    d_0 applies alpha to the first leg, d_m applies beta to the last one and
    the inner faces multiply neighbouring legs (a 1 x d row or mu, padded
    with identities); the alternating sum of the inner faces, on
    the legs of H and of H / k.1, is kept in the algebra's table store for
    every module of the algebra (`_inner_face_sum`), so b and b-bar add only
    d_0 and d_m to it.  The cyclic operator sends
    h_1 (x) ... (x) h_m, with three-leg coproducts x_p (x) y_p (x) z_p, to

        alpha(x_1 ... x_m) beta(z_m) S_pi(y_1 ... y_m) (x) z_1 (x) ... (x) z_(m-1).

    Operators are materialized column by column in basis-index order.  The
    three-leg coproducts are pre-contracted with alpha per basis element,
    as Delta of the alpha-contraction (alpha (x) id)Delta (`_cop3_alpha`).
    The last leg h_m enters only through beta(z_m) and the closing S_pi:
    with b_Y the second-leg product of the legs before it, it contributes
    S_pi(b_Y M(h_m)), column (Y, h_m) of S_pi mu (1 (x) M), where
    M = (alpha (x) id (x) beta) Delta^2 is `twisted_middle`, the matrix the
    admissibility check reads too.  These columns form one table per module
    (`_closing`).  B-bar_m applies t_(m+1) s_m, the same fold
    (`_fold`) over the m legs with the unit as last leg, to N_m of the
    normalized columns: M sends 1 to 1, so the one closing is column Y of
    S_pi, and with the third legs and S_pi taken to H / k.1 the fold writes
    its rows in normalized coordinates.
    """

    fixed_legs = 0

    def __init__(self, hopf: HopfAlgebraData, triple: CMTriple, require_valid: bool = True):
        super().__init__()
        if require_valid and not triple.valid:
            raise PreconditionFailed(
                "triple fails the admissibility condition: " + "; ".join(triple.failures)
            )
        self.hopf = hopf
        self.algebra = hopf.algebra
        self.triple = triple
        self.cyclic_by_construction = triple.valid
        self.ring = hopf.ring
        self.alpha = triple.alpha
        self.beta = triple.beta
        self.s_pi = twisted_antipode(hopf, triple.pi)

    @cached_property
    def _cop3_alpha(self) -> list[dict]:
        """Per basis element b, (alpha (x) id (x) id)(id (x) Delta)Delta(b)
        as (y, z) -> payload: column b of Delta . (alpha (x) id)Delta."""
        d = self.hopf.dim
        tables: list[dict] = [{} for _ in range(d)]
        for (yz, b), c in (self.hopf.delta @ contract(self.hopf, self.alpha, 0)).entries.items():
            tables[b][divmod(yz, d)] = c
        return tables

    @cached_property
    def _closing(self) -> list[list[dict]]:
        """closing[h][Y]: column Y * d + h of S_pi mu (1 (x) M), that is
        S_pi(b_Y M(b_h)), with M = (alpha (x) id (x) beta) Delta^2 of
        `twisted_middle`: the last leg h of a column of the cyclic operator,
        closed against the second-leg product b_Y of the legs before it, as a
        sparse vector.  One d x d table per module."""
        d = self.hopf.dim
        middle = twisted_middle(self.hopf, self.alpha, self.beta)
        closing: list[list[dict]] = [[{} for _ in range(d)] for _ in range(d)]
        for (w, Yh), v in (self.s_pi @ (self.algebra.mu @ middle.amid(d, 1))).entries.items():
            Y, h = divmod(Yh, d)
            closing[h][Y][w] = v
        return closing

    # -- the normalized chains: every leg is projected to H / k.1 -----------
    @cached_property
    def _normal(self) -> _Normalization:
        return _Normalization(self.hopf.algebra)

    @property
    def _legs(self):
        """The leg basis (digits, mu) of C_m: the basis of H."""
        return range(self.hopf.dim), self.hopf.algebra.mu

    def _face(self, m, i):
        return self._face_on(self._legs, m, i)

    def _alternating_faces(self, m, count):
        return self._face_sum(self._legs, m, count)

    def normalized_dim(self, m):
        return (self.hopf.dim - 1) ** m

    def normalized_b(self, m):
        """b-bar_m, the projection of b_m on the normalized columns: the
        alternating face sum built on the legs of H / k.1."""
        return self._memo(("b-bar", m), lambda: self._face_sum(self._normal.legs, m, m + 1))

    def _face_sum(self, legs, m, count):
        """sum((-1)^i d_i, i < count) for count = m or m + 1 on the leg basis
        `legs`: the module's own d_0 and d_m around the inner faces' sum,
        which every module of the algebra shares (`_inner_face_sum`)."""
        faces = [(self._face_on(legs, m, 0), False)]
        if m > 1:
            faces.append((_inner_face_sum(self.hopf.algebra, legs, m), False))
        if count > m:
            faces.append((self._face_on(legs, m, m), m % 2 == 1))
        d = len(legs[0])
        return _signed_sum(self.ring, faces, d ** (m - 1), d**m)

    def normalized_B(self, m):
        """B-bar_m: the projection of t_(m+1) s_m N_m on the normalized columns.

        Connes' B is (1 - lambda) s N with the extra degeneracy
        s = (-1)^(m+1) t_(m+1) s_m.  On normalized chains lambda s N drops
        out, since t^2 s_m = s_0 t is degenerate; s_m is used here without
        the sign, so that b-bar B-bar = -B-bar b-bar and b-bar + B-bar
        squares to zero.  N_m is applied to the normalized columns J only,
        by the signed sum `norm` also takes (`_norm_of(m, J)`), and
        t_(m+1) s_m is the fold of their m legs closed by S_pi, with its
        emitted legs in H / k.1 (`_normal_tables`).
        """

        def build():
            R = self.ring
            d = self.hopf.dim
            kept = self._normal.legs[0]
            columns = {(tuple_to_index(t, d), j): R.one
                       for j, t in enumerate(product(kept, repeat=m))}
            J = SparseMatrix._unchecked(R, self.level_dim(m), self.normalized_dim(m), columns)
            cop3, s_pi = self._normal_tables
            return self._fold(m, cop3, [s_pi], d - 1) @ self._norm_of(m, J)

        return self._memo(("B-bar", m), build)

    @cached_property
    def _normal_tables(self) -> tuple[list[dict], list[dict]]:
        """`_cop3_alpha` with its third legs, and the columns of S_pi, taken
        to H / k.1: the tables of the fold of t_(m+1) s_m."""
        R, d, image = self.ring, self.hopf.dim, self._normal.image
        third = {(y, z): {(y, r): p for r, p in image[z].items()}
                 for y in range(d) for z in range(d)}
        return ([_project(R, third, table) for table in self._cop3_alpha],
                [_project(R, image, self.s_pi.column(Y)) for Y in range(d)])

    def _face_on(self, legs, m, i):
        """Face d_i at level m on the leg basis `legs` = (digits, mu): the
        algebra's basis for C_m, that of H / k.1 for the normalized chains.
        d_i is mu on legs i and i + 1, d_0 the 1 x d row of alpha on the
        first leg and d_m that of beta on the last, padded by identities."""
        digits, mu = legs
        d = len(digits)
        if 0 < i < m:
            return mu.amid(d ** (i - 1), d ** (m - 1 - i))
        chi = self.alpha if i == 0 else self.beta
        row = SparseMatrix(self.ring, 1, d, {(0, a): chi(x) for a, x in enumerate(digits)})
        return row.amid(1, d ** (m - 1)) if i == 0 else row.amid(d ** (m - 1), 1)

    def _cyclic(self, m):
        """The fold of legs 1..m-1 of each column, closed once per last leg
        h with the table `_closing[h]`."""
        if m == 0:
            return SparseMatrix.identity(self.ring, 1)
        return self._fold(m - 1, self._cop3_alpha, self._closing, self.hopf.dim)

    def _fold(self, n, cop3, closings, r):
        """The operator on n + 1 legs whose first n legs, basis elements of H,
        are folded into states keyed by (product of the second legs, index of
        the emitted third legs), and whose last leg is the j-th of the
        closings: column (index of the n legs) * len(closings) + j.
        `cop3[b]` is `_cop3_alpha` with its third legs written in a leg basis
        of radix r, and closings[j][Y] is the first leg emitted for the
        second-leg product b_Y, in the same basis; the rows are its r^(n+1)
        tensors.  The fold of each prefix is kept, so a column re-folds only
        from the first leg that differs from the previous column's, and the
        columns that share the n legs share their whole fold.  The fold of
        no legs is the unit, a sum of basis elements."""
        R = self.ring
        mul, add, is_zero = R.mul, R.add, R.is_zero
        D = r**n
        mult = self.hopf.algebra.mult
        # states[p]: the fold over legs 1..p; states[0] is the unit
        states: list = [None] * (n + 1)
        states[0] = {(u, 0): c for u, c in self.hopf.algebra.unit.items()}
        prev = None
        ent = {}
        col = 0
        for t in product(range(self.hopf.dim), repeat=n):
            # re-fold from the first leg that differs from the previous prefix's
            p = 0 if prev is None else next(q for q in range(n) if t[q] != prev[q])
            prev = t
            if p == 0 and n > 0:
                # folding the first leg into the unit leaves its table as it is
                states[1] = cop3[t[0]]
                p = 1
            for p in range(p, n):
                nxt: dict = {}
                table = cop3[t[p]].items()
                for (yacc, zidx), c in states[p].items():
                    row = mult[yacc]
                    zidx *= r
                    for (y2, z2), c2 in table:
                        cc = mul(c, c2)
                        for k, pv in row[y2].items():
                            key = (k, zidx + z2)
                            s = nxt.get(key)
                            nxt[key] = mul(cc, pv) if s is None else add(s, mul(cc, pv))
                states[p + 1] = {key: c for key, c in nxt.items() if not is_zero(c)}
            state = states[n].items()
            for closing in closings:
                out: dict = {}
                for (yacc, zidx), c in state:
                    for w, sv in closing[yacc].items():
                        key = w * D + zidx
                        s = out.get(key)
                        out[key] = mul(c, sv) if s is None else add(s, mul(c, sv))
                for row, c in out.items():
                    if not is_zero(c):
                        ent[(row, col)] = c
                col += 1
        return SparseMatrix._unchecked(R, r * D, col, ent)


# ---------------------------------------------------------------------------
# the classical cyclic module of an associative algebra
# ---------------------------------------------------------------------------


class ClassicalCyclicModule(TensorCyclicModule):
    """C_m = A^(tensor m+1) with the standard faces, degeneracies and rotation.

    Its normalized chains are always those relative to a separable E that
    holds the unit (`_RelativeChains`; Loday, Cyclic Homology, 1.2.13): the
    cyclically composable tuples a0 (x)_E r1 (x)_E ... (x)_E rm with r_i in
    A/E.  E is the span of the summands of the unit when these are
    orthogonal basis idempotents that split the basis: truncated quiver
    algebras and Taft algebras (E = k^V, the vertex idempotents) and group
    algebras (E = k.e).  Any other unit has E = k.1.
    """

    fixed_legs = 1

    def __init__(self, algebra):
        super().__init__()
        self.algebra = algebra
        self.ring = algebra.ring

    @cached_property
    def _relative(self) -> _RelativeChains:
        return _RelativeChains.of(self.algebra)

    def normalized_dim(self, m):
        return len(self._relative.basis(m)[0])

    def normalized_b(self, m):
        chains = self._relative
        return self._memo(("b-bar", m), lambda: chains.boundary(
            chains.basis(m)[0], chains.basis(m - 1)[1]))

    def normalized_B(self, m):
        chains = self._relative
        return self._memo(("B-bar", m), lambda: chains.connes(
            chains.basis(m)[0], chains.basis(m + 1)[1]))

    def _face(self, m, i):
        R, d, mult = self.ring, self.algebra.dim, self.algebra.mult
        if i < m:
            return self.algebra.mu.amid(d**i, d ** (m - 1 - i))
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
        return SparseMatrix._unchecked(R, d * E, col, ent)

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


def _require_degree(n: int) -> None:
    """Refuse a negative degree or level before anything is looked up."""
    if n < 0:
        raise IndexOutOfRange(f"negative degree {n}")


class ChainComplexWindow(Record):
    """Degrees 0..N of a chain complex: carrier dims and boundary matrices.

    boundaries[m] maps degree m to degree m-1, for 1 <= m <= N; as D_0 = 0,
    the rows of boundaries[1] are the dims[0] chains of degree 0.
    """

    __slots__ = ("ring", "dims", "boundaries")

    def __init__(self, ring: Ring, dims: list[int],
                 boundaries: dict[int, SparseMatrix] | None = None):
        self.ring = ring
        self.dims = dims
        self.boundaries = {} if boundaries is None else boundaries

    def _key(self):
        return self.ring, self.dims, self.boundaries

    @property
    def top(self) -> int:
        return len(self.dims) - 1

    @_paused
    def homology(self, n: int) -> HomologyModule:
        """Homology at degree n; needs boundaries n and n+1 inside the window,
        whose square `homology_window` checks."""
        _require_degree(n)
        if n + 1 > self.top:
            raise IndexOutOfRange(f"degree {n} needs boundary {n + 1} in the window")
        return homology_window(self.boundaries.__getitem__, n, n)[0]


def hochschild_window(module: CyclicModule, N: int) -> ChainComplexWindow:
    """The full b-complex of the underlying simplicial module, degrees 0..N:
    C_m with b, not normalized.  The HH functions below compute the same
    homology from the normalized chains."""
    dims = [module.level_dim(m) for m in range(N + 1)]
    boundaries = {m: module.boundary_b(m) for m in range(1, N + 1)}
    return ChainComplexWindow(module.ring, dims, boundaries)


@_paused
def hochschild_homology(module: CyclicModule, n: int) -> HomologyModule:
    """HH_n from the normalized chains, C_m modulo the degenerate tensors,
    whose inclusion into the b-complex of `hochschild_window` is a
    quasi-isomorphism over any ring: b-bar_(n+1) and b-bar_n alone, their
    square checked once."""
    _require_degree(n)
    return homology_window(module.normalized_b, n, n)[0]


@_paused
def hochschild_homology_upto(module: CyclicModule, N: int) -> list[HomologyModule]:
    """HH_0..HH_N from the normalized boundaries b-bar_1, ..., b-bar_(N+1),
    each reduced and each square checked once."""
    _require_degree(N)
    return homology_window(module.normalized_b, 0, N)


# -- normalized (b, B) bicomplex ---------------------------------------------


def total_offsets(chain_dim, n: int) -> list[int]:
    """The offsets of the blocks of Tot_n = C-bar_n (+) C-bar_(n-2) (+) ...
    of the normalized (b, B) bicomplex, block k being C-bar_(n-2k), and
    dim Tot_n last, from chain_dim(m) = dim C-bar_m."""
    return list(accumulate((chain_dim(m) for m in range(n, -1, -2)), initial=0))


def _mixed_boundary(module: CyclicModule, n: int) -> SparseMatrix:
    """D_n = b-bar + B-bar: Tot_n -> Tot_(n-1) of the normalized (b, B)
    bicomplex.  Block k of Tot_n, C-bar_(n-2k), goes by b-bar to block k of
    Tot_(n-1) and by B-bar to block k - 1; no two blocks share an entry."""
    src, tgt = (total_offsets(module.normalized_dim, top) for top in (n, n - 1))
    ent: dict = {}
    for k, m in enumerate(range(n, -1, -2)):
        blocks = []
        if m >= 1:
            blocks.append((module.normalized_b(m), tgt[k]))
        if k >= 1:
            blocks.append((module.normalized_B(m), tgt[k - 1]))
        col0 = src[k]
        for block, row0 in blocks:
            for (i, j), v in block.entries.items():
                ent[(row0 + i, col0 + j)] = v
    return SparseMatrix._unchecked(module.ring, tgt[-1], src[-1], ent)


def _failing_laws(module: CyclicModule, top: int) -> list[str]:
    """The laws of t with itself, the faces and the degeneracies through
    level top that the module breaks."""
    return sorted(name for _, laws in _cyclic_laws(module, top)
                  for name, good in laws.items() if not good)


def _require_cyclic(module: CyclicModule, top: int, engine: str) -> None:
    """Refuse a module that is not cyclic through level top, where the
    engine would not compute HC.  The refusal names the lowest level, at
    least 1, through which a law of t fails, and the laws that fail through
    it; the laws are checked level by level and no level above it is built.
    A module built from an admissible triple is cyclic, and skips the check."""
    if module.cyclic_by_construction:
        return
    failures: list[str] = []
    for m, laws in _cyclic_laws(module, top):
        failures += [name for name, good in laws.items() if not good]
        if failures and m >= 1:
            raise PreconditionFailed(
                f"the module is not cyclic through level {m} "
                f"({', '.join(sorted(failures))} fail), so {engine} does not compute HC"
            )


@_paused
def cyclic_bicomplex_hc(module: CyclicModule, n: int) -> HomologyModule:
    """HC_n as homology of the total complex of the normalized (b, B)
    bicomplex (Loday, Cyclic Homology, 2.1.8), over any ground ring."""
    _require_degree(n)
    _require_cyclic(module, n + 1, "the (b, B) bicomplex")
    return homology_window(partial(_mixed_boundary, module), n, n)[0]


@_paused
def cyclic_bicomplex_hc_upto(module: CyclicModule, N: int) -> list[HomologyModule]:
    """HC_0..HC_N from the total complex, each total boundary built and
    reduced once (`cyclic_bicomplex_hc` per degree builds D_n and D_(n+1))."""
    _require_degree(N)
    _require_cyclic(module, N + 1, "the (b, B) bicomplex")
    return homology_window(partial(_mixed_boundary, module), 0, N)


# -- Connes quotient complex -------------------------------------------------


@_paused
def connes_lambda_hc(module: CyclicModule, n: int) -> HomologyModule:
    """HC_n from the quotient of the b-complex by the cyclic action, which
    computes HC over Q (Loday, Cyclic Homology, 2.1.5).  The tests and
    demos 01 and 04 hold the (b, B) bicomplex to it, and the benchmark
    times it directly.

    Only valid when the coefficient ring contains Q.  Dimensions of the
    quotient homology are recovered from ranks of the boundary matrices
    augmented by generators of the cyclic-action image:

        dim H_n = dim C_n + rank(1 - lambda_{n-1})
                  - rank[b_n | 1 - lambda_{n-1}] - rank[b_{n+1} | 1 - lambda_n]

    with rank(1 - lambda_m) = dim C_m - f_m.  The fixed dimension
    f_m = dim ker(1 - lambda_m) is read from the traces of the powers of t_m
    that the check t_m^(m+1) = id builds (`_fixed_dim`), so the only
    matrices ranked are the augmented ones.  Each level m has one pass
    (`_lambda_level`), and the module keeps nothing of it but numbers:
    whether t_m^(m+1) = id, f_m and rank[b_(m+1) | 1 - lambda_m].  The
    operators t_m and b_(m+1) and the powers of t_m are dropped when the
    pass is done, and neighbouring degrees share the augmented rank they
    have in common.

    The formula needs a module that is cyclic through level n + 1; where it
    is not (an inadmissible triple) it would return a meaningless, possibly
    negative, dimension.  So t_m^(m+1) = id is checked first, on every level
    m <= n for every module; then a module that is not cyclic by
    construction is refused, like by the bicomplex, unless all laws of t
    hold through level n + 1; only then is a rank taken or an operator of
    level n + 1 built.  A negative dimension is refused as well, with the
    laws the module breaks.
    """
    _require_degree(n)
    R = module.ring
    if not R.contains_rationals:
        raise RingWithoutRationals(
            f"the quotient complex computes HC only over rings containing Q, not {R}"
        )
    # the operators t_m built by the checks, for the ranks after the refusals
    built: dict = {}
    for m in range(n + 1):
        if not _lambda_level(module, m, built)[0]:
            raise PreconditionFailed(
                f"t_{m}^{m + 1} != id: the module is not cyclic at level {m}, "
                f"so the quotient complex does not compute HC_{n}"
            )
    _require_cyclic(module, n + 1, "the quotient complex")
    r_in = _lambda_level(module, n, built, ranked=True)[2]
    if n == 0:
        return HomologyModule(R, module.level_dim(0) - r_in)
    _, f, r_out = _lambda_level(module, n - 1, built, ranked=True)
    dim = module.level_dim(n) + module.level_dim(n - 1) - f - r_out - r_in
    if dim < 0:
        raise PreconditionFailed(
            f"the quotient complex gives dimension {dim} for HC_{n}: the module is not "
            f"cyclic through level {n + 1} ({', '.join(_failing_laws(module, n + 1))} fail)"
        )
    return HomologyModule(R, dim)


def _lambda_level(module: CyclicModule, m: int, built: dict, ranked: bool = False) -> tuple:
    """The pass of level m of `connes_lambda_hc`, kept with the module under
    one key: (t_m^(m+1) = id, f_m, rank[b_(m+1) | 1 - lambda_m]), with f_m
    None where t_m^(m+1) != id and the rank None until `ranked`.

    t_m comes from the memo or is built unstored, and a t_m built here goes
    into `built` for a later rank of the same call.  The verdict is also
    stored under the key of `_cyclic_order_holds`, which the law checks
    share.  1 - lambda_m is written into the fresh entries of b_(m+1)."""
    key = ("lambda", m)
    level = module._cache.get(key)
    if level is None:
        t = built[m] = module._peek(("t", m), partial(module._cyclic, m))
        holds, powers = _order_powers(module.ring, m, t)
        module._cache[("t^(m+1) = id", m)] = holds
        level = (holds, _fixed_dim(module.ring, m, powers) if holds else None, None)
        module._cache[key] = level
    if ranked and level[2] is None:
        t = built[m] if m in built else module._peek(("t", m), partial(module._cyclic, m))
        b = module._alternating_faces(m + 1, m + 2)
        ent = _write_one_minus_lambda(module.ring, m, t, b.entries, b.ncols)
        augmented = SparseMatrix._unchecked(module.ring, b.nrows, b.ncols + t.ncols, ent)
        level = module._cache[key] = level[:2] + (rank(augmented),)
    return level


def _order_powers(R: Ring, m: int, t: SparseMatrix) -> tuple[bool, list[SparseMatrix]]:
    """Whether t^(m+1) = id for t = t_m, and the powers t^1..t^a,
    a = ceil((m + 1) / 2), that the check builds: the power is split as
    t^a . t^b with b = m + 1 - a, so it takes a products instead of m."""
    a = (m + 2) // 2
    powers = [t]  # powers[k - 1] = t^k
    while len(powers) < a:
        powers.append(t @ powers[-1])
    top = powers[-1] @ powers[m - a] if m else t
    return top == SparseMatrix.identity(R, t.nrows), powers


def _fixed_dim(R: Ring, m: int, powers: list[SparseMatrix]) -> int:
    """f = dim ker(1 - lambda_m), from the powers t^1..t^a of `_order_powers`
    of a t = t_m with t^(m+1) = id.

    Then lambda = (-1)^m t has lambda^(m+1) = id, so over a ring containing
    Q, P = (1/(m+1)) sum(lambda^k, k = 0..m) is the projector onto
    ker(1 - lambda), and f is its trace,
    f = (1/(m+1)) sum((-1)^(mk) tr(t^k), k = 0..m).  For k > a,
    tr(t^k) = sum((t^a)_ij (t^(k-a))_ji) is summed over the entries without
    forming the product.  The trace must be an integer 0 <= f <= dim C_m;
    any other value is refused with `HopfCyclError`."""
    dim = powers[0].nrows
    a = len(powers)
    top = powers[-1].entries
    total = R.from_int(dim)  # the trace of t^0
    for k in range(1, m + 1):
        if k <= a:
            diagonal = powers[k - 1].entries.get
            tr = R.sum(v for i in range(dim) if (v := diagonal((i, i))) is not None)
        else:
            small, large = sorted((top, powers[k - a - 1].entries), key=len)
            mul, get = R.mul, large.get
            tr = R.sum(mul(v, w) for (i, j), v in small.items() if (w := get((j, i))) is not None)
        total = R.sub(total, tr) if m * k % 2 else R.add(total, tr)
    trace = R.mul(total, R.inv(R.from_int(m + 1)))
    f = R.as_int(trace)
    if f is None or not 0 <= f <= dim:
        raise HopfCyclError(
            f"the traces of the powers of t_{m} give dim ker(1 - lambda_{m}) = "
            f"{R.format(trace)}, not an integer in 0..{dim}"
        )
    return f


def _cyclic_order_holds(module: CyclicModule, m: int) -> bool:
    """Whether t_m^(m+1) = id (`_order_powers`), kept with the module's
    operators; the quotient engine keeps its verdicts under the same key."""
    return module._memo(("t^(m+1) = id", m),
                        lambda: _order_powers(module.ring, m, module.cyclic(m))[0])


# -- cyclic module law verification ------------------------------------------


@_paused
def verify_cyclic_axioms(module: CyclicModule, N: int) -> dict[str, bool]:
    """Exact matrix verification of the simplicial and cyclic identities.

    Checks, for every level m <= N: the simplicial relations among faces and
    degeneracies, the compatibilities of the cyclic operator with both, and
    t^(m+1) = id.  Returns a name -> pass map; failures are itemized by name.
    A degeneracy on the left of a product acts on the rows of the right
    factor (`degenerate`), so no operator with source level above N is built.
    The laws s_i s_j = s_(j+1) s_i of a module with tensor legs read only
    the ring, the dimension and unit of its algebra and its fixed legs, so
    their verdicts are kept in the algebra's table store under (module
    class, level), shared by every module of that algebra and class
    (`_degeneracy_laws`).  A negative N is refused with `IndexOutOfRange`.
    """
    _require_degree(N)
    report: dict[str, bool] = {}

    def check(name, lhs, rhs):
        report[name] = lhs == rhs

    for m in range(N + 1):
        if m >= 2:
            for j in range(m + 1):
                for i in range(j):
                    # d_i d_j = d_(j-1) d_i for i < j
                    check(
                        f"d_{i} d_{j} (level {m})",
                        module.face(m - 1, i) @ module.face(m, j),
                        module.face(m - 1, j - 1) @ module.face(m, i),
                    )
        report.update(_degeneracy_laws(module, m))
        if m >= 1:
            for j in range(m):
                for i in range(m + 1):
                    # mixed identities d_i s_j on level m - 1 degeneracies
                    lhs = module.face(m, i) @ module.degeneracy(m - 1, j)
                    # i < j and i > j + 1 need j >= 1 resp. i >= 2, so m >= 2
                    if i < j:
                        rhs = module.degenerate(m - 2, j - 1, module.face(m - 1, i))
                    elif i in (j, j + 1):
                        rhs = SparseMatrix.identity(module.ring, module.level_dim(m - 1))
                    else:
                        rhs = module.degenerate(m - 2, j, module.face(m - 1, i - 1))
                    check(f"d_{i} s_{j} (level {m - 1})", lhs, rhs)
    for _, laws in _cyclic_laws(module, N):
        report.update(laws)
    return report


def _degeneracy_laws(module: CyclicModule, m: int) -> dict[str, bool]:
    """The verdicts of s_i s_j = s_(j+1) s_i, i <= j <= m, at level m
    (Loday, Cyclic Homology, 1.5.1), in report order; each composite of
    level m + 2 is built and compared exactly.

    `TensorCyclicModule.degenerate` reads only the ring, `algebra.dim`,
    `algebra.unit` and `fixed_legs`, so every module of one algebra and
    class has the same laws: the Connes-Moscovici modules of all triples of
    a Hopf algebra share them, computed once per level and kept in the
    algebra's table store, which is dropped with the algebra.  The key holds
    the class, so a subclass that overrides `degenerate` and the classical
    module of the same algebra compute their own.  A module without tensor
    legs (`GammaCyclicModule`) computes them on every call."""

    def build():
        return {
            f"s_{i} s_{j} (level {m})": (
                module.degenerate(m + 1, i, module.degeneracy(m, j))
                == module.degenerate(m + 1, j + 1, module.degeneracy(m, i))
            )
            for j in range(m + 1)
            for i in range(j + 1)
        }

    if not isinstance(module, TensorCyclicModule):
        return build()
    return module.algebra.shared(("degeneracy laws", type(module), m), build)


def _cyclic_laws(module: CyclicModule, N: int):
    """Per level m <= N, in order, (m, laws): t_m^(m+1) = id and the
    compatibilities of t_m with the faces of level m and the degeneracies
    into it.  A level is built only when the caller asks for it, and no
    operator above level N is built."""
    for m in range(N + 1):
        laws: dict[str, bool] = {}
        t = module.cyclic(m)
        laws[f"t_{m}^{m + 1} = id"] = _cyclic_order_holds(module, m)
        if m >= 1:
            laws[f"d_0 t (level {m})"] = module.face(m, 0) @ t == module.face(m, m)
            for i in range(1, m + 1):
                laws[f"d_{i} t (level {m})"] = (
                    module.face(m, i) @ t == module.cyclic(m - 1) @ module.face(m, i - 1)
                )
            # cyclic-degeneracy compatibility on level m - 1
            tm1 = module.cyclic(m - 1)
            laws[f"s_0 t (level {m - 1})"] = (
                module.degenerate(m - 1, 0, tm1) == t @ (t @ module.degeneracy(m - 1, m - 1))
            )
            for i in range(1, m):
                laws[f"s_{i} t (level {m - 1})"] = (
                    module.degenerate(m - 1, i, tm1) == t @ module.degeneracy(m - 1, i - 1)
                )
        yield m, laws


# -- SBI rank bookkeeping ----------------------------------------------------


class SBIReport(Record):
    __slots__ = ("consistent", "ranks", "reason")

    def __init__(self, consistent: bool, ranks: list[tuple[int, int, int]], reason: str = ""):
        self.consistent = consistent
        self.ranks = ranks  # per degree: rank(I_n), rank(S_n), rank(B_n)
        self.reason = reason

    def _key(self):
        return self.consistent, self.ranks, self.reason


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


@_paused
def sbi_check(module: CyclicModule, N: int) -> SBIReport:
    """Compute Hochschild and cyclic dimensions up to N and run the
    bookkeeping; HH comes from the normalized b-complex and HC from the
    normalized (b, B) bicomplex, over every ring."""
    h_dims = [h.free_rank for h in hochschild_homology_upto(module, N)]
    hc_dims = [h.free_rank for h in cyclic_bicomplex_hc_upto(module, N)]
    return sbi_rank_assignment(h_dims, hc_dims)
