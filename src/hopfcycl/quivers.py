"""Quivers, truncated path algebras, their Hochschild and cyclic homology,
and the Taft Hopf structure on the truncated crown.

A path is stored as a tuple of arrow indices read left to right, so the
product of paths is concatenation-when-composable; vertices are the paths of
length zero.  The homology machinery follows the small resolution whose
degree-i generators are the paths of length floor(i/2)*n (+1 when i is odd),
with closed-path pairs as the induced Hochschild carrier.  Closed formulas
for the graded pieces and for the cyclic homology of the truncation are
evaluated from necklace counts (rotation orbits of cycles).
"""

from __future__ import annotations

from math import gcd

from .cyclic import ChainComplexWindow
from .errors import (
    HopfCyclError,
    NegativePartialSum,
    ParseError,
    PreconditionFailed,
    RingWithoutRationals,
)
from .hopf import AlgebraData, Character, GroupLike, HopfAlgebraData, check_cm_triple
from .rings import (
    CyclotomicField,
    HomologyModule,
    Ring,
    annihilator_and_quotient,
    free_module,
    primitive_root_of_unity,
    zero_module,
)
from .sparse import SparseMatrix, homology_at, rank


class Quiver:
    """Finite quiver: labelled vertices and arrows with endpoints."""

    def __init__(self, vertex_labels, arrows):
        self.vertex_labels = list(vertex_labels)
        self.num_vertices = len(self.vertex_labels)
        self.arrow_labels = []
        self.src = []
        self.tgt = []
        for label, s, t in arrows:
            if not (0 <= s < self.num_vertices and 0 <= t < self.num_vertices):
                raise ParseError(f"arrow {label} has a missing endpoint")
            self.arrow_labels.append(label)
            self.src.append(s)
            self.tgt.append(t)
        self.num_arrows = len(self.arrow_labels)

    @classmethod
    def crown(cls, n: int) -> "Quiver":
        """The cyclic quiver: n vertices, arrow a_i from vertex i to i+1 mod n."""
        if n < 1:
            raise ParseError("crown size must be >= 1")
        return cls(
            [f"v{i}" for i in range(n)],
            [(f"a{i}", i, (i + 1) % n) for i in range(n)],
        )

    @classmethod
    def from_json(cls, obj) -> "Quiver":
        if not isinstance(obj, dict):
            raise ParseError("quiver spec must be a JSON object")
        if "crown" in obj:
            return cls.crown(obj["crown"])
        if "vertices" in obj and "arrows" in obj:
            labels = list(obj["vertices"])
            pos = {v: i for i, v in enumerate(labels)}
            arrows = []
            for a in obj["arrows"]:
                if a["src"] not in pos or a["tgt"] not in pos:
                    raise ParseError(f"arrow {a.get('id')} references unknown vertices")
                arrows.append((a["id"], pos[a["src"]], pos[a["tgt"]]))
            return cls(labels, arrows)
        raise ParseError("quiver spec needs either 'crown' or 'vertices'+'arrows'")

    # -- paths ---------------------------------------------------------------
    def path_src(self, path: tuple) -> int:
        # a length-0 path is ('e', v)
        return path[1] if path[0] == "e" else self.src[path[0]]

    def path_tgt(self, path: tuple) -> int:
        return path[1] if path[0] == "e" else self.tgt[path[-1]]

    def path_len(self, path: tuple) -> int:
        return 0 if path[0] == "e" else len(path)

    def trivial_path(self, v: int) -> tuple:
        return ("e", v)

    def paths_of_length(self, q: int) -> list[tuple]:
        """All paths with exactly q arrows, in deterministic order."""
        if q == 0:
            return [("e", v) for v in range(self.num_vertices)]
        out_arrows = [[] for _ in range(self.num_vertices)]
        for a in range(self.num_arrows):
            out_arrows[self.src[a]].append(a)
        paths = [(a,) for a in range(self.num_arrows)]
        for _ in range(q - 1):
            paths = [p + (a,) for p in paths for a in out_arrows[self.tgt[p[-1]]]]
        return sorted(paths)

    def compose(self, p: tuple, q: tuple):
        """Concatenation p.q when tgt(p) = src(q), else None."""
        if self.path_tgt(p) != self.path_src(q):
            return None
        if p[0] == "e":
            return q
        if q[0] == "e":
            return p
        return p + q


def cycle_orbit_counts(quiver: Quiver, q: int) -> tuple[int, dict[int, int]]:
    """(a_q, {b_r: r <= q}): rotation orbits of length-q cycles, and the
    orbits in each length r <= q that are not proper powers of shorter cycles.

    A cycle is a closed path up to rotation of its arrow sequence; it is a
    proper power when its arrow sequence has rotation period < r.
    """
    b = {}
    a_q = 0
    for r in range(1, q + 1):
        seen = set()
        orbits = primitive = 0
        for p in quiver.paths_of_length(r):
            if p[0] == "e" or quiver.path_tgt(p) != quiver.path_src(p) or p in seen:
                continue
            rotations = {p[i:] + p[:i] for i in range(r)}
            seen |= rotations
            orbits += 1
            period = min(
                d for d in range(1, r + 1) if r % d == 0 and p[d:] + p[:d] == p
            )
            if period == r:
                primitive += 1
        b[r] = primitive
        if r == q:
            a_q = orbits
    if q == 0:
        a_q = quiver.num_vertices
    return a_q, b


# ---------------------------------------------------------------------------
# truncated path algebras
# ---------------------------------------------------------------------------


class TruncatedPathAlgebra:
    """kDelta / (paths of length >= n), with its graded basis of short paths."""

    def __init__(self, quiver: Quiver, n: int, ring: Ring):
        if n < 1:
            raise PreconditionFailed("truncation exponent must be >= 1")
        self.quiver = quiver
        self.n = n
        self.ring = ring
        basis: list[tuple] = []
        for q in range(n):
            basis.extend(quiver.paths_of_length(q))
        self.basis_paths = basis
        self.grades = [quiver.path_len(p) for p in basis]
        self.path_index = {p: i for i, p in enumerate(basis)}
        mult = []
        for p in basis:
            row = []
            for s in basis:
                c = quiver.compose(p, s)
                if c is None or quiver.path_len(c) >= n:
                    row.append({})
                else:
                    row.append({self.path_index[c]: ring.one})
            mult.append(row)
        unit = {self.path_index[("e", v)]: ring.one for v in range(quiver.num_vertices)}
        labels = []
        for p in basis:
            if p[0] == "e":
                labels.append(quiver.vertex_labels[p[1]])
            else:
                labels.append("*".join(quiver.arrow_labels[a] for a in p))
        self.algebra = AlgebraData(ring, labels, mult, unit)

    @property
    def dim(self) -> int:
        return self.algebra.dim


def truncated_algebra(quiver: Quiver, n: int, ring: Ring) -> TruncatedPathAlgebra:
    return TruncatedPathAlgebra(quiver, n, ring)


def vertex_character(A: TruncatedPathAlgebra, v: int) -> Character:
    """The character sending the idempotent of vertex v to 1, all else to 0."""
    R = A.ring
    values = [
        R.one if p == ("e", v) else R.zero for p in A.basis_paths
    ]
    return Character(R, values)


# ---------------------------------------------------------------------------
# the small bimodule resolution and its Hochschild complex
# ---------------------------------------------------------------------------


def _generator_paths(quiver: Quiver, n: int, i: int) -> list[tuple]:
    """Degree-i generators: paths of length (i//2)*n, plus one when i is odd."""
    c = i // 2
    return quiver.paths_of_length(c * n + (i % 2))


def skoldberg_resolution(A: TruncatedPathAlgebra, i_max: int) -> dict:
    """The bimodule complex P_i = A (x) k[generators] (x) A, with exactness report.

    Basis of P_i: triples (u, gamma, v) of truncated paths with u composable
    into gamma and gamma into v.  The odd differential peels one arrow off
    each end of gamma; the even one sums the n ways of splitting gamma into
    (head, middle, tail) with the middle of the right length.  The report
    verifies d.d = 0, grade preservation, and exactness of the augmented
    complex in degrees < i_max via rank counts over the coefficient field.
    """
    quiver, n, R = A.quiver, A.n, A.ring
    bases = []
    indices = []
    for i in range(i_max + 1):
        gens = _generator_paths(quiver, n, i)
        basis = []
        for g in gens:
            for u in A.basis_paths:
                if quiver.path_tgt(u) != quiver.path_src(g):
                    continue
                for v in A.basis_paths:
                    if quiver.path_src(v) == quiver.path_tgt(g):
                        basis.append((u, g, v))
        bases.append(basis)
        indices.append({b: k for k, b in enumerate(basis)})

    def emit(col, index, u, g, v, sign):
        # u or v may have grown past the truncation, in which case the term dies
        if quiver.path_len(u) >= n or quiver.path_len(v) >= n:
            return
        k = index[(u, g, v)]
        cur = R.add(col.get(k, R.zero), R.one if sign > 0 else R.neg(R.one))
        if R.is_zero(cur):
            col.pop(k, None)
        else:
            col[k] = cur

    diffs = {}
    for i in range(1, i_max + 1):
        cols = []
        index = indices[i - 1]
        for (u, g, v) in bases[i]:
            col: dict = {}
            if i % 2 == 1:
                # peel the first arrow into u, or the last arrow into v
                head, tail = (g[0],), g[1:] if len(g) > 1 else ("e", quiver.tgt[g[0]])
                emit(col, index, quiver.compose(u, head), tail, v, +1)
                init = g[:-1] if len(g) > 1 else ("e", quiver.src[g[-1]])
                last = (g[-1],)
                emit(col, index, u, init, quiver.compose(last, v), -1)
            else:
                c = i // 2
                mid_len = (c - 1) * n + 1
                for j in range(n):
                    head = g[:j] if j else ("e", quiver.path_src(g))
                    middle = g[j : j + mid_len]
                    tail_arrows = g[j + mid_len :]
                    tail = tail_arrows if tail_arrows else ("e", quiver.path_tgt(g))
                    emit(
                        col, index,
                        quiver.compose(u, head), middle, quiver.compose(tail, v), +1,
                    )
            cols.append(col)
        diffs[i] = SparseMatrix.from_columns(R, len(bases[i - 1]), cols)

    # the augmentation P_0 -> A is multiplication u (x) v -> uv
    aug_cols = []
    for (u, g, v) in bases[0]:
        prod = quiver.compose(quiver.compose(u, g), v)
        if prod is not None and quiver.path_len(prod) < n:
            aug_cols.append({A.path_index[prod]: R.one})
        else:
            aug_cols.append({})
    augmentation = SparseMatrix.from_columns(R, A.dim, aug_cols)

    report = {"dims": [len(b) for b in bases], "boundaries": diffs,
              "augmentation": augmentation, "bases": bases}
    squares = all((diffs[i] @ diffs[i + 1]).is_zero for i in range(1, i_max))
    squares = squares and (augmentation @ diffs[1]).is_zero
    report["d_squared_zero"] = squares

    def grade(b):
        u, g, v = b
        return quiver.path_len(u) + quiver.path_len(g) + quiver.path_len(v)

    graded = True
    for i in range(1, i_max + 1):
        for (r, ccol), val in diffs[i].entries.items():
            if grade(bases[i][ccol]) != grade(bases[i - 1][r]):
                graded = False
    report["grade_preserving"] = graded

    if R.is_field:
        ranks = {i: rank(diffs[i]) for i in range(1, i_max + 1)}
        exact = rank(augmentation) == A.dim
        exact = exact and (len(bases[0]) - ranks[1] == A.dim)
        for i in range(1, i_max):
            exact = exact and (ranks[i] + ranks[i + 1] == len(bases[i]))
        report["exact"] = exact
    return report


def _closed_pairs(A: TruncatedPathAlgebra, i: int) -> list[tuple]:
    """Basis of the induced Hochschild carrier in degree i: pairs (a, gamma)
    with a a truncated path, gamma a degree-i generator, and a.gamma closed."""
    quiver, n = A.quiver, A.n
    out = []
    for g in _generator_paths(quiver, n, i):
        for a in A.basis_paths:
            if (
                quiver.path_tgt(a) == quiver.path_src(g)
                and quiver.path_tgt(g) == quiver.path_src(a)
            ):
                out.append((a, g))
    return out


def _hh_window(A: TruncatedPathAlgebra, p_max: int) -> ChainComplexWindow:
    """The complex A (x)_{bimodule} P_* computed on closed (a, gamma) pairs."""
    quiver, n, R = A.quiver, A.n, A.ring
    bases = [_closed_pairs(A, i) for i in range(p_max + 1)]
    indices = [{b: k for k, b in enumerate(basis)} for basis in bases]

    def emit(col, index, a, g, sign):
        if a is None or quiver.path_len(a) >= n:
            return
        k = index[(a, g)]
        cur = R.add(col.get(k, R.zero), R.one if sign > 0 else R.neg(R.one))
        if R.is_zero(cur):
            col.pop(k, None)
        else:
            col[k] = cur

    boundaries = {}
    for i in range(1, p_max + 1):
        cols = []
        index = indices[i - 1]
        for (a, g) in bases[i]:
            col: dict = {}
            if i % 2 == 1:
                head = (g[0],)
                tail = g[1:] if len(g) > 1 else ("e", quiver.tgt[g[0]])
                emit(col, index, quiver.compose(a, head), tail, +1)
                init = g[:-1] if len(g) > 1 else ("e", quiver.src[g[-1]])
                last = (g[-1],)
                emit(col, index, quiver.compose(last, a), init, -1)
            else:
                c = i // 2
                mid_len = (c - 1) * n + 1
                for j in range(n):
                    head = g[:j] if j else ("e", quiver.path_src(g))
                    middle = g[j : j + mid_len]
                    tail_arrows = g[j + mid_len :]
                    tail = tail_arrows if tail_arrows else ("e", quiver.path_tgt(g))
                    new_a = quiver.compose(quiver.compose(tail, a), head)
                    emit(col, index, new_a, middle, +1)
            cols.append(col)
        boundaries[i] = SparseMatrix.from_columns(R, len(bases[i - 1]), cols)
    window = ChainComplexWindow(R, [len(b) for b in bases], boundaries)
    window.pair_bases = bases
    return window


def _pair_grades(A: TruncatedPathAlgebra, window: ChainComplexWindow) -> list[list[int]]:
    """The path-length grade len(a) + len(gamma) of every pair, per degree."""
    path_len = A.quiver.path_len
    return [[path_len(a) + path_len(g) for a, g in basis] for basis in window.pair_bases]


def _grade_positions(grades) -> tuple[list[int], dict[int, int]]:
    """Each index's position among the indices of its grade, and the number
    of indices of each grade."""
    at, count = [], {}
    for q in grades:
        at.append(count.get(q, 0))
        count[q] = at[-1] + 1
    return at, count


def _graded_blocks(M: SparseMatrix, row_grades, col_grades) -> dict[int, SparseMatrix]:
    """The diagonal blocks of a grade-preserving matrix: block q keeps the
    rows and columns of grade q in their order.  Every grade of a row or a
    column has a block, empty blocks included."""
    rows_at, nrows = _grade_positions(row_grades)
    cols_at, ncols = _grade_positions(col_grades)
    ent: dict = {}
    for (r, c), v in M.entries.items():
        q = col_grades[c]
        if row_grades[r] == q:
            ent.setdefault(q, {})[(rows_at[r], cols_at[c])] = v
    return {
        q: SparseMatrix(M.ring, nrows.get(q, 0), ncols.get(q, 0), ent.get(q))
        for q in sorted(nrows.keys() | ncols.keys())
    }


def hh_via_skoldberg(A: TruncatedPathAlgebra, p: int):
    """HH_p(A, A) from the small complex: (total, {grade q: HomologyModule}).

    The complex splits along the path-length grading of the pairs (a, gamma),
    so each graded piece is computed on its own subcomplex.
    """
    if A.n < 2:
        raise PreconditionFailed("the small complex needs truncation exponent >= 2")
    window = _hh_window(A, p + 1)
    grades = _pair_grades(A, window)
    d_in = _graded_blocks(window.boundaries[p + 1], grades[p], grades[p + 1])
    d_out = _graded_blocks(window.boundaries[p], grades[p - 1], grades[p]) if p else None
    per_grade = {}
    total = zero_module(A.ring)
    for q in sorted(set(grades[p])):
        out = d_out[q] if p else SparseMatrix.zero(A.ring, 0, d_in[q].nrows)
        # the window checked D_p . D_(p+1) = 0, so each graded block squares to zero
        piece = homology_at(d_in[q], out, check_square=False)
        per_grade[q] = piece
        total = total + piece
    return total, per_grade


def hh_closed_form(quiver: Quiver, n: int, p: int, q: int, ring: Ring) -> HomologyModule:
    """The five-case closed formula for the graded piece HH_{p,q} of the
    truncation, driven by the necklace counts a_q and b_r."""
    if n < 2:
        raise PreconditionFailed("closed formula needs truncation exponent >= 2")
    if p < 0 or q < 0:
        return zero_module(ring)
    if p == 0 and q == 0:
        return free_module(ring, quiver.num_vertices)
    c, e = divmod(q, n)
    a_q, b = cycle_orbit_counts(quiver, q)
    if 1 <= e <= n - 1 and 2 * c <= p <= 2 * c + 1:
        return free_module(ring, a_q)
    if e == 0 and q > 0 and p in (2 * c, 2 * c - 1):
        out = zero_module(ring)
        for r in range(1, q + 1):
            if q % r != 0 or b.get(r, 0) == 0:
                continue
            g = gcd(n, r)
            ann, quot = annihilator_and_quotient(n // g, ring)
            piece = free_module(ring, g - 1) + (ann if p == 2 * c else quot)
            for _ in range(b[r]):
                out = out + piece
        return out
    return zero_module(ring)


# ---------------------------------------------------------------------------
# coefficient homology for vertex characters
# ---------------------------------------------------------------------------


def coefficient_homology_skoldberg(
    A: TruncatedPathAlgebra, alpha_vertex: int, beta_vertex: int, p: int
) -> HomologyModule:
    """H_p(A, k twisted by two vertex characters), via the small complex.

    The degree-i carrier is spanned by the generators gamma running from the
    beta vertex to the alpha vertex; because vertex characters kill every
    arrow, all differentials vanish, so homology = carrier.  Both the closed
    description and the actually-built complex are computed; they must agree.
    """
    if A.n < 2:
        raise PreconditionFailed("the small complex needs truncation exponent >= 2")
    quiver, R = A.quiver, A.ring

    def carrier(i):
        return [
            g
            for g in _generator_paths(quiver, A.n, i)
            if quiver.path_src(g) == beta_vertex and quiver.path_tgt(g) == alpha_vertex
        ]

    closed_dim = len(carrier(p))
    # built path: the differentials apply characters to the path pieces moved
    # out of gamma; a vertex character vanishes on every positive path, and
    # every moved piece has length >= 1, so the matrices are zero by inspection
    dims = [len(carrier(i)) for i in range(p + 2)]
    boundaries = {
        i: SparseMatrix.zero(R, dims[i - 1], dims[i]) for i in range(1, p + 2)
    }
    built = ChainComplexWindow(R, dims, boundaries).homology(p)
    if built.free_rank != closed_dim:
        raise HopfCyclError("closed and built coefficient homology disagree")
    return built


# ---------------------------------------------------------------------------
# the untruncated (n = 0) and radical-square-zero-free (n = 1) edge cases
# ---------------------------------------------------------------------------


def path_algebra_hh(quiver: Quiver, grade_cap: int, ring: Ring) -> dict:
    """Per-grade HH_0 and HH_1 of the full path algebra (zero above degree 1).

    Uses the length-1 bimodule resolution: in grade q the complex is
    k[pairs (nu, arrow) closing up] -> k[cycles of length q], with
    (nu, a) -> nu.a - a.nu, both read as closed paths.
    """
    out = {"hh0": {}, "hh1": {}}
    for q in range(grade_cap + 1):
        cycles = [
            p
            for p in quiver.paths_of_length(q)
            if quiver.path_src(p) == quiver.path_tgt(p)
        ]
        index = {p: k for k, p in enumerate(cycles)}
        if q == 0:
            out["hh0"][q] = HomologyModule(ring, len(cycles))
            out["hh1"][q] = HomologyModule(ring, 0)
            continue
        pairs = []
        for nu in quiver.paths_of_length(q - 1):
            for a in range(quiver.num_arrows):
                if (
                    quiver.path_tgt(nu) == quiver.src[a]
                    and quiver.tgt[a] == quiver.path_src(nu)
                ):
                    pairs.append((nu, a))
        cols = []
        for (nu, a) in pairs:
            col: dict = {}
            right = quiver.compose(nu, (a,))
            left = quiver.compose((a,), nu)
            for path, sign in ((right, +1), (left, -1)):
                k = index[path]
                cur = ring.add(col.get(k, ring.zero), ring.one if sign > 0 else ring.neg(ring.one))
                if ring.is_zero(cur):
                    col.pop(k, None)
                else:
                    col[k] = cur
            cols.append(col)
        delta = SparseMatrix.from_columns(ring, len(cycles), cols)
        zero_in = SparseMatrix.zero(ring, len(pairs), 0)
        zero_out0 = SparseMatrix.zero(ring, 0, len(cycles))
        out["hh0"][q] = homology_at(delta, zero_out0)
        out["hh1"][q] = homology_at(zero_in, delta)
    return out


def semisimple_case(
    quiver: Quiver, ring: Ring, N: int = 4,
    alpha_vertex: int | None = None, beta_vertex: int | None = None,
) -> dict:
    """Homology tables for the vertex algebra (truncation exponent 1).

    HH is concentrated in degree 0 with one copy of k per vertex; coefficient
    homology for a pair of vertex characters follows the two-case count; HC
    alternates between the vertex count and zero.
    """
    v = quiver.num_vertices
    hh = [free_module(ring, v if p == 0 else 0) for p in range(N + 1)]
    hc = [free_module(ring, v if p % 2 == 0 else 0) for p in range(N + 1)]
    table = {"hh": hh, "hc": hc}
    if alpha_vertex is not None and beta_vertex is not None:
        h0 = v if alpha_vertex == beta_vertex else v - 2
        table["coefficient"] = [
            free_module(ring, h0 if p == 0 else 0) for p in range(N + 1)
        ]
    return table


# ---------------------------------------------------------------------------
# cyclic homology of the truncation
# ---------------------------------------------------------------------------


def graded_sbi_hc(A: TruncatedPathAlgebra, N: int) -> list[int]:
    """HC dimensions 0..N of the truncation from the graded splitting.

    The reduced theory satisfies dim rHC_n = sum((-1)^(n-j) dim rHH_j, j<=n),
    where reduced means relative to the vertex subalgebra; the full HC adds
    back the vertex-algebra cyclic homology (vertex count in even degrees).
    Negative partial sums signal an inconsistent Hochschild table.
    """
    R = A.ring
    if not R.contains_rationals:
        raise RingWithoutRationals("the graded splitting argument needs Q in the ring")
    if A.n < 2:
        raise PreconditionFailed("the small complex needs truncation exponent >= 2")
    v = A.quiver.num_vertices
    # one small complex for all degrees; dim HH_j = dim C_j - rank D_j - rank D_(j+1),
    # each rank the sum over the graded blocks, each block ranked once
    window = _hh_window(A, N + 1)
    grades = _pair_grades(A, window)
    ranks = [0] + [
        sum(
            rank(block)
            for block in _graded_blocks(window.boundaries[i], grades[i - 1], grades[i]).values()
            if block.entries
        )
        for i in range(1, N + 2)
    ]
    reduced_hh = [
        window.dims[j] - ranks[j] - ranks[j + 1] - (v if j == 0 else 0) for j in range(N + 1)
    ]
    out = []
    acc = 0
    for nn in range(N + 1):
        acc = reduced_hh[nn] - acc
        if acc < 0:
            raise NegativePartialSum(
                f"reduced cyclic dimension would be {acc} in degree {nn}"
            )
        out.append(acc + (v if nn % 2 == 0 else 0))
    return out


def hc_closed_form_truncated(
    quiver: Quiver, n: int, p: int, ring: Ring, reading: str = "default"
) -> int:
    """dim HC_p of the truncation from the necklace-count formulas.

    Even degrees 2c: #vertices + sum of a_{cn+e} over 0 < e < n, minus the
    correction sum over cycle lengths r dividing (c+1)n that are not
    multiples of n (the `alternative` reading replaces that side condition
    by r not dividing n), each contributing (gcd(r, n) - 1) b_r.  Odd
    degrees: sum over r | n of (r - 1) b_r.

    The two readings agree on crowns and loops; on quivers where they
    differ (e.g. the two-loop), the default is the one confirmed by the
    graded SBI, lambda-quotient and bicomplex engines.
    """
    if n < 2:
        raise PreconditionFailed("closed formula needs truncation exponent >= 2")
    if not ring.contains_rationals:
        raise RingWithoutRationals("the dimension formulas hold over rings containing Q")
    if p % 2 == 1:
        _, b = cycle_orbit_counts(quiver, n)
        return sum((r - 1) * b.get(r, 0) for r in range(1, n + 1) if n % r == 0)
    c = p // 2
    total = quiver.num_vertices
    for e in range(1, n):
        a_q, _ = cycle_orbit_counts(quiver, c * n + e)
        total += a_q
    top = (c + 1) * n
    _, b = cycle_orbit_counts(quiver, top)
    for r in range(1, top + 1):
        if top % r != 0:
            continue
        if reading == "default":
            excluded = r % n == 0
        elif reading == "alternative":
            excluded = n % r == 0
        else:
            raise ValueError("reading must be 'default' or 'alternative'")
        if excluded:
            continue
        total -= (gcd(r, n) - 1) * b.get(r, 0)
    return total


# ---------------------------------------------------------------------------
# the Taft Hopf structure on the truncated crown
# ---------------------------------------------------------------------------


def _tensor_product(R, x: dict, y: dict, algebra: AlgebraData) -> dict:
    """Product in H (x) H of two 2-leg tensors, componentwise."""
    out: dict = {}
    for (a1, a2), c in x.items():
        for (b1, b2), d in y.items():
            coeff = R.mul(c, d)
            left = algebra.mult[a1][b1]
            right = algebra.mult[a2][b2]
            for l, cl in left.items():
                for r, cr in right.items():
                    key = (l, r)
                    cur = R.add(out.get(key, R.zero), R.mul(coeff, R.mul(cl, cr)))
                    if R.is_zero(cur):
                        out.pop(key, None)
                    else:
                        out[key] = cur
    return out


def taft_hopf(n: int, ring: Ring | None = None) -> HopfAlgebraData:
    """The n^2-dimensional Taft Hopf algebra on the n-crown truncated at n.

    Generator values: eps(e_i) = [i = 0], Delta(e_i) = sum of e_j (x) e_k over
    j + k = i, Delta(a_i) = sum of e_j (x) a_k + q^k a_j (x) e_k, S(e_i) =
    e_(-i), S(a_i) = -q^(i+1) a_(-i-1); extended multiplicatively (Delta, eps)
    and anti-multiplicatively (S) to the path basis.

    These generator values are compatible with the product that composes
    paths right to left (x.y = first y, then x): the crown path of length l
    out of vertex i is the product a_(i+l-1) ... a_(i+1) a_i.  The algebra is
    therefore the opposite of the concatenation algebra of the crown; since
    Hochschild and cyclic homology are insensitive to taking the opposite,
    the truncated-algebra machinery above still applies to the same crown.
    Basis index of the path of length l out of vertex i is l*n + i.
    """
    if ring is None:
        ring = CyclotomicField(n)
    qv = primitive_root_of_unity(ring, n)
    A = truncated_algebra(Quiver.crown(n), n, ring)
    R = ring
    op_mult = [[A.algebra.mult[j][i] for j in range(A.dim)] for i in range(A.dim)]
    algebra = AlgebraData(R, A.algebra.basis_labels, op_mult, A.algebra.unit)

    def idx(i, l):  # path of length l out of vertex i
        return l * n + i % n

    def alg_mul(x: dict, y: dict) -> dict:
        return algebra.multiply(x, y)

    # coproducts of the generators
    delta = [None] * algebra.dim
    for i in range(n):
        delta[idx(i, 0)] = {
            (idx(j, 0), idx((i - j) % n, 0)): R.one for j in range(n)
        }
    for i in range(n):
        d: dict = {}
        for j in range(n):
            k = (i - j) % n
            d[(idx(j, 0), idx(k, 1))] = R.one
            d[(idx(j, 1), idx(k, 0))] = R.pow(qv, k)
        delta[idx(i, 1)] = d
    # extend multiplicatively: p_{i,l} = a_(i+l-1) . p_{i,l-1}
    for l in range(2, n):
        for i in range(n):
            delta[idx(i, l)] = _tensor_product(
                R, delta[idx(i + l - 1, 1)], delta[idx(i, l - 1)], algebra
            )

    counit = [R.zero] * algebra.dim
    for i in range(n):
        counit[idx(i, 0)] = R.one if i == 0 else R.zero

    # antipode, anti-multiplicatively: S(p_{i,l}) = S(p_{i,l-1}) . S(a_{i+l-1})
    s_cols: list[dict] = [None] * algebra.dim
    for i in range(n):
        s_cols[idx(i, 0)] = {idx(-i, 0): R.one}
        s_cols[idx(i, 1)] = {idx(-i - 1, 1): R.neg(R.pow(qv, (i + 1) % n))}
    for l in range(2, n):
        for i in range(n):
            s_cols[idx(i, l)] = alg_mul(s_cols[idx(i, l - 1)], s_cols[idx(i + l - 1, 1)])
    antipode = SparseMatrix.from_columns(R, algebra.dim, s_cols)
    hopf = HopfAlgebraData(algebra, delta, counit, antipode)
    hopf.truncated = A
    hopf.crown_n = n
    hopf.q = qv
    return hopf


def taft_grouplike(hopf: HopfAlgebraData, i: int) -> GroupLike:
    """pi_i = sum of q^(i*l) e_l over the vertices."""
    n = hopf.crown_n
    R = hopf.ring
    return GroupLike.from_vector(
        {l: R.pow(hopf.q, (i * l) % n) for l in range(n)}
    )


def taft_vertex_character(hopf: HopfAlgebraData, u: int) -> Character:
    n = hopf.crown_n
    R = hopf.ring
    values = [R.zero] * hopf.dim
    values[u % n] = R.one
    return Character(R, values)


def taft_cm_congruences(n: int) -> list[tuple[int, int, int]]:
    """All (i, u, v) with ui = vi = 0 and v - u + 1 + i = 0 modulo n."""
    return sorted(
        (i, u, v)
        for i in range(n)
        for u in range(n)
        for v in range(n)
        if (u * i) % n == 0 and (v * i) % n == 0 and (v - u + 1 + i) % n == 0
    )


def taft_cm_triples(n: int, ring: Ring | None = None) -> list[tuple[int, int, int]]:
    """Valid Taft triples, double-checked: the congruence list must coincide
    with matrix validation of every candidate on the actual Hopf data."""
    hopf = taft_hopf(n, ring)
    by_matrix = []
    for i in range(n):
        pi = taft_grouplike(hopf, i)
        for u in range(n):
            alpha = taft_vertex_character(hopf, u)
            for v in range(n):
                beta = taft_vertex_character(hopf, v)
                if check_cm_triple(hopf, pi, alpha, beta).valid:
                    by_matrix.append((i, u, v))
    by_congruence = taft_cm_congruences(n)
    if sorted(by_matrix) != by_congruence:
        raise HopfCyclError("congruence and matrix validation of Taft triples disagree")
    return by_congruence


def taft_cm_module(hopf: HopfAlgebraData, i: int, u: int, v: int, require_valid=True):
    from .cyclic import ConnesMoscoviciModule

    triple = check_cm_triple(
        hopf,
        taft_grouplike(hopf, i),
        taft_vertex_character(hopf, u),
        taft_vertex_character(hopf, v),
    )
    return ConnesMoscoviciModule(hopf, triple, require_valid=require_valid)


def taft_cm_closed_form(n: int, i: int, u: int, v: int, p: int) -> int:
    """The closed dimensions of the twisted cyclic homology of the Taft algebra."""
    if (i, u, v) not in taft_cm_congruences(n):
        raise PreconditionFailed("not an admissible Taft triple")
    if i == (n - 1) % n and u == 0 and v == 0:
        return p // 2 + 1 if p % 2 == 0 else 0
    if i == 0 and v == (u - 1) % n:
        return (p + 1) // 2 if p % 2 == 1 else 0
    return 0


def taft_cm_homology(hopf: HopfAlgebraData, i: int, u: int, v: int, p: int) -> HomologyModule:
    """Twisted cyclic homology of the Taft algebra via the quotient complex."""
    from .cyclic import connes_lambda_hc

    module = taft_cm_module(hopf, i, u, v)
    return connes_lambda_hc(module, p)
