"""Quivers, truncated path algebras, their Hochschild and cyclic homology,
and the Taft Hopf structure on the truncated crown.

A path is stored as a tuple of arrow indices read left to right, so the
product of paths is concatenation-when-composable; vertices are the paths of
length zero.  The homology machinery follows the small resolution whose
degree-i generators are the paths of length floor(i/2)*n (+1 when i is odd),
with closed-path pairs as the induced Hochschild carrier.  Closed formulas
for the graded pieces and for the cyclic homology of the truncation are
evaluated from necklace counts (rotation orbits of cycles), which are
derived from the numbers of closed paths and never listed.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from math import gcd

from .cyclic import ConnesMoscoviciModule, _require_degree, cyclic_bicomplex_hc
from .errors import (
    HopfCyclError,
    NegativePartialSum,
    ParseError,
    PreconditionFailed,
    RingWithoutRationals,
)
from .hopf import (
    AlgebraData,
    Character,
    GroupLike,
    HopfAlgebraData,
    check_cm_triple,
)
from .rings import (
    CyclotomicField,
    HomologyModule,
    Ring,
    annihilator_and_quotient,
    free_module,
    primitive_root_of_unity,
    zero_module,
)
from .sparse import SparseMatrix, _paused, homology_window, rank


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
        if type(n) is not int or n < 1:
            raise ParseError(f"crown size must be an integer >= 1, got {n!r}")
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
            labels, specs = obj["vertices"], obj["arrows"]
            if not isinstance(labels, list) or not all(isinstance(v, (str, int)) for v in labels):
                raise ParseError("'vertices' must be a list of vertex names")
            if len(set(labels)) != len(labels):
                raise ParseError("vertex names must be distinct")
            if not isinstance(specs, list):
                raise ParseError("'arrows' must be a list")
            pos = {v: i for i, v in enumerate(labels)}
            arrows = []
            for a in specs:
                if not (isinstance(a, dict) and {"id", "src", "tgt"} <= a.keys()
                        and isinstance(a["id"], str)):
                    raise ParseError(f"arrow {a!r} must be an object with a string 'id', "
                                     "'src' and 'tgt'")
                # list membership, since an unhashable endpoint is no key of pos
                if a["src"] not in labels or a["tgt"] not in labels:
                    raise ParseError(f"arrow {a['id']} references unknown vertices")
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

    def out_arrows(self) -> list[list[int]]:
        """The arrows leaving each vertex, by vertex."""
        out = [[] for _ in range(self.num_vertices)]
        for a in range(self.num_arrows):
            out[self.src[a]].append(a)
        return out

    def paths_of_length(self, q: int) -> list[tuple]:
        """All paths with exactly q arrows, in deterministic order."""
        if q == 0:
            return [("e", v) for v in range(self.num_vertices)]
        out_arrows = self.out_arrows()
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


def _times(x: Counter, y: Counter) -> Counter:
    """The product of two count matrices keyed by (source, target)."""
    rows: dict[int, list] = {}
    for (s, t), c in y.items():
        rows.setdefault(s, []).append((t, c))
    out = Counter()
    for (s, t), c in x.items():
        for u, d in rows.get(t, ()):
            out[s, u] += c * d
    return out


def _trace(x: Counter) -> int:
    return sum(c for (s, t), c in x.items() if s == t)


def _walk_counts(quiver: Quiver, L: int) -> list[Counter]:
    """W_0..W_L: W_q[(s, t)] is the number of paths of length q from s to t."""
    arrows = Counter(zip(quiver.src, quiver.tgt))
    walks = [Counter({(v, v): 1 for v in range(quiver.num_vertices)})]
    for _ in range(L):
        walks.append(_times(walks[-1], arrows))
    return walks


def cycle_orbit_counts(quiver: Quiver, q: int) -> tuple[int, dict[int, int]]:
    """(a_q, {b_r: r <= q}): rotation orbits of length-q cycles, and the
    orbits in each length r <= q that are not proper powers of shorter cycles.

    A cycle is a closed path up to rotation of its arrow sequence; it is a
    proper power when its arrow sequence has rotation period < r.  Orbits are
    counted, not listed: a closed path of length r is the (r/d)-th power of
    one of the d rotations of a primitive cycle of length d | r, so tr W_r is
    the sum of d * b_d over d | r, and a_q is the sum of b_d over d | q.
    """
    walks = _walk_counts(quiver, q)
    b: dict[int, int] = {}
    for r in range(1, q + 1):
        b[r] = (_trace(walks[r]) - sum(d * b[d] for d in range(1, r) if r % d == 0)) // r
    a_q = sum(b[d] for d in b if q % d == 0) if q else quiver.num_vertices
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
        # the basis paths from s to t, by (s, t), in basis order
        self.paths_between: dict[tuple[int, int], list[tuple]] = {}
        for p in basis:
            self.paths_between.setdefault((quiver.path_src(p), quiver.path_tgt(p)), []).append(p)

    @cached_property
    def algebra(self) -> AlgebraData:
        """The algebra on the path basis, with its dim x dim product table;
        built on first use, since the resolution and the small complex work
        on paths and never read the table."""
        quiver, n, ring = self.quiver, self.n, self.ring
        basis = self.basis_paths
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
        return AlgebraData(ring, labels, mult, unit)

    @property
    def dim(self) -> int:
        return len(self.basis_paths)


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


def _generator_length(n: int, i: int) -> int:
    """The length of the degree-i generators: (i//2)*n, plus one when i is odd."""
    return i // 2 * n + i % 2


def _generator_paths(quiver: Quiver, n: int, i: int) -> list[tuple]:
    """Degree-i generators: the paths of length `_generator_length(n, i)`."""
    return quiver.paths_of_length(_generator_length(n, i))


def _path_counts(quiver: Quiver, n: int, i_max: int) -> tuple[list[Counter], Counter]:
    """(generators, short): generators[i][(s, t)] is the number of degree-i
    generators from s to t for i = 0..i_max, and short[(s, t)] the number of
    paths from s to t shorter than n.  Paths are counted, not listed."""
    # a truncation n < 1 (refused when the algebra is built) has no short
    # paths, so its lengths only need to be valid indices
    lengths = [max(_generator_length(n, i), 0) for i in range(i_max + 1)]
    walks = _walk_counts(quiver, max(lengths + [n - 1]))
    short = Counter()
    for q in range(n):
        short.update(walks[q])
    return [walks[q] for q in lengths], short


def _generator_boundary(quiver: Quiver, n: int, i: int, g: tuple) -> list[tuple]:
    """d(1 (x) gamma (x) 1) for a degree-i generator gamma, i >= 1, as terms
    (left, gamma', right, sign) standing for sign * left (x) gamma' (x) right.

    An odd degree peels one arrow off each end of gamma; an even degree sums
    the n splittings of gamma into a head, a middle of degree i - 1 and a
    tail.  The pieces left and right are paths, trivial ones included.
    """
    e_src, e_tgt = ("e", quiver.path_src(g)), ("e", quiver.path_tgt(g))
    if i % 2 == 1:
        return [((g[0],), g[1:] or e_tgt, e_tgt, 1), (e_src, g[:-1] or e_src, (g[-1],), -1)]
    mid_len = (i // 2 - 1) * n + 1
    return [
        (g[:j] or e_src, g[j : j + mid_len], g[j + mid_len :] or e_tgt, 1) for j in range(n)
    ]


def _boundaries(quiver: Quiver, n: int, ring: Ring, bases, carry) -> dict[int, SparseMatrix]:
    """The boundaries D_1..D_top of a complex spanned in degree i by the pairs
    (x, gamma) of bases[i]: x is a coefficient part and gamma a degree-i
    generator of the small resolution.

    D_i sends (x, gamma) to the sum of sign * (carry(x, left, right), gamma')
    over the terms of d(gamma).  A term dies when its carried pair is no basis
    pair of degree i - 1: when a carried path reaches the truncation, or when
    carry returns None.
    """
    boundaries = {}
    for i in range(1, len(bases)):
        index = {b: k for k, b in enumerate(bases[i - 1])}
        # no term of d lands in an empty degree i - 1
        columns = bases[i] if index else []
        terms = {g: _generator_boundary(quiver, n, i, g) for g in {g for _, g in columns}}
        ent: dict = {}
        for j, (x, g) in enumerate(columns):
            for left, g2, right, sign in terms[g]:
                k = index.get((carry(x, left, right), g2))
                if k is not None:
                    ent[k, j] = ent.get((k, j), 0) + sign
        boundaries[i] = SparseMatrix(
            ring, len(bases[i - 1]), len(bases[i]),
            {key: ring.from_int(c) for key, c in ent.items()},
        )
    return boundaries


def _hochschild_carry(quiver: Quiver):
    """The carrier rule of A (x)_{A^e} P: a (x) gamma goes across the term
    left (x) gamma' (x) right to right.a.left (x) gamma'."""
    return lambda a, left, right: quiver.compose(quiver.compose(right, a), left)


@_paused
def skoldberg_resolution(A: TruncatedPathAlgebra, i_max: int) -> dict:
    """The bimodule complex P_i = A (x) k[generators] (x) A, with exactness report.

    Basis of P_i: triples (u, gamma, v) of truncated paths with u composable
    into gamma and gamma into v; the differential carries u (x) gamma (x) v
    across a term of d(gamma) to u.left (x) gamma' (x) right.v.  The report
    verifies d.d = 0, grade preservation, and exactness of the augmented
    complex in degrees < i_max via rank counts over the coefficient field.
    A negative i_max is refused with `IndexOutOfRange`.
    """
    _require_degree(i_max)
    quiver, n, R = A.quiver, A.n, A.ring
    bases = []
    for i in range(i_max + 1):
        basis = []
        for g in _generator_paths(quiver, n, i):
            for u in A.basis_paths:
                if quiver.path_tgt(u) != quiver.path_src(g):
                    continue
                for v in A.basis_paths:
                    if quiver.path_src(v) == quiver.path_tgt(g):
                        basis.append(((u, v), g))
        bases.append(basis)

    def carry(uv, left, right):
        return quiver.compose(uv[0], left), quiver.compose(right, uv[1])

    diffs = _boundaries(quiver, n, R, bases, carry)

    # the augmentation P_0 -> A is multiplication u (x) v -> uv
    aug_cols = []
    for (u, v), g in bases[0]:
        prod = quiver.compose(quiver.compose(u, g), v)
        if prod is not None and quiver.path_len(prod) < n:
            aug_cols.append({A.path_index[prod]: R.one})
        else:
            aug_cols.append({})
    augmentation = SparseMatrix.from_columns(R, A.dim, aug_cols)

    report = {"dims": [len(b) for b in bases], "boundaries": diffs,
              "augmentation": augmentation,
              "bases": [[(u, g, v) for (u, v), g in basis] for basis in bases]}
    squares = all((diffs[i] @ diffs[i + 1]).is_zero for i in range(1, i_max))
    squares = squares and (augmentation @ diffs[1]).is_zero
    report["d_squared_zero"] = squares

    def grade(b):
        (u, v), g = b
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


def _closed_pairs(A: TruncatedPathAlgebra, i: int, top: int | None = None) -> list[tuple]:
    """Basis of the induced Hochschild carrier in degree i: pairs (a, gamma)
    with a a truncated path, gamma a degree-i generator, and a.gamma closed;
    with top, only the pairs of grade len(a) + len(gamma) <= top."""
    quiver, path_len = A.quiver, A.quiver.path_len
    pairs = []
    for g in _generator_paths(quiver, A.n, i):
        # paths_between is in basis order, which is by length
        for a in A.paths_between.get((quiver.path_tgt(g), quiver.path_src(g)), ()):
            if top is not None and path_len(a) + path_len(g) > top:
                break
            pairs.append((a, g))
    return pairs


def _small_complex_dims(quiver: Quiver, n: int, p_max: int) -> list[int]:
    """The carrier dimensions of the small complex of `_graded_hh`, the
    numbers of `_closed_pairs`, in degrees 0..p_max for the truncation of
    quiver at n, counted without building the algebra."""
    generators, short = _path_counts(quiver, n, p_max)
    # the trace of gens . short, summed without forming the product
    return [sum(c * short[t, s] for (s, t), c in gens.items()) for gens in generators]


def _relative_chain_dims(quiver: Quiver, n: int, m_max: int) -> list[int]:
    """The dimensions of the normalized chains C-bar_0..C-bar_m_max of the
    classical cyclic module of the truncation of quiver at n, relative to
    the vertex idempotents: the closed walks a0, r1, ..., rm with a0 a path
    shorter than n and each r_i one of positive length, counted from path
    counts without building the algebra."""
    (vertices,), short = _path_counts(quiver, n, 0)
    steps = short - vertices  # the paths of positive length
    walks, dims = short, []
    for m in range(m_max + 1):
        dims.append(_trace(walks))
        walks = _times(walks, steps)
    return dims


def _algebra_dim(quiver: Quiver, n: int) -> int:
    """The dimension of the truncation of quiver at n, counted without
    building the algebra."""
    return sum(_path_counts(quiver, n, 0)[1].values())


def _resolution_dims(quiver: Quiver, n: int, i_max: int) -> list[int]:
    """The carrier dimensions of `skoldberg_resolution` in degrees 0..i_max
    for the truncation of quiver at n, counted without building the algebra."""
    generators, short = _path_counts(quiver, n, i_max)
    # the entry sum of short . gens . short, from the column and row sums of short
    into, out_of = Counter(), Counter()
    for (s, t), c in short.items():
        out_of[s] += c
        into[t] += c
    return [sum(c * into[s] * out_of[t] for (s, t), c in gens.items()) for gens in generators]


def _graded_hh(A: TruncatedPathAlgebra, N: int, first: int = 0) -> list[tuple]:
    """HH_first..HH_N of A from the small complex A (x)_{A^e} P on closed
    (a, gamma) pairs, each as (total, {grade q: HomologyModule}) over the
    grades of its degree.

    The boundaries keep the path-length grade len(a) + len(gamma), so the
    complex is built grade by grade: the pairs of grade q, from one below
    the first to one past the last degree of first..N in which q occurs,
    go through `_boundaries` and one `homology_window`, squares checked.
    Only degrees first - 1..N + 1 are enumerated, and degree N + 1 only up
    to the top grade of the degrees below it.

    A grade spans at most two adjacent degrees, since the generator lengths
    of degrees i and i + 2 differ by n, so those squares cannot fail here
    (`test_each_grade_of_the_small_complex_spans_two_adjacent_degrees`).
    d^2 = 0 and grade preservation are checked on the resolution by
    `skoldberg_resolution` (`verify --quiver`) and on the full small complex
    by `test_graded_hh_is_the_grade_split_of_the_full_small_complex`.
    """
    if A.n < 2:
        raise PreconditionFailed("the small complex needs truncation exponent >= 2")
    path_len = A.quiver.path_len
    # pairs[q][i]: the pairs of grade q in degree i, in `_closed_pairs` order
    pairs: dict[int, dict[int, list]] = {}
    for i in range(max(first - 1, 0), N + 2):
        top = max(pairs, default=-1) if i == N + 1 else None
        for a, g in _closed_pairs(A, i, top):
            pairs.setdefault(path_len(a) + path_len(g), {}).setdefault(i, []).append((a, g))
    carry = _hochschild_carry(A.quiver)
    homology = {}
    for q, by_degree in pairs.items():
        ps = [p for p in range(first, N + 1) if p in by_degree]
        if ps:
            # degrees below first - 1 stay empty
            bases = [by_degree.get(i, []) for i in range(ps[-1] + 2)]
            boundaries = _boundaries(A.quiver, A.n, A.ring, bases, carry)
            window = homology_window(boundaries.__getitem__, ps[0], ps[-1])
            homology[q] = dict(zip(range(ps[0], ps[-1] + 1), window))
    table = []
    for p in range(first, N + 1):
        per_grade = {q: homology[q][p] for q in sorted(pairs) if p in pairs[q]}
        table.append((sum(per_grade.values(), zero_module(A.ring)), per_grade))
    return table


@_paused
def hh_via_skoldberg(A: TruncatedPathAlgebra, p: int):
    """HH_p(A, A) from the small complex: (total, {grade q: HomologyModule}).

    The one-degree view of `_graded_hh`: only the pairs of degrees p - 1..p + 1
    are enumerated, and only the graded blocks of D_p and D_(p+1) reduced.
    A negative p is refused with `IndexOutOfRange`.
    """
    _require_degree(p)
    return _graded_hh(A, p, first=p)[0]


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


@_paused
def coefficient_homology_skoldberg(
    A: TruncatedPathAlgebra, alpha_vertex: int, beta_vertex: int, p: int
) -> HomologyModule:
    """H_p(A, k twisted by two vertex characters), via the small complex.

    The coefficient module k has a.x = alpha(a) x and x.a = beta(a) x, so
    the degree-i carrier is spanned by the generators gamma running from the
    beta vertex to the alpha vertex, and x (x) gamma goes across the term
    left (x) gamma' (x) right to alpha(right) beta(left) x (x) gamma'.  The
    closed description (homology = carrier, since vertex characters kill
    every arrow) and the built complex are both computed; they must agree.
    The complex is built whole: split by the grade len(gamma), as in
    `_graded_hh`, each grade would lie in one degree and no carry be read.
    A negative p is refused with `IndexOutOfRange`.
    """
    _require_degree(p)
    if A.n < 2:
        raise PreconditionFailed("the small complex needs truncation exponent >= 2")
    quiver, R = A.quiver, A.ring
    alpha = vertex_character(A, alpha_vertex).values
    beta = vertex_character(A, beta_vertex).values
    bases = [
        [
            ((), g)
            for g in _generator_paths(quiver, A.n, i)
            if quiver.path_src(g) == beta_vertex and quiver.path_tgt(g) == alpha_vertex
        ]
        for i in range(p + 2)
    ]

    def carry(x, left, right):
        # vertex characters take the values 0 and 1 only
        weight = R.mul(alpha[A.path_index[right]], beta[A.path_index[left]])
        return None if R.is_zero(weight) else x

    boundaries = _boundaries(quiver, A.n, R, bases, carry)
    built = homology_window(boundaries.__getitem__, p, p)[0]
    if built.free_rank != len(bases[p]):
        raise HopfCyclError("closed and built coefficient homology disagree")
    return built


# ---------------------------------------------------------------------------
# the untruncated (n = 0) edge case
# ---------------------------------------------------------------------------


@_paused
def path_algebra_hh(quiver: Quiver, grade_cap: int, ring: Ring) -> dict:
    """Per-grade HH_0 and HH_1 of the full path algebra (zero above degree 1)
    in grades 0..grade_cap.

    The length-1 bimodule resolution is the degree <= 1 part of the small
    one: in grade q the complex is k[pairs (nu, arrow) closing up] ->
    k[cycles of length q], with (nu, a) -> nu.a - a.nu.  So these are the
    degrees 0 and 1 of `_graded_hh` on the truncation at n = max(grade_cap
    + 1, 2): below grade n no carried path reaches the truncation, and the
    degree-2 pairs have grade >= n.
    """
    A = truncated_algebra(quiver, max(grade_cap + 1, 2), ring)
    zero = zero_module(ring)
    return {f"hh{p}": {q: per_grade.get(q, zero) for q in range(grade_cap + 1)}
            for p, (_, per_grade) in enumerate(_graded_hh(A, 1))}


# ---------------------------------------------------------------------------
# cyclic homology of the truncation
# ---------------------------------------------------------------------------


@_paused
def graded_sbi_hc(A: TruncatedPathAlgebra, N: int) -> list[int]:
    """HC dimensions 0..N of the truncation from the graded splitting.

    The reduced theory satisfies dim rHC_n = sum((-1)^(n-j) dim rHH_j, j<=n),
    where reduced means relative to the vertex subalgebra; the full HC adds
    back the vertex-algebra cyclic homology (vertex count in even degrees).
    Negative partial sums signal an inconsistent Hochschild table.  A
    negative N is refused with `IndexOutOfRange`.
    """
    _require_degree(N)
    if not A.ring.contains_rationals:
        raise RingWithoutRationals("the graded splitting argument needs Q in the ring")
    v = A.quiver.num_vertices
    out = []
    acc = 0
    for nn, (total, _) in enumerate(_graded_hh(A, N)):
        acc = total.free_rank - (v if nn == 0 else 0) - acc
        if acc < 0:
            raise NegativePartialSum(
                f"reduced cyclic dimension would be {acc} in degree {nn}"
            )
        out.append(acc + (v if nn % 2 == 0 else 0))
    return out


def hc_closed_form_truncated(quiver: Quiver, n: int, p: int, ring: Ring) -> int:
    """dim HC_p of the truncation from the necklace-count formulas.

    HC_2c = #vertices + sum of a_(cn+e) over 0 < e < n, and HC_(2c-1) = sum
    over the cycle lengths r dividing cn of (gcd(n, r) - 1) b_r.  These follow
    from `hh_closed_form` by the weight-wise SBI argument (Goodwillie,
    Topology 1985): over Q the positive weights q carry no periodic part, so
    HC_(p,q) = HH_(p,q) - HC_(p-1,q), and weight 0 is the vertex algebra.
    """
    if n < 2:
        raise PreconditionFailed("closed formula needs truncation exponent >= 2")
    if not ring.contains_rationals:
        raise RingWithoutRationals("the dimension formulas hold over rings containing Q")
    c = (p + 1) // 2
    if p % 2 == 1:
        _, b = cycle_orbit_counts(quiver, c * n)
        return sum((gcd(n, r) - 1) * b[r] for r in b if (c * n) % r == 0)
    return quiver.num_vertices + sum(
        cycle_orbit_counts(quiver, c * n + e)[0] for e in range(1, n)
    )


# ---------------------------------------------------------------------------
# the Taft Hopf structure on the truncated crown
# ---------------------------------------------------------------------------


def _tensor_product(R, x: dict, y: dict, mult, d: int) -> dict:
    """Product in H (x) H of two 2-leg tensors, b_i (x) b_j at i * d + j,
    componentwise: (x1 (x) x2)(y1 (x) y2) = x1 y1 (x) x2 y2."""
    out: dict = {}
    for r, c in x.items():
        a1, a2 = divmod(r, d)
        for s, e in y.items():
            b1, b2 = divmod(s, d)
            ce, right = R.mul(c, e), mult[a2][b2]
            for l, cl in mult[a1][b1].items():
                for k, cr in right.items():
                    key = l * d + k
                    out[key] = R.add(out.get(key, R.zero), R.mul(ce, R.mul(cl, cr)))
    return {k: v for k, v in out.items() if not R.is_zero(v)}


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

    # coproducts of the generators, b_j (x) b_k at row j * d + k
    d = algebra.dim
    delta = [None] * d
    for i in range(n):
        delta[idx(i, 0)] = {idx(j, 0) * d + idx(i - j, 0): R.one for j in range(n)}
    for i in range(n):
        cop: dict = {}
        for j in range(n):
            k = (i - j) % n
            cop[idx(j, 0) * d + idx(k, 1)] = R.one
            cop[idx(j, 1) * d + idx(k, 0)] = R.pow(qv, k)
        delta[idx(i, 1)] = cop
    # extend multiplicatively: p_{i,l} = a_(i+l-1) . p_{i,l-1}
    for l in range(2, n):
        for i in range(n):
            delta[idx(i, l)] = _tensor_product(
                R, delta[idx(i + l - 1, 1)], delta[idx(i, l - 1)], algebra.mult, d
            )

    counit = [R.one] + [R.zero] * (d - 1)  # eps(e_0) = 1, and 0 on every other path
    # antipode: S(a_j) = -q^(j+1) a_(-j-1), extended anti-multiplicatively,
    # sends the path a_(i+l-1) ... a_i to the path a_(-i-1) ... a_(-i-l), of
    # length l out of -i-l, times the product of the -q^(j+1) over i <= j < i + l
    minus = R.neg(R.one)
    antipode = SparseMatrix.from_columns(R, d, [
        {idx(-i - l, l): R.mul(R.pow(minus, l), R.pow(qv, sum(range(i + 1, i + l + 1)) % n))}
        for l in range(n) for i in range(n)])
    hopf = HopfAlgebraData(algebra, SparseMatrix.from_columns(R, d * d, delta), counit, antipode)
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


@_paused
def taft_cm_homology(hopf: HopfAlgebraData, i: int, u: int, v: int, p: int) -> HomologyModule:
    """Twisted cyclic homology of the Taft algebra via the (b, B) bicomplex."""
    return cyclic_bicomplex_hc(taft_cm_module(hopf, i, u, v), p)
