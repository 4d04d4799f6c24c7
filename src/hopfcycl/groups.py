"""Finite groups, group algebras and their cyclic homology.

Covers the group-algebra side of the theory: the Hopf structure on kG, the
cyclic set Gamma(G, pi) of tuples whose ordered product is conjugate to pi
(the class summand of the classical cyclic module of kG, whose operators it
restricts), the comparison map theta from the twisted cyclic module of the centralizer,
the conjugacy-class decomposition of HC(kG), closed formulas for cyclic
groups, the 2-periodic character resolution and the diagonal character
conjugation chi.
"""

from __future__ import annotations

from itertools import product

from .cyclic import (
    ClassicalCyclicModule,
    ConnesMoscoviciModule,
    CyclicModule,
    connes_lambda_hc,
    cyclic_bicomplex_hc_upto,
    index_to_tuple,
    tuple_to_index,
)
from .errors import InvalidCharacter, ParseError, PreconditionFailed
from .hopf import AlgebraData, Character, GroupLike, HopfAlgebraData, check_cm_triple
from .rings import (
    HomologyModule,
    Ring,
    annihilator_and_quotient,
    free_module,
    zero_module,
)
from .sparse import SparseMatrix, _paused


class FiniteGroup:
    """Group given by its multiplication table; axioms checked on construction."""

    def __init__(self, table, labels=None):
        m = len(table) if isinstance(table, (list, tuple)) else 0
        if m == 0 or any(not isinstance(row, (list, tuple)) or len(row) != m for row in table):
            raise ParseError("multiplication table must be a square, nonempty list of rows")
        if any(type(x) is not int or not 0 <= x < m for row in table for x in row):
            raise ParseError("table entries must be element indices")
        self.order = m
        self.table = [list(row) for row in table]
        self.labels = list(labels) if labels is not None else [str(i) for i in range(m)]
        # identity
        ident = None
        for e in range(m):
            if all(table[e][x] == x and table[x][e] == x for x in range(m)):
                ident = e
                break
        if ident is None:
            raise ParseError("table has no identity element")
        self.identity = ident
        # inverses
        self.inverse = [None] * m
        for x in range(m):
            for y in range(m):
                if table[x][y] == ident and table[y][x] == ident:
                    self.inverse[x] = y
                    break
            if self.inverse[x] is None:
                raise ParseError(f"element {x} has no inverse")
        # associativity
        for a in range(m):
            for b in range(m):
                ab = table[a][b]
                for c in range(m):
                    if table[ab][c] != table[a][table[b][c]]:
                        raise ParseError("table is not associative")

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def product(self, elems) -> int:
        out = self.identity
        for x in elems:
            out = self.table[out][x]
        return out

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def is_cyclic(self) -> bool:
        return any(self.element_order(a) == self.order for a in range(self.order))

    @classmethod
    def cyclic(cls, m: int) -> "FiniteGroup":
        table = [[(i + j) % m for j in range(m)] for i in range(m)]
        return cls(table, [f"g^{i}" for i in range(m)])

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        from itertools import permutations

        if type(n) is not int or n < 1:
            raise ParseError(f"symmetric degree must be an integer >= 1, got {n!r}")
        perms = sorted(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        # composition (p.q)(x) = p(q(x))
        table = [
            [index[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms
        ]
        return cls(table, ["".join(map(str, p)) for p in perms])

    @classmethod
    def from_json(cls, obj) -> "FiniteGroup":
        if not isinstance(obj, dict):
            raise ParseError("group spec must be a JSON object")
        if "cyclic" in obj:
            m = obj["cyclic"]
            if type(m) is not int or m < 1:
                raise ParseError("cyclic order must be a positive integer")
            return cls.cyclic(m)
        if "order" in obj and "table" in obj:
            order, table = obj["order"], obj["table"]
            if type(order) is not int or not isinstance(table, list) or len(table) != order:
                raise ParseError("declared order does not match the table")
            return cls(table)
        raise ParseError("group spec needs either 'cyclic' or 'order'+'table'")


def conjugacy_classes(G: FiniteGroup) -> list[list[int]]:
    """Partition of the elements into conjugacy classes (sorted reps first)."""
    seen = [False] * G.order
    classes = []
    for x in range(G.order):
        if seen[x]:
            continue
        orbit = sorted({G.op(G.op(g, x), G.inverse[g]) for g in range(G.order)})
        for y in orbit:
            seen[y] = True
        classes.append(orbit)
    return classes


def centralizer(G: FiniteGroup, pi: int) -> FiniteGroup:
    """The subgroup commuting with pi, as a group in its own right.

    The returned group carries `parent_elements`, the list mapping its
    indices back to elements of G, and `parent_pi`, the index of pi inside it.
    """
    elems = [g for g in range(G.order) if G.op(g, pi) == G.op(pi, g)]
    pos = {g: i for i, g in enumerate(elems)}
    table = [[pos[G.op(a, b)] for b in elems] for a in elems]
    H = FiniteGroup(table, [G.labels[g] for g in elems])
    H.parent_elements = elems
    H.parent_pi = pos[pi]
    return H


# ---------------------------------------------------------------------------
# the group algebra as a Hopf algebra
# ---------------------------------------------------------------------------


def group_algebra(G: FiniteGroup, ring: Ring) -> HopfAlgebraData:
    """kG with Delta(g) = g (x) g, eps(g) = 1 and S(g) = g^(-1)."""
    one = ring.one
    mult = [[{G.op(i, j): one} for j in range(G.order)] for i in range(G.order)]
    algebra = AlgebraData(ring, G.labels, mult, {G.identity: one})
    coproduct = [{(i, i): one} for i in range(G.order)]
    counit = [one] * G.order
    antipode = SparseMatrix.from_columns(
        ring, G.order, [{G.inverse[i]: one} for i in range(G.order)]
    )
    return HopfAlgebraData(algebra, coproduct, counit, antipode)


def trivial_character(G: FiniteGroup, ring: Ring) -> Character:
    return Character(ring, [ring.one] * G.order)


def character_from_zeta(ring: Ring, m: int, zeta) -> Character:
    """Character of k[Z/m] with g^i -> zeta^i; requires zeta^m = 1."""
    values, x = [], ring.one
    for _ in range(m):
        values.append(x)
        x = ring.mul(x, zeta)
    if x != ring.one:
        raise InvalidCharacter("zeta is not an m-th root of unity")
    return Character(ring, values)


def cm_group_module(
    G: FiniteGroup, pi: int, ring: Ring, alpha: Character | None = None,
    beta: Character | None = None, require_valid: bool = True,
) -> ConnesMoscoviciModule:
    """The twisted cyclic module of kG at a group element pi (default eps,
    eps); with require_valid=False it is built for an inadmissible triple
    too."""
    H = group_algebra(G, ring)
    eps = trivial_character(G, ring)
    triple = check_cm_triple(
        H, GroupLike.from_vector({pi: ring.one}), alpha or eps, beta or eps
    )
    return ConnesMoscoviciModule(H, triple, require_valid=require_valid)


# ---------------------------------------------------------------------------
# the cyclic set of tuples with product conjugate to pi
# ---------------------------------------------------------------------------


class GammaCyclicModule(CyclicModule):
    """Linearization of Gamma_m(G, pi) = tuples (g_0..g_m), product in class(pi).

    No face, degeneracy or rotation changes the class of the ordered
    product, so Gamma(G, pi) is the class summand of the classical cyclic
    module of kG (Loday, Cyclic Homology, 7.4).  Every operator is the kG
    operator on the tuples in the class, in lexicographic order, so all
    conventions are those of `ClassicalCyclicModule`; the normalized chains
    are its chains relative to E = k.e, the tuples with no identity in
    slots 1..m (Loday 6.1).  Faces, degeneracies and t are restricted from
    the kG operators; b-bar and B-bar are built on the class tuples alone.
    """

    def __init__(self, G: FiniteGroup, pi: int, ring: Ring):
        super().__init__()
        self.G = G
        self.pi = pi
        self.ring = ring
        self.pi_class = next(cls_ for cls_ in conjugacy_classes(G) if pi in cls_)
        self.classical = ClassicalCyclicModule(group_algebra(G, ring).algebra)

    def _class_tuples(self, m: int, slots) -> list[tuple]:
        """The (m+1)-tuples with slots 1..m in `slots` and ordered product in
        the class, sorted: one g_0 per c in the class, the one with
        g_0 . g_1 ... g_m = c."""
        G = self.G
        return sorted((G.op(c, G.inverse[G.product(rest)]),) + rest
                      for rest in product(slots, repeat=m) for c in self.pi_class)

    def _level(self, m: int) -> tuple[list[tuple], dict]:
        """The class tuples of C_m(kG), sorted, and the position of each by
        its index in C_m(kG)."""

        def build():
            tuples = self._class_tuples(m, range(self.G.order))
            return tuples, {tuple_to_index(t, self.G.order): j for j, t in enumerate(tuples)}

        return self._memo(("level", m), build)

    def _normalized_level(self, m: int) -> tuple[list[tuple], dict]:
        """The class tuples of the relative chains of kG at level m, those
        with no identity in slots 1..m, and the position of each."""

        def build():
            G = self.G
            tuples = self._class_tuples(m, [g for g in range(G.order) if g != G.identity])
            return tuples, {t: j for j, t in enumerate(tuples)}

        return self._memo(("normalized level", m), build)

    def basis(self, m: int) -> list[tuple]:
        """All (m+1)-tuples with ordered product in the class of pi, sorted."""
        return self._level(m)[0]

    def normalized_basis(self, m: int) -> list[tuple]:
        """The nondegenerate tuples of `basis(m)`, sorted."""
        return self._normalized_level(m)[0]

    def level_dim(self, m: int) -> int:
        return len(self.basis(m))

    def normalized_dim(self, m: int) -> int:
        return len(self.normalized_basis(m))

    def _restrict(self, M: SparseMatrix, rows: tuple, cols: tuple) -> SparseMatrix:
        """The kG operator M between the class tuples of two levels.  The
        image of a class tuple lies in the class, so each kept column keeps
        all its rows."""
        rows, cols = rows[1], cols[1]
        ent = {(rows[r], j): v for (r, c), v in M.entries.items() if (j := cols.get(c)) is not None}
        return SparseMatrix._unchecked(self.ring, len(rows), len(cols), ent)

    def _face(self, m, i):
        return self._restrict(self.classical.face(m, i), self._level(m - 1), self._level(m))

    def _degeneracy(self, m, i):
        return self._restrict(self.classical.degeneracy(m, i), self._level(m + 1), self._level(m))

    def _cyclic(self, m):
        return self._restrict(self.classical.cyclic(m), self._level(m), self._level(m))

    def normalized_b(self, m):
        chains, level = self.classical._relative, self._normalized_level
        return self._memo(("b-bar", m), lambda: chains.boundary(level(m)[0], level(m - 1)[1]))

    def normalized_B(self, m):
        chains, level = self.classical._relative, self._normalized_level
        return self._memo(("B-bar", m), lambda: chains.connes(level(m)[0], level(m + 1)[1]))


def theta_map(G: FiniteGroup, pi: int, n: int, ring: Ring) -> SparseMatrix:
    """C_n of the centralizer algebra into the class component of Gamma_n.

    g_1 (x) ... (x) g_n  ->  (pi (g_1...g_n)^(-1), g_1, ..., g_n), with the
    g_i running over the centralizer of pi.
    """
    H = centralizer(G, pi)
    gamma = GammaCyclicModule(G, pi, ring)
    index = gamma._level(n)[1]
    d = H.order
    ent = {}
    for col in range(d**n):
        gs = tuple(H.parent_elements[x] for x in index_to_tuple(col, d, n))
        g0 = G.op(pi, G.inverse[G.product(gs)])
        ent[(index[tuple_to_index((g0,) + gs, G.order)], col)] = ring.one
    return SparseMatrix(ring, gamma.level_dim(n), d**n, ent)


@_paused
def theta_chain_map_check(G: FiniteGroup, pi: int, n: int, ring: Ring) -> dict[str, bool]:
    """Verify theta . op = op . theta for all faces, degeneracies and t, level <= n."""
    H = centralizer(G, pi)
    cm = cm_group_module(H, H.parent_pi, ring)
    gamma = GammaCyclicModule(G, pi, ring)
    thetas = {m: theta_map(G, pi, m, ring) for m in range(n + 1)}
    report = {}
    for m in range(n + 1):
        report[f"theta t (level {m})"] = (
            gamma.cyclic(m) @ thetas[m] == thetas[m] @ cm.cyclic(m)
        )
        if m >= 1:
            for i in range(m + 1):
                report[f"theta d_{i} (level {m})"] = (
                    gamma.face(m, i) @ thetas[m] == thetas[m - 1] @ cm.face(m, i)
                )
        if m < n:
            for i in range(m + 1):
                report[f"theta s_{i} (level {m})"] = (
                    gamma.degeneracy(m, i) @ thetas[m] == thetas[m + 1] @ cm.degeneracy(m, i)
                )
    return report


# ---------------------------------------------------------------------------
# conjugacy-class decomposition of HC(kG)
# ---------------------------------------------------------------------------


def _hc_upto(module: CyclicModule, N: int) -> list[HomologyModule]:
    if module.ring.contains_rationals:
        return [connes_lambda_hc(module, n) for n in range(N + 1)]
    return cyclic_bicomplex_hc_upto(module, N)


@_paused
def burghelea_check(G: FiniteGroup, ring: Ring, N: int) -> dict:
    """Compare HC(kG) with the sum over classes of twisted HC of centralizers.

    Left side: cyclic homology of the classical cyclic module of the algebra
    kG.  Right side: for one representative pi per conjugacy class, the
    (pi, eps, eps)-twisted cyclic homology of the centralizer algebra.
    Returns per-degree dimensions of both and a pass flag.
    """
    algebra = group_algebra(G, ring).algebra
    classical = ClassicalCyclicModule(algebra)
    lhs = [h.free_rank for h in _hc_upto(classical, N)]
    reps = [cls_[0] for cls_ in conjugacy_classes(G)]
    per_class = {}
    for pi in reps:
        H = centralizer(G, pi)
        module = cm_group_module(H, H.parent_pi, ring)
        per_class[pi] = [h.free_rank for h in _hc_upto(module, N)]
    rhs = [sum(dims[n] for dims in per_class.values()) for n in range(N + 1)]
    return {
        "classical": lhs,
        "per_class": per_class,
        "sum": rhs,
        "passed": lhs == rhs,
    }


# ---------------------------------------------------------------------------
# closed formulas for cyclic groups
# ---------------------------------------------------------------------------


def closed_hc_cyclic_group(ring: Ring, m_pi: int, n: int) -> HomologyModule:
    """k + Ann(m_pi)^(n/2) in even degree, (k/m_pi k)^((n+1)/2) in odd degree."""
    if m_pi < 1:
        raise PreconditionFailed("m_pi must be >= 1")
    ann, quot = annihilator_and_quotient(m_pi, ring)
    if n % 2 == 0:
        out = free_module(ring, 1)
        for _ in range(n // 2):
            out = out + ann
        return out
    out = zero_module(ring)
    for _ in range((n + 1) // 2):
        out = out + quot
    return out


def closed_hc_group_algebra(G: FiniteGroup, ring: Ring, n: int) -> HomologyModule:
    """HC_n(kG) for cyclic G: the sum of the closed formula over all pi in G."""
    if not G.is_cyclic():
        raise PreconditionFailed("closed formula implemented for cyclic groups only")
    out = zero_module(ring)
    for pi in range(G.order):
        m_pi = G.order // G.element_order(pi)
        out = out + closed_hc_cyclic_group(ring, m_pi, n)
    return out


# ---------------------------------------------------------------------------
# the 2-periodic character resolution and the chi conjugation
# ---------------------------------------------------------------------------


@_paused
def periodic_resolution_homology(m: int, ring: Ring, zeta, rho, N: int) -> list[HomologyModule]:
    """Homology of the 2-periodic scalar complex attached to (alpha, beta).

    The complex obtained from the standard periodic resolution of k over
    k[Z/m] by applying the characters has one copy of k in each degree and
    alternating scalar differentials x - 1 and 1 + x + ... + x^(m-1), where
    x = zeta . rho^(-1).  Both characters must be genuine, i.e. zeta and rho
    must be m-th roots of unity.
    """
    for value in (zeta, rho):
        if ring.pow(value, m) != ring.one:
            raise InvalidCharacter("character value is not an m-th root of unity")
    x = ring.mul(zeta, ring.inv(rho))
    c_odd = ring.sub(x, ring.one)
    c_even = ring.sum(ring.pow(x, i) for i in range(m))

    def differential(k):  # map out of degree k, for k >= 1
        return c_odd if k % 2 == 1 else c_even

    out = []
    for k in range(N + 1):
        kernel = 1 if (k == 0 or ring.is_zero(differential(k))) else 0
        image = 0 if ring.is_zero(differential(k + 1)) else 1
        out.append(HomologyModule(ring, kernel - image))
    return out


def chi_isomorphism(m: int, s: int, zeta, n: int, ring: Ring) -> SparseMatrix:
    """Diagonal zeta^(i_1+...+i_n) on the n-th carrier of the k[Z/m] module.

    Conjugating the (pi, alpha, alpha) operators by this matrix yields the
    (pi, eps, eps) operators, provided alpha(pi) = zeta^s = 1 for pi = g^s.
    """
    if ring.pow(zeta, m) != ring.one:
        raise InvalidCharacter("zeta is not an m-th root of unity")
    if ring.pow(zeta, s % m) != ring.one:
        raise PreconditionFailed("alpha(pi) must equal 1: zeta^s is not 1")
    dim = m**n
    ent = {(idx, idx): ring.pow(zeta, sum(index_to_tuple(idx, m, n)) % m) for idx in range(dim)}
    return SparseMatrix(ring, dim, dim, ent)
