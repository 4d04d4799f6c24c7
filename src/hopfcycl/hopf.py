"""Finite-dimensional algebras and Hopf algebras given by structure constants.

Elements are sparse coefficient vectors (dict basis_index -> payload).  A
Hopf algebra stores its coproduct as an explicit sparse tensor table on the
basis, the counit as a functional, and the antipode as a matrix; characters
are functionals that are multiplicative on the basis.  Contracting a
character against one leg of the coproduct (`contract`) is written once: the
counit axiom is that contraction with eps, the middle legs of the
admissibility check are (alpha (x) id)Delta . (id (x) beta)Delta, and the
alpha-contracted three-leg coproduct of the cyclic operator is Delta of the
alpha-contraction (alpha (x) id)Delta.

The admissibility check for a (grouplike, character, character) triple is the
involution condition (alpha * S_pi * beta)^2 = id, with alpha * S_pi * beta
built as one matrix and squared exactly.  S_pi and M are kept, with the
shared tables of `cyclic`, in the algebra's table store (`AlgebraData.shared`).
"""

from __future__ import annotations

from .errors import InvalidCharacter
from .rings import FrozenRecord, Ring
from .sparse import SparseMatrix, _paused

Vector = dict  # basis index -> payload
Tensor = dict  # tuple of basis indices -> payload


def tensor_add_scaled(ring: Ring, acc: Tensor, c, t: Tensor) -> None:
    """In-place acc += c * t."""
    if ring.is_zero(c):
        return
    for key, v in t.items():
        s = ring.add(acc.get(key, ring.zero), ring.mul(c, v))
        if ring.is_zero(s):
            acc.pop(key, None)
        else:
            acc[key] = s


class AlgebraData:
    """Associative unital algebra with a distinguished basis.

    mult[i][j] is the sparse vector of structure constants of b_i * b_j.
    Zero constants and zero unit coefficients are dropped here, once, so
    every operator assembled from them stores nonzero payloads only.
    """

    def __init__(self, ring: Ring, basis_labels, mult, unit: Vector):
        self.ring = ring
        self.dim = len(basis_labels)
        self.basis_labels = list(basis_labels)
        is_zero = ring.is_zero
        self.mult = [
            [{k: c for k, c in v.items() if not is_zero(c)} for v in row] for row in mult
        ]
        self.unit = {i: v for i, v in unit.items() if not is_zero(v)}
        self._shared: dict = {}

    def shared(self, key, build):
        """The table under key in the algebra's store, built by build() on the
        first request and dropped with the algebra: S_pi, M, the inner face
        sums and the degeneracy-law verdicts that every triple shares."""
        out = self._shared.get(key)
        if out is None:
            out = self._shared[key] = build()
        return out

    def basis_vector(self, i: int) -> Vector:
        return {i: self.ring.one}

    def multiply(self, x: Vector, y: Vector) -> Vector:
        R = self.ring
        out: Vector = {}
        for i, xi in x.items():
            row = self.mult[i]
            for j, yj in y.items():
                tensor_add_scaled(R, out, R.mul(xi, yj), row[j])
        return out

    def verify_associativity(self) -> bool:
        for i in range(self.dim):
            for j in range(self.dim):
                ij = self.mult[i][j]
                for k in range(self.dim):
                    left = self.multiply(ij, self.basis_vector(k))
                    right = self.multiply(self.basis_vector(i), self.mult[j][k])
                    if left != right:
                        return False
        return True

    def verify_unit(self) -> bool:
        for i in range(self.dim):
            b = self.basis_vector(i)
            if self.multiply(self.unit, b) != b or self.multiply(b, self.unit) != b:
                return False
        return True

    def left_multiplication_matrix(self, x: Vector) -> SparseMatrix:
        cols = [self.multiply(x, self.basis_vector(j)) for j in range(self.dim)]
        return SparseMatrix.from_columns(self.ring, self.dim, cols)


class Character:
    """Algebra map H -> k, stored by its values on the basis."""

    def __init__(self, ring: Ring, values):
        self.ring = ring
        self.values = list(values)

    def __call__(self, x) -> object:
        R = self.ring
        if isinstance(x, int):
            return self.values[x]
        return R.sum(R.mul(v, self.values[i]) for i, v in x.items())

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.ring == other.ring
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.ring, tuple(self.values)))

    def validate(self, algebra: AlgebraData) -> None:
        """Raise InvalidCharacter unless multiplicative with value 1 on the unit."""
        R = self.ring
        if self(algebra.unit) != R.one:
            raise InvalidCharacter("character does not send the unit to 1")
        for i in range(algebra.dim):
            for j in range(algebra.dim):
                lhs = self(algebra.mult[i][j])
                rhs = R.mul(self.values[i], self.values[j])
                if lhs != rhs:
                    raise InvalidCharacter(
                        f"character not multiplicative on basis pair ({i},{j})"
                    )


class GroupLike(FrozenRecord):
    """A grouplike element, kept as its coefficient vector."""

    __slots__ = ("vector",)

    def __init__(self, vector: tuple):
        # frozen form of the sparse vector: sorted (index, payload) pairs
        object.__setattr__(self, "vector", vector)

    def _key(self):
        return (self.vector,)

    @classmethod
    def from_vector(cls, vec: Vector) -> "GroupLike":
        return cls(tuple(sorted(vec.items())))

    def as_vector(self) -> Vector:
        return dict(self.vector)


class HopfAlgebraData:
    """Algebra plus coproduct table, counit and antipode matrix."""

    def __init__(self, algebra: AlgebraData, coproduct, counit, antipode: SparseMatrix):
        self.algebra = algebra
        self.ring = algebra.ring
        self.dim = algebra.dim
        self.coproduct = coproduct  # per basis index: dict (i, j) -> payload
        self.counit = list(counit)
        self.antipode = antipode
        self._key = object()  # keys S_pi and M to this structure, not only to its algebra

    # -- axiom verification --------------------------------------------------
    @_paused
    def verify_axioms(self) -> dict[str, bool]:
        """Check all Hopf axioms as exact identities on the basis; the counit
        axiom is (eps (x) id)Delta = id = (id (x) eps)Delta, read off `contract`."""
        A, R, cop = self.algebra, self.ring, self.coproduct
        report = {
            "associativity": A.verify_associativity(),
            "unit": A.verify_unit(),
        }
        coassoc = True
        for b in range(self.dim):
            left: Tensor = {}
            right: Tensor = {}
            for (i, j), c in cop[b].items():
                tensor_add_scaled(R, left, c, {(p, q, j): d for (p, q), d in cop[i].items()})
                tensor_add_scaled(R, right, c, {(i, p, q): d for (p, q), d in cop[j].items()})
            if left != right:
                coassoc = False
                break
        report["coassociativity"] = coassoc

        eps, one = Character(R, self.counit), SparseMatrix.identity(R, self.dim)
        report["counit"] = contract(self, eps, 0) == one == contract(self, eps, 1)

        antipode_ok = True
        for b in range(self.dim):
            left, right, target = {}, {}, {}
            for (i, j), c in cop[b].items():
                tensor_add_scaled(R, left, c, A.multiply(self.antipode.column(i), {j: R.one}))
                tensor_add_scaled(R, right, c, A.multiply({i: R.one}, self.antipode.column(j)))
            tensor_add_scaled(R, target, self.counit[b], A.unit)
            if left != target or right != target:
                antipode_ok = False
                break
        report["antipode"] = antipode_ok
        return report


def contract(hopf: HopfAlgebraData, chi: Character, leg: int) -> SparseMatrix:
    """(chi (x) id)Delta for leg 0 and (id (x) chi)Delta for leg 1, as a
    matrix: column b is the sum of c * chi(x) * b_y over the terms c * x (x) y
    of Delta(b), with x on the contracted leg and y on the other."""
    R, values = hopf.ring, chi.values
    mul, add, is_zero = R.mul, R.add, R.is_zero
    entries: dict = {}
    for b, terms in enumerate(hopf.coproduct):
        for pair, c in terms.items():
            if not is_zero(v := values[pair[leg]]):
                key = (pair[1 - leg], b)
                s = entries.get(key)
                entries[key] = mul(c, v) if s is None else add(s, mul(c, v))
    entries = {k: v for k, v in entries.items() if not is_zero(v)}
    return SparseMatrix._unchecked(R, hopf.dim, hopf.dim, entries)


def twisted_antipode(hopf: HopfAlgebraData, pi: GroupLike) -> SparseMatrix:
    """S_pi = (left multiplication by pi) . S, built once per grouplike and
    kept in the algebra's table store."""
    A = hopf.algebra
    return A.shared(("S_pi", hopf._key, pi),
                    lambda: A.left_multiplication_matrix(pi.as_vector()) @ hopf.antipode)


def twisted_middle(hopf: HopfAlgebraData, alpha: Character, beta: Character) -> SparseMatrix:
    """M = (alpha (x) id (x) beta) Delta^2 = (alpha (x) id)Delta . (id (x) beta)Delta
    as a matrix: beta on the right leg of Delta(b), then alpha on the left leg
    of each Delta(p).  The admissibility check and the last leg of the cyclic
    operator both read it; it is built once per character pair and kept in
    the algebra's table store."""
    return hopf.algebra.shared(("M", hopf._key, alpha, beta),
                               lambda: contract(hopf, alpha, 0) @ contract(hopf, beta, 1))


def admissibility_matrix(
    hopf: HopfAlgebraData, pi: GroupLike, alpha: Character, beta: Character
) -> SparseMatrix:
    """alpha * S_pi * beta = S_pi . M with M = `twisted_middle`: S_pi is
    linear, so it is applied once, to the matrix of the middle legs."""
    return twisted_antipode(hopf, pi) @ twisted_middle(hopf, alpha, beta)


def is_grouplike(hopf: HopfAlgebraData, x: Vector) -> bool:
    """Delta(x) = x (x) x and eps(x) = 1."""
    R = hopf.ring
    if Character(R, hopf.counit)(x) != R.one:
        return False
    delta: Tensor = {}
    square: Tensor = {}
    for i, v in x.items():
        tensor_add_scaled(R, delta, v, hopf.coproduct[i])
        tensor_add_scaled(R, square, v, {(i, j): w for j, w in x.items()})
    return delta == square


class CMTriple(FrozenRecord):
    """A grouplike with two characters, flagged by the admissibility check.

    In the cyclic module of the triple, alpha acts at the face d_0 and beta
    at d_m, so its Hochschild homology is Tor^H(k_alpha, k_beta) whatever pi
    is; for a Taft algebra that is the homology of the truncated crown with
    alpha at vertex u and beta at vertex v (`coefficient_homology_skoldberg`).
    """

    __slots__ = ("pi", "alpha", "beta", "valid", "failures")

    def __init__(self, pi: GroupLike, alpha: Character, beta: Character, valid: bool,
                 failures: tuple[str, ...] = ()):
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "failures", failures)

    def _key(self):
        return self.pi, self.alpha, self.beta, self.valid, self.failures


def check_cm_triple(
    hopf: HopfAlgebraData, pi: GroupLike, alpha: Character, beta: Character
) -> CMTriple:
    """Validate: alpha(pi) = 1 = beta(pi) and (alpha * S_pi * beta)^2 = id."""
    R = hopf.ring
    failures = []
    pv = pi.as_vector()
    if alpha(pv) != R.one or beta(pv) != R.one:
        failures.append("character value at grouplike is not 1")
    conv = admissibility_matrix(hopf, pi, alpha, beta)
    if conv @ conv != SparseMatrix.identity(R, hopf.dim):
        failures.append("convolution square is not the identity")
    return CMTriple(pi, alpha, beta, not failures, tuple(failures))
