"""Finite-dimensional algebras and Hopf algebras given by structure constants.

Elements are sparse coefficient vectors (dict basis_index -> payload).  An
algebra keeps its product as the d x d^2 matrix mu, and a Hopf algebra its
coproduct as the d^2 x d matrix Delta and nothing else; both write
b_i (x) b_j at index i * d + j.  The counit is a functional and the
antipode a matrix; characters are functionals that are multiplicative on
the basis.  Each axiom check is a matrix identity whose tensor factors
`SparseMatrix.amid` pads with identities, (co)associativity one basis
element at a time (`is_associative`).  Contracting a character against
one leg of the coproduct (`contract`) is written once, as a loop over the
entries of Delta: the counit axiom is that contraction with eps, the middle
legs of the admissibility check are (alpha (x) id)Delta . (id (x) beta)Delta,
and the alpha-contracted three-leg coproduct of the cyclic operator is
Delta of the alpha-contraction (alpha (x) id)Delta.

The admissibility check for a (grouplike, character, character) triple is the
involution condition (alpha * S_pi * beta)^2 = id, with alpha * S_pi * beta
built as one matrix and squared exactly.  S_pi and M are kept, with the
shared tables of `cyclic`, in the algebra's table store (`AlgebraData.shared`).
"""

from __future__ import annotations

from functools import cached_property

from .errors import InvalidCharacter
from .rings import FrozenRecord, Ring
from .sparse import SparseMatrix, _paused

Vector = dict  # basis index -> payload


def is_associative(mu: SparseMatrix) -> bool:
    """mu (mu (x) 1) = mu (1 (x) mu) for a d x d^2 matrix mu, one b_i at a
    time: L_i mu = mu (L_i (x) 1), L_i = mu(b_i (x) -) the i-th d x d column
    block of mu.  L_i (x) 1 holds d * nnz(L_i) entries, where mu (x) 1 would
    hold d * nnz(mu), d^3 for a group algebra."""
    d, blocks = mu.nrows, [{} for _ in range(mu.nrows)]
    for (r, c), v in mu.entries.items():
        blocks[c // d][(r, c % d)] = v
    return all(L @ mu == mu @ L.amid(1, d)
               for L in (SparseMatrix._unchecked(mu.ring, d, d, b) for b in blocks))


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

    @cached_property
    def mu(self) -> SparseMatrix:
        """The product as a d x d^2 matrix: column x * d + y is b_x b_y."""
        return SparseMatrix.from_columns(self.ring, self.dim, [v for r in self.mult for v in r])

    @cached_property
    def eta(self) -> SparseMatrix:
        """The unit as a d x 1 matrix."""
        return SparseMatrix.from_columns(self.ring, self.dim, [self.unit])

    def verify_associativity(self) -> bool:
        """mu (mu (x) 1) = mu (1 (x) mu), by `is_associative`."""
        return is_associative(self.mu)

    def verify_unit(self) -> bool:
        """mu (eta (x) 1) = 1 = mu (1 (x) eta)."""
        mu, eta, d = self.mu, self.eta, self.dim
        return mu @ eta.amid(1, d) == SparseMatrix.identity(self.ring, d) == mu @ eta.amid(d, 1)

    def left_multiplication_matrix(self, x: Vector) -> SparseMatrix:
        """y -> x y as a d x d matrix: mu (x (x) 1)."""
        return self.mu @ SparseMatrix.from_columns(self.ring, self.dim, [x]).amid(1, self.dim)


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
        """Raise InvalidCharacter unless chi(1) = 1 and chi mu = chi (chi (x) 1);
        a failure names the basis pair of the smallest failing column."""
        if self(algebra.unit) != self.ring.one:
            raise InvalidCharacter("character does not send the unit to 1")
        chi, d = SparseMatrix.from_rows(self.ring, [self.values]), algebra.dim
        failing = (chi @ algebra.mu - chi @ chi.amid(1, d)).entries
        if failing:
            i, j = divmod(min(col for _, col in failing), d)
            raise InvalidCharacter(f"character not multiplicative on basis pair ({i},{j})")


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
    """Algebra plus coproduct, counit and antipode.  The coproduct is the
    d^2 x d matrix delta: column b is Delta(b), with b_i (x) b_j at row
    i * d + j.  A coproduct of any other shape is refused."""

    def __init__(self, algebra: AlgebraData, delta: SparseMatrix, counit, antipode: SparseMatrix):
        d = algebra.dim
        if (delta.nrows, delta.ncols) != (d * d, d):
            raise ValueError(f"coproduct must be {d * d} x {d}, got {delta.nrows} x {delta.ncols}")
        self.algebra = algebra
        self.ring = algebra.ring
        self.dim = d
        self.delta = delta
        self.counit = list(counit)
        self.antipode = antipode
        self._key = object()  # keys S_pi and M to this structure, not only to its algebra

    # -- axiom verification --------------------------------------------------
    @_paused
    def verify_axioms(self) -> dict[str, bool]:
        """Check each Hopf axiom as a matrix identity: coassociativity is that
        Delta^T is associative, the antipode mu (S (x) 1) Delta = eta eps =
        mu (1 (x) S) Delta, and the counit reads `contract`."""
        A, R, d, S = self.algebra, self.ring, self.dim, self.antipode
        mu, delta, eps = A.mu, self.delta, Character(R, self.counit)
        one, eta_eps = SparseMatrix.identity(R, d), A.eta @ SparseMatrix.from_rows(R, [eps.values])
        return {
            "associativity": A.verify_associativity(),
            "unit": A.verify_unit(),
            "coassociativity": is_associative(delta.transpose()),
            "counit": contract(self, eps, 0) == one == contract(self, eps, 1),
            "antipode": mu @ (S.amid(1, d) @ delta) == eta_eps == mu @ (S.amid(d, 1) @ delta),
        }


def contract(hopf: HopfAlgebraData, chi: Character, leg: int) -> SparseMatrix:
    """(chi (x) id)Delta for leg 0 and (id (x) chi)Delta for leg 1, as a
    matrix: column b is the sum of c * chi(x) * b_y over the entries c of
    Delta at row x * d + y or y * d + x, column b, with x on the contracted
    leg and y on the other."""
    R, values, d = hopf.ring, chi.values, hopf.dim
    mul, add, is_zero = R.mul, R.add, R.is_zero
    entries: dict = {}
    for (row, b), c in hopf.delta.entries.items():
        pair = divmod(row, d)
        if not is_zero(v := values[pair[leg]]):
            key = (pair[1 - leg], b)
            s = entries.get(key)
            entries[key] = mul(c, v) if s is None else add(s, mul(c, v))
    entries = {k: v for k, v in entries.items() if not is_zero(v)}
    return SparseMatrix._unchecked(R, d, d, entries)


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
    """Delta g = (g (x) 1) g = g (x) g and eps(g) = 1, g the column of x."""
    R = hopf.ring
    g = SparseMatrix.from_columns(R, hopf.dim, [x])
    return Character(R, hopf.counit)(x) == R.one and hopf.delta @ g == g.amid(1, hopf.dim) @ g


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
