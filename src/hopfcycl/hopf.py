"""Finite-dimensional algebras and Hopf algebras given by structure constants.

Elements are sparse coefficient vectors (dict basis_index -> payload).  A
Hopf algebra stores its coproduct as an explicit sparse tensor table on the
basis, the counit as a functional, and the antipode as a matrix; characters
are functionals that are multiplicative on the basis.

The admissibility check for a (grouplike, character, character) triple is the
involution condition on the convolution alpha * S_pi * beta, verified as an
exact matrix identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import HopfCyclError, InvalidCharacter, RingMismatch
from .rings import Ring
from .sparse import SparseMatrix

Vector = dict  # basis index -> payload
Tensor = dict  # tuple of basis indices -> payload


def vec_add(ring: Ring, x: Vector, y: Vector) -> Vector:
    out = dict(x)
    for i, v in y.items():
        s = ring.add(out.get(i, ring.zero), v)
        if ring.is_zero(s):
            out.pop(i, None)
        else:
            out[i] = s
    return out


def vec_scale(ring: Ring, c, x: Vector) -> Vector:
    if ring.is_zero(c):
        return {}
    return {i: ring.mul(c, v) for i, v in x.items()}


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

    def basis_vector(self, i: int) -> Vector:
        return {i: self.ring.one}

    def multiply(self, x: Vector, y: Vector) -> Vector:
        R = self.ring
        out: Vector = {}
        for i, xi in x.items():
            row = self.mult[i]
            for j, yj in y.items():
                c = R.mul(xi, yj)
                for k, s in row[j].items():
                    t = R.add(out.get(k, R.zero), R.mul(c, s))
                    if R.is_zero(t):
                        out.pop(k, None)
                    else:
                        out[k] = t
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


@dataclass(frozen=True)
class GroupLike:
    """A grouplike element, kept as its coefficient vector."""

    vector: tuple  # frozen form of the sparse vector: sorted (index, payload) pairs

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
        self._iterated: dict[tuple[int, int], Tensor] = {}

    # -- coproduct machinery -------------------------------------------------
    def coproduct_vector(self, x: Vector) -> Tensor:
        R = self.ring
        out: Tensor = {}
        for i, v in x.items():
            tensor_add_scaled(R, out, v, self.coproduct[i])
        return out

    def iterated_coproduct_basis(self, b: int, r: int) -> Tensor:
        """Delta^(r-1) of a basis element, as an r-leg tensor (cached)."""
        if r < 1:
            raise ValueError("r must be >= 1")
        key = (b, r)
        cached = self._iterated.get(key)
        if cached is not None:
            return cached
        if r == 1:
            out: Tensor = {(b,): self.ring.one}
        else:
            R = self.ring
            out = {}
            prev = self.iterated_coproduct_basis(b, r - 1)
            for key_prev, c in prev.items():
                last = key_prev[-1]
                for (i, j), d in self.coproduct[last].items():
                    k = key_prev[:-1] + (i, j)
                    s = R.add(out.get(k, R.zero), R.mul(c, d))
                    if R.is_zero(s):
                        out.pop(k, None)
                    else:
                        out[k] = s
        self._iterated[key] = out
        return out

    def iterated_coproduct(self, x: Vector, r: int) -> Tensor:
        R = self.ring
        out: Tensor = {}
        for b, v in x.items():
            tensor_add_scaled(R, out, v, self.iterated_coproduct_basis(b, r))
        return out

    def counit_value(self, x: Vector):
        R = self.ring
        return R.sum(R.mul(v, self.counit[i]) for i, v in x.items())

    def antipode_vector(self, x: Vector) -> Vector:
        return self.antipode.apply(x)

    # -- axiom verification --------------------------------------------------
    def verify_axioms(self) -> dict[str, bool]:
        """Check all Hopf axioms as exact identities on the basis."""
        A, R = self.algebra, self.ring
        report = {
            "associativity": A.verify_associativity(),
            "unit": A.verify_unit(),
        }
        coassoc = True
        for b in range(self.dim):
            left: Tensor = {}
            right: Tensor = {}
            for (i, j), c in self.coproduct[b].items():
                for (p, q), d in self.coproduct[i].items():
                    tensor_add_scaled(R, left, R.mul(c, d), {(p, q, j): R.one})
                for (p, q), d in self.coproduct[j].items():
                    tensor_add_scaled(R, right, R.mul(c, d), {(i, p, q): R.one})
            if left != right:
                coassoc = False
                break
        report["coassociativity"] = coassoc

        counit_ok = True
        for b in range(self.dim):
            left_v: Vector = {}
            right_v: Vector = {}
            for (i, j), c in self.coproduct[b].items():
                left_v = vec_add(R, left_v, {j: R.mul(c, self.counit[i])})
                right_v = vec_add(R, right_v, {i: R.mul(c, self.counit[j])})
            if left_v != A.basis_vector(b) or right_v != A.basis_vector(b):
                counit_ok = False
                break
        report["counit"] = counit_ok

        antipode_ok = True
        for b in range(self.dim):
            left_v, right_v = {}, {}
            for (i, j), c in self.coproduct[b].items():
                left_v = vec_add(
                    R, left_v, vec_scale(R, c, A.multiply(self.antipode.column(i), {j: R.one}))
                )
                right_v = vec_add(
                    R, right_v, vec_scale(R, c, A.multiply({i: R.one}, self.antipode.column(j)))
                )
            target = vec_scale(R, self.counit[b], A.unit)
            if left_v != target or right_v != target:
                antipode_ok = False
                break
        report["antipode"] = antipode_ok
        return report


# ---------------------------------------------------------------------------
# linear maps out of H and convolution
# ---------------------------------------------------------------------------


class LinMap:
    """Linear map with source H and target H or the coefficient ring.

    H-valued maps are matrices; k-valued maps are value lists on the basis.
    """

    def __init__(self, hopf: HopfAlgebraData, target: str, data):
        if target not in ("H", "k"):
            raise ValueError("target must be 'H' or 'k'")
        self.hopf = hopf
        self.target = target
        self.data = data

    @classmethod
    def from_matrix(cls, hopf, matrix: SparseMatrix):
        return cls(hopf, "H", matrix)

    @classmethod
    def from_character(cls, hopf, chi: Character):
        return cls(hopf, "k", list(chi.values))

    @classmethod
    def identity(cls, hopf):
        return cls(hopf, "H", SparseMatrix.identity(hopf.ring, hopf.dim))

    @classmethod
    def antipode(cls, hopf):
        return cls(hopf, "H", hopf.antipode)

    @classmethod
    def counit(cls, hopf):
        return cls(hopf, "k", list(hopf.counit))

    @classmethod
    def unit_counit(cls, hopf):
        """eta . epsilon, the convolution unit, as an H-valued map."""
        R = hopf.ring
        cols = [vec_scale(R, hopf.counit[b], hopf.algebra.unit) for b in range(hopf.dim)]
        return cls(hopf, "H", SparseMatrix.from_columns(R, hopf.dim, cols))

    def on_basis(self, b: int):
        if self.target == "H":
            return self.data.column(b)
        return self.data[b]

    def as_matrix(self) -> SparseMatrix:
        if self.target != "H":
            raise HopfCyclError("k-valued map has no H-matrix")
        return self.data

    def __eq__(self, other):
        return (
            isinstance(other, LinMap)
            and self.target == other.target
            and self.data == other.data
        )


def convolution(f: LinMap, g: LinMap) -> LinMap:
    """(f * g)(a) = f(a^(1)) . g(a^(2)), for compatible targets."""
    if f.hopf is not g.hopf:
        raise RingMismatch("convolution of maps on different Hopf algebras")
    H = f.hopf
    R = H.ring
    if f.target == "k" and g.target == "k":
        values = []
        for b in range(H.dim):
            values.append(
                R.sum(
                    R.mul(c, R.mul(f.data[i], g.data[j]))
                    for (i, j), c in H.coproduct[b].items()
                )
            )
        return LinMap(H, "k", values)
    cols = []
    for b in range(H.dim):
        acc: Vector = {}
        for (i, j), c in H.coproduct[b].items():
            fi = f.on_basis(i)
            gj = g.on_basis(j)
            if f.target == "k":
                term = vec_scale(R, R.mul(c, fi), gj)
            elif g.target == "k":
                term = vec_scale(R, R.mul(c, gj), fi)
            else:
                term = vec_scale(R, c, H.algebra.multiply(fi, gj))
            acc = vec_add(R, acc, term)
        cols.append(acc)
    return LinMap(H, "H", SparseMatrix.from_columns(R, H.dim, cols))


def twisted_antipode(hopf: HopfAlgebraData, pi: GroupLike) -> SparseMatrix:
    """S_pi = (left multiplication by pi) . S."""
    return hopf.algebra.left_multiplication_matrix(pi.as_vector()) @ hopf.antipode


def is_grouplike(hopf: HopfAlgebraData, x: Vector) -> bool:
    """Delta(x) = x (x) x and eps(x) = 1."""
    R = hopf.ring
    if hopf.counit_value(x) != R.one:
        return False
    expected: Tensor = {}
    for i, v in x.items():
        for j, w in x.items():
            c = R.mul(v, w)
            if not R.is_zero(c):
                expected[(i, j)] = c
    return hopf.coproduct_vector(x) == expected


@dataclass(frozen=True)
class CMTriple:
    """A grouplike with two characters, flagged by the admissibility check."""

    pi: GroupLike
    alpha: Character
    beta: Character
    valid: bool
    failures: tuple[str, ...] = ()


def check_cm_triple(
    hopf: HopfAlgebraData, pi: GroupLike, alpha: Character, beta: Character
) -> CMTriple:
    """Validate: alpha(pi) = 1 = beta(pi) and (alpha * S_pi * beta)^2 = id."""
    R = hopf.ring
    failures = []
    pv = pi.as_vector()
    if alpha(pv) != R.one or beta(pv) != R.one:
        failures.append("character value at grouplike is not 1")
    s_pi = LinMap.from_matrix(hopf, twisted_antipode(hopf, pi))
    conv = convolution(convolution(LinMap.from_character(hopf, alpha), s_pi),
                       LinMap.from_character(hopf, beta))
    square = conv.as_matrix() @ conv.as_matrix()
    if square != SparseMatrix.identity(R, hopf.dim):
        failures.append("convolution square is not the identity")
    return CMTriple(pi, alpha, beta, not failures, tuple(failures))
