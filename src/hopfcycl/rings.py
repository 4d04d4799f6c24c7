"""Exact coefficient rings: Z, Q, Z/m, prime fields F_p and cyclotomic fields Q(zeta_n).

Ring elements are plain Python payloads (int for Z; int for an integral
rational and Fraction for any other; residue int; or for cyclotomic numbers
a pair of an int numerator tuple and one positive int denominator); the ring
object carries the arithmetic.  Containers such as sparse matrices store
payloads and a single ring reference, which keeps tensor-power computations
cheap.

All arithmetic is exact: integers are arbitrary precision, fractions are kept
reduced with denominator > 1, residues canonical in [0, m), and cyclotomic
payloads reduced modulo the n-th cyclotomic polynomial, with numerators and
denominator coprime.  Every payload is canonical, so == on payloads is
equality of ring elements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import add as _add, neg as _neg, sub as _sub

from .errors import NotAUnit, ParseError, UnsupportedRing

# ---------------------------------------------------------------------------
# integer / rational polynomial helpers (coefficient lists, low degree first)
# ---------------------------------------------------------------------------


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod_exact(num, den):
    """Exact division of integer polynomials; the remainder must come out zero."""
    num = list(num)
    den = _poly_trim(den)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        lead = num[k + len(den) - 1]
        q, r = divmod(lead, den[-1])
        assert r == 0, "non-exact cyclotomic division"
        out[k] = q
        for j, d in enumerate(den):
            num[k + j] -= q * d
    assert not _poly_trim(num), "nonzero remainder in cyclotomic division"
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial as an integer coefficient tuple.

    Computed by exact division of x^n - 1 by the product of all lower
    cyclotomic polynomials indexed by proper divisors of n.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, cyclotomic_polynomial(d))
    return tuple(_poly_divmod_exact(num, den))


def euler_phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# ring objects
# ---------------------------------------------------------------------------


class Ring:
    """Base class: exact arithmetic on raw payloads.

    Subclasses fix the payload representation and override the core
    operations.  Ring objects are immutable and hashable; two rings compare
    equal iff they are the same ring (same kind and parameters).
    """

    is_field = False
    contains_rationals = False
    characteristic = 0
    name = "?"

    # -- payload arithmetic --------------------------------------------------
    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def from_int(self, c: int):
        raise NotImplementedError

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def is_zero(self, a) -> bool:
        return a == self.zero

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def pow(self, a, k: int):
        if k < 0:
            return self.pow(self.inv(a), -k)
        out, base = self.one, a
        while k:
            if k & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            k >>= 1
        return out

    def sum(self, items):
        out = self.zero
        for a in items:
            out = self.add(out, a)
        return out

    # -- formatting ----------------------------------------------------------
    def format(self, a) -> str:
        return str(a)

    def __repr__(self):
        return self.name

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return ()


class IntegerRing(Ring):
    """Z with int payloads."""

    name = "Z"
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, c):
        return c

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if a not in (1, -1):
            raise NotAUnit(f"{a} is not a unit in Z")
        return a


class RationalField(Ring):
    """Q with int payloads for integers and Fraction payloads otherwise.

    A payload is canonical: a plain int when the value is an integer, and a
    reduced Fraction with denominator > 1 only otherwise.  Every operation
    returns a canonical payload, and accepts a Fraction with denominator 1 as
    well, so integral matrices (every boundary of the bar complex and of the
    small complex of a quiver algebra) are reduced in int arithmetic with no
    Fraction built.  A Z payload is a Q payload, so from_int is the identity,
    and an int equals and hashes like the Fraction of the same value.
    """

    name = "Q"
    is_field = True
    contains_rationals = True
    zero = 0
    one = 1

    def add(self, a, b):
        c = a + b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def neg(self, a):
        c = -a
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int or c.denominator != 1 else c.numerator

    def from_int(self, c):
        return c

    def is_zero(self, a):
        return not a

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if not a:
            raise NotAUnit("0 is not a unit in Q")
        if type(a) is int:
            # 1 / a is integral exactly for the units +-1, which are their own inverses
            return a if a == 1 or a == -1 else Fraction(1, a)
        c = 1 / a
        return c if c.denominator != 1 else c.numerator


class IntegersMod(Ring):
    """Z/m with canonical residues in [0, m)."""

    # canonical residues for every modulus m >= 2
    zero = 0
    one = 1

    def __init__(self, m: int):
        if m < 2:
            raise ValueError("modulus must be >= 2")
        self.m = m
        self.characteristic = m
        self.name = f"Z/{m}"

    def _key(self):
        return (self.m,)

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def neg(self, a):
        return (-a) % self.m

    def mul(self, a, b):
        return (a * b) % self.m

    def from_int(self, c):
        return c % self.m

    def is_zero(self, a):
        return a % self.m == 0

    def is_unit(self, a):
        return gcd(a, self.m) == 1

    def inv(self, a):
        if gcd(a, self.m) != 1:
            raise NotAUnit(f"{a} is not a unit mod {self.m}")
        return pow(a, -1, self.m)


class PrimeField(IntegersMod):
    """F_p; same payloads as Z/p but flagged as a field."""

    is_field = True

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        super().__init__(p)
        self.name = f"F{p}"


class CyclotomicField(Ring):
    """Q(zeta_n) = Q[x] / Phi_n(x), with integer-numerator payloads.

    A payload is a pair (numerators, denominator): an int tuple of length
    phi(n), the coefficients of 1, x, ..., x^(phi(n) - 1), over one positive
    int denominator.  Payloads are canonical (the gcd of the denominator and
    all numerators is 1, and zero is ((0, ..., 0), 1)), so equal field
    elements have equal payloads.  Elements of Z[zeta_n], which is where
    every Taft structure constant lives, have denominator 1; the arithmetic
    reaches for gcd only when a denominator is not 1.

    Products reduce modulo Phi_n with the precomputed integer vectors
    x^k mod Phi_n for k = phi(n) .. 2 phi(n) - 2, exact because Phi_n is
    monic; a product with the unit returns the other operand as it is, which
    is exact because payloads are canonical (in the Taft operators most
    products have a factor 1).  Inverses divide the product of the other
    Galois conjugates by the norm.  No operation but `format` builds a
    Fraction.  zeta is the class of x, a primitive n-th root of unity.  For
    n = 1, 2 the field degenerates to Q with zeta = 1 resp. -1.
    """

    is_field = True
    contains_rationals = True

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = n
        self.modulus = cyclotomic_polynomial(n)
        self.degree = d = len(self.modulus) - 1
        self.name = f"Q(zeta{n})"
        # x^e mod Phi_n as int vectors, e = 0 .. max(n - 1, 2d - 2)
        powers = [[int(j == 0) for j in range(d)]]
        for _ in range(max(n - 1, 2 * d - 2)):
            top = powers[-1][-1]
            powers.append([0] + powers[-1][:-1])
            for j in range(d):
                powers[-1][j] -= top * self.modulus[j]
        # products reduce x^d .. x^(2d - 2) with these sparse (index, coefficient) lists
        self._xpow = [[(j, c) for j, c in enumerate(v) if c] for v in powers[d : 2 * d - 1]]
        # the Galois automorphisms x -> x^k other than the identity, as the
        # images of 1, x, ..., x^(d - 1)
        self._conjugations = [
            [powers[j * k % n] for j in range(d)] for k in range(2, n) if gcd(k, n) == 1
        ]
        self._zero = self.from_int(0)
        self._one = self.from_int(1)

    def _key(self):
        return (self.n,)

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    @staticmethod
    def _canonical(nums, den):
        """The payload of nums / den for a positive den."""
        g = gcd(den, *nums)
        if g != 1:
            return tuple([x // g for x in nums]), den // g
        return tuple(nums), den

    def add(self, a, b):
        an, ad = a
        bn, bd = b
        if ad == bd:
            nums = tuple(map(_add, an, bn))
            return (nums, 1) if ad == 1 else self._canonical(nums, ad)
        return self._canonical([x * bd + y * ad for x, y in zip(an, bn)], ad * bd)

    def sub(self, a, b):
        an, ad = a
        bn, bd = b
        if ad == bd:
            nums = tuple(map(_sub, an, bn))
            return (nums, 1) if ad == 1 else self._canonical(nums, ad)
        return self._canonical([x * bd - y * ad for x, y in zip(an, bn)], ad * bd)

    def neg(self, a):
        return tuple(map(_neg, a[0])), a[1]

    def mul(self, a, b):
        if a == self._one:
            return b
        if b == self._one:
            return a
        an, ad = a
        bn, bd = b
        d = self.degree
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(an):
            if x:
                for k, y in enumerate(bn, i):
                    if y:
                        prod[k] += x * y
        out = prod[:d]
        for k, reduction in enumerate(self._xpow, d):
            c = prod[k]
            if c:
                for j, r in reduction:
                    out[j] += c * r
        if ad == 1 and bd == 1:
            return tuple(out), 1
        return self._canonical(out, ad * bd)

    def from_int(self, c):
        return (c,) + (0,) * (self.degree - 1), 1

    def is_zero(self, a):
        return not any(a[0])

    def is_unit(self, a):
        return not self.is_zero(a)

    @property
    def zeta(self):
        if self.degree == 1:
            # x = zeta is the rational root of Phi_n = x - r (n = 1 or 2)
            return self.from_int(-self.modulus[0])
        return (0, 1) + (0,) * (self.degree - 2), 1

    def zeta_pow(self, k: int):
        return self.pow(self.zeta, k % self.n)

    def inv(self, a):
        """1 / a as the product of the other Galois conjugates of a over its norm.

        For integer numerators the norm a * prod(sigma(a)) is a nonzero
        integer, so no step leaves Z[zeta_n] until the final division.
        """
        if self.is_zero(a):
            raise NotAUnit("0 is not a unit")
        nums, den = a
        others = self._one
        for images in self._conjugations:
            conj = [0] * self.degree
            for x, image in zip(nums, images):
                if x:
                    for j, c in enumerate(image):
                        conj[j] += x * c
            others = self.mul(others, (tuple(conj), 1))
        norm = self.mul((nums, 1), others)[0][0]
        if norm < 0:
            den, norm = -den, -norm
        return self._canonical([den * x for x in others[0]], norm)

    def format(self, a) -> str:
        if self.is_zero(a):
            return "0"
        nums, den = a
        parts = []
        for i, x in enumerate(nums):
            if x == 0:
                continue
            c = Fraction(x, den)
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return " + ".join(parts)


ZZ = IntegerRing()
QQ = RationalField()


_RING_RE = re.compile(r"^(Z|Q|Z/(\d+)|F(\d+)|Q\(zeta(\d+)\))$")


def parse_ring(spec: str) -> Ring:
    """Parse a ring spec string: "Z", "Q", "Z/4", "F7", "Q(zeta3)".  Z/p of a
    prime p is the field F_p."""
    m = _RING_RE.match(spec.strip())
    if not m:
        raise ParseError(f"cannot parse ring spec {spec!r}")
    if m.group(2):
        modulus = int(m.group(2))
        if modulus < 2:
            raise ParseError(f"ring spec {spec!r}: the modulus must be >= 2")
        return PrimeField(modulus) if _is_prime(modulus) else IntegersMod(modulus)
    if m.group(3):
        if not _is_prime(int(m.group(3))):
            raise ParseError(f"ring spec {spec!r}: F_p needs a prime p")
        return PrimeField(int(m.group(3)))
    if m.group(4):
        if int(m.group(4)) < 1:
            raise ParseError(f"ring spec {spec!r}: Q(zetaN) needs N >= 1")
        return CyclotomicField(int(m.group(4)))
    return QQ if spec.strip() == "Q" else ZZ


def primitive_root_of_unity(ring: Ring, m: int):
    """A primitive m-th root of unity in the ring, if one is available."""
    from .errors import MissingRootOfUnity

    if m == 1:
        return ring.one
    if isinstance(ring, CyclotomicField) and ring.n % m == 0:
        return ring.zeta_pow(ring.n // m)
    if m == 2 and ring.characteristic == 0:
        return ring.neg(ring.one)
    if isinstance(ring, PrimeField) and (ring.m - 1) % m == 0:
        # x^((p-1)/m) has order dividing m; the first one of order exactly m
        for x in range(2, ring.m):
            z = pow(x, (ring.m - 1) // m, ring.m)
            if all(pow(z, d, ring.m) != 1 for d in range(1, m) if m % d == 0):
                return z
    raise MissingRootOfUnity(f"{ring} has no primitive {m}-th root of unity")


# ---------------------------------------------------------------------------
# homology result descriptors
# ---------------------------------------------------------------------------


def _invariant_chain(torsion):
    """Normalize a multiset of cyclic orders into an invariant-factor chain."""
    powers: dict[int, list[int]] = {}
    for d in torsion:
        if d < 2:
            continue
        x, p = d, 2
        while x > 1:
            if p * p > x:
                p = x
            if x % p == 0:
                e = 0
                while x % p == 0:
                    x //= p
                    e += 1
                powers.setdefault(p, []).append(p**e)
            else:
                p += 1
    for p in powers:
        powers[p].sort(reverse=True)
    depth = max((len(v) for v in powers.values()), default=0)
    chain = []
    for j in range(depth):
        f = 1
        for p, v in powers.items():
            if j < len(v):
                f *= v[j]
        chain.append(f)
    chain.reverse()
    return tuple(chain)


@dataclass(frozen=True)
class HomologyModule:
    """A homology group: free rank plus invariant-factor torsion list.

    Over a field the torsion list is empty and free_rank is the dimension.
    Over Z/m, modules are recorded purely by their torsion chain (a free
    rank-1 module over Z/m is the cyclic group of order m).
    """

    ring: Ring
    free_rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError(f"negative free rank {self.free_rank}")
        object.__setattr__(self, "torsion", _invariant_chain(self.torsion))
        if self.ring.is_field and self.torsion:
            raise ValueError("field homology cannot carry torsion")

    @property
    def dim(self) -> int:
        if not self.ring.is_field:
            raise UnsupportedRing("dim is only defined over a field")
        return self.free_rank

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __add__(self, other: "HomologyModule") -> "HomologyModule":
        if self.ring != other.ring:
            from .errors import RingMismatch

            raise RingMismatch("direct sum over different rings")
        return HomologyModule(
            self.ring, self.free_rank + other.free_rank, self.torsion + other.torsion
        )

    def __str__(self):
        parts = []
        if self.free_rank:
            base = self.ring.name
            parts.append(base if self.free_rank == 1 else f"{base}^{self.free_rank}")
        for d in self.torsion:
            parts.append(f"Z/{d}")
        return " + ".join(parts) if parts else "0"


def zero_module(ring: Ring) -> HomologyModule:
    return HomologyModule(ring)


def free_module(ring: Ring, rank: int) -> HomologyModule:
    """Rank-r free module; over Z/m recorded as r copies of Z/m."""
    if isinstance(ring, IntegersMod) and not ring.is_field:
        return HomologyModule(ring, 0, (ring.m,) * rank)
    return HomologyModule(ring, rank)


def annihilator_and_quotient(m: int, ring: Ring) -> tuple[HomologyModule, HomologyModule]:
    """Descriptors of Ann(m) = {x : m x = 0} and k/mk over the ring.

    Supported over Z, Z/M and every field: over a field both are k when m
    is zero in it and 0 otherwise.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if ring == ZZ:
        if m == 0:
            return free_module(ring, 1), free_module(ring, 1)
        ann = zero_module(ring)
        quot = zero_module(ring) if m == 1 else HomologyModule(ring, 0, (m,))
        return ann, quot
    if ring.is_field:
        if ring.is_zero(ring.from_int(m)):
            return free_module(ring, 1), free_module(ring, 1)
        return zero_module(ring), zero_module(ring)
    if isinstance(ring, IntegersMod):
        g = gcd(m, ring.m)
        mod = zero_module(ring) if g == 1 else HomologyModule(ring, 0, (g,))
        return mod, mod
    raise UnsupportedRing(f"Ann/quotient not defined over {ring}")
