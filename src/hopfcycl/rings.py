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
equality of ring elements.  The numerators of a cyclotomic sum, difference,
negative and product come from loop-free functions generated once per n;
the operations stay methods of the ring class.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import (
    HopfCyclError,
    MissingRootOfUnity,
    NotAUnit,
    ParseError,
    RingMismatch,
    UnsupportedRing,
)

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
        if r:
            raise HopfCyclError("non-exact cyclotomic division")
        out[k] = q
        for j, d in enumerate(den):
            num[k + j] -= q * d
    if _poly_trim(num):
        raise HopfCyclError("nonzero remainder in cyclotomic division")
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

    `int_payloads` is True on a ring whose payloads are plain ints, reduced
    mod `characteristic` to canonical residues in [0, m) when it is m > 0
    and not reduced at all when it is 0 (Z and Z/m, so F_p too).  Kernels
    may then do its arithmetic on the ints themselves, with no ring method
    call; they still reduce mod m and drop what becomes zero.
    """

    is_field = False
    contains_rationals = False
    int_payloads = False
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

    def as_int(self, a) -> int | None:
        """The integer c with from_int(c) == a, or None if a is no integer;
        defined on the rings that contain Q."""
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
    int_payloads = True
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

    def as_int(self, a):
        # an integral payload is a plain int
        return a if type(a) is int else None

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

    int_payloads = True
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


@lru_cache(maxsize=None)
def _reduced_powers(n: int) -> tuple[tuple[int, ...], ...]:
    """x^e mod Phi_n as int vectors of length phi(n), for e = 0 ..
    max(n - 1, 2 phi(n) - 2); exact because Phi_n is monic."""
    modulus = cyclotomic_polynomial(n)
    d = len(modulus) - 1
    powers = [[int(j == 0) for j in range(d)]]
    for _ in range(max(n - 1, 2 * d - 2)):
        top = powers[-1][-1]
        powers.append([0] + powers[-1][:-1])
        for j in range(d):
            powers[-1][j] -= top * modulus[j]
    return tuple(map(tuple, powers))


@lru_cache(maxsize=None)
def _straight_line_kernels(n: int):
    """The numerator kernels of Q(zeta_n) on int vectors, as functions
    without loops, generated together by one exec once per n: the product,
    sum and difference of two vectors and the negative of one.  With
    d = phi(n), the coefficient of x^j in the product is the convolution
    term p_j = sum(a_i b_(j-i)) plus the high terms p_k, k = d .. 2d - 2,
    weighted by the integer table x^k mod Phi_n.  For n = 3 they read

        def product(an, bn):
            a0, a1, = an
            b0, b1, = bn
            p2 = a1 * b1
            return (a0 * b0 - p2, a0 * b1 + a1 * b0 - p2,)

        def total(an, bn):
            a0, a1, = an
            b0, b1, = bn
            return (a0 + b0, a1 + b1,)

    and `difference` and `negative` alike.
    """
    powers = _reduced_powers(n)
    d = len(powers[0])

    def convolution(k):
        return " + ".join(f"a{i} * b{k - i}" for i in range(max(0, k - d + 1), min(k, d - 1) + 1))

    def weighted(c, name):
        scale = "" if abs(c) == 1 else f"{abs(c)} * "
        return f" {'+' if c > 0 else '-'} {scale}{name}"

    def kernel(name, operands, coefficients, temporaries=()):
        lines = [f"def {name}({', '.join(f'{v}n' for v in operands)}):"]
        lines += ["    " + "".join(f"{v}{i}, " for i in range(d)) + f"= {v}n" for v in operands]
        lines += [f"    {line}" for line in temporaries]
        return lines + [f"    return ({', '.join(coefficients)},)"]

    high = range(d, 2 * d - 1)
    lines = kernel("product", "ab", [
        convolution(j) + "".join(weighted(powers[k][j], f"p{k}") for k in high if powers[k][j])
        for j in range(d)
    ], [f"p{k} = {convolution(k)}" for k in high])
    lines += kernel("total", "ab", [f"a{i} + b{i}" for i in range(d)])
    lines += kernel("difference", "ab", [f"a{i} - b{i}" for i in range(d)])
    lines += kernel("negative", "a", [f"-a{i}" for i in range(d)])
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<kernels of Q(zeta{n})>", "exec"), namespace)
    return namespace["product"], namespace["total"], namespace["difference"], namespace["negative"]


class CyclotomicField(Ring):
    """Q(zeta_n) = Q[x] / Phi_n(x), with integer-numerator payloads.

    A payload is a pair (numerators, denominator): an int tuple of length
    phi(n), the coefficients of 1, x, ..., x^(phi(n) - 1), over one positive
    int denominator.  Payloads are canonical (the gcd of the denominator and
    all numerators is 1, and zero is ((0, ..., 0), 1)), so equal field
    elements have equal payloads.  Elements of Z[zeta_n], which is where
    every Taft structure constant lives, have denominator 1; the arithmetic
    reaches for gcd only when a denominator is not 1.

    The numerators of a product, sum, difference and negative come from
    straight-line functions generated once per n (`_straight_line_kernels`)
    and shared by every field object of that n; the product is the
    convolution of the two vectors with the terms of degree phi(n) ..
    2 phi(n) - 2 folded back by the integer table x^k mod Phi_n, exact
    because Phi_n is monic.  `add`, `sub`, `neg` and `mul` themselves stay
    methods of the class, which handle the denominators.  A product of two
    denominator-1 payloads, the common case, is tested for a unit factor
    first and returns the other operand as it is, which is exact because
    payloads are canonical (in the Taft operators most products have a
    factor 1).  The zero test compares the numerators with the zero tuple.
    The units +-1 are their own inverses; any other inverse divides the
    product of the other Galois conjugates by the norm.
    No operation but `format` builds a Fraction.  zeta is the class of x, a
    primitive n-th root of unity.  For n = 1, 2 the field degenerates to Q
    with zeta = 1 resp. -1.
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
        self._product, self._total, self._difference, self._negative = _straight_line_kernels(n)
        # the Galois automorphisms x -> x^k other than the identity, as the
        # images of 1, x, ..., x^(d - 1)
        powers = _reduced_powers(n)
        self._conjugations = [
            [powers[j * k % n] for j in range(d)] for k in range(2, n) if gcd(k, n) == 1
        ]
        self._zero = self.from_int(0)
        self._one = self.from_int(1)
        self._minus_one = self.from_int(-1)
        self._zero_nums = self._zero[0]
        self._one_nums = self._one[0]

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
            nums = self._total(an, bn)
            return (nums, 1) if ad == 1 else self._canonical(nums, ad)
        return self._canonical([x * bd + y * ad for x, y in zip(an, bn)], ad * bd)

    def sub(self, a, b):
        an, ad = a
        bn, bd = b
        if ad == bd:
            nums = self._difference(an, bn)
            return (nums, 1) if ad == 1 else self._canonical(nums, ad)
        return self._canonical([x * bd - y * ad for x, y in zip(an, bn)], ad * bd)

    def neg(self, a):
        return self._negative(a[0]), a[1]

    def mul(self, a, b):
        an, ad = a
        bn, bd = b
        if ad == 1 and bd == 1:
            one = self._one_nums
            if an == one:
                return b
            if bn == one:
                return a
            return self._product(an, bn), 1
        if a == self._one:
            return b
        if b == self._one:
            return a
        return self._canonical(self._product(an, bn), ad * bd)

    def from_int(self, c):
        return (c,) + (0,) * (self.degree - 1), 1

    def as_int(self, a):
        nums, den = a
        return nums[0] if den == 1 and not any(nums[1:]) else None

    def is_zero(self, a):
        return a[0] == self._zero_nums

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
        integer, so no step leaves Z[zeta_n] until the final division.  The
        units +-1, most pivots of the Taft operators, are their own inverses
        and are returned as they are.
        """
        if a == self._one or a == self._minus_one:
            return a
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
    raise MissingRootOfUnity(f"{ring} has no primitive root of unity of order {m}")


# ---------------------------------------------------------------------------
# value records and homology result descriptors
# ---------------------------------------------------------------------------


class Record:
    """Base of the package's small result types.  A subclass names its
    fields in __slots__ and returns their values, in the same order (that of
    its constructor), from `_key`; == compares the keys, repr lists them."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._key()))
        return f"{type(self).__name__}({fields})"


class FrozenRecord(Record):
    """A Record hashed by its key, with read-only fields: __init__ sets each
    one once, through object.__setattr__."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._key()


def _invariant_chain(torsion):
    """Normalize a multiset of cyclic orders into an invariant-factor chain
    c_1 | c_2 | ...  Each order d >= 2 is merged in by replacing (c_i, d)
    with (gcd, lcm) along the chain, which sorts the prime powers of d into
    place: the gcd stays when it is > 1, and the lcm is carried on."""
    chain: tuple[int, ...] = ()
    for d in torsion:
        if d < 2:
            continue
        merged = []
        for c in chain:
            if (g := gcd(c, d)) > 1:
                merged.append(g)
            d = c * d // g
        chain = (*merged, d)
    return chain


class HomologyModule(FrozenRecord):
    """A homology group: free rank plus invariant-factor torsion list.

    Over a field the torsion list is empty and free_rank is the dimension.
    Over Z/m, modules are recorded purely by their torsion chain (a free
    rank-1 module over Z/m is the cyclic group of order m), so a free rank
    there is refused: `free_module` gives the torsion form.
    """

    __slots__ = ("ring", "free_rank", "torsion")

    def __init__(self, ring: Ring, free_rank: int = 0, torsion: tuple[int, ...] = ()):
        if free_rank < 0:
            raise ValueError(f"negative free rank {free_rank}")
        if free_rank and isinstance(ring, IntegersMod) and not ring.is_field:
            raise ValueError(f"a module over {ring.name} is recorded by its torsion, "
                             f"not by free rank {free_rank}")
        torsion = _invariant_chain(torsion)
        if ring.is_field and torsion:
            raise ValueError("field homology cannot carry torsion")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "free_rank", free_rank)
        object.__setattr__(self, "torsion", torsion)

    def _key(self):
        return self.ring, self.free_rank, self.torsion

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
