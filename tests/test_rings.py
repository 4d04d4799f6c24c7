"""Coefficient rings: exact arithmetic, parsing, homology descriptors."""

import pickle
import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfcycl import (
    QQ,
    ZZ,
    CyclotomicField,
    HomologyModule,
    IntegersMod,
    NotAUnit,
    ParseError,
    PrimeField,
    UnsupportedRing,
    annihilator_and_quotient,
    connes_lambda_hc,
    cyclotomic_polynomial,
    free_module,
    parse_ring,
    primitive_root_of_unity,
    taft_cm_module,
    taft_cm_triples,
    taft_hopf,
    zero_module,
)
from hopfcycl.errors import MissingRootOfUnity
import hopfcycl.rings as rings
from hopfcycl.rings import Ring, _poly_divmod_exact, _poly_mul, _poly_trim, euler_phi

RINGS = [ZZ, QQ, IntegersMod(6), PrimeField(5), CyclotomicField(5)]


def test_cyclotomic_polynomial_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


@pytest.mark.parametrize("n", range(1, 21))
def test_cyclotomic_polynomial_product_over_divisors(n):
    # prod of Phi_d over d | n must be x^n - 1
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = _poly_mul(prod, list(cyclotomic_polynomial(d)))
    assert prod == [-1] + [0] * (n - 1) + [1]
    assert len(cyclotomic_polynomial(n)) - 1 == euler_phi(n)


@pytest.mark.parametrize(
    "num, den, message",
    [([1, 0, 1], [2, 1], "nonzero remainder"), ([1, 0, 1], [1, 2], "non-exact")],
)
def test_inexact_polynomial_division_raises(num, den, message):
    """x^2 + 1 is divisible neither by x + 2 (remainder 5) nor by 2x + 1
    (leading coefficients 1 and 2): a typed refusal, which python -O keeps."""
    from hopfcycl import HopfCyclError

    with pytest.raises(HopfCyclError, match=message):
        _poly_divmod_exact(num, den)
    assert _poly_divmod_exact([-1, 0, 0, 1], [-1, 1]) == [1, 1, 1]


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.name)
@given(a=st.integers(-30, 30), b=st.integers(-30, 30), c=st.integers(-30, 30))
@settings(max_examples=40, deadline=None)
def test_ring_axioms(ring, a, b, c):
    x, y, z = ring.from_int(a), ring.from_int(b), ring.from_int(c)
    assert ring.add(x, y) == ring.add(y, x)
    assert ring.mul(x, y) == ring.mul(y, x)
    assert ring.add(ring.add(x, y), z) == ring.add(x, ring.add(y, z))
    assert ring.mul(ring.mul(x, y), z) == ring.mul(x, ring.mul(y, z))
    assert ring.mul(x, ring.add(y, z)) == ring.add(ring.mul(x, y), ring.mul(x, z))
    assert ring.is_zero(ring.add(x, ring.neg(x)))
    assert ring.mul(x, ring.one) == x
    assert ring.is_zero(ring.mul(x, ring.zero))
    assert ring.sub(x, y) == ring.add(x, ring.neg(y))


def test_field_inverses():
    F = PrimeField(7)
    for a in range(1, 7):
        assert F.mul(a, F.inv(a)) == F.one
    K = CyclotomicField(5)
    for k in range(8):
        x = K.add(K.zeta_pow(k), K.from_int(k + 2))
        assert K.mul(x, K.inv(x)) == K.one
    assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)


def test_non_units_raise():
    with pytest.raises(NotAUnit):
        ZZ.inv(2)
    with pytest.raises(NotAUnit):
        IntegersMod(6).inv(3)
    with pytest.raises(NotAUnit):
        QQ.inv(Fraction(0))
    with pytest.raises(NotAUnit):
        CyclotomicField(4).inv(CyclotomicField(4).zero)
    assert ZZ.is_unit(-1) and not ZZ.is_unit(3)
    assert IntegersMod(6).is_unit(5) and not IntegersMod(6).is_unit(4)


def test_pow_including_negative_exponents():
    F = PrimeField(11)
    assert F.pow(2, 10) == 1
    assert F.pow(2, -1) == F.inv(2)
    K = CyclotomicField(3)
    assert K.pow(K.zeta, 3) == K.one
    assert K.pow(K.zeta, -1) == K.zeta_pow(2)


def test_cyclotomic_degenerate_cases():
    for n, value in ((1, 1), (2, -1)):
        K = CyclotomicField(n)
        assert K.degree == 1
        assert K.zeta == K.from_int(value)


@pytest.mark.parametrize("ring,m", [(CyclotomicField(4), 4), (CyclotomicField(6), 3), (QQ, 2), (ZZ, 1)])
def test_primitive_root_of_unity(ring, m):
    zeta = primitive_root_of_unity(ring, m)
    assert ring.pow(zeta, m) == ring.one
    for d in range(1, m):
        if m % d == 0:
            assert ring.pow(zeta, d) != ring.one


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_primitive_root_of_unity_over_prime_fields(p):
    # F_p has a primitive m-th root of unity exactly when m divides p - 1
    F = PrimeField(p)
    for m in range(1, p + 2):
        if (p - 1) % m == 0:
            zeta = primitive_root_of_unity(F, m)
            assert [d for d in range(1, m + 1) if F.pow(zeta, d) == F.one] == [m]
        else:
            with pytest.raises(MissingRootOfUnity):
                primitive_root_of_unity(F, m)


def test_primitive_root_missing():
    with pytest.raises(MissingRootOfUnity):
        primitive_root_of_unity(QQ, 3)
    with pytest.raises(MissingRootOfUnity):
        primitive_root_of_unity(CyclotomicField(4), 3)


def test_parse_ring():
    assert parse_ring("Z") is ZZ or parse_ring("Z") == ZZ
    assert parse_ring("Q") == QQ
    assert parse_ring("Z/4") == IntegersMod(4)
    assert parse_ring("F7") == PrimeField(7)
    assert parse_ring("Q(zeta3)") == CyclotomicField(3)
    assert parse_ring(" Q ") == QQ
    for bad in ("", "GF(7)", "Z/", "F6x", "Q(zeta)"):
        with pytest.raises(ParseError):
            parse_ring(bad)


def test_ring_equality_and_hash():
    assert IntegersMod(4) == IntegersMod(4)
    assert IntegersMod(4) != IntegersMod(5)
    assert PrimeField(5) != IntegersMod(5)  # flagged as a field
    assert hash(CyclotomicField(3)) == hash(CyclotomicField(3))


def test_homology_module_invariant_chain():
    h = HomologyModule(ZZ, 1, (4, 2, 3))
    assert h.torsion == (2, 12)
    assert str(h) == "Z + Z/2 + Z/12"
    assert str(zero_module(QQ)) == "0"
    assert str(HomologyModule(QQ, 3)) == "Q^3"
    assert (HomologyModule(ZZ, 1, (2,)) + HomologyModule(ZZ, 0, (2,))).torsion == (2, 2)


def test_invariant_chain_matches_the_torsion_count_oracle():
    """A finite abelian group is fixed by its numbers of k-torsion elements,
    and sum of Z/d_i has prod gcd(k, d_i) of them, for every k up to the lcm
    of the orders; the chain must count the same, divide along, and drop 0
    and 1.  The orders are 2-, 3- and 5-smooth, so prime powers collide."""
    rng = random.Random(5)
    values = [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 20, 24, 25, 27, 30, 36]
    for _ in range(300):
        orders = [rng.choice(values) for _ in range(rng.randint(0, 6))]
        chain = rings._invariant_chain(orders)
        assert all(c > 1 for c in chain)
        assert all(b % a == 0 for a, b in zip(chain, chain[1:]))
        kept = [d for d in orders if d > 1]
        for k in range(1, lcm(*kept) + 1):
            assert prod(gcd(k, c) for c in chain) == prod(gcd(k, d) for d in kept), orders


def test_homology_module_guards():
    with pytest.raises(ValueError):
        HomologyModule(QQ, 1, (2,))
    from hopfcycl.errors import RingMismatch

    with pytest.raises(RingMismatch):
        HomologyModule(QQ, 1) + HomologyModule(ZZ, 1)
    with pytest.raises(UnsupportedRing):
        HomologyModule(ZZ, 1).dim


def test_homology_module_refuses_negative_free_rank():
    with pytest.raises(ValueError):
        HomologyModule(QQ, -1)
    with pytest.raises(ValueError):
        HomologyModule(ZZ, -2, (3,))
    assert HomologyModule(QQ, 0).is_zero


def test_free_module_over_zmod():
    h = free_module(IntegersMod(4), 2)
    assert h.free_rank == 0 and h.torsion == (4, 4)
    assert free_module(QQ, 2).free_rank == 2


def test_homology_module_over_zmod_has_no_free_rank():
    """Over Z/m a module is its torsion chain, so the free form of Z/4 is
    refused rather than kept as a second, unequal record of free_module."""
    with pytest.raises(ValueError):
        HomologyModule(IntegersMod(4), 1)
    assert HomologyModule(IntegersMod(4), 0, (4,)) == free_module(IntegersMod(4), 1)
    assert HomologyModule(PrimeField(5), 1).free_rank == 1


def test_homology_module_is_a_frozen_value():
    h = HomologyModule(ZZ, 1, (4, 2, 3))
    same = HomologyModule(ZZ, 1, (12, 2))
    assert h == same and hash(h) == hash(same) and len({h, same}) == 1
    assert h != HomologyModule(ZZ, 1, (24,)) and h != HomologyModule(QQ, 1)
    assert repr(h) == "HomologyModule(ring=Z, free_rank=1, torsion=(2, 12))"
    assert pickle.loads(pickle.dumps(h)) == h
    for name, value in (("free_rank", 2), ("torsion", ()), ("ring", QQ)):
        with pytest.raises(AttributeError):
            setattr(h, name, value)
        with pytest.raises(AttributeError):
            delattr(h, name)
    assert h == same


@pytest.mark.parametrize("m", range(0, 9))
@pytest.mark.parametrize("M", [2, 4, 6, 9])
def test_annihilator_and_quotient_zmod_oracle(m, M):
    ring = IntegersMod(M)
    ann, quot = annihilator_and_quotient(m, ring)
    # enumeration oracle in Z/M
    ann_order = sum(1 for x in range(M) if (m * x) % M == 0)
    image_order = len({(m * x) % M for x in range(M)})
    quot_order = M // image_order
    def order(h):
        out = 1
        for d in h.torsion:
            out *= d
        return out * (M ** h.free_rank)
    assert order(ann) == ann_order
    assert order(quot) == quot_order


def test_annihilator_and_quotient_other_rings():
    ann, quot = annihilator_and_quotient(2, ZZ)
    assert ann.is_zero and quot.torsion == (2,)
    ann, quot = annihilator_and_quotient(0, ZZ)
    assert ann.free_rank == 1 and quot.free_rank == 1
    ann, quot = annihilator_and_quotient(3, QQ)
    assert ann.is_zero and quot.is_zero
    ann, quot = annihilator_and_quotient(10, PrimeField(5))
    assert ann.free_rank == 1 and quot.free_rank == 1
    # over Q(zeta3), as over every field of characteristic 0
    K = CyclotomicField(3)
    for m in (1, 2, 3):
        ann, quot = annihilator_and_quotient(m, K)
        assert ann.is_zero and quot.is_zero
    ann, quot = annihilator_and_quotient(0, K)
    assert ann == quot == HomologyModule(K, 1)


# -- integer-numerator cyclotomic payloads against the Fraction-tuple field ----


class FractionTupleCyclotomic(CyclotomicField):
    """Reference: Q(zeta_n) with payloads tuples of Fractions, one per power
    of zeta, reduced modulo Phi_n.  This is the field's former payload; it
    keeps CyclotomicField as its base so that taft_hopf accepts it."""

    @property
    def zero(self):
        return self.from_int(0)

    @property
    def one(self):
        return self.from_int(1)

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        d = self.degree
        prod = [Fraction(0)] * (2 * d - 1 if d > 0 else 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return self._reduce(prod)

    def _reduce(self, coeffs):
        d = self.degree
        c = list(coeffs)
        mod = self.modulus
        for k in range(len(c) - 1, d - 1, -1):
            lead = c[k]
            if lead:
                for j in range(d + 1):
                    c[k - d + j] -= lead * mod[j]
        c = c[:d]
        c += [Fraction(0)] * (d - len(c))
        return tuple(c)

    def from_int(self, c):
        return tuple([Fraction(c)] + [Fraction(0)] * (self.degree - 1))

    def as_int(self, a):
        return int(a[0]) if a[0].denominator == 1 and not any(a[1:]) else None

    def is_zero(self, a):
        return all(x == 0 for x in a)

    @property
    def zeta(self):
        if self.degree == 1:
            return self._reduce([Fraction(0), Fraction(1)])
        return tuple([Fraction(0), Fraction(1)] + [Fraction(0)] * (self.degree - 2))

    def inv(self, a):
        if self.is_zero(a):
            raise NotAUnit("0 is not a unit")
        mod = [Fraction(c) for c in self.modulus]
        r0, r1 = mod, _poly_trim(a)
        s0, s1 = [], [Fraction(1)]
        while r1:
            q, r = _qpoly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _qpoly_sub(s0, _poly_mul(q, s1))
        assert len(r0) == 1
        c = r0[0]
        return self._reduce([x / c for x in s0])

    def format(self, a) -> str:
        if self.is_zero(a):
            return "0"
        parts = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
        return " + ".join(parts)


def _qpoly_divmod(a, b):
    a = list(a)
    out = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(out) - 1, -1, -1):
        q = a[k + len(b) - 1] / b[-1]
        out[k] = q
        for j, d in enumerate(b):
            a[k + j] -= q * d
    return _poly_trim(out), _poly_trim(a)


def _qpoly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    for j, y in enumerate(b):
        a[j] -= y
    return _poly_trim(a)


def as_fractions(payload):
    nums, den = payload
    return tuple(Fraction(x, den) for x in nums)


def from_fractions(coeffs):
    den = lcm(*(c.denominator for c in coeffs))
    nums = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


def assert_canonical(K, payload):
    nums, den = payload
    assert len(nums) == K.degree
    assert all(type(x) is int for x in nums) and type(den) is int
    assert den > 0 and gcd(den, *nums) == 1


# n = 7, 9 and 15 give fields of degree 6, 6 and 8, whose products fold the
# most terms back through the table x^k mod Phi_n
CYCLOTOMIC_ORDERS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15)


def cyclotomic_element(n):
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    return st.lists(coeff, min_size=euler_phi(n), max_size=euler_phi(n)).map(tuple)


@pytest.mark.parametrize("n", CYCLOTOMIC_ORDERS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_integer_payloads_agree_with_fraction_tuples(n, data):
    K, ref = CyclotomicField(n), FractionTupleCyclotomic(n)
    x = data.draw(cyclotomic_element(n))
    y = data.draw(cyclotomic_element(n))
    k = data.draw(st.integers(-3, 4))
    a, b = from_fractions(x), from_fractions(y)
    assert as_fractions(a) == x
    for op in ("add", "sub", "mul"):
        out = getattr(K, op)(a, b)
        assert_canonical(K, out)
        assert as_fractions(out) == getattr(ref, op)(x, y), op
    assert_canonical(K, K.neg(a))
    assert as_fractions(K.neg(a)) == ref.neg(x)
    assert K.is_zero(a) == ref.is_zero(x)
    assert K.format(a) == ref.format(x)
    if ref.is_zero(x):
        with pytest.raises(NotAUnit):
            K.inv(a)
        return
    assert_canonical(K, K.inv(a))
    assert as_fractions(K.inv(a)) == ref.inv(x)
    assert as_fractions(K.pow(a, k)) == ref.pow(x, k)
    # canonical payloads: equal values are equal payloads
    assert K.mul(a, K.inv(a)) == K.one
    assert K.sub(a, a) == K.zero == K.from_int(0)


@pytest.mark.parametrize("n", CYCLOTOMIC_ORDERS)
def test_cyclotomic_constants_agree_with_fraction_tuples(n):
    K, ref = CyclotomicField(n), FractionTupleCyclotomic(n)
    assert as_fractions(K.zeta) == ref.zeta
    for c in (-3, 0, 1, 7):
        assert K.from_int(c) == from_fractions(ref.from_int(c))
    assert K.zero == ((0,) * K.degree, 1) and K.one == K.from_int(1)
    assert K.pow(K.zeta, n) == K.one


@pytest.mark.parametrize("n", CYCLOTOMIC_ORDERS)
def test_the_product_is_generated_once_and_multiplied_through_the_class(n):
    """`mul`, `add`, `sub` and `neg` are methods of the class, so a wrapper
    put on the class (the benchmark's operation counter) sees every call,
    and the straight-line numerator kernels behind them are generated once
    per n, whatever the number of field objects."""
    misses = rings._straight_line_kernels.cache_info().misses
    K, again = CyclotomicField(n), CyclotomicField(n)
    assert rings._straight_line_kernels.cache_info().misses - misses <= 1
    for kernel in ("_product", "_total", "_difference", "_negative"):
        assert getattr(K, kernel) is getattr(again, kernel), kernel
    for op in ("mul", "add", "sub", "neg"):
        assert op in vars(CyclotomicField), op
        assert op not in vars(K) and op not in vars(again), op


@pytest.mark.parametrize("n", CYCLOTOMIC_ORDERS)
def test_the_units_plus_and_minus_one_are_their_own_inverses(n, monkeypatch):
    """inv(1) and inv(-1) return their argument with no product computed."""
    K = CyclotomicField(n)
    products = []
    mul = CyclotomicField.mul
    monkeypatch.setattr(CyclotomicField, "mul", lambda K, a, b: products.append(a) or mul(K, a, b))
    for unit in (K.one, K.neg(K.one)):
        assert K.inv(unit) is unit
    assert products == []


def converted(M):
    return {k: as_fractions(v) for k, v in M.entries.items()}


def test_taft3_operators_and_homology_match_fraction_tuples():
    hopf, ref_hopf = taft_hopf(3), taft_hopf(3, FractionTupleCyclotomic(3))
    for triple in taft_cm_triples(3):
        module = taft_cm_module(hopf, *triple)
        ref_module = taft_cm_module(ref_hopf, *triple)
        assert converted(module.cyclic(2)) == ref_module.cyclic(2).entries
        assert converted(module.boundary_b(3)) == ref_module.boundary_b(3).entries
        assert [connes_lambda_hc(module, p).free_rank for p in range(4)] == [
            connes_lambda_hc(ref_module, p).free_rank for p in range(4)
        ], triple


def test_cyclotomic_hot_operations_make_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError("Fraction created")

    K = CyclotomicField(12)
    x = from_fractions((Fraction(1, 6), Fraction(-3, 4), Fraction(0), Fraction(5, 9)))
    y = K.add(K.zeta, K.from_int(2))
    monkeypatch.setattr(rings, "Fraction", refuse)
    for a, b in ((x, y), (x, x), (y, y)):
        K.add(a, b), K.sub(a, b), K.mul(a, b), K.neg(a), K.is_zero(a), K.inv(a)


@pytest.mark.parametrize("n", CYCLOTOMIC_ORDERS)
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_product_with_the_unit_returns_the_other_operand(n, data):
    K = CyclotomicField(n)
    x = from_fractions(data.draw(cyclotomic_element(n)))
    for out in (K.mul(K.one, x), K.mul(x, K.one), K.mul(x, K.from_int(1))):
        assert out == x
        assert_canonical(K, out)
    assert K.mul(K.one, K.one) == K.one
    assert K.mul(K.one, K.zero) == K.zero == K.mul(K.zero, K.one)


# -- int payloads for integral rationals against the Fraction field -----------


class FractionRationalField(Ring):
    """Reference: Q with Fraction payloads throughout, the field's former
    payload."""

    name = "Q"
    is_field = True
    contains_rationals = True

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def from_int(self, c):
        return Fraction(c)

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise NotAUnit("0 is not a unit in Q")
        return 1 / Fraction(a)


QQ_REF = FractionRationalField()


def assert_rational_canonical(payload):
    """An int iff the value is integral; never a Fraction with denominator 1."""
    if type(payload) is int:
        return
    assert type(payload) is Fraction and payload.denominator > 1, repr(payload)


def rational_payload(value: Fraction):
    return value.numerator if value.denominator == 1 else value


rationals = st.one_of(
    st.integers(-40, 40).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


@given(x=rationals, y=rationals, k=st.integers(-3, 4), as_fraction=st.booleans())
@settings(max_examples=300, deadline=None)
def test_rational_payloads_agree_with_fractions(x, y, k, as_fraction):
    # inputs arrive canonical, or (as_fraction) still as Fractions
    a, b = (x, y) if as_fraction else (rational_payload(x), rational_payload(y))
    for op in ("add", "sub", "mul"):
        out = getattr(QQ, op)(a, b)
        assert_rational_canonical(out)
        assert out == getattr(QQ_REF, op)(x, y), op
    assert_rational_canonical(QQ.neg(a))
    assert QQ.neg(a) == QQ_REF.neg(x)
    assert QQ.is_zero(a) == QQ_REF.is_zero(x)
    assert QQ.format(a) == QQ_REF.format(x)
    if x == 0:
        with pytest.raises(NotAUnit):
            QQ.inv(a)
        return
    assert_rational_canonical(QQ.inv(a))
    assert QQ.inv(a) == QQ_REF.inv(x)
    assert_rational_canonical(QQ.pow(a, k))
    assert QQ.pow(a, k) == QQ_REF.pow(x, k)


def test_rational_constants_are_ints():
    assert QQ.zero == 0 and type(QQ.zero) is int
    assert QQ.one == 1 and type(QQ.one) is int
    for c in (-5, 0, 1, 12):
        assert QQ.from_int(c) is c
    for u in (1, -1):
        assert QQ.inv(u) is u
    assert QQ.inv(Fraction(-1)) == -1 and type(QQ.inv(Fraction(-1))) is int
    assert QQ.inv(-4) == Fraction(-1, 4)
    assert QQ.mul(Fraction(2, 3), Fraction(3, 2)) == 1
    assert type(QQ.mul(Fraction(2, 3), Fraction(3, 2))) is int
    assert QQ.sum([Fraction(1, 2), Fraction(1, 2), 3]) == 4
    assert hash(QQ.add(Fraction(1, 2), Fraction(1, 2))) == hash(Fraction(1))


def test_integral_rationals_make_no_fraction(monkeypatch):
    from hopfcycl import Quiver, truncated_algebra
    from hopfcycl.cyclic import ClassicalCyclicModule

    def refuse(*args):
        raise AssertionError("Fraction created")

    monkeypatch.setattr(rings, "Fraction", refuse)
    module = ClassicalCyclicModule(truncated_algebra(Quiver.crown(2), 3, QQ).algebra)
    for a, b in ((3, -7), (0, 5), (-1, -1), (12, 0)):
        QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a), QQ.is_zero(a)
        QQ.pow(a, 3), QQ.from_int(a)
    QQ.inv(1), QQ.inv(-1), QQ.pow(-1, -3)
    b3, b4 = module.boundary_b(3), module.boundary_b(4)
    assert (b3.nrows, b3.ncols, b4.ncols) == (6**3, 6**4, 6**5)
    assert (b3 @ b4).is_zero
    assert all(type(v) is int for v in b4.entries.values())


# -- class-constant units and a direct sub for int-payload rings ---------------


@pytest.mark.parametrize("ring", [ZZ, IntegersMod(2), IntegersMod(6), PrimeField(7)], ids=str)
def test_int_payload_constants_equal_from_int(ring):
    # the constants are class attributes, not properties calling from_int
    for name in ("zero", "one"):
        assert not isinstance(getattr(type(ring), name), property)
    assert ring.zero == Ring.zero.fget(ring) == ring.from_int(0)
    assert ring.one == Ring.one.fget(ring) == ring.from_int(1)
    assert type(ring.zero) is int and type(ring.one) is int


@given(m=st.integers(2, 60), a=st.integers(-200, 200), b=st.integers(-200, 200))
@settings(max_examples=200, deadline=None)
def test_integers_mod_sub_matches_add_of_neg(m, a, b):
    from hopfcycl.rings import _is_prime

    for ring in (IntegersMod(m),) + ((PrimeField(m),) if _is_prime(m) else ()):
        x, y = ring.from_int(a), ring.from_int(b)
        assert ring.sub(x, y) == Ring.sub(ring, x, y) == ring.add(x, ring.neg(y))
        assert 0 <= ring.sub(x, y) < m
        assert ring.is_zero(ring.sub(x, x))
        assert ring.add(ring.sub(x, y), y) == x


@pytest.mark.parametrize("spec", ["F4", "F1", "Z/1", "Z/0", "Q(zeta0)"])
def test_parse_ring_refuses_rings_that_do_not_exist(spec):
    with pytest.raises(ParseError):
        parse_ring(spec)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_modulus_parses_to_the_field(p):
    ring = parse_ring(f"Z/{p}")
    assert ring == PrimeField(p) and ring.is_field
    assert parse_ring(f"Z/{p * p}") == IntegersMod(p * p)
    assert not parse_ring("Z/6").is_field
