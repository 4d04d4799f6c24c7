"""Hopf algebra data: axioms, twisted antipode, admissibility."""

import pytest

from hopfcycl import (
    QQ,
    ZZ,
    Character,
    CyclotomicField,
    FiniteGroup,
    GroupLike,
    InvalidCharacter,
    PrimeField,
    SparseMatrix,
    character_from_zeta,
    check_cm_triple,
    group_algebra,
    is_grouplike,
    taft_grouplike,
    taft_hopf,
    taft_vertex_character,
    trivial_character,
    twisted_antipode,
)
from hopfcycl.hopf import AlgebraData, HopfAlgebraData, admissibility_matrix, contract, twisted_middle


@pytest.mark.parametrize(
    "G,ring",
    [
        (FiniteGroup.cyclic(4), ZZ),
        (FiniteGroup.cyclic(3), QQ),
        (FiniteGroup.symmetric(3), QQ),
    ],
    ids=["Z4/Z", "Z3/Q", "S3/Q"],
)
def test_group_algebra_hopf_axioms(G, ring):
    H = group_algebra(G, ring)
    report = H.verify_axioms()
    assert report == {k: True for k in report}
    eps = Character(ring, H.counit)
    assert contract(H, eps, 0) == contract(H, eps, 1) == SparseMatrix.identity(ring, H.dim)


def _rebuilt(H, coproduct=None, counit=None, antipode=None):
    """H with some of its coproduct, counit and antipode replaced."""
    return HopfAlgebraData(
        H.algebra,
        H.coproduct if coproduct is None else coproduct,
        H.counit if counit is None else counit,
        H.antipode if antipode is None else antipode,
    )


def _broken_z3(part):
    """Q[Z/3], basis e, g, g^2, with one structure map broken."""
    H = group_algebra(FiniteGroup.cyclic(3), QQ)
    one = QQ.one
    if part == "S = id":
        return _rebuilt(H, antipode=SparseMatrix.identity(QQ, 3))
    if part == "eps(g) = 0":
        return _rebuilt(H, counit=[one, QQ.zero, one])
    delta_g = {
        "Delta(g) = g (x) e": {(1, 0): one},
        "Delta(g) = e (x) g": {(0, 1): one},
        "Delta(g) = g (x) g + g^2 (x) g^2": {(1, 1): one, (2, 2): one},
    }[part]
    return _rebuilt(H, coproduct=[H.coproduct[0], delta_g, H.coproduct[2]])


@pytest.mark.parametrize(
    "part, failing",
    [
        ("S = id", {"antipode"}),
        ("eps(g) = 0", {"counit", "antipode"}),
        ("Delta(g) = g (x) e", {"counit", "antipode"}),
        ("Delta(g) = e (x) g", {"counit", "antipode"}),
        ("Delta(g) = g (x) g + g^2 (x) g^2", {"coassociativity", "counit", "antipode"}),
    ],
)
def test_verify_axioms_reports_a_broken_structure(part, failing):
    report = _broken_z3(part).verify_axioms()
    assert {name for name, ok in report.items() if not ok} == failing
    assert set(report) == {"associativity", "unit", "coassociativity", "counit", "antipode"}


def _broken_z3_algebra(product, unit):
    """Q[Z/3] with g * g^2 = g in place of e (product), or with g in place of
    e as its unit (unit), and the coproduct, counit and antipode of Q[Z/3]."""
    H = group_algebra(FiniteGroup.cyclic(3), QQ)
    A, one = H.algebra, QQ.one
    mult = [[dict(v) for v in row] for row in A.mult]
    if product:
        mult[1][2] = {1: one}
    algebra = AlgebraData(QQ, A.basis_labels, mult, {1: one} if unit else A.unit)
    return HopfAlgebraData(algebra, H.coproduct, H.counit, H.antipode)


@pytest.mark.parametrize(
    "product, unit, failing",
    [
        # (g g) g^2 = g but g (g g^2) = g^2, and S(g) g = e but g S(g) = g
        (True, False, {"associativity", "antipode"}),
        # g e = g^2, and S(b_1) b_2 = e is not eps(b) times the unit g
        (False, True, {"unit", "antipode"}),
        (True, True, {"associativity", "unit", "antipode"}),
    ],
    ids=["g g^2 = g", "unit g", "both"],
)
def test_verify_axioms_reports_a_broken_algebra(product, unit, failing):
    H = _broken_z3_algebra(product, unit)
    assert H.algebra.verify_associativity() is not product
    assert H.algebra.verify_unit() is not unit
    report = H.verify_axioms()
    assert {name for name, ok in report.items() if not ok} == failing
    assert set(report) == {"associativity", "unit", "coassociativity", "counit", "antipode"}


def test_two_hopf_structures_on_one_algebra_keep_their_own_s_pi_and_m():
    """S_pi and M are kept in the algebra's table store, keyed by their Hopf
    structure too: Q[Z/3] with S = id, or with Delta(g) = g (x) e, built on
    the algebra of Q[Z/3] after Q[Z/3] stored its tables, builds its own."""
    H = group_algebra(FiniteGroup.cyclic(3), QQ)
    pi, eps = GroupLike.from_vector({1: QQ.one}), trivial_character(FiniteGroup.cyclic(3), QQ)
    assert check_cm_triple(H, pi, eps, eps).valid
    g_times = H.algebra.left_multiplication_matrix(pi.as_vector())
    no_antipode = _rebuilt(H, antipode=SparseMatrix.identity(QQ, 3))
    assert twisted_antipode(no_antipode, pi) == g_times != twisted_antipode(H, pi)
    g_then_e = _rebuilt(H, coproduct=[H.coproduct[0], {(1, 0): QQ.one}, H.coproduct[2]])
    assert twisted_middle(g_then_e, eps, eps) != twisted_middle(H, eps, eps)


def test_verify_axioms_reports_a_broken_taft_antipode():
    H = taft_hopf(2)
    report = _rebuilt(H, antipode=SparseMatrix.identity(H.ring, H.dim)).verify_axioms()
    assert {name for name, ok in report.items() if not ok} == {"antipode"}


def test_alpha_contracted_three_leg_coproduct_of_grouplikes():
    """In k[Z/3] with alpha = eps, (alpha (x) id (x) id)(id (x) Delta)Delta(g)
    is g (x) g for every grouplike g."""
    from hopfcycl import ConnesMoscoviciModule

    H = group_algebra(FiniteGroup.cyclic(3), QQ)
    eps = trivial_character(FiniteGroup.cyclic(3), QQ)
    triple = check_cm_triple(H, GroupLike.from_vector({0: QQ.one}), eps, eps)
    tables = ConnesMoscoviciModule(H, triple)._cop3_alpha
    assert tables == [{(g, g): QQ.one} for g in range(3)]


def test_character_validate():
    G = FiniteGroup.cyclic(4)
    H = group_algebra(G, QQ)
    trivial_character(G, QQ).validate(H.algebra)
    character_from_zeta(QQ, 4, QQ.neg(QQ.one)).validate(H.algebra)
    with pytest.raises(InvalidCharacter):
        Character(QQ, [QQ.one, QQ.from_int(2), QQ.one, QQ.one]).validate(H.algebra)
    with pytest.raises(InvalidCharacter):
        Character(QQ, [QQ.zero] * 4).validate(H.algebra)
    with pytest.raises(InvalidCharacter):
        character_from_zeta(QQ, 4, QQ.from_int(2))


def test_character_call_on_vectors():
    G = FiniteGroup.cyclic(3)
    K = CyclotomicField(3)
    chi = character_from_zeta(K, 3, K.zeta)
    assert chi(1) == K.zeta
    assert chi({0: K.one, 1: K.one, 2: K.one}) == K.sum(K.zeta_pow(i) for i in range(3))


def test_is_grouplike():
    H = group_algebra(FiniteGroup.cyclic(3), QQ)
    for g in range(3):
        assert is_grouplike(H, {g: QQ.one})
    assert not is_grouplike(H, {0: QQ.one, 1: QQ.one})
    assert not is_grouplike(H, {1: QQ.from_int(2)})


def test_twisted_antipode_on_group_algebra():
    G = FiniteGroup.cyclic(5)
    H = group_algebra(G, QQ)
    pi = 2
    S_pi = twisted_antipode(H, GroupLike.from_vector({pi: QQ.one}))
    for a in range(5):
        assert S_pi.column(a) == {(pi - a) % 5: QQ.one}


def test_check_cm_triple_group_algebra():
    G = FiniteGroup.cyclic(4)
    K = CyclotomicField(4)
    H = group_algebra(G, K)
    eps = trivial_character(G, K)
    for pi in range(4):
        triple = check_cm_triple(H, GroupLike.from_vector({pi: K.one}), eps, eps)
        assert triple.valid and triple.failures == ()
    # alpha(pi) != 1 must be flagged
    alpha = character_from_zeta(K, 4, K.zeta)
    triple = check_cm_triple(H, GroupLike.from_vector({1: K.one}), alpha, alpha)
    assert not triple.valid
    assert "character value at grouplike is not 1" in triple.failures
    # alpha(pi) = 1 with pi = g^0 is fine even for a nontrivial character
    triple = check_cm_triple(H, GroupLike.from_vector({0: K.one}), alpha, alpha)
    assert triple.valid


def test_grouplike_round_trip():
    vec = {2: QQ.one}
    assert GroupLike.from_vector(vec).as_vector() == vec


def test_grouplike_and_triple_are_frozen_values():
    G = FiniteGroup.cyclic(3)
    H = group_algebra(G, QQ)
    eps = trivial_character(G, QQ)
    pi, again = GroupLike.from_vector({1: QQ.one}), GroupLike(((1, QQ.one),))
    assert pi == again and hash(pi) == hash(again) and pi != GroupLike.from_vector({2: QQ.one})
    assert len({pi, again}) == 1
    triple = check_cm_triple(H, pi, eps, eps)
    assert triple == check_cm_triple(H, again, eps, eps)
    with pytest.raises(AttributeError):
        pi.vector = ()
    with pytest.raises(AttributeError):
        triple.valid = False
    assert triple.valid and pi.vector == ((1, QQ.one),)


def three_leg_middle(hopf, alpha, beta):
    """(alpha (x) id (x) beta) Delta^2 from the three-leg coproduct
    (id (x) Delta) Delta, written from the two-leg table: column b is the sum
    of c * d * alpha(x) * beta(z) * b_y over the terms c * x (x) w of
    Delta(b) and d * y (x) z of Delta(w), as a dict (row, col) -> payload."""
    R = hopf.ring
    out = {}
    for b in range(hopf.dim):
        for (x, w), c in hopf.coproduct[b].items():
            for (y, z), d in hopf.coproduct[w].items():
                scale = R.mul(R.mul(c, d), R.mul(alpha(x), beta(z)))
                out[(y, b)] = R.add(out.get((y, b), R.zero), scale)
    return {k: v for k, v in out.items() if not R.is_zero(v)}


def three_leg_reference(hopf, pi, alpha, beta):
    """alpha * S_pi * beta: S_pi applied to the middle legs of
    `three_leg_middle`, as a dict (row, col) -> payload."""
    R = hopf.ring
    S_pi = twisted_antipode(hopf, pi)
    out = {}
    for (y, b), scale in three_leg_middle(hopf, alpha, beta).items():
        for row, s in S_pi.column(y).items():
            out[(row, b)] = R.add(out.get((row, b), R.zero), R.mul(scale, s))
    return {k: v for k, v in out.items() if not R.is_zero(v)}


def taft_candidates(n):
    hopf = taft_hopf(n)
    chars = [taft_vertex_character(hopf, u) for u in range(n)]
    return hopf, [(taft_grouplike(hopf, i), a, b) for i in range(n) for a in chars for b in chars]


def group_candidates(G, ring):
    hopf = group_algebra(G, ring)
    eps = trivial_character(G, ring)
    return hopf, [(GroupLike.from_vector({g: ring.one}), eps, eps) for g in range(G.order)]


GROUPS = {"Z4": FiniteGroup.cyclic(4), "S3": FiniteGroup.symmetric(3)}
RINGS = (QQ, ZZ, PrimeField(3))


@pytest.mark.parametrize(
    "candidates",
    [lambda n=n: taft_candidates(n) for n in (2, 3, 4)]
    + [lambda G=G, ring=ring: group_candidates(G, ring) for G in GROUPS.values() for ring in RINGS],
    ids=[f"Taft-{n}" for n in (2, 3, 4)] + [f"{g}/{r.name}" for g in GROUPS for r in RINGS],
)
def test_admissibility_matrix_matches_the_three_leg_formula(candidates):
    """Every candidate triple: the matrix and its middle legs
    `twisted_middle`, before S_pi, are read off the two-leg table with the
    (Delta (x) id) Delta bracketing, the reference brackets the other way."""
    hopf, triples = candidates()
    for pi, alpha, beta in triples:
        M = admissibility_matrix(hopf, pi, alpha, beta)
        assert (M.nrows, M.ncols) == (hopf.dim, hopf.dim)
        assert M.entries == three_leg_reference(hopf, pi, alpha, beta)
        assert twisted_middle(hopf, alpha, beta).entries == three_leg_middle(hopf, alpha, beta)


def test_twisted_antipode_and_middle_are_built_once_per_key(monkeypatch):
    """`taft_cm_triples(4)` checks 4^3 candidates on one Taft algebra: S_pi is
    built once per grouplike (4) and M once per character pair (16), each a
    product of two contractions, and both are shared by every later caller."""
    import hopfcycl.hopf as hopf_module
    from hopfcycl import AlgebraData, taft_cm_triples

    built = {"S_pi": 0, "contract": 0}
    left_multiplication, contraction = AlgebraData.left_multiplication_matrix, contract

    def counting_left(algebra, x):
        built["S_pi"] += 1
        return left_multiplication(algebra, x)

    def counting_contract(*args):
        built["contract"] += 1
        return contraction(*args)

    monkeypatch.setattr(AlgebraData, "left_multiplication_matrix", counting_left)
    monkeypatch.setattr(hopf_module, "contract", counting_contract)
    assert taft_cm_triples(4) == [(0, 0, 3), (0, 1, 0), (0, 2, 1), (0, 3, 2), (3, 0, 0)]
    assert built == {"S_pi": 4, "contract": 2 * 16}
    hopf = taft_hopf(3)
    pi, alpha = taft_grouplike(hopf, 2), taft_vertex_character(hopf, 0)
    assert twisted_antipode(hopf, pi) is twisted_antipode(hopf, taft_grouplike(hopf, 2))
    assert twisted_middle(hopf, alpha, alpha) is twisted_middle(
        hopf, alpha, taft_vertex_character(hopf, 0))
