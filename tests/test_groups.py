"""Group algebras: Gamma modules, theta, Burghelea, closed formulas, chi."""

from itertools import product

import pytest

from hopfcycl import (
    QQ,
    ZZ,
    CyclotomicField,
    FiniteGroup,
    GammaCyclicModule,
    IntegersMod,
    InvalidCharacter,
    ParseError,
    PreconditionFailed,
    PrimeField,
    burghelea_check,
    centralizer,
    character_from_zeta,
    chi_isomorphism,
    closed_hc_cyclic_group,
    closed_hc_group_algebra,
    cm_group_module,
    conjugacy_classes,
    cyclic_bicomplex_hc,
    cyclic_bicomplex_hc_upto,
    connes_lambda_hc,
    group_algebra,
    hochschild_window,
    periodic_resolution_homology,
    theta_chain_map_check,
    theta_map,
    verify_cyclic_axioms,
)
from hopfcycl.hopf import Character, GroupLike, check_cm_triple
from hopfcycl.cyclic import ConnesMoscoviciModule
from hopfcycl.sparse import SparseMatrix, rank


# -- group plumbing ----------------------------------------------------------


def test_group_construction_and_validation():
    G = FiniteGroup.cyclic(6)
    assert G.order == 6 and G.identity == 0
    assert G.element_order(1) == 6 and G.element_order(2) == 3
    assert G.is_cyclic()
    S3 = FiniteGroup.symmetric(3)
    assert S3.order == 6 and not S3.is_cyclic()
    assert sorted(S3.element_order(a) for a in range(6)) == [1, 2, 2, 2, 3, 3]
    assert G.product([1, 1, 1]) == 3
    assert G.op(G.inverse[5], 5) == 0
    assert FiniteGroup.symmetric(1).order == 1


@pytest.mark.parametrize("n", [-1, 0, 2.0, True])
def test_symmetric_degree_below_one_is_refused(n):
    with pytest.raises(ParseError, match="integer >= 1"):
        FiniteGroup.symmetric(n)


def test_group_table_validation_errors():
    with pytest.raises(ParseError):
        FiniteGroup([[0, 1], [1, 1]])  # not a group
    with pytest.raises(ParseError):
        FiniteGroup([[1, 0], [1, 0]])  # no identity
    with pytest.raises(ParseError):
        FiniteGroup([[0, 1]])  # not square
    with pytest.raises(ParseError):
        FiniteGroup([])


def test_group_from_json():
    assert FiniteGroup.from_json({"cyclic": 3}).order == 3
    table = [[0, 1], [1, 0]]
    assert FiniteGroup.from_json({"order": 2, "table": table}).op(1, 1) == 0
    with pytest.raises(ParseError):
        FiniteGroup.from_json({"order": 3, "table": table})
    with pytest.raises(ParseError):
        FiniteGroup.from_json({"cyclic": 0})
    with pytest.raises(ParseError):
        FiniteGroup.from_json([1, 2])
    with pytest.raises(ParseError):
        FiniteGroup.from_json({})
    for malformed in MALFORMED_GROUPS:
        with pytest.raises(ParseError):
            FiniteGroup.from_json(malformed)


# group specs that parse as JSON but describe no group; a bool is no integer
MALFORMED_GROUPS = [
    {"order": 2, "table": 5},
    {"order": 2, "table": [1, 2]},
    {"order": True, "table": [[0]]},
    {"order": 1, "table": [[False]]},
    {"order": 1, "table": "x"},
    {"cyclic": True},
    {"cyclic": 2.0},
]


def test_conjugacy_classes_and_centralizers_s3():
    S3 = FiniteGroup.symmetric(3)
    classes = conjugacy_classes(S3)
    assert sorted(len(c) for c in classes) == [1, 2, 3]
    for cls_ in classes:
        for pi in cls_:
            C = centralizer(S3, pi)
            assert len(cls_) * C.order == S3.order
            assert C.parent_elements[C.parent_pi] == pi
    assert centralizer(S3, S3.identity).order == 6


# -- the Gamma cyclic set ----------------------------------------------------


def test_gamma_basis_and_dims():
    S3 = FiniteGroup.symmetric(3)
    classes = conjugacy_classes(S3)
    for m in range(3):
        total = 0
        for cls_ in classes:
            gamma = GammaCyclicModule(S3, cls_[0], QQ)
            basis = gamma.basis(m)
            assert len(basis) == gamma.level_dim(m) == len(cls_) * 6**m
            for t in basis:
                assert S3.product(t) in cls_
            total += len(basis)
        assert total == 6 ** (m + 1)


def test_gamma_operators_are_permutations():
    S3 = FiniteGroup.symmetric(3)
    pi = conjugacy_classes(S3)[1][0]
    gamma = GammaCyclicModule(S3, pi, QQ)
    for m in range(2):
        for mat in [gamma.cyclic(m)] + (
            [gamma.face(m, i) for i in range(m + 1)] if m else []
        ):
            cols = {}
            for (_, j), v in mat.entries.items():
                cols.setdefault(j, []).append(v)
            assert all(vals == [QQ.one] for vals in cols.values())
            assert len(cols) == mat.ncols


def test_gamma_cyclic_axioms():
    gamma = GammaCyclicModule(FiniteGroup.cyclic(3), 1, QQ)
    report = verify_cyclic_axioms(gamma, 2)
    assert report == {k: True for k in report}


def test_gamma_normalized_basis_is_the_nondegenerate_tuples():
    S3 = FiniteGroup.symmetric(3)
    for cls_ in conjugacy_classes(S3):
        gamma = GammaCyclicModule(S3, cls_[0], QQ)
        for m in range(4):
            basis = gamma.normalized_basis(m)
            assert basis == [t for t in gamma.basis(m) if S3.identity not in t[1:]]
            assert basis == sorted(basis)
            assert len(basis) == gamma.normalized_dim(m) == len(cls_) * 5**m


# -- a tuple-level reference for Gamma ---------------------------------------


def class_tuples(G, cls_, m, normalized=False):
    """The (m+1)-tuples with ordered product in cls_, sorted; normalized,
    only those with no identity in slots 1..m."""
    letters = [g for g in range(G.order) if not (normalized and g == G.identity)]
    return [t for t in product(range(G.order), *[letters] * m) if G.product(t) in cls_]


def tuple_face(G, t, i):
    """d_i multiplies slots i and i + 1; the last face puts t[m] . t[0] in slot 0."""
    m = len(t) - 1
    if i < m:
        return t[:i] + (G.op(t[i], t[i + 1]),) + t[i + 2:]
    return (G.op(t[m], t[0]),) + t[1:m]


def tuple_matrix(ring, sources, targets, images):
    """Column j is the sum of c * targets[r] over the pairs (targets[r], c)
    of images(sources[j]); an image that is no target tuple is dropped."""
    at = {t: r for r, t in enumerate(targets)}
    ent = {}
    for j, t in enumerate(sources):
        for image, c in images(t):
            if image in at:
                key = (at[image], j)
                ent[key] = ring.add(ent.get(key, ring.zero), c)
    return SparseMatrix(ring, len(targets), len(sources), ent)


@pytest.mark.parametrize("G", [FiniteGroup.cyclic(4), FiniteGroup.symmetric(3)],
                         ids=["Z4", "S3"])
def test_gamma_operators_are_the_tuple_rules(G):
    """Every operator of Gamma(G, pi) through level 3, the kG operator
    restricted to the class, equals the rule on tuples entry for entry: s_i
    inserts e after slot i, t moves the last slot to the front, b-bar is the
    alternating face sum and B-bar sends t to the sum of (-1)^(mk) (e,) + t
    rotated k times, on the nondegenerate tuples."""
    R, e = ZZ, G.identity

    def sign(k):
        return R.one if k % 2 == 0 else R.neg(R.one)

    for cls_ in conjugacy_classes(G):
        gamma = GammaCyclicModule(G, cls_[0], R)
        full = [class_tuples(G, cls_, m) for m in range(5)]
        normal = [class_tuples(G, cls_, m, normalized=True) for m in range(5)]
        for m in range(4):
            assert gamma.basis(m) == full[m] and gamma.normalized_basis(m) == normal[m]
            assert gamma.cyclic(m) == tuple_matrix(
                R, full[m], full[m], lambda t: [((t[-1],) + t[:-1], R.one)])
            for i in range(m + 1):
                assert gamma.degeneracy(m, i) == tuple_matrix(
                    R, full[m], full[m + 1], lambda t: [(t[:i + 1] + (e,) + t[i + 1:], R.one)])
                if m:
                    assert gamma.face(m, i) == tuple_matrix(
                        R, full[m], full[m - 1], lambda t: [(tuple_face(G, t, i), R.one)])
            if m:
                assert gamma.normalized_b(m) == tuple_matrix(
                    R, normal[m], normal[m - 1],
                    lambda t: [(tuple_face(G, t, i), sign(i)) for i in range(m + 1)])
            assert gamma.normalized_B(m) == tuple_matrix(
                R, normal[m], normal[m + 1],
                lambda t: [((e,) + t[m + 1 - k:] + t[:m + 1 - k], sign(m * k))
                           for k in range(m + 1)])


def test_gamma_builds_b_bar_and_B_bar_on_its_class_tuples():
    """Gamma's b-bar and B-bar are built on the class tuples only: no kG
    operator of the normalized chains is built or kept."""
    G = FiniteGroup.symmetric(3)
    for cls_ in conjugacy_classes(G):
        gamma = GammaCyclicModule(G, cls_[0], ZZ)
        for m in range(1, 4):
            gamma.normalized_b(m)
            gamma.normalized_B(m)
            assert ("b-bar", m) not in gamma.classical._cache
            assert ("B-bar", m) not in gamma.classical._cache


@pytest.mark.parametrize("G", [FiniteGroup.cyclic(4), FiniteGroup.symmetric(3)],
                         ids=["Z4", "S3"])
def test_gamma_hc_over_z_is_the_centralizer_hc_class_by_class(G):
    """HC over Z of the class component of Gamma(G) from the normalized
    (b, B) bicomplex equals the Connes-Moscovici HC of the centralizer at pi,
    torsion included."""
    for cls_ in conjugacy_classes(G):
        pi = cls_[0]
        H = centralizer(G, pi)
        gamma = cyclic_bicomplex_hc_upto(GammaCyclicModule(G, pi, ZZ), 3)
        cm = cyclic_bicomplex_hc_upto(cm_group_module(H, H.parent_pi, ZZ), 3)
        assert [(h.free_rank, h.torsion) for h in gamma] == [
            (h.free_rank, h.torsion) for h in cm
        ], pi


@pytest.mark.parametrize(
    "G,pi",
    [
        (FiniteGroup.cyclic(2), 0),
        (FiniteGroup.cyclic(2), 1),
        (FiniteGroup.cyclic(4), 2),
    ],
    ids=["Z2/1", "Z2/g", "Z4/g2"],
)
@pytest.mark.parametrize("ring", [QQ, ZZ, PrimeField(2)], ids=["Q", "Z", "F2"])
def test_theta_chain_map_cyclic_groups(G, pi, ring):
    report = theta_chain_map_check(G, pi, 2, ring)
    assert report == {k: True for k in report}


@pytest.mark.parametrize("ring", [QQ, ZZ, PrimeField(2)], ids=["Q", "Z", "F2"])
def test_theta_chain_map_s3_all_classes(ring):
    S3 = FiniteGroup.symmetric(3)
    for cls_ in conjugacy_classes(S3):
        report = theta_chain_map_check(S3, cls_[0], 2, ring)
        assert report == {k: True for k in report}


def test_theta_bijective_for_central_pi():
    # for pi central the centralizer is all of G and theta is a bijection
    G = FiniteGroup.cyclic(4)
    for n in range(3):
        th = theta_map(G, 2, n, QQ)
        assert th.nrows == th.ncols == 4**n
        assert rank(th) == th.ncols


# -- Burghelea decomposition -------------------------------------------------


def test_burghelea_z2():
    out = burghelea_check(FiniteGroup.cyclic(2), QQ, 3)
    assert out["passed"]
    assert out["classical"] == out["sum"] == [2, 0, 2, 0]
    assert sorted(map(tuple, out["per_class"].values())) == [
        (1, 0, 1, 0),
        (1, 0, 1, 0),
    ]


def test_burghelea_z3_over_cyclotomic():
    out = burghelea_check(FiniteGroup.cyclic(3), CyclotomicField(3), 2)
    assert out["passed"]
    assert out["classical"] == [3, 0, 3]


# -- closed formulas ---------------------------------------------------------


def test_closed_hc_cyclic_group_values():
    assert str(closed_hc_cyclic_group(QQ, 1, 4)) == "Q"
    assert str(closed_hc_cyclic_group(QQ, 2, 2)) == "Q"
    assert closed_hc_cyclic_group(QQ, 2, 3).is_zero
    assert closed_hc_cyclic_group(ZZ, 2, 1).torsion == (2,)
    assert closed_hc_cyclic_group(ZZ, 2, 3).torsion == (2, 2)
    assert str(closed_hc_cyclic_group(ZZ, 1, 2)) == "Z"
    assert str(closed_hc_cyclic_group(IntegersMod(4), 2, 2)) == "Z/2 + Z/4"
    with pytest.raises(PreconditionFailed):
        closed_hc_cyclic_group(QQ, 0, 0)


def test_closed_hc_group_algebra_matches_classical():
    G = FiniteGroup.cyclic(3)
    classical_dims = [3, 0, 3]
    for n, want in enumerate(classical_dims):
        assert closed_hc_group_algebra(G, QQ, n).free_rank == want
    with pytest.raises(PreconditionFailed):
        closed_hc_group_algebra(FiniteGroup.symmetric(3), QQ, 0)


def test_closed_vs_computed_z3_all_pi():
    G = FiniteGroup.cyclic(3)
    for pi in range(3):
        module = cm_group_module(G, pi, QQ)
        m_pi = 3 // G.element_order(pi)
        for n in range(4):
            assert (
                connes_lambda_hc(module, n).free_rank
                == closed_hc_cyclic_group(QQ, m_pi, n).free_rank
            )


# -- periodic resolution and chi ---------------------------------------------


def coefficient_hochschild_dims(m, ring, a, b, N):
    """H_*(k[Z/m], bimodule k twisted by the characters zeta^a, zeta^b)."""
    from hopfcycl.rings import primitive_root_of_unity

    G = FiniteGroup.cyclic(m)
    H = group_algebra(G, ring)
    zeta = primitive_root_of_unity(ring, m)
    alpha = character_from_zeta(ring, m, ring.pow(zeta, a))
    beta = character_from_zeta(ring, m, ring.pow(zeta, b))
    triple = check_cm_triple(H, GroupLike.from_vector({0: ring.one}), alpha, beta)
    module = ConnesMoscoviciModule(H, triple, require_valid=False)
    window = hochschild_window(module, N + 1)
    return [window.homology(n).free_rank for n in range(N + 1)]


def test_periodic_resolution_matches_b_complex_m3():
    K = CyclotomicField(3)
    for a in range(3):
        for b in range(3):
            closed = [
                h.free_rank
                for h in periodic_resolution_homology(
                    3, K, K.zeta_pow(a), K.zeta_pow(b), 2
                )
            ]
            built = coefficient_hochschild_dims(3, K, a, b, 2)
            assert closed == built
            if a == b:
                assert closed == [1, 0, 0]
            else:
                assert closed == [0, 0, 0]


def test_periodic_resolution_rejects_non_roots():
    with pytest.raises(InvalidCharacter):
        periodic_resolution_homology(3, QQ, QQ.from_int(2), QQ.one, 2)


def test_chi_identity_when_zeta_is_one():
    from hopfcycl import SparseMatrix

    chi = chi_isomorphism(3, 1, QQ.one, 2, QQ)
    assert chi == SparseMatrix.identity(QQ, 9)


@pytest.mark.parametrize("m,s,zexp", [(3, 0, 1), (4, 2, 2)])
def test_chi_conjugates_twisted_to_trivial(m, s, zexp):
    K = CyclotomicField(m)
    zeta = K.zeta_pow(zexp)
    G = FiniteGroup.cyclic(m)
    alpha = character_from_zeta(K, m, zeta)
    twisted = cm_group_module(G, s, K, alpha=alpha, beta=alpha)
    plain = cm_group_module(G, s, K)
    chis = {n: chi_isomorphism(m, s, zeta, n, K) for n in range(4)}
    for n in range(1, 4):
        for i in range(n + 1):
            assert chis[n - 1] @ twisted.face(n, i) == plain.face(n, i) @ chis[n]
    for n in range(3):
        assert chis[n] @ twisted.cyclic(n) == plain.cyclic(n) @ chis[n]
        for i in range(n + 1):
            assert (
                chis[n + 1] @ twisted.degeneracy(n, i)
                == plain.degeneracy(n, i) @ chis[n]
            )
    for n in range(3):
        assert (
            connes_lambda_hc(twisted, n).free_rank
            == connes_lambda_hc(plain, n).free_rank
        )


def test_chi_preconditions():
    K = CyclotomicField(4)
    with pytest.raises(PreconditionFailed):
        chi_isomorphism(4, 1, K.zeta, 2, K)
    with pytest.raises(InvalidCharacter):
        chi_isomorphism(4, 0, K.from_int(2), 2, K)


def test_character_from_zeta_needs_root():
    with pytest.raises(InvalidCharacter):
        character_from_zeta(QQ, 3, QQ.from_int(-1))
