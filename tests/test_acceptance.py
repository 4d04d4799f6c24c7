"""Acceptance gate: end-to-end checks of the homology engines against closed
formulas and against each other, at exact equality of dimensions and torsion.

Each test prints a single pass/fail line on the real stdout so the gate
status is visible even under output capture.
"""

import sys

from hopfcycl import (
    QQ,
    ZZ,
    ClassicalCyclicModule,
    ConnesMoscoviciModule,
    CyclotomicField,
    FiniteGroup,
    GroupLike,
    Quiver,
    SparseMatrix,
    burghelea_check,
    character_from_zeta,
    check_cm_triple,
    chi_isomorphism,
    closed_hc_cyclic_group,
    cm_group_module,
    conjugacy_classes,
    connes_lambda_hc,
    cyclic_bicomplex_hc,
    cyclic_bicomplex_hc_upto,
    graded_sbi_hc,
    group_algebra,
    hc_closed_form_truncated,
    hh_closed_form,
    hh_via_skoldberg,
    hochschild_homology_upto,
    hochschild_window,
    path_algebra_hh,
    primitive_root_of_unity,
    sbi_check,
    skoldberg_resolution,
    taft_cm_closed_form,
    taft_cm_module,
    taft_cm_triples,
    taft_grouplike,
    taft_hopf,
    taft_vertex_character,
    truncated_algebra,
    verify_cyclic_axioms,
)
from test_quivers import vertex_bar_homology


def conclude(num, desc, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] acceptance {num}: {desc}", file=sys.__stdout__, flush=True)
    assert not failures, failures


def check(failures, ok, label):
    if not ok:
        failures.append(label)


def same_module(a, b):
    return (a.free_rank, a.torsion) == (b.free_rank, b.torsion)


def test_acceptance_1_cyclic_module_law_suite():
    failures = []
    modules = {
        "Q[Z/3] pi=1": cm_group_module(FiniteGroup.cyclic(3), 0, QQ),
        "Q[Z/3] pi=g": cm_group_module(FiniteGroup.cyclic(3), 1, QQ),
        "Q[S3] pi=1": cm_group_module(FiniteGroup.symmetric(3), 0, QQ),
    }
    for n in (2, 3):
        hopf = taft_hopf(n)
        check(failures, all(hopf.verify_axioms().values()), f"Taft {n} Hopf axioms")
        for (i, u, v) in taft_cm_triples(n):
            modules[f"Taft {n} ({i},{u},{v})"] = taft_cm_module(hopf, i, u, v)
    for name, module in modules.items():
        report = verify_cyclic_axioms(module, 3)
        bad = sorted(k for k, ok in report.items() if not ok)
        check(failures, not bad, f"{name}: {bad}")
    # the inadmissible Taft triple must break the cyclic power law; the
    # level-1 square happens to close, the failure appears at level 2
    hopf2 = taft_hopf(2)
    triple = check_cm_triple(
        hopf2, taft_grouplike(hopf2, 1),
        taft_vertex_character(hopf2, 1), taft_vertex_character(hopf2, 1),
    )
    check(failures, not triple.valid, "inadmissible triple flagged valid")
    bad_module = ConnesMoscoviciModule(hopf2, triple, require_valid=False)
    t2 = bad_module.cyclic(2)
    check(
        failures,
        t2 @ t2 @ t2 != SparseMatrix.identity(hopf2.ring, 16),
        "inadmissible triple satisfies t^3 = id at level 2",
    )
    conclude(1, "cyclic-module laws for group, symmetric and Taft modules", failures)


def test_acceptance_2_cyclic_groups_closed_vs_computed():
    failures = []
    for m in (2, 3, 4):
        G = FiniteGroup.cyclic(m)
        for ring in (QQ, ZZ):
            for pi in range(m):
                module = cm_group_module(G, pi, ring)
                m_pi = m // G.element_order(pi)
                for n in range(4):
                    computed = cyclic_bicomplex_hc(module, n)
                    closed = closed_hc_cyclic_group(ring, m_pi, n)
                    check(
                        failures,
                        same_module(computed, closed),
                        f"Z/{m} pi={pi} over {ring} deg {n}: {computed} vs {closed}",
                    )
    # the flagship torsion value really occurred
    module = cm_group_module(FiniteGroup.cyclic(2), 0, ZZ)
    check(
        failures,
        cyclic_bicomplex_hc(module, 1).torsion == (2,),
        "missing Z/2 torsion at (Z, m_pi=2, n=1)",
    )
    conclude(2, "bicomplex HC of cyclic groups matches the closed formula", failures)


def test_acceptance_3_burghelea_decomposition():
    failures = []
    for G, name in (
        (FiniteGroup.cyclic(2), "Z/2"),
        (FiniteGroup.cyclic(4), "Z/4"),
        (FiniteGroup.symmetric(3), "S3"),
    ):
        out = burghelea_check(G, QQ, 3)
        check(
            failures, out["passed"],
            f"{name}: classical {out['classical']} != sum {out['sum']}",
        )
        # HC of QG over Q is Q^c in even degrees and 0 in odd ones, c the
        # number of conjugacy classes: a closed value, apart from both sides
        c = len(conjugacy_classes(G))
        check(
            failures, out["classical"] == [c, 0, c, 0],
            f"{name}: classical {out['classical']} != {[c, 0, c, 0]}",
        )
    conclude(3, "HC(QG) decomposes over conjugacy classes", failures)


def test_acceptance_4_character_twisted_cyclic_groups():
    failures = []
    for m in (2, 3, 4):
        K = CyclotomicField(m)
        G = FiniteGroup.cyclic(m)
        H = group_algebra(G, K)
        zeta = primitive_root_of_unity(K, m)
        chars = [character_from_zeta(K, m, K.pow(zeta, a)) for a in range(m)]
        # coefficient homology vanishes for distinct characters
        for a in range(m):
            for b in range(m):
                if a == b:
                    continue
                triple = check_cm_triple(
                    H, GroupLike.from_vector({0: K.one}), chars[a], chars[b]
                )
                module = ConnesMoscoviciModule(H, triple, require_valid=False)
                window = hochschild_window(module, 4)
                dims = [window.homology(n).free_rank for n in range(4)]
                check(
                    failures, dims == [0, 0, 0, 0],
                    f"H(k[Z/{m}], alpha={a}, beta={b}) = {dims}",
                )
        # chi conjugation carries (pi, alpha, alpha) to (pi, eps, eps)
        pairs = [(0, a) for a in range(1, m)] + ([(2, 2)] if m == 4 else [])
        for s, a in pairs:
            z = K.pow(zeta, a)
            alpha = chars[a]
            twisted = cm_group_module(G, s, K, alpha=alpha, beta=alpha)
            plain = cm_group_module(G, s, K)
            chis = {n: chi_isomorphism(m, s, z, n, K) for n in range(5)}
            ok = True
            for n in range(1, 4):
                for i in range(n + 1):
                    ok &= chis[n - 1] @ twisted.face(n, i) == plain.face(n, i) @ chis[n]
            for n in range(4):
                ok &= chis[n] @ twisted.cyclic(n) == plain.cyclic(n) @ chis[n]
                for i in range(n + 1):
                    ok &= (
                        chis[n + 1] @ twisted.degeneracy(n, i)
                        == plain.degeneracy(n, i) @ chis[n]
                    )
            check(failures, ok, f"chi conjugation identities m={m} s={s} a={a}")
            for n in range(4):
                check(
                    failures,
                    connes_lambda_hc(twisted, n).free_rank
                    == connes_lambda_hc(plain, n).free_rank,
                    f"HC^(pi,alpha,alpha) != HC^(pi,eps,eps) at m={m} s={s} a={a} deg {n}",
                )
    conclude(4, "twisted characters: vanishing and chi conjugation", failures)


def test_acceptance_5_skoldberg_suite():
    failures = []
    cases = [(Quiver.crown(c), n) for c in (2, 3) for n in (2, 3)]
    cases += [(Quiver.crown(1), 2), (Quiver.crown(1), 3)]
    for quiver, n in cases:
        tag = f"{quiver.num_vertices}-crown n={n}"
        A = truncated_algebra(quiver, n, QQ)
        report = skoldberg_resolution(A, 5)
        check(
            failures,
            report["d_squared_zero"] and report["grade_preserving"] and report["exact"],
            f"{tag}: resolution report {report['d_squared_zero']}/"
            f"{report['grade_preserving']}/{report['exact']}",
        )
        bar = hochschild_window(ClassicalCyclicModule(A.algebra), 4)
        AZ = truncated_algebra(quiver, n, ZZ)
        for p in range(4):
            total, per_grade = hh_via_skoldberg(A, p)
            check(
                failures,
                total.free_rank == bar.homology(p).free_rank,
                f"{tag}: bar oracle disagrees at p={p}",
            )
            totalZ, per_gradeZ = hh_via_skoldberg(AZ, p)
            for ring, per in ((QQ, per_grade), (ZZ, per_gradeZ)):
                for q in range(0, n * (p // 2 + 2) + 2):
                    closed = hh_closed_form(quiver, n, p, q, ring)
                    got = per.get(q)
                    ok = closed.is_zero if got is None else same_module(got, closed)
                    check(failures, ok, f"{tag}: closed form p={p} q={q} over {ring}")
    # quoted example values for the Taft underlying algebra Lambda_n
    for n in (2, 3):
        crown = Quiver.crown(n)
        check(
            failures,
            hh_closed_form(crown, n, 0, 0, QQ).free_rank == n,
            f"HH_(0,0)(Lambda_{n}) != k^{n}",
        )
        for c in (1, 2):
            for p in (2 * c, 2 * c - 1):
                check(
                    failures,
                    hh_closed_form(crown, n, p, c * n, QQ).free_rank == n - 1,
                    f"HH_({p},{c * n})(Lambda_{n}) != k^{n - 1}",
                )
    conclude(5, "small resolution vs bar complex and closed Hochschild forms", failures)


def test_acceptance_6_hc_of_truncated_algebras():
    failures = []
    expected = {
        (1, 2): [2, 0, 2, 0, 2, 0],
        (1, 3): [3, 0, 3, 0, 3, 0],
        (2, 2): [2, 1, 2, 1, 2, 1],
        (2, 3): [3, 0, 3, 0, 3, 0],
        (3, 2): [3, 0, 4, 0, 3, 0],
        (3, 3): [3, 2, 3, 2, 3, 2],
    }
    for (c, n), want in expected.items():
        quiver = Quiver.crown(c)
        A = truncated_algebra(quiver, n, QQ)
        dims = graded_sbi_hc(A, 5)
        closed = [hc_closed_form_truncated(quiver, n, p, QQ) for p in range(6)]
        check(failures, dims == closed == want, f"{c}-crown n={n}: {dims} vs {closed} vs {want}")
    # independent engine: the cyclic bicomplex of the classical module of Lambda_2
    A2 = truncated_algebra(Quiver.crown(2), 2, QQ)
    classical = ClassicalCyclicModule(A2.algebra)
    bic = [cyclic_bicomplex_hc(classical, p).free_rank for p in range(4)]
    check(failures, bic == [2, 1, 2, 1], f"bicomplex HC of Lambda_2 = {bic}")
    conclude(6, "graded SBI equals closed HC and the bicomplex on truncations", failures)


def test_acceptance_7_taft_cm_homology():
    failures = []
    for n, top in ((2, 4), (3, 3)):
        hopf = taft_hopf(n)
        for (i, u, v) in taft_cm_triples(n):
            module = taft_cm_module(hopf, i, u, v)
            for p in range(top + 1):
                computed = connes_lambda_hc(module, p).free_rank
                closed = taft_cm_closed_form(n, i, u, v, p)
                check(
                    failures,
                    computed == closed,
                    f"Taft {n} ({i},{u},{v}) deg {p}: {computed} vs {closed}",
                )
    conclude(7, "twisted cyclic homology of Taft algebras", failures)


def test_acceptance_8_edge_truncations():
    failures = []
    out = path_algebra_hh(Quiver.crown(1), 4, QQ)
    check(
        failures,
        [out["hh0"][q].free_rank for q in range(5)] == [1, 1, 1, 1, 1]
        and [out["hh1"][q].free_rank for q in range(5)] == [0, 1, 1, 1, 1],
        "path algebra of the one-loop",
    )
    out = path_algebra_hh(Quiver.crown(2), 4, QQ)
    check(
        failures,
        [out["hh0"][q].free_rank for q in range(5)] == [2, 0, 1, 0, 1]
        and [out["hh1"][q].free_rank for q in range(5)] == [0, 0, 1, 0, 1],
        "path algebra of the 2-crown",
    )
    for v in (2, 3):
        # k^v, the truncation at 1: HH and HC on its chains relative to
        # E = k^v, and Tor over k^v from the b-complex of two vertex characters
        A = truncated_algebra(Quiver.crown(v), 1, QQ)
        module = ClassicalCyclicModule(A.algebra)
        check(
            failures,
            [h.free_rank for h in hochschild_homology_upto(module, 4)] == [v, 0, 0, 0, 0]
            and [h.free_rank for h in cyclic_bicomplex_hc_upto(module, 4)] == [v, 0, v, 0, v],
            f"semisimple case on {v} vertices, HH and HC",
        )
        check(
            failures,
            [h.free_rank for h in vertex_bar_homology(A, 0, v - 1, 4)] == [0, 0, 0, 0, 0],
            f"semisimple case on {v} vertices, distinct characters",
        )
        check(
            failures,
            [h.free_rank for h in vertex_bar_homology(A, 0, 0, 2)] == [1, 0, 0],
            f"semisimple case on {v} vertices, equal characters",
        )
    conclude(8, "untruncated and semisimple edge cases", failures)


def test_acceptance_9_sbi_consistency():
    failures = []
    hopf = taft_hopf(2)
    for (i, u, v) in ((1, 0, 0), (0, 1, 0)):
        rep = sbi_check(taft_cm_module(hopf, i, u, v), 4)
        check(failures, rep.consistent, f"Lambda_2 triple ({i},{u},{v}): {rep.reason}")
    for pi in (0, 1):
        rep = sbi_check(cm_group_module(FiniteGroup.cyclic(2), pi, QQ), 4)
        check(failures, rep.consistent, f"Q[Z/2] pi={pi}: {rep.reason}")
    conclude(9, "SBI rank bookkeeping is consistent", failures)
