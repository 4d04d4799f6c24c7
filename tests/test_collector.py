"""The homology engines run with the cyclic garbage collector paused: each
listed engine's own body runs with the collector off, the caller's state
comes back on return and on a typed refusal, and the paused calls leave no
cyclic garbage behind."""

import gc
import io
import sys
from inspect import unwrap

import pytest

from hopfcycl import (
    QQ,
    ZZ,
    ChainComplexWindow,
    FiniteGroup,
    HopfAlgebraData,
    PreconditionFailed,
    PrimeField,
    Quiver,
    RingWithoutRationals,
    burghelea_check,
    cm_group_module,
    coefficient_homology_skoldberg,
    connes_lambda_hc,
    cyclic_bicomplex_hc,
    cyclic_bicomplex_hc_upto,
    graded_sbi_hc,
    hh_via_skoldberg,
    hochschild_homology,
    hochschild_homology_upto,
    hochschild_window,
    path_algebra_hh,
    periodic_resolution_homology,
    sbi_check,
    skoldberg_resolution,
    taft_cm_homology,
    taft_cm_module,
    taft_cm_triples,
    taft_hopf,
    theta_chain_map_check,
    truncated_algebra,
    verify_cyclic_axioms,
)
from hopfcycl.cli import run


def group_module():
    return cm_group_module(FiniteGroup.cyclic(2), 1, QQ)


def crown():
    return truncated_algebra(Quiver.crown(2), 2, QQ)


# (engine, a call of it on a small input); every public engine that answers
# a query, and none of the builders
ENGINES = [
    (hochschild_homology, lambda: hochschild_homology(group_module(), 1)),
    (hochschild_homology_upto, lambda: hochschild_homology_upto(group_module(), 1)),
    (ChainComplexWindow.homology, lambda: hochschild_window(group_module(), 2).homology(1)),
    (cyclic_bicomplex_hc, lambda: cyclic_bicomplex_hc(group_module(), 1)),
    (cyclic_bicomplex_hc_upto, lambda: cyclic_bicomplex_hc_upto(group_module(), 1)),
    (connes_lambda_hc, lambda: connes_lambda_hc(group_module(), 1)),
    (verify_cyclic_axioms, lambda: verify_cyclic_axioms(group_module(), 1)),
    (sbi_check, lambda: sbi_check(group_module(), 1)),
    (skoldberg_resolution, lambda: skoldberg_resolution(crown(), 2)),
    (hh_via_skoldberg, lambda: hh_via_skoldberg(crown(), 1)),
    (coefficient_homology_skoldberg, lambda: coefficient_homology_skoldberg(crown(), 0, 1, 1)),
    (path_algebra_hh, lambda: path_algebra_hh(Quiver.crown(1), 2, QQ)),
    (graded_sbi_hc, lambda: graded_sbi_hc(crown(), 2)),
    (taft_cm_homology, lambda: taft_cm_homology(taft_hopf(2), *taft_cm_triples(2)[0], 1)),
    (theta_chain_map_check, lambda: theta_chain_map_check(FiniteGroup.cyclic(2), 1, 1, QQ)),
    (burghelea_check, lambda: burghelea_check(FiniteGroup.cyclic(2), QQ, 1)),
    (periodic_resolution_homology,
     lambda: periodic_resolution_homology(2, QQ, QQ.from_int(-1), QQ.one, 2)),
    (HopfAlgebraData.verify_axioms, lambda: taft_hopf(2).verify_axioms()),
    (run, lambda: run(["hh", "--group", "cyclic:2", "--max-degree", "1"], io.StringIO())),
]


def collector_states_on_entry(engine, call):
    """gc.isenabled() at each entry into the engine's own body during call()."""
    code, seen = unwrap(engine).__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            seen.append(gc.isenabled())

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return seen


@pytest.mark.parametrize("engine, call", ENGINES, ids=[e.__qualname__ for e, _ in ENGINES])
def test_each_engine_runs_with_the_collector_paused_and_restores_it(engine, call):
    assert gc.isenabled()
    assert collector_states_on_entry(engine, call) == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("engine, call", ENGINES[:3], ids=[e.__qualname__ for e, _ in ENGINES[:3]])
def test_a_caller_that_paused_the_collector_keeps_it_paused(engine, call):
    gc.disable()
    try:
        assert collector_states_on_entry(engine, call) == [False]
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_the_collector_comes_back_after_a_typed_refusal():
    module = cm_group_module(FiniteGroup.cyclic(2), 0, PrimeField(2))
    with pytest.raises(RingWithoutRationals):
        connes_lambda_hc(module, 1)
    assert gc.isenabled()
    inadmissible = taft_cm_module(taft_hopf(2), 1, 1, 1, require_valid=False)
    with pytest.raises(PreconditionFailed):
        connes_lambda_hc(inadmissible, 2)
    assert gc.isenabled()


def test_paused_engines_leave_no_cyclic_garbage():
    hopf2, hopf3 = taft_hopf(2), taft_hopf(3)
    taft = taft_cm_module(hopf2, *taft_cm_triples(2)[0])
    s3 = cm_group_module(FiniteGroup.symmetric(3), 0, QQ)
    z4 = cm_group_module(FiniteGroup.cyclic(4), 1, ZZ)
    A = truncated_algebra(Quiver.crown(2), 3, QQ)
    gc.collect()
    gc.disable()
    try:
        answers = [connes_lambda_hc(taft, n) for n in range(4)]
        answers.append(verify_cyclic_axioms(s3, 2))
        answers.append(cyclic_bicomplex_hc_upto(z4, 3))
        answers += [skoldberg_resolution(A, 3), hh_via_skoldberg(A, 3), graded_sbi_hc(A, 3)]
        answers.append(hopf3.verify_axioms())
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert answers[4] == {name: True for name in answers[4]}
