"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact arithmetic; the stated wall-clock budgets are asserted.
Criterion 11's optional degree-3 component runs when QUEERDUAL_HOWE_L3=1.
"""

import os
import time

import pytest

from queerdual.scalars import ONE, QINV, Q
from queerdual.superlinalg import supercommutator
from queerdual.uq_queer import (
    chevalley_ops,
    check_defining_relations,
    tensor_rep,
    vector_rep,
)
from queerdual.hecke_clifford import (
    HCAction,
    HCSpec,
    braid_operator,
    hc_check,
    hc_tensor_action,
    zero_weight_hc,
)
from queerdual.coord_alg import qca_report, zero_weight_iso
from queerdual.duality import (
    classical_crosscheck,
    enumerate_strict_partitions,
    fixture_module,
    howe_verify,
    isotypic_census,
    load_expectations,
    pad_weight,
    sergeev_verify,
)

from oracles import vector_action_table

RELATION_CONFIGS = [(1, 4), (2, 3), (3, 2)]


def _emit(num, name, ok, elapsed, budget=None):
    stamp = f"{elapsed:.1f}s" + (f" (budget {budget}s)" if budget else "")
    print(f"ACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {name} -- {stamp}")
    assert ok, f"criterion {num} ({name}) failed"
    if budget is not None:
        assert elapsed <= budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.1f}s"


def test_01_relation_soundness():
    t0 = time.monotonic()
    ok = True
    for n, m_max in RELATION_CONFIGS:
        rep = vector_rep(n)
        for m in range(1, m_max + 1):
            powered = tensor_rep(rep, m) if m > 1 else rep
            ok = ok and check_defining_relations(powered).ok
    exact_elapsed = time.monotonic() - t0
    t0 = time.monotonic()
    for n, m_max in RELATION_CONFIGS:
        rep = tensor_rep(vector_rep(n), m_max)
        ok = ok and check_defining_relations(rep, mode="prob", trials=5, seed=0).ok
    prob_elapsed = time.monotonic() - t0
    _emit(1, "relation soundness (exact)", ok, exact_elapsed, budget=120)
    _emit(1, "relation soundness (probabilistic, 5 trials)", ok, prob_elapsed, budget=10)


def test_02_chevalley_table_fidelity():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3):
        ch = chevalley_ops(vector_rep(n))
        table = vector_action_table(n)
        ok = ok and all(ch[name] == table[name] for name in table)
    _emit(2, "Chevalley-table fidelity (n <= 3, e_j scalar -xi^{-1})", ok, time.monotonic() - t0, budget=1)


def test_03_hc_presentation():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2):
        for m in (2, 3, 4):
            report = hc_check(hc_tensor_action(n, m))
            ok = ok and report.ok and report.derived_values["clifford_square"] == -1
    _emit(3, "HC presentation on tensor space (n <= 2, m <= 4)", ok, time.monotonic() - t0, budget=60)


def test_04_supercommutation():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2):
        for m in (1, 2, 3):
            rep = tensor_rep(vector_rep(n), m)
            hc = hc_tensor_action(n, m)
            for x in rep.chevalley().values():
                for h in hc.generators():
                    ok = ok and supercommutator(x, h).is_zero()
    _emit(4, "graded commutators of queer x HC generators vanish", ok, time.monotonic() - t0)


def test_05_mutual_centralizer():
    t0 = time.monotonic()
    expected = load_expectations()
    ok = True
    for (n, m) in [(1, 1), (1, 2), (2, 2)]:
        report = sergeev_verify(n, m)
        ok = ok and report.ok
        frozen = expected["sergeev"][f"{n},{m}"]
        for key, value in frozen.items():
            ok = ok and report.derived_values.get(key) == value
    _emit(5, "mutual centralizer with frozen dimensions", ok, time.monotonic() - t0)


def test_06_census():
    t0 = time.monotonic()
    ok = True
    for n in (1, 2):
        for m in (1, 2, 3):
            census, report = isotypic_census(n, m)
            ok = ok and report.ok and census.closes
            expected = {pad_weight(lam, n) for lam in enumerate_strict_partitions(m, n)}
            ok = ok and set(census.entries) == expected
            ok = ok and census.total_dim == (2 * n) ** m
    _emit(6, "HWV weights = strict partitions; census closure", ok, time.monotonic() - t0)


def test_07_fixture():
    t0 = time.monotonic()
    fix, report = fixture_module()
    ok = report.ok
    braid = braid_operator(fix, 1)
    for lab, val in (("u1", -Q), ("bu1", -Q), ("w", QINV), ("bw", QINV)):
        ok = ok and braid.apply({lab: ONE}) == {lab: val}
    _emit(7, "fixture embeds exactly; braid eigenvalues -q and q^{-1}", ok, time.monotonic() - t0)


def test_08_zero_weight_hc():
    t0 = time.monotonic()
    fix, _ = fixture_module()
    ok = True
    for module in (fix, tensor_rep(vector_rep(2), 2)):
        zw = zero_weight_hc(module)
        ok = ok and zw.spec.param == "qinv" and hc_check(zw).ok
        ok = ok and not hc_check(HCAction(HCSpec(zw.spec.m, "q"), zw.space, zw.t_ops, zw.c_ops)).ok
    _emit(8, "zero-weight HC structure passes with the q^{-1} parameter", ok, time.monotonic() - t0)


def test_09_coordinate_relations():
    t0 = time.monotonic()
    report = qca_report(2)
    _emit(9, "exchange relations (all pairs; all 256 degree-2 entries)", report.ok, time.monotonic() - t0, budget=120)


def test_10_zero_weight_iso():
    t0 = time.monotonic()
    report = zero_weight_iso(2, 2)
    ok = report.ok
    # the matched parameter convention is recorded: q^{-1} passes, q does not
    ok = ok and report.derived_values["zw_hc_q_param_passes"] is False
    _emit(10, "zero-weight isomorphism rank + equivariance (param q^{-1})", ok, time.monotonic() - t0)


def test_11_howe_census():
    t0 = time.monotonic()
    ok = howe_verify(1, 1, 2).ok and howe_verify(2, 2, 2).ok
    _emit(11, "Howe graded dimensions (n=m=1 and n=m=2, l <= 2)", ok, time.monotonic() - t0)
    if os.environ.get("QUEERDUAL_HOWE_L3") == "1":
        t0 = time.monotonic()
        report = howe_verify(2, 2, 3)
        _emit(11, "Howe graded dimensions (n=m=2, l = 3, optional)", report.ok, time.monotonic() - t0, budget=600)


def test_12_classical_limit():
    t0 = time.monotonic()
    ok = all(classical_crosscheck(n, m).ok for (n, m) in [(1, 2), (2, 2), (2, 3)])
    _emit(12, "classical limit: signed swaps, degenerate relations, contents", ok, time.monotonic() - t0)
