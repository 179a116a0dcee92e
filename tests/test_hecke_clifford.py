from fractions import Fraction

import pytest

from queerdual.scalars import ONE, QINV, XI, Q, ModP
from queerdual.superlinalg import SOp, index_parity, supercommutator
from queerdual.hecke_clifford import (
    EmptyZeroWeight,
    HCAction,
    HCSpec,
    braid_operator,
    hc_check,
    hc_tensor_action,
    zero_weight_hc,
)
from queerdual.uq_queer import tensor_rep, vector_rep, weight_spaces


def test_tensor_action_worked_entries():
    hc = hc_tensor_action(2, 2)
    # C_1(v_1 (x) v_2) = v_{-1} (x) v_2 (sign exponent |i_1| = 0)
    assert hc.c(1).apply({(1, 2): ONE}) == {(-1, 2): ONE}
    # T_1(v_1 (x) v_1) = q v_1 v_1 + xi v_{-1} v_{-1}
    assert hc.t(1).apply({(1, 1): ONE}) == {(1, 1): Q, (-1, -1): XI}
    # T_1(v_{-1} (x) v_{-1}) = -q^{-1} v_{-1} v_{-1}
    assert hc.t(1).apply({(-1, -1): ONE}) == {(-1, -1): -QINV}


@pytest.mark.parametrize("n,m", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_hc_relations(n, m):
    report = hc_check(hc_tensor_action(n, m))
    assert report.ok, [c.to_dict() for c in report.failures()]
    assert report.derived_values["clifford_square"] == -1


def test_hc_relations_qinv():
    assert hc_check(hc_tensor_action(2, 3, "qinv")).ok


def test_planted_defect():
    bad = hc_tensor_action(2, 2)
    bad.c_ops[0] = bad.c_ops[0].scale(Q)
    report = hc_check(bad)
    assert not report.ok
    assert any(c.name == "hc4" and c.status == "fail" for c in report.checks)
    wit = next(c for c in report.checks if c.status == "fail")
    assert wit.witness is not None


def test_passing_hc_check_builds_no_difference(sop_sub_calls):
    # each relation compares its two sides; the difference is built only for a witness
    assert hc_check(hc_tensor_action(2, 3)).ok
    assert sop_sub_calls == []


def test_hc_witnesses_are_pinned():
    bad = hc_tensor_action(2, 2)
    bad.c_ops[0] = bad.c_ops[0].scale(Q)
    bad.t_ops[0] = bad.t_ops[0].scale(Q)
    fails = [(c.name, c.witness["basis_vector"]) for c in hc_check(bad).failures()]
    assert fails == [("hc1", "(-2, -2)"), ("hc4", "(-2, -2)"), ("hc6", "(-2, -2)")]


def test_supercommutation_with_queer_action():
    for (n, m) in [(1, 2), (2, 2), (2, 3)]:
        rep = tensor_rep(vector_rep(n), m)
        hc = hc_tensor_action(n, m)
        for name, x in rep.chevalley().items():
            for h in hc.generators():
                assert supercommutator(x, h).is_zero(), (n, m, name)


def test_braid_weight_support():
    # T_a maps M_mu to M_{s_a mu}; on mu_a = mu_{a+1} it preserves the block
    rep = tensor_rep(vector_rep(2), 2)
    T = braid_operator(rep, 1)
    pos = {lab: mu for mu, labs in weight_spaces(rep).items() for lab in labs}
    for (r, c) in T.entries:
        mu = pos[c]
        assert pos[r] == (mu[1], mu[0])
    # weight preservation on the zero weight block: k_a T_a = T_a k_a there
    ch = rep.chevalley()
    zero = [lab for lab, mu in pos.items() if mu == (1, 1)]
    for lab in zero:
        lhs = ch[("k", 1)].apply(T.apply({lab: ONE}))
        rhs = T.apply(ch[("k", 1)].apply({lab: ONE}))
        assert lhs == rhs


def test_zero_weight_hc_v22():
    rep = tensor_rep(vector_rep(2), 2)
    zw = zero_weight_hc(rep)
    assert zw.spec.param == "qinv"
    assert zw.space.dim == 8
    report = hc_check(zw)
    assert report.ok
    assert report.derived_values["clifford_square"] == 1
    # C_b^2 = id there (the kbar-square identity evaluates to 1 on weight q)
    ident = SOp.identity(zw.space)
    for b in (1, 2):
        assert (zw.c(b) @ zw.c(b)) == ident
    # the q parameter fails: the q^{-1} convention is the one that holds
    assert not hc_check(HCAction(HCSpec(2, "q"), zw.space, zw.t_ops, zw.c_ops)).ok


def test_zero_weight_empty():
    rep = tensor_rep(vector_rep(2), 1)  # no weight (1,1) in V
    with pytest.raises(EmptyZeroWeight):
        zero_weight_hc(rep)


def test_classical_specialization():
    hc = hc_tensor_action(2, 2)
    T1 = hc.t(1).specialize(1)
    for w in T1.dom.labels:
        i, j = w
        sign = -1 if (index_parity(i) and index_parity(j)) else 1
        assert T1.entry((j, i), w) == (ONE if sign > 0 else -ONE)
    assert len(T1.entries) == 16
    ident = SOp.identity(T1.dom)
    assert ((T1 - ident) @ (T1 + ident)).is_zero()


def test_hc_check_at_a_given_q():
    hc = hc_tensor_action(2, 3)
    t1, c1 = [op.specialize(1) for op in hc.t_ops], [op.specialize(1) for op in hc.c_ops]
    hc1 = HCAction(hc.spec, hc.space, t1, c1)
    assert hc_check(hc1, ONE).ok
    # with the default q' = q, hc1 fails on the q = 1 action and every other family still holds
    report = hc_check(hc1)
    assert {c.name for c in report.failures()} == {"hc1"}


def test_hc_check_over_gf_p():
    # the action mapped into GF(p) at a point checks with q' = q mod p there
    point = 12345
    hc = hc_tensor_action(2, 3)

    def at_point(ops):
        return [op.map(lambda v: v.mod_p(point)) for op in ops]

    qq = Q.mod_p(point)
    report = hc_check(HCAction(hc.spec, hc.space, at_point(hc.t_ops), at_point(hc.c_ops)), qq)
    assert report.ok and report.derived_values["clifford_square"] == -1
    bad = HCAction(hc.spec, hc.space, at_point(hc.t_ops), at_point(hc.c_ops))
    bad.c_ops[0] = bad.c_ops[0].scale(ModP(2))
    assert {c.name for c in hc_check(bad, qq).failures()} == {"hc4", "hc6"}
