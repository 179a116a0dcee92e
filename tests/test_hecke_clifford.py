import re
from fractions import Fraction

import pytest

from queerdual.coord_alg import phi_component_rep, zero_weight_iso
from queerdual.duality import FixtureModule, fixture_module
from queerdual import hecke_clifford
from queerdual.scalars import ONE, P, QINV, XI, Q, RatFunc
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
from queerdual.uq_queer import PARAM_Q, PARAM_QINV, sigma_twist, tensor_rep, vector_rep, weight_spaces

from oracles import (
    assert_bound_covers, braid_triple_product, decide_in_qq, hc_tensor_action_reference, recording_relation_bounds,
)
from test_uq_queer import raises_the_point


def test_tensor_action_worked_entries():
    hc = hc_tensor_action(2, 2)
    # C_1(v_1 (x) v_2) = v_{-1} (x) v_2 (sign exponent |i_1| = 0)
    assert hc.c(1).apply({(1, 2): ONE}) == {(-1, 2): ONE}
    # T_1(v_1 (x) v_1) = q v_1 v_1 + xi v_{-1} v_{-1}
    assert hc.t(1).apply({(1, 1): ONE}) == {(1, 1): Q, (-1, -1): XI}
    # T_1(v_{-1} (x) v_{-1}) = -q^{-1} v_{-1} v_{-1}
    assert hc.t(1).apply({(-1, -1): ONE}) == {(-1, -1): -QINV}


@pytest.mark.parametrize("param", [PARAM_Q, PARAM_QINV])
@pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3) for m in (1, 2, 3, 4)])
def test_tensor_action_matches_the_per_word_reference(n, m, param):
    # entries in the same order too: a failure witness reads the first entry
    hc = hc_tensor_action(n, m, param)
    t_ref, c_ref = hc_tensor_action_reference(n, m, param)
    for op, ref in zip(hc.generators(), t_ref + c_ref, strict=True):
        assert list(op.entries.items()) == list(ref.entries.items())
        assert op.par == ref.par and op.dom == ref.dom


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


def _braid_modules():
    """(name, module, braid indices): blocks with h = mu_a - mu_{a+1} from -3 to 3,
    both parameter conventions, the twist, phi-modules of rank 2 and 3 and the
    fixture.  The rank-3 phi-modules are taken in degree 2: phi(1,3,3) agrees
    too, but its component alone takes seconds to build."""
    return [
        ("V(2)^2", tensor_rep(vector_rep(2), 2), (1,)),
        ("V(2, q^-1)^2", tensor_rep(vector_rep(2, PARAM_QINV), 2), (1,)),
        ("V(3, q^-1)^2", tensor_rep(vector_rep(3, PARAM_QINV), 2), (1, 2)),
        ("V(3)^3", tensor_rep(vector_rep(3), 3), (1, 2)),
        ("sigma V(2)^2", sigma_twist(tensor_rep(vector_rep(2), 2)), (1,)),
        ("phi(2,2,2)", phi_component_rep(2, 2, 2)[0], (1,)),
        ("phi(1,3,2)", phi_component_rep(1, 3, 2)[0], (1, 2)),
        ("phi(2,3,2)", phi_component_rep(2, 3, 2)[0], (1, 2)),
        ("fixture", FixtureModule(), (1,)),
    ]


def test_braid_operator_matches_the_triple_product():
    # T_a built one weight space at a time, on the j = i + k + h terms alone,
    # equals the divided-power sum over every (i, j, k) on the whole module,
    # as a whole and block by block
    hs = set()
    for name, rep, indices in _braid_modules():
        blocks = hecke_clifford._weight_blocks(rep)
        for a in indices:
            T = braid_operator(rep, a)
            oracle = braid_triple_product(rep, a)
            assert not T.is_zero() and T == oracle, (name, a)
            for mu, labels in blocks.items():
                block = hecke_clifford._braid_block(rep, a, blocks, mu)
                keep = set(labels)
                assert block == {rc: v for rc, v in oracle.entries.items() if rc[1] in keep}, (name, a, mu)
                hs.add(mu[a - 1] - mu[a])
    assert hs == set(range(-3, 4))


def _planted_leak():
    """V(2)^2 with the entry of e_1 from (-1,-2), of weight (1,1), to (-1,-1),
    of weight (2,0), moved to (1,2), of weight (1,1).  Returns the module, as
    a table of Chevalley operators over the weight spaces of V(2)^2, and the
    labels outside V_(1,1) that T_1 then reaches from the zero weight block:
    the image of (1,2) under f_1, through the term f^(1) e^(1)."""
    rep = tensor_rep(vector_rep(2), 2)
    blocks = weight_spaces(rep)
    ch = dict(rep.chevalley())
    e = ch[("e", 1)]
    entries = dict(e.entries)
    entries[((1, 2), (-1, -2))] = entries.pop(((-1, -1), (-1, -2)))
    ch[("e", 1)] = SOp(rep.space, rep.space, e.par, entries)

    class Planted:
        space, param, spec = rep.space, rep.param, rep.spec

        def chevalley(self):
            return ch

        def weight_blocks(self):
            return blocks

    return Planted(), [r for r, _ in ch[("f", 1)].column((1, 2))]


def test_a_braid_block_raises_on_a_row_of_another_weight():
    rep, leaked = _planted_leak()
    assert leaked and not set(leaked) & set(rep.weight_blocks()[(1, 1)])
    with pytest.raises(ValueError, match="leaks from weight") as raised:
        zero_weight_hc(rep)
    assert all(repr(r) in str(raised.value) for r in leaked)
    # on the block of weight (0,2), e_1 now also maps (1,1) into (1,1), so
    # its chain outlasts the three weights: that raises too, and does not loop
    with pytest.raises(ValueError, match="do not vanish"):
        braid_operator(rep, 1)


def test_a_braid_index_beyond_the_rank_raises():
    for rep in (tensor_rep(vector_rep(1), 2), tensor_rep(vector_rep(2), 2)):
        with pytest.raises(ValueError, match="braid index .* needs rank"):
            braid_operator(rep, rep.spec.n)


def test_zero_weight_hc_builds_no_product_on_the_whole_component(monkeypatch):
    # each braid chain starts from the columns of the zero weight block, so no
    # product has the whole component's columns as its right factor
    rep = phi_component_rep(2, 2, 2)[0]
    rep.chevalley()
    doms = []
    matmul = SOp.__matmul__

    def recording(self, other):
        doms.append(other.dom)
        return matmul(self, other)

    monkeypatch.setattr(SOp, "__matmul__", recording)
    zw = zero_weight_hc(rep)
    assert doms and all(dom == zw.space for dom in doms)
    assert rep.space.dim > zw.space.dim


def test_fixture_module_builds_its_braid_block_once(monkeypatch):
    calls = []
    block = hecke_clifford._braid_block

    def recording(rep, a, blocks, mu):
        calls.append((type(rep).__name__, a, mu))
        return block(rep, a, blocks, mu)

    monkeypatch.setattr(hecke_clifford, "_braid_block", recording)
    assert fixture_module()[1].ok
    assert calls == [("FixtureModule", 1, (1, 1))]


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


# -- the Kronecker point of hc_check ------------------------------------------

def hc_check_in_qq(action, qq=None):
    """hc_check with every instance decided in Q(q), on its two sides built as
    operators (``oracles.decide_in_qq``)."""
    with pytest.MonkeyPatch.context() as mp:
        decide_in_qq(mp)
        return hc_check(action, qq)


def _verdicts(report):
    return [(c.name, c.status, c.witness) for c in report.checks], report.derived_values["clifford_square"]


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4)])
def test_hc_kronecker_verdicts_match_qq_on_passing_actions(n, m):
    action = hc_tensor_action(n, m)
    report = hc_check(action)
    assert report.ok and report.derived_values["exact_point"].endswith(" in Z")
    assert _verdicts(report) == _verdicts(hc_check_in_qq(action))


def _hc_defective(n, m, kind, index, factor):
    hc = hc_tensor_action(n, m)
    ops = hc.t_ops if kind == "T" else hc.c_ops
    ops[index] = ops[index].scale(factor)
    return hc


def _hc_defects():
    # (n, m, generator family, index, factor, name): the name is the field the
    # case once ran in, before exact points were integers
    return [
        (2, 2, "C", 0, Q, "GF(2^521 - 1)"),
        (2, 2, "T", 0, Q, "GF(2^521 - 1)"),
        (2, 3, "T", 1, Q, "GF(2^521 - 1)"),
        (2, 2, "T", 0, (Q + 2).inverse(), "GF(2^521 - 1)"),
        (1, 3, "C", 2, (Q + 2).inverse(), "GF(2^521 - 1)"),
        (2, 2, "C", 0, RatFunc(1 + 2**20), "GF(2^607 - 1)"),
        (2, 2, "T", 0, RatFunc(1 + 2**20), "Q(q)"),
        (2, 2, "C", 1, RatFunc(1 + P), "Q(q)"),
    ]


@pytest.mark.parametrize("n,m,kind,index,factor,name", _hc_defects())
def test_hc_kronecker_verdicts_match_qq_on_defects(n, m, kind, index, factor, name):
    bad = _hc_defective(n, m, kind, index, factor)
    report = hc_check(bad)
    assert not report.ok and report.derived_values["exact_point"].endswith(" in Z")
    assert raises_the_point(report, hc_check(hc_tensor_action(n, m)), factor)
    assert _verdicts(report) == _verdicts(hc_check_in_qq(bad))


def _hc_differences(action, qq):
    """Every entry of lhs - rhs of every instance hc_check tests, in Q(q), for
    both signs of the Clifford square."""
    m, t, c = action.spec.m, action.t, action.c
    ident = SOp.identity(action.space)
    diffs = [t(a) @ t(a) + t(a).scale(qq.inverse() - qq) - ident for a in range(1, m)]
    diffs += [t(a) @ t(a + 1) @ t(a) - t(a + 1) @ t(a) @ t(a + 1) for a in range(1, m - 1)]
    diffs += [t(a) @ t(b) - t(b) @ t(a) for a in range(1, m) for b in range(a + 2, m)]
    diffs += [c(b) @ c(b) - ident.scale(eps) for b in range(1, m + 1) for eps in (1, -1)]
    diffs += [c(a) @ c(b) + c(b) @ c(a) for a in range(1, m + 1) for b in range(a + 1, m + 1)]
    diffs += [t(a) @ c(a) - c(a + 1) @ t(a) for a in range(1, m)]
    diffs += [t(a) @ c(b) - c(b) @ t(a) for a in range(1, m) for b in range(1, m + 1)]
    return [v for d in diffs for v in d.entries.values()]


@pytest.mark.parametrize("n,m,kind,index,factor", [
    (2, 3, "T", 0, ONE), (2, 3, "T", 1, Q), (2, 3, "C", 0, (Q + 2).inverse()), (1, 4, "T", 2, (Q + 2).inverse()),
])
def test_hc_height_bound_covers_exact_differences(n, m, kind, index, factor, monkeypatch):
    # P_f = q^-LO f M^3 has 1-norm at most H < X = 2^B and degree at most D,
    # for the one bound hc_check takes from its instances
    action = _hc_defective(n, m, kind, index, factor)
    bounds = recording_relation_bounds(monkeypatch, hecke_clifford)
    hc_check(action)
    ((values, bound),) = bounds
    assert_bound_covers(values, bound, [f for f in _hc_differences(action, Q) if f], 3)


def test_hc_check_at_the_point_does_no_ratfunc_products(monkeypatch):
    action = hc_tensor_action(2, 4)
    calls = []
    mul = RatFunc.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(RatFunc, "__mul__", counting)
    monkeypatch.setattr(RatFunc, "__rmul__", counting)
    report = hc_check(action)
    assert report.ok and report.derived_values["exact_point"].startswith("q = 2^")
    assert calls == []


def _zero_weight_actions():
    fix, _ = fixture_module()
    out = [("fixture", zero_weight_hc(fix)), ("V(2)^2", zero_weight_hc(tensor_rep(vector_rep(2), 2)))]
    for n, m in [(1, 2), (2, 2)]:
        out.append((f"phi({n},{m})", zero_weight_hc(phi_component_rep(n, m, m)[0])))
    return out


def test_zero_weight_hc_verdicts_match_qq():
    # rational braid entries: every zero-weight action keeps its verdicts, the
    # failing q-parameter check (zw_hc_q_param_passes) included
    for name, zw in _zero_weight_actions():
        for qq in (None, Q):
            report = hc_check(zw, qq)
            assert report.derived_values["exact_point"].startswith("q = 2^"), name
            assert _verdicts(report) == _verdicts(hc_check_in_qq(zw, qq)), (name, qq)


def test_zero_weight_reports_keep_their_verdicts():
    def run():
        return [fixture_module()[1].to_dict(), zero_weight_iso(2, 2).to_dict()]

    def strip(report):
        return {k: v for k, v in report.items() if k != "elapsed_ms"}

    at_point = run()
    with pytest.MonkeyPatch.context() as mp:
        decide_in_qq(mp)
        in_qq = run()
    assert [strip(r) for r in at_point] == [strip(r) for r in in_qq]
    assert at_point[0]["derived_values"]["zw_hc_q_param_passes"] is False
    assert at_point[1]["derived_values"]["zw_hc_q_param_passes"] is False
