import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from queerdual import scalars, uq_queer
from queerdual.scalars import ONE, P, QINV, RatFunc, XI, Q, ZERO, EvalPoint, PoleAtPoint, kronecker_point, sample_mod_p
from queerdual.duality import enumerate_strict_partitions
from queerdual.superlinalg import (
    POINT,
    Echelon,
    SOp,
    SuperSpace,
    flatten_vector,
    graded_tensor,
    index_range,
    joint_kernel,
    kernel_basis,
    relation_bound,
    span_dim,
    supercommutator,
    tensor_space,
    unflatten_vector,
)
from queerdual.hecke_clifford import HCSpec, hc_tensor_action
from queerdual.uq_queer import (
    PARAM_Q,
    PARAM_QINV,
    AlgebraSpec,
    _op_inverse,
    NonInvertibleDiagonal,
    QueerRep,
    antipode_images,
    check_defining_relations,
    chevalley_ops,
    classical_limit,
    dual_rep,
    generate_submodule,
    generator_pairs,
    highest_weight_vectors,
    is_dominant_weight,
    phi,
    raising_operators,
    s_matrix,
    sigma_twist,
    tensor_product_rep,
    tensor_rep,
    vector_rep,
    weight_spaces,
)

from oracles import (
    assert_bound_covers,
    decide_in_qq,
    frac_rank,
    omega_map,
    point_bits,
    recording_relation_bounds,
    relation_sides,
    tensor_power_fold,
    tensor_product_reference,
    vector_action_table,
    vectors_rows,
)


# -- S-matrix ---------------------------------------------------------------

def test_s_matrix_diagonal_values():
    S = s_matrix(1)
    # phi(1,1) = 1 and phi(-1,-1) = -1
    assert S.entry((1, 1), (1, 1)) == Q
    assert S.entry((-1, -1), (-1, -1)) == QINV
    assert phi(1, 1) == 1 and phi(-1, -1) == -1 and phi(1, 2) == 0 and phi(1, -1) == -1


def test_s_matrix_off_diagonal_block():
    # the (i,j) = (1,2) slot contributes xi (E_21 + E_{-2,-1}) (x) E_12
    S = s_matrix(2)
    assert S.entry((2, 1), (1, 2)) == XI
    assert S.entry((-2, 1), (-1, 2)) == XI
    # param flips q -> q^{-1}
    Sq = s_matrix(2, "qinv")
    assert Sq.entry((2, 1), (1, 2)) == -XI


def test_s_matrix_vs_braid_composition():
    # graded swap composed with S gives the displayed Hecke operator
    from queerdual.hecke_clifford import hc_tensor_action
    from queerdual.superlinalg import index_parity

    for n in (1, 2):
        S = s_matrix(n)
        W = S.dom
        swap = {}
        for (i, j) in [(a, b) for a in index_range(n) for b in index_range(n)]:
            s = -1 if (index_parity(i) and index_parity(j)) else 1
            swap[((j, i), (i, j))] = RatFunc(s)
        P = SOp(W, W, 0, swap)
        assert (P @ S) == hc_tensor_action(n, 2).t(1)


# -- vector representation and the action table ------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_chevalley_table_fidelity(n):
    ch = chevalley_ops(vector_rep(n))
    table = vector_action_table(n)
    for name, expected in table.items():
        assert ch[name] == expected, name


def test_table_rows_quoted():
    ch = chevalley_ops(vector_rep(2))
    # k_1 v_2 = v_2, kbar_1 v_1 = v_{-1}, ebar_1 v_2 = v_{-1}, f_1 v_1 = v_2
    assert ch[("k", 1)].apply({(2,): ONE}) == {(2,): ONE}
    assert ch[("kbar", 1)].apply({(1,): ONE}) == {(-1,): ONE}
    assert ch[("ebar", 1)].apply({(2,): ONE}) == {(-1,): ONE}
    assert ch[("f", 1)].apply({(1,): ONE}) == {(2,): ONE}
    assert ch[("e", 1)].apply({(1,): ONE}) == {}


def test_e_scalar_discrepancy_is_real():
    # with the -xi normalization in place of -xi^{-1}, the table fails by xi^2
    rep = vector_rep(2)
    bad_e = (rep.act(2, 2) @ rep.act(-2, -1)).scale(-XI)
    good = vector_action_table(2)[("e", 1)]
    assert bad_e != good
    assert bad_e == good.scale(XI * XI)


@pytest.mark.parametrize("cls,args", [(AlgebraSpec, (0,)), (AlgebraSpec, (1, "x")), (HCSpec, (0,))])
def test_specs_reject_a_bad_rank_or_param(cls, args):
    with pytest.raises(ValueError):
        cls(*args)


@pytest.mark.parametrize("cls,rank", [(AlgebraSpec, "n"), (HCSpec, "m")])
def test_specs_compare_and_hash_by_rank_and_param(cls, rank):
    spec = cls(2, PARAM_QINV)
    assert spec == cls(2, PARAM_QINV) and hash(spec) == hash(cls(2, PARAM_QINV))
    assert cls(2) == cls(2, PARAM_Q) and hash(cls(2)) == hash(cls(2, PARAM_Q))
    assert spec != cls(3, PARAM_QINV) and spec != cls(2, PARAM_Q)
    assert AlgebraSpec(2) != HCSpec(2)
    assert repr(spec) == f"{cls.__name__}({rank}=2, param='qinv')"


def test_vector_rep_is_one_representation_per_spec():
    assert vector_rep(2) is vector_rep(2, "q")
    assert vector_rep(2, PARAM_QINV) is not vector_rep(2)


def test_vector_rep_qinv_table():
    ch = chevalley_ops(vector_rep(2, "qinv"))
    table = vector_action_table(2, "qinv")
    for name, expected in table.items():
        assert ch[name] == expected
    assert ch[("k", 1)].entry((1,), (1,)) == QINV


# -- defining relations -------------------------------------------------------

@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_relations_exact(n, m):
    rep = tensor_rep(vector_rep(n), m)
    assert check_defining_relations(rep).ok


def test_relations_planted_defect():
    rep = vector_rep(1)
    bad = dict(rep.gen)
    bad[(1, 1)] = bad[(1, 1)].scale(Q)
    report = check_defining_relations(QueerRep(AlgebraSpec(1), rep.space, bad))
    assert not report.ok
    names = {c.name for c in report.failures()}
    assert "unit_relations" in names


def test_relations_probabilistic_deterministic():
    rep = tensor_rep(vector_rep(2), 2)
    r1 = check_defining_relations(rep, mode="prob", trials=3, seed=11)
    r2 = check_defining_relations(rep, mode="prob", trials=3, seed=11)
    assert r1.ok and r2.ok
    assert r1.derived_values["trial_points"] == r2.derived_values["trial_points"]


def _defective(n, m, key, factor):
    rep = tensor_rep(vector_rep(n), m)
    bad = dict(rep.gen)
    bad[key] = bad[key].scale(factor)
    return QueerRep(rep.spec, rep.space, bad)


@pytest.mark.parametrize("seed", range(5))
def test_relations_prob_rejects_planted_defect(seed):
    bad = _defective(2, 2, (1, 2), Q)
    assert not check_defining_relations(bad).ok
    report = check_defining_relations(bad, mode="prob", trials=1, seed=seed)
    assert [c.name for c in report.failures()] == [
        f"@q={report.derived_values['trial_points'][0]}:quadratic_relations"
    ]


def test_relations_prob_bound_recorded():
    report = check_defining_relations(tensor_rep(vector_rep(2), 3), mode="prob", trials=2, seed=4)
    assert report.ok and "prob_fallback" not in report.derived_values
    bound = Fraction(report.derived_values["false_match_bound"])
    assert 0 < bound < Fraction(1, 10**24)
    assert len(report.derived_values["trial_points"]) == 2


def _exact_differences(rep):
    """Every entry of prod - 1 (unit relations) and lhs - rhs (quadratic ones) in Q(q)."""
    from queerdual.uq_queer import param_q, param_xi

    n = rep.spec.n
    qq, xi = param_q(rep.param), param_xi(rep.param)
    ident = SOp.identity(rep.space)
    diffs = [rep.gen[(i, i)] @ rep.gen[(-i, -i)] - ident for i in index_range(n)]
    for (i, j) in generator_pairs(n):
        for (k, l) in generator_pairs(n):
            lhs, rhs = relation_sides(rep.gen, i, j, k, l, qq, xi)
            diffs.append(lhs - rhs)
    return [v for d in diffs for v in d.entries.values()]


@pytest.mark.parametrize("factor", [Q, (Q + 2).inverse()])
def test_relations_prob_degree_bound_covers_exact_differences(factor):
    bad = _defective(2, 2, (1, 2), factor)
    degree = check_defining_relations(bad, mode="prob", trials=1).derived_values["degree_bound"]
    true_degrees = [len(v.num) - 1 for v in _exact_differences(bad)]
    assert true_degrees and max(true_degrees) <= degree


class _SizeLog(dict):
    """A product cache that records how often it is filled and its largest size."""

    def __init__(self):
        super().__init__()
        self.filled = 0
        self.peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.filled += 1
        self.peak = max(self.peak, len(self))


def test_quadratic_witness_drops_each_product_after_its_last_use():
    from queerdual.uq_queer import _quadratic_witness, param_q, param_xi

    rep = tensor_rep(vector_rep(2), 2)
    prod = _SizeLog()
    assert _quadratic_witness(rep.gen, generator_pairs(2), param_q(rep.param), param_xi(rep.param), prod) is None
    assert prod == {}
    assert 0 < prod.peak < prod.filled  # products are dropped along the way, not held to the end


def test_quadratic_witness_is_the_first_failing_instance():
    from queerdual.uq_queer import _quadratic_witness, param_q, param_xi

    bad = _defective(2, 2, (1, 2), Q)
    qq, xi = param_q(bad.param), param_xi(bad.param)
    pairs = generator_pairs(2)
    failing = []
    for (i, j) in pairs:
        for (k, l) in pairs:
            lhs, rhs = relation_sides(bad.gen, i, j, k, l, qq, xi)
            if lhs != rhs:
                failing.append((i, j, k, l))
    assert failing
    assert _quadratic_witness(bad.gen, pairs, qq, xi)["instance"] == failing[0]


def test_relations_prob_height_fallback():
    # 1 + p is 1 in GF(p): only the exact check can see this defect
    from queerdual.scalars import P

    bad = _defective(1, 1, (1, 1), RatFunc(1 + P))
    report = check_defining_relations(bad, mode="prob", trials=3, seed=0)
    assert report.derived_values["prob_fallback"].startswith("exact")
    assert report.derived_values["false_match_bound"] == "0"
    assert [c.name for c in report.failures()] == ["unit_relations", "quadratic_relations"]


def test_relations_prob_does_no_ratfunc_products(monkeypatch):
    rep = tensor_rep(vector_rep(2), 3)
    calls = []
    mul = RatFunc.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(RatFunc, "__mul__", counting)
    monkeypatch.setattr(RatFunc, "__rmul__", counting)
    assert check_defining_relations(rep, mode="prob", trials=1, seed=0).ok
    assert calls == []


def test_relations_exact_does_no_polynomial_gcds(monkeypatch):
    # every structure constant here is a Laurent polynomial in q, so the scalars
    # stay on the gcd-free path
    calls = []
    pgcd = scalars._pgcd

    def counting(a, b):
        calls.append(1)
        return pgcd(a, b)

    monkeypatch.setattr(scalars, "_pgcd", counting)
    assert check_defining_relations(tensor_rep(vector_rep(2), 3)).ok
    assert calls == []


def test_passing_relation_check_builds_no_difference(sop_sub_calls):
    # each instance compares its two sides; lhs - rhs is built only for a witness
    assert check_defining_relations(tensor_rep(vector_rep(2), 3)).ok
    assert sop_sub_calls == []


def test_relation_witness_is_pinned():
    rep = tensor_rep(vector_rep(2), 2)
    bad = dict(rep.gen)
    bad[(1, 2)] = bad[(1, 2)].scale(Q)
    report = check_defining_relations(QueerRep(rep.spec, rep.space, bad))
    (fail,) = report.failures()
    assert fail.name == "quadratic_relations"
    assert fail.witness == {"instance": (-2, -1, 1, 2), "basis_vector": "(-1, 1)"}


def check_in_qq(rep):
    """The relation check with every instance decided in Q(q), on its two sides
    built as operators (``oracles.decide_in_qq``)."""
    with pytest.MonkeyPatch.context() as mp:
        decide_in_qq(mp)
        return check_defining_relations(rep)


def _verdicts(report):
    return [(c.name, c.status, c.witness) for c in report.checks]


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_kronecker_verdicts_match_qq_on_passing_reps(n, m):
    rep = tensor_rep(vector_rep(n), m)
    report = check_defining_relations(rep)
    assert report.ok and report.derived_values["exact_point"].endswith(" in Z")
    assert _verdicts(report) == _verdicts(check_in_qq(rep))


def _kronecker_defects():
    # (n, m, generator, factor, name): the name is the field the case once ran
    # in, before exact points were integers; a large constant factor raises
    # the height of every difference, and so the point
    return [
        (2, 2, (1, 2), Q, "GF(2^521 - 1)"),
        (2, 2, (1, 2), (Q + 2).inverse(), "GF(2^521 - 1)"),
        (2, 2, (1, 1), (Q + 2).inverse(), "GF(2^521 - 1)"),
        (2, 1, (-2, 1), Q, "GF(2^521 - 1)"),
        (2, 2, (1, 2), RatFunc(1 + 2**20), "GF(2^607 - 1)"),
        (1, 1, (1, 1), RatFunc(1 + 2**40), "GF(2^607 - 1)"),
        (2, 2, (1, 2), RatFunc(1 + P), "Q(q)"),
        (1, 1, (1, 1), RatFunc(1 + P), "Q(q)"),
    ]


def raises_the_point(bad_report, passing_report, factor) -> bool:
    """Whether a defect's point lies above the passing representation's for a
    large constant factor, and not below it for any other factor."""
    bad, passing = point_bits(bad_report), point_bits(passing_report)
    large = factor.den == (1,) and len(factor.num) == 1 and factor.num[0] > 2**16
    return bad > passing if large else bad >= passing


@pytest.mark.parametrize("n,m,key,factor,name", _kronecker_defects())
def test_kronecker_verdicts_match_qq_on_defects(n, m, key, factor, name):
    bad = _defective(n, m, key, factor)
    report = check_defining_relations(bad)
    assert not report.ok and report.derived_values["exact_point"].endswith(" in Z")
    assert raises_the_point(report, check_defining_relations(tensor_rep(vector_rep(n), m)), factor)
    assert _verdicts(report) == _verdicts(check_in_qq(bad))


def test_kronecker_point_is_taken_from_the_perturbed_values():
    # a defect that vanishes at the point the unperturbed values would pick
    X = 2 ** point_bits(check_defining_relations(tensor_rep(vector_rep(2), 2)))
    factor = Q + (1 - X)
    assert factor.specialize(X) == 1 and factor != ONE
    bad = _defective(2, 2, (1, 1), factor)
    report = check_defining_relations(bad)
    assert report.derived_values["exact_point"] != f"q = 2^{X.bit_length() - 1} in Z"
    assert not report.ok
    assert _verdicts(report) == _verdicts(check_in_qq(bad))


@pytest.mark.parametrize("factor", [Q, (Q + 2).inverse()])
def test_kronecker_height_bound_covers_exact_differences(factor, monkeypatch):
    # P_f = q^-LO f M^2 has 1-norm at most H < X = 2^B: the Kronecker premise,
    # for the one bound the check takes from its unit and quadratic instances
    bad = _defective(2, 2, (1, 2), factor)
    bounds = recording_relation_bounds(monkeypatch, uq_queer)
    assert not check_defining_relations(bad).ok
    ((values, bound),) = bounds
    assert_bound_covers(values, bound, [f for f in _exact_differences(bad) if f], 2)


def test_relations_exact_does_no_ratfunc_products(monkeypatch):
    rep = tensor_rep(vector_rep(2), 3)
    calls = []
    mul = RatFunc.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(RatFunc, "__mul__", counting)
    monkeypatch.setattr(RatFunc, "__rmul__", counting)
    assert check_defining_relations(rep).ok
    assert calls == []


def test_relations_past_every_mersenne_prime_keep_the_pinned_witness():
    # a height past 2^607 - 1 once sent this check to Q(q); it runs in Z
    bad = _defective(2, 2, (1, 2), Q * (1 + P))
    report = check_defining_relations(bad)
    assert report.derived_values["exact_point"].endswith(" in Z")
    (fail,) = report.failures()
    assert fail.name == "quadratic_relations"
    assert fail.witness == {"instance": (-2, -1, 1, 2), "basis_vector": "(-1, 1)"}
    assert _verdicts(report) == _verdicts(check_in_qq(bad))


def test_relations_on_the_tenth_tensor_power_pass_at_an_integer_point():
    # the frontier of the former prime list: (1, 10) ran in Q(q)
    report = check_defining_relations(tensor_rep(vector_rep(1), 10))
    assert report.ok and report.derived_values["exact_point"].endswith(" in Z")


def test_comultiplication_sign_collapse():
    # the comultiplication sign (-1)^{(|i|+|k|)(|k|+|j|)} is +1 for every
    # admissible i <= k <= j: verified structurally over ranks 1..4
    from queerdual.superlinalg import index_parity

    for n in range(1, 5):
        for (i, j) in generator_pairs(n):
            for k in index_range(n):
                if i <= k <= j:
                    assert ((index_parity(i) + index_parity(k)) * (index_parity(k) + index_parity(j))) % 2 == 0


def test_tensor_coassociativity():
    rep = vector_rep(2)
    left = tensor_product_rep(tensor_product_rep(rep, rep), rep)
    right = tensor_product_rep(rep, tensor_product_rep(rep, rep))
    for key in left.gen:
        assert left.gen[key] == right.gen[key]


@pytest.mark.parametrize("param", [PARAM_Q, PARAM_QINV])
@pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3) for m in (2, 3)])
def test_tensor_product_matches_the_term_by_term_reference(n, m, param):
    # entries in the same order too: a failure witness reads the first entry
    base = vector_rep(n, param)
    A = tensor_rep(base, m - 1)
    rep = tensor_product_rep(A, base)
    reference = tensor_product_reference(A, base)
    assert list(rep.gen) == list(reference)
    for key, op in rep.gen.items():
        assert list(op.entries.items()) == list(reference[key].entries.items()), key
        assert op.par == reference[key].par and op.dom == reference[key].dom, key
        assert op.dom is op.cod is rep.space, key


def test_tensor_product_multiplies_each_distinct_pair_of_values_once(monkeypatch):
    A, B = tensor_rep(vector_rep(2), 2), vector_rep(2)
    terms = [(A.act(i, k), B.act(k, j)) for (i, j) in generator_pairs(2) for k in index_range(2) if i <= k <= j]
    distinct = sum(len(set(a.entries.values())) * len(set(b.entries.values())) for a, b in terms)
    assert distinct < sum(len(a.entries) * len(b.entries) for a, b in terms)
    calls = []
    mul = RatFunc.__mul__
    monkeypatch.setattr(RatFunc, "__mul__", lambda self, other: calls.append(1) or mul(self, other))
    tensor_product_rep(A, B)
    assert len(calls) == distinct


@pytest.mark.parametrize("param", [PARAM_Q, PARAM_QINV])
@pytest.mark.parametrize("n", [1, 2])
def test_memoized_tensor_power_equals_the_left_fold(n, param):
    # the memo is keyed on the base representation: a dual base has its own powers
    assert vector_rep(n, param) is vector_rep(n, param)
    for base in (vector_rep(n, param), dual_rep(vector_rep(n, param))):
        held = [tensor_rep(base, m) for m in (1, 2, 3)]
        for m, power in enumerate(held, 1):
            fold = tensor_power_fold(base, m)
            assert tensor_rep(base, m) is power
            assert (power.spec, power.space, power.gen) == (fold.spec, fold.space, fold.gen)
    assert tensor_rep(dual_rep(vector_rep(n, param)), 2) is not tensor_rep(vector_rep(n, param), 2)


def test_a_tensor_power_is_freed_once_no_caller_holds_it():
    # the memo holds its powers weakly, so it raises no peak memory
    rep = tensor_rep(vector_rep(1), 3)
    rep.chevalley()
    ref = weakref.ref(rep)
    del rep
    gc.collect()
    assert ref() is None


# -- antipode, dual, twist ------------------------------------------------------

def test_antipode_is_inverse():
    rep = vector_rep(2)
    s = antipode_images(rep)
    idx = index_range(2)
    ident = SOp.identity(rep.space)
    for i in idx:
        for j in idx:
            if i > j:
                continue
            acc = None
            for k in idx:
                if i <= k <= j:
                    term = s[(i, k)] @ rep.act(k, j)
                    acc = term if acc is None else acc + term
            assert acc == (ident if i == j else SOp.zero(rep.space))
    assert s[(1, 1)] == rep.act(-1, -1)  # S(k_1) = k_1^{-1}


def test_dual_rep():
    rep = vector_rep(2)
    dr = dual_rep(rep)
    assert dr.act(1, 1).entry((1,), (1,)) == QINV  # k_1 . v_1* = q^{-1} v_1*
    assert check_defining_relations(dr).ok


def test_dual_rep_noninvertible_diagonal():
    rep = vector_rep(1)
    bad = dict(rep.gen)
    space = rep.space
    bad[(1, 1)] = SOp(space, space, 0, {((1,), (1,)): Q})  # singular diagonal
    with pytest.raises(NonInvertibleDiagonal):
        dual_rep(QueerRep(AlgebraSpec(1), space, bad))


@pytest.mark.parametrize("n", [1, 2])
def test_op_inverse_of_a_braid_generator(n):
    T = hc_tensor_action(n, 2).t(1)  # even, and not diagonal
    assert any(r != c for r, c in T.entries)
    assert T @ _op_inverse(T) == SOp.identity(T.dom)


def test_op_inverse_of_a_singular_non_diagonal_operator():
    V = SuperSpace.standard(2)
    singular = SOp(V, V, 0, {((1,), (1,)): ONE, ((1,), (2,)): ONE})  # E_{1,1} + E_{1,2}
    with pytest.raises(NonInvertibleDiagonal):
        _op_inverse(singular)


def test_double_dual_intertwines_with_v():
    rep = vector_rep(2)
    dd = dual_rep(dual_rep(rep))
    V = rep.space
    pairs = [(r, c) for r in V.labels for c in V.labels if V.parity[r] == V.parity[c]]
    vindex = {rc: i for i, rc in enumerate(pairs)}
    rows = []
    for key in rep.gen:
        a, b = rep.gen[key], dd.gen[key]
        by_rc = {}
        for (k, c), v in b.entries.items():
            for r in V.labels:
                i = vindex.get((r, k))
                if i is not None:
                    by_rc.setdefault((r, c), {})[i] = by_rc.setdefault((r, c), {}).get(i, ZERO) + v
        for (r, k), v in a.entries.items():
            for c in V.labels:
                i = vindex.get((k, c))
                if i is not None:
                    by_rc.setdefault((r, c), {})[i] = by_rc.setdefault((r, c), {}).get(i, ZERO) - v
        rows.extend({i: v for i, v in row.items() if not v.is_zero()} for row in by_rc.values())
    sols = kernel_basis(rows, len(pairs))
    assert sols, "no intertwiner V -> V**"
    entries = {pairs[i]: v for i, v in sols[0].items() if not v.is_zero()}
    theta = SOp(V, V, 0, entries, validate=False)
    mat = [
        {V.pos[c]: theta.entry(r, c) for c in V.labels if not theta.entry(r, c).is_zero()}
        for r in V.labels
    ]
    assert span_dim([m for m in mat if m])[0] == V.dim  # invertible
    # theta solves  (rep gen) . theta = theta . (double-dual gen)
    for key in rep.gen:
        assert (rep.gen[key] @ theta) == (theta @ dd.gen[key])


def test_sigma_twist():
    rep = vector_rep(2)
    tw = sigma_twist(rep)
    assert tw.param == "qinv"
    assert check_defining_relations(tw).ok
    # sigma(L_12) = L_{-2,-1}: the twisted generator is its plain transpose
    src = rep.act(-2, -1)
    assert tw.act(1, 2) == SOp(tw.space, tw.space, 0, {(c, r): v for (r, c), v in src.entries.items()}, validate=False)
    # twisted k_1 acts by q^{-1} on v_{+-1}
    assert tw.act(1, 1).entry((1,), (1,)) == QINV
    # double twist restores the original matrices exactly
    tw2 = sigma_twist(tw)
    assert tw2.param == "q"
    for key in rep.gen:
        assert tw2.gen[key] == rep.gen[key]


def test_sigma_twist_tensor_power():
    tw = sigma_twist(tensor_rep(vector_rep(2), 2))
    assert check_defining_relations(tw).ok


def test_dual_of_tensor_power():
    # the row-side translation machinery rests on this rep being valid
    dr = dual_rep(tensor_rep(vector_rep(2), 2))
    assert check_defining_relations(dr).ok


# -- weights, HWV, submodules ----------------------------------------------------

def test_weight_spaces_vector():
    ws = weight_spaces(vector_rep(2))
    assert set(ws[(1, 0)]) == {(1,), (-1,)}
    assert set(ws[(0, 1)]) == {(2,), (-2,)}


def test_weight_spaces_tensor_square():
    ws = weight_spaces(tensor_rep(vector_rep(2), 2))
    assert len(ws[(1, 1)]) == 8
    assert len(ws[(2, 0)]) == 4
    # weight additivity: weight of a word is the sum of letter weights
    for mu, labs in ws.items():
        for w in labs:
            content = tuple(sum(1 for x in w if abs(x) == i) for i in (1, 2))
            assert content == mu


def test_weight_spaces_qinv():
    ws = weight_spaces(vector_rep(2, "qinv"))
    assert set(ws) == {(1, 0), (0, 1)}


def test_raising_weight_shift():
    # e_i and ebar_i shift weight by eps_i - eps_{i+1} (support condition)
    rep = tensor_rep(vector_rep(2), 2)
    ws = weight_spaces(rep)
    pos = {lab: mu for mu, labs in ws.items() for lab in labs}
    ch = rep.chevalley()
    for name in (("e", 1), ("ebar", 1)):
        for (r, c) in ch[name].entries:
            mr, mc = pos[r], pos[c]
            assert (mr[0] - mc[0], mr[1] - mc[1]) == (1, -1)


def test_hwv_tensor_square():
    rep = tensor_rep(vector_rep(2), 2)
    hw = highest_weight_vectors(rep, (2, 0))
    d, ech = span_dim([flatten_vector(rep.space, v) for v in hw])
    assert ech.contains({rep.space.pos[(1, 1)]: ONE})  # v_1 (x) v_1 is a HWV
    assert highest_weight_vectors(rep, (1, 1)) == []  # (1,1) is not strict


def test_hwv_weights_are_strict_partitions():
    rep = tensor_rep(vector_rep(2), 3)
    nonempty = {mu for mu in weight_spaces(rep) if highest_weight_vectors(rep, mu)}
    assert nonempty == {(3, 0), (2, 1)}
    assert all(is_dominant_weight(mu) for mu in nonempty)


def test_generate_submodule():
    rep = tensor_rep(vector_rep(2), 2)
    assert generate_submodule(rep, [{}]) == []
    sub = generate_submodule(rep, [{(1, 1): ONE}])
    assert len(sub) == 8
    # independent rank oracle at a rational point
    assert frac_rank(vectors_rows(rep.space, sub, Fraction(4, 3))) == 8
    whole = generate_submodule(rep, [{lab: ONE} for lab in rep.space.labels])
    assert len(whole) == 16


# -- references: the block kernel and span closure that joint_kernel and _closure replaced

def reference_block_kernel(ops, space, block):
    """Joint kernel of ops on the span of a block of basis labels: per parity, one
    row per (operator, output label) over the block's labels of that parity."""
    if not ops:
        return [{lab: ONE} for lab in block]
    out = []
    for par in (0, 1):
        cols = [lab for lab in block if space.parity[lab] == par]
        if not cols:
            continue
        colpos = {lab: i for i, lab in enumerate(cols)}
        rows = []
        for op in ops:
            by_row = {}
            for (r, c), v in op.entries.items():
                if c in colpos:
                    by_row.setdefault(r, {})[colpos[c]] = v
            rows.extend(by_row.values())
        out.extend({cols[k]: v for k, v in flat.items()} for flat in kernel_basis(rows, len(cols)))
    return out


def reference_hwv(rep, mu):
    block = weight_spaces(rep).get(tuple(mu))
    return [] if block is None else reference_block_kernel(raising_operators(rep), rep.space, block)


def reference_span_closure(space, ops, seeds):
    """Echelon basis of the smallest subspace that contains the seeds and is
    invariant under the operators, applying each operator to the newest vectors."""
    ech = Echelon()
    frontier = []
    for v in seeds:
        flat = flatten_vector(space, v)
        if flat and ech.insert(flat):
            frontier.append(v)
    while frontier:
        new = []
        for g in ops:
            for v in frontier:
                w = g.apply(v)
                if w and ech.insert(flatten_vector(space, w)):
                    new.append(w)
        frontier = new
    return ech


def items(vectors):
    return [list(v.items()) for v in vectors]


@pytest.mark.parametrize("param", ["q", "qinv"])
@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
def test_hwv_equal_the_block_kernel_reference(n, m, param):
    rep = tensor_rep(vector_rep(n, param), m)
    weights = list(weight_spaces(rep))
    assert len(weights) > 1
    for mu in weights + [(m + 1,) + (0,) * (n - 1)]:  # the last is no weight
        assert items(highest_weight_vectors(rep, mu)) == items(reference_hwv(rep, mu)), mu


def first_even(vectors, space):
    """The first even vector, or the first vector when none is even."""
    return next((v for v in vectors if {space.parity[x] for x in v} == {0}), vectors[0])


@pytest.mark.parametrize("param", ["q", "qinv"])
@pytest.mark.parametrize("m", [3, 4])
def test_rank_one_hwv_are_the_weight_block_even_first(m, param):
    # no raising operator: every vector of the weight block, even ones first
    rep = tensor_rep(vector_rep(1, param), m)
    for mu in weight_spaces(rep):
        got, want = highest_weight_vectors(rep, mu), reference_hwv(rep, mu)
        assert items(got) == items(sorted(want, key=lambda v: rep.space.parity[next(iter(v))]))
        assert got[0] == first_even(want, rep.space)  # the census's seed


@pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_generate_submodule_equals_the_span_closure_reference(n, m):
    rep = tensor_rep(vector_rep(n), m)
    gens = list(rep.gen.values())
    census = [hw for hw in (reference_hwv(rep, mu) for mu in weight_spaces(rep)) if hw]
    seeds = [first_even(hw, rep.space) for hw in census]
    assert len(seeds) == len(enumerate_strict_partitions(m, n))
    for seed in seeds:
        want = [unflatten_vector(rep.space, dict(row)) for _, row in reference_span_closure(rep.space, gens, [seed]).rows]
        assert generate_submodule(rep, [seed]) == want  # row by row, entry by entry


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2)])
def test_classical_hwv_by_content_match_the_content_block(n, m):
    # at q = 1 the weight is read off h_i, which acts by the content; a zero
    # content is an empty scalar on POINT and selects the labels where h_i vanishes
    rep = tensor_rep(vector_rep(n), m)
    cl = classical_limit(rep)
    raising = [cl[("e", i)] for i in range(1, n)] + [cl[("ebar", i)] for i in range(1, n)]
    assert SOp.identity(POINT, RatFunc(0)).is_zero()
    blocks = weight_spaces(rep)
    assert any(0 in mu for mu in blocks)
    for mu, block in blocks.items():
        weight = [(cl[("h", i)], RatFunc(c)) for i, c in enumerate(mu, start=1)]
        assert items(joint_kernel(raising, weight)) == items(reference_block_kernel(raising, rep.space, block)), mu


def test_hwv_weight_of_the_wrong_length_raises():
    rep = tensor_rep(vector_rep(2), 2)
    for mu in ((2,), (2, 0, 0)):
        with pytest.raises(ValueError):
            highest_weight_vectors(rep, mu)


def test_omega():
    om = omega_map(2)
    assert om.apply({(2,): ONE}) == {(-2,): ONE}
    assert om.apply({(-2,): ONE}) == {(2,): -ONE}
    assert (om @ om) == SOp.identity(om.dom).scale(-1)
    for name, op in chevalley_ops(vector_rep(2)).items():
        sign = -1 if op.par else 1
        assert (om @ op) == (op @ om).scale(sign), name


def test_classical_limit():
    rep = vector_rep(2)
    cl = classical_limit(rep)
    assert cl[("h", 1)].entry((1,), (1,)) == ONE
    assert cl[("h", 2)].entry((1,), (1,)) == ZERO
    V = rep.space
    assert cl[("kbar", 1)] == SOp(V, V, 1, {((1,), (-1,)): ONE, ((-1,), (1,)): ONE})
    # xi-corrections vanish at q = 1: e specializes to the plain shift
    assert cl[("e", 1)].entry((1,), (2,)) == ONE


def test_weight_spaces_nondiagonal_cartan():
    from queerdual.uq_queer import NonDiagonalCartan

    rep = vector_rep(1)
    bad = dict(rep.gen)
    space = rep.space
    bad[(1, 1)] = SOp(space, space, 0, {((1,), (1,)): Q, ((-1,), (-1,)): Q + 1})
    with pytest.raises(NonDiagonalCartan):
        weight_spaces(QueerRep(AlgebraSpec(1), space, bad))


def test_classical_limit_pole_detection():
    rep = vector_rep(1)
    bad = dict(rep.gen)
    space = rep.space
    bad[(-1, 1)] = SOp(space, space, 1, {((-1,), (1,)): 1 / (Q - 1)})
    with pytest.raises(PoleAtPoint):
        classical_limit(QueerRep(AlgebraSpec(1), space, bad))


@settings(max_examples=8, deadline=None)
@given(
    key=st.sampled_from(generator_pairs(2)),
    factor=st.sampled_from([ONE, -ONE, RatFunc(3), Q, QINV, (Q + 2).inverse()]),
    extra=st.sampled_from([ZERO, RatFunc(7), Q, XI]),
)
@example(key=(1, 2), factor=ONE, extra=ZERO)
@example(key=(1, 2), factor=RatFunc(3), extra=ZERO)
@example(key=(-2, 1), factor=ONE, extra=RatFunc(7))
@example(key=(-2, -1), factor=(Q + 2).inverse(), extra=XI)
def test_residue_loop_reports_the_sop_references_first_failing_instance(key, factor, extra):
    # generators with a defect planted in Q(q): a scaled generator with one
    # entry shifted; the integer loop at the Kronecker point, the residue loop
    # at a GF(p) point and the SOp sides of the oracle agree on the first
    # failing instance
    from queerdual.uq_queer import _quadratic_instances, _quadratic_witness

    rep = tensor_rep(vector_rep(2), 2)
    G = dict(rep.gen)
    r, c = next(iter(rep.gen[key].entries))
    G[key] = G[key].scale(factor) + SOp.unit(rep.space, rep.space, r, c, extra)
    pairs = generator_pairs(2)
    reference = None
    for (i, j) in pairs:
        for (k, l) in pairs:
            lhs, rhs = relation_sides(G, i, j, k, l, Q, XI)
            if lhs != rhs:
                diff = lhs - rhs
                reference = {"instance": (i, j, k, l), "basis_vector": repr(next(iter(diff.entries))[1])}
                break
        if reference is not None:
            break
    values, bound = relation_bound(G, _quadratic_instances(pairs, Q, XI))
    assert _quadratic_witness(G, pairs, Q, XI, point=kronecker_point(values, bound)) == reference
    assert _quadratic_witness(G, pairs, Q, XI) == reference
    c, image = sample_mod_p(random.Random(0), values)
    assert _quadratic_witness(G, pairs, Q, XI, point=EvalPoint(c, image, P)) == reference
