"""The certified census: submodules from GF(p) words with one invariance
certificate, commutant dimensions from the highest weight space with candidate
intertwiners checked exactly, and supercommutation on integers at a Kronecker
point."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from queerdual import duality, superlinalg
from queerdual.duality import (
    CensusEntry,
    FixtureModule,
    fixture_module,
    restrict_to_rows,
    sergeev_verify,
)
from queerdual.hecke_clifford import hc_tensor_action
from queerdual.scalars import ONE, P, Q, EvalPoint, RatFunc, kronecker_point, sample_mod_p
from queerdual.superlinalg import (
    Echelon,
    SOp,
    SuperSpace,
    _closure,
    flatten_vector,
    graded_commutant,
    intertwiners,
    invariance_bound,
    invariant_under,
    point_map,
    relation_bound,
    span_dim,
    relation_failures,
    supercommutation_failures,
    supercommutator,
    tensor_space,
    unflatten_vector,
    word_sum,
)
from queerdual.uq_queer import (
    chevalley_ops,
    generate_submodule,
    highest_weight_vectors,
    tensor_rep,
    vector_rep,
    weight_spaces,
)

from oracles import (
    assert_bound_covers, decide_in_qq, hw_in_block, invariance_differences, recording_relation_bounds,
    relation_failures_in_qq,
)
from test_duality import _perturbed_hc
from test_superlinalg import V1, V2, rand_op, restrict_by_reduction, restricted


def at_q_one(monkeypatch):
    """Force the GF(p) point of superlinalg to q = 1, where xi = q - q^{-1} vanishes."""
    monkeypatch.setattr(superlinalg, "sample_mod_p", lambda rng, values: (1, {v: v.residue(1, P) for v in values}))


def census_seeds(rep):
    """The first highest weight vector of each weight, even first: the census's seeds."""
    return [hw[0] for hw in (highest_weight_vectors(rep, mu) for mu in weight_spaces(rep)) if hw]


def exact_closure_echelon(rep, seeds) -> Echelon:
    """The echelon of the exact closure of the seeds."""
    return _closure(list(rep.gen.values()), [point_map(rep.space, v) for v in seeds])[0]


def exact_closure_rows(rep, seeds):
    """The rows of the exact closure, as generate_submodule computed them before."""
    return [unflatten_vector(rep.space, dict(row)) for _, row in exact_closure_echelon(rep, seeds).rows]


# -- intertwiners of one parity


def fixture_pair():
    rep = tensor_rep(vector_rep(2), 2)
    target = chevalley_ops(restricted(rep, [{(1, 1): ONE}]))
    fixture = FixtureModule().chevalley()
    solve_on = [("k", 1), ("k", 2), ("e", 1), ("f", 1), ("ebar", 1)]
    return [target[k] for k in solve_on], [fixture[k] for k in solve_on]


def reference_families():
    """The families of test_weight_block_commutant_matches_the_full_system."""
    rng = random.Random(4)
    W = tensor_space(V1, 2)
    d1 = SOp(W, W, 0, {(lab, lab): Q if lab[0] > 0 else ONE for lab in W.labels})
    d2 = SOp(W, W, 0, {((1, 1), (1, 1)): Q, ((-1, -1), (-1, -1)): Q})
    families = [[d1], [d1, rand_op(rng, W, 1)], [d1, d2, rand_op(rng, W, 0)], [rand_op(rng, W, 0)]]
    return [(ops, ops) for ops in families] + [fixture_pair()]


@pytest.mark.parametrize("k", range(5))
def test_intertwiners_of_one_parity_are_that_parity_of_the_full_result(k, monkeypatch):
    A_ops, B_ops = reference_families()[k]
    full = intertwiners(A_ops, B_ops)
    kernels = []
    kernel_basis = superlinalg.kernel_basis
    monkeypatch.setattr(superlinalg, "kernel_basis", lambda *args: kernels.append(1) or kernel_basis(*args))
    for p in (0, 1):
        assert intertwiners(A_ops, B_ops, p) == [X for X in full if X.par == p]
    assert len(kernels) == 2  # one system per call


def test_fixture_solves_only_the_even_intertwiner_system(monkeypatch):
    parities = []
    real = duality.intertwiners

    def recording(A_ops, B_ops, parity=None):
        parities.append(parity)
        return real(A_ops, B_ops, parity)

    monkeypatch.setattr(duality, "intertwiners", recording)
    _, report = fixture_module()
    assert report.ok and report.derived_values["intertwiner_space_dim"] == 1
    assert parities == [0]


# -- the invariance certificate


def test_invariance_bound_covers_a_worst_case_difference():
    # width 1 and d rows whose terms all add up: f = A^2 + d A^3, against the
    # bound's (1 + d) A^3; one term fewer in the bound would not cover it
    A, d = 2**20 + 1, 3
    labels = [f"x{k}" for k in range(d + 2)]  # pivots x0 .. x{d-1}, then x{d}, x{d+1}
    space = SuperSpace.named(labels, odd=[])
    entries = {(f"x{d}", f"x{d + 1}"): RatFunc(A)} | {(f"x{l}", f"x{d + 1}"): RatFunc(-A) for l in range(d)}
    op = SOp(space, space, 0, entries)
    vectors = [{d + 1: RatFunc(A)}]
    rows = [(l, {l: ONE, d: RatFunc(A)}) for l in range(d)]
    diffs = invariance_differences([op], vectors, rows)
    assert diffs == [RatFunc(A**2 + d * A**3)]
    values, bound = invariance_bound([op], vectors, rows)
    assert bound.height == (1 + d) * A**3
    assert_bound_covers(values, bound, diffs, 3)
    assert not invariant_under([op], vectors, rows)


def test_invariance_bound_counts_the_rows_at_one_position():
    # d rows whose non-pivot entries sit at d distinct positions y_l: at most
    # c = 1 row meets each position, so the bound has terms 1 + c = 2, not 1 + d,
    # and it still covers f = A^2 + A^3 at y_0
    A, d = 2**20 + 1, 3
    labels = [f"x{l}" for l in range(d)] + [f"y{l}" for l in range(d)] + ["z"]
    space = SuperSpace.named(labels, odd=[])
    entries = {(f"x{l}", "z"): RatFunc(-A) for l in range(d)} | {("y0", "z"): RatFunc(A)}
    op = SOp(space, space, 0, entries)
    vectors = [{2 * d: RatFunc(A)}]
    rows = [(l, {l: ONE, d + l: RatFunc(A)}) for l in range(d)]
    diffs = invariance_differences([op], vectors, rows)
    assert diffs == [RatFunc(A**2 + A**3)] + [RatFunc(A**3)] * (d - 1)  # at y0, y1, y2
    values, bound = invariance_bound([op], vectors, rows)
    assert bound.height == 2 * A**3
    assert_bound_covers(values, bound, diffs, 3)
    assert not invariant_under([op], vectors, rows)


def echelon_of(space, basis) -> tuple[list, Echelon]:
    """The basis flattened, and the echelon it spans."""
    ech = Echelon()
    flat = [flatten_vector(space, v) for v in basis]
    for vec in flat:
        ech.insert(vec)
    return flat, ech


def non_invariant_bases():
    rep = tensor_rep(vector_rep(2), 2)
    rows = generate_submodule(rep, [{(1, 1): ONE}])
    return rep, rows, [[{(1, 1): ONE}], rows[:-1], rows[1:], [rows[0], {(1, -1): Q + 2}]]


def test_invariance_bound_covers_the_exact_differences_of_non_invariant_bases():
    rep, _, bases = non_invariant_bases()
    gens = list(rep.gen.values())
    for basis in bases:
        flat, ech = echelon_of(rep.space, basis)
        values, bound = invariance_bound(gens, flat, ech.rows)
        assert_bound_covers(values, bound, invariance_differences(gens, flat, ech.rows), 3)
        assert not invariant_under(gens, flat, ech.rows)


@pytest.mark.parametrize("where", ["at_point", "in_qq"])
def test_a_non_invariant_basis_leaves_the_submodule(where, monkeypatch):
    # the certificate accepts the submodule's rows and refuses each other basis,
    # at the Kronecker point, and decided in Q(q)
    if where == "in_qq":
        decide_in_qq(monkeypatch)
    rep, rows, bases = non_invariant_bases()
    gens = list(rep.gen.values())
    flat, ech = echelon_of(rep.space, rows)
    assert superlinalg.invariant_under(gens, flat, ech.rows)
    assert restrict_to_rows(rep, ech.rows).space.dim == 8
    for basis in bases:
        flat, ech = echelon_of(rep.space, basis)
        assert not superlinalg.invariant_under(gens, flat, ech.rows)


def recording_certificates(monkeypatch):
    verdicts = []
    real = superlinalg.invariant_under

    def recording(*args):
        verdicts.append(real(*args))
        return verdicts[-1]

    monkeypatch.setattr(superlinalg, "invariant_under", recording)
    return verdicts


@pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_generate_submodule_certifies_the_gf_p_words(n, m, monkeypatch):
    rep = tensor_rep(vector_rep(n), m)
    seeds = census_seeds(rep)
    verdicts = recording_certificates(monkeypatch)
    assert [generate_submodule(rep, [s]) for s in seeds] == [exact_closure_rows(rep, [s]) for s in seeds]
    assert verdicts == [True] * len(seeds)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2)])
def test_collapsed_words_fall_back_to_the_exact_closure(n, m, monkeypatch):
    # at q = 1 the generators lose their xi entries: the GF(p) words span too
    # little, the certificate refuses them and the exact closure runs
    rep = tensor_rep(vector_rep(n), m)
    seeds = census_seeds(rep)
    want = [exact_closure_rows(rep, [s]) for s in seeds]
    at_q_one(monkeypatch)
    verdicts = recording_certificates(monkeypatch)
    assert [generate_submodule(rep, [s]) for s in seeds] == want
    assert False in verdicts


def test_a_seed_dropped_in_gf_p_is_checked_exactly(monkeypatch):
    # at q = 5 the second seed u + (q - 5) x equals the first: the GF(p) words
    # span the closure of u alone, which is invariant but misses x, so only the
    # exact check of the dropped seed sends the closure to the exact path
    rep = tensor_rep(vector_rep(2), 3)
    u, x = census_seeds(rep)
    seeds = [u, {**u, **{lab: (Q - 5) * v for lab, v in x.items()}}]
    want = exact_closure_rows(rep, seeds)
    assert len(want) == 20
    monkeypatch.setattr(superlinalg, "sample_mod_p", lambda rng, values: (5, {v: v.residue(5, P) for v in values}))
    verdicts = recording_certificates(monkeypatch)
    assert generate_submodule(rep, seeds) == want
    assert verdicts == []  # the seed check failed first
    assert generate_submodule(rep, [{}]) == []


# -- supercommutation on residues, and the bound of every relation check


def test_supercommutation_bound_covers_a_worst_case_difference(monkeypatch):
    # two odd operators of width 1: a b + b a has the entry 2 A^2, the bound's height
    A = 2**20 + 1
    a = SOp(V1, V1, 1, {((-1,), (1,)): RatFunc(A), ((1,), (-1,)): RatFunc(A)})
    diffs = list(supercommutator(a, a).entries.values())
    assert diffs == [RatFunc(2 * A**2)] * 2
    bounds = recording_relation_bounds(monkeypatch, superlinalg)
    failures, point = supercommutation_failures([a], [a])
    assert failures == [(0, 0)] and point.endswith(" in Z")
    ((values, bound),) = bounds
    assert bound.height == 2 * A**2
    assert_bound_covers(values, bound, diffs, 2)


@pytest.mark.parametrize("n,m", [(1, 2), (2, 2)])
def test_supercommutation_bound_covers_the_exact_differences_of_a_planted_defect(n, m, monkeypatch):
    _perturbed_hc(monkeypatch)
    chevalley = list(tensor_rep(vector_rep(n), m).chevalley().values())
    hc = duality.hc_tensor_action(n, m, "q").generators()
    bounds = recording_relation_bounds(monkeypatch, superlinalg)
    failures, point = supercommutation_failures(chevalley, hc)
    assert point.endswith(" in Z")
    assert failures == [(i, j) for i, x in enumerate(chevalley) for j, h in enumerate(hc) if supercommutator(x, h).entries]
    ((values, bound),) = bounds
    diffs = [f for x in chevalley for h in hc for f in supercommutator(x, h).entries.values()]
    assert_bound_covers(values, bound, diffs, 2)


def hc6_family():
    """The HC generators of V^{(x)3}, n = 1, and the hc6 instances T_a C_a = C_{a+1} T_a."""
    hc = hc_tensor_action(1, 3)
    ops = {("T", a): hc.t(a) for a in (1, 2)} | {("C", b): hc.c(b) for b in (1, 2, 3)}
    return ops, [(a, [((("T", a), ("C", a)), 1)], [((("C", a + 1), ("T", a)), 1)]) for a in (1, 2)]


def differences(ops, instances) -> list:
    return [f for _, lhs, rhs in instances for f in (word_sum(ops, lhs) - word_sum(ops, rhs)).entries.values()]


def test_a_planted_longer_word_raises_the_relation_bound():
    # a false relation of three letters against one: the bound takes three
    # factors and more terms, and still covers every difference
    ops, family = hc6_family()
    planted = ("planted", [((("T", 1), ("T", 2), ("T", 1)), 1)], [((("T", 1),), ONE - Q)])
    values, two = relation_bound(ops, family)
    _, three = relation_bound(ops, [*family, planted])
    assert three.degree > two.degree and three.height > two.height
    assert differences(ops, family) == [] and differences(ops, [planted])
    assert_bound_covers(values, three, differences(ops, [planted]), 3)
    point = kronecker_point(values, three)
    assert relation_failures(ops, [*family, planted], point) == [2] == relation_failures_in_qq(ops, [*family, planted])


def test_the_relation_bound_of_empty_and_one_letter_words():
    # k = diag(q, 1): one factor, and terms counting each coefficient's
    # 1-norm, 1 + 3 + ||q - 3||_1 = 8 for the failing instance
    k = SOp(V1, V1, 0, {((1,), (1,)): Q, ((-1,), (-1,)): ONE})
    ops = {"k": k}
    instances = [
        ("k = k", [(("k",), 1)], [(("k",), 1)]),
        ("k + 3 = q - 3", [(("k",), 1), ((), 3)], [((), Q - 3)]),
        ("1 = 1", [((), 1)], [((), 1)]),
    ]
    values, bound = relation_bound(ops, instances)
    assert bound.height == 1 + 3 + 4 and values == {Q, ONE}
    assert_bound_covers(values, bound, differences(ops, instances), 1)
    failing = relation_failures(ops, instances, kronecker_point(values, bound))
    assert failing == [1] == relation_failures_in_qq(ops, instances)


LAURENT = st.builds(
    lambda coeffs, shift: RatFunc(tuple(coeffs), (0,) * shift + (1,)),
    st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any),
    st.integers(0, 2),
)


@st.composite
def sparse_op(draw):
    """An operator on the 2|2 space with a few Laurent entries."""
    par = draw(st.integers(0, 1))
    labels = V2.labels
    slots = [(r, c) for r in labels for c in labels if (V2.parity[r] + V2.parity[c]) & 1 == par]
    keys = draw(st.lists(st.sampled_from(slots), max_size=5, unique=True))
    return SOp(V2, V2, par, {k: draw(LAURENT) for k in keys})


WORDS = st.lists(st.sampled_from("abc"), max_size=3).map(tuple)
COEFFS = st.one_of(st.integers(-2, 2).filter(bool), LAURENT)
SIDES = st.lists(st.tuples(WORDS, COEFFS), min_size=1, max_size=4)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    ops=st.fixed_dictionaries({key: sparse_op() for key in "abc"}),
    drawn=st.lists(st.tuples(SIDES, SIDES), max_size=4),
    word=WORDS,
    coeffs=st.lists(COEFFS, min_size=2, max_size=2, unique=True),
    seed=st.integers(0, 2**16),
)
def test_relation_failures_agree_with_q_of_q(ops, drawn, word, coeffs, seed):
    # random families of empty, one-, two- and three-letter words, with a word
    # on both sides at equal coefficients (holds) and at different ones (fails
    # unless the word is the zero operator): the failing instances at the
    # Kronecker point are those of Q(q), and a GF(p) point fails none that holds
    def parity(word):
        return sum(ops[w].par for w in word) & 1

    c1, c2 = coeffs
    instances = []
    for t, (lhs, rhs) in enumerate(drawn):  # one parity per instance, that of its first word
        par = parity(lhs[0][0])
        instances.append((t, *([term for term in side if parity(term[0]) == par] for side in (lhs, rhs))))
    instances += [
        ("equal", [(word, c1)], [(word, c1)]),
        ("different", [(word, c1)], [(word, c2)]),
        ("identity", [((), c1)], [((), c2)]),
    ]
    expected = relation_failures_in_qq(ops, instances)
    tail = len(instances) - 3
    assert tail not in expected and tail + 2 in expected
    assert (tail + 1 in expected) == (not word_sum(ops, [(word, 1)]).is_zero())
    values, bound = relation_bound(ops, instances)
    assert relation_failures(ops, instances, kronecker_point(values, bound)) == expected
    c, image = sample_mod_p(random.Random(seed), values)
    assert set(relation_failures(ops, instances, EvalPoint(c, image, P))) <= set(expected)


def test_supercommutation_at_the_point_does_no_ratfunc_products(monkeypatch):
    chevalley = list(tensor_rep(vector_rep(2), 3).chevalley().values())
    hc = hc_tensor_action(2, 3).generators()
    calls = []
    mul = RatFunc.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(RatFunc, "__mul__", counting)
    monkeypatch.setattr(RatFunc, "__rmul__", counting)
    assert supercommutation_failures(chevalley, hc) == ([], "q = 2^8 in Z")
    assert calls == []


def strip(report: dict) -> dict:
    """A report without its timing, and without the point a check ran at."""
    out = {k: v for k, v in report.items() if k != "elapsed_ms"}
    out["derived_values"] = {k: v for k, v in out["derived_values"].items() if k != "exact_point"}
    return out


def test_planted_defect_gives_the_same_witness_at_the_point_and_in_qq(monkeypatch):
    _perturbed_hc(monkeypatch)
    at_point = sergeev_verify(1, 2).to_dict()
    with pytest.MonkeyPatch.context() as mp:
        decide_in_qq(mp)
        in_qq = sergeev_verify(1, 2).to_dict()
    assert at_point["derived_values"]["exact_point"].endswith(" in Z")
    (fail,) = [c for c in at_point["checks"] if c["name"] == "supercommutation"]
    assert fail["status"] == "fail" and fail["witness"]
    assert strip(at_point) == strip(in_qq)


def test_census_sergeev_and_fixture_reports_are_equal_in_qq(fresh_census):
    def run():
        duality._census.cache_clear()
        return [
            fresh_census(2, 3)[1].to_dict(),
            sergeev_verify(2, 2).to_dict(),
            sergeev_verify(2, 3, centralizer=False).to_dict(),
            fixture_module()[1].to_dict(),
        ]

    at_point = run()
    with pytest.MonkeyPatch.context() as mp:
        decide_in_qq(mp)
        in_qq = run()
    assert all(r["derived_values"]["exact_point"].endswith(" in Z") for r in at_point[1:3])
    assert [strip(r) for r in at_point] == [strip(r) for r in in_qq]


# -- the census against the way it was computed before


def census_entries_the_old_way(n, m):
    """Exact closure, restriction by reduction, the sub-representation's highest
    weight vectors and its whole graded commutant."""
    rep = tensor_rep(vector_rep(n), m)
    out = {}
    for mu in sorted(weight_spaces(rep), reverse=True):
        hw = highest_weight_vectors(rep, mu)
        if not hw:
            continue
        rows = exact_closure_echelon(rep, [hw[0]]).rows
        basis = [unflatten_vector(rep.space, dict(row)) for _, row in rows]
        sub_rep = restrict_by_reduction(rep, basis)
        assert restrict_to_rows(rep, rows).gen == sub_rep.gen
        h, d, h_sub = len(hw), len(basis), len(highest_weight_vectors(sub_rep, mu))
        copies = h // h_sub if h_sub > 0 and h % h_sub == 0 else 0
        comm = graded_commutant(list(sub_rep.gen.values()))
        even, odd = sum(1 for X in comm if X.par == 0), sum(1 for X in comm if X.par == 1)
        odd_sq = None
        if (even, odd) == (1, 1):
            X = next(X for X in comm if X.par == 1)
            sq = X @ X
            diag = sq.entry(sub_rep.space.labels[0], sub_rep.space.labels[0])
            if sq == SOp.identity(sub_rep.space).scale(diag):
                odd_sq = (-diag).sqrt() is not None
        detected, paired, irr = {
            (1, 0): ("M", False, d), (1, 1): ("Q", False, d), (2, 2): ("M", True, d // 2),
        }.get((even, odd), ("?", False, d))
        if (even, odd) == (2, 2) and d % 2:
            detected, paired, irr = "?", False, d
        predicted = "M" if sum(1 for x in mu if x) % 2 == 0 else "Q"
        out[mu] = CensusEntry(h, d, h_sub, copies, even, odd, odd_sq, predicted, detected, paired, irr)
    return out


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)])
def test_census_entries_equal_the_old_way(n, m, fresh_census):
    census, report = fresh_census(n, m)
    assert report.ok
    assert census.entries == census_entries_the_old_way(n, m)


def test_census_2_3_solves_no_commutant_and_reduces_no_generator_image(monkeypatch, fresh_census):
    # work guard: every block's candidate intertwiners pass one supercommutation
    # check, so no commutant system is solved.  Generating a block reduces each
    # kept word once, and restricting to it reduces nothing: the exact closure
    # and restriction reduced every image.  Each block runs one invariance
    # certificate, the one of its generation.
    solved, exact_reductions, steps, certificates, checks = [], [], [], [], []
    real_intertwiners, real_reduce = duality.intertwiners, Echelon._reduce
    generate, restrict = duality.submodule_echelon, duality.restrict_to_rows
    supercommutation = duality.supercommutation_failures

    def solving(A_ops, B_ops, parity=None):
        solved.extend([0, 1] if parity is None else [parity])
        return real_intertwiners(A_ops, B_ops, parity)

    def reducing(self, vec, combo):
        if any(isinstance(v, RatFunc) for v in vec.values()):
            exact_reductions.append(1)
        return real_reduce(self, vec, combo)

    def counted(step, call, *args):
        before = len(exact_reductions)
        out = call(*args)
        steps.append((step, len(exact_reductions) - before))
        return out

    def forbidden(ops):
        raise AssertionError("the census solves no whole graded commutant")

    bound = superlinalg.invariance_bound
    monkeypatch.setattr(superlinalg, "invariance_bound", lambda *args: certificates.append(1) or bound(*args))
    monkeypatch.setattr(duality, "intertwiners", solving)
    monkeypatch.setattr(duality, "graded_commutant", forbidden)
    monkeypatch.setattr(Echelon, "_reduce", reducing)
    monkeypatch.setattr(duality, "submodule_echelon", lambda *args: counted("generate", generate, *args))
    monkeypatch.setattr(duality, "restrict_to_rows", lambda *args: counted("restrict", restrict, *args))
    monkeypatch.setattr(
        duality, "supercommutation_failures", lambda A, B: checks.append(len(A)) or supercommutation(A, B)
    )
    census, report = fresh_census(2, 3)
    assert report.ok and list(census.entries) == [(3, 0), (2, 1)]
    assert solved == []
    assert checks == [2, 4]  # the candidates: 1|1 for type Q, 2|2 for the pair
    assert steps == [("generate", 12), ("restrict", 0), ("generate", 8), ("restrict", 0)]
    assert len(certificates) == 2


def recording_solves(monkeypatch):
    """A list that grows by the parities of each exact commutant solve of the census."""
    solved = []
    real = duality.intertwiners
    monkeypatch.setattr(duality, "intertwiners", lambda A, B, p=None: solved.append(p) or real(A, B, p))
    return solved


def test_census_at_q_one_falls_back_and_keeps_its_entries(monkeypatch, fresh_census):
    # at q = 1 the words collapse: every block takes the exact closure, has no
    # words to build candidates along, and solves its commutant exactly, with
    # the same entries
    want = census_entries_the_old_way(2, 2)
    at_q_one(monkeypatch)
    verdicts = recording_certificates(monkeypatch)
    solved = recording_solves(monkeypatch)
    census, report = fresh_census(2, 2)
    assert report.ok and census.entries == want
    assert False in verdicts
    assert solved == [1]  # (2,0) is of type Q: the identity meets the even bound


def test_a_failing_candidate_falls_back_to_the_exact_solve(monkeypatch, fresh_census):
    # the first even candidate of each block gains an entry q at (s0, s0): it no
    # longer supercommutes, and the parities above (1, 0) are solved exactly
    want = census_entries_the_old_way(2, 3)
    real = duality._candidates

    def planted(*args):
        cands = real(*args)
        even = next(X for X in cands if X.par == 0)
        space = even.dom
        return [X + SOp.unit(space, space, space.labels[0], space.labels[0], Q) if X is even else X for X in cands]

    monkeypatch.setattr(duality, "_candidates", planted)
    solved = recording_solves(monkeypatch)
    census, report = fresh_census(2, 3)
    assert report.ok and census.entries == want
    assert solved == [1, 0, 1]  # (3,0) of type Q solves its odd system, the pair (2,1) both


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_no_census_of_the_battery_solves_a_commutant_system(n, m, monkeypatch, fresh_census):
    # work guard: the censuses the battery builds (sergeev, census, classical and
    # howe) verify every candidate, so the exact solve never runs
    solved = recording_solves(monkeypatch)
    _, report = fresh_census(n, m)
    assert report.ok and solved == []


@pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_the_highest_weight_bound_covers_the_whole_commutant(n, m, monkeypatch, fresh_census):
    # dim End_U(S)_p <= dim (S & HW_mu)_{|v0| + p}, against the whole graded
    # commutant of each block; dim (S & HW_mu) against the highest weight
    # vectors of the restricted representation; and the meet the census reads
    # off the block, embedded in V, against the meet computed in V
    meets = []
    real = duality._candidates
    monkeypatch.setattr(duality, "_candidates", lambda *args: meets.append(args[3]) or real(*args))
    fresh_census(n, m)
    old = census_entries_the_old_way(n, m)
    assert len(meets) == len(old)
    rep = tensor_rep(vector_rep(n), m)
    for (mu, entry), meet in zip(old.items(), meets):  # both by decreasing weight
        upper = [sum(1 for par, _ in meet if par == p) for p in (0, 1)]
        assert upper[0] >= entry.endo_even and upper[1] >= entry.endo_odd, mu
        assert len(meet) == entry.hwv_in_submodule, mu
        hw = highest_weight_vectors(rep, mu)
        ech = exact_closure_echelon(rep, [hw[0]])
        ambient = hw_in_block(rep.space, hw, ech)
        embed = duality._block_maps(rep.space, ech.rows)[0]
        embedded = [(par, flatten_vector(rep.space, embed.apply(w))) for par, w in meet]
        for p in (0, 1):
            ours, theirs = ([w for par, w in pairs if par == p] for pairs in (embedded, ambient))
            assert span_dim(ours)[0] == span_dim(theirs)[0] == span_dim(ours + theirs)[0] == len(ours), (mu, p)


def test_census_2_4_and_3_3_keep_their_entries(fresh_census):
    # the entries of the exact commutant solves, pinned
    want = {
        (2, 4): {
            (4, 0): CensusEntry(16, 16, 2, 8, 1, 1, False, "Q", "Q", False, 16),
            (3, 1): CensusEntry(32, 16, 4, 8, 2, 2, None, "M", "M", True, 8),
        },
        (3, 3): {
            (3, 0, 0): CensusEntry(8, 38, 2, 4, 1, 1, False, "Q", "Q", False, 38),
            (2, 1, 0): CensusEntry(8, 32, 4, 2, 2, 2, None, "M", "M", True, 16),
        },
    }
    for (n, m), entries in want.items():
        census, report = fresh_census(n, m)
        assert report.ok and census.entries == entries and census.closes
