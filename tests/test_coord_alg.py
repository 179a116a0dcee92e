import random
from fractions import Fraction

import pytest

from queerdual.scalars import ONE, RatFunc, Q, ZERO
from queerdual import coord_alg
from queerdual.superlinalg import Echelon, SOp, _columns, index_parity, index_range, word_sum
from queerdual.uq_queer import generator_pairs, phi, s_matrix, vector_rep
from queerdual.coord_alg import (
    CoordFunctional,
    DegreeMismatch,
    act,
    eval_on_operator,
    functional_equal,
    functional_is_zero,
    gen_word,
    graded_component,
    monomial_parity,
    normalized_monomials,
    operator_image_basis,
    phi_component_rep,
    product,
    qca_report,
    zero_weight_iso,
)

from queerdual.duality import howe_verify

from oracles import (
    act_reference, eval_functional, frac_rank, flatten_ops_rows, greedy_basis, omega_map, qca2_sides,
    zero_weight_first_basis,
)


@pytest.fixture(scope="module")
def ib1():
    return operator_image_basis(2, 1)


@pytest.fixture(scope="module")
def ib2():
    return operator_image_basis(2, 2)


def test_matrix_coefficient_expansion(ib1):
    # x.v_b = sum_a <t_ab, x> v_a on random generator words
    rep = vector_rep(2)
    rng = random.Random(3)
    pairs = generator_pairs(2)
    for _ in range(12):
        letters = tuple(rng.choice(pairs) for _ in range(rng.randint(1, 3)))
        w = [(letters, ONE)]
        op = word_sum(rep.gen, w)
        for b in index_range(2):
            img = op.apply({(b,): ONE})
            for a in index_range(2):
                tab = CoordFunctional.monomial((a,), (b,))
                assert eval_functional(tab, w, 2) == img.get((a,), ZERO)


def test_counit_row():
    one_word = [((), ONE)]
    for a in index_range(2):
        for b in index_range(2):
            tab = CoordFunctional.monomial((a,), (b,))
            assert eval_functional(tab, one_word, 2) == (ONE if a == b else ZERO)
    assert eval_functional(CoordFunctional.unit(), one_word, 2) == ONE
    assert eval_functional(CoordFunctional.unit(), gen_word(1, 1), 2) == ONE  # eps(L_11) = 1
    assert eval_functional(CoordFunctional.unit(), gen_word(-1, 1), 2) == ZERO


def test_simple_values():
    for n in (1, 2):
        t11 = CoordFunctional.monomial((1,), (1,))
        assert eval_functional(t11, gen_word(1, 1), n) == Q
    assert eval_functional(CoordFunctional.monomial((1,), (2,)), gen_word(1, 1), 2).is_zero()


def test_coproduct_consistency():
    # eval(t_ab, w1 w2) = sum_c eval(t_ac, w1) eval(t_cb, w2): the coproduct
    # pairing sign and the sign of the coproduct's own terms cancel, leaving
    # plain matrix multiplication of the evaluation tables
    rng = random.Random(5)
    pairs = generator_pairs(2)
    for _ in range(10):
        l1 = tuple(rng.choice(pairs) for _ in range(rng.randint(1, 2)))
        l2 = tuple(rng.choice(pairs) for _ in range(rng.randint(1, 2)))
        w1, w2, w12 = [(l1, ONE)], [(l2, ONE)], [(l1 + l2, ONE)]
        for a in index_range(2):
            for b in index_range(2):
                lhs = eval_functional(CoordFunctional.monomial((a,), (b,)), w12, 2)
                rhs = ZERO
                for c in index_range(2):
                    rhs = rhs + eval_functional(
                        CoordFunctional.monomial((a,), (c,)), w1, 2
                    ) * eval_functional(CoordFunctional.monomial((c,), (b,)), w2, 2)
                assert lhs == rhs


def test_product():
    t11 = CoordFunctional.monomial((1,), (1,))
    assert eval_functional(product(t11, t11), gen_word(1, 1), 2) == Q * Q
    assert product(CoordFunctional.unit(), t11).terms == t11.terms
    f = product(CoordFunctional.monomial((1,), (-1,)), CoordFunctional.monomial((-1,), (1,)))
    assert {monomial_parity(*key) for key in f.terms} == {0}
    with pytest.raises(DegreeMismatch):
        t11 + CoordFunctional.unit()


def test_image_basis_dims(ib1, ib2):
    assert operator_image_basis(1, 1).dim == 2  # identity and the odd swap
    assert ib1.dim == 8
    assert ib2.dim == 32
    # closed under generator multiplication (re-checked exactly)
    rep = vector_rep(1)
    basis = operator_image_basis(1, 1)
    ech = Echelon()
    for op in basis.ops:
        ech.insert(_columns(op)[0])
    for g in rep.gen.values():
        for b in basis.ops:
            assert ech.contains(_columns(g @ b)[0])
    # independent flattened-rank oracle at a rational point
    assert frac_rank(flatten_ops_rows(ib1.ops, Fraction(3, 7))) == 8


def test_qca1(ib1):
    for a in index_range(2):
        for b in index_range(2):
            f = CoordFunctional.monomial((a,), (b,))
            g = CoordFunctional.monomial((-a,), (-b,))
            assert functional_equal(f, g, ib1)
    assert not functional_equal(
        CoordFunctional.monomial((1,), (1,)), CoordFunctional.monomial((1,), (2,)), ib1
    )
    with pytest.raises(DegreeMismatch):
        functional_equal(CoordFunctional.unit(), CoordFunctional.monomial((1,), (1,)), ib1)


def test_qca_full_report():
    report = qca_report(2)
    assert report.ok, [c.to_dict() for c in report.failures()]
    assert report.derived_values["qca2_entries_checked"] == 256


def test_qca_rank_one():
    report = qca_report(1)
    assert report.ok
    assert report.derived_values["qca2_entries_checked"] == 16


def super_flip(W):
    """P(v_a (x) v_c) = (-1)^{|a||c|} v_c (x) v_a on W = V (x) V."""
    return SOp(W, W, 0, {((c, a), (a, c)): -ONE if index_parity(a) and index_parity(c) else ONE for a, c in W.labels})


@pytest.mark.parametrize("n", [1, 2])
def test_qca2_sides_evaluate_to_s_x_and_p_x_p_s(n):
    # the proof in qca_report: on an image operator X, entry (r, c) of
    # S12 T13 T23 evaluates to (S X)[r, c] and of T23 T13 S12 to (P X P S)[r, c]
    lhs, rhs = qca2_sides(n)
    S = s_matrix(n)
    W = S.dom
    P = super_flip(W)
    zero = CoordFunctional(2)
    keys = [(r, c) for r in W.labels for c in W.labels]
    assert set(lhs) | set(rhs) == set(keys)
    for X in operator_image_basis(n, 2).ops:
        SX, PXPS = S @ X, P @ X @ P @ S
        for key in keys:
            assert eval_on_operator(lhs.get(key, zero), X) == SX.entry(*key)
            assert eval_on_operator(rhs.get(key, zero), X) == PXPS.entry(*key)


def oracle_qca2_witness(n, S):
    """The failing entries of the exchange relation with S, first four, as
    operator-valued functionals compared on the degree-2 image basis."""
    lhs, rhs = qca2_sides(n, S)
    ib2 = operator_image_basis(n, 2)
    zero = CoordFunctional(2)
    bad = [key for key in sorted(set(lhs) | set(rhs)) if not functional_equal(lhs.get(key, zero), rhs.get(key, zero), ib2)]
    return bad[:4] or None


@pytest.mark.parametrize("n", [1, 2])
def test_qca2_planted_defect_fails_with_the_oracle_witness(n, monkeypatch):
    # add q to one even entry of S at a time: qca2 must fail, with the witness
    # of the functional route
    S = s_matrix(n)
    W = S.dom
    even = [(r, c) for r in W.labels for c in W.labels if W.parity[r] == W.parity[c]]
    stored = sorted(set(S.entries) & set(even))[:2]
    picks = stored + random.Random(n).sample([key for key in even if key not in stored], 4)
    for key in picks:
        entries = dict(S.entries)
        entries[key] = entries.get(key, ZERO) + Q
        planted = SOp(W, W, 0, entries)
        monkeypatch.setattr(coord_alg, "s_matrix", lambda _n, planted=planted: planted)
        report = qca_report(n)
        qca2 = next(c for c in report.checks if c.name == "qca2")
        assert qca2.status == "fail", key
        assert qca2.witness == oracle_qca2_witness(n, planted), key
        assert report.derived_values["qca2_entries_checked"] == len(W.labels) ** 2


def test_phi_eigenvalues():
    for a in index_range(2):
        for b in index_range(2):
            tab = CoordFunctional.monomial((a,), (b,))
            for j in (1, 2):
                img = act("phi", gen_word(j, j), tab, 2, 2)
                assert img.terms == {((a,), (b,)): Q ** phi(b, j)}


def test_psit_eigenvalue_row_only():
    for a in index_range(2):
        for b in index_range(2):
            tab = CoordFunctional.monomial((a,), (b,))
            for i in (1, 2):
                img = act("psit", gen_word(i, i), tab, 2, 2)
                assert img.terms == {((a,), (b,)): Q ** (-phi(a, i))}


def test_actions_well_defined_across_qca1(ib1):
    for label in ("phi", "psi", "psit"):
        for (i, j) in generator_pairs(2):
            x = gen_word(i, j)
            for a in index_range(2):
                for b in index_range(2):
                    d = act(label, x, CoordFunctional.monomial((a,), (b,)), 2, 2) - act(
                        label, x, CoordFunctional.monomial((-a,), (-b,)), 2, 2
                    )
                    assert functional_is_zero(d, ib1)


def test_phi_psit_commute_exhaustive_degree_one(ib1):
    # phi and psit commute on the nose: all generator pairs, all monomials
    pairs = generator_pairs(2)
    monos = normalized_monomials(2, 2, 1)
    for (i, j) in pairs:
        for (k, l) in pairs:
            x, y = gen_word(i, j), gen_word(k, l)
            for key in monos:
                f = CoordFunctional.monomial(*key)
                lhs = act("phi", x, act("psit", y, f, 2, 2), 2, 2)
                rhs = act("psit", y, act("phi", x, f, 2, 2), 2, 2)
                assert functional_is_zero(lhs - rhs, ib1)


def test_phi_psit_commute_and_psi_supercommutes(ib1, ib2):
    rng = random.Random(7)
    pairs = generator_pairs(2)
    monos = normalized_monomials(2, 2, 2)
    for _ in range(20):
        (i, j), (k, l) = rng.choice(pairs), rng.choice(pairs)
        x, y = gen_word(i, j), gen_word(k, l)
        px = (index_parity(i) + index_parity(j)) % 2
        py = (index_parity(k) + index_parity(l)) % 2
        f = CoordFunctional.monomial(*rng.choice(monos))
        # phi and psit commute on the nose (the tau-transported sigma twist)
        lhs = act("phi", x, act("psit", y, f, 2, 2), 2, 2)
        rhs = act("psit", y, act("phi", x, f, 2, 2), 2, 2)
        assert functional_is_zero(lhs - rhs, ib2)
        # phi and psi supercommute (the antipode-twisted row action)
        lhs = act("phi", x, act("psi", y, f, 2, 2), 2, 2)
        rhs = act("psi", y, act("phi", x, f, 2, 2), 2, 2)
        if px and py:
            rhs = rhs.scale(-1)
        assert functional_is_zero(lhs - rhs, ib2)


def test_omega_twist_identity(ib1):
    # tau_{omega~(u~), omega(v)} = -(-1)^{|u~|} tau_{u~, v} at the vector weight
    from queerdual.coord_alg import kappa_sign

    om = omega_map(2)

    def tau(a, b):
        return CoordFunctional.monomial((a,), (b,), RatFunc(kappa_sign((a,), (b,))))

    for a in index_range(2):
        for b in index_range(2):
            lhs = CoordFunctional(1)
            for c in index_range(2):
                co = om.entry((a,), (c,))
                if co.is_zero():
                    continue
                if index_parity(a):
                    co = -co
                for d in index_range(2):
                    cd = om.entry((d,), (b,))
                    if not cd.is_zero():
                        lhs = lhs + tau(c, d).scale(co * cd)
            rhs = tau(a, b).scale(-1 if index_parity(a) == 0 else 1)
            assert functional_is_zero(lhs - rhs, ib1)


def test_graded_component_dims():
    assert graded_component(1, 1, 0).dim == 1
    assert graded_component(1, 1, 1).dim == 2  # t_{1,1} and t_{-1,1}
    assert graded_component(1, 1, 2).dim == 2
    assert graded_component(2, 2, 1).dim == 8
    # monotone under rank increase at fixed degree
    assert graded_component(1, 1, 1).dim <= graded_component(2, 1, 1).dim <= graded_component(2, 2, 1).dim


def test_zero_weight_iso_report():
    report = zero_weight_iso(2, 2)
    assert report.ok, [c.to_dict() for c in report.failures()]
    assert report.derived_values["zw_clifford_square"] == 1
    assert report.derived_values["zw_hc_q_param_passes"] is False
    # the displayed (tensor) Clifford normalization cannot be transported
    assert report.derived_values["displayed_clifford_matches"] is False


@pytest.mark.parametrize("plant", [False, True])
def test_row_hc_commutation_is_plain_commutation_decided_as_in_qq(plant, monkeypatch, request):
    # 4 of the 10 twisted row generators and 2 of the 3 HC generators are odd,
    # and they commute on the nose: the check is x h = h x, not the graded one
    if plant:
        # the memoized row modules are built from sigma_twist: none may be
        # built under the plant and outlive it
        coord_alg._translation_rep.cache_clear()
        request.addfinalizer(coord_alg._translation_rep.cache_clear)
        twist = coord_alg.sigma_twist

        def planted(rep):
            out = twist(rep)
            w = out.space.labels[0]
            out.gen[(1, 1)] = out.gen[(1, 1)] + SOp.unit(out.space, out.space, w, w, Q)
            return out

        monkeypatch.setattr(coord_alg, "sigma_twist", planted)
    calls = []
    failures = coord_alg.relation_failures

    def recording(ops, instances, point):
        calls.append((ops, instances, failures(ops, instances, point)))
        return calls[-1][2]

    monkeypatch.setattr(coord_alg, "relation_failures", recording)
    report = zero_weight_iso(2, 2)
    ((ops, instances, failing),) = calls
    in_qq = [t for t, ((g, h), _, _) in enumerate(instances) if ops[("x", g)] @ ops[h] != ops[h] @ ops[("x", g)]]
    assert failing == in_qq and bool(failing) == plant
    assert [c.status for c in report.checks if c.name == "row_hc_commutation"] == ["fail" if plant else "pass"]


def test_zero_weight_iso_asymmetric():
    report = zero_weight_iso(1, 2)
    assert report.ok, [c.to_dict() for c in report.failures()]


def test_zero_weight_iso_smallest():
    # m = 1: no braid operators, pure Clifford and row-side checks
    report = zero_weight_iso(1, 1)
    assert report.ok, [c.to_dict() for c in report.failures()]


def _whole_vector_coordinates(comp, f):
    """The reference: reduce f's whole evaluation vector against the component."""
    res, combo = comp.ech.reduce(comp.eval_vector(f))
    assert not res
    return {comp._positions[idx]: c for idx, c in combo.items()}


@pytest.mark.parametrize("n,m,l", [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2), (2, 2, 2)])
def test_coordinates_match_whole_vector_reduction(n, m, l):
    comp = graded_component(n, m, l)
    rng = random.Random(11 * n + 7 * m + l)
    funcs = [CoordFunctional.monomial(*key) for key in comp.monomials]
    for (i, j) in generator_pairs(m):
        for key in comp.basis:
            funcs.append(act("phi", gen_word(i, j), CoordFunctional.monomial(*key), n, m).normalized())
    for _ in range(4):
        keys = rng.sample(comp.monomials, min(5, len(comp.monomials)))
        funcs.append(CoordFunctional(l, {key: RatFunc(rng.randint(-3, 3)) * Q ** rng.randint(-1, 1) for key in keys}))
    for f in funcs:
        assert comp.coordinates(f) == _whole_vector_coordinates(comp, f)


def test_coordinates_reject_a_non_member():
    # column letter 2 lies outside the rank-1 column range of the component
    comp = graded_component(2, 1, 2)
    outside = CoordFunctional.monomial((1, 1), (1, 2))
    for _ in range(2):  # the second call reads the memo
        with pytest.raises(ValueError):
            comp.coordinates(outside)
        with pytest.raises(ValueError):
            comp.coordinates(outside + CoordFunctional.monomial(*comp.basis[0]))
    with pytest.raises(DegreeMismatch):
        comp.coordinates(CoordFunctional.monomial((1,), (1,)))


def test_coordinates_when_non_member_residuals_cancel():
    # t_{1,2} and t_{-1,-2} both leave the rank-1 component, but they are equal
    comp = graded_component(2, 1, 1)
    f = CoordFunctional.monomial((1,), (2,)) - CoordFunctional.monomial((-1,), (-2,))
    assert comp.coordinates(f) == {}
    g = f + CoordFunctional.monomial((-1,), (-1,), Q)
    assert comp.coordinates(g) == {((1,), (1,)): Q}


def test_phi_component_rep_reduces_each_monomial_once(monkeypatch, fresh_components):
    from queerdual.superlinalg import Echelon

    calls = []
    reduce = Echelon.reduce

    def counting(self, vec):
        calls.append(1)
        return reduce(self, vec)

    monkeypatch.setattr(Echelon, "reduce", counting)
    rep, comp = phi_component_rep(2, 2, 2)
    reductions = len(calls)
    images = {
        mono
        for (i, j) in generator_pairs(2)
        for key in comp.basis
        for mono in act("phi", gen_word(i, j), CoordFunctional.monomial(*key), 2, 2).normalized().terms
    }
    # at most one reduction per distinct non-basis monomial, where one per image took 320
    assert reductions <= len(images - set(comp.basis)) <= 32


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (1, 3)])
def test_degree_zero_phi_action_is_the_counit(n, m):
    rep, comp = phi_component_rep(n, m, 0)
    unit = ((), ())
    assert comp.basis == [unit]
    assert comp.coordinates(CoordFunctional.unit().scale(Q)) == {unit: Q}
    for (i, j), op in rep.gen.items():
        assert op.entries == ({(unit, unit): ONE} if i == j else {})


@pytest.mark.parametrize("l", [0, 1])
def test_act_rejects_an_unknown_label_at_every_degree(l):
    f = CoordFunctional.unit() if l == 0 else CoordFunctional.monomial((1,), (1,))
    with pytest.raises(ValueError, match="unknown action label"):
        act("bogus", gen_word(1, 1), f, 1, 1)


def _words(rank: int, rng) -> list:
    """Every one-letter word, and two-letter words of both parities with a
    coefficient other than 1, some with a second term of the same parity."""
    pairs = generator_pairs(rank)
    words = [gen_word(i, j) for (i, j) in pairs]
    for t in range(6):
        letters = (rng.choice(pairs), rng.choice(pairs))
        parity = sum(index_parity(i) + index_parity(j) for i, j in letters) & 1
        word = [(letters, Q ** rng.randint(-1, 1) * rng.randint(1, 2))]
        if t % 2:
            same = [g for g in pairs if (index_parity(g[0]) + index_parity(g[1])) & 1 == parity]
            word.append(((rng.choice(same),), RatFunc(-1)))
        words.append(word)
    return words


def _functionals(n: int, m: int, l: int, rng) -> list:
    """Random degree-l monomials, with negative column letters (unnormalized
    terms), and one combination of them."""
    if l == 0:
        return [CoordFunctional.unit(), CoordFunctional.unit().scale(Q)]
    keys = [tuple(tuple(rng.choice(index_range(r)) for _ in range(l)) for r in (n, m)) for _ in range(6)]
    out = [CoordFunctional.monomial(*key) for key in keys]
    out.append(CoordFunctional(l, {key: Q ** rng.randint(-1, 1) * rng.choice([1, 2, -1]) for key in keys}))
    return out


@pytest.mark.parametrize("label", ["phi", "psi", "psit"])
@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
@pytest.mark.parametrize("l", [0, 1, 2])
def test_act_matches_the_one_loop_per_side_reference(label, n, m, l):
    rng = random.Random(100 * n + 10 * m + l)
    funcs = _functionals(n, m, l, rng)
    assert l == 0 or any(c < 0 for f in funcs for _, cols in f.terms for c in cols)
    for x in _words(m if label == "phi" else n, rng):
        for f in funcs:
            assert list(act(label, x, f, n, m).terms.items()) == list(act_reference(label, x, f, n, m).terms.items())


@pytest.mark.parametrize("n,m,l", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 2, 2), (2, 2, 2)])
def test_component_basis_does_not_depend_on_the_order_of_the_column_words(n, m, l):
    basis = set(graded_component(n, m, l).basis)
    assert set(zero_weight_first_basis(n, m, l)) == basis
    # the column words taken last to first, each keeping its rows order
    monos = normalized_monomials(n, m, l)
    words = list(dict.fromkeys(cols for _, cols in monos))
    assert set(greedy_basis(n, m, l, [key for cols in reversed(words) for key in monos if key[1] == cols])) == basis
    if l == m:  # zero_weight_iso's image_rank reads them off the basis
        assert {(rows, tuple(range(1, m + 1))) for rows, _ in monos} <= basis


def test_zero_weight_iso_and_howe_share_one_component(monkeypatch, fresh_components):
    built = []
    component = coord_alg.GradedComponent

    def counting(n, m, l, *args):
        built.append((n, m, l))
        return component(n, m, l, *args)

    monkeypatch.setattr(coord_alg, "GradedComponent", counting)
    assert zero_weight_iso(2, 2).ok and howe_verify(2, 2, 2).ok
    assert built.count((2, 2, 2)) == 1
    assert phi_component_rep(2, 2, 2)[1] is graded_component(2, 2, 2)
