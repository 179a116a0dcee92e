import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from queerdual import coord_alg, scalars, superlinalg
from queerdual.coord_alg import operator_image_basis
from queerdual.duality import FixtureModule, fixture_module, restrict_to_rows, sergeev_verify
from queerdual.hecke_clifford import hc_tensor_action
from queerdual.scalars import (
    ONE, P, RatFunc, Q, ZERO, _pmonomial, _ptrailing, identity_bound, kronecker_point, sample_mod_p,
)
from queerdual.superlinalg import (
    Echelon,
    _algebra_seeds,
    _closure,
    _nullities,
    _numbered,
    _odd_unit,
    _sylvester_rows,
    SOp,
    SuperSpace,
    certified_span,
    flatten_vector,
    graded_commutant,
    graded_tensor,
    index_parity,
    index_range,
    intertwiners,
    joint_kernel,
    kernel_basis,
    span_dim,
    submodule_echelon,
    supercommutator,
    tensor_space,
    unflatten_vector,
)
from queerdual.uq_queer import QueerRep, chevalley_ops, highest_weight_vectors, tensor_rep, vector_rep

from oracles import flatten_ops_rows, frac_rank, operator_algebra_span, specialize_op_rows, vectors_rows

V2 = SuperSpace.standard(2)
V1 = SuperSpace.standard(1)


def rand_op(rng, space, par):
    entries = {}
    for _ in range(6):
        r = rng.choice(space.labels)
        cands = [c for c in space.labels if (space.parity[r] + space.parity[c]) & 1 == par]
        c = rng.choice(cands)
        entries[(r, c)] = RatFunc((rng.randint(-3, 3), rng.randint(-2, 2)), (1,))
    return SOp(space, space, par, entries)


def test_space_basics():
    assert V2.dim == 4
    assert V2.labels == ((-2,), (-1,), (1,), (2,))
    assert index_range(2) == [-2, -1, 1, 2]
    assert index_parity(3) == 0 and index_parity(-3) == 1
    with pytest.raises(ValueError):
        index_parity(0)
    assert sorted(V2.parity.values()) == [0, 0, 1, 1]


def test_tensor_space_dims_and_parity():
    assert tensor_space(V2, 1) == V2
    W = tensor_space(V2, 2)
    assert W.dim == 16
    assert W.parity[(1, -1)] == 1
    assert W.parity[(-1, -2)] == 0
    assert tensor_space(SuperSpace.standard(3), 3).dim == 216


def test_parity_validation():
    with pytest.raises(ValueError):
        SOp(V2, V2, 0, {((1,), (-1,)): ONE})


def test_graded_tensor_identity_and_signs():
    I = SOp.identity(V2)
    assert graded_tensor(I, I) == SOp.identity(tensor_space(V2, 2))
    # odd (x) odd picks up the Koszul sign on odd first-slot vectors
    A = SOp.unit(V2, V2, (1,), (-1,))
    B = SOp.unit(V2, V2, (-1,), (1,))
    T = graded_tensor(A, B)
    assert T.entry((1, -1), (-1, 1)) == -ONE
    # even first-slot basis vector: sign +1
    C = SOp.unit(V2, V2, (-1,), (2,))  # odd, acting on even v_2
    T2 = graded_tensor(C, B)
    assert T2.entry((-1, -1), (2, 1)) == ONE


def test_koszul_coherence_random():
    rng = random.Random(11)
    for _ in range(40):
        pa, pb, pc, pd = (rng.randint(0, 1) for _ in range(4))
        A, B, C, D = (rand_op(rng, V2, p) for p in (pa, pb, pc, pd))
        lhs = graded_tensor(A, B) @ graded_tensor(C, D)
        rhs = graded_tensor(A @ C, B @ D)
        if pb and pc:
            rhs = rhs.scale(-1)
        assert lhs == rhs


def test_joint_kernel_edges():
    assert joint_kernel([SOp.identity(V2)]) == []
    kernel = joint_kernel([SOp.zero(V2)])
    assert len(kernel) == 4
    shift = SOp.unit(V1, V1, (1,), (-1,))
    ker = joint_kernel([shift])
    assert len(ker) == 1 and list(ker[0]) == [(1,)]


def test_joint_kernel_against_rank_oracle():
    rng = random.Random(5)
    for trial in range(10):
        ops = [rand_op(rng, V2, rng.randint(0, 1)) for _ in range(2)]
        ker = joint_kernel(ops)
        # exact re-check: every kernel vector is killed by every operator
        for vec in ker:
            for op in ops:
                assert op.apply(vec) == {}
        # independent dimension check at two rational points
        for point in (Fraction(3, 2), Fraction(-5, 7)):
            rows = []
            for op in ops:
                rows.extend(specialize_op_rows(op, point))
            rank = frac_rank(rows)
            assert len(ker) >= V2.dim - rank
            kr = frac_rank(vectors_rows(V2, ker, point))
            assert kr == len(ker)  # kernel vectors stay independent
            assert len(ker) == V2.dim - rank


def test_span_dim():
    v = {0: ONE, 3: Q}
    d, ech = span_dim([v, {k: 2 * x for k, x in v.items()}])
    assert d == 1
    assert span_dim([])[0] == 0
    assert ech.contains({0: 2 * ONE, 3: 2 * Q})
    assert not ech.contains({1: ONE})


def test_commutant_worked_example():
    # rank 1: commutant of {k1, kbar1} on the 2-dim space
    k1 = SOp(V1, V1, 0, {((1,), (1,)): Q, ((-1,), (-1,)): Q})
    kbar1 = SOp(V1, V1, 1, {((-1,), (1,)): ONE, ((1,), (-1,)): ONE})
    comm = graded_commutant([k1, kbar1])
    assert len(comm) == 2
    odd = [X for X in comm if X.par == 1]
    assert len(odd) == 1
    assert odd[0].entry((-1,), (1,)) == -odd[0].entry((1,), (-1,))
    for X in comm:
        for a in (k1, kbar1):
            assert supercommutator(X, a).is_zero()


def test_commutant_of_identity():
    assert len(graded_commutant([SOp.identity(V2)])) == 16


def test_commutant_members_supercommute_random():
    rng = random.Random(3)
    ops = [rand_op(rng, V1, 0), rand_op(rng, V1, 1)]
    for X in graded_commutant(ops):
        for a in ops:
            assert supercommutator(X, a).is_zero()


def test_operator_algebra_span():
    kbar1 = SOp(V1, V1, 1, {((-1,), (1,)): ONE, ((1,), (-1,)): ONE})
    ech, basis = operator_algebra_span([kbar1])
    assert ech.dim == 2  # kbar^2 = id
    # against the flattened-rank oracle
    rows = flatten_ops_rows(basis, Fraction(2, 3))
    assert frac_rank(rows) == 2


def test_echelon_coordinates():
    ech = Echelon(track=True)
    v1 = {0: ONE, 1: Q}
    v2 = {1: ONE}
    assert ech.insert(v1) and ech.insert(v2)
    res, combo = ech.reduce({0: 2 * ONE, 1: 2 * Q + 3 * ONE})
    assert not res
    assert combo == {0: 2 * ONE, 1: 3 * ONE}


def test_rref_kernel_random_oracle():
    rng = random.Random(8)
    for _ in range(15):
        ncols = 6
        rows = []
        for _ in range(4):
            rows.append({c: RatFunc((rng.randint(-3, 3),), (1,)) for c in rng.sample(range(ncols), 3)})
        ker = kernel_basis([dict(r) for r in rows], ncols)
        for vec in ker:
            for row in rows:
                acc = ZERO
                for c, coef in row.items():
                    acc = acc + coef * vec.get(c, ZERO)
                assert acc.is_zero()
        point = Fraction(7, 5)
        dense = [[row.get(c, ZERO).specialize(point) for c in range(ncols)] for row in rows]
        assert len(ker) == ncols - frac_rank(dense)


def test_restrict_invariance():
    op = SOp(V2, V2, 0, {((1,), (1,)): Q, ((2,), (2,)): ONE, ((2,), (1,)): ONE})
    sub = op.restrict([(1,), (2,)])
    assert sub.dom.dim == 2
    with pytest.raises(ValueError):
        op.restrict([(1,)])  # leaks to (2,)


def test_scale_keeps_ints_as_ints():
    # an int scalar scales a Q(q) operator as its RatFunc does
    op = SOp(V2, V2, 0, {((1,), (1,)): Q, ((2,), (1,)): ONE})
    minus3 = RatFunc(-3)
    assert op.scale(-3) == op.scale(minus3) == SOp(V2, V2, 0, {((1,), (1,)): Q * minus3, ((2,), (1,)): minus3})
    assert op.scale(0) == op.scale(ZERO) and op.scale(0).is_zero()


def test_scale_by_plus_minus_one():
    rng = random.Random(5)
    op = rand_op(rng, V2, 1)
    for s in (1, ONE):
        assert op.scale(s) is op
    for s in (-1, -ONE):
        assert op.scale(s) == -op


# -- kernel_basis: GF(p) row selection, exact result ----------------------------


def exact_kernel(rows, ncols):
    """The kernel read off the reduced row echelon form of all rows: kernel_basis
    without row selection."""
    reduced = span_dim(rows)[1].rows
    pivots = {col for col, _ in reduced}
    basis = []
    for free in range(ncols):
        if free not in pivots:
            vec = {free: ONE}
            for col, row in reduced:
                if free in row:
                    vec[col] = -row[free]
            basis.append(vec)
    return basis


def rand_rational(rng):
    # a genuinely rational value: the denominator has two terms
    return RatFunc((rng.randint(-3, 3), rng.randint(-2, 2)), (rng.randint(1, 3), rng.choice((-1, 1))))


def redundant_system(rng, ncols, rank, nrows):
    """nrows sparse rows spanning at most `rank` dimensions, with rational entries."""
    basis = [{c: rand_rational(rng) for c in rng.sample(range(ncols), 3)} for _ in range(rank)]
    rows = [dict(b) for b in basis]
    while len(rows) < nrows:
        row: dict = {}
        for b in rng.sample(basis, min(2, rank)):
            coef = rand_rational(rng)
            for c, v in b.items():
                row[c] = row.get(c, ZERO) + coef * v
        rows.insert(rng.randrange(len(rows) + 1), row)
    return rows


def counting_eliminations(monkeypatch):
    """Record (rows received, their rank) for each exact elimination."""
    calls = []
    real = superlinalg._exact_kernel

    def counting(rows, ncols):
        out = real(rows, ncols)
        calls.append((len(rows), ncols - len(out)))
        return out

    monkeypatch.setattr(superlinalg, "_exact_kernel", counting)
    return calls


@pytest.mark.parametrize("seed", range(12))
def test_kernel_basis_equals_exact_kernel_on_redundant_rows(seed, monkeypatch):
    rng = random.Random(seed)
    ncols = rng.randint(4, 8)
    rows = redundant_system(rng, ncols, rng.randint(1, ncols - 1), rng.randint(2 * ncols, 3 * ncols))
    expected = exact_kernel([dict(r) for r in rows], ncols)
    calls = counting_eliminations(monkeypatch)
    assert kernel_basis(rows, ncols) == expected
    (received, rank), = calls  # one elimination, on a row basis only
    assert received == rank == ncols - len(expected) < len(rows)


def test_kernel_basis_falls_back_when_the_point_merges_rows(monkeypatch):
    # at q = 5 the two rows coincide mod p, though they are independent over Q(q)
    f = RatFunc((-20, 0, 1), (-4, 1))  # (q^2 - 20) / (q - 4), which is 5 at q = 5
    rows = [{0: ONE, 1: Q}, {0: ONE, 1: f}]
    monkeypatch.setattr(superlinalg, "sample_mod_p", lambda rng, values: (5, {v: v.residue(5, P) for v in values}))
    calls = counting_eliminations(monkeypatch)
    assert kernel_basis([dict(r) for r in rows], 3) == exact_kernel(rows, 3) == [{2: ONE}]
    assert calls == [(1, 1), (2, 2)]  # the kept row alone, then the fallback on all rows


def test_kernel_basis_checks_the_dropped_rows_at_the_point_of_their_own_values(monkeypatch):
    # the kernel of the kept row {0: 1, 1: q} holds {0: -q, 1: 1}; a dropped row
    # {0: 1, 1: 2q - X0} meets it in q - X0, a nonzero polynomial that vanishes
    # at X0, the Kronecker point of the entries without that row
    unperturbed = {ONE, Q, -Q}
    X0 = kronecker_point(unperturbed, identity_bound(unperturbed, factors=2, terms=2)).q
    rows = [{0: ONE, 1: Q}, {0: ONE, 1: 2 * Q - X0}]
    assert (2 * Q - X0 - Q).specialize(X0) == 0
    # at q = X0 the two rows coincide mod p: the second is dropped
    monkeypatch.setattr(superlinalg, "sample_mod_p", lambda rng, values: (X0, {v: v.residue(X0, P) for v in values}))
    calls = counting_eliminations(monkeypatch)
    assert kernel_basis([dict(r) for r in rows], 3) == exact_kernel(rows, 3) == [{2: ONE}]
    assert calls == [(1, 1), (2, 2)]  # the kept row alone, then the fallback on all rows


def test_kernel_basis_eliminates_no_block_of_full_column_rank(monkeypatch):
    # work guard: block {0, 1} keeps two rows in GF(p), as many as its columns,
    # so its kernel is {0} (rank_p <= rank <= ncols); only block {2, 3} is eliminated
    rows = [{0: ONE, 1: Q}, {0: Q, 1: ONE}, {0: ONE + Q, 1: ONE + Q}, {2: ONE, 3: Q + 1}]
    expected = exact_kernel([dict(r) for r in rows], 4)
    assert expected == [{3: ONE, 2: -(Q + 1)}]
    calls = counting_eliminations(monkeypatch)
    assert kernel_basis(rows, 4, [0, 0, 1, 1]) == expected
    assert calls == [(1, 1)]


def test_dropped_row_bound_covers_the_fixture_dot_products(monkeypatch):
    # every dot product of a dropped row r with a kernel vector, its terms
    # cleared by M^2 (M the product of the distinct denominators), has 1-norm at
    # most the height H of identity_bound(entries, factors=2, terms=len(r)) < X;
    # the rows are those the fixture's intertwiner solve drops
    calls = []
    real = superlinalg._annihilates

    def recording(rows, basis, ncols):
        calls.append((rows, basis))
        return real(rows, basis, ncols)

    monkeypatch.setattr(superlinalg, "_annihilates", recording)
    assert fixture_module()[1].ok
    assert calls
    for rows, basis in calls:
        values = {v for vec in (*rows, *basis) for v in vec.values()}
        bound = identity_bound(values, factors=2, terms=max(map(len, rows)))
        assert bound.height < kronecker_point(values, bound).q
        M = ONE
        for b in {v.den[_ptrailing(v.den):] for v in values} - {(1,)}:
            M = M * RatFunc(b)
        for r in rows:
            for vec in basis:
                cleared = [r[k] * vec[k] * M * M for k in r.keys() & vec.keys()]
                assert all(_pmonomial(t.den)[1] == 1 for t in cleared)  # Laurent, integer coefficients
                assert sum(abs(a) for t in cleared for a in t.num) <= bound.height


class ScanningEchelon(Echelon):
    """Echelon with the reduction that scans every stored row, in pivot order."""

    def _reduce(self, vec, combo):
        vec = dict(vec)
        for idx, (pivot, row) in enumerate(self.rows):
            c = vec.get(pivot)
            if c is None or c.is_zero():
                continue
            superlinalg._sub_multiple(vec, c, row)
            if combo is not None:
                superlinalg._sub_multiple(combo, c, self.combos[idx])
        return {k: v for k, v in vec.items() if not v.is_zero()}, combo


@pytest.mark.parametrize("seed", range(8))
def test_echelon_pivot_map_matches_scanning_reduction(seed):
    rng = random.Random(100 + seed)
    ncols = rng.randint(4, 8)
    rows = redundant_system(rng, ncols, rng.randint(1, ncols - 1), rng.randint(ncols, 2 * ncols))
    ech, scan = Echelon(track=True), ScanningEchelon(track=True)
    for r in rows:
        probe = {c: rand_rational(rng) for c in rng.sample(range(ncols), 3)}
        for vec in (r, probe):
            res, combo = ech.reduce(vec)
            want_res, want_combo = scan.reduce(vec)
            assert list(res.items()) == list(want_res.items())
            assert list(combo.items()) == list(want_combo.items())
        assert ech.insert(r) == scan.insert(r)
        assert ech.rows == scan.rows and ech.combos == scan.combos


def test_echelon_and_kernel_over_gf_p():
    # the int echelon on residues mod P: -1 is P - 1
    ech = Echelon(track=True, p=P)
    assert ech.insert({0: 1}) and ech.insert({0: 3, 1: 2})
    res, combo = ech.reduce({0: 5, 1: 4})
    assert not res and combo == {0: P - 1, 1: 2}
    # the exact kernel carries ONE at each free column
    assert kernel_basis([{0: ONE, 1: RatFunc(2)}], 2) == [{1: ONE, 0: RatFunc(-2)}]
    assert kernel_basis([{1: RatFunc(3)}], 3) == [{0: ONE}, {2: ONE}]


def test_commutant_of_diagonal_ops():
    # diagonal generators give no constraint rows: each vector is ONE at its free unknown
    for ops, dim in (
        ([SOp.identity(V1)], 4),
        ([SOp(V1, V1, 0, {((-1,), (-1,)): ONE, ((1,), (1,)): RatFunc(2)})], 2),
    ):
        comm = graded_commutant(ops)
        assert len(comm) == dim
        assert all(v == ONE for X in comm for v in X.entries.values())
        assert all(supercommutator(X, a).is_zero() for X in comm for a in ops)
    # a matrix unit leaves the other parity block without rows
    lab = V1.labels[0]
    assert joint_kernel([SOp.unit(V1, V1, lab, lab)]) == [{V1.labels[1]: ONE}]


def test_joint_kernel_with_a_weight():
    # d has eigenvalue 3 on every label but (-2,); the shift sends (2,) to (1,)
    d = SOp(V2, V2, 0, {(lab, lab): RatFunc(5 if lab == (-2,) else 3) for lab in V2.labels})
    shift = SOp.unit(V2, V2, (1,), (2,))
    assert joint_kernel([shift], [(d, RatFunc(3))]) == [{(1,): ONE}, {(-1,): ONE}]
    assert joint_kernel([shift], [(d, RatFunc(5))]) == [{(-2,): ONE}]
    assert joint_kernel([shift], [(d, RatFunc(4))]) == []
    # a zero eigenvalue selects the labels where the diagonal operator vanishes
    h = SOp(V2, V2, 0, {((2,), (2,)): ONE, ((-2,), (-2,)): ONE})
    assert joint_kernel([shift], [(h, ZERO)]) == [{(1,): ONE}, {(-1,): ONE}]


def reference_intertwiners(A_ops, B_ops):
    """intertwiners without weight blocks or row selection: every unknown, every row."""
    cod, dom = A_ops[0].dom, B_ops[0].dom
    out = []
    for p in (0, 1):
        pairs = [(r, c) for r in cod.labels for c in dom.labels if (cod.parity[r] + dom.parity[c]) & 1 == p]
        numbered = _numbered(pairs)
        rows = []
        for a, b in zip(A_ops, B_ops):
            rows.extend(_sylvester_rows(a, b, numbered, -1 if (p and a.par) else 1))
        out.extend(SOp(dom, cod, p, {pairs[i]: v for i, v in flat.items()}) for flat in exact_kernel(rows, len(pairs)))
    return out


def test_weight_block_commutant_matches_the_full_system():
    rng = random.Random(4)
    W = tensor_space(V1, 2)
    # diagonal generators that tell some labels apart and leave others tied
    d1 = SOp(W, W, 0, {(lab, lab): Q if lab[0] > 0 else ONE for lab in W.labels})
    d2 = SOp(W, W, 0, {((1, 1), (1, 1)): Q, ((-1, -1), (-1, -1)): Q})
    for ops in ([d1], [d1, rand_op(rng, W, 1)], [d1, d2, rand_op(rng, W, 0)], [rand_op(rng, W, 0)]):
        assert graded_commutant(ops) == reference_intertwiners(ops, ops)
    # two different families: the rank-2 fixture against the ambient submodule of V^{(x)2}
    rep = tensor_rep(vector_rep(2), 2)
    target = chevalley_ops(restricted(rep, [{(1, 1): ONE}]))
    fixture = FixtureModule().chevalley()
    solve_on = [("k", 1), ("k", 2), ("e", 1), ("f", 1), ("ebar", 1)]
    A_ops, B_ops = [target[k] for k in solve_on], [fixture[k] for k in solve_on]
    got = intertwiners(A_ops, B_ops)
    assert got == reference_intertwiners(A_ops, B_ops)
    assert [X.par for X in got] == [0, 1]  # theta, and an odd one: L((2)) is of type Q
    assert all(X.dom == fixture[("k", 1)].dom and X.cod == target[("k", 1)].dom for X in got)


def restrict_by_reduction(rep, basis):
    """The submodule's generators, one exact reduction per generator image."""
    labels = [f"s{k}" for k in range(len(basis))]
    space = SuperSpace(labels, {lab: rep.space.parity[next(iter(v))] for lab, v in zip(labels, basis)})
    ech = Echelon(track=True)
    for vec in basis:
        assert ech.insert(flatten_vector(rep.space, vec))
    gen = {}
    for key, op in rep.gen.items():
        entries = {}
        for k, vec in enumerate(basis):
            res, combo = ech.reduce(flatten_vector(rep.space, op.apply(vec)))
            assert not res
            entries.update({(labels[j], labels[k]): c for j, c in combo.items()})
        gen[key] = SOp(space, space, op.par, entries)
    return QueerRep(rep.spec, space, gen)


def restricted(rep, seeds):
    """The representation on the submodule the seeds generate, read off its
    certified rows by ``restrict_to_rows``, and equal to the restriction by reduction."""
    rows = submodule_echelon(list(rep.gen.values()), seeds)[0].rows
    sub = restrict_to_rows(rep, rows)
    assert sub.gen == restrict_by_reduction(rep, [unflatten_vector(rep.space, dict(row)) for _, row in rows]).gen
    return sub


def census_top_block():
    """The generators on the dim-12 submodule of V^{(x)3}, rank 2, at weight (3, 0)."""
    rep = tensor_rep(vector_rep(2), 3)
    seed = next(v for v in highest_weight_vectors(rep, (3, 0)) if all(rep.space.parity[x] == 0 for x in v))
    sub = restricted(rep, [seed])
    assert sub.space.dim == 12
    return list(sub.gen.values())


def test_exact_elimination_sees_only_a_row_basis(monkeypatch):
    # work guard: the redundant rows of a commutant system never reach exact elimination
    ops = census_top_block()
    space = ops[0].dom
    labels, par = space.labels, space.parity
    calls = counting_eliminations(monkeypatch)
    for p in (0, 1):
        pairs = [(r, c) for r in labels for c in labels if (par[r] + par[c]) & 1 == p]
        numbered = _numbered(pairs)
        rows = [r for a in ops for r in _sylvester_rows(a, a, numbered, -1 if (p and a.par) else 1) if r]
        assert (len(rows), len(pairs)) == (625, 72)
        assert len(kernel_basis(rows, len(pairs))) == 1
    assert calls == [(71, 71), (71, 71)]
    # graded_commutant numbers only the weight-block unknowns, and eliminates a row basis of those
    calls.clear()
    comm = graded_commutant(ops)
    assert sorted(X.par for X in comm) == [0, 1]  # type Q: one even and one odd endomorphism
    assert len(calls) == 2 and all(received == rank for received, rank in calls)
    assert comm == intertwiners(ops, ops)


# ---------------------------------------------------------------------------
# GF(p) bounds and certified spans
# ---------------------------------------------------------------------------

def test_commutant_and_span_over_gf_p():
    queer = list(tensor_rep(vector_rep(2), 2).gen.values())
    hc = hc_tensor_action(2, 2).generators()
    # the GF(p) nullities, upper bounds on the commutants' dimensions, reach the
    # exact dimensions, (even, odd)
    for ops, dims in ((queer, [4, 4]), (hc, [16, 16])):
        _, image = sample_mod_p(random.Random(0), {v for op in ops for v in op.entries.values()})
        assert _nullities(ops, image) == dims
        assert [sum(X.par == p for X in graded_commutant(ops)) for p in (0, 1)] == dims
    # and the residue closure the exact dimensions of the spans
    for ops, dim in ((queer, 32), (hc, 8)):
        seeds = _algebra_seeds(ops)
        _, image = sample_mod_p(random.Random(0), {v for op in seeds for v in op.entries.values()})
        ech, basis, words = _closure(ops, seeds, image=image)
        assert ech.dim == len(basis) == len(words) == dim == operator_algebra_span(ops)[0].dim
        assert words[0] == (None, 0)  # the identity


@pytest.fixture
def fresh_image_basis():
    """operator_image_basis with an empty memo, emptied again afterwards."""
    coord_alg._image_basis.cache_clear()
    yield operator_image_basis
    coord_alg._image_basis.cache_clear()


@pytest.mark.parametrize("n,l", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_certified_image_basis_equals_the_exact_closure(n, l, fresh_image_basis):
    ib = fresh_image_basis(n, l)
    _, exact = operator_algebra_span(list(tensor_rep(vector_rep(n), l).gen.values()))
    assert ib.certified_by == "gf_p"
    assert [(op.par, op.entries) for op in ib.ops] == [(op.par, op.entries) for op in exact]
    assert fresh_image_basis(n, l) is ib  # memoized


def test_bounds_that_disagree_fall_back_to_exact_elimination(monkeypatch, fresh_image_basis):
    # at q = 1 the word rank drops and the commutant nullity grows: no certificate
    monkeypatch.setattr(superlinalg, "sample_mod_p", lambda rng, values: (1, {v: v.residue(1, P) for v in values}))
    ib = fresh_image_basis(2, 2)
    _, exact = operator_algebra_span(list(tensor_rep(vector_rep(2), 2).gen.values()))
    assert ib.certified_by == "exact" and ib.dim == 32
    assert [(op.par, op.entries) for op in ib.ops] == [(op.par, op.entries) for op in exact]


def test_a_certified_span_rebuilds_its_words_only_when_its_basis_is_read(monkeypatch):
    calls = []
    rebuild = superlinalg._rebuild

    def counting(gens, seeds, words):
        calls.append(len(words))
        return rebuild(gens, seeds, words)

    monkeypatch.setattr(superlinalg, "_rebuild", counting)
    queer = list(tensor_rep(vector_rep(2), 2).gen.values())
    span = certified_span(queer, hc_tensor_action(2, 2).generators())
    assert span.certified_by == "gf_p" and span.dim == 32 and calls == []
    basis = span.basis
    assert calls == [32] and span.basis is basis
    # the operators the eager rebuild of the same words gave, in the same order
    eager = rebuild(queer, _algebra_seeds(queer), span.words)
    assert [(op.par, op.entries) for op in basis] == [(op.par, op.entries) for op in eager]


def test_failed_premise_never_certifies():
    # D does not supercommute with the odd swap C, though span{1, D} has the
    # dimension of C's commutant: only the premise stops a false certificate
    C = SOp(V1, V1, 1, {((-1,), (1,)): ONE, ((1,), (-1,)): ONE})
    D = SOp(V1, V1, 0, {((-1,), (-1,)): ONE, ((1,), (1,)): Q})
    assert len(graded_commutant([C])) == 2 == len(operator_algebra_span([D])[1])
    span = certified_span([D], [C])
    assert span.certified_by == "exact" and span.dim == 2 and span.echelon.dim == 2
    J = SOp(V1, V1, 1, {((-1,), (1,)): ONE, ((1,), (-1,)): -ONE})  # supercommutes with C
    assert certified_span([J], [C]).certified_by == "gf_p"


def test_certified_image_basis_does_no_exact_elimination(monkeypatch, fresh_image_basis):
    # work guard: elimination runs in GF(p) only, and the exact rebuild multiplies
    # Laurent polynomials, so no polynomial gcd is taken
    exact_inserts, gcds = [], []
    insert, pgcd = Echelon.insert, scalars._pgcd

    def counting_insert(self, vec):
        exact_inserts.extend(1 for v in vec.values() if isinstance(v, RatFunc))
        return insert(self, vec)

    def counting_pgcd(a, b):
        gcds.append(1)
        return pgcd(a, b)

    monkeypatch.setattr(Echelon, "insert", counting_insert)
    monkeypatch.setattr(scalars, "_pgcd", counting_pgcd)
    assert fresh_image_basis(2, 2).dim == 32
    assert exact_inserts == [] and gcds == []


def _recorded_closures(monkeypatch):
    """(limit, kept words, words of the same closure run to the end) for every
    closure that certified_span runs with a limit: the closure on residues."""
    calls = []
    closure = superlinalg._closure

    def recording(gens, seeds, limit=None, image=None):
        out = closure(gens, seeds, limit, image)
        if limit is not None:
            assert image is not None
            calls.append((limit, out[2], closure(gens, seeds, image=image)[2]))
        return out

    monkeypatch.setattr(superlinalg, "_closure", recording)
    return calls


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_gf_p_closure_stops_at_the_nullity_with_the_full_closures_words(n, m, monkeypatch):
    calls = _recorded_closures(monkeypatch)
    queer = list(tensor_rep(vector_rep(n), m).gen.values())
    hc = hc_tensor_action(n, m).generators()
    for gens, partners in ((queer, hc), (hc, queer)):
        assert certified_span(gens, partners).certified_by == "gf_p"
    assert len(calls) == 2
    for limit, kept, full in calls:
        assert kept == full and len(kept) == limit


def test_gf_p_closure_runs_to_the_end_when_the_bounds_differ(monkeypatch):
    # at q = 1 the word rank stays below the nullity: the closure never reaches
    # its limit, and the exact path returns the exact closure
    monkeypatch.setattr(superlinalg, "sample_mod_p", lambda rng, values: (1, {v: v.residue(1, P) for v in values}))
    calls = _recorded_closures(monkeypatch)
    queer = list(tensor_rep(vector_rep(2), 2).gen.values())
    span = certified_span(queer, hc_tensor_action(2, 2).generators())
    ((limit, kept, full),) = calls
    assert kept == full and len(kept) < limit
    _, exact = operator_algebra_span(queer)
    assert span.certified_by == "exact"
    assert [(op.par, op.entries) for op in span.basis] == [(op.par, op.entries) for op in exact]


# -- the odd unit: one parity of the commutant system


def sampled(gens, partners):
    """The rng and the residues certified_span draws for gens against partners:
    the point, then the odd unit's coefficients from the same rng."""
    rng = random.Random(0)
    _, image = sample_mod_p(rng, {v for op in (*_algebra_seeds(gens), *partners) for v in op.entries.values()})
    return rng, image


def exact_combination(gens, coeffs):
    """sum_i c_i g_i over the odd generators, exactly in Q(q)."""
    odd = [g for g in gens if g.par]
    return sum((g.scale(RatFunc((c,))) for c, g in zip(coeffs, odd)), SOp.zero(odd[0].dom, par=1))


def exact_rank(op):
    """The rank of op over Q(q), by exact elimination of its columns."""
    cols: dict = {}
    for (r, c), v in op.entries.items():
        cols.setdefault(c, {})[op.cod.pos[r]] = v
    return span_dim(list(cols.values()))[0]


def recorded_systems(monkeypatch):
    """The parities of every commutant system built on residues."""
    calls = []
    systems = superlinalg._intertwiner_systems

    def recording(A_ops, B_ops, parities=(0, 1), image=None):
        if image is not None:
            calls.append(tuple(parities))
        return systems(A_ops, B_ops, parities, image)

    monkeypatch.setattr(superlinalg, "_intertwiner_systems", recording)
    return calls


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)])
def test_the_battery_families_have_an_odd_unit(n, m):
    queer = list(tensor_rep(vector_rep(n), m).gen.values())
    hc = hc_tensor_action(n, m).generators()
    for gens, partners in ((queer, hc), (hc, queer)):
        rng, image = sampled(gens, partners)
        coeffs = _odd_unit(gens, image, rng)
        assert coeffs is not None
        # a rank at a rational point is at most the rank over Q(q)
        J = exact_combination(gens, coeffs)
        assert frac_rank(specialize_op_rows(J, Fraction(3))) == J.dom.dim


V21 = SuperSpace.named(["a", "b", "x"], ["x"])


@pytest.mark.parametrize(
    "gens,partners",
    [
        # no odd generator: the Hecke generators against the queer image
        (hc_tensor_action(1, 2).t_ops, list(tensor_rep(vector_rep(1), 2).gen.values())),
        # one nilpotent odd matrix unit, against itself and against the identity
        ([SOp.unit(V1, V1, (1,), (-1,))], [SOp.unit(V1, V1, (1,), (-1,))]),
        ([SOp.unit(V21, V21, "a", "x")], [SOp.identity(V21)]),
    ],
)
def test_with_no_odd_unit_both_parities_are_solved(gens, partners, monkeypatch):
    calls = recorded_systems(monkeypatch)
    rng, image = sampled(gens, partners)
    assert _odd_unit(gens, image, rng) is None
    span = certified_span(gens, partners)
    assert span.supercommutes and calls == [(0, 1)]
    _, exact = operator_algebra_span(gens)
    assert [(op.par, op.entries) for op in span.basis] == [(op.par, op.entries) for op in exact]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), count=st.integers(1, 3), space=st.sampled_from([V1, V2, V21]))
def test_an_odd_unit_at_the_point_has_full_rank_over_qq(seed, count, space):
    rng = random.Random(seed)
    gens = [rand_op(rng, space, 1) for _ in range(count)]
    rng, image = sampled(gens, [])
    coeffs = _odd_unit(gens, image, rng)
    if coeffs is not None:
        assert exact_rank(exact_combination(gens, coeffs)) == space.dim


def test_certified_spans_build_only_even_commutant_systems(monkeypatch, fresh_image_basis):
    calls = recorded_systems(monkeypatch)
    report = sergeev_verify(2, 2)
    assert report.ok and report.derived_values["queer_image_certified_by"] == "gf_p"
    assert calls == [(0,), (0,)]
    calls.clear()
    assert fresh_image_basis(2, 2).certified_by == "gf_p" and calls == [(0,)]
