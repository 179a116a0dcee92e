import random
from fractions import Fraction

import pytest

from queerdual.scalars import ONE, ModP, RatFunc, Q, ZERO
from queerdual.superlinalg import (
    Echelon,
    SOp,
    SuperSpace,
    graded_commutant,
    graded_tensor,
    index_parity,
    index_range,
    joint_kernel,
    kernel_basis,
    operator_algebra_span,
    rref,
    span_dim,
    supercommutator,
    tensor_space,
)

from oracles import flatten_ops_rows, frac_rank, specialize_op_rows, vectors_rows

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
    even, odd = V2.even_odd_dims()
    assert (even, odd) == (2, 2)


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
    d, ech, _ = span_dim([v, {k: 2 * x for k, x in v.items()}])
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
    coords = {j: -c for j, c in combo.items()}
    assert coords == {0: 2 * ONE, 1: 3 * ONE}


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
    # an int scalar must not be promoted to a RatFunc: GF(p) operators scale too
    assert SOp.identity(V2, ModP(1)).scale(-1) == SOp.identity(V2, ModP(-1))
    assert SOp.identity(V2, ModP(1)).scale(0).is_zero()
    op = SOp(V2, V2, 0, {((1,), (1,)): Q, ((2,), (1,)): ONE})
    minus3 = RatFunc(-3)
    assert op.scale(-3) == op.scale(minus3) == SOp(V2, V2, 0, {((1,), (1,)): Q * minus3, ((2,), (1,)): minus3})
    assert op.scale(0) == op.scale(ZERO) and op.scale(0).is_zero()
