"""GF(p) on plain-int residues: the int echelon against sympy's GF(p) row
reduction, the commutant systems and their rows, split into connected blocks,
and the residue closure against its definition and sympy's GF(p) closure."""

import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from queerdual import scalars
from queerdual.hecke_clifford import hc_tensor_action
from queerdual.scalars import ONE, P, sample_mod_p
from queerdual.superlinalg import (
    Echelon,
    SOp,
    _algebra_seeds,
    _closure,
    _components,
    _intertwiner_systems,
    _numbered,
    _nullities,
    _sylvester_rows,
    graded_commutant,
    point_map,
)
from queerdual.uq_queer import chevalley_ops, highest_weight_vectors, tensor_rep, vector_rep, weight_spaces

from test_certified_census import reference_families
from test_superlinalg import reference_intertwiners

CONFIGS = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)]


def families(n, m):
    """The queer and the Hecke-Clifford generators on V^{(x)m}, V of rank n."""
    return {"queer": list(tensor_rep(vector_rep(n), m).gen.values()), "hc": hc_tensor_action(n, m).generators()}


def residues(*families):
    """The residues mod P of every entry of the families, at the point the engine samples."""
    return sample_mod_p(random.Random(0), {v for ops in families for op in ops for v in op.entries.values()})[1]


def full_system_nullities(ops, image, parities=(0, 1)):
    """The nullity per parity of the whole commutant system, every row in one
    int echelon in the order the systems list them: no blocks, no row order."""
    out = []
    for _, pairs, rows, _ in _intertwiner_systems(ops, ops, parities, image):
        ech = Echelon(p=P)
        for row in rows:
            ech.insert(row)
        out.append(len(pairs) - ech.dim)
    return out


def plant_join(ops):
    """ops plus one matrix unit between the first labels of two components."""
    space = ops[0].dom
    comp = _components(ops, space.labels)
    r = space.labels[0]
    c = next(lab for lab in space.labels if comp[lab] != comp[r])
    return [*ops, SOp.unit(space, space, r, c, ONE)]


# -- blocks


@pytest.mark.parametrize("n,m", CONFIGS)
def test_block_nullities_equal_the_full_system_nullities(n, m):
    for name, ops in families(n, m).items():
        image = residues(ops)
        full = [full_system_nullities(ops, image, (p,)) for p in (0, 1)]  # the whole system, one parity at a time
        assert [_nullities(ops, image, (p,)) for p in (0, 1)] == full, name
        assert _nullities(ops, image) == full[0] + full[1], name


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (1, 3)])
def test_twice_the_even_nullity_is_the_whole_nullity(n, m):
    # at the point certified_span samples for each span against these partners
    fam = families(n, m)
    for gens, partners in ((fam["hc"], fam["queer"]), (fam["queer"], fam["hc"])):
        image = residues(gens, partners)
        assert 2 * _nullities(partners, image, (0,))[0] == sum(_nullities(partners, image))


def test_the_split_separates_the_content_classes():
    # the Hecke-Clifford generators keep the multiset of |indices|; the queer ones join every label
    for (n, m), count in {(1, 2): 1, (2, 2): 3, (2, 3): 4}.items():
        fam = families(n, m)
        space = fam["hc"][0].dom
        assert len(set(_components(fam["hc"], space.labels).values())) == count
        assert len(set(_components(fam["queer"], space.labels).values())) == 1


def test_a_planted_join_gives_the_full_system_result():
    hc = families(2, 2)["hc"]
    planted = plant_join(hc)
    labels = hc[0].dom.labels
    assert len(set(_components(planted, labels).values())) == len(set(_components(hc, labels).values())) - 1
    image = residues(planted)
    assert _nullities(planted, image) == full_system_nullities(planted, image)
    assert _nullities(planted, image) != _nullities(hc, image)  # the join changes the commutant


def test_graded_commutant_is_unchanged_entry_for_entry():
    hc = families(2, 2)["hc"]
    for ops in (families(1, 2)["queer"], families(1, 3)["hc"], hc, plant_join(hc)):
        got = graded_commutant(ops)
        want = reference_intertwiners(ops, ops)  # one system per parity, every unknown and every row
        assert [(X.par, list(X.entries.items())) for X in got] == [(X.par, list(X.entries.items())) for X in want]


def scanning_sylvester_rows(A, B, pairs, sign, image):
    """The constraint rows of X B = sign * A X built by scanning every row label
    for each entry of B and every column label for each entry of A."""
    scalar = (lambda v: v) if image is None else image.__getitem__
    vindex = {rc: i for i, rc in enumerate(pairs)}
    by_rc: dict = {}
    for (k, c), v in B.entries.items():
        w = None
        for r in A.dom.labels:
            i = vindex.get((r, k))
            if i is not None:
                if w is None:
                    w = -scalar(v) if sign > 0 else scalar(v)
                row = by_rc.setdefault((r, c), {})
                row[i] = w if i not in row else row[i] + w
    for (r, k), v in A.entries.items():
        w = scalar(v)
        for c in B.dom.labels:
            i = vindex.get((k, c))
            if i is not None:
                row = by_rc.setdefault((r, c), {})
                row[i] = w if i not in row else row[i] + w
    keep = (lambda v: v) if image is None else (lambda v: v % P)
    return [{i: x for i, v in row.items() if (x := keep(v))} for row in by_rc.values()]


@pytest.mark.parametrize("k", range(5))
def test_grouped_unknowns_give_the_scanned_rows(k):
    # the same rows in the same order, each with the same key order: row order drives elimination time
    A_ops, B_ops = reference_families()[k]
    for image in (None, residues(A_ops, B_ops)):
        for p, pairs, _, _ in _intertwiner_systems(A_ops, B_ops, image=image):
            numbered = _numbered(pairs)
            for a, b in zip(A_ops, B_ops):
                sign = -1 if (p and a.par) else 1
                got = _sylvester_rows(a, b, numbered, sign, image)
                want = scanning_sylvester_rows(a, b, pairs, sign, image)
                assert [list(row.items()) for row in got] == [list(row.items()) for row in want]


# -- the int echelon against sympy's GF(p) row reduction


def gf_p_rref(vectors, p):
    """The nonzero rows (pivot, {column: residue}) of the reduced row echelon
    form of the vectors (dicts over integer columns) over GF(p), by sympy."""
    K = GF(p)
    ncols = 1 + max((k for vec in vectors for k in vec), default=0)
    entries = {i: {k: K(v) for k, v in vec.items() if v % p} for i, vec in enumerate(vectors)}
    matrix = DomainMatrix({i: row for i, row in entries.items() if row}, (len(vectors), ncols), K)
    reduced, pivots = matrix.rref()
    rows = [{} for _ in pivots]
    for (i, k), x in reduced.to_dok().items():
        if int(x) % p:
            rows[i][k] = int(x) % p
    return list(zip(pivots, rows))


def gf_p_rank(vectors, p):
    return len(gf_p_rref(vectors, p))


def combination(coords, vectors, p):
    """sum_j coords[j] * vectors[j] mod p, without zero entries."""
    out: dict = {}
    for j, c in coords.items():
        for k, v in vectors[j].items():
            out[k] = (out.get(k, 0) + c * v) % p
    return {k: v for k, v in out.items() if v}


def assert_same_echelon(rows, p, track=False):
    """The int echelon's rows are the reduced row echelon form over GF(p); with
    tracking, every combo and every coordinate vector is the one it claims."""
    ech = Echelon(track=track, p=p)
    for row in rows:
        if track:
            res, coords = ech.reduce(row)
            assert not res.keys() & {pivot for pivot, _ in ech.rows}
            # residual + sum_j coords[j] rows[j] = row
            assert combination({**coords, "residual": 1}, {**dict(enumerate(rows)), "residual": res}, p) == row
            assert ech.insert(row) == bool(res)
        else:
            ech.insert(row)
    assert ech.rows == gf_p_rref(rows, p)
    if track:
        assert ech.n_inserted == len(rows)
        assert [combination(combo, rows, p) for combo in ech.combos] == [row for _, row in ech.rows]


@pytest.mark.parametrize("k", range(5))
def test_int_echelon_rows_equal_the_gf_p_element_rows_on_the_reference_families(k):
    A_ops, B_ops = reference_families()[k]
    image = residues(A_ops, B_ops)
    for _, _, rows, _ in _intertwiner_systems(A_ops, B_ops, image=image):
        assert_same_echelon(rows, P)


def test_int_echelon_rows_equal_the_gf_p_element_rows_on_a_hecke_clifford_system():
    hc = families(2, 2)["hc"]
    for _, _, rows, _ in _intertwiner_systems(hc, hc, image=residues(hc)):
        assert_same_echelon(rows, P)


sparse_rows = st.lists(
    st.dictionaries(st.integers(0, 11), st.integers(1, 6), min_size=1, max_size=4), min_size=1, max_size=14
)


@settings(max_examples=60, deadline=None)
@given(sparse_rows, st.booleans())
def test_int_echelon_rows_equal_the_gf_p_element_rows_on_sparse_systems(rows, track):
    # GF(7): small values over a small field make many dependent rows
    assert_same_echelon(rows, 7, track)


# -- the residue closure


def as_matrix(op, image):
    """The residues of an operator's entries at the point of image, as a matrix over GF(P)."""
    K = GF(P)
    pos_r, pos_c = op.cod.pos, op.dom.pos
    entries: dict = {}
    for (r, c), v in op.entries.items():
        if image[v]:
            entries.setdefault(pos_r[r], {})[pos_c[c]] = K(image[v])
    return DomainMatrix(entries, (op.cod.dim, op.dom.dim), K)


def flat(matrix):
    """A matrix over GF(P) as a vector of residues, in the residue closure's column-major keys."""
    n = matrix.shape[0]
    return {c * n + r: int(x) % P for (r, c), x in matrix.to_dok().items() if int(x) % P}


def gf_p_closure_words(G, S, limit):
    """The words of the closure of the seed matrices S under the generator
    matrices G, all over GF(P): seeds first, then each generator times each
    word of the last round, a candidate kept when sympy's rank grows."""
    built, words = [], []
    candidates = [(m, (None, s)) for s, m in enumerate(S)]
    while candidates and len(words) != limit:
        done = len(built)
        for m, word in candidates:
            if gf_p_rank([flat(b) for b in built] + [flat(m)], P) > len(built):
                built.append(m)
                words.append(word)
                if len(words) == limit:
                    break
        candidates = [(g * built[b], (i, b)) for i, g in enumerate(G) for b in range(done, len(built))]
    return words


def test_the_residue_closure_keeps_the_words_of_the_gf_p_element_closure():
    rep = tensor_rep(vector_rep(2), 2)
    queer, hc = list(rep.gen.values()), hc_tensor_action(2, 2).generators()
    seed = next(v for mu in weight_spaces(rep) for v in highest_weight_vectors(rep, mu))
    cases = [(queer, _algebra_seeds(queer)), (hc, _algebra_seeds(hc)), (queer, [point_map(rep.space, seed)])]
    for gens, seeds in cases:
        image = residues(gens, seeds)
        G, S = [as_matrix(g, image) for g in gens], [as_matrix(s, image) for s in seeds]
        _, basis, words = _closure(gens, seeds, None, image)
        # each kept word is its product, rebuilt by sympy
        built = []
        for g, parent in words:
            built.append(S[parent] if g is None else G[g] * built[parent])
        kept = [flat(m) for m in built]
        assert basis == kept
        # the definition: independent, containing the seeds, and closed under every generator
        rank = gf_p_rank(kept, P)
        assert rank == len(words)
        assert gf_p_rank(kept + [flat(m) for m in S], P) == rank
        for g in G:
            assert gf_p_rank(kept + [flat(g * m) for m in built], P) == rank, "not closed"
        # the words of the same closure on sympy's GF(P) elements, with and without a limit
        for limit in (None, 5):
            got = words if limit is None else _closure(gens, seeds, limit, image)[2]
            assert got == gf_p_closure_words(G, S, limit)


def test_scale_computes_each_distinct_product_once():
    ch = chevalley_ops(tensor_rep(vector_rep(2), 2))
    s = -scalars.XI.inverse()
    for op in ch.values():
        assert op.scale(s).entries == {k: s * v for k, v in op.entries.items()}


def test_sample_mod_p_returns_plain_residues():
    values = [ONE, scalars.Q, scalars.XI.inverse()]
    c, image = sample_mod_p(random.Random(3), values)
    assert all(type(x) is int and 0 <= x < P for x in image.values())
    for v in values:  # num(c) / den(c) mod P, from the exact value at q = c
        x = v.specialize(c)
        assert image[v] == x.numerator * pow(x.denominator, -1, P) % P
