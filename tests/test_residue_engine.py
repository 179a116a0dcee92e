"""GF(p) on plain-int residues: the int echelon, the commutant systems split
into connected blocks, the residue closure, and a guard that the certified
paths build no GF(p) element objects."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from queerdual import scalars
from queerdual.duality import _census, sergeev_verify
from queerdual.hecke_clifford import hc_tensor_action
from queerdual.scalars import ONE, P, ModP, mersenne_field, sample_mod_p
from queerdual.superlinalg import (
    Echelon,
    SOp,
    _algebra_seeds,
    _closure,
    _components,
    _intertwiner_systems,
    _nullities,
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


def full_system_nullities(ops, image):
    """The nullity per parity of the whole commutant system, every row in one
    int echelon in the order the systems list them: no blocks, no row order."""
    out = []
    for _, pairs, rows, _ in _intertwiner_systems(ops, ops, image=image):
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
        assert _nullities(ops, image) == full_system_nullities(ops, image), name


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


# -- the int echelon against the GF(p) element echelon


def assert_same_echelon(rows, p, track=False):
    field = mersenne_field(p.bit_length())
    assert field.p == p
    ints, elems = Echelon(track=track, p=p), Echelon(track=track)
    for row in rows:
        as_elems = {k: field(v) for k, v in row.items()}
        if track:
            res, combo = ints.reduce(row)
            want_res, want_combo = elems.reduce(as_elems)
            assert res == {k: v.v for k, v in want_res.items()}
            assert combo == {k: v.v for k, v in want_combo.items()}
        assert ints.insert(row) == elems.insert(as_elems)
    assert ints.rows == [(pivot, {k: v.v for k, v in row.items()}) for pivot, row in elems.rows]
    if track:
        assert ints.combos == [{k: v.v for k, v in combo.items()} for combo in elems.combos]


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


def test_the_residue_closure_keeps_the_words_of_the_gf_p_element_closure():
    rep = tensor_rep(vector_rep(2), 2)
    queer, hc = list(rep.gen.values()), hc_tensor_action(2, 2).generators()
    seed = next(v for mu in weight_spaces(rep) for v in highest_weight_vectors(rep, mu))
    cases = [(queer, _algebra_seeds(queer)), (hc, _algebra_seeds(hc)), (queer, [point_map(rep.space, seed)])]
    for gens, seeds in cases:
        image = residues(gens, seeds)

        def as_elems(ops):
            return [op.map(lambda v: ModP(image[v])) for op in ops]

        for limit in (None, 5):
            words = _closure(gens, seeds, limit, image)[2]
            assert words == _closure(as_elems(gens), as_elems(seeds), limit)[2]


def test_scale_computes_each_distinct_product_once():
    ch = chevalley_ops(tensor_rep(vector_rep(2), 2))
    s = -scalars.XI.inverse()
    for op in ch.values():
        assert op.scale(s).entries == {k: s * v for k, v in op.entries.items()}


def test_sample_mod_p_returns_plain_residues():
    values = [ONE, scalars.Q, scalars.XI.inverse()]
    c, image = sample_mod_p(random.Random(3), values)
    assert all(type(x) is int and 0 <= x < P for x in image.values())
    assert image == {v: v.mod_p(c).v for v in values}


# -- guard


def test_census_and_sergeev_construct_no_gf_p_elements(monkeypatch, fresh_census):
    # every GF(p) step of the certified paths runs on plain ints
    built = []
    init = ModP.__init__

    def counting(self, v):
        built.append(1)
        init(self, v)

    monkeypatch.setattr(ModP, "__init__", counting)
    assert ModP(3).v == 3 and mersenne_field(521)(5).v == 5 and len(built) == 2  # the counter sees every field
    built.clear()
    assert _census(2, 3)[1].ok
    assert sergeev_verify(2, 2).ok
    assert built == []
