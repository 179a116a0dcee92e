import copy
import json
import weakref
from fractions import Fraction

import pytest

from queerdual import cli, duality, superlinalg, uq_queer
from queerdual.coord_alg import operator_image_basis
from queerdual.scalars import ONE, P, QINV, Q
from queerdual.superlinalg import certified_span
from queerdual.uq_queer import PARAM_Q, tensor_rep, vector_rep
from queerdual.hecke_clifford import braid_operator, hc_check, hc_tensor_action, zero_weight_hc
from queerdual.duality import (
    FixtureModule,
    classical_crosscheck,
    enumerate_strict_partitions,
    fixture_module,
    howe_verify,
    isotypic_census,
    load_expectations,
    pad_weight,
    restrict_to_rows,
    sergeev_verify,
)

from oracles import frac_rank, operator_algebra_span, schur_q_dim, supercommutes, vectors_rows


def test_enumerate_strict_partitions():
    assert enumerate_strict_partitions(3, 2) == [(2, 1), (3,)]
    assert enumerate_strict_partitions(2, 2) == [(2,)]
    assert enumerate_strict_partitions(4, 1) == [(4,)]
    assert enumerate_strict_partitions(0, 3) == [()]
    assert enumerate_strict_partitions(6, 3) == [(3, 2, 1), (4, 2), (5, 1), (6,)]


def test_census_2_2():
    census, report = isotypic_census(2, 2)
    assert report.ok, [c.to_dict() for c in report.failures()]
    entry = census.entries[(2, 0)]
    assert entry.submodule_dim == 8
    assert entry.copies == 2
    assert entry.detected_type == "Q"
    assert census.closes and census.total_dim == 16


def test_census_1_2():
    census, report = isotypic_census(1, 2)
    assert report.ok
    entry = census.entries[(2,)]
    # one highest weight vector generates the 2-dimensional irreducible; the
    # census closes as 2 copies x dim 2 = dim V^{(x)2}
    assert entry.submodule_dim == 2 and entry.copies == 2
    assert census.closes


def test_census_2_3_blocks():
    census, report = isotypic_census(2, 3)
    assert report.ok, [c.to_dict() for c in report.failures()]
    assert set(census.entries) == {(3, 0), (2, 1)}
    q_block = census.entries[(3, 0)]
    assert (q_block.submodule_dim, q_block.copies, q_block.detected_type) == (12, 4, "Q")
    m_block = census.entries[(2, 1)]
    # the even-length block generates the inseparable type-M pair over Q(q)
    assert m_block.paired and m_block.detected_type == "M"
    assert m_block.submodule_dim == 8 and m_block.irreducible_dim == 4
    assert census.total_dim == 64 and census.closes


def counting_submodules(monkeypatch):
    """A list that grows by one entry per block the census generates."""
    calls = []
    generate = duality.submodule_echelon

    def counting(*args):
        calls.append(1)
        return generate(*args)

    monkeypatch.setattr(duality, "submodule_echelon", counting)
    return calls


def test_census_is_computed_once(monkeypatch, fresh_census):
    calls = counting_submodules(monkeypatch)
    first, first_report = fresh_census(2, 3)
    assert len(calls) == len(first.entries) == 2
    again, again_report = fresh_census(2, 3)
    assert len(calls) == 2  # no submodule generated on the second call
    assert again == first and again is not first
    assert again_report.to_dict() == dict(first_report.to_dict(), elapsed_ms=again_report.elapsed_ms)


def test_census_results_are_private_copies(fresh_census):
    census, report = fresh_census(2, 2)
    report.add("extra", False)
    report.checks[0].value = "edited"
    report.derived_values["census"]["blocks"].clear()
    census.entries[(2, 0)].copies = 99
    census.entries.clear()
    again, again_report = fresh_census(2, 2)
    assert again_report.ok and "extra" not in [c.name for c in again_report.checks]
    assert again_report.checks[0].value is None
    assert again.entries[(2, 0)].copies == 2 and again.closes
    assert again_report.derived_values["census"] == again.summary()


def test_a_deep_copy_of_the_memoized_census_is_equal_and_separate(fresh_census):
    census, _ = fresh_census(2, 2)
    memo = duality._census(2, 2)[0]
    twin = copy.deepcopy(memo)
    assert twin == memo == census and twin.entries[(2, 0)] == memo.entries[(2, 0)]
    twin.entries[(2, 0)].copies = 99
    assert twin != memo and twin.entries[(2, 0)] != memo.entries[(2, 0)]
    twin.entries.clear()
    twin.closes = False
    assert memo == census and memo.entries[(2, 0)].copies == 2 and memo.closes


def test_census_cli_twice_in_one_process(tmp_path, fresh_census):
    payloads = []
    for k in range(2):
        path = tmp_path / f"census{k}.json"
        assert cli.main(["census", "--n", "2", "--m", "3", "--report", str(path)]) == 0
        payloads.append(json.loads(path.read_text()))
    first, second = payloads
    assert dict(second, elapsed_ms=first["elapsed_ms"]) == first
    for payload in payloads:
        assert [c["name"] for c in payload["checks"]].count("regression[census_blocks]") == 1


def test_sergeev_classical_and_census_share_one_census(monkeypatch, tmp_path, fresh_census):
    # each call records whether its generators are those at q = 1 (constants)
    at_q_one = []
    generate = duality.submodule_echelon

    def recording(gens, seeds):
        at_q_one.append(all(not v.den[1:] and not v.num[1:] for g in gens for v in g.entries.values()))
        return generate(gens, seeds)

    monkeypatch.setattr(duality, "submodule_echelon", recording)
    for suite in ("sergeev", "classical", "census"):
        path = tmp_path / f"{suite}.json"
        assert cli.main([suite, "--n", "2", "--m", "2", "--report", str(path)]) == 0
    # the single (2,0) block, generated once at q, then the classical one at q = 1
    assert at_q_one == [False, True]
    assert duality._census.cache_info().misses == 1


def test_census_submodule_rank_oracle():
    rep = tensor_rep(vector_rep(2), 2)
    from queerdual.uq_queer import generate_submodule

    sub = generate_submodule(rep, [{(1, 1): ONE}])
    assert frac_rank(vectors_rows(rep.space, sub, Fraction(5, 3))) == len(sub)


@pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2)])
def test_sergeev(n, m):
    report = sergeev_verify(n, m)
    assert report.ok, [c.to_dict() for c in report.failures()]


def test_sergeev_dims_match_expectations():
    expected = load_expectations()
    table = expected["sergeev"]["2,2"]
    report = sergeev_verify(2, 2)
    for key, frozen in table.items():
        assert report.derived_values[key] == frozen, key


def test_sergeev_2_3_supercommutation_only():
    report = sergeev_verify(2, 3, centralizer=False)
    assert report.ok, [c.to_dict() for c in report.failures()]


def _perturbed_hc(monkeypatch):
    # T_1 plus one diagonal matrix unit: no longer supercommutes with kbar
    import queerdual.duality as duality
    from queerdual.hecke_clifford import HCAction, hc_tensor_action
    from queerdual.superlinalg import SOp

    def perturbed(n, m, param):
        hc = hc_tensor_action(n, m, param)
        w = hc.space.labels[0]
        t_ops = [hc.t_ops[0] + SOp.unit(hc.space, hc.space, w, w, Q)] + hc.t_ops[1:]
        return HCAction(hc.spec, hc.space, t_ops, hc.c_ops)

    monkeypatch.setattr(duality, "hc_tensor_action", perturbed)


@pytest.mark.parametrize("n,m", [(1, 2), (2, 2)])
def test_certified_sergeev_spans_equal_the_exact_closures(n, m):
    queer = list(tensor_rep(vector_rep(n), m).gen.values())
    hc = hc_tensor_action(n, m).generators()
    for gens, partners in ((hc, queer), (queer, hc)):
        span = certified_span(gens, partners)
        _, exact = operator_algebra_span(gens)
        assert span.certified_by == "gf_p"
        assert [(op.par, op.entries) for op in span.basis] == [(op.par, op.entries) for op in exact]
    report = sergeev_verify(n, m)
    assert report.derived_values["hc_image_certified_by"] == "gf_p"
    assert report.derived_values["queer_image_certified_by"] == "gf_p"
    assert [c.value for c in report.checks if c.name == "commutant_inside_hc_span"] == [{"certified_by": "gf_p"}]


def test_sergeev_builds_its_tensor_power_and_chevalley_operators_once(monkeypatch, fresh_census):
    # the census runs on the V^{(x)2} that sergeev_verify holds; a power is
    # recorded weakly, so one that is freed and built again counts twice
    monkeypatch.setattr(vector_rep(2), "_powers", weakref.WeakValueDictionary())
    built, chevalley = [], []
    product, chevalley_ops = uq_queer.tensor_product_rep, uq_queer.chevalley_ops

    def counting_product(A, B):
        out = product(A, B)
        built.append(weakref.ref(out))
        return out

    def counting_chevalley(rep):
        chevalley.extend(1 for ref in built if ref() is rep)
        return chevalley_ops(rep)

    monkeypatch.setattr(uq_queer, "tensor_product_rep", counting_product)
    monkeypatch.setattr(uq_queer, "chevalley_ops", counting_chevalley)
    # the gf_p path needs only the span's dimension, never its operators
    monkeypatch.setattr(superlinalg.CertifiedSpan, "basis", property(lambda span: pytest.fail("basis read")))
    report = sergeev_verify(2, 2)
    assert report.ok and report.derived_values["queer_image_certified_by"] == "gf_p"
    assert len(built) == 1 and chevalley == [1]


def test_sergeev_falls_back_to_exact_commutants(monkeypatch, fresh_census):
    # at q = 1 the GF(p) bounds disagree: both pairs take the exact path
    monkeypatch.setattr(superlinalg, "sample_mod_p", lambda rng, values: (1, {v: v.residue(1, P) for v in values}))
    report = sergeev_verify(2, 2)
    assert report.ok, [c.to_dict() for c in report.failures()]
    assert report.derived_values["hc_image_certified_by"] == "exact"
    assert report.derived_values["queer_image_certified_by"] == "exact"
    for key, frozen in load_expectations()["sergeev"]["2,2"].items():
        assert report.derived_values[key] == frozen, key


def test_sergeev_planted_defect_never_certifies(monkeypatch):
    _perturbed_hc(monkeypatch)
    report = sergeev_verify(1, 2)
    assert "supercommutation" in [c.name for c in report.failures()]
    assert report.derived_values["hc_image_certified_by"] == "exact"
    assert report.derived_values["queer_image_certified_by"] == "exact"


def span_scan(span, partners):
    """The exhaustive check the certified premise replaces: every span word
    supercommutes with every partner."""
    return all(supercommutes(X, g) for X in span.basis for g in partners)


@pytest.mark.parametrize("n,m,perturb", [(1, 2, False), (2, 2, False), (1, 2, True)])
def test_hc_span_supercommutes_equals_the_scan(n, m, perturb, monkeypatch):
    if perturb:
        _perturbed_hc(monkeypatch)
    queer = list(tensor_rep(vector_rep(n), m).gen.values())
    span = certified_span(duality.hc_tensor_action(n, m, PARAM_Q).generators(), queer)
    assert span.supercommutes == span_scan(span, queer) == (not perturb)
    report = sergeev_verify(n, m)
    assert [c.status for c in report.checks if c.name == "hc_span_supercommutes"] == [
        "fail" if perturb else "pass"
    ]


def image_dim_oracle(n, l):
    """sum over strict lam |- l with len(lam) <= n of dim L_n(lam)^2 / 2^{len(lam) mod 2}."""
    return sum(schur_q_dim(lam, n) ** 2 // 2 ** (len(lam) % 2) for lam in enumerate_strict_partitions(l, n))


def test_schur_q_dims_match_the_census():
    assert image_dim_oracle(2, 2) == 32 == 8**2 // 2
    assert image_dim_oracle(2, 3) == 88 == 12**2 // 2 + 4**2
    census, _ = isotypic_census(2, 3)
    assert {lam: e.irreducible_dim for lam, e in census.entries.items()} == {
        pad_weight(lam, 2): schur_q_dim(lam, 2) for lam in enumerate_strict_partitions(3, 2)
    }


@pytest.mark.parametrize("n,l", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)])
def test_certified_image_dims_match_schur_q_oracle(n, l):
    ib = operator_image_basis(n, l)
    assert ib.certified_by == "gf_p" and ib.dim == image_dim_oracle(n, l)
    if l > 1:
        report = sergeev_verify(n, l)
        assert report.derived_values["queer_image_dim"] == ib.dim


def test_commutant_dims_against_rank_oracle():
    # graded commutant dimension at (2,2) re-derived by dense Fraction
    # elimination of the specialized constraint system
    from queerdual.superlinalg import graded_commutant
    from queerdual.hecke_clifford import hc_tensor_action

    rep = tensor_rep(vector_rep(2), 2)
    comm = graded_commutant(list(rep.gen.values()))
    assert len(comm) == 8
    space = rep.space
    point = Fraction(4, 7)
    for par in (0, 1):
        pairs = [
            (r, c)
            for r in space.labels
            for c in space.labels
            if (space.parity[r] + space.parity[c]) % 2 == par
        ]
        vindex = {rc: i for i, rc in enumerate(pairs)}
        rows = []
        for a in rep.gen.values():
            sgn = -1 if (par and a.par) else 1
            by_rc = {}
            for (k, c), v in a.entries.items():
                for r in space.labels:
                    i = vindex.get((r, k))
                    if i is not None:
                        row = by_rc.setdefault((r, c), [Fraction(0)] * len(pairs))
                        row[i] += v.specialize(point)
            for (r, k), v in a.entries.items():
                for c in space.labels:
                    i = vindex.get((k, c))
                    if i is not None:
                        row = by_rc.setdefault((r, c), [Fraction(0)] * len(pairs))
                        row[i] -= sgn * v.specialize(point)
            rows.extend(by_rc.values())
        got = sum(1 for X in comm if X.par == par)
        assert got == len(pairs) - frac_rank(rows)


@pytest.mark.parametrize("n,m,l", [(1, 1, 2), (1, 2, 2), (2, 2, 2)])
def test_howe(n, m, l):
    report = howe_verify(n, m, l)
    assert report.ok, [c.to_dict() for c in report.failures()]


def test_howe_dims_frozen():
    expected = load_expectations()
    report = howe_verify(2, 2, 2)
    got = {str(l): v["dim"] for l, v in report.derived_values["dims_by_degree"].items()}
    assert got == expected["howe"]["2,2"]["graded_dims"]


def test_fixture():
    fix, report = fixture_module()
    assert report.ok, [c.to_dict() for c in report.failures()]
    assert report.derived_values["intertwiner_space_dim"] == 1
    assert report.derived_values["zw_hc_q_param_passes"] is False


def test_fixture_table_rows():
    fix = FixtureModule()
    ch = fix.chevalley()
    two = Q + QINV
    # quoted rows: kbar_a.u_1, ebar_a.w, T_a eigenvalues
    assert ch[("kbar", 1)].apply({"u1": ONE}) == {"bu1": two.inverse(), "bw": -(Q**2)}
    assert ch[("ebar", 1)].apply({"w": ONE}) == {"bu0": 2 / two}
    braid = braid_operator(fix, 1)
    assert braid.apply({"u1": ONE}) == {"u1": -Q}
    assert braid.apply({"bu1": ONE}) == {"bu1": -Q}
    assert braid.apply({"w": ONE}) == {"w": QINV}
    assert braid.apply({"bw": ONE}) == {"bw": QINV}


def test_fixture_zero_weight_hc():
    fix = FixtureModule()
    zw = zero_weight_hc(fix)
    assert set(zw.space.labels) == {"u1", "bu1", "w", "bw"}
    assert zw.spec.param == "qinv"
    assert hc_check(zw).ok


def test_classical_crosscheck():
    for (n, m) in [(1, 2), (2, 2)]:
        report = classical_crosscheck(n, m)
        assert report.ok, [(n, m), [c.to_dict() for c in report.failures()]]


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2)])
def test_classical_braid_checks_need_a_braid_generator(n, m):
    # at m = 1 there is no T_a: the two checks over T_1..T_{m-1} are not recorded
    report = classical_crosscheck(n, m)
    assert report.ok, [c.to_dict() for c in report.failures()]
    names = {c.name for c in report.checks}
    braid_checks = {"braid_specializes_to_signed_swap", "hc1_degenerates"}
    assert names & braid_checks == (braid_checks if m >= 2 else set())


def test_restrict_to_rows_errors():
    rep = tensor_rep(vector_rep(1), 2)
    pos = rep.space.pos
    with pytest.raises(ValueError, match="pivot's parity"):
        restrict_to_rows(rep, [(pos[(1, -1)], {pos[(1, -1)]: ONE, pos[(1, 1)]: ONE})])  # mixed parity
