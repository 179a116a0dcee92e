import argparse
import json
import weakref
from importlib import resources

import pytest

from queerdual import cli, duality, uq_queer
from queerdual.cli import main
from queerdual.duality import load_expectations
from queerdual.uq_queer import vector_rep


def run(args, tmp_path, name="report.json"):
    path = tmp_path / name
    code = main(args + ["--report", str(path)])
    return code, json.loads(path.read_text())


def test_relations_suite(tmp_path):
    code, payload = run(["relations", "--n", "1", "--m", "2"], tmp_path)
    assert code == 0
    assert payload["suite"] == "relations"
    assert all(c["status"] == "pass" for c in payload["checks"])


@pytest.mark.parametrize("n,m,products", [(1, 4, 3), (2, 3, 2)])
def test_relations_suite_builds_each_power_by_one_product(monkeypatch, tmp_path, n, m, products):
    # the suite holds each power while it asks for the next, which is built on it
    monkeypatch.setattr(vector_rep(n), "_powers", weakref.WeakValueDictionary())
    calls = []
    product = uq_queer.tensor_product_rep
    monkeypatch.setattr(uq_queer, "tensor_product_rep", lambda A, B: calls.append(1) or product(A, B))
    code, _ = run(["relations", "--n", str(n), "--m", str(m)], tmp_path)
    assert code == 0 and len(calls) == products


def test_sergeev_suite_with_regressions(tmp_path):
    code, payload = run(["sergeev", "--n", "1", "--m", "1"], tmp_path)
    assert code == 0
    names = [c["name"] for c in payload["checks"]]
    assert any(name.startswith("regression[") for name in names)


def test_fixture_suite(tmp_path):
    code, payload = run(["fixture"], tmp_path)
    assert code == 0
    assert any(c["name"].startswith("braid_eigenvalue") for c in payload["checks"])


def test_howe_suite(tmp_path):
    code, payload = run(["howe", "--n", "1", "--m", "1", "--degree", "1"], tmp_path)
    assert code == 0
    dims = payload["derived_values"]["dims_by_degree"]
    assert dims["1"]["dim"] == 2 and dims["1"]["predicted"] == 2


def test_census_suite(tmp_path):
    code, payload = run(["census", "--n", "1", "--m", "2"], tmp_path)
    assert code == 0


def test_coord_suite(tmp_path):
    code, payload = run(["coord", "--n", "1", "--m", "1"], tmp_path)
    assert code == 0


@pytest.mark.parametrize("suite", sorted(cli.SUITES))
def test_every_suite_checks_something_at_its_smallest_configuration(suite, tmp_path):
    # n = m = 1 and degree 0 are the smallest values validate admits
    code, payload = run([suite, "--n", "1", "--m", "1", "--degree", "0"], tmp_path)
    assert code == 0
    assert payload["checks"]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_hc_suite_at_m1_checks_the_one_generator_clifford_algebra(n, tmp_path):
    code, payload = run(["hc", "--n", str(n), "--m", "1"], tmp_path)
    assert code == 0
    assert [(c["name"], c["status"]) for c in payload["checks"]] == [("m=1:hc4", "pass")]
    assert payload["derived_values"]["m=1:clifford_square"] == -1


def test_invalid_config():
    assert main(["relations", "--n", "0"]) == 2
    assert main(["relations", "--mode", "prob", "--trials", "0"]) == 2


@pytest.mark.parametrize("suite", ["sergeev", "hc"])
def test_prob_mode_outside_relations_exits_2(suite, capsys):
    # sergeev certifies its dimensions exactly and has no probabilistic mode
    assert main([suite, "--n", "1", "--m", "2", "--mode", "prob"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --mode prob applies to the relations suite only, not {suite!r}\n"


@pytest.mark.parametrize("suite", sorted(set(cli.SUITES) - set(cli.PARAM_SUITES)))
def test_param_qinv_outside_relations_and_hc_exits_2(suite, capsys):
    # these suites run at q only, so a requested q^{-1} would be silently ignored
    assert main([suite, "--n", "1", "--m", "1", "--param", "qinv"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --param qinv applies to the relations and hc suites only, not {suite!r}\n"


@pytest.mark.parametrize("suite", cli.PARAM_SUITES)
def test_param_qinv_reaches_relations_and_hc(suite, tmp_path):
    code, payload = run([suite, "--n", "1", "--m", "1", "--param", "qinv"], tmp_path)
    assert code == 0
    assert payload["params"]["param"] == "qinv"


def test_unsupported_scale():
    assert main(["relations", "--n", "9"]) == 2
    assert main(["howe", "--degree", "7"]) == 2


def test_unwritable_output_path_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    assert main(["relations", "--n", "1", "--m", "1", "--report", str(missing)]) == 2
    assert not missing.parent.exists()
    # a directory passes the up-front check and fails at the final write
    assert main(["relations", "--n", "1", "--m", "1", "--report", str(tmp_path)]) == 2
    for line in capsys.readouterr().err.strip().splitlines():
        assert line.startswith("error: ")


def test_write_expectations_requires_all(tmp_path, capsys):
    out = tmp_path / "X"
    assert main(["relations", "--n", "1", "--m", "1", "--write-expectations", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("option", ["cache"])
def test_removed_option_exits_2(option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["relations", f"--{option}", "d"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: --{option} d" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"sergeev": {"1,1": {"hc_image_dim"', "[]",
    '{"sergeev": {"1,1": [1, 2]}}', '{"howe": {"1,1": [3]}}', '{"howe": {"1,1": {"graded_dims": [1]}}}',
])
def test_corrupt_expectations_exit_2_before_the_suite_runs(text, tmp_path, monkeypatch, capsys):
    # a truncated file, JSON that is not an object, and one configuration's
    # entry in a shape its suite does not freeze; the packaged file is never touched
    corrupt = tmp_path / "expected_values.json"
    corrupt.write_text(text)
    monkeypatch.setattr(duality, "EXPECTATIONS", corrupt)
    ran = []
    monkeypatch.setitem(cli.SUITES, "sergeev", ran.append)
    assert main(["sergeev", "--n", "1", "--m", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert ran == []
    assert main(["--all"]) == 2


def test_unreadable_expectations_exit_2_before_the_suite_runs(tmp_path, monkeypatch, capsys):
    # a path that exists but cannot be read as a file; a missing file is no error
    monkeypatch.setattr(duality, "EXPECTATIONS", tmp_path)
    ran = []
    monkeypatch.setitem(cli.SUITES, "sergeev", ran.append)
    assert main(["sergeev", "--n", "1", "--m", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read the expectations file: ") and len(err.strip().splitlines()) == 1
    assert ran == []
    assert main(["--all"]) == 2
    monkeypatch.setattr(duality, "EXPECTATIONS", tmp_path / "absent.json")
    assert load_expectations() == {}


def test_battery_reproduces_the_expectations_file_byte_for_byte(tmp_path):
    written = tmp_path / "expected_values.json"
    assert main(["--all", "--write-expectations", str(written), "--report", str(tmp_path / "all.json")]) == 0
    packaged = resources.files("queerdual").joinpath("expected_values.json").read_bytes()
    assert written.read_bytes() == packaged


def test_frozen_values_match_expectations_file():
    expected = load_expectations()
    cfg = argparse.Namespace(n=1, m=1, degree=2, mode="exact", param="q", trials=5, seed=0)
    configs = [("sergeev", {}), ("census", {"m": 3}), ("howe", {})]
    for suite, overrides in configs:
        report = cli.SUITES[suite](argparse.Namespace(**{**vars(cfg), **overrides}))
        key = f"{report.params['n']},{report.params['m']}"
        assert cli.collect_expectations([report])[suite] == {key: expected[suite][key]}
        before = len(report.checks)
        cli._apply_regressions(report, expected)
        added = report.checks[before:]
        assert added and all(c.name.startswith("regression[") for c in added)
        assert all(c.status == "pass" for c in added), [c.to_dict() for c in added]


def test_probabilistic_mode(tmp_path):
    code, payload = run(
        ["relations", "--n", "2", "--m", "2", "--mode", "prob", "--trials", "2", "--seed", "3"],
        tmp_path,
    )
    assert code == 0
    assert payload["params"]["mode"] == "prob"


def test_failing_exit_status(tmp_path, monkeypatch):
    # a deliberately broken suite must exit nonzero
    import queerdual.cli as cli

    def broken(cfg):
        from queerdual.report import VerifyReport

        rep = VerifyReport("hc", {"n": cfg.n, "m": cfg.m})
        rep.add("planted", False, witness="broken")
        return rep.finish()

    monkeypatch.setitem(cli.SUITES, "hc", broken)
    path = str(tmp_path / "fail.json")
    assert main(["hc", "--report", path]) == 1
