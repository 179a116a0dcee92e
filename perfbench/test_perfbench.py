"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402  (puts src/ on the path and imports queerdual)
import layertrace  # noqa: E402
import run  # noqa: E402
import queerdual  # noqa: E402
from queerdual import cli, duality, superlinalg, uq_queer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def test_battery_workloads_split_the_battery():
    entries = [e for w in child.BATTERY_WORKLOADS.values() for e in w]
    key = lambda e: (e[0], sorted(e[1].items()))  # noqa: E731
    assert sorted(map(key, entries)) == sorted(map(key, cli.BATTERY))
    assert len(entries) == len(cli.BATTERY)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == child.WORKLOADS


def test_every_binding_is_the_wrapper():
    method_keys = {key for _, _, key, _ in layertrace._methods(queerdual)}
    originals = {key: fn for key, fn in layertrace.public_functions(queerdual) if key not in method_keys}
    tracer = layertrace.Tracer()
    tracer.install(queerdual)
    try:
        unwrapped = {id(fn) for fn in originals.values()}
        for ns in layertrace.namespaces(queerdual):
            stale = [name for name, value in vars(ns).items() if id(value) in unwrapped]
            assert not stale, f"{ns.__name__} still binds {stale}"
        assert duality.graded_commutant is superlinalg.graded_commutant
        assert duality.graded_commutant is not originals["superlinalg.graded_commutant"]
        holders = [ns for ns in layertrace.namespaces(queerdual) if vars(ns).get("tensor_rep") is uq_queer.tensor_rep]
        assert len(holders) >= 5
        assert uq_queer.tensor_rep is not originals["uq_queer.tensor_rep"]
        for owner, attr in tracer.patched():
            assert getattr(vars(owner)[attr], "__wrapped__", None) is not None, (owner, attr)
        classes = {(owner.__name__, attr) for owner, attr in tracer.patched() if isinstance(owner, type)}
        assert classes == {
            ("RatFunc", a) for a in ("__mul__", "__rmul__", "__add__", "__radd__", "inverse", "specialize")
        } | {("SOp", a) for a in ("__matmul__", "scale", "__add__")} | {("Echelon", "insert")}
    finally:
        tracer.uninstall()
    assert uq_queer.tensor_rep is originals["uq_queer.tensor_rep"]
    assert not hasattr(queerdual.scalars.RatFunc.__mul__, "__wrapped__")


SMALL = [
    ["relations", "--n", "1", "--m", "2"],
    ["hc", "--n", "1", "--m", "3"],
    ["sergeev", "--n", "1", "--m", "2"],
    ["howe", "--n", "1", "--m", "1", "--degree", "2"],
    ["fixture"],
]


def _results(tmp_path, tag):
    out = []
    for i, argv in enumerate(SMALL):
        path = tmp_path / f"{tag}{i}.json"
        assert cli.main(argv + ["--report", str(path)]) == 0
        report = json.loads(path.read_text())
        out.append((report["checks"], report["derived_values"]))
    return out


def test_tracing_does_not_change_results(tmp_path):
    plain = _results(tmp_path, "plain")
    tracer = layertrace.Tracer()
    tracer.install(queerdual)
    try:
        traced = _results(tmp_path, "traced")
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.stats["scalars.mul"].calls > 0
    assert tracer.stats["cli.main"].calls == len(SMALL)


def _traced_counts(tmp_path, hash_seed):
    workdir = tmp_path / f"h{hash_seed}"
    workdir.mkdir()
    out = workdir / "record.json"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "--workload", "coordinate", "--seed", "1",
         "--trace", "1", "--workdir", str(workdir), "--out", str(out)],
        env=env, check=True, capture_output=True, timeout=120,
    )
    record = json.loads(out.read_text())
    names = [m["name"] for m in SPEC["per_layer"]
             if m["unit"] != "s" and m["name"] not in ("cli.checks_total", "cli.report_bytes")]
    return layertrace.layer_metrics(record["trace"], names)


def test_counts_repeat_across_hash_seeds(tmp_path):
    first = _traced_counts(tmp_path, "1")
    assert first == _traced_counts(tmp_path, "2")
    assert first["scalars.mul.calls"] > 0 and first["coord_alg.eval_on_operator.calls"] > 0


def test_gate_counts_failures_without_crashing(tmp_path):
    good = tmp_path / "good.json"
    gate = run.Run("centralizer", 0, str(tmp_path), deadline=0.0)
    derived = dict(gate.reference["sergeev n=1 m=1"], hc_image_dim=99)
    good.write_text(json.dumps({"checks": [{"name": "a", "status": "pass"}],
                                "derived_values": derived, "elapsed_ms": 1.5}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"checks": [{"name": "a", "status": "pass"}, {"name": "b", "status": "fail"}],
                               "derived_values": {}, "elapsed_ms": 2.0}))
    raised = child.run_suite({"suite": "hc", "params": {}}, str(tmp_path / "none.json"),
                             lambda: 1 / 0)
    assert raised["exit"] is None and "ZeroDivisionError" in raised["error"]
    record = {"suites": [
        {"suite": "sergeev", "params": {"n": 1, "m": 1}, "exit": 0, "report": str(good)},
        {"suite": "relations-prob", "params": {"n": 1, "m": 2}, "exit": 1, "report": str(bad)},
        raised,
    ]}
    gate.check(record)
    # sergeev: 1 check + 4 reference values that pass + 1 mismatch (hc_image_dim);
    # relations-prob: 2 checks, 1 failed, no bound; hc: raised
    assert gate.failed == 1 + 1 + 1 + 1
    assert gate.attempted == (1 + 5) + (2 + 1) + 1
    assert record["checks_total"] == 3


def test_times_are_scaled_to_the_reference_speed():
    plain = [{"verify_s": 2.0, "peak_rss_kb": 2048}, {"verify_s": 3.0, "peak_rss_kb": 2048},
             {"verify_s": 2.5, "peak_rss_kb": 2048}]
    # a host running at half the reference speed reports half its wall times
    values = run.end_to_end(plain, [0.1], [2 * run.REF_CALIBRATION_S])
    assert values == {"verify_s": 1.25, "setup_s": 0.05, "peak_rss_mb": 2.0}


def test_result_line(tmp_path):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", "coordinate", "--seed", "2",
             "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert result["metrics"]["trace.overhead_s"]["value"] > 0
    assert not os.path.exists(os.path.join(ROOT, ".perfbench_work"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "relations", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
