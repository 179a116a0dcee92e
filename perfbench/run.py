"""Benchmark harness for queerdual.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of the workload runs in a
fresh interpreter (perfbench/child.py); repetitions run one at a time, and the
harness starts new ones while the next is expected to finish within
``--seconds`` (at least MIN_REPS).  Before each repetition it also starts
one interpreter that only imports queerdual, for the set-up time, and times a
fixed calculation in the harness itself (``calibrate``).  The harness and its
children are pinned to one CPU.  The speed of a shared host drifts by up to
half within an hour; the calibration drifts with it, so the reported times are
scaled to the host speed at which the calibration takes REF_CALIBRATION_S.

Every report is checked: each suite must exit 0 with every check passing, the
frozen values in perfbench/reference.json must match, and each probabilistic
report must carry its false-match bound.  A suite that raises counts as a
failed check.

With ``--trace 0`` the last line of output holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, taken from
traced repetitions that alternate with untraced ones.  The lines before it
give each metric by name with its unit, the failed-check share and the
probabilistic bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import layertrace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("relations", "centralizer", "coordinate", "relations-prob")
MIN_REPS = 3  # untraced repetitions, or traced and untraced ones together
HARD_LIMIT_S = 170.0  # a run that has not finished by then fails
REF_CALIBRATION_S = 0.11  # calibrate() on the host the baseline was taken on (perfbench/NOTES.md)


class BenchError(Exception):
    pass


class Run:
    """Spawns the repetitions of one benchmark run and checks their reports."""

    def __init__(self, workload: str, seed: int, workdir: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.spawned = 0
        with open(os.path.join(HERE, "reference.json")) as fh:
            self.reference = json.load(fh)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.bounds: dict[str, str] = {}

    def spawn(self, trace: int = 0, setup_only: bool = False) -> dict:
        self.spawned += 1
        rep_dir = os.path.join(self.workdir, f"rep{self.spawned:03d}")
        os.makedirs(rep_dir)
        out = os.path.join(rep_dir, "record.json")
        cmd = [sys.executable, CHILD, "--workload", self.workload, "--seed", str(self.seed),
               "--trace", str(trace), "--workdir", rep_dir, "--out", out]
        if setup_only:
            cmd.append("--setup-only")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(self.deadline - t_spawn, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"a {self.workload} repetition did not finish within the run's time limit")
        if proc.returncode != 0 or not os.path.exists(out):
            raise BenchError(f"a {self.workload} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        with open(out) as fh:
            record = json.load(fh)
        record["setup_s"] = record["t_ready"] - t_spawn
        if not setup_only:
            self.check(record)
        return record

    # -- correctness -------------------------------------------------------------

    def fail(self, label: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{label}: {why}")

    def check(self, record: dict) -> None:
        """Check every suite outcome of a repetition; store its report totals in the record."""
        record["checks_total"] = 0
        record["report_bytes"] = 0
        for outcome in record["suites"]:
            label = " ".join([outcome["suite"]] + [f"{k}={v}" for k, v in outcome["params"].items()])
            if outcome["exit"] is None:
                self.fail(label, f"raised {outcome['error']}")
                continue
            try:
                with open(outcome["report"]) as fh:
                    text = fh.read()
                report = json.loads(text)
            except (OSError, ValueError) as exc:
                self.fail(label, f"no readable report ({exc})")
                continue
            checks = report.get("checks", [])
            bad = [c["name"] for c in checks if c.get("status") != "pass"]
            record["checks_total"] += len(checks)
            # timing aside, a report is byte-identical from run to run
            record["report_bytes"] += len(text.encode()) - len(json.dumps(report.get("elapsed_ms")))
            self.attempted += len(checks)
            self.failed += len(bad)
            if bad:
                self.problems.append(f"{label}: failed checks {bad[:5]}")
            if outcome["exit"] != 0 and not bad:
                self.fail(label, f"exit status {outcome['exit']} with no failed check")
            derived = report.get("derived_values", {})
            if outcome["suite"] == "relations-prob":
                self.check_bound(label, derived)
            for path, frozen in self.reference.get(label, {}).items():
                got = lookup(derived, path)
                if got != frozen:
                    self.fail(label, f"{path} = {got!r}, reference {frozen!r}")
                else:
                    self.attempted += 1

    def check_bound(self, label: str, derived: dict) -> None:
        try:
            bound = Fraction(derived["false_match_bound"])
        except (KeyError, TypeError, ValueError):
            self.fail(label, "no false_match_bound recorded")
            return
        if not 0 <= bound < 1:
            self.fail(label, f"false_match_bound {bound} is not below 1")
            return
        self.attempted += 1
        self.bounds[label] = f"{float(bound):.3e}"


def lookup(derived: dict, path: str):
    node = derived
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def calibrate() -> float:
    """Seconds taken by a fixed calculation of the kind the program does.

    Small integer-tuple products counted in a dict of about 20000 keys, with
    some Fraction arithmetic: the allocation-heavy pure-Python work of the
    program's scalar and operator layers.  It uses the standard library only,
    so no change to the program can move it.
    """
    t0 = time.perf_counter()
    counts: dict = {}
    x = Fraction(0)
    for i in range(1, 25000):
        a, b = (i % 7 + 1, i % 5, 3, i % 11), (1, i % 3 + 1, 2)
        c = [0] * 6
        for u, av in enumerate(a):
            for v, bv in enumerate(b):
                c[u + v] += av * bv
        key = ((i * 7919) % 20011, tuple(c))
        counts[key] = counts.get(key, 0) + 1
        if i % 8 == 0:
            x += Fraction(i % 17 + 1, i % 13 + 2) * Fraction(3, i % 11 + 1)
            if x.denominator > 10**30:
                x = Fraction(x.numerator % 1000, 7)
    return time.perf_counter() - t0


def measure(run: Run, seconds: float, trace: bool) -> tuple[list, list, list, list]:
    """Untraced repetitions, traced repetitions, set-up samples and calibration times of one run."""
    plain, traced, setups, calibrations = [], [], [], []
    start = time.monotonic()
    slowest = 0.0
    while True:
        reps = len(plain) + len(traced)
        if reps >= MIN_REPS and (time.monotonic() - start) + slowest > seconds:
            break
        t0 = time.monotonic()
        setups.append(run.spawn(setup_only=True)["setup_s"])
        calibrations.append(calibrate())
        record = run.spawn(trace=int(trace and reps % 2 == 1))
        setups.append(record["setup_s"])
        (traced if "trace" in record else plain).append(record)
        slowest = max(slowest, time.monotonic() - t0)
    return plain, traced, setups, calibrations


def median_of(records: list, key: str) -> float:
    return statistics.median(r[key] for r in records)


def end_to_end(plain: list, setups: list, calibrations: list) -> dict:
    speed = REF_CALIBRATION_S / statistics.median(calibrations)
    return {
        "verify_s": median_of(plain, "verify_s") * speed,
        "setup_s": statistics.median(setups) * speed,
        "peak_rss_mb": median_of(plain, "peak_rss_kb") / 1024.0,
    }


def per_layer(names: list, plain: list, traced: list) -> dict:
    values = {
        "cli.checks_total": median_of(traced, "checks_total"),
        "cli.report_bytes": median_of(traced, "report_bytes"),
        "trace.overhead_s": median_of(traced, "verify_s") - median_of(plain, "verify_s"),
    }
    rest = [n for n in names if n not in values]
    per_rep = [layertrace.layer_metrics(r["trace"], rest) for r in traced]
    for name in rest:
        values[name] = statistics.median(m[name] for m in per_rep)
    return values


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description="queerdual benchmark harness")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "queerdual", "__init__.py")):
        print("error: no queerdual package under src/ in this checkout", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    run = Run(args.workload, args.seed, workdir, start + HARD_LIMIT_S)
    # Children inherit the affinity: the calibration then runs on the CPU the
    # repetitions run on, whose speed is the one it has to track.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        plain, traced, setups, calibrations = measure(run, args.seconds, bool(args.trace))
        values = per_layer(list(units), plain, traced) if args.trace else end_to_end(plain, setups, calibrations)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced repetitions, {len(setups)} set-up samples, "
          f"{time.monotonic() - start:.1f} s")
    print("untraced wall seconds per repetition: " + " ".join(f"{r['verify_s']:.4f}" for r in plain))
    print(f"wall medians: verify {median_of(plain, 'verify_s'):.4f} s, set-up {statistics.median(setups):.4f} s, "
          f"calibration {statistics.median(calibrations):.4f} s")
    for label, bound in sorted(run.bounds.items()):
        print(f"{label}: false_match_bound {bound}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    print(f"checks_failed_frac {run.failed}/{run.attempted} = {run.failed / max(run.attempted, 1):.4f}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
