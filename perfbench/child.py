"""One repetition of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 \
        --workdir DIR --out FILE [--setup-only]

The repetition imports queerdual from ``src/``, loads the frozen expectations,
stamps the monotonic clock (the parent subtracts its spawn time from that
stamp to get the set-up time), then runs the workload's suites one after the
other and writes a JSON record to ``--out``: the set-up stamp, the timed
span, the peak resident set size, one outcome per suite and, under ``--trace 1``, the layer
statistics.  Suites write their reports into ``--workdir``; the parent checks
them.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import queerdual  # noqa: E402
from queerdual import cli, uq_queer  # noqa: E402
from queerdual.duality import load_expectations  # noqa: E402

load_expectations()
T_READY = time.monotonic()

# The three battery workloads split cli.BATTERY between them, each entry once.
BATTERY_WORKLOADS = {
    "relations": [
        ("relations", {"n": 1, "m": 4}),
        ("relations", {"n": 2, "m": 3}),
        ("relations", {"n": 3, "m": 2}),
        ("hc", {"n": 1, "m": 4}),
        ("hc", {"n": 2, "m": 4}),
    ],
    "centralizer": [
        ("sergeev", {"n": 1, "m": 1}),
        ("sergeev", {"n": 1, "m": 2}),
        ("sergeev", {"n": 2, "m": 2}),
        ("sergeev", {"n": 2, "m": 3}),
        ("census", {"n": 1, "m": 3}),
        ("census", {"n": 2, "m": 3}),
        ("classical", {"n": 2, "m": 2}),
    ],
    "coordinate": [
        ("coord", {"n": 2, "m": 2}),
        ("howe", {"n": 1, "m": 1, "degree": 2}),
        ("howe", {"n": 2, "m": 2, "degree": 2}),
        ("fixture", {}),
    ],
}

# The probabilistic stage of acceptance criterion 1, at PROB_TRIALS trial
# points drawn from the workload seed.
PROB_CONFIGS = [(1, 4), (2, 3), (3, 2)]
PROB_TRIALS = 1

WORKLOADS = [*BATTERY_WORKLOADS, "relations-prob"]


def suite_argv(suite: str, params: dict) -> list:
    argv = [suite]
    for key, value in params.items():
        argv += [f"--{key}", str(value)]
    return argv


def run_suite(entry: dict, report: str, call) -> dict:
    """Run one suite; a suite that raises or exits is recorded, not propagated."""
    outcome = dict(entry, report=report)
    try:
        outcome["exit"] = call()
    except (Exception, SystemExit) as exc:
        outcome["exit"] = None
        outcome["error"] = f"{type(exc).__name__}: {exc}"
    return outcome


def run_battery(entries: list, workdir: str) -> list:
    outcomes = []
    for i, (suite, params) in enumerate(entries):
        path = os.path.join(workdir, f"{i:02d}-{suite}.json")
        # cli.main is looked up at call time so that a traced run reaches the wrapper
        outcomes.append(run_suite(
            {"suite": suite, "params": params}, path,
            lambda: cli.main(suite_argv(suite, params) + ["--report", path]),
        ))
    return outcomes


def run_relations_prob(seed: int, workdir: str) -> list:
    def check(n, m, path):
        rep = uq_queer.check_defining_relations(
            uq_queer.tensor_rep(uq_queer.vector_rep(n), m),
            mode="prob", trials=PROB_TRIALS, seed=seed,
        )
        with open(path, "w") as fh:
            fh.write(rep.to_json() + "\n")
        return 0 if rep.ok else 1

    outcomes = []
    for n, m in PROB_CONFIGS:
        path = os.path.join(workdir, f"prob-{n}-{m}.json")
        outcomes.append(run_suite(
            {"suite": "relations-prob", "params": {"n": n, "m": m}}, path,
            lambda: check(n, m, path),
        ))
    return outcomes


def peak_rss_kb() -> int:
    """This interpreter's own peak resident set size (VmHWM), in KiB.

    Not ru_maxrss: exec keeps the parent's peak in it, so it would report the
    harness's memory whenever that is the larger.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list) -> int:
    # imported after the set-up stamp, which covers queerdual alone
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    record = {"t_ready": T_READY}
    if not args.setup_only:
        tracer = None
        if args.trace:
            import layertrace

            tracer = layertrace.Tracer()
            tracer.install(queerdual)
        t0 = time.monotonic()
        if args.workload == "relations-prob":
            outcomes = run_relations_prob(args.seed, args.workdir)
        else:
            outcomes = run_battery(BATTERY_WORKLOADS[args.workload], args.workdir)
        record["verify_s"] = time.monotonic() - t0
        if tracer is not None:
            tracer.uninstall()
            record["trace"] = tracer.snapshot()
        record["suites"] = outcomes
        record["peak_rss_kb"] = peak_rss_kb()
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
