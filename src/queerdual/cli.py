"""Command-line entry point: one subcommand per verification suite.

Exit status is nonzero iff any check fails.  Reports are emitted as JSON with
the schema {suite, params, checks: [{name, status, witness?, value?}],
derived_values, elapsed_ms}; the --all battery wraps the individual reports.
Runs are deterministic for a fixed configuration (elapsed_ms aside), and the
operator cache only affects timing, never outcomes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .report import VerifyReport
from .uq_queer import (
    PARAM_Q,
    PARAM_QINV,
    AlgebraSpec,
    QueerRep,
    check_defining_relations,
    tensor_rep,
    vector_rep,
)
from .superlinalg import sop_from_cache, sop_to_cache

CACHE_FORMAT_VERSION = 1
DEFAULT_BOUNDS = {"n": 4, "m": 5, "degree": 4}


class InvalidConfig(Exception):
    pass


class UnsupportedScale(Exception):
    pass


def cached_tensor_rep(n: int, param: str, m: int, cache_dir: str | None) -> QueerRep:
    """Tensor-power representation, optionally persisted in the sparse format."""
    if cache_dir is None:
        return tensor_rep(vector_rep(n, param), m)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"rep_v{CACHE_FORMAT_VERSION}_n{n}_{param}_m{m}.json")
    if os.path.exists(path):
        with open(path) as fh:
            blob = json.load(fh)
        gen = {}
        for key, entry in blob["gens"].items():
            i, j = map(int, key.split(","))
            gen[(i, j)] = sop_from_cache(entry)
        space = next(iter(gen.values())).dom
        return QueerRep(AlgebraSpec(n, param), space, gen)
    rep = tensor_rep(vector_rep(n, param), m)
    blob = {
        "format_version": CACHE_FORMAT_VERSION,
        "key": {"n": n, "param": param, "m": m},
        "gens": {f"{i},{j}": sop_to_cache(op) for (i, j), op in rep.gen.items()},
    }
    with open(path, "w") as fh:
        json.dump(blob, fh, sort_keys=True, separators=(",", ":"))
    return rep


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_relations(cfg) -> VerifyReport:
    report = VerifyReport("relations", {"n": cfg.n, "m": cfg.m, "param": cfg.param, "mode": cfg.mode})
    base = vector_rep(cfg.n, cfg.param)
    rep = base
    for power in range(1, cfg.m + 1):
        if power > 1:
            rep = cached_tensor_rep(cfg.n, cfg.param, power, cfg.cache)
        local = check_defining_relations(rep, mode=cfg.mode, trials=cfg.trials, seed=cfg.seed)
        report.extend(local, prefix=f"m={power}:")
    report.derive(
        "e_scalar_note",
        "e_j uses the -xi^{-1} normalization (the action-table-consistent scalar)",
    )
    return report.finish()


def cached_hc_action(n: int, m: int, param: str, cache_dir: str | None):
    from .hecke_clifford import HCAction, HCSpec, hc_tensor_action

    if cache_dir is None:
        return hc_tensor_action(n, m, param)
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, f"hc_v{CACHE_FORMAT_VERSION}_n{n}_m{m}_{param}_tensor.json")
    if os.path.exists(path):
        with open(path) as fh:
            blob = json.load(fh)
        t_ops = [sop_from_cache(e) for e in blob["t"]]
        c_ops = [sop_from_cache(e) for e in blob["c"]]
        space = c_ops[0].dom
        return HCAction(HCSpec(m, param), space, t_ops, c_ops)
    action = hc_tensor_action(n, m, param)
    blob = {
        "format_version": CACHE_FORMAT_VERSION,
        "key": {"n": n, "m": m, "param": param, "construction": "tensor"},
        "t": [sop_to_cache(op) for op in action.t_ops],
        "c": [sop_to_cache(op) for op in action.c_ops],
    }
    with open(path, "w") as fh:
        json.dump(blob, fh, sort_keys=True, separators=(",", ":"))
    return action


def suite_hc(cfg) -> VerifyReport:
    from .hecke_clifford import hc_check

    report = VerifyReport("hc", {"n": cfg.n, "m": cfg.m, "param": cfg.param})
    for power in range(2, cfg.m + 1):
        local = hc_check(cached_hc_action(cfg.n, power, cfg.param, cfg.cache))
        report.extend(local, prefix=f"m={power}:")
    return report.finish()


def suite_sergeev(cfg) -> VerifyReport:
    from .duality import sergeev_verify

    centralizer = (2 * cfg.n) ** cfg.m <= 16
    return sergeev_verify(
        cfg.n, cfg.m, mode=cfg.mode, centralizer=centralizer, trials=cfg.trials, seed=cfg.seed
    )


def suite_howe(cfg) -> VerifyReport:
    from .duality import howe_verify

    return howe_verify(cfg.n, cfg.m, cfg.degree)


def suite_coord(cfg) -> VerifyReport:
    from .coord_alg import qca_report, zero_weight_iso

    report = VerifyReport("coord", {"n": cfg.n, "m": cfg.m})
    report.extend(qca_report(cfg.n), prefix="relations:")
    report.extend(zero_weight_iso(cfg.n, cfg.m), prefix="zw:")
    return report.finish()


def suite_fixture(cfg) -> VerifyReport:
    from .duality import fixture_module

    _, report = fixture_module()
    return report


def suite_classical(cfg) -> VerifyReport:
    from .duality import classical_crosscheck

    return classical_crosscheck(cfg.n, cfg.m)


def suite_census(cfg) -> VerifyReport:
    from .duality import isotypic_census

    _, report = isotypic_census(cfg.n, cfg.m)
    return report


SUITES = {
    "relations": suite_relations,
    "hc": suite_hc,
    "sergeev": suite_sergeev,
    "howe": suite_howe,
    "coord": suite_coord,
    "fixture": suite_fixture,
    "classical": suite_classical,
    "census": suite_census,
}

# the full desk-scale battery: (suite, overrides)
BATTERY = [
    ("relations", {"n": 1, "m": 4}),
    ("relations", {"n": 2, "m": 3}),
    ("relations", {"n": 3, "m": 2}),
    ("hc", {"n": 1, "m": 4}),
    ("hc", {"n": 2, "m": 4}),
    ("sergeev", {"n": 1, "m": 1}),
    ("sergeev", {"n": 1, "m": 2}),
    ("sergeev", {"n": 2, "m": 2}),
    ("sergeev", {"n": 2, "m": 3}),
    ("census", {"n": 1, "m": 3}),
    ("census", {"n": 2, "m": 3}),
    ("coord", {"n": 2, "m": 2}),
    ("howe", {"n": 1, "m": 1, "degree": 2}),
    ("howe", {"n": 2, "m": 2, "degree": 2}),
    ("fixture", {}),
    ("classical", {"n": 2, "m": 2}),
]


def collect_expectations(reports: list[VerifyReport]) -> dict:
    out: dict = {"_generated_by": "queerdual --all --write-expectations", "_format": 1}
    for rep in reports:
        key = f"{rep.params.get('n')},{rep.params.get('m')}"
        if rep.suite == "sergeev":
            vals = {
                k: rep.derived_values[k]
                for k in (
                    "hc_image_dim",
                    "queer_commutant_dim",
                    "queer_image_dim",
                    "hc_commutant_dim",
                    "block_copies",
                )
                if k in rep.derived_values
            }
            out.setdefault("sergeev", {})[key] = vals
        elif rep.suite == "howe":
            dims = {
                str(l): v["dim"] for l, v in rep.derived_values.get("dims_by_degree", {}).items()
            }
            out.setdefault("howe", {})[key] = {"graded_dims": dims}
        elif rep.suite == "census":
            out.setdefault("census", {})[key] = rep.derived_values.get("census", {}).get("blocks")
        elif rep.suite == "coord":
            vals = {
                k: rep.derived_values[k]
                for k in ("relations:image_dim_l1", "relations:image_dim_l2")
                if k in rep.derived_values
            }
            out.setdefault("coord", {})[key] = vals
    return out


def run_battery(cfg, expected: dict | None = None):
    reports = []
    for suite, overrides in BATTERY:
        sub = argparse.Namespace(**vars(cfg))
        for k, v in overrides.items():
            setattr(sub, k, v)
        rep = SUITES[suite](sub)
        if expected:
            _apply_regressions(rep, expected)
        reports.append(rep)
    return reports


def _apply_regressions(report: VerifyReport, expected: dict) -> None:
    from .report import Check

    key = f"{report.params.get('n')},{report.params.get('m')}"
    if report.suite == "sergeev":
        table = expected.get("sergeev", {}).get(key, {})
        for name, frozen in table.items():
            got = report.derived_values.get(name)
            report.checks.append(
                Check(f"regression[{name}]", "pass" if got == frozen else "fail", None,
                      {"got": got, "frozen": frozen})
            )
    elif report.suite == "howe":
        dims = expected.get("howe", {}).get(key, {}).get("graded_dims", {})
        got = {str(l): v["dim"] for l, v in report.derived_values.get("dims_by_degree", {}).items()}
        for l, frozen in dims.items():
            if l in got:
                report.checks.append(
                    Check(f"regression[graded_dim l={l}]", "pass" if got[l] == frozen else "fail",
                          None, {"got": got[l], "frozen": frozen})
                )
    elif report.suite == "census":
        frozen = expected.get("census", {}).get(key)
        got = report.derived_values.get("census", {}).get("blocks")
        if frozen is not None:
            report.checks.append(
                Check("regression[census_blocks]", "pass" if got == frozen else "fail", None,
                      {"got": got, "frozen": frozen})
            )
    elif report.suite == "coord":
        table = expected.get("coord", {}).get(key, {})
        for name, frozen in table.items():
            got = report.derived_values.get(name)
            report.checks.append(
                Check(f"regression[{name}]", "pass" if got == frozen else "fail", None,
                      {"got": got, "frozen": frozen})
            )


def validate(cfg) -> None:
    if cfg.n < 1 or cfg.m < 1 or cfg.degree < 0:
        raise InvalidConfig("n, m >= 1 and degree >= 0 required")
    if cfg.mode not in ("exact", "prob"):
        raise InvalidConfig(f"unknown mode {cfg.mode!r}")
    if cfg.param not in (PARAM_Q, PARAM_QINV):
        raise InvalidConfig(f"unknown param {cfg.param!r}")
    if cfg.mode == "prob" and cfg.trials < 1:
        raise InvalidConfig("probabilistic mode requires trials >= 1")
    if cfg.n > DEFAULT_BOUNDS["n"] or cfg.m > DEFAULT_BOUNDS["m"] or cfg.degree > DEFAULT_BOUNDS["degree"]:
        raise UnsupportedScale(
            f"supported bounds: n <= {DEFAULT_BOUNDS['n']}, m <= {DEFAULT_BOUNDS['m']}, "
            f"degree <= {DEFAULT_BOUNDS['degree']}"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="queerdual",
        description="Exact verification suites for quantum queer superalgebra dualities.",
    )
    parser.add_argument("suite", nargs="?", choices=sorted(SUITES), help="suite to run")
    parser.add_argument("--n", type=int, default=2, help="row-side rank (default 2)")
    parser.add_argument("--m", type=int, default=2, help="column-side rank / tensor power (default 2)")
    parser.add_argument("--degree", type=int, default=2, help="degree bound for the Howe census")
    parser.add_argument("--param", choices=[PARAM_Q, PARAM_QINV], default=PARAM_Q)
    parser.add_argument("--mode", choices=["exact", "prob"], default="exact")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--cache", metavar="DIR", help="operator cache directory")
    parser.add_argument("--all", action="store_true", help="run the full desk-scale battery")
    parser.add_argument(
        "--write-expectations", metavar="PATH",
        help="with --all: regenerate the machine-derived expectations file",
    )
    cfg = parser.parse_args(argv)

    try:
        validate(cfg)
        if not cfg.all and not cfg.suite:
            parser.error("a suite name or --all is required")
        if cfg.all:
            from .duality import load_expectations

            expected = None if cfg.write_expectations else load_expectations()
            reports = run_battery(cfg, expected)
            ok = all(r.ok for r in reports)
            payload = {"ok": ok, "suites": [r.to_dict() for r in reports]}
            if cfg.write_expectations:
                blob = collect_expectations(reports)
                with open(cfg.write_expectations, "w") as fh:
                    json.dump(blob, fh, indent=2, sort_keys=True)
                print(f"wrote expectations to {cfg.write_expectations}", file=sys.stderr)
        else:
            report = SUITES[cfg.suite](cfg)
            from .duality import load_expectations

            expected = load_expectations()
            if expected:
                _apply_regressions(report, expected)
            ok = report.ok
            payload = report.to_dict()
    except (InvalidConfig, UnsupportedScale) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = json.dumps(payload, indent=2, default=str)
    if cfg.report:
        with open(cfg.report, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    for line in _summary_lines(payload):
        print(line, file=sys.stderr)
    return 0 if ok else 1


def _summary_lines(payload: dict) -> list[str]:
    if "suites" in payload:
        lines = []
        for rep in payload["suites"]:
            bad = [c for c in rep["checks"] if c["status"] != "pass"]
            tag = "PASS" if not bad else f"FAIL ({len(bad)})"
            lines.append(f"[{tag}] {rep['suite']} {rep['params']}")
        return lines
    bad = [c for c in payload["checks"] if c["status"] != "pass"]
    return [f"[{'PASS' if not bad else 'FAIL'}] {payload['suite']} {payload['params']}"]


if __name__ == "__main__":
    raise SystemExit(main())
