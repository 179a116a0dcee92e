"""Command-line entry point: one subcommand per verification suite.

Exit status is 1 when any check fails and 2 for an invalid configuration, a
corrupt expectations file or an output path that cannot be written.  Reports
are emitted as JSON with the schema {suite, params, checks: [{name, status,
witness?, value?}], derived_values, elapsed_ms}; the --all battery wraps the
individual reports.  Runs are deterministic for a fixed configuration
(elapsed_ms aside).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .coord_alg import qca_report, zero_weight_iso
from .duality import (
    classical_crosscheck,
    fixture_module,
    howe_verify,
    isotypic_census,
    load_expectations,
    sergeev_verify,
)
from .hecke_clifford import hc_check, hc_tensor_action
from .report import VerifyReport
from .uq_queer import PARAM_Q, PARAM_QINV, check_defining_relations, tensor_rep, vector_rep

DEFAULT_BOUNDS = {"n": 4, "m": 5, "degree": 4}


class InvalidConfig(Exception):
    pass


class UnsupportedScale(Exception):
    pass


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_relations(cfg) -> VerifyReport:
    report = VerifyReport("relations", {"n": cfg.n, "m": cfg.m, "param": cfg.param, "mode": cfg.mode})
    base = vector_rep(cfg.n, cfg.param)
    for power in range(1, cfg.m + 1):
        rep = tensor_rep(base, power)  # built on the previous power, held until here
        local = check_defining_relations(rep, mode=cfg.mode, trials=cfg.trials, seed=cfg.seed)
        report.extend(local, prefix=f"m={power}:")
    report.derive(
        "e_scalar_note",
        "e_j uses the -xi^{-1} normalization (the action-table-consistent scalar)",
    )
    return report.finish()


def suite_hc(cfg) -> VerifyReport:
    report = VerifyReport("hc", {"n": cfg.n, "m": cfg.m, "param": cfg.param})
    for power in range(1, cfg.m + 1):
        local = hc_check(hc_tensor_action(cfg.n, power, cfg.param))
        report.extend(local, prefix=f"m={power}:")
    return report.finish()


def suite_sergeev(cfg) -> VerifyReport:
    centralizer = (2 * cfg.n) ** cfg.m <= 16
    return sergeev_verify(cfg.n, cfg.m, centralizer=centralizer)


def suite_howe(cfg) -> VerifyReport:
    return howe_verify(cfg.n, cfg.m, cfg.degree)


def suite_coord(cfg) -> VerifyReport:
    report = VerifyReport("coord", {"n": cfg.n, "m": cfg.m})
    report.extend(qca_report(cfg.n), prefix="relations:")
    report.extend(zero_weight_iso(cfg.n, cfg.m), prefix="zw:")
    return report.finish()


def suite_fixture(cfg) -> VerifyReport:
    _, report = fixture_module()
    return report


def suite_classical(cfg) -> VerifyReport:
    return classical_crosscheck(cfg.n, cfg.m)


def suite_census(cfg) -> VerifyReport:
    _, report = isotypic_census(cfg.n, cfg.m)
    return report


# the suites that read --param; every other suite runs at q
PARAM_SUITES = ("relations", "hc")

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


# The derived values frozen in expected_values.json, per suite, in the file's
# layout: entry = _FROZEN[suite](report.derived_values).
_SERGEEV_FROZEN = (
    "hc_image_dim", "queer_commutant_dim", "queer_image_dim", "hc_commutant_dim", "block_copies",
)
_COORD_FROZEN = ("relations:image_dim_l1", "relations:image_dim_l2")
_FROZEN = {
    "sergeev": lambda d: {k: d[k] for k in _SERGEEV_FROZEN if k in d},
    "howe": lambda d: {"graded_dims": {str(l): v["dim"] for l, v in d.get("dims_by_degree", {}).items()}},
    "census": lambda d: d.get("census", {}).get("blocks"),
    "coord": lambda d: {k: d[k] for k in _COORD_FROZEN if k in d},
}


def _check_frozen_shapes(expected: dict) -> None:
    """ValueError unless every configuration's entry is an object, as ``_FROZEN`` reads it (graded_dims too)."""
    for suite in _FROZEN:
        for key, entry in expected.get(suite, {}).items():
            if not isinstance(entry, dict) or not isinstance(entry.get("graded_dims", {}), dict):
                raise ValueError(f"the {suite} entry {key!r} is not an object of frozen values")


def _config_key(report: VerifyReport) -> str:
    return f"{report.params.get('n')},{report.params.get('m')}"


def frozen_values(report: VerifyReport):
    """The report's entry in the expectations file, or None if its suite freezes nothing."""
    extract = _FROZEN.get(report.suite)
    return None if extract is None else extract(report.derived_values)


def collect_expectations(reports: list[VerifyReport]) -> dict:
    out: dict = {"_generated_by": "queerdual --all --write-expectations", "_format": 1}
    for rep in reports:
        if rep.suite in _FROZEN:
            out.setdefault(rep.suite, {})[_config_key(rep)] = frozen_values(rep)
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
    """Append one regression[...] check per frozen value of this configuration."""
    if report.suite not in _FROZEN:
        return
    frozen = expected.get(report.suite, {}).get(_config_key(report))
    if frozen is None:
        return
    got = frozen_values(report)
    if report.suite == "census":
        rows = [("census_blocks", got, frozen)]
    elif report.suite == "howe":
        # a lower --degree computes fewer graded pieces than were frozen
        dims = got["graded_dims"]
        rows = [
            (f"graded_dim l={l}", dims[l], f)
            for l, f in frozen.get("graded_dims", {}).items()
            if l in dims
        ]
    else:
        rows = [(name, got.get(name), f) for name, f in frozen.items()]
    for name, g, f in rows:
        report.add(f"regression[{name}]", g == f, value={"got": g, "frozen": f})


def validate(cfg) -> None:
    if cfg.n < 1 or cfg.m < 1 or cfg.degree < 0:
        raise InvalidConfig("n, m >= 1 and degree >= 0 required")
    if cfg.mode not in ("exact", "prob"):
        raise InvalidConfig(f"unknown mode {cfg.mode!r}")
    if cfg.param not in (PARAM_Q, PARAM_QINV):
        raise InvalidConfig(f"unknown param {cfg.param!r}")
    if cfg.mode == "prob" and cfg.trials < 1:
        raise InvalidConfig("probabilistic mode requires trials >= 1")
    if cfg.mode == "prob" and not cfg.all and cfg.suite not in (None, "relations"):
        raise InvalidConfig(f"--mode prob applies to the relations suite only, not {cfg.suite!r}")
    if cfg.param != PARAM_Q and not cfg.all and cfg.suite not in (None, *PARAM_SUITES):
        raise InvalidConfig(
            f"--param {cfg.param} applies to the {' and '.join(PARAM_SUITES)} suites only, not {cfg.suite!r}"
        )
    if cfg.write_expectations and not cfg.all:
        raise InvalidConfig("--write-expectations requires --all")
    for path in (cfg.report, cfg.write_expectations):
        if path and not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise InvalidConfig(f"the directory of output path {path!r} does not exist")
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
    parser.add_argument(
        "--mode", choices=["exact", "prob"], default="exact",
        help="relations suite: exact, or GF(p) trials at seeded points",
    )
    parser.add_argument("--trials", type=int, default=5, help="with --mode prob: trial points")
    parser.add_argument("--seed", type=int, default=0, help="with --mode prob: seed of the trial points")
    parser.add_argument("--report", metavar="PATH", help="write the JSON report here")
    parser.add_argument("--all", action="store_true", help="run the full desk-scale battery")
    parser.add_argument(
        "--write-expectations", metavar="PATH",
        help="with --all: regenerate the machine-derived expectations file",
    )
    cfg = parser.parse_args(argv)

    expectations = None
    try:
        validate(cfg)
        if not cfg.all and not cfg.suite:
            parser.error("a suite name or --all is required")
        try:
            expected = None if cfg.write_expectations else load_expectations()
            _check_frozen_shapes(expected or {})
        except ValueError as exc:
            raise InvalidConfig(f"corrupt expectations file: {exc}") from None
        except OSError as exc:
            raise InvalidConfig(f"cannot read the expectations file: {exc}") from None
        if cfg.all:
            reports = run_battery(cfg, expected)
            ok = all(r.ok for r in reports)
            payload = {"ok": ok, "suites": [r.to_dict() for r in reports]}
            if cfg.write_expectations:
                expectations = collect_expectations(reports)
        else:
            report = SUITES[cfg.suite](cfg)
            if expected:
                _apply_regressions(report, expected)
            ok = report.ok
            payload = report.to_dict()
    except (InvalidConfig, UnsupportedScale) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = json.dumps(payload, indent=2, default=str)
    try:
        if expectations is not None:
            with open(cfg.write_expectations, "w") as fh:
                json.dump(expectations, fh, indent=2, sort_keys=True)
            print(f"wrote expectations to {cfg.write_expectations}", file=sys.stderr)
        if cfg.report:
            with open(cfg.report, "w") as fh:
                fh.write(text + "\n")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    if not cfg.report:
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
