"""Machine-readable outcome of a check suite."""

from __future__ import annotations

import json
import time


class Check:
    def __init__(self, name: str, status: str, witness=None, value=None):
        self.name, self.status = name, status  # status "pass" | "fail"
        self.witness, self.value = witness, value

    def to_dict(self) -> dict:
        d = {"name": self.name, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.value is not None:
            d["value"] = self.value
        return d


class VerifyReport:
    def __init__(self, suite: str, params: dict | None = None, checks: list | None = None,
                 derived_values: dict | None = None, elapsed_ms: float = 0.0):
        self.suite = suite
        self.params = {} if params is None else params
        self.checks = [] if checks is None else checks
        self.derived_values = {} if derived_values is None else derived_values
        self.elapsed_ms = elapsed_ms
        self._t0 = time.monotonic()

    def add(self, name: str, ok: bool, witness=None, value=None) -> bool:
        self.checks.append(Check(name, "pass" if ok else "fail", witness, value))
        return ok

    def derive(self, key: str, value) -> None:
        self.derived_values[key] = value

    def extend(self, other: "VerifyReport", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(Check(prefix + c.name, c.status, c.witness, c.value))
        for k, v in other.derived_values.items():
            self.derived_values[prefix + k] = v

    def finish(self) -> "VerifyReport":
        self.elapsed_ms = round((time.monotonic() - self._t0) * 1000.0, 3)
        return self

    @property
    def ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status != "pass"]

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "checks": [c.to_dict() for c in self.checks],
            "derived_values": self.derived_values,
            "elapsed_ms": self.elapsed_ms,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)
