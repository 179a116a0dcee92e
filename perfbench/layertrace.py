"""Layer tracing from outside the program.

``Tracer.install`` replaces the public functions of each queerdual layer, and a
few hot methods of its scalar and operator classes, with timing wrappers.  A
module function is replaced in every module namespace that bound it with
``from . import``, so a call through any of those names is seen.  Nothing is
kept per call: each wrapped function aggregates into one ``Stat`` (calls,
inclusive seconds, self seconds and a few counters), because the scalar leaves
run 10^5 to 10^6 times per workload.

Self time is a span's duration minus the durations of the wrapped spans it
directly contains; a layer's self time is the sum over its functions.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from fractions import Fraction

LAYERS = ("scalars", "superlinalg", "uq_queer", "hecke_clifford", "coord_alg", "duality", "cli")

# cli is one layer around the others: only its entry point is timed, so its
# self time is argument handling, validation, regression comparison and JSON.
ONLY = {"cli": {"main"}}


class Stat:
    __slots__ = ("calls", "total", "self_s", "active", "counters")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.active = 0
        self.counters: dict = {}

    def bump(self, key: str, by=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + by

    def to_dict(self) -> dict:
        return {"calls": self.calls, "s": self.total, "self_s": self.self_s, **self.counters}


# -- counters observed on a wrapped call's arguments and result -----------------

def _den(x):
    den = getattr(x, "den", None)
    if den is not None:
        return den
    if isinstance(x, int):
        return (1,)
    if isinstance(x, Fraction):
        return (x.denominator,)
    return None


def _is_q_power(den) -> bool:
    return den[-1] == 1 and not any(den[:-1])


def _observe_mul(stat: Stat, args, result) -> None:
    if result is NotImplemented:
        return
    stat.bump("products")
    da, db = _den(args[0]), _den(args[1])
    if _is_q_power(da) and _is_q_power(db):
        stat.bump("laurent")
    num, den = result.num, result.den
    bits = max(max(num, default=0), -min(num, default=0), max(den), -min(den)).bit_length()
    if bits > stat.counters.get("max_coeff_bits", 0):
        stat.counters["max_coeff_bits"] = bits


def _observe_matmul(stat: Stat, args, result) -> None:
    stat.bump("nnz_out", len(result.entries))


def _observe_rref(stat: Stat, args, result) -> None:
    stat.bump("rows", len(args[0]))
    stat.bump("pivots", len(result))


def _observe_commutant(stat: Stat, args, result) -> None:
    stat.bump("unknowns", args[0][0].dom.dim ** 2)


def _observe_insert(stat: Stat, args, result) -> None:
    stat.bump("accepted", int(bool(result)))


def _methods(package) -> list:
    """(class, attribute, stat key, observer) for the wrapped class attributes."""
    RatFunc = package.scalars.RatFunc
    SOp = package.superlinalg.SOp
    Echelon = package.superlinalg.Echelon
    return [
        (RatFunc, "__mul__", "scalars.mul", _observe_mul),
        (RatFunc, "__rmul__", "scalars.mul", _observe_mul),
        (RatFunc, "__add__", "scalars.add", None),
        (RatFunc, "__radd__", "scalars.add", None),
        (RatFunc, "inverse", "scalars.inverse", None),
        (RatFunc, "specialize", "scalars.specialize", None),
        (SOp, "__matmul__", "superlinalg.matmul", _observe_matmul),
        (SOp, "scale", "superlinalg.scale", None),
        (SOp, "__add__", "superlinalg.add", None),
        (Echelon, "insert", "superlinalg.echelon_insert", _observe_insert),
    ]


OBSERVERS = {
    "superlinalg.rref": _observe_rref,
    "superlinalg.graded_commutant": _observe_commutant,
}


def public_functions(package) -> list:
    """(stat key, function) for every public function each layer defines."""
    out = []
    for layer in LAYERS:
        mod = getattr(package, layer)
        for name, fn in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if layer in ONLY and name not in ONLY[layer]:
                continue
            out.append((f"{layer}.{name}", fn))
    return out


def namespaces(package) -> list:
    """The package and every loaded queerdual module: each may hold a binding."""
    prefix = package.__name__ + "."
    return [package] + [m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)]


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack = [0.0]  # per open span: seconds spent in wrapped children
        self._undo: list = []

    def wrap(self, key: str, fn, observe=None):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            stat.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat.active -= 1
                stat.calls += 1
                stat.self_s += dt - stack.pop()
                if not stat.active:  # a recursive call's time is counted once
                    stat.total += dt
                stack[-1] += dt
            if observe is not None:
                observe(stat, args, result)
            return result

        return wrapper

    def install(self, package) -> None:
        methods = _methods(package)
        method_keys = {key for _, _, key, _ in methods}
        for cls, attr, key, observe in methods:
            if attr in vars(cls):
                self._patch(cls, attr, self.wrap(key, vars(cls)[attr], observe))
        spaces = namespaces(package)
        for key, fn in public_functions(package):
            if key in method_keys:  # scalars.specialize(f, c) only forwards to the method
                continue
            wrapper = self.wrap(key, fn, OBSERVERS.get(key))
            for ns in spaces:
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        self._patch(ns, name, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def patched(self) -> list:
        """(owner, attribute) of every binding currently replaced."""
        return [(owner, attr) for owner, attr, _ in self._undo]

    def snapshot(self) -> dict:
        return {key: stat.to_dict() for key, stat in self.stats.items()}


def layer_metrics(snapshot: dict, names: list) -> dict:
    """Per-layer metric values by name, from a Tracer snapshot.

    ``<layer>.self_s`` sums the self time of the layer's functions;
    ``<layer>.<fn>.calls|s|self_s`` read one function; the other names read a
    counter, and the two shares divide one by its base.
    """
    out = {}
    for name in names:
        parts = name.split(".")
        if parts[1:] == ["self_s"]:
            out[name] = sum(v["self_s"] for k, v in snapshot.items() if k.startswith(parts[0] + "."))
            continue
        if len(parts) != 3:
            raise KeyError(f"not a layer metric: {name}")
        # a function the program no longer has reads 0
        stat = snapshot.get(f"{parts[0]}.{parts[1]}", {})
        quantity = parts[2]
        if quantity == "laurent_share":
            out[name] = stat.get("laurent", 0) / max(stat.get("products", 0), 1)
        elif quantity == "accept_ratio":
            out[name] = stat.get("accepted", 0) / max(stat.get("calls", 0), 1)
        elif quantity in ("calls", "s", "self_s", "max_coeff_bits", "nnz_out", "rows", "pivots", "unknowns"):
            out[name] = stat.get(quantity, 0)
        else:
            raise KeyError(f"not a layer metric: {name}")
    return out
