"""Span tracing of bellquasi from outside the package.

A :class:`Tracer` replaces the module attributes that callers look up
(``bellquasi.quasi.classify``, ``bellquasi.marginal_general.rank``, ...)
with wrappers that record a span per call, and puts the originals back on
``uninstall``.  A function is replaced in every ``bellquasi`` module that
binds it, so ``from .exactla import rank`` call sites are traced too.
Spans live in flat in-memory arrays and are written out once, at the end.
"""

from __future__ import annotations

import array
import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

#: (module, attribute) pairs to trace; "Class.method" patches the class.
TARGETS = (
    ("singlet", "_checked_correlation"),
    ("singlet", "pair_table"),
    ("singlet", "tables_from_correlations"),
    ("singlet", "CorrelationTriple.__post_init__"),
    ("singlet", "BellMarginals.__post_init__"),
    ("quasi", "classify"),
    ("quasi", "solve_family"),
    ("quasi", "bell_problem"),
    ("bellcheck", "bell_pair"),
    ("cli", "main"),
    ("cli", "cmd_scan"),
    ("cli", "load_problem_document"),
    ("marginal_general", "MarginalProblem.__post_init__"),
    ("marginal_general", "solve_problem"),
    ("marginal_general", "build_constraint_system"),
    ("marginal_general", "lp_feasible"),
    ("marginal_general", "_phase_one_simplex"),
    ("exactla", "rank"),
    ("exactla", "solve_consistent"),
)

LAYERS = ("singlet", "quasi", "bellcheck", "cli", "marginal_general", "exactla")
#: Pseudo-layer for time inside a timed operation that no span covers, and
#: for the tracer's own result inspection.
BENCH = "bench"
_OBSERVE = "bench.observe"
_MARK = "__bench_span__"


def _package_modules():
    return [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "bellquasi" and m]


def _bits(values) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values), default=0)


def assert_untraced() -> None:
    """Raise if any bellquasi attribute is still a span wrapper."""
    for module in _package_modules():
        for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
            for key, value in vars(owner).items():
                if getattr(value, _MARK, False):
                    raise RuntimeError(f"tracing wrapper left on {owner.__name__}.{key}")


class Tracer:
    """Records spans (name, parent, start, end) for calls into bellquasi."""

    def __init__(self):
        self.names: list[str] = []
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.results: list = []  # per span: observed result facts, or None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        by_name = {m.__name__.split(".")[-1]: m for m in modules}
        for module_name, attr in TARGETS:
            module = by_name[module_name]
            span_name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = vars(owner)[meth]
                self._patch(owner, meth, original, self._wrap(span_name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span_name, original)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, key, original, wrapper)

    def _patch(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._patched.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        for owner, key, original in self._patched:
            if vars(owner)[key] is not original:
                raise RuntimeError(f"could not restore {key}")
        self._patched.clear()
        assert_untraced()

    def _wrap(self, name, fn):
        names, parents, starts, ends, results = self.names, self.parents, self.starts, self.ends, self.results
        stack = self._stack
        clock = time.perf_counter
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            results.append(None)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if observe is not None:
                # Inspecting the result is tracer work: give it its own span.
                t0 = clock()
                results[idx] = observe(result, names[parents[idx]] if parents[idx] >= 0 else None)
                names.append(_OBSERVE)
                parents.append(parents[idx])
                starts.append(t0)
                ends.append(clock())
                results.append(None)
            return result

        setattr(traced, _MARK, True)
        return traced

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name call counts, durations, self times and facts."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        durations: dict[str, list[float]] = defaultdict(list)
        selfs: dict[str, list[float]] = defaultdict(list)
        facts: dict[str, list] = defaultdict(list)
        root_total = 0.0
        for i in range(n):
            name = self.names[i]
            dur = self.ends[i] - self.starts[i]
            durations[name].append(dur)
            selfs[name].append(dur - child[i])
            if self.results[i] is not None:
                facts[name].append((dur, self.results[i]))
            if self.parents[i] < 0:
                root_total += dur
        return {"durations": durations, "selfs": selfs, "facts": facts, "root_total": root_total, "spans": n}

    def dump(self, path: str, provenance: dict) -> None:
        """Write the spans as one JSON document (times in microseconds)."""
        index = {name: i for i, name in enumerate(dict.fromkeys(self.names))}
        t0 = self.starts[0] if len(self.starts) else 0.0
        doc = {
            "provenance": provenance,
            "names": list(index),
            "columns": ["name", "parent", "start_us", "end_us"],
            "spans": [
                [index[self.names[i]], self.parents[i], round((self.starts[i] - t0) * 1e6, 3),
                 round((self.ends[i] - t0) * 1e6, 3)]
                for i in range(len(self.names))
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _observe_system(result, parent):
    mat, rhs = result
    return {"rows": mat.rows, "cols": mat.cols, "rhs_bits": _bits(rhs)}


def _observe_lp(result, parent):
    return {"status": result.status.value, "witness_bits": _bits(result.witness or ())}


def _observe_classify(result, parent):
    return {"verdict": result.tag.value}


def _observe_family(result, parent):
    if parent == "quasi.classify":
        return None  # counted by the classify observer
    if result is None:
        return {"verdict": "Inconsistent"}
    return {"verdict": "Proper" if result.t_lo <= result.t_hi else "QuasiOnly"}


_OBSERVERS = {
    "marginal_general.build_constraint_system": _observe_system,
    "marginal_general.lp_feasible": _observe_lp,
    "quasi.classify": _observe_classify,
    "quasi.solve_family": _observe_family,
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_of(span_name: str) -> str:
    return BENCH if span_name == _OBSERVE else span_name.split(".")[0]


def counts(summary: dict, items: int) -> dict:
    """Exact counts of one traced round; they must repeat for one seed."""
    durations, facts = summary["durations"], summary["facts"]
    calls = {name: len(v) for name, v in durations.items() if name != _OBSERVE}
    verdicts = Counter(
        f["verdict"] for name in ("quasi.classify", "quasi.solve_family") for _, f in facts.get(name, ())
    )
    systems = [f for _, f in facts.get("marginal_general.build_constraint_system", ())]
    lps = [f for _, f in facts.get("marginal_general.lp_feasible", ())]
    return {
        "items": items,
        "calls": dict(sorted(calls.items())),
        "quasi_verdicts": dict(sorted(verdicts.items())),
        "lp_verdicts": dict(sorted(Counter(f["status"] for f in lps).items())),
        "rows_max": max((f["rows"] for f in systems), default=0),
        "cols_max": max((f["cols"] for f in systems), default=0),
        "rhs_bits_max": max((f["rhs_bits"] for f in systems), default=0),
        "witness_bits_max": max((f["witness_bits"] for f in lps), default=0),
    }


def layer_metrics(summary: dict, c: dict, untraced_s: float, traced_s: float, overhead_share: float) -> dict:
    """The per-layer metrics of one traced round (units in BENCHMARK.json).

    ``untraced_s`` and ``traced_s`` are the fastest rounds' wall times;
    ``overhead_share`` is the tracing overhead measured against the
    reference loop, which swings of the host's speed between rounds do not move.
    """
    durations, selfs, facts = summary["durations"], summary["selfs"], summary["facts"]
    calls = c["calls"]

    def med(name, scale, which=durations):
        return _median(which.get(name, ())) * scale

    def per(num, den):
        return num / den if den else 0.0

    by_status = defaultdict(list)
    for dur, f in facts.get("marginal_general.lp_feasible", ()):
        by_status[f["status"]].append(dur)
    lp_total = sum(durations.get("marginal_general.lp_feasible", ()))
    simplex_total = sum(durations.get("marginal_general._phase_one_simplex", ()))
    layer_self = defaultdict(float)
    for name, values in selfs.items():
        layer_self[layer_of(name)] += sum(values)
    # Time inside the timed operations that no span covers.
    layer_self[BENCH] += traced_s - summary["root_total"]
    lp_calls = calls.get("marginal_general.lp_feasible", 0)
    eliminations = calls.get("exactla.rank", 0) + calls.get("exactla.solve_consistent", 0)

    m = {
        "singlet.tables_from_correlations.us": med("singlet.tables_from_correlations", 1e6),
        "singlet.checks_per_triple": per(calls.get("singlet._checked_correlation", 0), c["items"]),
        "quasi.classify.us": med("quasi.classify", 1e6),
        "quasi.solve_family.us": med("quasi.solve_family", 1e6),
        "quasi.verdicts.proper": c["quasi_verdicts"].get("Proper", 0),
        "quasi.verdicts.quasi_only": c["quasi_verdicts"].get("QuasiOnly", 0),
        "bellcheck.bell_pair.us": med("bellcheck.bell_pair", 1e6),
        "cli.scan.self_s": med("cli.cmd_scan", 1.0, selfs),
        "cli.load_problem_document.ms": med("cli.load_problem_document", 1e3),
        "marginal_general.solve_problem.ms": med("marginal_general.solve_problem", 1e3),
        "marginal_general.solve_problem.self_us": med("marginal_general.solve_problem", 1e6, selfs),
        "marginal_general.build_constraint_system.ms": med("marginal_general.build_constraint_system", 1e3),
        "marginal_general.build_constraint_system.rows_max": c["rows_max"],
        "marginal_general.build_constraint_system.cols_max": c["cols_max"],
        "marginal_general.lp_feasible.proper.ms": _median(by_status["Proper"]) * 1e3,
        "marginal_general.lp_feasible.quasi_only.ms": _median(by_status["QuasiOnly"]) * 1e3,
        "marginal_general.lp_feasible.inconsistent.ms": _median(by_status["Inconsistent"]) * 1e3,
        "marginal_general.simplex.self_ms": med("marginal_general._phase_one_simplex", 1e3, selfs),
        "marginal_general.simplex.share": per(simplex_total, lp_total),
        "marginal_general.rhs_bits_max": c["rhs_bits_max"],
        "marginal_general.witness_bits_max": c["witness_bits_max"],
        "exactla.rank.ms": med("exactla.rank", 1e3),
        "exactla.solve_consistent.ms": med("exactla.solve_consistent", 1e3),
        "exactla.eliminations_per_lp": per(eliminations, lp_calls),
    }
    for layer in LAYERS + (BENCH,):
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.untraced_round_s"] = untraced_s
    m["trace.traced_round_s"] = traced_s
    m["trace.overhead_share"] = overhead_share
    m["trace.overhead_s"] = overhead_share * untraced_s
    m["trace.spans_per_round"] = summary["spans"]
    return m
