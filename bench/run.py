"""bellquasi benchmark: one workload, closed loop, one JSON result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact_sweep --seed 1 --seconds 15 --trace 0

The workload's round of operations (built from the seed) is repeated, one
call at a time (a closed loop with one caller), until ``--seconds`` have
passed; the round in progress is finished.  Every output is checked; a
failed check or an exception counts as a failed operation.  ``--trace 0`` reports the end-to-end metrics with
tracing off.  ``--trace 1`` alternates untraced and traced rounds and
reports the per-layer metrics of the traced ones; the spans are written to
``.bench_out/``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import tracing  # bench/ is on sys.path as the script's directory

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 15
REFERENCE_TERMS = 4000
REFERENCE_BLOCK_S = 0.5

# Runs in a fresh interpreter: import plus the first (cold)
# pseudoinverse_matrix(), the one-off cost every process pays.
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import bellquasi
from bellquasi import quasi
t1 = time.perf_counter()
quasi.pseudoinverse_matrix()
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


class Setup:
    """Set-up time: import plus the first (cold) ``pseudoinverse_matrix()``,
    each in a fresh interpreter.

    The host's speed can swing for seconds at a time, so the
    ``SETUP_REPEATS`` interpreters are spread evenly over the run rather
    than started back to back; the first, discarded one compiles bytecode.
    """

    def __init__(self, seconds: float):
        self.interval = seconds / SETUP_REPEATS
        self.totals: list[float] = []
        self.pinvs: list[float] = []
        self._probe()
        self.totals.clear()
        self.pinvs.clear()
        self.last = float("-inf")

    def _probe(self) -> None:
        out = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, SRC],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        ).stdout.split()
        self.totals.append(float(out[0]) + float(out[1]))
        self.pinvs.append(float(out[1]))
        self.last = time.perf_counter()

    def maybe_probe(self) -> None:
        """Start one interpreter if the next one is due."""
        if len(self.totals) < SETUP_REPEATS and time.perf_counter() - self.last >= self.interval:
            self._probe()

    def medians(self) -> tuple[float, float]:
        """Median (set-up, cold pseudoinverse) seconds, after any probes
        the run left undone."""
        while len(self.totals) < SETUP_REPEATS:
            self._probe()
        return statistics.median(self.totals), statistics.median(self.pinvs)


def source_digest() -> str:
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "bellquasi"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def git_commit() -> str:
    """HEAD of the checkout, when it is a git work tree (never a parent's)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu_model(),
    }


class Tally:
    """Attempted and failed operations, with the first few failures shown."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, op) -> tuple[float, int]:
        """Run one operation; return (seconds inside the call, items)."""
        call, check = op
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            out = call()
            elapsed = time.perf_counter() - t0
        except Exception:
            self._fail(traceback.format_exc())
            return 0.0, 0
        try:
            items, ok = check(out)
        except Exception:
            self._fail(traceback.format_exc())
            return elapsed, 0
        if not ok:
            self._fail(f"output check failed for operation {self.attempted}\n")
        return elapsed, items

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            sys.stderr.write(message)


def reference_loop() -> None:
    """A fixed piece of exact arithmetic that uses no bellquasi code: the
    yardstick for the host's speed at the moment (about 10-20 ms)."""
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i % 97 + 1)


def _time_reference() -> float:
    """Median time of three reference loops."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_loop()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Meter:
    """Times operations, and their cost in reference loops.

    The reference loop runs first and after every block of operations that
    took at least ``REFERENCE_BLOCK_S`` (and at the end of each round); an
    operation's cost is its call time divided by the mean of the two
    reference times around its block.  On a shared 2-vCPU Intel Xeon host
    every call ran up to ~1.8x slower for seconds to minutes at a time, so
    wall-clock figures of separate runs spread by 15-50%, far more than a
    useful regression bound, while costs relative to a reference timed right
    next to them spread by 3-9%.
    """

    def __init__(self, workload, tally: Tally, setup: Setup):
        self.ops = workload.ops
        self.tally = tally
        self.setup = setup
        self.refs = [_time_reference()]
        self.times = [[] for _ in self.ops]  # per operation, one entry per round
        self.costs = [[] for _ in self.ops]
        self.round_times: list[float] = []
        self.round_costs: list[float] = []
        self._block: list[tuple[int, float]] = []

    def round(self) -> int:
        """Run every operation once; return the items done."""
        items = 0
        self.round_times.append(0.0)
        self.round_costs.append(0.0)
        for i, op in enumerate(self.ops):
            elapsed, n = self.tally.run(op)
            self._block.append((i, elapsed))
            items += n
            if sum(e for _, e in self._block) >= REFERENCE_BLOCK_S:
                self._close_block()
        self._close_block()
        return items

    def _close_block(self) -> None:
        if not self._block:
            return
        self.refs.append(_time_reference())
        ref = (self.refs[-2] + self.refs[-1]) / 2
        for i, elapsed in self._block:
            self.times[i].append(elapsed)
            self.costs[i].append(elapsed / ref)
            self.round_times[-1] += elapsed
            self.round_costs[-1] += elapsed / ref
        self._block.clear()
        self.setup.maybe_probe()


def timed_run(workload, seconds: float, tally: Tally, setup: Setup) -> dict:
    """Whole rounds until ``seconds`` have passed; end-to-end metrics in
    reference loops, each operation contributing the median of its costs
    over the rounds.  The wall-clock figures are printed too."""
    tracing.assert_untraced()
    meter = Meter(workload, tally, setup)
    start = time.perf_counter()
    while True:
        items = meter.round()
        if time.perf_counter() - start >= seconds:
            break
    cost = [statistics.median(c) for c in meter.costs]
    raw = sorted(x for t in meter.times for x in t)
    rounds = len(meter.round_times)
    print(
        f"{workload.name}: {tally.attempted} operations ({len(cost)} per round, {rounds} rounds), "
        f"{items} {workload.item}s per round; wall clock: p50 {statistics.median(raw) * 1e3:.3f} ms, "
        f"{_tail(raw)}, {items * rounds / sum(raw):.4g} {workload.item}s/s; "
        f"reference loop p50 {statistics.median(meter.refs) * 1e3:.3f} ms over {len(meter.refs)} runs; "
        f"failed {tally.failed}, fail ratio {tally.failed / tally.attempted:.6f}"
    )
    return {
        "items_per_kref": 1000 * items / sum(cost),
        "op_ref_p50": statistics.median(cost),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _tail(sorted_latencies) -> str:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(sorted_latencies)
    best = None
    for q in (0.9, 0.99, 0.999):
        if n * (1 - q) >= 10:
            best = q
    if best is None:
        return f"no tail percentile ({n} samples)"
    value = sorted_latencies[min(n - 1, int(best * n))]
    return f"p{best * 100:g} {value * 1e3:.3f} ms ({n} samples)"


def traced_run(workload, seconds: float, tally: Tally, setup: Setup, spans_path: str, prov: dict) -> dict:
    """Alternate untraced and traced rounds.  The per-layer metrics come
    from the fastest traced round.  The tracing overhead is the median
    traced round cost over the median untraced one, minus 1 (both in
    reference loops), and in seconds at the fastest untraced round's
    speed."""
    untraced, traced = Meter(workload, tally, setup), Meter(workload, tally, setup)
    count_sets = []
    fastest = None  # (round seconds, tracer, summary)
    start = time.perf_counter()
    while fastest is None or time.perf_counter() - start < seconds:
        tracing.assert_untraced()
        untraced.round()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            items = traced.round()
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        count_sets.append(tracing.counts(summary, items))
        if fastest is None or traced.round_times[-1] < fastest[0]:
            fastest = (traced.round_times[-1], tracer, summary)
    if any(c != count_sets[0] for c in count_sets):
        tally.failed += 1
        sys.stderr.write("exact counts differ between traced rounds of one seed\n")
    busy, tracer, summary = fastest
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(spans_path, prov)
    counts = count_sets[0]
    print("counts " + json.dumps(counts, sort_keys=True))
    prov["counts_sha256"] = hashlib.sha256(json.dumps(counts, sort_keys=True).encode()).hexdigest()
    share = statistics.median(traced.round_costs) / statistics.median(untraced.round_costs) - 1
    metrics = tracing.layer_metrics(summary, counts, min(untraced.round_times), busy, share)
    print(
        f"trace: {len(count_sets)} untraced and {len(count_sets)} traced rounds; fastest untraced "
        f"{min(untraced.round_times):.4f} s, fastest traced {busy:.4f} s = layer self times "
        f"{sum(metrics[f'{layer}.self_s'] for layer in tracing.LAYERS + (tracing.BENCH,)):.4f} s; "
        f"tracing overhead {share:.1%} of the untraced round in reference loops"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    try:
        import workloads  # imports bellquasi from src/
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    setup = Setup(args.seconds)
    prov = provenance(args)
    os.makedirs(WORK, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, WORK)
        tally = Tally()
        if args.trace:
            spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json")
            values = traced_run(workload, args.seconds, tally, setup, spans_path, prov)
        else:
            values = timed_run(workload, args.seconds, tally, setup)
        values["setup_s"], pinv_s = setup.medians()
        values["quasi.pseudoinverse_matrix.ms"] = pinv_s * 1e3
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if workload.outputs is not None:
        prov["output_sha256"] = workload.output_digest()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print("provenance " + json.dumps(prov, sort_keys=True))
    if args.trace:
        _print_baseline_comparison(values)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


def _print_baseline_comparison(values: dict) -> None:
    """Per-layer medians next to the hand-measured baselines in ROADMAP.md."""
    rows = (
        ("tables_from_correlations", "singlet.tables_from_correlations.us", "us", 215),
        ("solve_family", "quasi.solve_family.us", "us", 813),
        ("bell_pair", "bellcheck.bell_pair.us", "us", 29),
        ("solve_problem", "marginal_general.solve_problem.ms", "ms", 6.4),
    )
    parts = [f"{label} {values[key]:.1f} {unit} (roadmap {base} {unit})" for label, key, unit, base in rows]
    print("per-layer medians: " + "; ".join(parts))


if __name__ == "__main__":
    sys.exit(main())
