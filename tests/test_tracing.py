"""The benchmark's span tracer (bench/tracing.py) must find every function
it wraps: deleting or renaming a traced function breaks the benchmark.  And
the calls must still pass through the spans that its per-layer metrics read."""

import importlib.util
from pathlib import Path

import bellquasi.cli  # noqa: F401  imports every module the tracer patches
import oracles

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_target_is_a_function():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = {key: original for _, key, original in tracer._patched}
    finally:
        tracer.uninstall()
    for _, attr in tracing.TARGETS:
        assert callable(patched[attr.split(".")[-1]]), attr
    tracing.assert_untraced()


def test_traced_exact_sweep_round_covers_every_lp(tmp_path):
    # each triple's Bell LP still goes through the traced build_constraint_system
    # and lp_feasible, so every per-layer LP metric keeps its meaning
    tracing, workloads = oracles.bench_module("tracing"), oracles.bench_module("workloads")
    workload = workloads.build("exact_sweep", 1, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outputs = [(call(), check) for call, check in workload.ops]
    finally:
        tracer.uninstall()
    assert all(check(out) == (1, True) for out, check in outputs)
    counts = tracing.counts(tracer.summary(), len(outputs))
    assert len(outputs) == 500
    assert counts["calls"]["marginal_general.build_constraint_system"] == 500
    assert counts["calls"]["marginal_general.lp_feasible"] == 500
    assert counts["rows_max"] == 10 and counts["cols_max"] == 8 and counts["rhs_bits_max"] > 0
