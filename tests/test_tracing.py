"""The benchmark's span tracer (bench/tracing.py) must find every function
it wraps: deleting or renaming a traced function breaks the benchmark."""

import importlib.util
from pathlib import Path

import bellquasi.cli  # noqa: F401  imports every module the tracer patches

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
