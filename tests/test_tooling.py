"""The benchmark tooling still fits the library: every layer the traced
perfbench run wraps exists, and the kernel benchmark script imports."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load(relpath, name):
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_layer():
    tracer = _load("perfbench/tracing.py", "perfbench_tracing").Tracer()
    assert tracer.missing == {}


def test_bench_kernels_imports():
    bench = _load("benchmarks/bench_kernels.py", "bench_kernels")
    assert callable(bench.main)
