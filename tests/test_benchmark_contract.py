"""The package names that the benchmark tracer binds must keep existing.

``benchmarks/tracer.py`` traces each ``__all__`` name of its modules and the
functions it names in ``EXTRA``, and sums the arguments named in
``COUNTED_ARGS``; ``benchmarks/run.py`` reports the layers in
``LAYER_FUNCTIONS`` one by one.  A stale ``__all__`` entry crashes a traced
run, and a rename or a dropped parameter would silently zero those
per-layer metrics.
"""

import datetime as dt
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", BENCHMARKS / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_module(tracer, short):
    return importlib.import_module(f"{tracer.PACKAGE}.{short}")


def test_extra_names_are_functions():
    tracer = load_tracer()
    for short, names in tracer.EXTRA.items():
        module = package_module(tracer, short)
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{short}.{name}"


def test_counted_args_are_parameters_of_traced_functions():
    tracer = load_tracer()
    for qualified, arg in tracer.COUNTED_ARGS.items():
        short, name = qualified.split(".")
        assert short in tracer.MODULES, qualified
        module = package_module(tracer, short)
        traced = list(getattr(module, "__all__", ())) + list(tracer.EXTRA.get(short, ()))
        assert name in traced, qualified
        assert arg in inspect.signature(getattr(module, name)).parameters, qualified


def test_all_names_of_traced_modules_resolve():
    tracer = load_tracer()
    for short in tracer.MODULES:
        module = package_module(tracer, short)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{short}.{name}"


def test_layer_functions_are_functions(monkeypatch):
    # run.py imports its sibling modules by plain name, and its dataclasses
    # need it registered while it runs; every module is unregistered after.
    for name in ("checks", "fixtures", "tracer", "run"):
        spec = importlib.util.spec_from_file_location(name, BENCHMARKS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    for qualified in sys.modules["run"].LAYER_FUNCTIONS:
        short, name = qualified.split(".")
        assert inspect.isfunction(getattr(package_module(sys.modules["tracer"], short), name, None)), qualified


def test_cli_gbm_runs_through_the_traced_build_panel(tmp_path):
    """The traced ``gbm`` command reaches the estimator through ``gbm.build_panel``,
    so the benchmark's gbm layer reads what the command runs."""
    tracer = load_tracer()
    cli = package_module(tracer, "cli")  # registers every traced module; install() runs the lazy ones
    rng = np.random.default_rng(0)
    rows = [
        f"T{i},{dt.date(2006, 1, 2) + dt.timedelta(days=j)},{price!r}"
        for i in range(4)
        for j, price in enumerate(np.exp(np.cumsum(rng.normal(0.0, 0.1, 12))).tolist())
    ]
    (tmp_path / "prices.csv").write_text("\n".join(["ticker,date,adj_close", *rows]) + "\n", encoding="utf-8")
    trace = tracer.Tracer("gbm")
    trace.install()
    try:
        assert cli.main(["gbm", "--input", str(tmp_path / "prices.csv"), "--out", str(tmp_path / "out")]) == 0
    finally:
        trace.uninstall()
    assert [span[0] for span in trace.spans].count("gbm.build_panel") == 1
