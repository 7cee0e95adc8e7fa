"""The package names that the benchmark tracer binds must keep existing.

``benchmarks/tracer.py`` traces the functions it names in ``EXTRA`` and sums
the arguments named in ``COUNTED_ARGS``; a rename or a dropped parameter
would silently zero those per-layer metrics.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER_PATH)
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
