"""The benchmark tracer finds package functions by name; every name it lists resolves.

`bench/tracing.py` is read as source, not imported. A counted function that
is renamed away would leave its counter at 0 without any error, and a
renamed `DistanceMeasure` method would make `Tracer.install` raise.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def tracing_source() -> ast.Module:
    return ast.parse(TRACING.read_text(), filename=str(TRACING))


def count_only_names() -> set[str]:
    for node in tracing_source().body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "COUNT_ONLY" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no COUNT_ONLY")


def installed_methods() -> tuple[str, ...]:
    """The `DistanceMeasure` methods `Tracer.install` wraps by `getattr`."""
    for node in ast.walk(tracing_source()):
        if (
            isinstance(node, ast.For)
            and isinstance(node.target, ast.Name)
            and node.target.id == "method"
        ):
            return ast.literal_eval(node.iter)
    raise AssertionError("Tracer.install loops over no DistanceMeasure methods")


def test_count_only_names_are_wrapped_functions():
    names = count_only_names()
    assert names
    for name in sorted(names):
        module_name, attr = name.split(".")
        module = importlib.import_module(f"ifhv.{module_name}")
        value = getattr(module, attr, None)
        # the tracer wraps public functions defined in the module itself
        assert inspect.isfunction(value), name
        assert value.__module__ == module.__name__, name


def test_installed_measure_methods_exist():
    from ifhv.distances import DistanceMeasure

    methods = installed_methods()
    assert methods
    for method in methods:
        assert callable(getattr(DistanceMeasure, method, None)), method
