"""The benchmark tracer (benchmark/tracing.py) finds the functions it times by name, and
a name that no longer resolves gives a per-layer metric that reads 0 without an error.
These tests read the tracer's source, without importing or installing it, and check that
every span name it reads is one its `Tracer.install` would record."""

import ast
import importlib
import types
from pathlib import Path

import pytest

TRACING = ast.parse((Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py")
                    .read_text(encoding="utf-8"))


def _constant(name):
    """The literal value the tracer's module assigns to `name`."""
    for node in TRACING.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"benchmark/tracing.py assigns no {name}")


def _named_literals():
    """Every string literal passed to `named(...)` in the per-layer metrics."""
    return sorted({a.value for node in ast.walk(TRACING)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "named"
                   for a in node.args if isinstance(a, ast.Constant) and isinstance(a.value, str)})


def _observer_keys():
    for node in TRACING.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "OBSERVERS":
            return sorted(k.value for k in node.value.keys)
    raise AssertionError("benchmark/tracing.py assigns no OBSERVERS")


def _span_names():
    """The span names `Tracer.install` records: each public function defined in a traced
    module as module.function, and each of METHODS as the tracer names it."""
    names = set()
    for short in _constant("MODULES"):
        mod = importlib.import_module(f"ncs.{short}")
        names.update(f"{short}.{attr}" for attr, fn in vars(mod).items()
                     if not attr.startswith("_") and isinstance(fn, types.FunctionType)
                     and fn.__module__ == mod.__name__)
    for short, cls, meth in _constant("METHODS"):
        names.add(f"{short}.{cls}.{meth}" if short == "autodiff" else f"{short}.{meth}")
    return names


@pytest.mark.parametrize("short,cls,meth", _constant("METHODS"))
def test_methods_resolve(short, cls, meth):
    owner = getattr(importlib.import_module(f"ncs.{short}"), cls)
    assert callable(getattr(owner, meth))


@pytest.mark.parametrize("op", _constant("NAMED_OPS"))
def test_named_ops_are_traced(op):
    assert f"autodiff.{op}" in _span_names()


def test_named_literals_are_traced():
    literals = _named_literals()
    assert literals  # the parse found the calls
    missing = [n for n in literals if n not in _span_names()]
    assert not missing, f"benchmark/tracing.py reads spans no ncs function records: {missing}"


def test_observers_are_traced():
    missing = [n for n in _observer_keys() if n not in _span_names()]
    assert not missing, f"benchmark/tracing.py observes spans no ncs function records: {missing}"
