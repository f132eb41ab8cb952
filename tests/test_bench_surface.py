"""The benchmark in bench/ reaches into classpv by name: it imports names, and
its tracer wraps functions and methods listed in ``bench/tracing.py``'s
``TRACED``. A renamed or deleted name would otherwise show up only as a crash
of a benchmark run. These tests read bench/ and change nothing there."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# attributes the workloads read off objects classpv returns
READ_ATTRIBUTES = (
    ("classpv.estimators", "KnnStatistic", "caches"),
    ("classpv.simulation", "ValidityResult", "cell"),
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _classpv_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "classpv":
            for alias in node.names:
                yield node.module, alias.name


def test_traced_names_resolve():
    for span, (owner, attr) in _load_tracing().TRACED.items():
        if isinstance(owner, str):
            assert hasattr(importlib.import_module(owner), attr), span
        else:
            assert attr in vars(owner), span


@pytest.mark.parametrize("script", ["workloads.py", "selftest.py"])
def test_imported_names_resolve(script):
    names = list(_classpv_imports(BENCH / script))
    assert names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_read_attributes_resolve():
    for module, cls, attr in READ_ATTRIBUTES:
        assert hasattr(getattr(importlib.import_module(module), cls), attr), (cls, attr)
