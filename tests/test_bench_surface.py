"""The benchmark in bench/ reaches into classpv by name: it imports names, and
its tracer wraps functions and methods listed in ``bench/tracing.py``'s
``TRACED``. A renamed or deleted name would otherwise show up only as a crash
of a benchmark run. These tests read bench/ and change nothing there."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from classpv import Augment, PermutationMethod, Remove, TrainingSet

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


def test_tracer_counters_read_results_and_see_every_edit():
    """``COUNTERS`` read ``.iterations`` and ``.separated`` off
    ``fit_logistic``'s result, ``.n`` off edited training sets, and the edit's
    kind off ``gaussian_update``'s arguments. The plug-in's ``edit`` must
    call the module-level ``gaussian_update``, and every logistic fit that is
    made must go through the module-level ``fit_logistic``, or the tracer's
    replacements would not see them. A logistic statistic fits when first
    read, so an edit that nobody reads fits nothing."""
    rng = np.random.default_rng(5)
    d = TrainingSet(rng.normal(size=(12, 2)) + np.repeat([[0.0, 0.0], [1.0, 1.0]], 6, axis=0),
                    np.repeat([1, 2], 6), 2, ("1", "2"))
    x = np.array([0.5, 0.2])
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tracer.active = True
        logistic = PermutationMethod("logistic").fit(d)
        edited = logistic.edit(Remove(0))
        PermutationMethod("plugin").fit(d).edit(Remove(0)).edit(Augment(x, 1))
        assert tracer.calls["estimators.fit_logistic"] == 0
        logistic.iterations, edited.iterations
    finally:
        tracer.active = False
        tracer.uninstall()
    assert tracer.calls["estimators.fit_logistic"] == 2
    assert tracer.counts["estimators.fit_logistic.irls_iterations"] == logistic.iterations + edited.iterations
    assert tracer.counts["estimators.fit_logistic.separated"] == int(logistic.separated) + int(edited.separated)
    assert tracer.calls["estimators.gaussian_update"] == 2
    for kind in ("remove", "augment"):
        assert tracer.counts["estimators.gaussian_update." + kind] == 1, kind
    # two removes from 12 rows and an augment of 11
    assert tracer.counts["core.rows_copied"] == 11 + 11 + 12
