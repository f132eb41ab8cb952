"""What the package's modules import. numpy is classpv's only runtime
dependency: the test extra installs scipy, so an import of it anywhere in
the package would pass every other test."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import classpv


def test_modules_load_no_third_party_package_but_numpy():
    modules = ["classpv"] + [f"classpv.{m.name}" for m in pkgutil.iter_modules(classpv.__path__)]
    script = (
        "import importlib, sys\n"
        "before = set(sys.modules)\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(classpv.__file__).resolve().parent.parent)}
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    loaded = set(result.stdout.split())
    assert {"classpv", "numpy"} <= loaded
    assert {m for m in loaded if m not in sys.stdlib_module_names} == {"classpv", "numpy"}


def test_evaluation_scores_through_the_query_kernel_alone():
    """``crossval_pvalues`` takes every rank p-value from
    ``permutation._pvalues_each``: evaluation imports nothing from
    estimators and no other private name of permutation, so that no second
    mode dispatch grows back there."""
    tree = ast.parse(Path(classpv.__file__).with_name("evaluation.py").read_text())
    imported = [((node.module or "").removeprefix("classpv."), alias.name)
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert not [name for module, name in imported if "estimators" in (module, name)]
    assert {name for module, name in imported if module == "permutation" and name.startswith("_")} == {"_pvalues_each"}
