"""numpy is classpv's only runtime dependency. The test extra installs scipy,
so an import of it anywhere in the package would pass every other test."""

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
