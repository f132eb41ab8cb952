"""README's library example runs as written, so that its calls cannot drift
from the package."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    table, queries, d = namespace["table"], namespace["queries"], namespace["d"]
    assert table.shape == (len(queries), d.n_classes)
    assert np.array_equal(namespace["p1"], table[:, 0])
    assert namespace["region"].members <= set(range(1, d.n_classes + 1))
