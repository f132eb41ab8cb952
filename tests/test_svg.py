"""The region-map writers: the CLI's ``region_map_alpha<α>.csv`` and
``svg.region_map_svg`` write a lattice row at a time, and a block of
``_BLOCK // nx`` rows at a time, through one helper. Their text is checked
against the per-cell formulas they replaced, kept here as the reference, on
lattices that end before, at and after a block join, and the SVG's legend
against its height."""

import contextlib
import io
import itertools
import json
import math
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classpv import GaussianMixtureModel, SpdMatrix, cli, sample_gaussian_mixture, svg
from classpv.simulation import RegionMap

from test_cli_outputs import _write_training


def _csv_reference(rmap: RegionMap, alpha: float) -> str:
    """The region-map CSV as the CLI wrote it one cell at a time."""
    codes = rmap.subsets(alpha)
    x_text = [cli._num(x) for x in rmap.xs]
    code_text = [cli._code_text(code, rmap.n_classes) for code in range(1 << rmap.n_classes)]
    rows = [
        [x, y, code_text[code]]
        for y, row_codes in zip(map(cli._num, rmap.ys), codes.tolist())
        for x, code in zip(x_text, row_codes)
    ]
    return "\n".join([",".join(["x", "y", "region"])] + [",".join(row) for row in rows]) + "\n"


def _svg_cells_reference(rmap: RegionMap, alpha: float) -> list[str]:
    """The region-map SVG's cell lines as they were made one cell at a time."""
    codes = rmap.subsets(alpha)
    ny, nx = codes.shape
    cell = max(2.0, math.floor(640.0 / max(nx, ny)))
    starts = [f'<rect x="{svg._fmt(ix * cell)}" y="' for ix in range(nx)]
    ends = [
        f'" width="{svg._fmt(cell)}" height="{svg._fmt(cell)}" fill="{svg._code_color(code, rmap.n_classes)}"/>'
        for code in range(1 << rmap.n_classes)
    ]
    return [
        start + y + ends[code]
        for y, row_codes in zip((svg._fmt((ny - 1 - iy) * cell) for iy in range(ny)), codes.tolist())
        for start, code in zip(starts, row_codes)
    ]


def _first_difference(text: str, reference: str) -> tuple | None:
    """None when text equals reference, else the first line where they
    differ, with its number: pytest's own diff of two texts of 10^5 lines
    takes minutes."""
    if text == reference:
        return None
    pairs = itertools.zip_longest(text.split("\n"), reference.split("\n"))
    return next((i, a, b) for i, (a, b) in enumerate(pairs) if a != b)


def _assert_svg_cells(text: str, rmap: RegionMap, alpha: float) -> None:
    """The lines after the SVG's head are the reference cells, then the legend."""
    cells = _svg_cells_reference(rmap, alpha)
    lines = text.split("\n")
    assert _first_difference("\n".join(lines[1:1 + len(cells)]), "\n".join(cells)) is None
    assert lines[1 + len(cells)].startswith("<text ") and "alpha=" in lines[1 + len(cells)]


def _map_of(codes: np.ndarray, n_classes: int, xs=None, ys=None) -> RegionMap:
    """A map whose level-0.5 region codes are ``codes``."""
    ny, nx = codes.shape
    bits = (codes[:, :, None] >> np.arange(n_classes)) & 1
    return RegionMap(
        xs=np.arange(nx, dtype=float) if xs is None else xs,
        ys=np.arange(ny, dtype=float) if ys is None else ys,
        pvalues=bits.astype(float),
    )


def _axis(draw, size: int) -> np.ndarray:
    start = draw(st.floats(-1e3, 1e3, allow_nan=False))
    steps = draw(st.lists(st.floats(1e-3, 50.0), min_size=size, max_size=size))
    return start + np.cumsum(steps)


def _assert_cli_writes_the_per_cell_formula(rmap: RegionMap) -> None:
    """The CLI's CSV, JSON patterns and SVG cells for rmap equal the per-cell
    formulas. The CLI's ``region_map`` is replaced by one returning rmap."""
    codes, n_classes = rmap.subsets(0.5), rmap.n_classes
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "region_map", lambda *a, **k: rmap):
        out = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["simulate", "region-map", "--grid-points", "1", "--alpha", "0.5",
                             "--format", "csv", "--format", "json", "--format", "svg", "--out", tmp]) == 0
        assert _first_difference((out / "region_map_alpha0.5.csv").read_text(), _csv_reference(rmap, 0.5)) is None
        svg_text = (out / "region_map_alpha0.5.svg").read_text()
        patterns = json.loads((out / "region_map.json").read_text())["patterns"]["0.5"]
    assert _first_difference(svg_text, "".join(svg.region_map_svg(rmap, 0.5))) is None
    _assert_svg_cells(svg_text, rmap, 0.5)
    assert patterns == sorted(cli._code_text(int(c), n_classes) for c in np.unique(codes))


@settings(max_examples=120, deadline=None)
@given(nx=st.integers(1, 12), ny=st.integers(1, 12), n_classes=st.integers(2, 4), rows=st.integers(1, 5),
       data=st.data())
def test_lattice_text_equals_the_per_cell_formula(nx, ny, n_classes, rows, data):
    """On random code lattices, 1 x 1, 1 x n and n x 1 among them, in blocks
    of 1 to 5 rows, the CLI writes the per-cell formulas: so a lattice ends
    just before, at or after a block join, or after several."""
    codes = np.array(
        data.draw(st.lists(st.integers(0, (1 << n_classes) - 1), min_size=nx * ny, max_size=nx * ny))
    ).reshape(ny, nx)
    xs, ys = _axis(data.draw, nx), _axis(data.draw, ny)
    # any _BLOCK from rows * nx to rows * nx + nx - 1 cells gives rows rows
    with mock.patch.object(svg, "_BLOCK", rows * nx + data.draw(st.integers(0, nx - 1))):
        _assert_cli_writes_the_per_cell_formula(_map_of(codes, n_classes, xs, ys))


@pytest.mark.parametrize("ny", (101, 102, 103, 321))
def test_lattice_text_crosses_the_block_joins(ny):
    """At the real ``_BLOCK``, a 321-wide lattice comes in blocks of 102
    rows: its text equals the per-cell formulas on heights just below, at
    and above one block, and over four blocks with a ragged last one."""
    assert svg._BLOCK // 321 == 102
    codes = np.random.default_rng(ny).integers(0, 8, size=(ny, 321))
    _assert_cli_writes_the_per_cell_formula(_map_of(codes, 3, np.linspace(-4, 4, 321), np.linspace(-4, 4, ny)))


def test_svg_pieces_are_the_head_the_row_blocks_and_the_legend():
    """``region_map_svg`` gives its head, one piece per block of rows and its
    legend, so no piece holds more than one block's rows."""
    codes = np.random.default_rng(5).integers(0, 8, size=(321, 321))
    head, *blocks, legend, close = svg.region_map_svg(_map_of(codes, 3), 0.5)
    assert head.startswith("<svg ") and head.count("\n") == 1
    assert [block.count("\n") for block in blocks] == [102 * 321] * 3 + [15 * 321]
    assert legend.startswith("<text ") and close == "</svg>\n"


@pytest.mark.parametrize("rows", (14, 13, 12, 4))
@pytest.mark.parametrize("n_classes", (2, 3, 4))
def test_train_path_writes_the_per_cell_formula(tmp_path, monkeypatch, n_classes, rows):
    """``simulate region-map --train`` goes through the same writers: its CSV
    and SVG cells equal the per-cell formulas on the map it computed, with
    its 13 lattice rows in blocks of 14 (one block, short of a join), 13 (one
    full block), 12 (one row past a join) and 4 rows (four blocks)."""
    monkeypatch.setattr(svg, "_BLOCK", rows * 13)
    angles = 2 * np.pi * np.arange(n_classes) / n_classes
    cov = SpdMatrix(np.eye(2))
    model = GaussianMixtureModel(
        np.full(n_classes, 1.0 / n_classes), 2.5 * np.column_stack([np.cos(angles), np.sin(angles)]),
        (cov,) * n_classes,
    )
    train = _write_training(tmp_path / "train.csv", sample_gaussian_mixture(model, [9] * n_classes, seed=n_classes))
    maps = []
    real = cli.region_map
    monkeypatch.setattr(cli, "region_map", lambda *a, **k: maps.append(real(*a, **k)) or maps[-1])
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["simulate", "region-map", "--train", str(train), "--label", "label", "--method", "knn",
                         "--mode", "exact-swap", "--grid-points", "13", "--alpha", "0.05", "--alpha", "0.2",
                         "--format", "csv", "--format", "svg", "--seed", "3", "--out", str(out)]) == 0
    (rmap,) = maps
    for alpha in (0.05, 0.2):
        assert _first_difference((out / f"region_map_alpha{alpha:g}.csv").read_text(), _csv_reference(rmap, alpha)) is None
        _assert_svg_cells((out / f"region_map_alpha{alpha:g}.svg").read_text(), rmap, alpha)


@pytest.mark.parametrize("n_classes", (2, 3, 4))
@pytest.mark.parametrize("shape", ((5, 100), (100, 5), (1, 1), (1, 12), (12, 1), (61, 61)))
def test_every_rect_lies_inside_the_svg(n_classes, shape):
    """Every legend box and lattice cell lies inside the SVG's width and
    height, on maps shorter than their legend too."""
    codes = np.arange(shape[0] * shape[1]).reshape(shape) % (1 << n_classes)
    root = ET.fromstring("".join(svg.region_map_svg(_map_of(codes, n_classes), 0.5)))
    width, height = float(root.get("width")), float(root.get("height"))
    rects = root.findall("{http://www.w3.org/2000/svg}rect")
    assert len(rects) == codes.size + (1 << n_classes)
    for rect in rects:
        x, y, w, h = (float(rect.get(a)) for a in ("x", "y", "width", "height"))
        assert 0 <= x and x + w <= width and 0 <= y and y + h <= height, rect.attrib


@pytest.mark.parametrize("n_classes", (4, 5, 6))
def test_every_region_has_its_own_fill(n_classes):
    """The legend gives each of the 2^L regions its own fill and its members
    as its label, and each lattice cell takes its region's legend fill."""
    n_codes = 1 << n_classes
    codes = np.arange(n_codes).reshape(1, n_codes)
    root = ET.fromstring("".join(svg.region_map_svg(_map_of(codes, n_classes), 0.5)))
    rects = root.findall("{http://www.w3.org/2000/svg}rect")
    cells, legend = rects[:n_codes], rects[n_codes:]
    fills = [rect.get("fill") for rect in legend]
    assert len(set(fills)) == n_codes
    assert [rect.get("fill") for rect in cells] == fills
    labels = [text.text for text in root.findall("{http://www.w3.org/2000/svg}text")[1:]]
    assert labels[0] == "empty" and labels[-1] == "{" + ",".join(str(t) for t in range(1, n_classes + 1)) + "}"
    assert labels[9] == "{1,4}" and fills[9] != fills[1]

