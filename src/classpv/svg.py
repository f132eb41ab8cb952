"""Minimal SVG emission for the evaluation charts: p-value rectangle charts,
prediction-region charts, ROC step plots and 2-D region maps.

Only plain string assembly, so output bytes are a pure function of the input
numbers; the acceptance suite diffs reruns byte for byte.
"""

from __future__ import annotations

import colorsys
import math
from typing import Callable

import numpy as np

from .evaluation import CrossValMatrix, RocCurve
from .simulation import REGION_COLORS_3, RegionMap, code_members

__all__ = [
    "pvalue_rectangles_svg",
    "region_map_svg",
    "region_rectangles_svg",
    "roc_grid_svg",
]

_CELL = 26.0
_PAD = 4.0
_LEFT = 70.0
_TOP = 34.0


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _chart_frame(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _row_chart(cv: CrossValMatrix, label_names: tuple[str, ...] | None, cell: Callable[[float, float], tuple]) -> str:
    """One row of cells per cross-validated observation, rows grouped by
    class, one column per class under its name. Each cell is a framed square;
    ``cell(p, x0)`` gives, for p-value p in the column whose left edge is x0,
    the frame's fill and an optional mark drawn before the frame: the texts
    before and after its y and its half-height h, y being the cell's centre
    less h. ``cell`` runs once per column and distinct p-value, and each
    row's y and each column's x are formatted once."""
    names = label_names if label_names else tuple(str(t) for t in range(1, cv.n_classes + 1))
    body = [
        f'<text x="{_fmt(_LEFT + j * _CELL + _CELL / 2)}" y="{_fmt(_TOP - 10)}" font-size="11" '
        f'text-anchor="middle">{name}</text>'
        for j, name in enumerate(names)
    ]
    order = np.lexsort((np.arange(cv.n), cv.labels))
    side = _fmt(_CELL - 2)
    columns = []
    for j in range(cv.n_classes):
        x0 = _LEFT + j * _CELL
        frame_start = f'<rect x="{_fmt(x0 + 1)}" y="'
        values, index = np.unique(cv.pvalues[order, j], return_inverse=True)
        cells = []
        for p in values:
            fill, mark = cell(float(p), x0)
            frame_end = f'" width="{side}" height="{side}" fill="{fill}" stroke="#cccccc" stroke-width="0.5"/>'
            cells.append((mark, frame_start, frame_end))
        columns.append([cells[k] for k in index.ravel()])
    label_x = _fmt(_LEFT - 8)
    for row, i in enumerate(order):
        y0 = _TOP + row * _CELL
        body.append(
            f'<text x="{label_x}" y="{_fmt(y0 + _CELL * 0.7)}" font-size="10" '
            f'text-anchor="end">{int(cv.labels[i])}:{int(i)}</text>'
        )
        frame_y = _fmt(y0 + 1)
        for column in columns:
            mark, frame_start, frame_end = column[row]
            if mark is not None:
                before, half, after = mark
                body.append(before + _fmt(y0 + _CELL / 2 - half) + after)
            body.append(frame_start + frame_y + frame_end)
    return _chart_frame(_LEFT + cv.n_classes * _CELL + _PAD, _TOP + cv.n * _CELL + _PAD, body)


def pvalue_rectangles_svg(cv: CrossValMatrix, label_names: tuple[str, ...] | None = None) -> str:
    """One row of rectangles per cross-validated observation, rows grouped by
    class; each rectangle's area is proportional to the corresponding p-value."""

    def cell(p: float, x0: float) -> tuple:
        side = (_CELL - 2.0) * math.sqrt(p)  # area scales with p
        mark = (
            f'<rect class="pv" data-p="{_fmt(p)}" x="{_fmt(x0 + _CELL / 2 - side / 2)}" y="',
            side / 2,
            f'" width="{_fmt(side)}" height="{_fmt(side)}" fill="steelblue"/>',
        )
        return "none", mark

    return _row_chart(cv, label_names, cell)


def region_rectangles_svg(
    cv: CrossValMatrix, alpha: float, label_names: tuple[str, ...] | None = None
) -> str:
    """Full-size rectangle per class contained in each row's level-alpha region."""
    return _row_chart(cv, label_names, lambda p, x0: ("steelblue" if p > alpha else "none", None))


def roc_grid_svg(curves: dict[tuple[int, int], RocCurve], n_classes: int) -> str:
    """Panel grid of ROC step functions: row = data class b, column = hypothesis theta."""
    panel = 150.0
    gap = 26.0
    width = gap + n_classes * (panel + gap)
    height = gap + n_classes * (panel + gap) + 10
    body = []
    for b in range(1, n_classes + 1):
        for theta in range(1, n_classes + 1):
            x0 = gap + (theta - 1) * (panel + gap)
            y0 = gap + (b - 1) * (panel + gap)
            body.append(
                f'<rect x="{_fmt(x0)}" y="{_fmt(y0)}" width="{_fmt(panel)}" height="{_fmt(panel)}" '
                f'fill="none" stroke="black" stroke-width="0.8"/>'
            )
            body.append(
                f'<text x="{_fmt(x0 + panel / 2)}" y="{_fmt(y0 - 6)}" font-size="10" '
                f'text-anchor="middle">b={b}, theta={theta}</text>'
            )
            body.append(
                f'<line x1="{_fmt(x0)}" y1="{_fmt(y0 + panel)}" x2="{_fmt(x0 + panel)}" y2="{_fmt(y0)}" '
                f'stroke="#bbbbbb" stroke-dasharray="3,3" stroke-width="0.7"/>'
            )
            curve = curves.get((b, theta))
            if curve is None:
                continue
            pts = [(0.0, 0.0)]
            level = 0.0
            for alpha, value in zip(curve.breakpoints, curve.values):
                a = min(float(alpha), 1.0)
                pts.append((a, level))
                level = float(value)
                pts.append((a, level))
            pts.append((1.0, level))
            path = " ".join(f"{_fmt(x0 + panel * u)},{_fmt(y0 + panel * (1.0 - v))}" for u, v in pts)
            body.append(f'<polyline points="{path}" fill="none" stroke="black" stroke-width="1.2"/>')
    return _chart_frame(width, height, body)


_FALLBACK_COLORS = (
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02", "#a6761d", "#666666",
)


def _code_color(code: int, n_classes: int) -> str:
    """The fill of region ``code``: ``REGION_COLORS_3`` at L = 3; else black,
    white for every class, and for any other code a colour of the code alone,
    ``_FALLBACK_COLORS`` below 8 and a golden-angle hue above (distinct to L = 8)."""
    if n_classes == 3:
        return REGION_COLORS_3[code]
    if code == 0:
        return "black"
    if code == (1 << n_classes) - 1:
        return "white"
    if code < len(_FALLBACK_COLORS):
        return _FALLBACK_COLORS[code]
    rgb = colorsys.hsv_to_rgb(code * 0.6180339887498949 % 1.0, 0.75, (0.9, 0.7, 0.5)[code % 3])
    return "#" + "".join(format(round(c * 255), "02x") for c in rgb)


def _lattice_lines(starts: list[str], row_texts: list[str], ends: list[str], codes: np.ndarray) -> str:
    """The lines of a (ny, nx) lattice of codes, row 0 first, joined by
    newlines: cell (iy, ix) reads ``starts[ix] + row_texts[iy] +
    ends[codes[iy, ix]]``.

    A row is one ``row_texts[iy].join`` of nx + 1 pieces: ``starts[0]``, then
    ``ends[code] + "\\n" + starts[ix]`` for each next cell, gathered for the
    whole lattice from one (len(ends), nx) table, and the last cell's end.
    So no Python step runs per cell.
    """
    ny, nx = codes.shape
    ends = np.array(ends, dtype=object)
    table = ends[:, None] + np.array(["\n" + start for start in starts], dtype=object)
    pieces = np.empty((ny, nx + 1), dtype=object)
    pieces[:, 0] = starts[0]
    pieces[:, 1:nx] = table[codes[:, :-1], np.arange(1, nx)]
    pieces[:, nx] = ends[codes[:, -1]]
    return "\n".join(text.join(row) for text, row in zip(row_texts, pieces.tolist()))


def region_map_svg(rmap: RegionMap, alpha: float) -> str:
    """Color-coded lattice of the level-alpha regions, one fill per region."""
    codes = rmap.subsets(alpha)
    ny, nx = codes.shape
    cell = max(2.0, math.floor(640.0 / max(nx, ny)))
    # the legend's last box ends 16 * 2^L + 20 px down
    legend_h = 16.0 * (1 << rmap.n_classes) + 20
    width = nx * cell + 160.0
    height = max(ny * cell, legend_h) + 10
    # each column's x, row's y and code's colour is formatted once; the
    # vertical axis points up, so row 0 of the lattice is the smallest y
    starts = [f'<rect x="{_fmt(ix * cell)}" y="' for ix in range(nx)]
    ends = [
        f'" width="{_fmt(cell)}" height="{_fmt(cell)}" fill="{_code_color(code, rmap.n_classes)}"/>'
        for code in range(1 << rmap.n_classes)
    ]
    body = [_lattice_lines(starts, [_fmt((ny - 1 - iy) * cell) for iy in range(ny)], ends, codes)]
    lx = nx * cell + 12.0
    body.append(f'<text x="{_fmt(lx)}" y="14" font-size="11">alpha={_fmt(alpha)}</text>')
    for row, code in enumerate(range(1 << rmap.n_classes)):
        members = code_members(code, rmap.n_classes)
        label = "{" + ",".join(map(str, members)) + "}" if members else "empty"
        y0 = 24.0 + row * 16.0
        body.append(
            f'<rect x="{_fmt(lx)}" y="{_fmt(y0)}" width="12" height="12" '
            f'fill="{_code_color(code, rmap.n_classes)}" stroke="#999999" stroke-width="0.5"/>'
        )
        body.append(f'<text x="{_fmt(lx + 18)}" y="{_fmt(y0 + 10)}" font-size="10">{label}</text>')
    return _chart_frame(width, height, body)
