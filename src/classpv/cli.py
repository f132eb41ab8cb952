"""Command-line front end: CSV ingestion, classification, cross-validated
evaluation reports and simulation harnesses, emitted as CSV/JSON/SVG.

Exit codes: 0 ok, 2 usage or parse problem, 3 structural data problem,
4 numerical degeneracy. Every command prints its effective seed, and rerunning
with the same configuration and seed reproduces every output byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .core import PValueVector, StructuralError, TrainingSet, check_alpha, validate_training_set
from .estimators import DegenerateFitError
from .evaluation import (
    crossval_pvalues,
    empirical_inclusion,
    empirical_pattern,
    empirical_risk,
    observed_patterns,
    roc_curve,
)
from .numerics import SingularMatrixError
from .permutation import MODES, STATISTICS, PermutationMethod, pvalue_table, warn_small_groups
from .simulation import (
    ExperimentConfig,
    code_members,
    convergence_experiment,
    example22_model,
    region_map,
    standard_2class_model,
    validity_experiment,
)
from . import svg as svgmod

__all__ = ["main"]


class CsvFormatError(ValueError):
    """Malformed input CSV; message carries file, line and column."""


def _num(x: float) -> str:
    return format(float(x), ".12g")


def _nums(values: np.ndarray) -> np.ndarray:
    """``_num`` of each entry of a p-value array (no NaN, no -0.0), as an
    object array of its shape; each distinct value is formatted once."""
    distinct, index = np.unique(values, return_inverse=True)
    return np.array([_num(v) for v in distinct], dtype=object)[index.reshape(values.shape)]


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def read_table(path: str, label_column: str | None):
    """Read a headered CSV; returns (feature matrix, labels-or-None, feature names)."""
    try:
        fh = open(path, newline="")
    except OSError as err:
        raise CsvFormatError(f"{path}: {err.strerror}") from err
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise CsvFormatError(f"{path}: missing header row")
        header = [h.strip() for h in header]
        label_idx = None
        if label_column is not None:
            if label_column not in header:
                raise CsvFormatError(f"{path}: no column named {label_column!r} in header {header}")
            label_idx = header.index(label_column)
        feature_names = [h for j, h in enumerate(header) if j != label_idx]
        features: list[list[float]] = []
        labels: list[str] = []
        linenos: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            linenos.append(lineno)
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{path}: line {lineno}: expected {len(header)} fields, found {len(row)}"
                )
            values = []
            for j, cell in enumerate(row):
                if j == label_idx:
                    labels.append(cell.strip())
                    continue
                try:
                    values.append(float(cell))
                except ValueError as err:
                    raise CsvFormatError(
                        f"{path}: line {lineno}: column {header[j]!r}: {cell!r} is not a number"
                    ) from err
            features.append(values)
        if not features:
            raise CsvFormatError(f"{path}: no data rows")
    matrix = np.array(features, dtype=float)
    bad = np.argwhere(~np.isfinite(matrix))
    if bad.size:
        r, c = bad[0]
        raise CsvFormatError(
            f"{path}: line {linenos[r]}: column {feature_names[c]!r}: {matrix[r, c]} is not finite"
        )
    return matrix, (labels if label_idx is not None else None), feature_names


def _load_training(args) -> tuple[TrainingSet, list[str]]:
    if not args.train:
        raise CsvFormatError("--train is required")
    if not args.label:
        raise CsvFormatError(f"{args.train}: a --label column name is required for training data")
    features, labels, names = read_table(args.train, args.label)
    return validate_training_set(features, labels), names


def _region_text(d: TrainingSet, members) -> str:
    if not members:
        return "-"
    return "+".join(d.label_names[theta - 1] for theta in sorted(members))


def _code_text(code: int, n_classes: int) -> str:
    return "+".join(str(t) for t in code_members(code, n_classes)) or "-"


def _alpha_tag(alpha: float) -> str:
    return format(alpha, "g")


def _method_from(args) -> PermutationMethod:
    return PermutationMethod(
        statistic=args.method or "plugin",
        mode=args.mode,
        k=args.k,
        scale_features=bool(args.scale_features),
    )


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def cmd_classify(args) -> int:
    d, feature_names = _load_training(args)
    query, _, query_names = read_table(args.query, None)
    if query_names != feature_names:
        raise CsvFormatError(
            f"{args.query}: feature columns {query_names} do not match training columns {feature_names}"
        )
    method = _method_from(args)
    alphas = args.alpha
    if method.statistic != "typicality":  # an exact pivot: no 1/(N+1) floor
        warn_small_groups(d, alphas)
    fitted = method.fit(d)
    out = Path(args.out)
    header = (
        ["row"]
        + [f"p_{name}" for name in d.label_names]
        + [f"region_{_alpha_tag(a)}" for a in alphas]
    )
    table = pvalue_table(fitted, method.mode, query)
    in_range = np.all((table >= 0.0) & (table <= 1.0), axis=1)  # NaN fails too
    if not in_range.all():
        PValueVector(table[np.argmin(in_range)])  # raises its error for the first bad row
    # each distinct p-value and region is formatted once, then joined by index
    regions = []
    for a in alphas:
        masks, index = np.unique(table > a, axis=0, return_inverse=True)
        text = np.array([_region_text(d, tuple(np.flatnonzero(m) + 1)) for m in masks], dtype=object)
        regions.append((_alpha_tag(a), text[index.ravel()]))
    row_ids = np.arange(table.shape[0]).astype(str).astype(object)
    rows = np.column_stack([row_ids, _nums(table), *(text for _, text in regions)]).tolist()
    _write_csv(out / "classify.csv", header, rows)
    if "json" in args.format:
        records = [
            {
                "row": i,
                "pvalues": dict(zip(d.label_names, pv)),
                "regions": {tag: text[i] for tag, text in regions},
            }
            for i, pv in enumerate(table.tolist())
        ]
        _write_json(out / "classify.json", {"seed": args.seed, "rows": records})
    print(f"wrote {out / 'classify.csv'} ({query.shape[0]} rows)")
    return 0


# ---------------------------------------------------------------------------
# crossval
# ---------------------------------------------------------------------------


def cmd_crossval(args) -> int:
    d, _ = _load_training(args)
    method = _method_from(args)
    alphas = args.alpha
    if method.statistic != "typicality":
        warn_small_groups(d, alphas, left_out=1)
    cv = crossval_pvalues(d, method)
    out = Path(args.out)

    header = ["row", "label"] + [f"p_{name}" for name in d.label_names]
    label_text = np.array(d.label_names, dtype=object)[cv.labels - 1]
    rows = np.column_stack([np.arange(cv.n).astype(str).astype(object), label_text, _nums(cv.pvalues)]).tolist()
    _write_csv(out / "crossval_pvalues.csv", header, rows)

    summary = {
        "seed": args.seed,
        "method": {"statistic": method.statistic, "mode": method.mode, "k": method.k,
                   "scale_features": method.scale_features},
        "group_sizes": {d.label_names[t - 1]: int(d.group_sizes[t - 1]) for t in range(1, d.n_classes + 1)},
        "pvalue_grid_step": {
            d.label_names[b - 1]: {
                d.label_names[t - 1]: cv.grid_step(int(cv.group(b)[0]), t) for t in range(1, d.n_classes + 1)
            }
            for b in range(1, d.n_classes + 1)
        },
        "risk": {},
        "inclusion": {},
        "patterns": {},
    }

    for alpha in alphas:
        tag = _alpha_tag(alpha)
        inc_header = ["class"] + [f"in_{name}" for name in d.label_names]
        inc_rows = []
        for b in range(1, d.n_classes + 1):
            inc = [empirical_inclusion(cv, alpha, b, t) for t in range(1, d.n_classes + 1)]
            inc_rows.append([d.label_names[b - 1]] + [_num(v) for v in inc])
            summary["inclusion"].setdefault(tag, {})[d.label_names[b - 1]] = {
                d.label_names[t - 1]: inc[t - 1] for t in range(1, d.n_classes + 1)
            }
        _write_csv(out / f"inclusion_alpha{tag}.csv", inc_header, inc_rows)

        patterns = sorted(
            {p for b in range(1, d.n_classes + 1) for p in observed_patterns(cv, alpha, b)},
            key=lambda s: (len(s), sorted(s)),
        )
        pat_header = ["class"] + [f"eq_{_region_text(d, p)}" for p in patterns]
        pat_rows = []
        for b in range(1, d.n_classes + 1):
            vals = [empirical_pattern(cv, alpha, b, p) for p in patterns]
            pat_rows.append([d.label_names[b - 1]] + [_num(v) for v in vals])
            summary["patterns"].setdefault(tag, {})[d.label_names[b - 1]] = {
                _region_text(d, p): v for p, v in zip(patterns, vals)
            }
        _write_csv(out / f"pattern_alpha{tag}.csv", pat_header, pat_rows)
        summary["risk"][tag] = empirical_risk(cv, alpha)

    curves = {}
    roc_rows = []
    for b in range(1, d.n_classes + 1):
        for t in range(1, d.n_classes + 1):
            curve = roc_curve(cv, b, t)
            curves[(b, t)] = curve
            for alpha, value in zip(curve.breakpoints, curve.values):
                roc_rows.append(
                    [d.label_names[b - 1], d.label_names[t - 1], _num(alpha), _num(value)]
                )
    _write_csv(out / "roc_curves.csv", ["class", "hypothesis", "alpha", "value"], roc_rows)

    if "json" in args.format:
        _write_json(out / "crossval_summary.json", summary)
    if "svg" in args.format:
        _write_text(out / "pvalue_chart.svg", svgmod.pvalue_rectangles_svg(cv, d.label_names))
        for alpha in alphas:
            _write_text(
                out / f"region_chart_alpha{_alpha_tag(alpha)}.svg",
                svgmod.region_rectangles_svg(cv, alpha, d.label_names),
            )
        _write_text(out / "roc_curves.svg", svgmod.roc_grid_svg(curves, d.n_classes))
    print(f"wrote cross-validation report for n={cv.n}, L={cv.n_classes} to {out}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def _model_from(name: str):
    if name == "example22":
        return example22_model()
    if name == "standard2":
        return standard_2class_model()
    raise ValueError(f"unknown model {name!r}; expected example22 or standard2")


_VALIDITY_BATTERY = tuple(
    PermutationMethod(statistic=s, mode=m, k=None)
    for s in ("plugin", "knn", "logistic")
    for m in ("exact-swap", "valid-shortcut")
)


def cmd_simulate(args) -> int:
    out = Path(args.out)
    if args.kind == "validity":
        model = _model_from(args.model or "standard2")
        if args.method:
            methods = (_method_from(args),)
        else:
            methods = _VALIDITY_BATTERY
            if model.n_classes != 2:
                methods = tuple(m for m in methods if m.statistic != "logistic")
        sizes = tuple(args.sizes or [19] * model.n_classes)
        cfg = ExperimentConfig(
            model=model,
            sizes=sizes,
            methods=methods,
            alphas=tuple(args.alpha),
            replications=args.replications,
            master_seed=args.seed,
        )
        result = validity_experiment(cfg)
        header = ["statistic", "mode", "theta", "alpha", "rate", "std_error", "bound", "ok"]
        rows = [
            [c.statistic, c.mode, str(c.theta), _alpha_tag(c.alpha), _num(c.rate), _num(c.std_error), _num(c.bound), str(c.ok)]
            for c in result.cells
        ]
        _write_csv(out / "validity.csv", header, rows)
        if "json" in args.format:
            _write_json(
                out / "validity.json",
                {
                    "seed": args.seed,
                    "replications": args.replications,
                    "sizes": list(sizes),
                    "cells": [c.__dict__ for c in result.cells],
                },
            )
        n_fail = sum(1 for c in result.cells if not c.ok)
        print(f"validity: {len(result.cells)} cells, {n_fail} above bound; wrote {out / 'validity.csv'}")
        return 0

    if args.kind == "convergence":
        model = _model_from(args.model or "standard2")
        schedule = args.schedule or [200, 800, 3200]
        rows = convergence_experiment(
            model, schedule, seed=args.seed, n_queries=args.queries, mc_samples=args.mc_samples
        )
        _write_csv(
            out / "convergence.csv",
            ["n", "k", "mean_gap_knn", "mean_gap_plugin"],
            [[str(r.n), str(r.k), _num(r.mean_gap_knn), _num(r.mean_gap_plugin)] for r in rows],
        )
        if "json" in args.format:
            _write_json(out / "convergence.json", {"seed": args.seed, "rows": [r.__dict__ for r in rows]})
        print(f"convergence: wrote {out / 'convergence.csv'}")
        return 0

    if args.kind == "region-map":
        lo, hi, points = args.grid_min, args.grid_max, args.grid_points
        if points < 0:
            raise ValueError(f"--grid-points must be non-negative, got {points}")
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(f"--grid-min and --grid-max must be finite, got {lo} and {hi}")
        if points > 1 and lo >= hi:
            # the lattice ascends: row 0 of the map and of its SVG is the smallest y
            raise ValueError(f"--grid-min must be below --grid-max, got {lo} and {hi}")
        xs = np.linspace(lo, hi, points)
        ys = np.linspace(lo, hi, points)
        if args.train:
            d, _ = _load_training(args)
            rmap = region_map(xs, ys, training=d, method=_method_from(args), seed=args.seed)
        else:
            model = _model_from(args.model or "example22")
            rmap = region_map(xs, ys, model=model, mc_samples=args.mc_samples, seed=args.seed)
        patterns_present = {}
        # each coordinate and region code is formatted once, then joined a row at a time
        x_text = [_num(x) for x in rmap.xs]
        y_text = [f",{_num(y)}," for y in rmap.ys]
        code_text = [_code_text(code, rmap.n_classes) for code in range(1 << rmap.n_classes)]
        for alpha in args.alpha:
            tag = _alpha_tag(alpha)
            codes = rmap.subsets(alpha)
            lines = svgmod._lattice_lines(x_text, y_text, code_text, codes)
            _write_text(out / f"region_map_alpha{tag}.csv", "x,y,region\n" + lines + "\n")
            if "json" in args.format:
                present = np.flatnonzero(np.bincount(codes.ravel(), minlength=1 << rmap.n_classes))
                patterns_present[tag] = sorted(code_text[code] for code in present.tolist())
            if "svg" in args.format:
                _write_text(out / f"region_map_alpha{tag}.svg", svgmod.region_map_svg(rmap, alpha))
        if "json" in args.format:
            _write_json(out / "region_map.json", {"seed": args.seed, "patterns": patterns_present})
        print(f"region-map: wrote {len(args.alpha)} map(s) to {out}")
        return 0

    raise ValueError(f"unknown experiment kind {args.kind!r}")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_shared(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--train", help="training CSV (header row required)")
    parser.add_argument("--label", help="name of the label column in the training CSV")
    parser.add_argument("--method", choices=STATISTICS, help="p-value statistic family")
    parser.add_argument("--mode", choices=MODES, help="permutation computation mode")
    parser.add_argument("--alpha", action="append", type=float, help="level(s); repeatable")
    parser.add_argument("--k", type=int, help="neighborhood size for the knn statistic")
    parser.add_argument(
        "--scale-features", action=argparse.BooleanOptionalAction, default=None,
        help="divide each feature by its sample standard deviation",
    )
    parser.add_argument("--seed", type=int, help="master seed; drawn from entropy and printed when omitted")
    parser.add_argument("--out", help="output directory (default: out)")
    parser.add_argument(
        "--format", action="append", choices=("csv", "json", "svg"), help="output formats; repeatable"
    )
    parser.add_argument("--config", help="JSON file mirroring the flags; flags override it")


_DEFAULTS = {
    "method": None,  # plugin, except that simulate validity runs its battery
    "mode": "valid-shortcut",
    "alpha": [0.05],
    "k": None,
    "scale_features": False,
    "out": "out",
    "format": ["csv"],
    "model": None,
    "sizes": None,
    "schedule": None,
    "replications": 1000,
    "queries": 200,
    "mc_samples": 20000,
    "grid_min": -4.0,
    "grid_max": 4.0,
    "grid_points": 161,
    "train": None,
    "label": None,
    "query": None,
    "seed": None,
}


def _flag_actions(parser: argparse.ArgumentParser, command: str) -> dict[str, argparse.Action]:
    """One subcommand's flags, by destination."""
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in commands.choices[command]._actions if a.option_strings}


def _check_config_value(key: str, value, action: argparse.Action) -> None:
    """Reject a config value that its flag could not have produced: a list
    for a repeatable or multi-value flag, else one value, each of the flag's
    type and among its choices. null stands for an unset flag whose default
    is unset too."""
    if value is None and _DEFAULTS[key] is None:
        return
    many = isinstance(action, argparse._AppendAction) or action.nargs == "+"
    if many != isinstance(value, list) or (many and not value):
        expected = "a non-empty list" if many else "a single value"
        raise ValueError(f"config key {key!r}: expected {expected}, got {value!r}")
    kind = bool if isinstance(action, argparse.BooleanOptionalAction) else action.type or str
    accepted = (int, float) if kind is float else kind
    for item in value if many else [value]:
        if isinstance(item, bool) != (kind is bool) or not isinstance(item, accepted):
            raise ValueError(f"config key {key!r}: expected {kind.__name__} values, got {item!r}")
        if action.choices is not None and item not in action.choices:
            raise ValueError(f"config key {key!r}: {item!r} is not one of {list(action.choices)}")


def _merge_config(args: argparse.Namespace, flags: dict[str, argparse.Action]) -> argparse.Namespace:
    file_values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except OSError as err:
            raise CsvFormatError(f"{args.config}: {err.strerror}") from err
        except json.JSONDecodeError as err:
            raise CsvFormatError(f"{args.config}: invalid JSON ({err})") from err
        if not isinstance(file_values, dict):
            raise CsvFormatError(f"{args.config}: expected a JSON object of flag values")
        unknown = set(file_values) - set(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            if key not in flags:
                raise ValueError(f"config key {key!r}: {args.command} has no flag for it")
            _check_config_value(key, value, flags[key])
    for key, fallback in _DEFAULTS.items():
        if getattr(args, key, None) is None:
            value = file_values.get(key, fallback)
            setattr(args, key, value)
    if args.seed is None:
        args.seed = int(np.random.SeedSequence().entropy % (2**63))
    print(f"seed: {args.seed}")
    return args


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="classpv",
        description="Per-class p-values and prediction regions for classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="p-values and regions for query rows")
    _add_shared(p_classify)
    p_classify.add_argument("--query", help="query CSV with the training feature columns")
    p_classify.set_defaults(func=cmd_classify)

    p_crossval = sub.add_parser("crossval", help="leave-one-out evaluation report")
    _add_shared(p_crossval)
    p_crossval.set_defaults(func=cmd_crossval)

    p_sim = sub.add_parser("simulate", help="validity / convergence / region-map experiments")
    p_sim.add_argument("kind", choices=("validity", "convergence", "region-map"))
    _add_shared(p_sim)
    p_sim.add_argument("--model", choices=("example22", "standard2"), help="built-in sampling model")
    p_sim.add_argument("--sizes", type=int, nargs="+", help="per-class training sizes")
    p_sim.add_argument("--schedule", type=int, nargs="+", help="training sizes for convergence")
    p_sim.add_argument("--replications", type=int, help="validity replications")
    p_sim.add_argument("--queries", type=int, help="query points per convergence step")
    p_sim.add_argument("--mc-samples", dest="mc_samples", type=int, help="Monte Carlo sample size")
    p_sim.add_argument("--grid-min", dest="grid_min", type=float, help="lattice lower bound")
    p_sim.add_argument("--grid-max", dest="grid_max", type=float, help="lattice upper bound")
    p_sim.add_argument("--grid-points", dest="grid_points", type=int, help="lattice points per axis")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args, _flag_actions(parser, args.command))
        for alpha in args.alpha:
            check_alpha(alpha)  # before any data is read
        return args.func(args)
    except CsvFormatError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except StructuralError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (DegenerateFitError, SingularMatrixError) as err:
        print(f"error: numerical degeneracy: {err}", file=sys.stderr)
        return 4
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
