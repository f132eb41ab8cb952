"""The two workloads, each made of two parts: inputs made from the seed, the
public set-up calls that ``setup_s`` times, the calls one round makes, and
the checks of their outputs.

``classify_crossval`` runs the parts ``Classify`` (one fit, many queries)
and ``Crossval`` (edit, then query); ``validity_region_map`` runs
``Validity`` (many small fits) and ``RegionMap`` (known-model oracle and
graphics). Each part would do as a workload of its own; they are paired so
that a run can last long enough to time steadily within the benchmark's
total time (see README.md).

A round is a list of ``Call``s, labelled ``<part>.<statistic>[.<mode>]``. Each call drives classpv through its public
surface (``classpv.cli.main`` in-process, or ``validity_experiment`` where
the CLI cannot reach the six-method battery) and returns a fingerprint of
what it produced. ``check`` examines the outputs of the first round against
the independent references in ``reference.py`` and returns, per call label,
the failures found. Into ``faults`` it puts, per label, the mismatches that
the model of the known k-NN fault predicts exactly; into ``notes``, what is
reported but not failed: comparisons that statistics tied within 1e-9
explain, and validity cells above alpha + 3 standard errors. Later rounds
must reproduce the first round's fingerprints exactly.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
from classpv import (
    ExperimentConfig,
    OptimalMonteCarlo,
    PermutationMethod,
    example22_model,
    pvalue_vector,
    standard_2class_model,
    validate_training_set,
    validity_experiment,
)
from classpv import cli

ALPHAS = (0.05, 0.01)

# The k-NN valid shortcut reads each point's (k-1)-th radius from
# np.partition(dsq, k - 1)[:, k - 2], an element that partition leaves
# unsorted, so at n = 2000 some p-values are one grid step off, on some seeds
# and not others. The classify k-NN call therefore reads inputs made from this
# fixed seed, on which the fault shows every time; the check excuses only the
# p-values that reference.knn_valid_shortcut_slot_model predicts to be wrong,
# and each such call counts as failed.
KNN_FAULT_SEED = 0


@dataclass
class Call:
    label: str                      # <part>.<statistic>, or <part>.<statistic>.<mode> on validity
    pvalues: int                    # class p-values the call computes
    run: Callable[[], object]       # the timed call into classpv
    fingerprint: Callable[[], str]  # digest of what the last run produced
    loo_rows: int = 0               # leave-one-out rows, on crossval


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _write_table(path: Path, X: np.ndarray, labels=None) -> None:
    header = [f"x{j + 1}" for j in range(X.shape[1])] + (["label"] if labels is not None else [])
    lines = [",".join(header)]
    for i, row in enumerate(X):
        cells = [repr(float(v)) for v in row] + ([f"c{labels[i]}"] if labels is not None else [])
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _cli_call(label: str, pvalues: int, argv: list[str], out: Path, loo_rows: int = 0) -> Call:
    """A call of classpv.cli.main in-process; its fingerprint covers every output byte."""
    argv = argv + ["--out", str(out)]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"classpv {argv[0]} exited {code}")

    def fingerprint():
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        return digest.hexdigest()

    return Call(label, pvalues, run, fingerprint, loo_rows)


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _alpha_tag(alpha: float) -> str:
    return format(alpha, "g")


def _region(text: str) -> frozenset[str]:
    return frozenset() if text == "-" else frozenset(text.split("+"))


def _on_grid(p: float, n: int) -> bool:
    j = round(p * (n + 1))
    return 1 <= j <= n + 1 and abs(p * (n + 1) - j) <= 1e-6


def _region_from(pvals: dict[str, float], alpha: float) -> frozenset[str] | None:
    """{theta : p > alpha}, or None when a printed p-value is too close to alpha to tell."""
    if any(0.0 < abs(p - alpha) < 1e-9 for p in pvals.values()):
        return None
    return frozenset(name for name, p in pvals.items() if p > alpha)


def _compare(fails: list[str], what: str, p: float, expected: tuple[float, float, float], notes: list[str]) -> None:
    verdict = ref.agrees(p, expected)
    if verdict == "differ":
        fails.append(f"{what}: program {p!r}, reference {float(expected[0])!r}")
    elif verdict == "tie":
        notes.append(f"{what}: program {p!r}, reference {float(expected[0])!r} within a 1e-9 tie")


def _parse_svgs(out: Path, fails: list[str]) -> None:
    svgs = sorted(out.glob("*.svg"))
    if not svgs:
        fails.append(f"{out.name}: no SVG written")
    for path in svgs:
        try:
            ET.parse(path)
        except ET.ParseError as err:
            fails.append(f"{path.name}: not well-formed XML ({err})")


def _mixture(rng, weights, means, covs, n):
    labels = rng.choice(len(weights), size=n, p=weights) + 1
    X = np.empty((n, means.shape[1]))
    for b in range(1, len(weights) + 1):
        rows = labels == b
        X[rows] = rng.multivariate_normal(means[b - 1], covs[b - 1], size=int(rows.sum()))
    return X, labels


# ---------------------------------------------------------------------------
# classify: one fit, many queries
# ---------------------------------------------------------------------------


class Classify:
    """Three Gaussian classes in 2-D with the example-2.2 parameters; CLI
    ``classify`` once per statistic, valid-shortcut mode, alpha 0.05 and 0.01."""

    N_TRAIN = 2000
    N_QUERY = 600
    STATISTICS = ("plugin", "knn", "typicality")
    CHECK_ROWS = 24

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        seeded = self._inputs(seed, "seeded")
        fixed = self._inputs(KNN_FAULT_SEED, "fixed")
        self.inputs = {s: fixed if s == "knn" else seeded for s in self.STATISTICS}

    def _inputs(self, seed: int, tag: str):
        rng = np.random.default_rng([seed, 1])
        args = (ref.EXAMPLE22_WEIGHTS, ref.EXAMPLE22_MEANS, ref.EXAMPLE22_COVS)
        X, y = _mixture(rng, *args, self.N_TRAIN)
        Q, _ = _mixture(rng, *args, self.N_QUERY)
        rows = np.sort(rng.choice(self.N_QUERY, size=self.CHECK_ROWS, replace=False))
        train, query = self.work / f"classify_train_{tag}.csv", self.work / f"classify_query_{tag}.csv"
        _write_table(train, X, y)
        _write_table(query, Q)
        return X, y, Q, rows, train, query

    def describe(self) -> str:
        return f"classify: n={self.N_TRAIN}, q=2, L=3, {self.N_QUERY} queries, k={ref.default_k(self.N_TRAIN)}"

    def setup(self) -> None:
        for statistic in self.STATISTICS:
            *_, train, query = self.inputs[statistic]
            X, labels, _ = cli.read_table(str(train), "label")
            cli.read_table(str(query), None)
            fitted = PermutationMethod(statistic=statistic).fit(validate_training_set(X, labels))
            if statistic == "knn":
                fitted.caches

    def out(self, statistic: str) -> Path:
        return self.work / f"classify_{statistic}"

    def calls(self) -> list[Call]:
        def make(statistic):
            *_, train, query = self.inputs[statistic]
            argv = ["classify", "--train", str(train), "--label", "label", "--query", str(query),
                    "--method", statistic, "--mode", "valid-shortcut", "--seed", str(self.seed)]
            argv += [a for alpha in ALPHAS for a in ("--alpha", repr(alpha))]
            return _cli_call(f"classify.{statistic}", 3 * self.N_QUERY, argv, self.out(statistic))

        return [make(s) for s in self.STATISTICS]

    def check(self, notes: list[str], faults: dict[str, list[str]]) -> dict[str, list[str]]:
        failures = {}
        for statistic in self.STATISTICS:
            X, y, Q, check_rows, *_ = self.inputs[statistic]
            sizes = {f"c{b}": int(np.count_nonzero(y == b)) for b in (1, 2, 3)}
            fails: list[str] = []
            rows = _read_rows(self.out(statistic) / "classify.csv")
            header, body = rows[0], rows[1:]
            if statistic == "typicality":
                typ = {f"c{b}": ref.typicality(X, y, 3, b, Q) for b in (1, 2, 3)}
            pcols = {h[2:]: j for j, h in enumerate(header) if h.startswith("p_")}
            rcols = {h[7:]: j for j, h in enumerate(header) if h.startswith("region_")}
            if sorted(pcols) != sorted(sizes) or sorted(rcols) != sorted(_alpha_tag(a) for a in ALPHAS):
                failures[statistic] = [f"unexpected header {header}"]
                continue
            if len(body) != self.N_QUERY or [r[0] for r in body] != [str(i) for i in range(self.N_QUERY)]:
                fails.append(f"expected rows 0..{self.N_QUERY - 1}, got {len(body)} rows")
            for i, row in enumerate(body[: self.N_QUERY]):
                pvals = {name: float(row[j]) for name, j in pcols.items()}
                for name, p in pvals.items():
                    if statistic == "typicality":
                        if abs(p - typ[name][i]) > 1e-9:
                            fails.append(f"row {i} p_{name}: program {p!r}, F tail {typ[name][i]!r}")
                    elif not _on_grid(p, sizes[name]):
                        fails.append(f"row {i} p_{name}={p!r} off the grid j/{sizes[name] + 1}")
                regions = {tag: _region(row[j]) for tag, j in rcols.items()}
                for alpha in ALPHAS:
                    expected = _region_from(pvals, alpha)
                    if expected is not None and regions[_alpha_tag(alpha)] != expected:
                        fails.append(f"row {i} region at {alpha}: {sorted(regions[_alpha_tag(alpha)])}, "
                                     f"p-values give {sorted(expected)}")
                if not regions[_alpha_tag(0.05)] <= regions[_alpha_tag(0.01)]:
                    fails.append(f"row {i}: region at 0.05 not inside region at 0.01")
            if statistic != "typicality":
                k = ref.default_k(self.N_TRAIN)
                for i in check_rows:
                    for b in (1, 2, 3):
                        what = f"{statistic} row {i} p_c{b}"
                        p = float(body[i][pcols[f"c{b}"]])
                        expected = ref.valid_shortcut(statistic, X, y, 3, b, Q[i], k)
                        if statistic == "knn" and ref.agrees(p, expected) == "differ":
                            model = ref.knn_valid_shortcut_slot_model(X, y, b, Q[i], k)
                            if model != expected[0] and abs(p - model) <= 1e-9:
                                faults.setdefault("classify.knn", []).append(
                                    f"{what}: program {p!r}, reference {float(expected[0])!r}; the unsorted "
                                    f"(k-1)-th radius of estimators.knn_fit predicts {model!r}")
                                continue
                        _compare(fails, what, p, expected, notes)
            failures[statistic] = fails
        return {f"classify.{s}": f for s, f in failures.items()}


# ---------------------------------------------------------------------------
# validity: many small fits
# ---------------------------------------------------------------------------


class Validity:
    """``validity_experiment`` on ``standard_2class_model()`` with 19 points
    per class, one call per (statistic, mode) of the six-method battery."""

    SIZES = (19, 19)
    REPLICATIONS = 60
    ALPHA = 0.05
    METHODS = tuple((s, m) for s in ("plugin", "knn", "logistic") for m in ("exact-swap", "valid-shortcut"))
    CHECK_SETS = 3
    CHECK_REPS = 4

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        means = np.array([[0.0, 0.0], [2.0, 0.0]])
        # training sets and queries for the brute-force comparison, drawn here
        self.check_sets = []
        for _ in range(self.CHECK_SETS):
            X = np.vstack([rng.standard_normal((n, 2)) + means[b] for b, n in enumerate(self.SIZES)])
            y = np.repeat([1, 2], self.SIZES)
            queries = rng.standard_normal((2, 2)) + means
            self.check_sets.append((X, y, queries))
        self.check_reps = np.sort(rng.choice(self.REPLICATIONS, size=self.CHECK_REPS, replace=False))
        self.results = {}  # first result per label, the one checked
        self.last = {}

    def replication(self, r: int):
        """Training set and per-class queries of replication r, drawn as the
        experiment documents: generator r of SeedSequence(seed).spawn(R), the
        class-1 rows, the class-2 rows, then one query per class. The model
        has identity covariances, so each draw is mean + standard normal."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed).spawn(self.REPLICATIONS)[r])
        means = np.array([[0.0, 0.0], [2.0, 0.0]])
        X = np.vstack([means[b] + rng.standard_normal((n, 2)) for b, n in enumerate(self.SIZES)])
        queries = np.array([means[b] + rng.standard_normal((1, 2))[0] for b in range(2)])
        return X, np.repeat([1, 2], self.SIZES), queries

    def describe(self) -> str:
        return (f"validity: standard_2class_model(), sizes {self.SIZES}, {self.REPLICATIONS} replications "
                f"per method, alpha {self.ALPHA}, k={ref.default_k(sum(self.SIZES))}")

    def setup(self) -> None:
        """Nothing: every replication draws and fits its own training set
        inside the timed call."""

    def calls(self) -> list[Call]:
        def make(statistic, mode):
            label = f"{statistic}.{mode}"

            def run():
                cfg = ExperimentConfig(model=standard_2class_model(), sizes=self.SIZES,
                                       methods=(PermutationMethod(statistic=statistic, mode=mode),),
                                       alphas=(self.ALPHA,), replications=self.REPLICATIONS,
                                       master_seed=self.seed)
                self.last[label] = validity_experiment(cfg)
                self.results.setdefault(label, self.last[label])

            def fingerprint():
                result = self.last[label]
                digest = hashlib.sha256()
                for key in sorted(result.samples):
                    digest.update(result.samples[key].tobytes())
                digest.update(repr(result.cells).encode())
                return digest.hexdigest()

            return Call(f"validity.{label}", 2 * self.REPLICATIONS, run, fingerprint)

        return [make(s, m) for s, m in self.METHODS]

    def check(self, notes: list[str], faults: dict[str, list[str]]) -> dict[str, list[str]]:
        failures = {}
        for statistic, mode in self.METHODS:
            label = f"{statistic}.{mode}"
            fails: list[str] = []
            result = self.results[label]
            for theta, n in zip((1, 2), self.SIZES):
                samples = result.samples[(statistic, mode, theta)]
                off = [p for p in samples if not _on_grid(float(p), n)]
                if off or samples.size != self.REPLICATIONS:
                    fails.append(f"class {theta}: {len(off)} p-values off the grid j/{n + 1}")
                rate = np.count_nonzero(samples <= self.ALPHA) / self.REPLICATIONS
                bound = self.ALPHA + 3.0 * math.sqrt(self.ALPHA * (1.0 - self.ALPHA) / self.REPLICATIONS)
                cell = result.cell(statistic, mode, theta, self.ALPHA)
                if cell.rate != rate or abs(cell.bound - bound) > 1e-12 or cell.ok != (rate <= bound):
                    fails.append(f"class {theta}: cell {cell} disagrees with rate {rate} and bound {bound}")
                if rate > bound:  # crossed by chance in a few per mille of cells, so reported only
                    notes.append(f"{label} class {theta}: rate {rate} above alpha + 3 standard errors, {bound:.4f}")
            k = ref.default_k(sum(self.SIZES))
            reference = ref.exact_swap if mode == "exact-swap" else ref.valid_shortcut
            for r in self.check_reps:
                X, y, queries = self.replication(int(r))
                for theta in (1, 2):
                    try:
                        expected = reference(statistic, X, y, 2, theta, queries[theta - 1], k)
                    except ref.Separated:
                        notes.append(f"{label} replication {r}: a reference fit is separated; not compared")
                        continue
                    _compare(fails, f"{label} replication {r} p_{theta}",
                             float(result.samples[(statistic, mode, theta)][r]), expected, notes)
            method = PermutationMethod(statistic=statistic, mode=mode)
            for s, (X, y, queries) in enumerate(self.check_sets):
                d = validate_training_set(X, y)
                for x in queries:
                    program = pvalue_vector(method, d, x).values
                    for theta in (1, 2):
                        try:
                            expected = reference(statistic, X, y, 2, theta, x, k)
                        except ref.Separated:
                            notes.append(f"{label} set {s}: a reference fit is separated; not compared")
                            continue
                        _compare(fails, f"{label} set {s} p_{theta}", float(program[theta - 1]), expected, notes)
            failures[f"validity.{label}"] = fails
        return failures


# ---------------------------------------------------------------------------
# crossval: edit, then query
# ---------------------------------------------------------------------------


class Crossval:
    """Two Gaussian classes in 6-D; CLI ``crossval`` with CSV, JSON and SVG
    output for each statistic at its own n."""

    SIZES = {"knn": 200, "plugin": 800, "logistic": 300}
    Q = 6
    SHIFT = np.array([1.2, 0.8, 0.6, 0.4, 0.0, 0.0])
    CHECK_ROWS = 8

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.data = {}
        for statistic, n in self.SIZES.items():
            rng = np.random.default_rng([seed, 3, n])
            y = np.repeat([1, 2], [n // 2, n - n // 2])
            X = rng.standard_normal((n, self.Q)) + np.where(y[:, None] == 2, self.SHIFT, 0.0)
            # every k-NN row is checked, since the unsorted (k-1)-th radius of
            # knn_fit lies on its path; at this n the slot was right on every
            # leave-one-out fit of seeds 0 to 999
            rows = np.arange(n) if statistic == "knn" else np.sort(rng.choice(n, size=self.CHECK_ROWS, replace=False))
            path = work / f"crossval_{statistic}.csv"
            _write_table(path, X, y)
            self.data[statistic] = (X, y, path, rows)

    def describe(self) -> str:
        parts = ", ".join(f"{s} n={n}" for s, n in self.SIZES.items())
        return f"crossval: q={self.Q}, L=2, {parts}, k={ref.default_k(self.SIZES['knn'])} for knn"

    def setup(self) -> None:
        for statistic, (_, _, path, _) in self.data.items():
            X, labels, _ = cli.read_table(str(path), "label")
            fitted = PermutationMethod(statistic=statistic).fit(validate_training_set(X, labels))
            if statistic == "knn":
                fitted.caches

    def out(self, statistic: str) -> Path:
        return self.work / f"crossval_{statistic}_out"

    def calls(self) -> list[Call]:
        def make(statistic):
            path = self.data[statistic][2]
            argv = ["crossval", "--train", str(path), "--label", "label", "--method", statistic,
                    "--format", "csv", "--format", "json", "--format", "svg", "--seed", str(self.seed)]
            argv += [a for alpha in ALPHAS for a in ("--alpha", repr(alpha))]
            n = self.SIZES[statistic]
            return _cli_call(f"crossval.{statistic}", 2 * n, argv, self.out(statistic), loo_rows=n)

        return [make(s) for s in self.SIZES]

    def check(self, notes: list[str], faults: dict[str, list[str]]) -> dict[str, list[str]]:
        failures = {}
        for statistic, (X, y, _, check_rows) in self.data.items():
            fails: list[str] = []
            out = self.out(statistic)
            n = X.shape[0]
            sizes = {f"c{b}": int(np.count_nonzero(y == b)) for b in (1, 2)}
            rows = _read_rows(out / "crossval_pvalues.csv")
            header, body = rows[0], rows[1:]
            pcols = {h[2:]: j for j, h in enumerate(header) if h.startswith("p_")}
            if sorted(pcols) != sorted(sizes) or len(body) != n:
                failures[statistic] = [f"unexpected table: header {header}, {len(body)} rows"]
                continue
            P = {name: np.array([float(r[j]) for r in body]) for name, j in pcols.items()}
            own = np.array([r[1] for r in body])
            if list(own) != [f"c{b}" for b in y]:
                fails.append("label column differs from the training labels")
            for name, values in P.items():
                for i, p in enumerate(values):
                    loo = sizes[name] - (1 if own[i] == name else 0)
                    if not _on_grid(float(p), loo):
                        fails.append(f"row {i} p_{name}={p!r} off the grid j/{loo + 1}")
            k = ref.default_k(n)
            for i in check_rows:
                for b in (1, 2):
                    expected = ref.leave_one_out(statistic, X, y, 2, int(i), b, k)
                    _compare(fails, f"{statistic} row {i} p_c{b}", float(P[f"c{b}"][i]), expected, notes)
            for alpha in ALPHAS:
                tag = _alpha_tag(alpha)
                inc = _read_rows(out / f"inclusion_alpha{tag}.csv")
                for row in inc[1:]:
                    members = own == row[0]
                    for j, h in enumerate(inc[0][1:], start=1):
                        want = np.count_nonzero(P[h[3:]][members] > alpha) / np.count_nonzero(members)
                        if abs(float(row[j]) - want) > 1e-9:
                            fails.append(f"inclusion {tag} {row[0]}/{h}: {row[j]}, recomputed {want}")
                pat = _read_rows(out / f"pattern_alpha{tag}.csv")
                regions = [frozenset(name for name in P if P[name][i] > alpha) for i in range(n)]
                for row in pat[1:]:
                    members = [i for i in range(n) if own[i] == row[0]]
                    for j, h in enumerate(pat[0][1:], start=1):
                        want = sum(regions[i] == _region(h[3:]) for i in members) / len(members)
                        if abs(float(row[j]) - want) > 1e-9:
                            fails.append(f"pattern {tag} {row[0]}/{h}: {row[j]}, recomputed {want}")
            curves: dict[tuple[str, str], list[float]] = {}
            for row in _read_rows(out / "roc_curves.csv")[1:]:
                curves.setdefault((row[0], row[1]), []).append(float(row[3]))
            if len(curves) != 4:
                fails.append(f"{len(curves)} ROC curves, expected 4")
            for key, values in curves.items():
                if any(b < a for a, b in zip(values, values[1:])) or values[-1] != 1.0:
                    fails.append(f"ROC {key} not nondecreasing to 1: {values[:3]}...{values[-3:]}")
            json.loads((out / "crossval_summary.json").read_text())
            _parse_svgs(out, fails)
            failures[statistic] = fails
        return {f"crossval.{s}": f for s, f in failures.items()}


# ---------------------------------------------------------------------------
# region_map: known-model oracle and graphics
# ---------------------------------------------------------------------------


class RegionMap:
    """CLI ``simulate region-map --model example22`` at alpha 0.05 and 0.01,
    CSV and SVG output, Monte Carlo seeded from the workload seed."""

    GRID_POINTS = 321
    MC_SAMPLES = 1_000_000
    CHECK_POINTS = 60

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        rng = np.random.default_rng([seed, 4])
        self.check_points = np.sort(rng.choice(self.GRID_POINTS ** 2, size=self.CHECK_POINTS, replace=False))

    def describe(self) -> str:
        return (f"region_map: example22, {self.GRID_POINTS}^2 lattice on [-4, 4]^2, "
                f"M={self.MC_SAMPLES} Monte Carlo draws per class")

    def setup(self) -> None:
        OptimalMonteCarlo(example22_model(), mc_samples=self.MC_SAMPLES, seed=self.seed)

    def out(self) -> Path:
        return self.work / "region_map_out"

    def calls(self) -> list[Call]:
        argv = ["simulate", "region-map", "--model", "example22", "--format", "csv", "--format", "svg",
                "--grid-points", str(self.GRID_POINTS), "--mc-samples", str(self.MC_SAMPLES),
                "--seed", str(self.seed)]
        argv += [a for alpha in ALPHAS for a in ("--alpha", repr(alpha))]
        return [_cli_call("region_map", 3 * self.GRID_POINTS ** 2, argv, self.out())]

    def check(self, notes: list[str], faults: dict[str, list[str]]) -> dict[str, list[str]]:
        fails: list[str] = []
        out = self.out()
        xs = np.linspace(-4.0, 4.0, self.GRID_POINTS)
        lattice = np.array([[x, y] for y in xs for x in xs])
        regions = {}
        for alpha in ALPHAS:
            rows = _read_rows(out / f"region_map_alpha{_alpha_tag(alpha)}.csv")[1:]
            if len(rows) != lattice.shape[0]:
                fails.append(f"alpha {alpha}: {len(rows)} lattice rows, expected {lattice.shape[0]}")
                return {"region_map": fails}
            coords = np.array([[float(r[0]), float(r[1])] for r in rows])
            if np.max(np.abs(coords - lattice)) > 1e-9:
                fails.append(f"alpha {alpha}: lattice coordinates differ from linspace(-4, 4)")
            regions[alpha] = [_region(r[2]) for r in rows]
        not_nested = sum(not a <= b for a, b in zip(regions[0.05], regions[0.01]))
        if not_nested:
            fails.append(f"{not_nested} lattice points where the 0.05 region is not inside the 0.01 region")
        pts = lattice[self.check_points]
        exact = np.column_stack([
            ref.quadrature_pvalues(ref.EXAMPLE22_WEIGHTS, ref.EXAMPLE22_MEANS, ref.EXAMPLE22_COVS, theta, pts)
            for theta in (1, 2, 3)
        ])
        for alpha in ALPHAS:
            margin = 4.0 * math.sqrt(alpha * (1.0 - alpha) / self.MC_SAMPLES)
            for j, idx in enumerate(self.check_points):
                if np.min(np.abs(exact[j] - alpha)) <= margin:
                    continue
                want = frozenset(str(t) for t in (1, 2, 3) if exact[j, t - 1] > alpha)
                if regions[alpha][idx] != want:
                    fails.append(f"alpha {alpha} at {tuple(pts[j])}: region {sorted(regions[alpha][idx])}, "
                                 f"quadrature p {exact[j].round(5).tolist()} gives {sorted(want)}")
        _parse_svgs(out, fails)
        return {"region_map": fails}


# ---------------------------------------------------------------------------
# the workloads: two parts each
# ---------------------------------------------------------------------------


class Pair:
    """Two parts in one process: their calls make one round, their set-ups
    one set-up, and their checks one check."""

    PARTS: tuple = ()

    def __init__(self, seed: int, work: Path):
        self.parts = [part(seed, work) for part in self.PARTS]

    def describe(self) -> str:
        return "; ".join(part.describe() for part in self.parts)

    def setup(self) -> None:
        for part in self.parts:
            part.setup()

    def calls(self) -> list[Call]:
        return [call for part in self.parts for call in part.calls()]

    def check(self, notes: list[str], faults: dict[str, list[str]]) -> dict[str, list[str]]:
        return {label: fails for part in self.parts for label, fails in part.check(notes, faults).items()}


class ClassifyCrossval(Pair):
    PARTS = (Classify, Crossval)


class ValidityRegionMap(Pair):
    PARTS = (Validity, RegionMap)


WORKLOADS = {"classify_crossval": ClassifyCrossval, "validity_region_map": ValidityRegionMap}
