"""Self-tests of the benchmark's references and output checks.

    python3 bench/selftest.py

Part one: each reference reproduces p-values counted by hand, and the
comparison rejects each of them moved by one grid step. Part two: each
workload, run at a small size, passes its own checks, and fails them once
one p-value in its output is moved by one grid step (or a region is
flipped, on the Monte Carlo region map). Exits 1 if any test fails.
"""

from __future__ import annotations

import csv
import re
import shutil
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from classpv import PermutationMethod, pvalue_vector, validate_training_set  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, ok: bool) -> None:
    RESULTS.append((name, bool(ok)))
    print(f"{'ok  ' if ok else 'FAIL'} {name}")


def rejects_moves(name: str, expected: tuple[float, float, float], p: float, step: float) -> None:
    """The hand count is matched, and p one step up or down is rejected."""
    expect(f"{name}: reference gives {p}", ref.agrees(p, expected) == "equal")
    for moved in (p - step, p + step):
        if 0.0 < moved <= 1.0:
            expect(f"{name}: {moved:.4f} rejected", ref.agrees(moved, expected) == "differ")


def program(statistic, mode, X, y, x, k=None):
    d = validate_training_set(X, y)
    return pvalue_vector(PermutationMethod(statistic=statistic, mode=mode, k=k), d, x).values


def hand_counted() -> None:
    # k-NN, k = 2, classes {0, 1, 2} and {10, 11, 12}, query 8.
    # Under class 1 the augmented class is {0, 1, 2, 8}: the 2-ball of 8 is
    # {8, 10}, share 1/2; every class-1 member's 2-ball is all class 1,
    # share 1, and -1 < -1/2, so no member ranks at or above the query:
    # p = 1/4.
    # Under class 2 the ball of 8 is {8, 10}, share 1, and each of 10, 11, 12
    # also has share 1: count 3, p = 4/4.
    X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
    y = np.array([1, 1, 1, 2, 2, 2])
    x = np.array([8.0])
    for theta, p in ((1, 0.25), (2, 1.0)):
        expected = ref.valid_shortcut("knn", X, y, 2, theta, x, k=2)
        rejects_moves(f"knn valid-shortcut class {theta}", expected, p, 0.25)
        expect(f"knn valid-shortcut class {theta}: program agrees",
               ref.agrees(program("knn", "valid-shortcut", X, y, x, k=2)[theta - 1], expected) == "equal")

    # Plug-in, classes {-1, 0, 1} and {9, 10, 11}, query 0.5. With a common
    # variance the class-1 statistic log f2/f1 increases with z, so under
    # class 1 (augmented {-1, 0, 1, 0.5}) only the member 1 ranks at or above
    # 0.5: p = 2/4; under class 2 the statistic decreases with z and no
    # member of {9, 10, 11} lies at or below 0.5: p = 1/4.
    X = np.array([[-1.0], [0.0], [1.0], [9.0], [10.0], [11.0]])
    y = np.array([1, 1, 1, 2, 2, 2])
    x = np.array([0.5])
    for theta, p in ((1, 0.5), (2, 0.25)):
        expected = ref.valid_shortcut("plugin", X, y, 2, theta, x)
        rejects_moves(f"plugin valid-shortcut class {theta}", expected, p, 0.25)
        expect(f"plugin valid-shortcut class {theta}: program agrees",
               ref.agrees(program("plugin", "valid-shortcut", X, y, x)[theta - 1], expected) != "differ")

    # Plug-in exact swap, same data, class 1. Unswapped, sigma^2 = 1 and
    # T(z) = 10 z - 50, so T(0.5) = -45. Swapping 0.5 in for -1, 0, 1 gives
    # T(-1) = -95, T(0) = -48.0 and T(1) = -50.3: none reaches -45, p = 1/4.
    expected = ref.exact_swap("plugin", X, y, 2, 1, x)
    rejects_moves("plugin exact-swap class 1", expected, 0.25, 0.25)
    expect("plugin exact-swap class 1: program agrees",
           ref.agrees(program("plugin", "exact-swap", X, y, x)[0], expected) != "differ")

    # Leave-one-out is the valid shortcut on the data without the row: row 2
    # (z = 1) under class 1 ranks among {-1, 0} augmented with 1, and it is
    # the largest, so p = 1/3.
    rejects_moves("plugin leave-one-out row 2 class 1", ref.leave_one_out("plugin", X, y, 2, 2, 1), 1 / 3, 1 / 3)

    # Logistic, overlapping classes {0, 1, 2, 3.5} and {2.5, 4, 5, 6}, query
    # 1.5 under class 1. The fitted slope is positive, so the class-1
    # statistic (the class-2 log-odds) increases with z: members 2 and 3.5
    # rank at or above 1.5, p = 3/5.
    X = np.array([[0.0], [1.0], [2.0], [3.5], [2.5], [4.0], [5.0], [6.0]])
    y = np.array([1, 1, 1, 1, 2, 2, 2, 2])
    x = np.array([1.5])
    expected = ref.valid_shortcut("logistic", X, y, 2, 1, x)
    rejects_moves("logistic valid-shortcut class 1", expected, 0.6, 0.2)
    expect("logistic valid-shortcut class 1: program agrees",
           ref.agrees(program("logistic", "valid-shortcut", X, y, x)[0], expected) != "differ")

    # Typicality with q = 2: the F(2, d2) tail is (1 + 2 v / d2)^(-d2 / 2).
    rng = np.random.default_rng(5)
    X = np.vstack([rng.standard_normal((6, 2)), rng.standard_normal((5, 2)) + [3.0, 0.0]])
    y = np.repeat([1, 2], [6, 5])
    pts = np.array([[0.2, 0.1], [1.5, -1.0], [4.0, 2.0]])
    means = np.array([X[y == 1].mean(0), X[y == 2].mean(0)])
    resid = X - means[y - 1]
    cov = resid.T @ resid / (11 - 2)
    d2 = 11 - 2 - 2 + 1
    diff = pts - means[0]
    maha = np.einsum("ij,ji->i", diff, np.linalg.solve(cov, diff.T))
    closed = (1.0 + 2.0 * (d2 / (2 * 9 * (1 + 1 / 6))) * maha / d2) ** (-d2 / 2)
    tail = ref.typicality(X, y, 2, 1, pts)
    expect("typicality: F tail matches the q = 2 closed form", np.max(np.abs(tail - closed)) < 1e-12)
    expect("typicality: a value moved by 1e-6 is rejected", np.all(np.abs((tail + 1e-6) - closed) > 1e-9))

    # The model of the k-NN fault, given the true (k-1)-th radius, is the
    # brute-force reference; given the partition slot, it names the p-values
    # the program gets wrong (checked on the classify inputs below).
    rng = np.random.default_rng(11)
    X = rng.standard_normal((60, 2)) + np.repeat([[0.0, 0.0], [1.5, 0.0]], 30, axis=0)
    y = np.repeat([1, 2], 30)
    k = ref.default_k(60)
    same = all(ref.knn_valid_shortcut_slot_model(X, y, theta, x, k, radius_km1="sorted")
               == ref.valid_shortcut("knn", X, y, 2, theta, x, k)[0]
               for x in rng.standard_normal((10, 2)) for theta in (1, 2))
    expect("knn fault model with the sorted radius equals the brute-force reference", same)

    # Known-model quadrature against the closed form for N(0, I) vs N(2 e1, I).
    pts = np.array([[0.9, 0.3], [1.5, -2.0], [2.3, 1.0], [-0.5, 0.4], [3.1, -0.7]])
    weights, means, covs = np.array([0.5, 0.5]), np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([np.eye(2)] * 2)
    for theta in (1, 2):
        exact = ref.two_class_closed_form(2.0, theta, pts)
        quad = ref.quadrature_pvalues(weights, means, covs, theta, pts)
        expect(f"quadrature class {theta}: within 1e-9 of the closed form", np.max(np.abs(quad - exact)) < 1e-9)


def _rewrite_cell(path: Path, row: int, column: str, change) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(column)
    rows[row + 1][j] = change(rows[row + 1][j])
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


def _step(p: str, n: int, steps: int = 1) -> str:
    j = round(float(p) * (n + 1))
    return repr((j + (steps if j + steps <= n + 1 else -steps)) / (n + 1))


def _run_round(w) -> None:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # small groups warn at alpha = 0.01
        for call in w.calls():
            call.run()


def workload_checks(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    small = type("SmallClassify", (workloads.Classify,), {"N_TRAIN": 150, "N_QUERY": 20, "CHECK_ROWS": 20})
    w = small(7, work)
    _run_round(w)
    expect("classify: clean outputs pass", not any(w.check([], {}).values()))
    for statistic in ("plugin", "knn"):
        _, y, _, rows, *_ = w.inputs[statistic]
        path = w.out(statistic) / "classify.csv"
        _rewrite_cell(path, int(rows[0]), "p_c1", lambda p: _step(p, int(np.count_nonzero(y == 1))))
        expect(f"classify {statistic}: p moved one grid step is caught", w.check([], {})[f"classify.{statistic}"])
    _rewrite_cell(w.out("typicality") / "classify.csv", 3, "p_c2", lambda p: repr(float(p) + 1e-6))
    expect("classify typicality: p moved by 1e-6 is caught", w.check([], {})["classify.typicality"])

    # The classify k-NN call reads fixed inputs on which the fault shows:
    # exactly the p-values its model predicts are excused. Two steps on one
    # of them (one step can land on the reference) or a step on any other
    # checked p-value is caught.
    knn_only = type("KnnClassify", (workloads.Classify,), {"STATISTICS": ("knn",)})
    w = knn_only(7, work)
    _run_round(w)
    faults: dict[str, list[str]] = {}
    expect("classify knn: the fixed inputs show the known fault, and nothing else fails",
           not w.check([], faults)["classify.knn"] and faults.get("classify.knn"))
    _, y, _, rows, *_ = w.inputs["knn"]
    matches = (re.match(r"knn row (\d+) p_(c\d)", f) for f in faults.get("classify.knn", []))
    excused = {(int(m[1]), m[2]) for m in matches}
    path = w.out("knn") / "classify.csv"
    clean = path.read_text()
    row, name = sorted(excused)[0] if excused else (int(rows[0]), "c1")
    _rewrite_cell(path, row, f"p_{name}", lambda p: _step(p, int(np.count_nonzero(y == int(name[1:]))), 2))
    expect("classify knn: an excused p-value moved two grid steps is caught", w.check([], {})["classify.knn"])
    path.write_text(clean)
    row = next(int(r) for r in rows if (int(r), "c1") not in excused)
    _rewrite_cell(path, row, "p_c1", lambda p: _step(p, int(np.count_nonzero(y == 1))))
    expect("classify knn: a step on a p-value the fault does not explain is caught",
           w.check([], {})["classify.knn"])

    small = type("SmallCrossval", (workloads.Crossval,),
                 {"SIZES": {"knn": 40, "plugin": 60, "logistic": 60}, "CHECK_ROWS": 60})
    w = small(7, work)
    _run_round(w)
    expect("crossval: clean outputs pass", not any(w.check([], {}).values()))
    for statistic in ("knn", "plugin", "logistic"):
        X, y, *_ = w.data[statistic]
        _rewrite_cell(w.out(statistic) / "crossval_pvalues.csv", 5, "p_c2",
                      lambda p: _step(p, int(np.count_nonzero(y == 2)) - (1 if y[5] == 2 else 0)))
        expect(f"crossval {statistic}: p moved one grid step is caught", w.check([], {})[f"crossval.{statistic}"])
    (w.out("plugin") / "roc_curves.svg").write_text("<svg>")
    expect("crossval: a broken SVG is caught", any("XML" in f for f in w.check([], {})["crossval.plugin"]))

    small = type("SmallValidity", (workloads.Validity,), {"REPLICATIONS": 20})
    w = small(7, work)
    _run_round(w)
    expect("validity: clean outputs pass", not any(w.check([], {}).values()))
    label = "plugin.valid-shortcut"
    samples = dict(w.results[label].samples)
    key = ("plugin", "valid-shortcut", 1)
    moved = np.array(samples[key])
    r = int(w.check_reps[0])
    moved[r] += 1.0 / 20.0 if moved[r] < 1.0 else -1.0 / 20.0
    samples[key] = moved
    object.__setattr__(w.results[label], "samples", samples)
    expect("validity: a sample moved one grid step is caught", w.check([], {})[f"validity.{label}"])

    small = type("SmallRegionMap", (workloads.RegionMap,), {"GRID_POINTS": 41, "MC_SAMPLES": 200_000})
    w = small(7, work)
    _run_round(w)
    expect("region_map: clean outputs pass", not any(w.check([], {}).values()))
    path = w.out() / "region_map_alpha0.05.csv"
    idx = int(w.check_points[0])
    _rewrite_cell(path, idx, "region", lambda r: "-" if r != "-" else "1+2+3")
    expect("region_map: a flipped region is caught", w.check([], {})["region_map"])
    shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    hand_counted()
    workload_checks(ROOT / ".bench_work" / "selftest")
    failed = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(failed)} of {len(RESULTS)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
