"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Two criteria compare against the reference the method actually
promises to reach, worked out from the exact mathematics rather than from a
lucky seed or a loosened tolerance:

* Criterion 5: the three-class demo model's exact region map contains {1,3}
  at alpha = 0.05 at exactly two lattice points, (2.30, 2.05) and
  (2.65, 2.20), as a boundary sliver (p-values about (0.0511, 0.0249, 0.0504)
  at the latter by deterministic quadrature). The test asserts that every
  point the Monte Carlo map codes {1,3} is such a boundary point: its exact
  p1 and p3 lie within 4 Monte Carlo standard errors of alpha.
* Criterion 8: a rank p-value from N training points lives on {j/(N+1)} and
  is valid only on average over training sets. Its ROC curve is therefore
  averaged over 100 training sets and compared with the N-point rank
  reference E[P(Bin(N, pi*(X)) <= j - 1)], which is what the true statistic
  itself would give. The gap to the continuous known-model CDF, which no
  N-point rank p-value can follow, is reported but not asserted.
"""

import math
import filecmp
import subprocess
import sys

import numpy as np
import pytest

from classpv import (
    ExperimentConfig,
    OptimalMonteCarlo,
    PermutationMethod,
    example22_model,
    fit_pooled_gaussian,
    optimal_pvalue_2class_closed,
    optimal_pvalue_mc,
    region_map,
    sample_gaussian_mixture,
    standard_2class_model,
    typicality_index,
    validity_experiment,
)
from classpv.core import TrainingSet
from classpv.estimators import Augment, Relabel, Remove, gaussian_update, knn_augmented_counts, knn_fit
from classpv.permutation import pvalues
from classpv.simulation import rank_uniformity_chisq

from reference_pvalues import quadrature_pvalues, rank_pvalue_cdf


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def validity_run():
    """Full-size validity experiment shared by criteria 1 and 2."""
    model = standard_2class_model()
    methods = tuple(
        PermutationMethod(statistic=s, mode=m, k=11)
        for s in ("plugin", "knn", "logistic")
        for m in ("exact-swap", "valid-shortcut")
    )
    cfg = ExperimentConfig(
        model=model,
        sizes=(19, 19),
        methods=methods,
        alphas=(0.05, 0.10, 0.25),
        replications=5000,
        master_seed=424242,
    )
    return validity_experiment(cfg)


@pytest.mark.slow
def test_criterion_1_finite_sample_validity(validity_run):
    """Exceedance of the class's own p-value stays below alpha + 3 SE for every
    statistic, both validity-carrying modes, both classes, three levels."""
    bad = [
        f"{c.statistic}/{c.mode} theta={c.theta} alpha={c.alpha}: {c.rate:.4f} > {c.bound:.4f}"
        for c in validity_run.cells
        if not c.ok
    ]
    worst = max(c.rate - c.bound for c in validity_run.cells)
    ok = not bad
    assert _report(
        1, ok, f"36 cells, worst rate-bound margin {worst:+.4f}" + ("; " + "; ".join(bad) if bad else "")
    )


@pytest.mark.slow
def test_criterion_2_rank_uniformity(validity_run):
    """Tie-free statistic: p-values uniform on {1/20, ..., 1}; chi-square below
    the 0.999 quantile of chi-square(19) = 43.82."""
    threshold = 43.82
    stats = {}
    for theta in (1, 2):
        pv = validity_run.samples[("plugin", "exact-swap", theta)]
        stats[theta] = rank_uniformity_chisq(pv, 20)
    ok = all(v < threshold for v in stats.values())
    assert _report(2, ok, f"chi-square theta=1: {stats[1]:.2f}, theta=2: {stats[2]:.2f} (< {threshold})")


def test_criterion_3_closed_form_agreement():
    """Monte Carlo optimal p-values match the two-class closed form within
    3 binomial SEs at 50 seeded query points; closed form hits the anchors."""
    model = standard_2class_model()
    m = 20_000
    anchor_1 = optimal_pvalue_2class_closed(model, 1, np.array([1.0, 0.0]))
    anchor_2 = optimal_pvalue_2class_closed(model, 2, np.array([0.0, 0.0]))
    anchors_ok = abs(anchor_1 - 0.158655) < 1e-6 and abs(anchor_2 - 0.022750) < 1e-6
    rng = np.random.default_rng(314159)
    worst = 0.0
    failures = 0
    for j in range(50):
        theta = 1 + j % 2
        x = model.sample(theta, 1, rng)[0]
        closed = optimal_pvalue_2class_closed(model, theta, x)
        mc = optimal_pvalue_mc(model, theta, x, mc_samples=m, seed=int(rng.integers(2**31)))
        tol = 3.0 * math.sqrt(closed * (1.0 - closed) / m)
        worst = max(worst, abs(mc - closed) - tol)
        failures += abs(mc - closed) > tol
    ok = anchors_ok and failures == 0
    assert _report(
        3,
        ok,
        f"anchors {'ok' if anchors_ok else 'BAD'}; {failures}/50 points outside 3 SE "
        f"(worst excess {worst:+.5f})",
    )


def test_criterion_4_exact_pivot():
    """2000 typicality indices of fresh (data, query) pairs under a true
    homoscedastic Gaussian model pass a KS test against Uniform(0,1) at 1%."""
    model = standard_2class_model()
    draws = 2000
    children = np.random.SeedSequence(271828).spawn(draws)
    values = np.empty(draws)
    for r in range(draws):
        rng = np.random.default_rng(children[r])
        d = sample_gaussian_mixture(model, [20, 20], seed=int(rng.integers(2**31)))
        x = model.sample(1, 1, rng)[0]
        values[r] = typicality_index(fit_pooled_gaussian(d), 1, x)
    values.sort()
    grid = np.arange(1, draws + 1) / draws
    ks = float(np.max(np.maximum(grid - values, values - (grid - 1.0 / draws))))
    threshold = 1.63 / math.sqrt(draws)
    ok = ks < threshold
    assert _report(4, ok, f"KS = {ks:.4f} (< {threshold:.4f})")


def test_criterion_5_example22_region_facts():
    """Region-map facts for the three-class demo model on [-4,4]^2 at 161x161.

    The exact map has {1,3} at alpha = 0.05 only as a boundary sliver, at two
    lattice points where p1 and p3 exceed 0.05 by about 0.001. Whether the
    Monte Carlo map shows it depends on the seed, so the {1,3} sub-claim
    checks by quadrature that every point the map codes {1,3} has exact p1
    and p3 within 4 Monte Carlo standard errors of alpha. A genuine {1,3}
    patch, away from the boundary, fails it.
    """
    model = example22_model()
    xs = np.linspace(-4.0, 4.0, 161)
    mc = 20_000
    rmap = region_map(xs, xs, model=model, mc_samples=mc, seed=42)
    at_05 = rmap.codes_present(0.05)
    at_01 = rmap.codes_present(0.01)
    alpha = 0.05
    iy, ix = np.nonzero(rmap.subsets(alpha) == 0b101)
    sliver = np.column_stack([xs[ix], xs[iy]])
    deviation = 0.0
    if sliver.size:
        deviation = max(float(np.max(np.abs(quadrature_pvalues(model, theta, sliver) - alpha))) for theta in (1, 3))
    tol = 4.0 * math.sqrt(alpha * (1.0 - alpha) / mc)
    checks = {
        "{1,3} only as a boundary sliver at 0.05": deviation <= tol,
        "empty present at 0.05": 0b000 in at_05,
        "{1,2,3} absent at 0.05": 0b111 not in at_05,
        "{1,2,3} present at 0.01": 0b111 in at_01,
        "empty absent at 0.01": 0b000 not in at_01,
        "nesting at every lattice point": bool(
            np.all((rmap.subsets(0.05) & ~rmap.subsets(0.01)) == 0)
        ),
    }
    bad = [name for name, good in checks.items() if not good]
    ok = not bad
    sliver_note = (
        f"{len(sliver)} lattice points coded {{1,3}} at 0.05, exact p1/p3 at most "
        f"{deviation:.4f} from alpha (bound {tol:.4f})"
    )
    assert _report(5, ok, ("all facts hold" if ok else f"failing sub-claims: {bad}") + "; " + sliver_note)


def test_criterion_6_update_formulae():
    """1000 random single-point edits: pooled-Gaussian updates match from-scratch
    refits within 1e-9 relative; augmented k-NN counts match brute force exactly."""
    rng = np.random.default_rng(1618)
    gaussian_bad = 0
    knn_bad = 0
    edits = 0
    while edits < 1000:
        n_classes = int(rng.integers(2, 5))
        q = int(rng.integers(1, 6))
        sizes = rng.integers(3, max(4, 61 // n_classes), size=n_classes)
        labels = np.concatenate([[b + 1] * s for b, s in enumerate(sizes)])
        feats = rng.normal(size=(labels.size, q))
        d = TrainingSet(feats, labels, n_classes, tuple(map(str, range(1, n_classes + 1))))
        if d.n <= n_classes + q:
            continue
        fit = fit_pooled_gaussian(d)
        kind = edits % 3
        if kind == 0:
            i = int(rng.integers(d.n))
            if d.group(int(d.labels[i])).size < 2:
                continue
            edit, edited = Remove(i), d.remove(i)
        elif kind == 1:
            i = int(rng.integers(d.n))
            theta = int(rng.integers(1, n_classes + 1))
            if theta == d.labels[i] or d.group(int(d.labels[i])).size < 2:
                continue
            edit, edited = Relabel(i, theta), d.relabel(i, theta)
        else:
            x = rng.normal(size=q)
            theta = int(rng.integers(1, n_classes + 1))
            edit, edited = Augment(x, theta), d.augment(x, theta)
        updated = gaussian_update(fit, edit)
        scratch = fit_pooled_gaussian(edited)
        close = np.allclose(updated.means, scratch.means, rtol=1e-9, atol=1e-12) and np.allclose(
            updated.sigma.matrix, scratch.sigma.matrix, rtol=1e-9, atol=1e-12
        )
        gaussian_bad += not close

        k = int(rng.integers(1, min(10, d.n) + 1))
        caches = knn_fit(d, k=k)
        x = rng.normal(size=q)
        theta = int(rng.integers(1, n_classes + 1))
        counts = knn_augmented_counts(caches, x, theta)
        aug = d.augment(x, theta)
        for i in range(d.n):
            dsq = np.sum((aug.features - aug.features[i]) ** 2, axis=1)
            r = np.sort(dsq)[k - 1]
            for b in range(1, n_classes + 1):
                if counts[i, b - 1] != np.sum((dsq <= r) & (aug.labels == b)):
                    knn_bad += 1
        edits += 1
    ok = gaussian_bad == 0 and knn_bad == 0
    assert _report(
        6, ok, f"1000 edits: {gaussian_bad} gaussian mismatches, {knn_bad} knn count mismatches"
    )


def test_criterion_7_convergence():
    """k-NN p-values approach the known-model p-values: mean absolute gap
    strictly decreasing over n in {200, 800, 3200} with k = ceil(n^(2/3)),
    final gap below 0.05."""
    from classpv import convergence_experiment

    model = standard_2class_model()
    rows = convergence_experiment(model, [200, 800, 3200], seed=2026, n_queries=200)
    gaps = [r.mean_gap_knn for r in rows]
    ok = gaps[0] > gaps[1] > gaps[2] and gaps[-1] < 0.05
    assert _report(
        7, ok, "knn gaps " + " > ".join(f"{g:.4f}" for g in gaps) + f", final < 0.05: {gaps[-1] < 0.05}"
    )


@pytest.mark.slow
def test_criterion_8_roc_closeness():
    """Plug-in ROC curves on three-class data (N=100 per class, model is
    deliberately wrong for it) against the N-point rank reference at every
    achievable level j/101, all 9 (class, hypothesis) pairs; stated bound 0.1.

    The permutation p-value is valid on average over training sets, so its
    ROC curve is averaged over 100 training sets of 100 points per class, with
    400 fresh draws per class each (40,000 draws per class in all). The
    reference is the CDF the rank p-value would have with the true statistic,
    E[P(Bin(N, pi*(X)) <= j - 1)], where pi* is the known-model p-value at the
    same draws. On the diagonal it is j/101, so those pairs check validity;
    off the diagonal they check the misspecified plug-in's power. The gap to
    the continuous known-model CDF is reported alongside, not asserted: one
    1/101 step of the rank p-value spans a rise of ~0.16 there.
    """
    model = example22_model()
    n_class, n_sets, n_per_set = 100, 100, 400
    oracle = OptimalMonteCarlo(model, mc_samples=20_000, seed=71)
    levels = np.arange(1, n_class + 2) / (n_class + 1.0)
    train_seeds = np.random.SeedSequence(3200).spawn(n_sets)
    draw_seeds = np.random.SeedSequence(91).spawn(n_sets)
    pairs = [(b, theta) for b in (1, 2, 3) for theta in (1, 2, 3)]
    draws = {b: [] for b in (1, 2, 3)}
    set_cdfs = {pair: np.empty((n_sets, levels.size)) for pair in pairs}
    for r in range(n_sets):
        d = sample_gaussian_mixture(model, [n_class] * 3, seed=train_seeds[r])
        fitted = PermutationMethod("plugin", "valid-shortcut").fit(d)
        rng = np.random.default_rng(draw_seeds[r])
        for b in (1, 2, 3):
            x = model.sample(b, n_per_set, rng)
            draws[b].append(x)
            for theta in (1, 2, 3):
                plug = np.sort(pvalues(fitted, "valid-shortcut", theta, x))
                set_cdfs[(b, theta)][r] = np.searchsorted(plug, levels, side="right") / n_per_set
    worst = worst_continuous = worst_se = 0.0
    worst_pair = None
    for b, theta in pairs:
        star = oracle.pvalues(theta, np.vstack(draws[b]))
        plug_cdf = set_cdfs[(b, theta)].mean(axis=0)
        gap = float(np.max(np.abs(plug_cdf - rank_pvalue_cdf(star, n_class))))
        if gap > worst:
            worst, worst_pair = gap, (b, theta)
        star_cdf = np.searchsorted(np.sort(star), levels, side="right") / star.size
        worst_continuous = max(worst_continuous, float(np.max(np.abs(plug_cdf - star_cdf))))
        worst_se = max(worst_se, float(np.max(set_cdfs[(b, theta)].std(axis=0, ddof=1))) / math.sqrt(n_sets))
    ok = worst <= 0.1
    assert _report(
        8,
        ok,
        f"worst gap to the {n_class}-point rank reference {worst:.4f} at (class, hypothesis) = "
        f"{worst_pair} (bound 0.1, largest training-set standard error {worst_se:.4f}); "
        f"gap to the continuous known-model CDF {worst_continuous:.4f} (not asserted)",
    )


def test_criterion_9_cli_determinism(tmp_path):
    """Every CLI command rerun with the same configuration and seed produces
    byte-identical output files."""
    model = standard_2class_model()
    d = sample_gaussian_mixture(model, [20, 20], seed=55)
    train = tmp_path / "train.csv"
    lines = ["f1,f2,label"] + [
        f"{float(d.features[i, 0])!r},{float(d.features[i, 1])!r},c{d.labels[i]}" for i in range(d.n)
    ]
    train.write_text("\n".join(lines) + "\n")
    query = tmp_path / "query.csv"
    query.write_text("f1,f2\n0.5,0.5\n-1.0,2.0\n")

    commands = {
        "classify": [
            "classify", "--train", str(train), "--label", "label", "--query", str(query),
            "--method", "knn", "--k", "7", "--alpha", "0.05", "--alpha", "0.1",
            "--seed", "12", "--format", "csv", "--format", "json",
        ],
        "crossval": [
            "crossval", "--train", str(train), "--label", "label", "--method", "plugin",
            "--alpha", "0.05", "--seed", "12", "--format", "csv", "--format", "json",
            "--format", "svg",
        ],
        "simulate-validity": [
            "simulate", "validity", "--method", "plugin", "--mode", "valid-shortcut",
            "--replications", "60", "--alpha", "0.1", "--seed", "12",
            "--format", "csv", "--format", "json",
        ],
        "simulate-region-map": [
            "simulate", "region-map", "--model", "example22", "--grid-points", "17",
            "--alpha", "0.05", "--seed", "12", "--format", "csv", "--format", "json",
            "--format", "svg",
        ],
    }
    all_ok = True
    details = []
    for name, args in commands.items():
        dirs = []
        for run in ("x", "y"):
            out = tmp_path / f"{name}-{run}"
            proc = subprocess.run(
                [sys.executable, "-m", "classpv", *args, "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, f"{name}: {proc.stderr}"
            dirs.append(out)
        names = sorted(p.name for p in dirs[0].iterdir())
        same_names = names == sorted(p.name for p in dirs[1].iterdir())
        _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
        good = same_names and not mismatch and not errors
        all_ok = all_ok and good
        details.append(f"{name}: {'identical' if good else 'DIFFERS ' + str(mismatch)}")
    assert _report(9, all_ok, "; ".join(details))
