"""Benchmark of classpv: one workload per run, timed end to end or traced by layer.

    python3 bench/run.py --workload classify_crossval --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The package is imported from the
checkout's ``src``; inputs, outputs and trace files go under
``.bench_work/`` there. A run has these phases:

1. make the workload's inputs from ``--seed``;
2. one warm-up round, whose outputs are the ones checked;
3. ``--trace 0``: until ``--seconds`` have passed, at least three times,
   time the public set-up calls and then one round. Every round makes the
   same calls and must reproduce the warm-up round's outputs byte for byte.
   Every call and set-up is timed in scaled seconds (see ``KERNEL_REF_S``).
   ``pvalues_per_s`` is a round's p-values over the sum of each call's
   median time; ``setup_s`` is the median set-up.
   ``--trace 1``: the first half of the time runs rounds untraced and the
   second half traced, at least two rounds, whose call counts must agree;
4. check the warm-up outputs against the independent references.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A call that raises, changes its
output or fails a check counts as failed, and then the run exits 1. The one
exception is the known k-NN fault, which the ``classify`` k-NN call runs
into on fixed inputs: a brute-force mismatch that the fault's model predicts
exactly counts the call as failed but leaves ``correct`` true.
"""

from __future__ import annotations

import argparse
import os

# single-threaded BLAS keeps the timings steady and the process at one core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gc
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Timings are scaled to a reference speed of the machine: a call's wall
# seconds times KERNEL_REF_S over the kernel's seconds, timed just before and
# just after the call. On a machine whose cores are shared, every kind of
# code runs up to 1.6x slower for minutes at a time; the kernel slows with
# it, so the scaled time tracks the program's own cost.
KERNEL_REF_S = 0.005
_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((200, 200))
_KERNEL_VECTOR = np.random.default_rng(1).standard_normal(100_000)


def _kernel_seconds() -> float:
    """Geometric mean of the seconds of a fixed interpreter-bound loop and a
    fixed numpy-bound one, the two kinds of code classpv runs."""
    start = time.perf_counter()
    table, total = {}, 0
    for i in range(30_000):
        table[i & 255] = i
        total += len(str(i)) if i % 7 else table[i & 255]
    middle = time.perf_counter()
    for _ in range(3):
        np.partition(_KERNEL_MATRIX, 50, axis=1)
        np.sort(_KERNEL_VECTOR)
        float((_KERNEL_VECTOR * _KERNEL_VECTOR).sum())
    end = time.perf_counter()
    return math.sqrt((middle - start) * (end - middle))


def _scaled(fn) -> float:
    """Scaled seconds of fn(): wall seconds times KERNEL_REF_S over the mean
    kernel seconds before and after."""
    before = _kernel_seconds()
    start = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - start
    return elapsed * KERNEL_REF_S / (0.5 * (before + _kernel_seconds()))


def _import_package():
    """Import classpv from this checkout's src, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import classpv
    except ImportError as err:
        raise SystemExit(f"bench: cannot import classpv from {SRC}: {err}")
    if not Path(classpv.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: classpv imported from {classpv.__file__}, not from {SRC}")


def _rate(calls, rounds: list[dict[str, float]], key: str) -> float:
    """p-values per scaled second of the calls under ``key`` ("all", a
    statistic or a mode), each call timed by its median round; 0 when no
    call has the key."""
    chosen = [c for c in calls if key == "all" or key in c.label.split(".")]
    times = [statistics.median(r[c.label] for r in rounds if c.label in r)
             for c in chosen if any(c.label in r for r in rounds)]
    if not times or len(times) < len(chosen):
        return 0.0
    return sum(c.pvalues for c in chosen) / sum(times)


class Runner:
    def __init__(self, workload):
        self.calls = workload.calls()
        self.attempted = 0
        self.raised: list[str] = []
        self.failed_calls: dict[str, int] = {}   # label -> calls that raised or changed output
        self.done_calls: dict[str, int] = {}     # label -> calls attempted
        self.reference: dict[str, str] = {}      # label -> warm-up fingerprint

    def round(self) -> dict[str, float]:
        """One round; returns the scaled seconds of each call that succeeded, by label."""
        gc.collect()
        seconds: dict[str, float] = {}
        for call in self.calls:
            self.attempted += 1
            self.done_calls[call.label] = self.done_calls.get(call.label, 0) + 1
            try:
                elapsed = _scaled(call.run)
                digest = call.fingerprint()
            except Exception as err:  # a failing call is counted, and the run goes on
                self.failed_calls[call.label] = self.failed_calls.get(call.label, 0) + 1
                self.raised.append(f"{call.label}: {type(err).__name__}: {err}")
                continue
            if self.reference.setdefault(call.label, digest) != digest:
                self.failed_calls[call.label] = self.failed_calls.get(call.label, 0) + 1
                self.raised.append(f"{call.label}: output differs from the warm-up round")
            seconds[call.label] = elapsed
        return seconds

    def rounds_for(self, seconds: float, at_least: int) -> list[dict[str, float]]:
        out = []
        deadline = time.perf_counter() + seconds
        while len(out) < at_least or time.perf_counter() < deadline:
            out.append(self.round())
        return out


def _layer_metrics(tracer, rounds: int, calls, untraced, traced) -> dict[str, tuple[float, str]]:
    """Per traced round: calls and self seconds of each layer's public functions,
    counts read off return values, and the untraced throughput by statistic and mode."""
    def c(*names):
        return sum(tracer.calls[n] for n in names) / rounds

    def s(*names):
        return sum(tracer.self_s[n] for n in names) / rounds

    def n(name):
        return tracer.counts[name] / rounds

    pvalues = sum(call.pvalues for call in calls)
    knn_rows = sum(call.loo_rows for call in calls if call.label == "crossval.knn")
    edits = ("core.remove", "core.replace", "core.augment")
    cdfs = ("numerics.f_cdf", "numerics.chisq_cdf")
    summaries = ("evaluation.empirical_inclusion", "evaluation.empirical_pattern",
                 "evaluation.observed_patterns", "evaluation.empirical_risk", "evaluation.roc_curve")
    svgs = ("svg.pvalue_rectangles_svg", "svg.region_rectangles_svg", "svg.roc_grid_svg", "svg.region_map_svg")
    untraced_s = statistics.median(sum(r.values()) for r in untraced)
    traced_s = statistics.median(sum(r.values()) for r in traced)
    m = {
        "cli.read_table.s": (s("cli.read_table"), "s"),
        "cli.self.s": (s("cli.main"), "s"),
        "core.edits": (c(*edits), "count"),
        "core.rows_copied": (n("core.rows_copied"), "count"),
        "core.edit.s": (s(*edits), "s"),
        "core.rows_copied_per_pvalue": (n("core.rows_copied") / pvalues, "rows/pvalue"),
        "numerics.cholesky.calls": (c("numerics.cholesky"), "count"),
        "numerics.cholesky.s": (s("numerics.cholesky"), "s"),
        "numerics.solve_lower.calls": (c("numerics.solve_lower"), "count"),
        "numerics.solve_lower.s": (s("numerics.solve_lower"), "s"),
        "numerics.cdf.calls": (c(*cdfs), "count"),
        "numerics.cdf.s": (s(*cdfs), "s"),
        "estimators.fit_pooled_gaussian.calls": (c("estimators.fit_pooled_gaussian"), "count"),
        "estimators.fit_pooled_gaussian.s": (s("estimators.fit_pooled_gaussian"), "s"),
        "estimators.gaussian_update.remove": (n("estimators.gaussian_update.remove"), "count"),
        "estimators.gaussian_update.replace": (n("estimators.gaussian_update.replace"), "count"),
        "estimators.gaussian_update.augment": (n("estimators.gaussian_update.augment"), "count"),
        "estimators.gaussian_update.s": (s("estimators.gaussian_update"), "s"),
        "estimators.knn_fit.calls": (c("estimators.knn_fit"), "count"),
        "estimators.knn_fit.s": (s("estimators.knn_fit"), "s"),
        "estimators.knn_fit.per_crossval_row": (c("estimators.knn_fit") / knn_rows if knn_rows else 0.0,
                                                "calls/row"),
        "estimators.knn_augmented_counts.calls": (c("estimators.knn_augmented_counts"), "count"),
        "estimators.knn_augmented_counts.s": (s("estimators.knn_augmented_counts"), "s"),
        "estimators.fit_logistic.calls": (c("estimators.fit_logistic"), "count"),
        "estimators.fit_logistic.s": (s("estimators.fit_logistic"), "s"),
        "estimators.fit_logistic.irls_iterations": (n("estimators.fit_logistic.irls_iterations"), "count"),
        "estimators.fit_logistic.separated": (n("estimators.fit_logistic.separated"), "count"),
        "oracle.log_weighted_lr.calls": (c("oracle.log_weighted_lr"), "count"),
        "oracle.log_weighted_lr.s": (s("oracle.log_weighted_lr"), "s"),
        "oracle.OptimalMonteCarlo.init.s": (s("oracle.OptimalMonteCarlo.init"), "s"),
        "oracle.OptimalMonteCarlo.pvalues.s": (s("oracle.OptimalMonteCarlo.pvalues"), "s"),
        "oracle.GaussianMixtureModel.sample.s": (s("oracle.GaussianMixtureModel.sample"), "s"),
        "permutation.pvalue_vector.calls": (c("permutation.pvalue_vector"), "count"),
        "permutation.pvalue_vector.s": (s("permutation.pvalue_vector"), "s"),
        "evaluation.crossval_pvalues.s": (s("evaluation.crossval_pvalues"), "s"),
        "evaluation.summaries.s": (s(*summaries), "s"),
        "simulation.validity_experiment.s": (s("simulation.validity_experiment"), "s"),
        "simulation.region_map.s": (s("simulation.region_map"), "s"),
        "svg.render.s": (s(*svgs), "s"),
        "trace.untraced_round_s": (untraced_s, "s"),
        "trace.traced_round_s": (traced_s, "s"),
        "trace.overhead": (traced_s / untraced_s - 1.0, "ratio"),
    }
    for key in ("plugin", "knn", "logistic", "typicality", "exact-swap", "valid-shortcut"):
        m[f"{key.replace('-', '_')}.pvalues_per_s"] = (_rate(calls, untraced, key), "1/s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"{args.workload}_{args.seed}_{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, WORKLOADS[args.workload], work, bench_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, workload_cls, work: Path, bench_dir: Path) -> int:
    log = sys.stderr
    workload = workload_cls(args.seed, work)
    print(f"bench: {workload.describe()}; seed {args.seed}", file=log)
    runner = Runner(workload)
    metrics: dict[str, dict] = {}

    runner.round()  # warm-up: fills lazy imports and caches; its outputs are checked
    if args.trace:
        from tracing import Tracer

        untraced = runner.rounds_for(args.seconds / 2, at_least=1)
        tracer = Tracer()
        tracer.install()
        traced, per_round = [], []
        deadline = time.perf_counter() + args.seconds / 2
        try:
            while len(traced) < 2 or time.perf_counter() < deadline:
                before = tracer.snapshot()
                tracer.active = True
                traced.append(runner.round())
                tracer.active = False
                after = tracer.snapshot()
                per_round.append({k: v - before.get(k, 0) for k, v in after.items()})
        finally:
            tracer.uninstall()
        if any(r != per_round[0] for r in per_round[1:]):
            runner.raised.append("call counts differ between traced rounds")
            for call in runner.calls:
                runner.failed_calls[call.label] = runner.failed_calls.get(call.label, 0) + len(traced)
        trace_path = bench_dir / f"trace_{args.workload}_{args.seed}.jsonl.gz"
        tracer.write(trace_path)
        print(f"bench: {len(tracer.spans)} spans over {len(traced)} traced rounds written to {trace_path}",
              file=log)
        for name, (value, unit) in _layer_metrics(tracer, len(traced), runner.calls, untraced, traced).items():
            metrics[name] = {"value": value, "unit": unit}
    else:
        # a set-up before each round, so set-ups and rounds see the same
        # states of the machine over the whole run
        timed, setup_times = [], []
        deadline = time.perf_counter() + args.seconds
        while len(timed) < 3 or time.perf_counter() < deadline:
            gc.collect()
            setup_times.append(_scaled(workload.setup))
            timed.append(runner.round())
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["pvalues_per_s"] = {"value": _rate(runner.calls, timed, "all"), "unit": "1/s"}
        metrics["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        metrics["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB"}
        print(f"bench: {len(timed)} timed rounds; set-up scaled seconds {[round(t, 4) for t in setup_times]}",
              file=log)
        for call in runner.calls:
            times = [round(r[call.label], 3) for r in timed if call.label in r]
            print(f"bench:   {call.label}, {call.pvalues} p-values: scaled seconds {times}", file=log)

    t_checks = time.perf_counter()
    notes: list[str] = []
    faults: dict[str, list[str]] = {}
    try:
        check_failures = workload.check(notes, faults)
    except Exception as err:  # an output the checks cannot read fails every call
        check_failures = {call.label: [f"check raised {type(err).__name__}: {err}"] for call in runner.calls}
    print(f"bench: checks took {time.perf_counter() - t_checks:.2f} s", file=log)
    # every call of a label whose output failed a check, or showed the known
    # fault, counts as failed; only the known fault leaves the run correct
    failed = 0
    correct = not runner.failed_calls
    for label, attempted in runner.done_calls.items():
        checks_failed = bool(check_failures.get(label))
        if checks_failed or faults.get(label):
            failed += attempted
        else:
            failed += min(attempted, runner.failed_calls.get(label, 0))
        correct = correct and not checks_failed
        if faults.get(label):
            print(f"bench: {label}: all {attempted} calls failed by the known fault, "
                  f"{len(faults[label])} p-values as its model predicts:", file=log)
            for line in faults[label][:10]:
                print(f"bench:   {line}", file=log)
        for line in check_failures.get(label, [])[:10]:
            print(f"bench: FAILED {label}: {line}", file=log)
    for line in runner.raised[:10]:
        print(f"bench: FAILED {line}", file=log)
    print(f"bench: {len(notes)} notes, reported and not failed: comparisons explained by statistics "
          f"tied within 1e-9 or by a separated logistic fit, and validity cells above alpha + 3 "
          f"standard errors", file=log)
    for line in notes[:5]:
        print(f"bench:   {line}", file=log)

    result = {"correct": correct, "attempted": runner.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
