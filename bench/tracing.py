"""Spans and counts around calls into classpv's public functions.

Wrappers are installed from here, not inside the package: each one replaces
every binding of the function it times, in every loaded ``classpv`` module
(modules import functions by name, so patching one module is not enough),
and ``uninstall`` puts the originals back. A span records its name, start,
end and the span that was open when it began; a layer's self time is its
span minus the spans of its children.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

from classpv import core, oracle

# span name -> (owner, attribute); owner is a module name or a class
TRACED = {
    "cli.main": ("classpv.cli", "main"),
    "cli.read_table": ("classpv.cli", "read_table"),
    "core.remove": (core.TrainingSet, "remove"),
    "core.replace": (core.TrainingSet, "replace"),
    "core.augment": (core.TrainingSet, "augment"),
    "numerics.cholesky": ("classpv.numerics", "cholesky"),
    "numerics.solve_lower": ("classpv.numerics", "solve_lower"),
    "numerics.f_cdf": ("classpv.numerics", "f_cdf"),
    "numerics.chisq_cdf": ("classpv.numerics", "chisq_cdf"),
    "estimators.fit_pooled_gaussian": ("classpv.estimators", "fit_pooled_gaussian"),
    "estimators.gaussian_update": ("classpv.estimators", "gaussian_update"),
    "estimators.knn_fit": ("classpv.estimators", "knn_fit"),
    "estimators.knn_augmented_counts": ("classpv.estimators", "knn_augmented_counts"),
    "estimators.fit_logistic": ("classpv.estimators", "fit_logistic"),
    "oracle.log_weighted_lr": ("classpv.oracle", "log_weighted_lr"),
    "oracle.OptimalMonteCarlo.init": (oracle.OptimalMonteCarlo, "__init__"),
    "oracle.OptimalMonteCarlo.pvalues": (oracle.OptimalMonteCarlo, "pvalues"),
    "oracle.GaussianMixtureModel.sample": (oracle.GaussianMixtureModel, "sample"),
    "permutation.pvalue_vector": ("classpv.permutation", "pvalue_vector"),
    "evaluation.crossval_pvalues": ("classpv.evaluation", "crossval_pvalues"),
    "evaluation.empirical_inclusion": ("classpv.evaluation", "empirical_inclusion"),
    "evaluation.empirical_pattern": ("classpv.evaluation", "empirical_pattern"),
    "evaluation.observed_patterns": ("classpv.evaluation", "observed_patterns"),
    "evaluation.empirical_risk": ("classpv.evaluation", "empirical_risk"),
    "evaluation.roc_curve": ("classpv.evaluation", "roc_curve"),
    "simulation.validity_experiment": ("classpv.simulation", "validity_experiment"),
    "simulation.region_map": ("classpv.simulation", "region_map"),
    "svg.pvalue_rectangles_svg": ("classpv.svg", "pvalue_rectangles_svg"),
    "svg.region_rectangles_svg": ("classpv.svg", "region_rectangles_svg"),
    "svg.roc_grid_svg": ("classpv.svg", "roc_grid_svg"),
    "svg.region_map_svg": ("classpv.svg", "region_map_svg"),
}


def _count_edit_rows(tracer, result, args):
    tracer.counts["core.rows_copied"] += result.n


def _count_update_kind(tracer, result, args):
    tracer.counts["estimators.gaussian_update." + type(args[1]).__name__.lower()] += 1


def _count_logistic(tracer, result, args):
    tracer.counts["estimators.fit_logistic.irls_iterations"] += result.iterations
    tracer.counts["estimators.fit_logistic.separated"] += int(result.separated)


# counts read off return values and arguments, by span name
COUNTERS = {
    "core.remove": _count_edit_rows,
    "core.replace": _count_edit_rows,
    "core.augment": _count_edit_rows,
    "estimators.gaussian_update": _count_update_kind,
    "estimators.fit_logistic": _count_logistic,
}


class Tracer:
    """Collects spans in memory while ``active``; ``calls``, ``self_s`` and
    ``counts`` accumulate per span name."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                elapsed = end - start
                self.self_s[name] += elapsed - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += elapsed
                self.spans.append((span_id, name, start, end, parent))
            if count is not None:
                count(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, _ in TRACED.values():
            if isinstance(owner, str):
                importlib.import_module(owner)
        modules = [m for key, m in sys.modules.items() if key == "classpv" or key.startswith("classpv.")]
        for name, (owner, attr) in TRACED.items():
            if isinstance(owner, str):
                original = getattr(sys.modules[owner], attr)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, value))
                            setattr(module, key, wrapper)
            else:
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def snapshot(self) -> dict[str, int]:
        """Calls per span name plus the value counts, for comparing rounds."""
        return {**{f"{k}.calls": v for k, v in self.calls.items()}, **dict(self.counts)}

    def write(self, path) -> None:
        """Spans as JSON lines (id, name, start, end, parent), then the totals."""
        with gzip.open(path, "wt") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
            fh.write(json.dumps({"calls": dict(self.calls), "counts": dict(self.counts),
                                 "self_s": dict(self.self_s)}) + "\n")
