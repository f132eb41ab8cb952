"""A block of fits scored at once against the same fits scored one by one.

``permutation._pvalues_each`` takes a block of fits of one shape, as the
validity battery passes a block of replications, and every family scores
each chunk of the block's edits in one closed-form call (the logistic in
one batched IRLS). Each fit's p-values must keep the bits of a call on that
fit alone, and a block whose fits fail must raise the error that a loop over
the fits raises first.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classpv import (
    DegenerateFitError,
    ExperimentConfig,
    PermutationMethod,
    TrainingSet,
    estimators,
    simulation,
    standard_2class_model,
    validity_experiment,
)
from classpv.estimators import GaussianStatistic, KnnStatistic
from classpv.permutation import _pvalues_each

METHODS = {
    "plugin": {},
    "knn": {"k": 3},
    "knn-default-k": {},
    "knn-scaled": {"k": 2, "scale_features": True},
    "logistic": {},
}


def _outcome(fn):
    """The p-values' bytes, or the error's type, message and indices."""
    try:
        return np.concatenate(fn()).tobytes()
    except (DegenerateFitError, ValueError) as err:
        return type(err), str(err), getattr(err, "swap_index", None), getattr(err, "pivot_index", None)


@pytest.mark.bits
@pytest.mark.parametrize("mode", ("exact-swap", "valid-shortcut", "naive"))
@pytest.mark.parametrize("name", METHODS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), blocks=st.integers(1, 8), n_classes=st.integers(2, 3), q=st.integers(1, 3))
def test_a_block_gives_the_bits_of_one_fit_calls(name, mode, seed, blocks, n_classes, q):
    """Sets of 3 to 7 rows per class, the same sizes in every set, on a
    half-integer lattice with one row in four copied, and queries of which
    the first equals a member: ``_pvalues_each`` over the block equals the
    concatenated calls on each fit alone, bit for bit, or raises the first
    error of those calls."""
    if name == "logistic":
        n_classes = 2
    rng = np.random.default_rng(seed)
    sizes = rng.integers(3, 8, size=n_classes)
    labels = np.repeat(np.arange(1, n_classes + 1), sizes)
    sets, queries = [], []
    for _ in range(blocks):
        X = np.round(2 * (rng.normal(size=(labels.size, q)) + labels[:, None])) / 2
        copies = rng.integers(0, labels.size, size=(labels.size // 4, 2))
        X[copies[:, 0]] = X[copies[:, 1]]
        order = rng.permutation(labels.size)
        sets.append(TrainingSet(X[order], labels[order], n_classes, tuple(str(b) for b in range(1, n_classes + 1))))
        Q = np.round(2 * rng.normal(size=(int(rng.integers(1, 4)), q)) + 2) / 2
        Q[0] = X[rng.integers(0, labels.size)]
        queries.append(Q)
    statistic = name.split("-")[0]
    method = PermutationMethod(statistic, mode, **METHODS[name])
    for theta in range(1, n_classes + 1):
        block = _outcome(lambda: _pvalues_each([method.fit(d) for d in sets], mode, theta, queries))
        alone = _outcome(lambda: [_pvalues_each([method.fit(d)], mode, theta, [Q])[0] for d, Q in zip(sets, queries)])
        assert block == alone, (theta, block, alone)


@pytest.mark.bits
def test_a_held_refit_fails_before_a_later_edit():
    """Exact-swap plug-in on a block of two: replication 0's "loo" removal of
    row 1 leaves the pooled covariance singular and is flagged for the
    refit, and replication 1's ``Augment`` of a far query is itself
    singular. The loop over the replications stops at replication 0's
    refit, so the block raises that error, with its ``swap_index``."""
    labels = np.array([1, 1, 2, 2])
    refit_fails = TrainingSet(np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [6.0, 4.0]]), labels, 2, ("1", "2"))
    edit_fails = TrainingSet(np.array([[0.0, 0.0], [1.0, 0.001], [5.0, 0.0], [6.0, 0.002]]), labels, 2, ("1", "2"))
    method = PermutationMethod("plugin", "exact-swap")
    fits = [method.fit(refit_fails), method.fit(edit_fails)]
    queries = [np.array([[0.0, 0.0]]), np.array([[1e4, 0.0]])]
    errors = []
    for fitted, Q in zip(fits, queries):
        with pytest.raises(DegenerateFitError) as alone:
            _pvalues_each([fitted], "exact-swap", 1, [Q])
        errors.append(alone.value)
    assert [err.swap_index for err in errors] == [1, None]
    with pytest.raises(DegenerateFitError) as raised:
        _pvalues_each(fits, "exact-swap", 1, queries)
    assert (str(raised.value), raised.value.swap_index) == (str(errors[0]), 1)


class TestBatteryCalls:
    """The benchmark's battery: 60 replications of 19 + 19 points, in two
    blocks of 30, each (method, class) scored by one ``_pvalues_each``."""

    SIZES, REPS = (19, 19), 60

    def _run(self, method):
        cfg = ExperimentConfig(model=standard_2class_model(), sizes=self.SIZES, methods=(method,),
                               alphas=(0.05,), replications=self.REPS, master_seed=13)
        return validity_experiment(cfg)

    def _blocks(self):
        n = sum(self.SIZES)
        return -(-self.REPS // max(1, simulation._BLOCK_ELEMENTS // ((n + 2) * n * 3)))

    @pytest.mark.parametrize("family, statistic", [(GaussianStatistic, "plugin"), (KnnStatistic, "knn")])
    @pytest.mark.parametrize("mode", ("exact-swap", "valid-shortcut"))
    def test_one_closed_form_call_per_class_and_block(self, family, statistic, mode):
        # a per-replication loop made 120 calls
        closed_form = family.edited_values_each
        with mock.patch.object(family, "edited_values_each", wraps=closed_form) as calls:
            self._run(PermutationMethod(statistic, mode))
        assert self._blocks() == 2 and calls.call_count == 2 * self._blocks()
        assert {len(call.args[0]) for call in calls.call_args_list} == {self.REPS // self._blocks()}

    def test_knn_caches_of_a_block_are_one_build(self):
        with mock.patch.object(estimators, "_knn_fits", wraps=estimators._knn_fits) as fits:
            self._run(PermutationMethod("knn", "valid-shortcut"))
        assert fits.call_count == self._blocks()

    def test_naive_logistic_fits_a_block_in_one_call(self):
        """One batched IRLS per block fits every replication's set, where
        a per-replication ``fit_logistic`` made 60 calls; each p-value has
        the bits of a fit of its set alone."""
        method = PermutationMethod("logistic", "naive")
        with mock.patch.object(estimators, "_logistic_fits", wraps=estimators._logistic_fits) as fits:
            result = self._run(method)
        assert fits.call_count == self._blocks()
        children = np.random.SeedSequence(13).spawn(self.REPS)
        model = standard_2class_model()
        for r in (0, 29, 30, 59):
            rng = np.random.default_rng(children[r])
            d = simulation._sample_training(model, self.SIZES, rng)
            x = np.vstack([model.sample(theta, 1, rng) for theta in (1, 2)])
            for theta in (1, 2):
                alone = _pvalues_each([method.fit(d)], "naive", theta, [x[theta - 1 : theta]])[0]
                assert result.samples[("logistic", "naive", theta)][r] == alone[0], (r, theta)
