"""Exact finite-sample validity, checked by enumeration.

Take a bag of N + 1 points and the training rows of the other classes. Let
each bag point in turn be the query, with the other N as the rows of class
theta. The bag's points are exchangeable under that hypothesis, so a valid
rank p-value gives at most j of the N + 1 p-values at or below j/(N+1), for
every j and every bag. That holds bag by bag, not only on average, so it is
checked on each one: on lattice rows with ties, copied rows, and bags that
hold copies of one point, so that a query equals a member. Leave-one-out
gives the same bound on D itself: the N own-class p-values of a class of N
rows hold at most j values at or below j/N. Naive mode has no such bound,
and a pinned bag shows it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classpv import PermutationMethod, crossval_pvalues, default_k
from classpv.core import TrainingSet
from classpv.estimators import DegenerateFitError
from classpv.permutation import pvalue_table, pvalues


def _statistics(n):
    """The statistics checked at training size n: the plug-in, the logistic
    and k-NN at k = 1, 2, n - 1, n and the default, fixed and scaled."""
    yield "plugin", {}
    yield "logistic", {}
    for k in (1, 2, n - 1, n, default_k(n)):
        for scale in (False, True):
            yield "knn", {"k": k, "scale_features": scale}


def _violations(p, size):
    """The levels j in 1..size with more than j of the p-values at or below j/size."""
    return [j for j in range(1, size + 1) if np.count_nonzero(p <= j / size) > j]


def _with_class(features, labels, n_classes, theta, rows):
    """The training set of the given rows and labels, with ``rows`` added as class theta."""
    return TrainingSet(np.vstack([features, rows]), np.append(labels, np.full(len(rows), theta)),
                       n_classes, tuple(map(str, range(n_classes))))


def _bag_pvalues(method, features, labels, n_classes, theta, bag):
    """Each bag point's class-theta p-value, from ``pvalues`` and from
    ``pvalue_table``, on the other classes' rows and the rest of the bag."""
    out = []
    for j in range(len(bag)):
        fitted = method.fit(_with_class(features, labels, n_classes, theta, np.delete(bag, j, axis=0)))
        p = pvalues(fitted, method.mode, theta, bag[j : j + 1])
        table = pvalue_table(fitted, method.mode, bag[j : j + 1])
        assert p.tobytes() == table[:, theta - 1].tobytes()
        out.append(p[0])
    return np.array(out)


def _lattice(rng, rows, q):
    """Half-integer lattice rows in a small box, a third of them copies of others."""
    x = rng.integers(-4, 5, size=(rows, q)) / 2.0
    copies = rng.choice(rows, size=rows // 3, replace=False)
    x[copies] = x[rng.choice(rows, size=copies.size)]
    return x


@pytest.mark.bits
@pytest.mark.parametrize("mode", ("exact-swap", "valid-shortcut"))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_classes=st.integers(2, 3), q=st.integers(1, 2))
def test_exchangeable_modes_are_valid_bag_by_bag(mode, seed, n_classes, q):
    for method, p, cv in _checks(mode, seed, n_classes, q):
        assert _violations(p, len(p)) == [], (method, p)
        for b in range(1, n_classes + 1):
            rows = cv.group(b)
            assert _violations(cv.pvalues[rows, b - 1], rows.size) == [], (method, b)


def _checks(mode, seed, n_classes, q):
    """For each statistic of ``_statistics`` that fits: the method, a bag's
    p-values and the leave-one-out matrix of the bag with the other rows.
    The bag has 3 to 6 points, its last a copy of its first, and each other
    class 3 to 5 rows."""
    rng = np.random.default_rng(seed)
    theta = int(rng.integers(1, n_classes + 1))
    bag = _lattice(rng, int(rng.integers(3, 7)), q)
    bag[-1] = bag[0]  # a query equal to a member
    labels = np.repeat(np.arange(1, n_classes + 1), rng.integers(3, 6, size=n_classes))
    labels = labels[labels != theta]
    features = _lattice(rng, labels.size, q)
    full = _with_class(features, labels, n_classes, theta, bag)
    for statistic, kwargs in _statistics(full.n - 1):
        if statistic == "logistic" and n_classes != 2:
            continue
        method = PermutationMethod(statistic, mode, **kwargs)
        try:
            p, cv = _bag_pvalues(method, features, labels, n_classes, theta, bag), crossval_pvalues(full, method)
        except DegenerateFitError:
            continue
        yield method, p, cv


def test_naive_mode_is_not_valid_bag_by_bag():
    # the plug-in, a bag at 0, 1, 2 and 4 against class 2 at 1, 2 and 3:
    # scored against the class without it, each end point of the bag ranks
    # last, so naive mode puts two of the four p-values at 1/4 and three at
    # or below 2/4; the exchangeable modes keep the bound on the same bag
    features, labels = np.array([[1.0], [2.0], [3.0]]), np.array([2, 2, 2])
    bag = np.array([[0.0], [1.0], [2.0], [4.0]])
    for mode, violations in (("naive", [1, 2]), ("valid-shortcut", []), ("exact-swap", [])):
        p = _bag_pvalues(PermutationMethod("plugin", mode), features, labels, 2, 1, bag)
        assert _violations(p, len(bag)) == violations, (mode, p)
