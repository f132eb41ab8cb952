"""Golden values: p-values computed once on seeded data and pinned exactly.

Each permutation p-value is stored as its grid index j = p * (N + 1), each
leave-one-out entry as p divided by its grid step, and every Monte Carlo or
typicality value as the exact float. Any change to a fit, an edit, a mode or a
counting rule that moves a single bit shows up here.
"""

import numpy as np
import pytest

from classpv import (
    PermutationMethod,
    compromise_pvalue,
    crossval_pvalues,
    example22_model,
    inflated_pvalue,
    optimal_pvalue_mc,
    pvalue_vector,
    sample_gaussian_mixture,
    standard_2class_model,
)

MODES = ("exact-swap", "valid-shortcut", "naive")
TWO_CLASS = (("plugin", {}), ("knn", {"k": 5}), ("knn-scaled", {"k": 5, "scale_features": True}), ("logistic", {}))
THREE_CLASS = (("plugin", {}), ("knn", {"k": 4}))
CROSSVAL_STATS = (("plugin", {}), ("knn", {"k": 5}), ("logistic", {}))
ORACLE_POINTS = (np.array([0.0, 0.0]), np.array([1.5, -0.5]), np.array([-0.5, 0.8]))


def _d2():
    return sample_gaussian_mixture(standard_2class_model(), [12, 12], seed=5)


def _d3():
    return sample_gaussian_mixture(example22_model(), [8, 8, 8], seed=9)


def _q2():
    return np.random.default_rng(6).normal(size=(4, 2)) * 1.5


def _q3():
    return np.random.default_rng(7).normal(size=(3, 2)) * 1.5


def _grid_indices(d, method, queries):
    out = []
    for x in queries:
        j = pvalue_vector(method, d, x).values * (d.group_sizes + 1)
        assert np.all(np.abs(j - np.rint(j)) < 1e-9)
        out.append([int(v) for v in np.rint(j)])
    return out


GRID = {'plugin/exact-swap': [[1, 8], [13, 1], [1, 8], [2, 5]],
 'plugin/valid-shortcut': [[2, 8], [13, 1], [2, 8], [4, 8]],
 'plugin/naive': [[1, 8], [13, 1], [1, 8], [2, 4]],
 'knn/exact-swap': [[2, 4], [13, 1], [2, 4], [9, 1]],
 'knn/valid-shortcut': [[3, 3], [13, 1], [3, 3], [9, 2]],
 'knn/naive': [[2, 3], [13, 1], [2, 3], [9, 1]],
 'knn-scaled/exact-swap': [[4, 3], [13, 1], [3, 4], [9, 1]],
 'knn-scaled/valid-shortcut': [[3, 3], [13, 1], [3, 3], [9, 2]],
 'knn-scaled/naive': [[3, 2], [13, 1], [3, 3], [9, 1]],
 'logistic/exact-swap': [[1, 8], [13, 1], [1, 8], [2, 5]],
 'logistic/valid-shortcut': [[3, 8], [13, 1], [2, 8], [4, 7]],
 'logistic/naive': [[1, 8], [13, 1], [1, 8], [2, 4]],
 '3class/plugin/exact-swap': [[2, 2, 1], [1, 5, 1], [1, 8, 1]],
 '3class/plugin/valid-shortcut': [[2, 1, 1], [1, 6, 1], [1, 8, 1]],
 '3class/plugin/naive': [[2, 1, 1], [1, 5, 1], [1, 8, 1]],
 '3class/knn/exact-swap': [[5, 1, 1], [1, 9, 1], [1, 9, 1]],
 '3class/knn/valid-shortcut': [[5, 1, 1], [1, 9, 1], [1, 9, 1]],
 '3class/knn/naive': [[2, 1, 1], [1, 9, 1], [1, 9, 1]]}

TYPICALITY = [[0.01081115764194529, 0.03298492444553913], [0.0014094942727337356, 2.5431022705357798e-05],
 [0.03212959607510579, 0.10718420410793172], [0.0462172325323682, 0.06490700581801001]]

CROSSVAL = {'plugin/exact-swap': [10, 1, 7, 1, 1, 8, 8, 1, 2, 7, 4, 3, 12, 1, 3, 3, 5, 2, 9, 1, 11, 1, 6, 2, 1,
                       11, 5, 2, 2, 7, 3, 3, 1, 8, 3, 6, 3, 5, 1, 10, 1, 12, 7, 1, 2, 4, 1, 9],
 'plugin/valid-shortcut': [10, 1, 7, 1, 1, 8, 8, 1, 2, 8, 3, 3, 12, 1, 4, 3, 5, 2, 9, 1, 11, 1, 6,
                           2, 1, 11, 3, 2, 2, 7, 2, 3, 1, 8, 2, 5, 3, 6, 1, 10, 1, 12, 7, 1, 2, 4,
                           1, 9],
 'plugin/naive': [10, 1, 7, 1, 1, 8, 8, 1, 2, 7, 3, 3, 12, 1, 3, 3, 5, 2, 9, 1, 11, 1, 6, 1, 1, 11,
                  3, 2, 2, 7, 2, 3, 1, 8, 2, 5, 2, 4, 1, 10, 1, 12, 7, 1, 2, 4, 1, 9],
 'knn/exact-swap': [12, 1, 3, 2, 1, 13, 12, 1, 2, 4, 8, 1, 8, 1, 8, 1, 12, 1, 12, 1, 8, 1, 8, 1, 2,
                    11, 2, 11, 2, 11, 2, 11, 2, 11, 2, 11, 4, 2, 2, 12, 2, 11, 3, 2, 2, 11, 3, 3],
 'knn/valid-shortcut': [12, 1, 3, 2, 1, 13, 12, 1, 3, 3, 8, 1, 8, 2, 8, 1, 12, 1, 12, 1, 8, 2, 8, 2,
                        2, 11, 2, 11, 2, 11, 2, 11, 2, 11, 2, 11, 7, 1, 2, 12, 2, 11, 2, 2, 2, 11,
                        2, 11],
 'knn/naive': [12, 1, 3, 2, 1, 13, 12, 1, 2, 3, 8, 1, 8, 1, 8, 1, 12, 1, 12, 1, 8, 1, 8, 1, 2, 11,
               2, 11, 2, 11, 2, 11, 2, 11, 2, 11, 4, 1, 1, 12, 2, 11, 3, 2, 2, 11, 2, 3],
 'logistic/exact-swap': [10, 1, 7, 1, 2, 8, 8, 1, 1, 8, 4, 3, 12, 1, 3, 3, 5, 2, 9, 1, 11, 1, 6, 2,
                         1, 11, 5, 2, 3, 7, 3, 3, 1, 8, 3, 6, 3, 5, 1, 10, 1, 12, 7, 1, 3, 4, 1,
                         9],
 'logistic/valid-shortcut': [10, 1, 7, 1, 1, 8, 8, 1, 2, 8, 3, 3, 12, 1, 4, 3, 5, 2, 9, 1, 11, 1, 6,
                             2, 1, 11, 3, 2, 2, 7, 2, 3, 1, 8, 2, 5, 3, 6, 1, 10, 1, 12, 7, 1, 2, 4,
                             1, 9],
 'logistic/naive': [10, 1, 7, 1, 1, 8, 8, 1, 1, 8, 3, 3, 12, 1, 2, 3, 5, 2, 9, 1, 11, 1, 6, 1, 1,
                    11, 3, 2, 2, 7, 2, 3, 1, 8, 2, 5, 2, 5, 1, 10, 1, 12, 7, 1, 2, 4, 1, 9]}

CROSSVAL_TYPICALITY = [0.3933200394480195, 0.044240602019641306, 0.7826769602123352, 0.16191825307441265,
 0.25552437121977245, 0.8844927957721898, 0.7643790492238254, 0.10648974565206692,
 0.06908134394770027, 0.13986710700404892, 0.5148398429736118, 0.34359332237574647,
 0.07115069103404781, 0.006619530320541189, 0.2668818125982445, 0.1965043214000718,
 0.6426842984808208, 0.2151295998329228, 0.81380353848131, 0.09563751143354637, 0.5401150983736971,
 0.05522775119985868, 0.9370173583444871, 0.278716366207172, 0.015460281065452608,
 0.2208791873560636, 0.8431749930540278, 0.43190745860703017, 0.43565460439927806,
 0.8914469416690411, 0.6143802479071285, 0.6569187985186667, 0.07849737811794855,
 0.7778100019329686, 0.46857028690592284, 0.8635660843252636, 0.30003333741774096,
 0.4774450179375508, 0.027994896514110357, 0.3961535968597424, 0.0009468250665350952,
 0.03468812461551796, 0.8801201443128326, 0.16362770259455572, 0.4977230365731835,
 0.7777832419912878, 0.014849041195596269, 0.13471692962546622]

ORACLE = {'optimal': [0.04498500499833389, 0.32689103632122624, 0.0023325558147284237, 0.0003332222592469177,
             0.006331222925691436, 0.2529156947684105, 0.2972342552482506, 0.061312895701432855,
             0.0003332222592469177],
 'compromise': [0.07564145284905031, 0.4675108297234255, 0.003332222592469177,
                0.0003332222592469177, 0.012329223592135955, 0.5168277240919693, 0.615461512829057,
                0.08997000999666778, 0.0006664445184938354],
 'inflated': [0.9490169943352216, 0.05398200599800067, 0.16594468510496502, 0.6297900699766744,
              0.757080973008997, 0.010663112295901367]}

@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name,kwargs", TWO_CLASS)
def test_pvalue_vector_two_class(name, kwargs, mode):
    method = PermutationMethod(name.split("-")[0], mode, **kwargs)
    assert _grid_indices(_d2(), method, _q2()) == GRID[f"{name}/{mode}"]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name,kwargs", THREE_CLASS)
def test_pvalue_vector_three_class(name, kwargs, mode):
    method = PermutationMethod(name, mode, **kwargs)
    assert _grid_indices(_d3(), method, _q3()) == GRID[f"3class/{name}/{mode}"]


def test_pvalue_vector_typicality():
    d = _d2()
    got = [[float(v) for v in pvalue_vector(PermutationMethod("typicality"), d, x).values] for x in _q2()]
    assert got == TYPICALITY


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name,kwargs", CROSSVAL_STATS)
def test_crossval(name, kwargs, mode):
    cv = crossval_pvalues(_d2(), PermutationMethod(name, mode, **kwargs))
    j = np.array([[cv.pvalues[i, t - 1] / cv.grid_step(i, t) for t in (1, 2)] for i in range(cv.n)])
    assert np.all(np.abs(j - np.rint(j)) < 1e-9)
    assert [int(v) for v in np.rint(j).ravel()] == CROSSVAL[f"{name}/{mode}"]


def test_crossval_typicality():
    cv = crossval_pvalues(_d2(), PermutationMethod("typicality"))
    assert [float(v) for v in cv.pvalues.ravel()] == CROSSVAL_TYPICALITY


def test_oracle_monte_carlo():
    m22, m2 = example22_model(), standard_2class_model()
    got = {
        "optimal": [optimal_pvalue_mc(m22, t, x, mc_samples=3000, seed=t + 10)
                    for x in ORACLE_POINTS for t in (1, 2, 3)],
        "compromise": [compromise_pvalue(m22, 0.02, t, x, mc_samples=3000, seed=t + 20)
                       for x in ORACLE_POINTS for t in (1, 2, 3)],
        "inflated": [inflated_pvalue(m2, 2.5, t, x, mc_samples=3000, seed=t + 30)
                     for x in ORACLE_POINTS for t in (1, 2)],
    }
    assert got == ORACLE
