import numpy as np
import pytest

from classpv import estimators, simulation
from classpv import (
    ExperimentConfig,
    PermutationMethod,
    convergence_experiment,
    example22_model,
    pvalue,
    region_map,
    sample_gaussian_mixture,
    standard_2class_model,
    validity_experiment,
)
from classpv.oracle import optimal_pvalue_2class_closed
from classpv.simulation import (
    REGION_COLORS_3,
    code_members,
    rank_uniformity_chisq,
    subset_code,
)


class TestExample22Model:
    def test_constants(self):
        m = example22_model()
        assert np.allclose(m.weights, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)
        assert np.array_equal(m.means, [[-1.0, 1.0], [-1.0, -1.0], [2.0, 0.0]])
        assert m.covariances[0].matrix[0, 1] == 0.5
        assert np.array_equal(m.covariances[2].matrix, [[0.4, 0.0], [0.0, 0.4]])


class TestSampler:
    def test_sizes_and_dimensions(self, model22):
        d = sample_gaussian_mixture(model22, [100, 100, 100], seed=3)
        assert d.n == 300 and d.q == 2
        assert list(d.group_sizes) == [100, 100, 100]

    def test_seed_repeat_identical(self, model22):
        a = sample_gaussian_mixture(model22, [5, 6, 7], seed=9)
        b = sample_gaussian_mixture(model22, [5, 6, 7], seed=9)
        assert np.array_equal(a.features, b.features)

    def test_clt_mean(self, model22):
        n = 100_000
        d = sample_gaussian_mixture(model22, [n, 1, 1], seed=13)
        block = d.features[d.group(1)]
        for coord in (0, 1):
            sigma = np.sqrt(model22.covariances[0].matrix[coord, coord])
            bound = 4.0 * sigma / np.sqrt(n)
            assert abs(block[:, coord].mean() - model22.means[0, coord]) < bound

    def test_size_validation(self, model22):
        with pytest.raises(ValueError):
            sample_gaussian_mixture(model22, [5, 5], seed=0)
        with pytest.raises(ValueError):
            sample_gaussian_mixture(model22, [5, 0, 5], seed=0)


class TestValidityExperiment:
    def _config(self, model, reps=60, methods=None):
        return ExperimentConfig(
            model=model,
            sizes=(12, 12),
            methods=methods or (PermutationMethod("plugin", "valid-shortcut"),),
            alphas=(0.1, 0.25),
            replications=reps,
            master_seed=7,
        )

    def test_deterministic(self, model2):
        a = validity_experiment(self._config(model2))
        b = validity_experiment(self._config(model2))
        assert a.cells == b.cells

    @pytest.mark.bits
    def test_substream_prefix_property(self, model2):
        # replication r depends only on its own spawned seed, so a shorter run
        # is a prefix of a longer one, the logistic's batched fits included
        methods = (PermutationMethod("plugin", "valid-shortcut"),) + tuple(
            PermutationMethod("logistic", mode) for mode in ("exact-swap", "valid-shortcut"))
        small = validity_experiment(self._config(model2, reps=20, methods=methods))
        large = validity_experiment(self._config(model2, reps=40, methods=methods))
        for key in small.samples:
            assert np.array_equal(small.samples[key], large.samples[key][:20]), key

    def test_naive_mode_reported_not_asserted(self, model2):
        cfg = self._config(
            model2,
            methods=(PermutationMethod("plugin", "naive"), PermutationMethod("plugin", "exact-swap")),
        )
        result = validity_experiment(cfg)
        kinds = {(c.statistic, c.mode) for c in result.cells}
        assert ("plugin", "naive") in kinds and ("plugin", "exact-swap") in kinds
        # cells carry ok flags; nothing raises even if a naive cell exceeds its bound
        assert all(isinstance(c.ok, bool) for c in result.cells)

    def test_methods_sharing_statistic_and_mode_rejected(self, model2):
        # samples and cells are keyed by (statistic, mode): k = 9 would overwrite k = 1
        methods = (PermutationMethod("knn", "valid-shortcut", k=1), PermutationMethod("knn", "valid-shortcut", k=9))
        with pytest.raises(ValueError, match=r"\('knn', 'valid-shortcut'\)"):
            self._config(model2, methods=methods)

    def test_valid_cell_within_bound(self, model2):
        result = validity_experiment(self._config(model2, reps=200))
        for cell in result.cells:
            assert cell.rate <= cell.bound + 1e-12


@pytest.mark.bits
class TestBatteryBlocks:
    """``validity_experiment`` scores a block of replications for each
    (method, class) in one call, so a block's logistic edited sets share one
    batched IRLS. Every sample must have the bits of ``pvalue`` on its own
    replication, drawn as the experiment documents."""

    @staticmethod
    def _per_replication(cfg, method, theta):
        classes = range(1, cfg.model.n_classes + 1)
        out = []
        for child in np.random.SeedSequence(cfg.master_seed).spawn(cfg.replications):
            rng = np.random.default_rng(child)
            d = simulation._sample_training(cfg.model, cfg.sizes, rng)
            queries = [cfg.model.sample(t, 1, rng)[0] for t in classes]
            out.append(pvalue(method.fit(d), method.mode, theta, queries[theta - 1]))
        return out

    @pytest.mark.parametrize("delta, q, sizes, reps, case", [
        (2.0, 2, (19, 19), 9, "plain"),
        (9.0, 1, (5, 7), 13, "separated"),
        (0.5, 2, (8, 6), 11, "iteration-cap"),
        (2.0, 2, (9, 10), 11, "split-blocks"),
    ])
    def test_logistic_samples_equal_a_per_replication_loop(self, monkeypatch, delta, q, sizes, reps, case):
        """Exact-swap and valid-shortcut, on sets that separate, at an
        iteration cap of 5 (as in the batch tests of ``_logistic_fits``), and
        with blocks of 3 replications, so that blocks of 3, 3, 3 and 2 split
        the battery; each case's fits show what it is there for."""
        if case == "iteration-cap":
            monkeypatch.setattr(estimators, "_LOGISTIC_MAX_ITER", 5)
        if case == "split-blocks":
            n = sum(sizes)
            monkeypatch.setattr(simulation, "_BLOCK_ELEMENTS", 3 * (n + 2) * n * (q + 1))
        fits = []
        batched = estimators._logistic_fits
        monkeypatch.setattr(estimators, "_logistic_fits", lambda *args: fits.append(batched(*args)) or fits[-1])
        methods = tuple(PermutationMethod("logistic", mode) for mode in ("exact-swap", "valid-shortcut"))
        cfg = ExperimentConfig(model=standard_2class_model(delta=delta, q=q), sizes=sizes, methods=methods,
                               replications=reps, master_seed=31)
        result = validity_experiment(cfg)
        battery_fits = list(fits)
        for method in methods:
            for theta in (1, 2):
                expected = self._per_replication(cfg, method, theta)
                assert result.samples[(method.statistic, method.mode, theta)].tolist() == expected, (method, theta)
        sets = np.concatenate([f[0].shape[:1] for f in battery_fits])
        iterations = np.concatenate([f[1] for f in battery_fits])
        separated = np.concatenate([f[3] for f in battery_fits])
        if case == "separated":
            assert separated.any()
        if case == "iteration-cap":
            assert (iterations == 5).any() and (iterations < 5).any()
        # one call per class and mode for each block, which fits each class's
        # N + 1 exact-swap sets and its valid-shortcut set of every replication
        assert len(battery_fits) == 4 * (4 if case == "split-blocks" else 1)
        assert sets.sum() == reps * (sum(sizes) + 2 + 2)


class TestRankUniformity:
    def test_exact_uniform_grid(self):
        grid = np.tile(np.arange(1, 21) / 20.0, 50)
        assert rank_uniformity_chisq(grid, 20) == 0.0

    def test_off_grid_rejected(self):
        with pytest.raises(ValueError):
            rank_uniformity_chisq(np.array([0.5, 0.123]), 20)


class TestConvergence:
    def test_structure_and_determinism(self, model2):
        rows = convergence_experiment(model2, [60, 120], seed=3, n_queries=40, mc_samples=2000)
        again = convergence_experiment(model2, [60, 120], seed=3, n_queries=40, mc_samples=2000)
        assert rows == again
        assert [r.n for r in rows] == [60, 120]
        assert rows[0].k == int(np.ceil(60 ** (2 / 3)))
        for r in rows:
            assert 0.0 <= r.mean_gap_knn <= 1.0 and 0.0 <= r.mean_gap_plugin <= 1.0

    def test_schedule_must_increase(self, model2):
        with pytest.raises(ValueError):
            convergence_experiment(model2, [100, 100], seed=0)

    def test_plugin_converges_on_correct_model(self, model2):
        # the plug-in statistic estimates the true homoscedastic parameters, so
        # its p-values approach the known-model ones along the same schedule
        rows = convergence_experiment(model2, [200, 800, 3200], seed=2026, n_queries=200)
        gaps = [r.mean_gap_plugin for r in rows]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[-1] < 0.05


class TestRegionMap:
    def test_oracle_closed_form_path(self, model2):
        xs = np.linspace(-2, 4, 7)
        ys = np.linspace(-2, 2, 5)
        rmap = region_map(xs, ys, model=model2)
        assert rmap.pvalues.shape == (5, 7, 2)
        grid = np.array([[x, y] for y in ys for x in xs])
        for theta in (1, 2):
            closed = optimal_pvalue_2class_closed(model2, theta, grid).reshape(5, 7)
            assert np.array_equal(rmap.pvalues[:, :, theta - 1], closed)

    def test_monotone_nesting(self, model22):
        xs = np.linspace(-4, 4, 21)
        rmap = region_map(xs, xs, model=model22, mc_samples=2000, seed=11)
        s05 = rmap.subsets(0.05)
        s01 = rmap.subsets(0.01)
        assert np.all((s05 & ~s01) == 0)

    def test_data_path_matches_pvalue_vector(self, model2):
        from classpv import pvalue_vector

        d = sample_gaussian_mixture(model2, [10, 10], seed=19)
        method = PermutationMethod("knn", "valid-shortcut", k=5)
        xs = np.array([-1.0, 0.5])
        ys = np.array([0.0, 1.0])
        rmap = region_map(xs, ys, training=d, method=method)
        pv = pvalue_vector(method, d, np.array([0.5, 1.0]))
        assert np.array_equal(rmap.pvalues[1, 1], pv.values)

    def test_dimension_guard(self, model22):
        means3 = np.hstack([model22.means, np.zeros((3, 1))])
        from classpv import GaussianMixtureModel, SpdMatrix

        model3d = GaussianMixtureModel(
            model22.weights, means3, tuple(SpdMatrix(np.eye(3)) for _ in range(3))
        )
        with pytest.raises(ValueError, match="2-D"):
            region_map(np.linspace(0, 1, 3), np.linspace(0, 1, 3), model=model3d)

    @pytest.mark.parametrize("axis", ("xs", "ys"))
    def test_axes_must_ascend(self, model22, axis):
        # row 0 of the map and of its SVG is the smallest y, so a reversed
        # or repeated axis would come out upside down or doubled
        xs = np.linspace(-1.0, 1.0, 3)
        for bad in (xs[::-1], np.array([-1.0, 0.0, 0.0])):
            axes = {"xs": xs, "ys": xs, axis: bad}
            with pytest.raises(ValueError, match=f"{axis} must be strictly ascending"):
                region_map(axes["xs"], axes["ys"], model=model22, mc_samples=100)

    def test_source_exclusivity(self, model22):
        xs = np.linspace(0, 1, 3)
        with pytest.raises(ValueError):
            region_map(xs, xs)


def test_subset_codes_roundtrip():
    assert subset_code([1, 3]) == 0b101
    assert code_members(0b101, 3) == (1, 3)
    assert code_members(0, 3) == ()
    assert set(REGION_COLORS_3) == set(range(8))
