import numpy as np
import pytest

from classpv.core import (
    Augment,
    PValueVector,
    Relabel,
    Remove,
    StructuralError,
    region_from_pvalues,
    validate_training_set,
)


class TestRegionFromPvalues:
    def test_direct_threshold(self):
        pv = PValueVector.from_mapping({1: 0.20, 2: 0.03})
        assert region_from_pvalues(pv, 0.05).members == {1}

    def test_both_exceed(self):
        pv = PValueVector.from_mapping({1: 0.20, 2: 0.03})
        assert region_from_pvalues(pv, 0.01).members == {1, 2}

    def test_empty_region_is_legal(self):
        pv = PValueVector.from_mapping({1: 0.04, 2: 0.02})
        assert region_from_pvalues(pv, 0.05).members == frozenset()

    def test_equal_to_alpha_excluded(self):
        pv = PValueVector.from_mapping({1: 0.05, 2: 0.2})
        assert region_from_pvalues(pv, 0.05).members == {2}

    def test_alpha_bounds(self):
        pv = PValueVector.from_mapping({1: 0.5, 2: 0.5})
        for alpha in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                region_from_pvalues(pv, alpha)

    def test_antitone_in_alpha(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pv = PValueVector(rng.uniform(size=4))
            a1, a2 = sorted(rng.uniform(0.01, 0.99, size=2))
            big = region_from_pvalues(pv, a1).members
            small = region_from_pvalues(pv, a2).members
            assert small <= big

    def test_membership_depends_only_on_own_entry(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            vals = rng.uniform(size=3)
            alpha = float(rng.uniform(0.01, 0.99))
            other = np.array(vals)
            other[1:] = rng.uniform(size=2)
            in_first = 1 in region_from_pvalues(PValueVector(vals), alpha)
            in_second = 1 in region_from_pvalues(PValueVector(other), alpha)
            assert in_first == in_second


class TestValidateTrainingSet:
    def test_counts(self):
        d = validate_training_set([[0.0], [1.0], [2.0], [3.0]], [1, 1, 2, 2])
        assert list(d.group_sizes) == [2, 2]
        assert d.n == 4 and d.q == 1 and d.n_classes == 2

    def test_declared_empty_class(self):
        with pytest.raises(StructuralError, match="empty"):
            validate_training_set([[0.0], [1.0], [2.0]], [1, 1, 1], n_classes=2)

    def test_mixed_dimensions(self):
        with pytest.raises((StructuralError, ValueError)):
            validate_training_set([[0.0, 1.0], [1.0, 2.0, 3.0]], [1, 2])

    def test_string_labels_first_appearance_order(self):
        d = validate_training_set([[0.0], [1.0], [2.0]], ["b", "a", "b"])
        assert d.label_names == ("b", "a")
        assert list(d.labels) == [1, 2, 1]

    def test_length_mismatch(self):
        with pytest.raises(StructuralError):
            validate_training_set([[0.0], [1.0]], [1])

    def test_nonfinite_rejected(self):
        with pytest.raises(StructuralError):
            validate_training_set([[0.0], [np.inf]], [1, 2])


class TestTrainingSet:
    def _small(self):
        return validate_training_set([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [0.0, 3.0]], [1, 1, 2, 2])

    def test_groups_partition(self):
        d = self._small()
        merged = sorted(np.concatenate([d.group(1), d.group(2)]).tolist())
        assert merged == list(range(d.n))

    def test_immutable(self):
        d = self._small()
        with pytest.raises(ValueError):
            d.features[0, 0] = 99.0

    def test_remove(self):
        d = self._small()
        d2 = d.remove(0)
        assert d2.n == 3 and list(d2.group_sizes) == [1, 2]

    def test_remove_last_of_class(self):
        d = self._small()
        with pytest.raises(StructuralError):
            d.remove(0).remove(0)

    def test_replace_and_augment(self):
        d = self._small()
        d2 = d.replace(1, np.array([5.0, 5.0]))
        assert d2.features[1, 0] == 5.0 and d2.n == d.n
        d3 = d.augment(np.array([9.0, 9.0]), 2)
        assert d3.n == 5 and list(d3.group_sizes) == [2, 3]
        with pytest.raises(ValueError):
            d.augment(np.array([9.0, 9.0]), 5)

    def test_relabel(self):
        d = self._small()
        moved = d.relabel(0, 2)
        assert moved.features is d.features  # shared, read-only
        assert list(moved.labels) == [2, 1, 2, 2] and list(d.labels) == [1, 1, 2, 2]
        assert list(moved.group_sizes) == [1, 3]
        with pytest.raises(ValueError):
            d.relabel(0, 1)
        with pytest.raises(StructuralError):
            moved.relabel(1, 2)

    def test_edit_dispatch(self):
        d = self._small()
        x = np.array([9.0, 9.0])
        pairs = (
            (Remove(0), d.remove(0)),
            (Augment(x, 2), d.augment(x, 2)),
            (Relabel(0, 2), d.relabel(0, 2)),
        )
        for edit, expected in pairs:
            got = d.edit(edit)
            assert np.array_equal(got.features, expected.features)
            assert np.array_equal(got.labels, expected.labels)
        with pytest.raises(TypeError):
            d.edit(0)


class TestPValueVector:
    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            PValueVector(np.array([0.5, 1.2]))
        with pytest.raises(ValueError):
            PValueVector(np.array([-0.01, 0.5]))
        with pytest.raises(ValueError):
            PValueVector(np.array([0.5, np.nan]))

    def test_indexing(self):
        pv = PValueVector(np.array([0.1, 0.9]))
        assert pv[1] == 0.1 and pv[2] == 0.9
        with pytest.raises(ValueError):
            pv[3]

    def test_from_mapping_requires_all(self):
        with pytest.raises(ValueError):
            PValueVector.from_mapping({1: 0.5, 3: 0.5})
