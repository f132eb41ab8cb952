import numpy as np
import pytest

from classpv import (
    GaussianMixtureModel,
    SpdMatrix,
    example22_model,
    sample_gaussian_mixture,
    standard_2class_model,
)


# every test in these modules pins output bits; they are tagged here, so
# that the pin files themselves need no edit
_BITS_MODULES = ("test_cli_outputs.py", "test_golden.py")


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name in _BITS_MODULES:
            item.add_marker(pytest.mark.bits)


@pytest.fixture(scope="session")
def model2():
    """Two unit-covariance classes at distance 2 along the first axis."""
    return standard_2class_model()


@pytest.fixture(scope="session")
def model22():
    return example22_model()


@pytest.fixture(scope="session")
def model3_weighted():
    """Three-class model with unequal weights for prior-invariance checks."""
    weights = np.array([0.5, 0.3, 0.2])
    means = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]])
    cov = SpdMatrix(np.eye(2))
    return GaussianMixtureModel(weights, means, (cov, cov, cov))


@pytest.fixture()
def train2(model2):
    return sample_gaussian_mixture(model2, [19, 19], seed=101)


@pytest.fixture()
def train2_big(model2):
    return sample_gaussian_mixture(model2, [40, 40], seed=202)
