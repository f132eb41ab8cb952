"""Per-class p-values and finite-sample-valid prediction regions for classification.

Instead of a point prediction, each candidate class label gets a p-value for
the hypothesis that it is the true label; thresholding the p-values at alpha
yields a prediction region that covers the true label with probability at
least 1 - alpha. P-values come either from a fully known Gaussian mixture or
from training data via permutation tests.
"""

from .core import (
    Augment,
    PredictionRegion,
    PValueVector,
    Relabel,
    Remove,
    StructuralError,
    TrainingSet,
    region_from_pvalues,
    validate_training_set,
)
from .estimators import (
    DegenerateFitError,
    default_k,
    fit_logistic,
    fit_pooled_gaussian,
    typicality_index,
)
from .evaluation import (
    CrossValMatrix,
    RocCurve,
    crossval_pvalues,
    empirical_inclusion,
    empirical_pattern,
    empirical_risk,
    roc_curve,
    roc_sup_distance,
)
from .numerics import (
    SingularMatrixError,
    SpdMatrix,
    cholesky,
    chisq_cdf,
    chisq_sf,
    f_cdf,
    f_sf,
    mahalanobis_sq,
    std_normal_cdf,
)
from .oracle import (
    GaussianMixtureModel,
    OptimalMonteCarlo,
    compromise_pvalue,
    inflated_pvalue,
    optimal_pvalue_2class_closed,
    optimal_pvalue_mc,
    optimal_statistic,
    risk_alpha,
    typicality_known,
)
from .permutation import PermutationMethod, pvalue, pvalue_table, pvalue_vector, pvalues
from .simulation import (
    ExperimentConfig,
    RegionMap,
    convergence_experiment,
    example22_model,
    region_map,
    sample_gaussian_mixture,
    standard_2class_model,
    validity_experiment,
)

__version__ = "0.1.0"
