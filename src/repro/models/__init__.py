"""Interpretable-model substrate (mini-Primo).

From-scratch implementations of every learner the paper uses or compares
against: CART decision trees with minimal cost-complexity pruning, random
forests, gradient boosting (LightGBM/XGBoost stand-ins), GA²M additive
models, a numpy MLP, PAV isotonic regression, Levenshtein distance and
affinity propagation.
"""

from repro.models.attrib import (
    Attribution,
    attribute_boosting,
    attribute_forest,
    attribute_gam,
    attribute_isotonic,
    attribute_model,
    attribute_tree,
)
from repro.models.boosting import (
    GradientBoostingRegressor,
    lightgbm_like,
    xgboost_like,
)
from repro.models.encoding import (
    LabelEncoder,
    hourly_series,
    rolling_mean,
    rolling_median,
    shift,
    soft_sum,
    throughput_feature_row,
    throughput_feature_table,
    time_features,
)
from repro.models.forest import RandomForestClassifier, RandomForestRegressor
from repro.models.gam import (
    GA2MRegressor,
    GlobalExplanation,
    InteractionFunction,
    LocalExplanation,
    ShapeFunction,
)
from repro.models.isotonic import IsotonicRegressor, is_monotonic, isotonic_fit
from repro.models.metrics import accuracy, confusion_matrix, mae, r2_score, rmse
from repro.models.nn import MLPRegressor
from repro.models.text import (
    AffinityPropagation,
    cluster_job_names,
    levenshtein,
    levenshtein_similarity_matrix,
)
from repro.models.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    TreeNode,
)

__all__ = [
    "Attribution",
    "attribute_boosting",
    "attribute_forest",
    "attribute_gam",
    "attribute_isotonic",
    "attribute_model",
    "attribute_tree",
    "IsotonicRegressor",
    "GradientBoostingRegressor",
    "lightgbm_like",
    "xgboost_like",
    "LabelEncoder",
    "hourly_series",
    "rolling_mean",
    "rolling_median",
    "shift",
    "soft_sum",
    "throughput_feature_row",
    "throughput_feature_table",
    "time_features",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "GA2MRegressor",
    "GlobalExplanation",
    "InteractionFunction",
    "LocalExplanation",
    "ShapeFunction",
    "is_monotonic",
    "isotonic_fit",
    "accuracy",
    "confusion_matrix",
    "mae",
    "r2_score",
    "rmse",
    "MLPRegressor",
    "AffinityPropagation",
    "cluster_job_names",
    "levenshtein",
    "levenshtein_similarity_matrix",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "TreeNode",
]
