"""repro — abductive and counterfactual explanations for k-NN classifiers.

A full reproduction of *"Explaining k-Nearest Neighbors: Abductive and
Counterfactual Explanations"* (PODS 2025): the exact optimistic k-NN
semantics, polynomial-time explanation algorithms for every tractable
cell of the paper's Table 1, SAT/MILP pipelines for the intractable
cells, and executable versions of every hardness reduction.

Every pipeline runs on one shared primitive: the
:class:`~repro.knn.QueryEngine`, a vectorized batch query core that
owns a (dataset, metric) pair and serves broadcast distance matrices,
Proposition-1 radii and batched classification/margins, plus exact
single-query paths.  Classifiers and explanation calls can share an
engine (``engine=`` / ``query_engine=``) so its indexes are built
once.

For long-lived serving, :mod:`repro.serve` wraps the pipelines in an
:class:`~repro.serve.ExplanationService`: one warm engine per dataset
fingerprint, micro-batched concurrent requests, LRU-cached answers
with optional disk persistence, and a stdlib HTTP endpoint
(``repro-knn serve --port``).

Quickstart
----------
>>> import numpy as np
>>> from repro import Dataset, KNNClassifier
>>> data = Dataset([[0, 0], [1, 1]], [[3, 3], [4, 4]])
>>> clf = KNNClassifier(data, k=1, metric="l2")
>>> clf.classify([0.5, 0.5])
1
>>> clf.classify_batch([[0.5, 0.5], [3.5, 3.5]]).tolist()
[1, 0]
"""

from __future__ import annotations

from .exceptions import (
    DimensionMismatchError,
    DurabilityError,
    InfeasibleError,
    OverloadedError,
    ReproError,
    ResourceLimitError,
    SolverError,
    UnboundedError,
    UnknownDatasetError,
    UnsupportedSettingError,
    ValidationError,
)
from .abductive import (
    CheckResult,
    check_sufficient_reason,
    is_minimal_sufficient_reason,
    minimal_sufficient_reason,
    minimum_sufficient_reason,
)
from .counterfactual import (
    CounterfactualResult,
    closest_counterfactual,
    exists_counterfactual,
)
from .knn import (
    Dataset,
    KNNClassifier,
    QueryEngine,
    Witness,
    find_witness,
    verify_witness,
)
from .metrics import (
    HammingMetric,
    L1Metric,
    L2Metric,
    LInfMetric,
    LpMetric,
    Metric,
    get_metric,
)
from .portfolio import (
    PortfolioAttempt,
    PortfolioResult,
    portfolio_closest_counterfactual,
    portfolio_minimum_sufficient_reason,
)
from .serve import (
    ClusterService,
    ExplanationRequest,
    ExplanationResponse,
    ExplanationService,
    dataset_fingerprint,
    serve_http,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # knn
    "Dataset",
    "KNNClassifier",
    "QueryEngine",
    "Witness",
    "find_witness",
    "verify_witness",
    # abductive explanations
    "CheckResult",
    "check_sufficient_reason",
    "minimal_sufficient_reason",
    "is_minimal_sufficient_reason",
    "minimum_sufficient_reason",
    # counterfactual explanations
    "CounterfactualResult",
    "closest_counterfactual",
    "exists_counterfactual",
    # solver portfolio
    "PortfolioAttempt",
    "PortfolioResult",
    "portfolio_minimum_sufficient_reason",
    "portfolio_closest_counterfactual",
    # serving layer
    "ClusterService",
    "ExplanationRequest",
    "ExplanationResponse",
    "ExplanationService",
    "dataset_fingerprint",
    "serve_http",
    # metrics
    "Metric",
    "LpMetric",
    "L1Metric",
    "L2Metric",
    "LInfMetric",
    "HammingMetric",
    "get_metric",
    # exceptions
    "ReproError",
    "ValidationError",
    "DimensionMismatchError",
    "DurabilityError",
    "UnknownDatasetError",
    "UnsupportedSettingError",
    "OverloadedError",
    "SolverError",
    "InfeasibleError",
    "UnboundedError",
    "ResourceLimitError",
]
