"""Causal feature selection for heterogeneous-treatment-effect estimation.

The package generates ground-truth structural causal models and datasets,
fits meta-learner effect estimators on selected feature subsets, scores
them with heuristic fit metrics, discovers local causal structure around
the treatment, and benchmarks the resulting selectors against vanilla and
oracle baselines.
"""

from .errors import (
    ConfigError,
    ConstantColumn,
    DegenerateArms,
    DimensionMismatch,
    HteSelectError,
    InfeasibleSpec,
    LengthMismatch,
    NotPositiveDefinite,
    NoValidPair,
    NumericError,
)
from .estimators import CateEstimator, fit_estimator
from .fit_metrics import effect_mse, inclusion_error
from .harness import (
    BenchmarkRow,
    ExperimentConfig,
    MethodSpec,
    report,
    run_experiment,
    run_selector,
)
from .hte_fit import SelectionTrace, greedy_select, select_features
from .scm_gen import (
    CausalGraph,
    Dataset,
    ScmSpec,
    generate,
    make_dataset,
    sample_graph,
    sample_noise,
    sample_or_retry,
    select_roles,
    simulate_arms,
)
# the discovery entry point keeps its module-level home
# (hteselect.structure_fit.structure_fit) so the submodule name stays usable
from .structure_fit import (
    CiTestConfig,
    DSepOracle,
    FisherZTester,
    GraphOrienter,
    discover_colliders,
    local_structure,
    oracle_adjustment,
    orient_reci,
    pc_simple,
)
from .supervised import LinearModel, fit_logistic, fit_ridge, predict

__version__ = "0.1.0"
