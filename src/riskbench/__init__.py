"""Weighted order-statistic risk estimators: axioms, weights, benchmarks."""

from .core import (
    SupremumCre,
    WeightVector,
    apply_l_estimator,
    permutation_closure_oracle,
)
from .estimators import (
    ESTIMATORS,
    LEstimatorSpec,
    SpectrumSpec,
    build_estimator,
    build_spectral_weights,
    build_spectral_weights_alt,
    es_spectrum,
    uniform_spectrum,
)
from .coherence import (
    AXIOMS,
    AxiomCheck,
    CoherenceReport,
    NotComonotonicError,
    Witness,
    check_all,
    check_axiom,
    check_cash_additivity_slope,
    extract_comonotonic_weights,
    verify_representation,
)
from .distributions import (
    HorizonSum,
    Nig,
    Normal,
    StudentT,
    TrueRisk,
    nig_moments,
    parse_dist,
    true_risk,
    true_risk_levels,
)
from .sampling import (
    RandomnessContract,
    Scheme,
    parse_scheme,
    stream_key,
)
from .metrics import MetricReport
from .consistency import DISCRETIZATIONS, check_partial_integrals, empirical_consistency
from .bench import (
    BenchConfig,
    ResultRow,
    ResultTable,
    format_metric_table,
    run_study,
)

__version__ = "0.1.0"

__all__ = [
    "AXIOMS",
    "AxiomCheck",
    "BenchConfig",
    "CoherenceReport",
    "DISCRETIZATIONS",
    "ESTIMATORS",
    "HorizonSum",
    "LEstimatorSpec",
    "MetricReport",
    "Nig",
    "Normal",
    "NotComonotonicError",
    "RandomnessContract",
    "ResultRow",
    "ResultTable",
    "Scheme",
    "SpectrumSpec",
    "StudentT",
    "SupremumCre",
    "TrueRisk",
    "WeightVector",
    "Witness",
    "apply_l_estimator",
    "build_estimator",
    "build_spectral_weights",
    "build_spectral_weights_alt",
    "check_all",
    "check_axiom",
    "check_cash_additivity_slope",
    "check_partial_integrals",
    "empirical_consistency",
    "es_spectrum",
    "extract_comonotonic_weights",
    "format_metric_table",
    "nig_moments",
    "parse_dist",
    "parse_scheme",
    "permutation_closure_oracle",
    "run_study",
    "stream_key",
    "true_risk",
    "true_risk_levels",
    "uniform_spectrum",
    "verify_representation",
]
