"""Error exponents for stochastic metric decoding at finite alphabets.

Expurgated and penalized exponent forms for decoders that choose a
message with probability proportional to exp(n * score), plus the
desk-scale simulation and self-check machinery around them.
"""

from .measures import (
    Channel,
    Distribution,
    DistributionError,
    JointDistribution,
    compositions,
    entropy,
    mutual_information,
)
from .metrics import (
    AffineMetric,
    EmpiricalMutualInformationMetric,
    Metric,
    MetricError,
    constant_metric,
    emi_metric,
    matched_metric,
    metric_from_json,
    mismatched_metric,
)
from .optimizer import (
    GridSpec,
    InfeasibleGridError,
    golden_section_minimize,
)
from .exponents import (
    CompetitorScoreEvaluator,
    ConfusionExponentSolver,
    ExponentQuery,
    ExponentResult,
    competitor_score_exponent,
    exchanged_objective,
    exponent_form,
    expurgated_exponent,
    maxmin_exponent,
    pairwise_confusion_exponent,
    rate_sweep,
)
from .simulator import (
    Codebook,
    GoodCodeReport,
    SimConfig,
    check_good_code,
    empirical_exponent,
    exact_error_probability,
    gld_decode,
    gld_posterior,
    half_expurgate,
    kept_indices,
    markov_bound_check,
    monte_carlo_error,
    sample_code,
)

__version__ = "0.1.0"

__all__ = [
    "Channel",
    "Distribution",
    "DistributionError",
    "JointDistribution",
    "compositions",
    "entropy",
    "mutual_information",
    "AffineMetric",
    "EmpiricalMutualInformationMetric",
    "Metric",
    "MetricError",
    "constant_metric",
    "emi_metric",
    "matched_metric",
    "metric_from_json",
    "mismatched_metric",
    "GridSpec",
    "InfeasibleGridError",
    "golden_section_minimize",
    "CompetitorScoreEvaluator",
    "ConfusionExponentSolver",
    "ExponentQuery",
    "ExponentResult",
    "competitor_score_exponent",
    "exchanged_objective",
    "exponent_form",
    "expurgated_exponent",
    "maxmin_exponent",
    "pairwise_confusion_exponent",
    "rate_sweep",
    "Codebook",
    "GoodCodeReport",
    "SimConfig",
    "check_good_code",
    "empirical_exponent",
    "exact_error_probability",
    "gld_decode",
    "gld_posterior",
    "half_expurgate",
    "kept_indices",
    "markov_bound_check",
    "monte_carlo_error",
    "sample_code",
    "__version__",
]
