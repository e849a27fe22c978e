"""FIFL core: the paper's incentive mechanism and its four modules."""

from .baselines import (
    BASELINE_WEIGHTS,
    equal_weights,
    individual_weights,
    shapley_enumeration,
    shapley_montecarlo,
    shapley_sum_dp,
    shapley_weights,
    union_weights,
)
from .contribution import (
    contributions_array,
    gradient_distance,
    gradient_distances_matrix,
    normalized_shares_array,
    zero_baseline,
)
from .detection import DetectionConfig, detection_scores_matrix
from .engine import RoundBatch, stack_benchmarks
from .factory import (
    MECHANISM_NAMES,
    AcceptAllConfig,
    AcceptAllMechanism,
    KrumConfig,
    MedianConfig,
    make_mechanism,
)
from .fifl import FIFLConfig, FIFLMechanism, FIFLRoundRecord
from .incentive import fairness_coefficient, reward_shares_array
from .loss_detection import LossBasedDetector
from .reputation import DecayReputation, theorem1_fixed_point
from .robust import (
    KrumMechanism,
    MedianMechanism,
    coordinate_median,
    krum,
    trimmed_mean,
)
from .utility import utility

__all__ = [
    "DetectionConfig",
    "detection_scores_matrix",
    "RoundBatch",
    "stack_benchmarks",
    "MECHANISM_NAMES",
    "AcceptAllConfig",
    "AcceptAllMechanism",
    "KrumConfig",
    "MedianConfig",
    "make_mechanism",
    "contributions_array",
    "gradient_distances_matrix",
    "normalized_shares_array",
    "reward_shares_array",
    "DecayReputation",
    "theorem1_fixed_point",
    "gradient_distance",
    "zero_baseline",
    "fairness_coefficient",
    "individual_weights",
    "equal_weights",
    "union_weights",
    "shapley_weights",
    "shapley_sum_dp",
    "shapley_enumeration",
    "shapley_montecarlo",
    "BASELINE_WEIGHTS",
    "utility",
    "FIFLConfig",
    "FIFLMechanism",
    "FIFLRoundRecord",
    "coordinate_median",
    "trimmed_mean",
    "krum",
    "KrumMechanism",
    "MedianMechanism",
    "LossBasedDetector",
]
