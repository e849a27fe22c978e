"""Metrics: detection confusion rates and reward fairness."""

from .detection import ConfusionCounts, aggregate_confusion, confusion
from .fairness import gini, reward_fairness, share_entropy

__all__ = [
    "ConfusionCounts",
    "confusion",
    "aggregate_confusion",
    "gini",
    "reward_fairness",
    "share_entropy",
]
