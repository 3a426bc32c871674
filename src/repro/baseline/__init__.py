"""HISyn baseline: the exhaustive NLU-driven synthesizer DGGT accelerates."""

from repro.baseline.enumeration import (
    enumerate_best_cgt,
    iter_combinations,
    merge_combination,
)
from repro.baseline.hisyn import HISynEngine

__all__ = [
    "HISynEngine",
    "iter_combinations",
    "merge_combination",
    "enumerate_best_cgt",
]
