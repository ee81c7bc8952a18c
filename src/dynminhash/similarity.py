"""Jaccard estimation from signatures, exact oracles and RMSE scoring."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Signature


@dataclass(frozen=True)
class SimilarityEstimate:
    """A Jaccard estimate: the fraction of matching signature entries."""

    estimate: float
    k_used: int


def estimate_jaccard(s1: Signature, s2: Signature) -> SimilarityEstimate:
    """Fraction of equal entries between two signatures from the same family."""
    if len(s1) != len(s2):
        raise ValueError(f"signature lengths differ: {len(s1)} vs {len(s2)}")
    if s1.family_key is not None and s2.family_key is not None and s1.family_key != s2.family_key:
        raise ValueError("signatures come from different hash families")
    k = len(s1)
    matches = int(np.count_nonzero(s1.values == s2.values))
    return SimilarityEstimate(matches / k, k)


def _as_set(a):
    """``a`` as a set of Python values (arrays through ``tolist``)."""
    if isinstance(a, (set, frozenset)):
        return a
    return set(a.tolist()) if isinstance(a, np.ndarray) else set(a)


def exact_jaccard(a, b) -> float:
    """|A intersection B| / |A union B|; 0.0 when both sets are empty."""
    a, b = _as_set(a), _as_set(b)
    union = len(a | b)
    if union == 0:
        return 0.0
    return len(a & b) / union


def rmse(pairs) -> float:
    """Root mean square error over (estimate, truth) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("rmse of an empty list is undefined")
    return math.sqrt(sum((est - truth) ** 2 for est, truth in pairs) / len(pairs))
