"""Banding over signatures for all-candidate-pairs queries, plus scoring.

A signature is split into b bands of r consecutive entries; two sets become
candidates when any band matches exactly, so a pair with per-entry match
probability s is reported with probability 1 - (1 - s^r)^b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .core import Signature
from .errors import BandingInfeasibleError


@dataclass(frozen=True)
class BandingParams:
    """b bands of r rows each; consumes b * r signature entries."""

    b: int
    r: int

    def __post_init__(self):
        if self.b < 1 or self.r < 1:
            raise ValueError("bands and rows per band must be >= 1")


def candidate_probability(s: float, params: BandingParams) -> float:
    """Probability that banding reports a pair with per-entry match rate s."""
    return 1.0 - (1.0 - s ** params.r) ** params.b


def choose_banding(k_max: int, r1: float, target_p1: float) -> BandingParams:
    """Largest r (then fewest bands) with candidate probability >= target_p1.

    Searches r downward from k_max; for each r the fewest bands b satisfying
    1 - (1 - r1^r)^b >= target_p1 is accepted if b * r <= k_max.
    """
    if not 0.0 < r1 <= 1.0:
        raise ValueError("r1 must be in (0, 1]")
    if not 0.0 < target_p1 < 1.0:
        raise ValueError("target_p1 must be in (0, 1)")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    for r in range(k_max, 0, -1):
        p_band = r1 ** r
        if p_band <= 0.0:
            continue
        if p_band >= 1.0:
            return BandingParams(b=1, r=r)
        b_max = k_max // r
        if 1.0 - (1.0 - p_band) ** b_max < target_p1:
            continue
        b = max(1, math.ceil(math.log(1.0 - target_p1) / math.log(1.0 - p_band)))
        while b > 1 and 1.0 - (1.0 - p_band) ** (b - 1) >= target_p1:
            b -= 1
        while 1.0 - (1.0 - p_band) ** b < target_p1:
            b += 1
        return BandingParams(b=b, r=r)
    raise BandingInfeasibleError(
        f"no (b, r) with b*r <= {k_max} reaches p1 >= {target_p1} at similarity {r1}"
    )


@dataclass
class AcpScore:
    """Confusion counts and derived metrics for an all-candidate-pairs run.

    Metrics with a zero denominator are defined as 0.
    """

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def precision(self) -> float:
        d = self.tp + self.fp
        return self.tp / d if d else 0.0

    @property
    def recall(self) -> float:
        d = self.tp + self.fn
        return self.tp / d if d else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else 0.0


class LshIndex:
    """Banded bucket index over signatures.

    Each band has its own dict of buckets, keyed by the raw bytes of the
    band's r signature entries. The keys are exact: two signatures share a
    bucket exactly when they agree on every entry of that band, and bucket
    spaces never collide across bands. ``seed`` is accepted for compatibility with
    callers that pass one; it does not affect the buckets.
    """

    def __init__(self, params: BandingParams, seed: int = 0):
        self.params = params
        self._buckets: list = [{} for _ in range(params.b)]
        self._ids: set = set()

    def __len__(self) -> int:
        return len(self._ids)

    def insert(self, set_id, sig: Signature) -> None:
        """Index one signature; a set id may be inserted at most once."""
        b, r = self.params.b, self.params.r
        if len(sig) < b * r:
            raise ValueError(f"signature has {len(sig)} entries, banding needs {b * r}")
        if set_id in self._ids:
            raise ValueError(f"set id {set_id!r} already indexed")
        self._ids.add(set_id)
        # One bytes object per band: a void view of its r entries.
        for buckets, band in zip(self._buckets, sig.values[:b * r].view(f"V{8 * r}").tolist()):
            buckets.setdefault(band, []).append(set_id)

    def candidates(self) -> set:
        """All unordered id pairs sharing at least one bucket, deduplicated."""
        out = set()
        for buckets in self._buckets:
            for ids in buckets.values():
                if len(ids) > 1:
                    out.update(combinations(sorted(ids), 2))
        return out


def score_acp(returned, universe_pairs, exact_sims, threshold: float) -> AcpScore:
    """Grade returned pairs against exact similarities at the given threshold.

    ``exact_sims`` maps each pair of ``universe_pairs`` (unordered, stored in
    sorted order) to its exact Jaccard similarity. Pairs at or above the
    threshold count as positives.
    """
    returned = {tuple(sorted(p)) for p in returned}
    tp = fp = fn = tn = 0
    for pair in universe_pairs:
        pair = tuple(sorted(pair))
        is_true = exact_sims[pair] >= threshold
        is_returned = pair in returned
        if is_returned and is_true:
            tp += 1
        elif is_returned:
            fp += 1
        elif is_true:
            fn += 1
        else:
            tn += 1
    return AcpScore(tp=tp, fp=fp, fn=fn, tn=tn)
