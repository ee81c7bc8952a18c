import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynminhash.core import Signature
from dynminhash.errors import BandingInfeasibleError
from dynminhash.lsh import (
    AcpScore,
    BandingParams,
    LshIndex,
    candidate_probability,
    choose_banding,
    score_acp,
)


def _sig(values, k=None):
    return Signature(values, family_key=(0, k or len(values)))


def bucket_map(index: LshIndex) -> dict:
    """The index's buckets as one (band, bytes) -> ids mapping."""
    return {(j, band): ids for j, buckets in enumerate(index._buckets) for band, ids in buckets.items()}


def brute_force_candidates(index: LshIndex) -> set:
    """Quadratic scan of every bucket list; the oracle for candidates()."""
    pairs = set()
    for ids in bucket_map(index).values():
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                pairs.add(tuple(sorted((a, b))))
    return pairs


class TestIndex:
    def test_single_band_full_width_buckets_on_full_equality(self):
        idx = LshIndex(BandingParams(b=1, r=4), seed=1)
        idx.insert("a", _sig([1, 2, 3, 4]))
        idx.insert("b", _sig([1, 2, 3, 4]))
        idx.insert("c", _sig([1, 2, 3, 5]))
        assert idx.candidates() == {("a", "b")}

    def test_identical_signatures_share_every_band(self):
        params = BandingParams(b=3, r=2)
        idx = LshIndex(params, seed=2)
        idx.insert(1, _sig([5, 6, 7, 8, 9, 10]))
        idx.insert(2, _sig([5, 6, 7, 8, 9, 10]))
        shared = sum(1 for ids in bucket_map(idx).values() if len(ids) == 2)
        assert shared == params.b

    def test_multi_band_collisions_deduplicated(self):
        idx = LshIndex(BandingParams(b=3, r=1), seed=3)
        idx.insert("x", _sig([1, 2, 3]))
        idx.insert("y", _sig([1, 2, 30]))
        assert idx.candidates() == {("x", "y")}

    def test_empty_index_has_no_candidates(self):
        assert LshIndex(BandingParams(b=2, r=2), seed=4).candidates() == set()

    def test_short_signature_rejected(self):
        idx = LshIndex(BandingParams(b=2, r=3), seed=5)
        with pytest.raises(ValueError):
            idx.insert("a", _sig([1, 2, 3]))

    def test_duplicate_id_rejected(self):
        idx = LshIndex(BandingParams(b=1, r=1), seed=6)
        idx.insert("a", _sig([1]))
        with pytest.raises(ValueError):
            idx.insert("a", _sig([2]))

    def test_candidates_match_bucket_scan_on_random_corpus(self):
        rng = np.random.default_rng(7)
        idx = LshIndex(BandingParams(b=8, r=2), seed=7)
        for i in range(100):
            base = rng.integers(0, 4, size=16).astype(np.uint64)
            idx.insert(i, _sig(base))
        cands = idx.candidates()
        assert cands == brute_force_candidates(idx)
        assert cands, "corpus chosen to produce at least one collision"

    def test_one_differing_entry_per_band_is_never_a_candidate(self):
        params = BandingParams(b=4, r=3)
        base = np.arange(1, 13, dtype=np.uint64)
        idx = LshIndex(params)
        idx.insert("base", _sig(base))
        for offset in range(params.r):
            other = base.copy()
            other[offset::params.r] += np.uint64(1 << 40)  # one entry of every band
            idx.insert(("changed", offset), _sig(other))
        # Every band holds the same entries as base's, in another order.
        idx.insert("rotated", _sig(np.roll(base.reshape(params.b, params.r), 1, axis=1).ravel()))
        assert idx.candidates() == set()

    def test_buckets_are_keyed_by_each_bands_raw_bytes(self):
        """Each band's bucket key is (band, the raw bytes of its r entries),
        zero bytes at either end included; entries past b * r are unused."""
        rng = np.random.default_rng(10)
        params = BandingParams(b=5, r=3)
        idx, want = LshIndex(params), {}
        for i in range(40):
            values = rng.integers(0, 3, size=17).astype(np.uint64) << np.uint64(rng.choice([0, 56]))
            idx.insert(i, _sig(values))
            raw = values.tobytes()
            for j in range(params.b):
                want.setdefault((j, raw[24 * j:24 * (j + 1)]), []).append(i)
        assert bucket_map(idx) == want
        assert any(len(ids) > 1 for ids in want.values())

    def test_seed_does_not_change_candidates(self):
        rng = np.random.default_rng(9)
        sigs = [_sig(rng.integers(0, 3, size=8).astype(np.uint64)) for _ in range(60)]
        found = []
        for seed in (0, 1, 12345, (1 << 64) - 1):
            idx = LshIndex(BandingParams(b=4, r=2), seed=seed)
            for i, sig in enumerate(sigs):
                idx.insert(i, sig)
            found.append(idx.candidates())
        assert found[0] and all(c == found[0] for c in found)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 3), min_size=6, max_size=6), max_size=25))
    def test_candidates_match_bucket_scan_property(self, rows):
        idx = LshIndex(BandingParams(b=3, r=2), seed=8)
        for i, row in enumerate(rows):
            idx.insert(i, _sig(row))
        assert idx.candidates() == brute_force_candidates(idx)


class TestBandingLaw:
    def _empirical(self, s, params, trials, seed):
        rng = np.random.default_rng(seed)
        width = params.b * params.r
        hits = 0
        match = rng.random((trials, width)) < s
        for t in range(trials):
            idx = LshIndex(params, seed=seed + t)
            sig_a = rng.integers(1, 1 << 32, size=width, dtype=np.uint64)
            sig_b = np.where(match[t], sig_a, sig_a + np.uint64(1))
            idx.insert(0, _sig(sig_a))
            idx.insert(1, _sig(sig_b))
            hits += bool(idx.candidates())
        return hits / trials

    @pytest.mark.parametrize("s,r,b", [(0.8, 5, 20), (0.5, 4, 16), (0.2, 2, 8)])
    def test_candidate_frequency_matches_closed_form(self, s, r, b):
        params = BandingParams(b=b, r=r)
        trials = 2000
        expect = candidate_probability(s, params)
        freq = self._empirical(s, params, trials, seed=int(s * 100) + r)
        sigma = np.sqrt(max(expect * (1 - expect), 1e-6) / trials)
        assert abs(freq - expect) <= max(4 * sigma, 0.02)

    def test_monotone_in_similarity(self):
        params = BandingParams(b=10, r=3)
        freqs = [self._empirical(s, params, 1500, seed=99) for s in (0.3, 0.5, 0.7, 0.9)]
        assert freqs == sorted(freqs)


class TestChooseBanding:
    def _sweep_oracle(self, k_max, r1, p1):
        best = None
        for r in range(1, k_max + 1):
            for b in range(1, k_max // r + 1):
                if 1 - (1 - r1 ** r) ** b >= p1:
                    if best is None or r > best[1]:
                        best = (b, r)
                    break
        return best

    def test_matches_sweep_oracle_low_similarity(self):
        params = choose_banding(2100, 0.1, 0.8)
        assert (params.b, params.r) == self._sweep_oracle(2100, 0.1, 0.8) == (161, 2)

    def test_certainty_case(self):
        params = choose_banding(64, 1.0, 0.8)
        assert (params.b, params.r) == (1, 64)

    def test_matches_sweep_oracle_high_similarity(self):
        params = choose_banding(100, 0.8, 0.8)
        assert (params.b, params.r) == self._sweep_oracle(100, 0.8, 0.8)
        assert candidate_probability(0.8, params) >= 0.8
        assert params.b * params.r <= 100

    def test_infeasible_raises(self):
        with pytest.raises(BandingInfeasibleError):
            choose_banding(2, 0.01, 0.99)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            choose_banding(10, 0.0, 0.8)
        with pytest.raises(ValueError):
            choose_banding(10, 0.5, 1.0)


class TestScoring:
    def test_perfect_return(self):
        pairs = [(1, 2), (3, 4), (5, 6)]
        sims = {(1, 2): 0.9, (3, 4): 0.8, (5, 6): 0.2}
        score = score_acp({(1, 2), (3, 4)}, pairs, sims, threshold=0.5)
        assert (score.tp, score.fp, score.fn, score.tn) == (2, 0, 0, 1)
        assert score.precision == score.recall == score.f1 == 1.0

    def test_empty_return_conventions(self):
        pairs = [(1, 2), (3, 4)]
        sims = {(1, 2): 0.9, (3, 4): 0.1}
        score = score_acp(set(), pairs, sims, threshold=0.5)
        assert score.recall == 0.0
        assert score.precision == 0.0
        assert score.f1 == 0.0

    def test_mixed_counts(self):
        pairs = [(1, 2), (1, 3), (2, 3)]
        sims = {(1, 2): 0.9, (1, 3): 0.1, (2, 3): 0.7}
        score = score_acp({(1, 2), (1, 3)}, pairs, sims, threshold=0.5)
        assert (score.tp, score.fp, score.fn, score.tn) == (1, 1, 1, 0)
        assert score.precision == 0.5
        assert score.recall == 0.5

    def test_zero_denominator_conventions(self):
        assert AcpScore(0, 0, 0, 5).precision == 0.0
        assert AcpScore(0, 0, 0, 5).recall == 0.0
        assert AcpScore(0, 0, 0, 5).f1 == 0.0

    def test_unordered_pairs_normalised(self):
        score = score_acp({(2, 1)}, [(1, 2)], {(1, 2): 0.9}, threshold=0.5)
        assert score.tp == 1
