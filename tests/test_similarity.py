import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynminhash.core import Signature
from dynminhash.hashing import new_family
from dynminhash.similarity import estimate_jaccard, exact_jaccard, rmse

from conftest import ref_signature


class TestEstimateJaccard:
    def test_identical_signatures(self):
        s = Signature([1, 2, 3], family_key=(0, 3))
        est = estimate_jaccard(s, s)
        assert est.estimate == 1.0
        assert est.k_used == 3

    def test_half_matching(self):
        a = Signature(list(range(100)), family_key=(0, 100))
        b = Signature(list(range(50)) + list(range(1000, 1050)), family_key=(0, 100))
        assert estimate_jaccard(a, b).estimate == 0.5

    def test_mismatched_k_rejected(self):
        a = Signature([1, 2], family_key=(0, 2))
        b = Signature([1, 2, 3], family_key=(0, 3))
        with pytest.raises(ValueError):
            estimate_jaccard(a, b)

    def test_empty_signatures_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_jaccard(Signature([]), Signature([]))

    def test_mismatched_family_rejected(self):
        a = Signature([1, 2], family_key=(0, 2))
        b = Signature([1, 2], family_key=(5, 2))
        with pytest.raises(ValueError):
            estimate_jaccard(a, b)

    def test_symmetry(self):
        a = Signature([1, 2, 3, 9], family_key=(0, 4))
        b = Signature([1, 5, 3, 8], family_key=(0, 4))
        assert estimate_jaccard(a, b) == estimate_jaccard(b, a)

    def test_disjoint_sets_estimate_near_zero(self):
        # k = 1024 over disjoint sets: only hash collisions can match.
        fam = new_family(1024, 404)
        a = np.arange(0, 500, dtype=np.uint64)
        b = np.arange(10_000, 10_500, dtype=np.uint64)
        sig_a = Signature(ref_signature(fam, a), fam.family_key)
        sig_b = Signature(ref_signature(fam, b), fam.family_key)
        assert estimate_jaccard(sig_a, sig_b).estimate <= 0.02

    def test_estimate_is_multiple_of_one_over_k(self):
        fam = new_family(64, 405)
        a = np.arange(0, 80, dtype=np.uint64)
        b = np.arange(40, 120, dtype=np.uint64)
        est = estimate_jaccard(
            Signature(ref_signature(fam, a), fam.family_key),
            Signature(ref_signature(fam, b), fam.family_key),
        )
        assert 0.0 <= est.estimate <= 1.0
        assert (est.estimate * est.k_used) == int(round(est.estimate * est.k_used))


class TestExactJaccard:
    def test_equal_nonempty(self):
        assert exact_jaccard({1, 2}, {1, 2}) == 1.0

    def test_disjoint(self):
        assert exact_jaccard({1}, {2}) == 0.0

    def test_partial_overlap(self):
        assert exact_jaccard({1, 2, 3}, {2, 3, 4}) == 0.5

    def test_both_empty_is_zero_by_convention(self):
        assert exact_jaccard(set(), set()) == 0.0

    def test_accepts_arrays_and_iterables(self):
        a = np.array([1, 2, 3], dtype=np.uint64)
        assert exact_jaccard(a, [2, 3, 4]) == 0.5
        assert exact_jaccard(a, a) == 1.0

    def test_symmetry(self):
        a, b = {1, 2, 3, 4}, {3, 4, 5}
        assert exact_jaccard(a, b) == exact_jaccard(b, a)


def _by_definition(a: set, b: set) -> float:
    """len(a & b) / len(a | b), building both sets; 0.0 when both are empty."""
    union = len(a | b)
    return len(a & b) / union if union else 0.0


def _as_form(xs: set, form: str):
    """``xs`` as a set, a list with repeats in reverse order, or a uint64 array."""
    if form == "set":
        return set(xs)
    if form == "list":
        return sorted(xs, reverse=True) + sorted(xs)[:2]
    return np.array(sorted(xs), dtype=np.uint64)


_FORMS = st.sampled_from(("set", "list", "array"))


@given(a=st.sets(st.integers(0, 60), max_size=40), b=st.sets(st.integers(0, 60), max_size=40),
       relation=st.sampled_from(("drawn", "identical", "disjoint", "empty", "both-empty")),
       form_a=_FORMS, form_b=_FORMS)
def test_exact_jaccard_equals_definition_bit_for_bit(a, b, relation, form_a, form_b):
    """The intersection-only formula returns the float that building the
    union gives, for every input form, and 0.0 for two empty sets."""
    if relation == "identical":
        b = set(a)
    elif relation == "disjoint":
        b = {x + 100 for x in b}
    elif relation == "empty":
        b = set()
    elif relation == "both-empty":
        a = b = set()
    got = exact_jaccard(_as_form(a, form_a), _as_form(b, form_b))
    assert type(got) is float
    assert got.hex() == _by_definition(a, b).hex()
    if not a and not b:
        assert got == 0.0


class TestRmse:
    def test_exact_estimates_give_zero(self):
        assert rmse([(0.5, 0.5), (0.1, 0.1)]) == 0.0

    def test_single_pair(self):
        assert rmse([(0.6, 0.5)]) == pytest.approx(0.1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse([])

    @pytest.mark.slow
    def test_matches_binomial_variance_oracle(self):
        # 1000 independent estimates at J = 0.5 with k = 1024: the RMSE must
        # sit within [0.7, 1.3] of the binomial prediction sqrt(J(1-J)/k).
        k = 1024
        rng = np.random.default_rng(42)
        pairs = []
        for t in range(1000):
            fam = new_family(k, 50_000 + t)
            union = rng.choice(1 << 20, size=40, replace=False).astype(np.uint64)
            a, b = union[:30], union[10:]  # |intersection| 20, |union| 40
            est = np.mean(ref_signature(fam, a) == ref_signature(fam, b))
            pairs.append((float(est), 0.5))
        predicted = math.sqrt(0.25 / k)
        assert 0.7 * predicted <= rmse(pairs) <= 1.3 * predicted


@pytest.mark.slow
def test_estimates_are_unbiased():
    # Mean estimate over many independent families concentrates on J.
    k = 16
    trials = 10_000
    rng = np.random.default_rng(9)
    union = rng.choice(1 << 20, size=60, replace=False).astype(np.uint64)
    a, b = union[:40], union[20:]  # J = 20/60
    j = 20 / 60
    total = 0.0
    for t in range(trials):
        fam = new_family(k, 80_000 + t)
        total += np.mean(ref_signature(fam, a) == ref_signature(fam, b))
    mean_est = total / trials
    assert abs(mean_est - j) <= 3 * math.sqrt(j * (1 - j) / (k * trials))
