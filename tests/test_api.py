"""The package's public surface: ``__all__`` and the names removed from it."""

import inspect

import pytest

import dynminhash
from dynminhash import core, hashing
from dynminhash.hashing import HashFamily, PairwiseHash


def test_all_is_sorted_and_duplicate_free():
    assert dynminhash.__all__ == sorted(set(dynminhash.__all__))


def test_all_names_resolve():
    assert [name for name in dynminhash.__all__ if not hasattr(dynminhash, name)] == []


@pytest.mark.parametrize("owner, name", [
    (dynminhash, "TabulationHash"),
    (dynminhash, "make_key"),
    (dynminhash, "split_key"),
    (core, "make_key"),
    (core, "split_key"),
    (hashing, "TabulationHash"),
    (HashFamily, "fn"),
    (HashFamily, "functions"),
    (HashFamily, "eval_one"),
    (HashFamily, "eval_many"),
    (HashFamily, "_keys_under"),
    (HashFamily, "_prefix_keys"),
    (HashFamily, "_flat_hashes"),
    (core.BufferedSketch, "_dtop"),
    (PairwiseHash, "eval_many"),
])
def test_removed_names_are_gone(owner, name):
    assert not hasattr(owner, name)


def test_min_hashes_takes_no_option():
    assert list(inspect.signature(HashFamily.min_hashes).parameters) == ["self", "elements"]
