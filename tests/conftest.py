import numpy as np
import pytest

from dynminhash.hashing import HashFamily
from hash_oracles import family_from_tables


def ref_min_keys(family, elements):
    """From-scratch reference: per-function minimum (hash, element) key.

    Deliberately ignores all sketch state; used as the independent oracle.
    """
    xs = np.asarray(list(elements), dtype=np.uint64)
    if xs.size == 0:
        return np.full(family.k, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    keys = family.keys_many(xs)
    return keys.min(axis=0)


def ref_signature(family, elements):
    """From-scratch k-MinHash values of a set (independent of any sketch)."""
    return ref_min_keys(family, elements) >> np.uint64(32)


def identity_family(k: int = 1) -> HashFamily:
    """Crafted family with h_i(x) = x for x < 16 (all functions identical)."""
    tables = np.zeros((k, 8, 16), dtype=np.uint32)
    tables[:, 0, :] = np.arange(16, dtype=np.uint32)
    return family_from_tables(tables, master_seed=999)


@pytest.fixture
def id_family():
    return identity_family(1)
