"""Nibble-table tabulation hashing: the independent oracle for HashFamily.

``HashFamily`` evaluates through byte-wide tables precombined from its
nibble tables; these helpers evaluate the nibble tables directly, one
lookup per 4-bit slice, so tests can check the byte-wide paths against them.
"""

import numpy as np

from dynminhash.hashing import MAX_UNIVERSE, HashFamily, _tables_from_seed, derive_seed


class TabulationHash:
    """One tabulation hash over 32-bit keys.

    Eight tables of 16 random words; the hash is the XOR of one table entry
    per 4-bit slice of the key. Evaluation is a pure, constant-time function
    of (seed, key).
    """

    __slots__ = ("tables", "seed")

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.tables = _tables_from_seed(self.seed)
        self.tables.setflags(write=False)

    @classmethod
    def from_tables(cls, tables, seed: int = -1) -> "TabulationHash":
        """Build directly from an (8, 16) table array."""
        obj = cls.__new__(cls)
        t = np.ascontiguousarray(tables, dtype=np.uint32)
        if t.shape != (8, 16):
            raise ValueError(f"tables must have shape (8, 16), got {t.shape}")
        obj.tables = t
        obj.tables.setflags(write=False)
        obj.seed = int(seed)
        return obj

    def __call__(self, x: int) -> int:
        if not 0 <= x < MAX_UNIVERSE:
            raise ValueError(f"element {x} outside 32-bit universe")
        t = self.tables
        h = int(t[0, x & 15])
        h ^= int(t[1, (x >> 4) & 15])
        h ^= int(t[2, (x >> 8) & 15])
        h ^= int(t[3, (x >> 12) & 15])
        h ^= int(t[4, (x >> 16) & 15])
        h ^= int(t[5, (x >> 20) & 15])
        h ^= int(t[6, (x >> 24) & 15])
        h ^= int(t[7, (x >> 28) & 15])
        return h


def family_from_tables(tables, master_seed: int = 0) -> HashFamily:
    """A family built directly from a (k, 8, 16) table array, for crafted
    hashes; its functions are not reproducible from per-function seeds."""
    t = np.ascontiguousarray(tables, dtype=np.uint32)
    if t.ndim != 3 or t.shape[1:] != (8, 16):
        raise ValueError(f"tables must have shape (k, 8, 16), got {t.shape}")
    if t.shape[0] < 1:
        raise ValueError(f"family size k must be >= 1, got {t.shape[0]}")
    family = HashFamily.__new__(HashFamily)
    family._adopt(t, master_seed)
    return family


def fn(family, i: int) -> TabulationHash:
    """The i-th function of ``family`` as a standalone hash.

    For seed-built families the returned hash is also reproducible in
    isolation as TabulationHash(derive_seed(master_seed, i)).
    """
    return TabulationHash.from_tables(family.tables[i], derive_seed(family.master_seed, i))


def nibble_keys(family, xs) -> np.ndarray:
    """(n, k) pair keys of the uint64 array ``xs``, evaluated over the 8
    nibble tables of ``family``, vectorised."""
    h = np.zeros((family.k, xs.size), dtype=np.uint64)
    for t in range(8):
        h ^= family.tables[:, t, ((xs >> np.uint64(4 * t)) & np.uint64(15)).astype(np.intp)]
    return ((h << np.uint64(32)) | xs).T
