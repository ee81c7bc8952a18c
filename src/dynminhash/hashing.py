"""Seeded hash families: tabulation hashing plus pairwise-independent functions.

Elements are 0-based unsigned values in [0, 2^32). All hash functions map
such 32-bit keys to 32-bit values and are fully determined by their seed, so
every experiment is bit-reproducible from a single master seed.
"""

from __future__ import annotations

import numpy as np

#: Size of the element universe. Elements are unsigned 32-bit values.
MAX_UNIVERSE = 1 << 32

_U64 = (1 << 64) - 1

#: Keys per gather block in ``HashFamily.keys_many`` (512 KiB of uint32).
_GATHER_KEYS = 1 << 17

# splitmix64 constants, used to derive independent per-function subseeds from
# one master seed (counter-based, so function i is reproducible in isolation).
_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GAMMA) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """64-bit subseed for the ``index``-th function of a family."""
    return _splitmix64((master_seed + index * _GAMMA) & _U64)


def _tables_from_seed(seed: int) -> np.ndarray:
    """8 lookup tables of 16 random 32-bit words, shaped (8, 16)."""
    return np.random.SeedSequence(seed).generate_state(128, dtype=np.uint32).reshape(8, 16)


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
        """Build directly from an (8, 16) table array (mainly for tests)."""
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


class HashFamily:
    """A vector of k independent tabulation hashes drawn from one master seed.

    Immutable after construction and safe to share across threads. Every
    evaluation path (`key_one`, `keys_many`, `keys_at`, `min_hashes` and the
    stream tables) reads one byte-wide table of (4, 256, k) uint32 hash
    values, precombined from the nibble tables on first use (1 MiB at
    k=256); outputs are bit-identical to evaluating the 8 nibble tables
    directly.
    """

    __slots__ = ("k", "master_seed", "tables", "_packed", "_stream")

    def __init__(self, k: int, master_seed: int):
        if k < 1:
            raise ValueError(f"family size k must be >= 1, got {k}")
        if not 0 <= master_seed < (1 << 64):
            raise ValueError("master_seed must fit in 64 bits")
        self.k = int(k)
        self.master_seed = int(master_seed)
        tables = np.empty((k, 8, 16), dtype=np.uint32)
        for i in range(k):
            tables[i] = _tables_from_seed(derive_seed(master_seed, i))
        tables.setflags(write=False)
        self.tables = tables
        self._packed = None
        self._stream = None

    @classmethod
    def from_tables(cls, tables, master_seed: int = 0) -> "HashFamily":
        """Build a family directly from a (k, 8, 16) table array.

        Functions built this way are not reproducible from per-function
        seeds; intended for tests and experiments with crafted hashes.
        """
        obj = cls.__new__(cls)
        t = np.ascontiguousarray(tables, dtype=np.uint32)
        if t.ndim != 3 or t.shape[1:] != (8, 16):
            raise ValueError(f"tables must have shape (k, 8, 16), got {t.shape}")
        t.setflags(write=False)
        obj.k = t.shape[0]
        obj.master_seed = int(master_seed)
        obj.tables = t
        obj._packed = None
        obj._stream = None
        return obj

    @property
    def family_key(self) -> tuple:
        """Identity token carried by signatures for compatibility checks."""
        return (self.master_seed, self.k)

    def fn(self, i: int) -> TabulationHash:
        """The i-th function as a standalone hash.

        For seed-built families the returned hash is also reproducible in
        isolation as TabulationHash(derive_seed(master_seed, i)).
        """
        return TabulationHash.from_tables(self.tables[i], derive_seed(self.master_seed, i))

    @property
    def functions(self) -> list:
        return [self.fn(i) for i in range(self.k)]

    def _byte_tables(self) -> np.ndarray:
        # (4, 256, k) uint32: byte-wide tables precombined from the nibble
        # tables, so XORing the four entries an element's bytes select yields
        # its hash. One contiguous (k,) slice per (table, byte) keeps
        # single-element evaluation cache-friendly.
        if self._packed is None:
            lo = np.arange(256) & 15
            hi = np.arange(256) >> 4
            p = np.empty((4, 256, self.k), dtype=np.uint32)
            for t in range(4):
                p[t] = (self.tables[:, 2 * t, lo] ^ self.tables[:, 2 * t + 1, hi]).T
            self._packed = p
        return self._packed

    def _stream_tables(self) -> tuple:
        """Tables for evaluating one element in plain Python: (lanes, hashes, guard).

        ``lanes`` holds 1024 ints, one per (table t, byte b) at index
        256 * t + b. Each packs the top 15 bits of all k entries
        ``_byte_tables()[t, b]`` as 16-bit lanes, function i in bits
        16i..16i+14; the table-3 ints hold 0x7FFF minus those bits. As
        tabulation is a plain XOR, the four ints an element selects XOR to
        0x7FFF minus the top 15 bits of all k of its hashes. ``hashes`` is a
        flat uint32 view of ``_byte_tables()`` (entry (256 * t + b) * k + i),
        from which the exact key of one function is (XOR of four entries)
        << 32 | x. ``guard`` has bit 15 of every lane set.
        """
        if self._stream is None:
            p = self._byte_tables()
            top = (p >> np.uint32(17)).astype("<u2")
            top[3] ^= 0x7FFF
            raw, step = top.tobytes(), 2 * self.k
            lanes = [int.from_bytes(raw[j:j + step], "little") for j in range(0, len(raw), step)]
            guard = int.from_bytes(b"\x00\x80" * self.k, "little")
            self._stream = (lanes, memoryview(p).cast("B").cast("I"), guard)
        return self._stream

    def eval_one(self, x: int) -> np.ndarray:
        """All k hash values of one element, shape (k,) uint64 (32-bit values)."""
        return self.key_one(x) >> np.uint64(32)

    def key_one(self, x: int) -> np.ndarray:
        """All k pair keys (hash << 32 | x) of one element, shape (k,)."""
        if not 0 <= x < MAX_UNIVERSE:
            raise ValueError(f"element {x} outside 32-bit universe")
        p = self._byte_tables()
        h = p[0, x & 255] ^ p[1, (x >> 8) & 255]
        h ^= p[2, (x >> 16) & 255]
        h ^= p[3, x >> 24]
        key = np.left_shift(h, 32, dtype=np.uint64)
        key |= np.uint64(x)
        return key

    def eval_many(self, xs) -> np.ndarray:
        """Hash values for many elements, shape (len(xs), k) uint64.

        Row j holds the k hash values of ``xs[j]``.
        """
        return self.keys_many(xs) >> np.uint64(32)

    def _hashes(self, xs, fn=slice(None)) -> np.ndarray:
        """uint32 hashes of ``xs`` under the functions ``fn`` selects.

        The whole family by default, shape xs.shape + (k,); an index array
        ``fn`` instead broadcasts against ``xs``.
        """
        p = self._byte_tables()
        h = p[0][(xs & np.uint64(255)).astype(np.intp), fn]
        for t in (1, 2, 3):
            h ^= p[t][((xs >> np.uint64(8 * t)) & np.uint64(255)).astype(np.intp), fn]
        return h

    def keys_many(self, xs) -> np.ndarray:
        """Pair keys (hash << 32 | x) for many elements, shape (len(xs), k) uint64.

        Row j holds the k keys of ``xs[j]``. The result is the transposed
        view of a C-ordered (k, len(xs)) array: ``keys_many(xs).T`` is
        contiguous along the elements, the axis that per-function
        selections (partition, sort, min) run on. Hashes are gathered in
        blocks of at most 2^17 keys, each written transposed while in cache.
        """
        xs = np.ascontiguousarray(xs, dtype=np.uint64)
        out = np.empty((self.k, xs.size), dtype=np.uint64)
        step = max(1, _GATHER_KEYS // self.k)
        for start in range(0, xs.size, step):
            out[:, start:start + step] = self._hashes(xs[start:start + step]).T
        out <<= np.uint64(32)
        out |= xs
        return out.T

    def keys_at(self, xs) -> np.ndarray:
        """Pair keys of ``xs[i, j]`` under function i, for a (k, m) array xs."""
        xs = np.asarray(xs, dtype=np.uint64)
        out = np.left_shift(self._hashes(xs, np.arange(self.k)[:, None]), 32, dtype=np.uint64)
        out |= xs
        return out

    def min_hashes(self, elements, chunk_bytes: int = 1 << 27) -> np.ndarray:
        """Per-function minimum of (hash, element) keys over ``elements``.

        Returns the k minima as uint64 keys (hash in the high 32 bits).
        Processes elements in chunks so memory stays bounded for large k;
        empty input returns an all-sentinel vector.
        """
        xs = np.ascontiguousarray(elements, dtype=np.uint64)
        best = np.full(self.k, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        if xs.size == 0:
            return best
        step = max(1, chunk_bytes // (8 * self.k))
        for start in range(0, xs.size, step):
            keys = self.keys_many(xs[start:start + step])
            np.minimum(best, keys.min(axis=0), out=best)
        return best


def new_family(k: int, master_seed: int) -> HashFamily:
    """k deterministic, independent tabulation hash functions."""
    return HashFamily(k, master_seed)


class PairwiseHash:
    """2-wise independent hash h(x) = ((a*x + b) mod p) mod range.

    p is a fixed Mersenne prime larger than the universe; the output range is
    supplied at evaluation time. Arithmetic is exact Python-int arithmetic.
    """

    P = (1 << 61) - 1

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if not 1 <= a < self.P:
            raise ValueError("a must be in [1, p)")
        if not 0 <= b < self.P:
            raise ValueError("b must be in [0, p)")
        self.a = int(a)
        self.b = int(b)

    def __call__(self, x: int, range_: int) -> int:
        return ((self.a * x + self.b) % self.P) % range_

    def eval_many(self, xs, range_: int) -> np.ndarray:
        a, b, p = self.a, self.b, self.P
        return np.fromiter(
            (((a * int(x) + b) % p) % range_ for x in xs), dtype=np.int64, count=len(xs)
        )


def new_pairwise(seed: int) -> PairwiseHash:
    """A pairwise-independent function with (a, b) drawn from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    a = int(rng.integers(1, PairwiseHash.P, dtype=np.uint64))
    b = int(rng.integers(0, PairwiseHash.P, dtype=np.uint64))
    return PairwiseHash(a, b)
