"""Seeded hash families: tabulation hashing plus pairwise-independent functions.

Elements are 0-based unsigned values in [0, 2^32). All hash functions map
such 32-bit keys to 32-bit values and are fully determined by their seed, so
every experiment is bit-reproducible from a single master seed. Every
element that enters a sketch passes ``as_element`` or ``as_element_set``,
and ``keys_many`` and ``min_hashes`` check theirs the same way. As
tabulation is a plain XOR, the top 16 bits of a hash are the XOR of four
16-bit table entries; the bulk paths that keep few keys (``min_hashes``
and the bounded merge) scan those prefixes and key in full only the pairs
that pass.
"""

from __future__ import annotations

from operator import index

import numpy as np

#: Size of the element universe. Elements are unsigned 32-bit values.
MAX_UNIVERSE = 1 << 32

_U64 = (1 << 64) - 1

#: Hashes per gather block: of ``HashFamily.keys_many`` (512 KiB of
#: uint32) and of the prefix scan that ``HashFamily.min_hashes`` and
#: ``HashFamily._keys_below`` share (256 KiB of uint16).
_GATHER_KEYS = 1 << 17

# splitmix64 constants, used to derive independent per-function subseeds from
# one master seed (counter-based, so function i is reproducible in isolation).
_GAMMA = 0x9E3779B97F4A7C15


def as_element(x) -> int:
    """x as an element: an integer (``operator.index``) in [0, 2^32).

    Raises TypeError for a float, str or other non-integer, and ValueError
    for an integer outside the universe. ``BufferedSketch.insert`` and
    ``delete`` inline the same two steps.
    """
    x = index(x)
    if not 0 <= x < MAX_UNIVERSE:
        raise ValueError(f"element {x} outside 32-bit universe")
    return x


def _as_elements(elements) -> np.ndarray:
    """``elements`` in order, repeats kept, as a flat contiguous uint64
    array; checked as ``as_element_set`` documents, by one min/max pass."""
    if isinstance(elements, np.ndarray):
        xs = elements
    else:  # a list or tuple converts as it is; any other iterable is listed first
        xs = np.asarray(elements if isinstance(elements, (list, tuple)) else list(elements))
    if xs.ndim != 1:
        xs = xs.reshape(-1)
    if xs.size == 0:
        return np.empty(0, dtype=np.uint64)
    if xs.dtype.kind not in "iu":
        # numpy stores a list of ints that includes one beyond 64 bits as objects.
        if xs.dtype == object and all(type(v) is int for v in xs.flat):
            raise ValueError("element outside 32-bit universe")
        raise TypeError(f"elements must be integers, got {xs.dtype} values")
    lo, hi = xs.min(), xs.max()
    if lo < 0 or hi >= MAX_UNIVERSE:
        raise ValueError(f"elements {lo}..{hi} reach outside the 32-bit universe")
    return np.ascontiguousarray(xs, dtype=np.uint64)


def _sorted_set(xs: np.ndarray) -> np.ndarray:
    """The values of the uint64 array ``xs``, sorted, repeats dropped:
    ``as_element_set`` of elements that are already checked."""
    xs = np.sort(xs, axis=None)
    return np.concatenate((xs[:1], xs[1:][xs[1:] != xs[:-1]]))


def as_element_set(elements) -> np.ndarray:
    """The elements as a sorted, duplicate-free uint64 array.

    ``elements`` is an integer-dtype array or an iterable of integers, each
    in [0, 2^32). Empty input of any dtype is the empty set. Raises
    TypeError for float, str, bool or object values and ValueError for an
    integer outside the universe. Sorting, then dropping repeats, gives the
    result of np.unique, which measured 5-18x slower for 300 to 32768
    elements (numpy 2.4, 2-vCPU host).
    """
    return _sorted_set(_as_elements(elements))


def _element_bytes(xs: np.ndarray) -> np.ndarray:
    """(4, n) intp: row t holds byte t (little-endian) of each uint64
    element of ``xs``, on either host byte order; intp, so that a table
    index such as ``byte * k + fn`` cannot overflow."""
    return xs.astype("<u4").view(np.uint8).reshape(-1, 4).T.astype(np.intp)


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


class HashFamily:
    """A vector of k independent tabulation hashes drawn from one master seed.

    Immutable after construction and safe to share across threads. Every
    evaluation path reads one byte-wide table of (4, 256, k) uint32 hash
    values, precombined from the nibble tables on first use (1 MiB at
    k=256); outputs are bit-identical to evaluating the 8 nibble tables
    directly. The paths:
    - one element's k hashes, from one gather of four rows
      (``_hash_one``), which ``key_one`` and the per-op insert share;
    - a block of elements' hashes (``_hashes``), which ``keys_many`` and
      ``keys_at`` key;
    - the prefix scan (``_prefixes``): the top 16 bits of a block of
      elements' hashes, from a (4, 256, k) uint16 table (512 KiB at
      k=256) built on first use (``_prefix_tables``). ``min_hashes`` and
      ``_keys_below`` run it, then key exactly only the pairs that pass
      (``_pair_keys``).
    """

    __slots__ = ("k", "master_seed", "tables", "_packed", "_prefix")

    def __init__(self, k: int, master_seed: int):
        if k < 1:
            raise ValueError(f"family size k must be >= 1, got {k}")
        if not 0 <= master_seed < (1 << 64):
            raise ValueError("master_seed must fit in 64 bits")
        tables = np.empty((k, 8, 16), dtype=np.uint32)
        for i in range(k):
            tables[i] = _tables_from_seed(derive_seed(master_seed, i))
        self._adopt(tables, master_seed)

    def _adopt(self, tables: np.ndarray, master_seed: int) -> None:
        # Takes (k, 8, 16) uint32 tables as the family's, read-only, with
        # every table derived from them left to build on first use. Tests
        # build families of crafted tables through it.
        tables.setflags(write=False)
        self.k = tables.shape[0]
        self.master_seed = int(master_seed)
        self.tables = tables
        self._packed = self._prefix = None

    @property
    def family_key(self) -> tuple:
        """Identity token carried by signatures for compatibility checks."""
        return (self.master_seed, self.k)

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

    def _prefix_tables(self) -> np.ndarray:
        """(4, 256, k) uint16: the top 16 bits of ``_byte_tables()``.

        As tabulation is a plain XOR, XORing the four entries an element's
        bytes select gives the top 16 bits of all k of its hashes, which is
        the prefix ``_keys_below`` tests against its bounds'.
        """
        if self._prefix is None:
            self._prefix = (self._byte_tables() >> np.uint32(16)).astype(np.uint16)
        return self._prefix

    def _hash_one(self, x: int) -> np.ndarray:
        """The k uint32 hashes of one element x in [0, 2^32), shape (k,)."""
        p = self._byte_tables()
        h = p[0, x & 255] ^ p[1, (x >> 8) & 255]
        h ^= p[2, (x >> 16) & 255]
        h ^= p[3, x >> 24]
        return h

    def key_one(self, x: int) -> np.ndarray:
        """All k pair keys (hash << 32 | x) of one element, shape (k,)."""
        if not 0 <= x < MAX_UNIVERSE:
            raise ValueError(f"element {x} outside 32-bit universe")
        key = np.left_shift(self._hash_one(x), 32, dtype=np.uint64)
        key |= np.uint64(x)
        return key

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
        Elements are checked as ``as_element_set`` checks them.
        """
        xs = _as_elements(xs)
        out = np.empty((self.k, xs.size), dtype=np.uint64)
        step = max(1, _GATHER_KEYS // self.k)
        for start in range(0, xs.size, step):
            out[:, start:start + step] = self._hashes(xs[start:start + step]).T
        out <<= np.uint64(32)
        out |= xs
        return out.T

    def _prefixes(self, byte) -> np.ndarray:
        """(m, k) uint16: the top 16 bits of the k hashes of each of m
        elements, from their bytes ``byte`` ((4, m), ``_element_bytes``).

        As tabulation is a plain XOR, the top 16 bits of a hash are the XOR
        of the four ``_prefix_tables`` entries its element's bytes select.
        This is the one prefix scan: ``_keys_below`` and ``min_hashes`` key
        in full only the pairs whose prefix passes it.
        """
        q = self._prefix_tables()
        top = q[0][byte[0]]
        for t in (1, 2, 3):
            top ^= q[t][byte[t]]
        return top

    def _pair_keys(self, xs, byte, j, fn) -> np.ndarray:
        """uint64 keys of the pairs (``xs[j]``, function ``fn``) for index
        arrays ``j`` and ``fn``, gathered exactly from the flat byte tables;
        ``byte`` holds the bytes of ``xs`` (``_element_bytes``)."""
        k = self.k
        flat = self._byte_tables().reshape(-1)
        h = flat[byte[0, j] * k + fn]
        for t in (1, 2, 3):
            h ^= flat[(byte[t, j] + 256 * t) * k + fn]
        keys = np.left_shift(h, 32, dtype=np.uint64)
        keys |= xs[j]
        return keys

    def _keys_below(self, xs, bound, cap=None):
        """(fn, keys): the pair keys of ``xs`` (nonempty, uint64) under each
        function i that are <= ``bound[i]`` (uint64, one per function),
        ordered by fn, then by element; None as soon as more than ``cap``
        pairs pass the prefix test, when a cap is given.

        A hash whose top 16 bits (``_prefixes``) are at most the bound's
        passes every key at or below it, and the few above it that share
        its top bits, so only the pairs that pass are keyed and compared in
        full. Prefixes are gathered 2^17 at a time (256 KiB), a block that
        stays in cache, so the scan holds a few bytes per element of ``xs``
        beyond the pairs that pass. A merge into rows that hold keys runs
        here, and so does a fill of empty rows, on one bound drawn from the
        size of ``xs`` with a cap that bounds the memory for a family whose
        hashes crowd under it.
        """
        k = self.k
        limit = (bound >> np.uint64(48)).astype(np.uint16)
        byte = _element_bytes(xs)
        step = max(1, _GATHER_KEYS // k)
        hits, passed = [], 0
        for start in range(0, xs.size, step):
            hits.append(np.flatnonzero(self._prefixes(byte[:, start:start + step]) <= limit) + start * k)
            passed += hits[-1].size
            if cap is not None and passed > cap:
                return None
        # Function-major flat indices sort into (function, element) order.
        j, fn = np.divmod(np.concatenate(hits), k)
        fn, j = np.divmod(np.sort(fn * xs.size + j), xs.size)
        keys = self._pair_keys(xs, byte, j, fn)
        below = keys <= bound[fn]
        return fn[below], keys[below]

    def keys_at(self, xs) -> np.ndarray:
        """Pair keys of ``xs[i, j]`` under function i, for a (k, m) array xs."""
        xs = np.asarray(xs, dtype=np.uint64)
        out = np.left_shift(self._hashes(xs, np.arange(self.k)[:, None]), 32, dtype=np.uint64)
        out |= xs
        return out

    def min_hashes(self, elements) -> np.ndarray:
        """Per-function minimum of (hash, element) keys over ``elements``.

        Returns the k minima as uint64 keys (hash in the high 32 bits);
        empty input returns an all-sentinel vector. The elements are
        checked as ``as_element_set`` checks them; their order and repeats
        do not change the minima. They are scanned on 16-bit hash prefixes
        (``_prefixes``), one block of 2^17 at a time (256 KiB of uint16):
        per function, only the pairs whose prefix is at most both the
        block's least and the minimum so far are keyed in full and folded
        into it. Few pairs tie a least prefix, so about k keys are formed
        per block, and no uint32 or uint64 block.
        """
        return self._min_keys(_as_elements(elements))

    def _min_keys(self, xs: np.ndarray) -> np.ndarray:
        """``min_hashes`` of the contiguous uint64 array ``xs``, whose
        elements are checked already (``_as_elements``)."""
        k = self.k
        best = np.full(k, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        step = max(1, _GATHER_KEYS // k)
        for start in range(0, xs.size, step):
            block = xs[start:start + step]
            byte = _element_bytes(block)
            top = self._prefixes(byte)  # (block, k)
            low = top.min(axis=0)
            if start:
                np.minimum(low, (best >> np.uint64(48)).astype(np.uint16), out=low)
            # Element-major flat indices of the pairs at or below the limit.
            j, fn = np.divmod(np.flatnonzero(top <= low), k)
            keys = self._pair_keys(block, byte, j, fn)
            if start or fn.size > k:
                np.minimum.at(best, fn, keys)
            else:  # each function's one least pair of the first block
                best[fn] = keys
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


def new_pairwise(seed: int) -> PairwiseHash:
    """A pairwise-independent function with (a, b) drawn from ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    a = int(rng.integers(1, PairwiseHash.P, dtype=np.uint64))
    b = int(rng.integers(0, PairwiseHash.P, dtype=np.uint64))
    return PairwiseHash(a, b)
