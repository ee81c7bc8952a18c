"""The buffered k-MinHash sketch for fully-dynamic streams with recovery.

Each of the k hash functions owns a buffer of at most ``ell`` (hash, element)
pairs together with a threshold pair. The buffers always hold exactly the
pairs at or below their threshold, which are therefore the smallest pairs of
the tracked set, so the signature can be read in O(k) and deletions rarely
force a rebuild.

Pairs are ordered lexicographically: (h(x), x) <= (h(y), y) iff h(x) < h(y),
or h(x) = h(y) and x < y. Internally a pair is packed into one uint64 key
(hash in the high 32 bits, element in the low 32), which makes the
lexicographic order the plain integer order. The all-ones key is the
sentinel TOP, standing for the (+inf, +inf) pair; no real pair exceeds it.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from operator import index

import numpy as np

from . import _kernels
from .errors import EmptySetError, RecoveryError
from .hashing import MAX_UNIVERSE, HashFamily

#: Sentinel key for the (+inf, +inf) pair; compares >= every real pair key.
TOP = np.uint64(0xFFFFFFFFFFFFFFFF)
_TOP_INT = int(TOP)

_SHIFT = np.uint64(32)
_LOW = np.uint64(0xFFFFFFFF)

#: Largest buffer capacity ell a sketch accepts, in the constructor and in
#: a checkpoint header. The paper's ell is O(log |U|) with |U| = 2^32, so
#: 2^16 leaves a wide margin, and it bounds the k * ell * 8 bytes a forged
#: ``BMH1`` header can make ``from_bytes`` allocate.
MAX_ELL = 1 << 16


def make_key(hash_value: int, element: int) -> int:
    """Pack a (hash, element) pair into its uint64 order key."""
    return (int(hash_value) << 32) | int(element)


def split_key(key: int) -> tuple:
    """Unpack a uint64 key back into the (hash, element) pair."""
    key = int(key)
    return key >> 32, key & 0xFFFFFFFF


def _gate_of(delta: np.ndarray) -> int:
    """The threshold gate: lane i (bits 16i..16i+15) holds (delta[i] >> 49) + 1.

    Added to the lanes of 0x7FFF minus the top 15 bits of x's keys
    (``HashFamily._stream_tables``), lane i keeps bit 15 set exactly when
    those bits are <= the threshold's, and no lane carries into the next,
    so one addition tests all k functions.
    """
    lanes = (delta >> np.uint64(49)) + np.uint64(1)
    return int.from_bytes(lanes.astype("<u2").tobytes(), "little")


def _as_element_array(elements) -> np.ndarray:
    if isinstance(elements, np.ndarray):
        return elements.astype(np.uint64, copy=False)
    return np.asarray(list(elements), dtype=np.uint64)


def _recover(recover, x: int) -> np.ndarray:
    """The elements ``recover()`` returns after x's delete faulted.

    A fault means x was present, so a set that still holds x comes from a
    stale store; rebuilding from it would keep x silently.
    """
    try:
        recovered = _as_element_array(recover())
    except Exception as exc:
        raise RecoveryError("recovery query failed during delete") from exc
    if (recovered == np.uint64(x)).any():
        raise RecoveryError(f"stale recovery: the set returned still holds the deleted element {x}")
    return recovered


class InvariantReport:
    """Result of a brute-force invariant check: truthiness plus violations."""

    __slots__ = ("ok", "violations")

    def __init__(self, violations):
        self.violations = list(violations)
        self.ok = not self.violations

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return f"InvariantReport(ok={self.ok}, violations={self.violations!r})"


class Signature:
    """A length-k vector of minimum hash values.

    Carries the identity of the hash family that produced it so that
    estimators can reject comparisons across incompatible signatures.
    """

    __slots__ = ("values", "family_key")

    def __init__(self, values, family_key=None):
        self.values = np.ascontiguousarray(values, dtype=np.uint64)
        self.family_key = family_key

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return (
            self.family_key == other.family_key
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return f"Signature(k={len(self)}, family_key={self.family_key})"


class BufferedSketch:
    """Dynamic sketch of one set: k buffers of at most ``ell`` pairs each.

    Supports insert, delete (with recovery-based rebuild on fault) and O(k)
    signature reads that exactly match a from-scratch computation. Inserting
    a present element or deleting an absent one leaves the state bit
    identical, so arbitrary non-legal streams are safe.

    Single-writer: concurrent mutation is not supported, but distinct
    sketches may share one immutable HashFamily across threads.
    """

    __slots__ = (
        "family", "ell", "_buf", "_size", "_delta",
        "_bufv", "_sizev", "_deltav", "_gate",
        "fault_count", "recovery_elements_streamed",
    )

    def __init__(self, family: HashFamily, ell: int):
        if not 1 <= ell <= MAX_ELL:
            raise ValueError(f"buffer capacity ell must be in [1, {MAX_ELL}], got {ell}")
        self.family = family
        self.ell = int(ell)
        self.fault_count = 0
        self.recovery_elements_streamed = 0
        self._set_empty()

    # -- construction -----------------------------------------------------

    def _set_empty(self):
        k = self.family.k
        self._buf = np.full((k, self.ell), TOP, dtype=np.uint64)
        self._size = np.zeros(k, dtype=np.int64)
        self._delta = np.full(k, TOP, dtype=np.uint64)
        # Flat views of the same memory for the stream ops: indexing them
        # reads and writes Python ints, without a numpy call.
        self._bufv = memoryview(self._buf).cast("B").cast("Q")
        self._sizev = memoryview(self._size).cast("B").cast("q")
        self._deltav = memoryview(self._delta).cast("B").cast("Q")
        self._gate = _gate_of(self._delta)

    @classmethod
    def init(cls, elements, family: HashFamily, ell: int) -> "BufferedSketch":
        """Build the sketch of ``elements`` from scratch.

        Duplicate elements are tolerated and deduplicated. Runs in
        O(|A| * k) time (vectorised), one hash evaluation per (element,
        function) pair.
        """
        sketch = cls(family, ell)
        sketch._rebuild(_as_element_array(elements))
        return sketch

    def _rebuild(self, xs: np.ndarray):
        """Recompute all buffers and thresholds from the element array."""
        xs = np.unique(np.ascontiguousarray(xs, dtype=np.uint64))
        if xs.size and int(xs[-1]) >= MAX_UNIVERSE:
            raise ValueError("element outside 32-bit universe")
        ell = self.ell
        self._set_empty()
        n = xs.size
        if n == 0:
            return
        # (k, n) keys, contiguous along the elements (keys_many stores them
        # function-major), so every per-function selection below runs over
        # contiguous memory.
        keys = self.family.keys_many(xs).T
        if n <= ell:
            keys.sort(axis=1)
            self._buf[:, :n] = keys
            self._size[:] = n
        else:
            keys.partition(ell - 1, axis=1)
            head = keys[:, :ell]
            head.sort(axis=1)
            self._buf[:] = head
            self._size[:] = ell
        if n >= ell:
            self._delta[:] = self._buf[:, ell - 1]
            self._gate = _gate_of(self._delta)

    # -- stream operations -------------------------------------------------

    def _candidates(self, x: int):
        """(i, key) for each function i whose threshold may admit x, with key
        x's exact pair key under function i.

        The gate test is exact for the top 15 bits of every key at once:
        lane i of the sum keeps bit 15 set when the top 15 bits of x's key
        under function i are <= those of threshold i. A key can share its
        top bits with the threshold and still exceed it, so callers compare
        the full key. Empty (the common case once buffers fill) when no lane
        passes.
        """
        lanes, pk, guard = self.family._stream_tables()
        cand = (self._gate + (lanes[x & 255] ^ lanes[256 + ((x >> 8) & 255)]
                              ^ lanes[512 + ((x >> 16) & 255)] ^ lanes[768 + (x >> 24)])) & guard
        if not cand:
            return ()
        k = self.family.k
        b0, b1 = (x & 255) * k, (256 + ((x >> 8) & 255)) * k
        b2, b3 = (512 + ((x >> 16) & 255)) * k, (768 + (x >> 24)) * k
        # A passing lane is byte 0x80 at offset 2i + 1 of cand's bytes and
        # every other byte is 0, so find() walks the lanes at C speed.
        flags = cand.to_bytes(2 * k, "little")
        out = []
        p = flags.find(128)
        while p >= 0:
            i = p >> 1
            out.append((i, (pk[b0 + i] ^ pk[b1 + i] ^ pk[b2 + i] ^ pk[b3 + i]) << 32 | x))
            p = flags.find(128, p + 1)
        return out

    def insert(self, x: int) -> None:
        """Add element x. A no-op (bit-identical state) if x is tracked already."""
        x = index(x)
        if not 0 <= x < MAX_UNIVERSE:
            raise ValueError(f"element {x} outside 32-bit universe")
        if _kernels.ENABLED:
            if _kernels.insert_op(self.family._byte_tables(), np.uint64(x),
                                  self._buf, self._size, self._delta, self.ell):
                self._gate = _gate_of(self._delta)
            return
        ell = self.ell
        buf, size, delta = self._bufv, self._sizev, self._deltav
        gate = None  # the gate's lane bytes, once some threshold moves
        for i, key in self._candidates(x):
            if key > delta[i]:
                continue  # equal top bits only
            lo = i * ell
            s = size[i]
            pos = bisect_left(buf, key, lo, lo + s)
            if pos < lo + s and buf[pos] == key:
                continue  # pair already buffered
            if s < ell:
                size[i] = s + 1
            else:
                s = ell - 1  # full: the last key drops out
            buf[pos + 1:lo + s + 1] = buf[pos:lo + s]
            buf[pos] = key
            if s + 1 == ell:  # full after the insert: its last key is the threshold
                last = buf[lo + s]
                delta[i] = last
                if gate is None:
                    gate = bytearray(self._gate.to_bytes(2 * self.family.k, "little"))
                lane = (last >> 49) + 1
                gate[2 * i] = lane & 255
                gate[2 * i + 1] = lane >> 8
        if gate is not None:
            self._gate = int.from_bytes(gate, "little")

    def delete(self, x: int, recover) -> None:
        """Remove element x; rebuild via ``recover`` if a buffer would empty.

        ``recover`` is a zero-argument callable returning the current
        (post-deletion) elements of the tracked set, typically bound to the
        authoritative store. It is invoked at most once. If it raises, the
        error is re-raised as RecoveryError and the sketch keeps its
        pre-delete state, as it does when the returned set still holds x (a
        stale store). Deleting an absent element is a no-op.
        """
        x = index(x)
        if not 0 <= x < MAX_UNIVERSE:
            raise ValueError(f"element {x} outside 32-bit universe")
        if not self._sizev[0]:
            return  # empty set: nothing buffered anywhere
        if _kernels.ENABLED:
            fault = _kernels.delete_op(self.family._byte_tables(), np.uint64(x),
                                       self._buf, self._size, self._delta)
            if fault:
                self._recover_and_rebuild(recover, x)
            return
        ell = self.ell
        buf, size = self._bufv, self._sizev
        hits = []
        for i, key in self._candidates(x):
            lo = i * ell
            end = lo + size[i]
            pos = bisect_left(buf, key, lo, end)
            if pos < end and buf[pos] == key:
                if end - lo == 1:
                    self._recover_and_rebuild(recover, x)
                    return
                hits.append((i, pos, end))
        for i, pos, end in hits:
            buf[pos:end - 1] = buf[pos + 1:end]
            buf[end - 1] = _TOP_INT
            size[i] -= 1

    def _recover_and_rebuild(self, recover, x: int) -> None:
        # Some buffer would empty: one recovery query rebuilds everything,
        # so per-function removals are skipped (the rebuild covers them).
        recovered = _recover(recover, x)
        if recovered.size:
            self.fault_count += 1
        self.recovery_elements_streamed += int(recovered.size)
        self._rebuild(recovered)

    def signature(self) -> Signature:
        """The k-MinHash signature of the tracked set, in O(k) time."""
        if self._size[0] == 0:
            raise EmptySetError("signature undefined for an empty set")
        return Signature(self._buf[:, 0] >> _SHIFT, self.family.family_key)

    # -- introspection ------------------------------------------------------

    @property
    def k(self) -> int:
        return self.family.k

    def is_empty(self) -> bool:
        return int(self._size[0]) == 0

    def total_buffered(self) -> int:
        """Number of stored pairs across all buffers (at most k * ell)."""
        return int(self._size.sum())

    def buffer_contents(self, i: int):
        """Buffer i as a sorted list of (hash, element) pairs."""
        return [split_key(key) for key in self._buf[i, : int(self._size[i])]]

    def threshold(self, i: int):
        """Threshold pair of buffer i, or None when it is the TOP sentinel."""
        d = self._delta[i]
        return None if d == TOP else split_key(d)

    def _structure_faults(self) -> list:
        """Violations visible without the tracked set, in O(k * ell).

        Sizes within [0, ell], TOP past each size, strictly sorted rows,
        stored hashes that match their elements, stored keys at or below the
        threshold, a full row's threshold equal to its last key, rows all
        empty (with TOP thresholds) or none empty, and the threshold gate
        equal to the one the thresholds imply.
        """
        bad = []
        k, ell = self.family.k, self.ell
        buf, sizes, delta = self._buf, self._size, self._delta
        if sizes.max() > ell or sizes.min() < 0:
            bad.append(f"(ii) buffer size outside [0, ell={ell}]: {sizes.min()}..{sizes.max()}")
        s_clip = np.minimum(sizes, ell)  # guards the vector math if (ii) is violated
        in_size = np.arange(ell)[None, :] < s_clip[:, None]  # valid slots, (k, ell)
        if (buf[~in_size] != TOP).any():
            bad.append("(internal) stale entries past a buffer's size")
        adjacent = in_size[:, 1:] & in_size[:, :-1]
        if ((buf[:, 1:] <= buf[:, :-1]) & adjacent).any():
            bad.append("(internal) some buffer is not strictly sorted")
        if (in_size & (self.family.keys_at(buf & _LOW) != buf)).any():
            bad.append("(i) some buffer stores a key whose hash is not its element's")
        nonempty = s_clip > 0
        last = buf[np.arange(k), np.maximum(s_clip - 1, 0)]
        if ((last > delta) & nonempty).any():
            bad.append("(i) some buffer stores a pair above its threshold")
        if ((last != delta) & (s_clip == ell)).any():
            bad.append("(internal) some full buffer's threshold is not its last key")
        if not nonempty.all():
            if nonempty.any():
                bad.append("(iii) some buffers are empty and some are not")
            elif (delta != TOP).any():
                bad.append("(iii) every buffer is empty but some threshold is not TOP")
        if self._gate != _gate_of(delta):
            bad.append("(internal) the threshold gate differs from the thresholds")
        return bad

    def check_invariants(self, authoritative) -> InvariantReport:
        """Brute-force verification of the structural invariants.

        ``authoritative`` must be the true current contents of the tracked
        set. Checks, for every function i: membership in buffer i is
        equivalent to the pair being at or below the threshold; buffer sizes
        never exceed ell; buffers are empty exactly when the set is; and each
        buffer holds exactly its size's worth of smallest pairs. O(|A| * k),
        fully vectorised so it can run after every op of long streams.
        """
        bad = self._structure_faults()
        xs = np.unique(_as_element_array(authoritative))
        ell = self.ell
        buf, sizes, delta = self._buf, self._size, self._delta
        if xs.size == 0:
            if sizes.any():
                bad.append("(iii) set empty but some buffer is nonempty")
            return InvariantReport(bad)
        if not sizes.all():
            bad.append("(iii) set nonempty but some buffer is empty")
        in_size = np.arange(ell)[None, :] < sizes[:, None]
        if (in_size & ~np.isin(buf & _LOW, xs)).any():
            bad.append("(i) some buffer stores an element outside the tracked set")
        # Exactly the set pairs at or below the threshold are buffered.
        keys = self.family.keys_many(xs)  # (n, k)
        below = (keys <= delta[None, :]).sum(axis=0)
        if (below != sizes).any():
            worst = int(np.flatnonzero(below != sizes)[0])
            bad.append(
                f"(i) buffer {worst} holds {int(sizes[worst])} pairs but "
                f"{int(below[worst])} set pairs are <= its threshold"
            )
        return InvariantReport(bad)

    # -- serialization ------------------------------------------------------

    MAGIC = b"BMH1"

    def to_bytes(self) -> bytes:
        """Versioned little-endian checkpoint of parameters and buffers.

        Layout: magic, k, ell, master seed, then per function the threshold,
        the pair count and the sorted pair keys. Stats counters are not part
        of the checkpoint.
        """
        out = [self.MAGIC, struct.pack("<IIQ", self.family.k, self.ell, self.family.master_seed)]
        for i in range(self.family.k):
            s = int(self._size[i])
            out.append(struct.pack("<QI", int(self._delta[i]), s))
            out.append(self._buf[i, :s].astype("<u8").tobytes())
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: bytes, family: HashFamily | None = None) -> "BufferedSketch":
        """Restore a checkpoint; rebuilds the family from the stored seed.

        Pass ``family`` to share an existing family object; it must match
        the stored (k, seed). Stats counters restart at zero. Raises
        ValueError for a truncated checkpoint or one that fails the O(k * ell)
        structural checks (``_structure_faults``).
        """
        if data[:4] != cls.MAGIC:
            raise ValueError("bad magic: not a buffered-sketch checkpoint")
        if len(data) < 20:
            raise ValueError("corrupt checkpoint: truncated header")
        k, ell, seed = struct.unpack_from("<IIQ", data, 4)
        if not 1 <= ell <= MAX_ELL:
            raise ValueError(f"corrupt checkpoint: ell={ell} outside [1, {MAX_ELL}]")
        # Walk the rows before building anything, so a header that claims
        # more than the data holds fails in O(len(data)).
        rows = []
        off = 20
        for _ in range(k):
            if off + 12 > len(data):
                raise ValueError("corrupt checkpoint: truncated")
            delta, s = struct.unpack_from("<QI", data, off)
            if s > ell:
                raise ValueError("corrupt checkpoint: buffer larger than ell")
            rows.append((delta, s, off + 12))
            off += 12 + 8 * s
        if off > len(data):
            raise ValueError("corrupt checkpoint: truncated")
        if off < len(data):
            raise ValueError("corrupt checkpoint: trailing bytes")
        if family is None:
            family = HashFamily(k, seed)
        elif family.k != k or family.master_seed != seed:
            raise ValueError("supplied family does not match the checkpoint")
        sketch = cls(family, ell)
        for i, (delta, s, start) in enumerate(rows):
            sketch._buf[i, :s] = np.frombuffer(data, dtype="<u8", count=s, offset=start)
            sketch._size[i] = s
            sketch._delta[i] = delta
        sketch._gate = _gate_of(sketch._delta)
        # The stream ops trust the thresholds and row order, so a state no
        # stream can reach is refused here rather than read back wrongly.
        bad = sketch._structure_faults()
        if bad:
            raise ValueError(f"corrupt checkpoint: {bad[0]}")
        return sketch

    def state_equal(self, other: "BufferedSketch") -> bool:
        """Bit-identical comparison of parameters, buffers and thresholds."""
        return (
            self.family.family_key == other.family.family_key
            and self.ell == other.ell
            and np.array_equal(self._size, other._size)
            and np.array_equal(self._delta, other._delta)
            and np.array_equal(self._buf, other._buf)
        )
