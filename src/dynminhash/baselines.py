"""Reference competitor sketches: Vanilla-MinHash and the BSS counter sketches.

Vanilla-MinHash keeps only the k argmin pairs and recomputes everything via a
recovery query whenever a current argmin is deleted. The BSS sketch keeps a
log2(N) x c^2 counter matrix with O(1) updates and computes signatures from
one level row at query time; the proactive variant additionally maintains a
k-MinHash signature per row so queries are O(k).

The BSS row assignment is a reconstruction: no reference implementation is
available, so each element is placed in exactly one row, chosen as the
trailing-zero count of a dedicated pairwise hash (geometric subsampling, one
row touched per update). Whether the original scheme touches one row or a
prefix of rows cannot be settled from the published description.
"""

from __future__ import annotations

import struct

import numpy as np

from . import _kernels
from .core import _LOW, _SHIFT, TOP, Signature, _as_element_array, _recover
from .errors import EmptyRowError, EmptySetError, IllegalStreamError
from .hashing import MAX_UNIVERSE, HashFamily, derive_seed, new_pairwise

#: Row-selection constant for signature queries on the counter sketches.
ALPHA = 0.1


class VanillaSketch:
    """Baseline: the k current argmin pairs, rebuilt from scratch on faults."""

    __slots__ = ("family", "_entries", "fault_count", "recovery_elements_streamed")

    def __init__(self, family: HashFamily):
        self.family = family
        self._entries = np.full(family.k, TOP, dtype=np.uint64)
        self.fault_count = 0
        self.recovery_elements_streamed = 0

    @classmethod
    def init(cls, elements, family: HashFamily) -> "VanillaSketch":
        sketch = cls(family)
        sketch._entries = family.min_hashes(_as_element_array(elements))
        return sketch

    def insert(self, x: int) -> None:
        if not 0 <= x < MAX_UNIVERSE:
            raise ValueError(f"element {x} outside 32-bit universe")
        if _kernels.ENABLED:
            _kernels.vanilla_insert_op(self.family._byte_tables(), np.uint64(x), self._entries)
            return
        np.minimum(self._entries, self.family.key_one(x), out=self._entries)

    def delete(self, x: int, recover) -> None:
        """Drop x; one recovery query and a full recompute if x is any argmin.

        As in ``BufferedSketch.delete``, a failed or stale recovery raises
        RecoveryError and keeps the pre-delete state.
        """
        if not 0 <= x < MAX_UNIVERSE:
            raise ValueError(f"element {x} outside 32-bit universe")
        entries = self._entries
        if _kernels.ENABLED:
            if not _kernels.vanilla_is_argmin(entries, np.uint64(x)):
                return
        elif not ((entries & _LOW) == np.uint64(x)).any():
            return
        # All TOP is the empty sketch. Only x = 2^32-1 hits TOP's low bits,
        # so the test waits for a hit, where it tells empty from a genuine
        # TOP key.
        if (entries == TOP).all():
            return
        recovered = _recover(recover, x)
        self.fault_count += 1
        self.recovery_elements_streamed += int(recovered.size)
        self._entries = self.family.min_hashes(recovered)

    def signature(self) -> Signature:
        if (self._entries == TOP).all():
            raise EmptySetError("signature undefined for an empty set")
        return Signature(self._entries >> _SHIFT, self.family.family_key)

    MAGIC = b"VMH1"

    def to_bytes(self) -> bytes:
        head = struct.pack("<IQ", self.family.k, self.family.master_seed)
        return self.MAGIC + head + self._entries.astype("<u8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, family: HashFamily | None = None) -> "VanillaSketch":
        if data[:4] != cls.MAGIC:
            raise ValueError("bad magic: not a vanilla-sketch checkpoint")
        if len(data) < 16:
            raise ValueError("corrupt checkpoint: truncated header")
        k, seed = struct.unpack_from("<IQ", data, 4)
        if len(data) != 16 + 8 * k:
            raise ValueError(f"corrupt checkpoint: {len(data)} bytes, k={k} implies {16 + 8 * k}")
        if family is None:
            family = HashFamily(k, seed)
        elif family.k != k or family.master_seed != seed:
            raise ValueError("supplied family does not match the checkpoint")
        entries = np.frombuffer(data, dtype="<u8", count=k, offset=16).astype(np.uint64)
        # All TOP (empty) or every entry a genuine key of its own element.
        genuine = family.keys_at(entries[:, None] & _LOW)[:, 0] == entries
        if not (genuine.all() or (entries == TOP).all()):
            raise ValueError("corrupt checkpoint: an entry is not its function's key of its element")
        sketch = cls(family)
        sketch._entries = entries
        return sketch


def _trailing_zeros32(v: int) -> int:
    return 32 if v == 0 else (v & -v).bit_length() - 1


class BssSketch:
    """Counter-matrix sketch: rows of c^2 counters, one row per element level.

    Updates are O(1); a signature query hashes the nonzero cells of the row
    matching the current set size (row floor(log2(ALPHA * n)), clamped)
    under the sketch's family. Handles legal streams only: decrementing an
    empty cell raises.
    """

    __slots__ = ("c2", "family", "rows", "level_seed", "h1", "h2", "counters", "n")

    def __init__(self, c2: int, family: HashFamily, universe_bits: int = 32, seed: int = 0):
        if c2 < 1:
            raise ValueError("c2 must be >= 1")
        if not 1 <= universe_bits <= 32:
            raise ValueError("universe_bits must be in [1, 32]")
        self.c2 = int(c2)
        self.family = family
        self.rows = int(universe_bits)
        self.level_seed = int(seed)
        self.h1 = new_pairwise(derive_seed(seed, 1))  # level selection
        self.h2 = new_pairwise(derive_seed(seed, 2))  # cell selection
        self.counters = np.zeros((self.rows, self.c2), dtype=np.int64)
        self.n = 0

    def _place(self, x: int) -> tuple:
        level = min(_trailing_zeros32(self.h1(x, 1 << 32)), self.rows - 1)
        return level, self.h2(x, self.c2)

    def update(self, x: int, op: int) -> tuple:
        """Apply one legal update; returns (row, cell, new counter value)."""
        if op not in (1, -1):
            raise ValueError("op must be +1 or -1")
        if not 0 <= x < MAX_UNIVERSE:
            raise ValueError(f"element {x} outside 32-bit universe")
        level, cell = self._place(x)
        if op == -1 and self.counters[level, cell] == 0:
            raise IllegalStreamError(f"delete of element {x} hit an empty cell")
        self.counters[level, cell] += op
        self.n += op
        return level, cell, int(self.counters[level, cell])

    def insert(self, x: int) -> None:
        self.update(x, 1)

    def delete(self, x: int, recover=None) -> None:
        """Drop x in O(1); ``recover`` is never called (the counters suffice)."""
        self.update(x, -1)

    def query_row(self) -> int:
        if self.n < 1:
            raise EmptySetError("signature undefined for an empty set")
        level = int(np.floor(np.log2(ALPHA * self.n))) if ALPHA * self.n >= 1 else 0
        return min(max(level, 0), self.rows - 1)

    def signature(self) -> Signature:
        """k-MinHash of the selected row's nonzero cells, O(k * c^2)."""
        row = self.query_row()
        cells = np.flatnonzero(self.counters[row])
        if cells.size == 0:
            raise EmptyRowError(f"row {row} selected for n={self.n} holds no elements")
        return Signature(self.family.min_hashes(cells) >> _SHIFT, self.family.family_key)

    MAGIC = b"BSS1"

    def to_bytes(self) -> bytes:
        head = struct.pack("<IIQq", self.c2, self.rows, self.level_seed, self.n)
        return self.MAGIC + head + self.counters.astype("<i8").tobytes()

    @classmethod
    def from_bytes(cls, data: bytes, family: HashFamily) -> "BssSketch":
        """Restore a checkpoint; the family is not stored and is supplied.

        Raises ValueError for a truncated checkpoint, a negative counter or
        a header size n that differs from the counter total.
        """
        if data[:4] != cls.MAGIC:
            raise ValueError("bad magic: not a counter-sketch checkpoint")
        if len(data) < 28:
            raise ValueError("corrupt checkpoint: truncated header")
        c2, rows, seed, n = struct.unpack_from("<IIQq", data, 4)
        if len(data) != 28 + 8 * rows * c2:
            raise ValueError(f"corrupt checkpoint: {len(data)} bytes, rows={rows} and "
                             f"c2={c2} imply {28 + 8 * rows * c2}")
        flat = np.frombuffer(data, dtype="<i8", count=rows * c2, offset=28).astype(np.int64)
        if (flat < 0).any():
            raise ValueError("corrupt checkpoint: negative counter")
        total = sum(flat.tolist())  # Python ints: a forged total cannot wrap
        if total != n:
            raise ValueError(f"corrupt checkpoint: n={n} but the counters total {total}")
        sketch = cls(c2, family, rows, seed)
        sketch.counters = flat.reshape(rows, c2)
        sketch.n = n
        return sketch


class BssProactiveSketch(BssSketch):
    """Counter sketch that also maintains a k-MinHash signature per row.

    Cell transitions 0->1 update the row signature incrementally; transitions
    1->0 that remove a current argmin force a recompute of that row's
    signature from its nonzero cells (counted as a fault).
    """

    __slots__ = ("row_sigs", "fault_count")

    def __init__(self, c2: int, family: HashFamily, universe_bits: int = 32, seed: int = 0):
        super().__init__(c2, family, universe_bits, seed)
        self.row_sigs = np.full((self.rows, family.k), TOP, dtype=np.uint64)
        self.fault_count = 0

    def update(self, x: int, op: int) -> tuple:
        row, cell, count = super().update(x, op)
        sig = self.row_sigs[row]
        if op == 1 and count == 1:
            np.minimum(sig, self.family.key_one(cell), out=sig)
        elif op == -1 and count == 0:
            if ((sig & _LOW) == np.uint64(cell)).any():
                self.fault_count += 1
                sig[:] = self.family.min_hashes(np.flatnonzero(self.counters[row]))
        return row, cell, count

    @classmethod
    def from_bytes(cls, data: bytes, family: HashFamily) -> "BssProactiveSketch":
        """Load a ``BSS1`` checkpoint, recomputing every row signature.

        A maintained row signature is always the minimum over the row's
        nonzero cells, so recomputing it from the counters is exact.
        """
        sketch = super().from_bytes(data, family)
        for row in range(sketch.rows):
            sketch.row_sigs[row] = family.min_hashes(np.flatnonzero(sketch.counters[row]))
        return sketch

    def signature(self) -> Signature:
        """The maintained signature of the selected row, O(k)."""
        row = self.query_row()
        sig = self.row_sigs[row]
        if sig[0] == TOP:
            raise EmptyRowError(f"row {row} selected for n={self.n} holds no elements")
        return Signature(sig >> _SHIFT, self.family.family_key)
