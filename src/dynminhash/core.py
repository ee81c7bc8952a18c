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
import sys
from bisect import bisect_left
from functools import lru_cache
from itertools import chain
from operator import index

import numpy as np

from .errors import EmptySetError, RecoveryError
from .hashing import MAX_UNIVERSE, HashFamily, _as_elements, _sorted_set, as_element_set

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

#: ``insert`` queues its element, and every read of the state first flushes
#: the queue. A flush of fewer than _MERGE_MIN pending inserts runs the
#: per-op insert on each; a longer one is merged in one vectorised pass
#: (``BufferedSketch._merge``). Measured at k=256, ell=32 on a 2-vCPU host
#: (median of 15 flushes of fresh elements, two runs, the same state either
#: way), per-op against merged: a run of 16 into a set of 1024 elements took
#: 0.24-0.40 against 0.28-0.42 ms, and a run of 32 0.45-0.79 against
#: 0.29-0.44 ms; into a set of 2^14, a run of 32 took 0.15 against 0.26-0.28
#: ms and a run of 64 0.30-0.41 against 0.31-0.37 ms. So the merge wins
#: from about 16 elements at 1024 and 48-64 at 2^14. A merge also drops the
#: element index, which the next delete rebuilds in 0.85-1.3 ms (1024) to
#: 1.7-2.1 ms (2^14). With that rebuild, a merged run of 64 into 1024
#: elements costs 1.25-1.4 ms, against 1.15-1.25 ms per-op while the index
#: is kept up. That is why 64 still keeps the short runs of interleaved
#: inserts and deletes on the per-op path. Into empty rows a run of any
#: length is merged: there every row admits every element, so the per-op
#: insert shifts a key into all k rows. Runs of 1, 8 and 63 into empty rows
#: took 0.21, 1.9 and 14.9 ms per-op against 0.06, 0.08 and 0.25 ms merged
#: (k=256, ell=32, same host, median of 15), with no index to drop.
_MERGE_MIN = 64

#: ``insert`` flushes once this many inserts are pending, and ``_merge``
#: hashes at most this many elements at a time, which bounds the (k, n) key
#: array of every bulk path (8 MiB at k=256). Replaying six churn streams
#: (2^15 inserts, then their deletes; k=256, ell=32; same host), caps from
#: 1024 to 8192 gave insert phases of 31-57 ms, within the host's noise of
#: each other, against 239-435 ms per-op. The peak RSS of that replay rose
#: with the cap, 47.3 MB at 1024, 50.0 at 2048, 53.7 at 4096 and 61.9 at
#: 8192, against 53.3 MB per-op, whose fault rebuilds run here too.
_PENDING_CAP = 4096

#: A fill of empty rows (``BufferedSketch._fill``: ``init``, a fault's
#: rebuild, a flush into rows that hold the whole set) of n >= _BOUND_MIN *
#: ell elements keys only the pairs at or below one bound; a smaller one
#: keys all the pairs of its first _PENDING_CAP elements and partitions
#: them. The bound's prefix scan and its grouping cost more than keying
#: everything on small sets. Measured at k=256 on a 2-vCPU host (median of
#: 4 families x 7 fills, alternated), keyed in full against bounded: at
#: ell=32, 1.05 against 1.54 ms at 640 elements, 1.58 against 1.66 at
#: 1100, 1.85-2.09 against 1.81-2.20 at 1280 and 2.27 against 1.88 at
#: 1600, so the crossover is at 1200-1300 elements. It falls later per
#: unit of ell at small ell, where the bound's fixed cost weighs more:
#: about 450 elements at ell=8 (0.65 against 0.71 ms at 400, 0.91 against
#: 0.79 at 600) and 240 at ell=2 (0.34-0.39 against 0.38-0.50 ms at 160,
#: 0.54-0.60 against 0.48-0.59 at 320).
_BOUND_MIN = 40


def _rows(buf: np.ndarray, size: np.ndarray, delta: np.ndarray) -> tuple:
    """A sketch's rows as ``BufferedSketch._set_rows`` takes them: the
    (k, ell) keys, the k sizes and the k thresholds, then the views of them
    that the stream ops index."""
    # Flat views of the same memory: indexing them reads and writes Python
    # ints, without a numpy call. Then the hash of each threshold, a
    # strided view of its most significant uint32 word, so it follows every
    # write to delta.
    hi = 1 if sys.byteorder == "little" else 0
    return (buf, size, delta, memoryview(buf).cast("B").cast("Q"),
            memoryview(size).cast("B").cast("q"), memoryview(delta).cast("B").cast("Q"),
            delta.view(np.uint32)[hi::2])


@lru_cache(maxsize=None)
def _empty_rows(k: int, ell: int) -> tuple:
    """The rows of a sketch that holds no key, shared by every such sketch
    of (k, ell) and read-only: all TOP, sizes 0, thresholds TOP. A write
    to them raises; ``_merge`` and ``from_bytes`` take private rows first
    (``BufferedSketch._own_rows``). Kept for the life of the process:
    k * ell * 8 bytes, and 16 * k more, for each (k, ell) in use."""
    buf = np.full((k, ell), TOP, dtype=np.uint64)
    size = np.zeros(k, dtype=np.int64)
    delta = np.full(k, TOP, dtype=np.uint64)
    for a in (buf, size, delta):
        a.setflags(write=False)
    return _rows(buf, size, delta)


def _recover(recover, x: int) -> np.ndarray:
    """The elements ``recover()`` returns after x's delete faulted, checked
    by ``as_element_set``.

    A fault means x was present, so a set that still holds x comes from a
    stale store; rebuilding from it would keep x silently.
    """
    try:
        recovered = as_element_set(recover())
    except Exception as exc:
        raise RecoveryError(f"recovery query failed during delete: {exc}") from exc
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

    Inserts are deferred: each is validated at once and applied when the
    state is next read (``delete``, ``signature``, ``to_bytes``,
    ``check_invariants``) or when _PENDING_CAP are pending.
    ``init`` of fewer than _PENDING_CAP elements queues them as their
    checked uint64 array, which the first insert turns into a list. Until
    its first write a sketch holds no rows of its own: it reads the empty
    rows that every sketch of its (k, ell) shares (``_empty_rows``), and a
    fault that recovers the empty set returns to them. While the rows are
    empty, ``signature`` reads the pending elements' minimum instead
    (``HashFamily.min_hashes``) and leaves them queued, so a set that is
    built and only read never fills its rows: at 300 elements, k=256 and
    ell=32 it holds its 2.4 KB array and k signature values, not 64 KiB
    of rows. ``is_empty`` reads the queue and row 0's size. Empty rows are
    filled (``_fill``) by keying only the pairs under one bound with a
    margin, or, for a small
    set or a rare short row, every pair of the first _PENDING_CAP elements.
    A delete updates the element index and the row sizes at once, but
    queues the removal of x's keys from their rows, which the next flush
    applies before the pending inserts and a fault discards (its rebuild
    replaces every row). A read can therefore write, so even read-only
    calls on one sketch must not run concurrently; distinct sketches may
    share one immutable HashFamily, and their read-only empty rows, across
    threads.
    """

    __slots__ = (
        "family", "ell", "_buf", "_size", "_delta",
        "_bufv", "_sizev", "_deltav", "_dhash", "_pending", "_dropped", "_where", "_read",
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

    def _set_rows(self, rows: tuple) -> None:
        """Adopt ``rows``, a ``_rows`` tuple, as the sketch's rows."""
        (self._buf, self._size, self._delta,
         self._bufv, self._sizev, self._deltav, self._dhash) = rows

    def _own_rows(self) -> None:
        """Give the sketch private copies of the shared empty rows, before
        it writes into them; rows it owns already are kept."""
        if not self._buf.flags.writeable:
            self._set_rows(_rows(self._buf.copy(), self._size.copy(), self._delta.copy()))

    def _set_empty(self):
        self._set_rows(_empty_rows(self.family.k, self.ell))
        # Inserts not yet applied: a list of ints, or init's checked array,
        # which only ever meets empty rows.
        self._pending = []
        # Queued removals, flat: each deleted element, then its entries
        # from the element index. Holds at most k * ell entries, since each
        # one is a key still in a row that the index no longer lists.
        self._dropped = []
        self._where = None
        # (count, values): the signature values of the first count pending
        # elements, as the last read of empty rows took them; TOP, above
        # every hash, stands for none. Rows only turn empty here, and until
        # they hold keys the pending list only grows, so a read hashes only
        # the elements past count.
        self._read = (0, TOP)

    @classmethod
    def init(cls, elements, family: HashFamily, ell: int) -> "BufferedSketch":
        """Build the sketch of ``elements`` from scratch.

        Duplicate elements are tolerated and deduplicated; elements are
        checked as ``hashing.as_element_set`` checks them. A set of fewer
        than _PENDING_CAP elements is queued as pending inserts, kept as
        the checked uint64 array, unsorted and with its repeats (2.4 KB for
        300 elements), with no rows of its own; the first write or state
        read merges it into the empty rows, where the flush sorts it and
        drops repeats, leaving the bits an immediate merge leaves. A larger
        one is filled by ``_merge`` at once, keying only the pairs under one
        bound, in 2^17-pair blocks, when it has at least _BOUND_MIN * ell
        elements. The merge's working memory is some 40 bytes per element
        plus one block: a traced peak of 3.5 MiB for 2^16 elements at
        k=256, ell=32.
        """
        sketch = cls(family, ell)
        xs = _as_elements(elements)
        if xs.size < _PENDING_CAP:
            # A copy when xs is the caller's array, so later writes to it
            # never reach the queue.
            sketch._pending = xs.copy() if xs is elements or xs.base is not None else xs
        else:
            sketch._merge(_sorted_set(xs))
        return sketch

    # -- stream operations -------------------------------------------------

    def _index_arrays(self) -> tuple:
        """(elements, entries): one pair per buffered key, ordered by
        element and, within an element, by row; an entry is as
        ``_element_index`` stores it."""
        in_size = np.arange(self.ell)[None, :] < self._size[:, None]
        held = self._buf[in_size]  # in row order
        # One sort of (element, place in held), packed in 64 bits while
        # held has fewer than 2^32 keys; the place keeps each element's
        # rows in order.
        order = np.sort((held << _SHIFT) | np.arange(held.size, dtype=np.uint64)) & _LOW
        rows = in_size.nonzero()[0].astype(np.uint64)[order]
        held = held[order]
        return held & _LOW, (held & ~_LOW) | rows

    def _element_index(self) -> dict:
        """Each buffered element -> its row entries, in row order.

        An entry is the row's stored key with its low 32 bits (the element,
        which the dict key holds) replaced by the row number, so ``delete``
        reads both the row and x's key there: row ``e & 0xFFFFFFFF``, key
        ``e ^ row | x``. ``delete`` reads this index (``_where``) instead of
        testing all k thresholds. It holds at most k * ell entries and is
        built at the first delete after ``_set_empty`` or ``_merge``, which
        drop it, so ``init`` and bulk inserts never pay for it; the per-op
        insert keeps it exact, and a delete moves x's entries to the removal
        queue. Both callers that drop it leave that queue empty, so the
        rows it is built from hold no deleted key.

        Built from ``_index_arrays``: elements that one row holds, most of
        them, go in at once, and only those of several rows are looped.
        """
        xs, es = self._index_arrays()
        # first[j]: xs[j] starts its element's run; first[j + 1]: xs[j] ends it.
        first = np.empty(xs.size + 1, dtype=bool)
        first[0] = first[-1] = True
        np.not_equal(xs[1:], xs[:-1], out=first[1:-1])
        alone = first[:-1] & first[1:]
        where = dict(zip(xs[alone].tolist(), es[alone, None].tolist()))
        several = ~alone
        if several.any():
            starts = np.flatnonzero(first[:-1][several]).tolist()
            xs, es = xs[several].tolist(), es[several].tolist()
            for a, b in zip(starts, starts[1:] + [len(xs)]):
                where[xs[a]] = es[a:b]
        return where

    def _candidates(self, x: int) -> list:
        """(i, key) for each function i whose threshold may admit x, with key
        x's exact pair key under function i, in function order.

        A function passes when x's hash (``HashFamily._hash_one``) is at
        most its threshold's (``_dhash``). A key whose hash equals the
        threshold's can still exceed it, on the element, so callers compare
        the full key. Empty (the common case once buffers fill) when no
        function passes.
        """
        h = self.family._hash_one(x)
        fns = (h <= self._dhash).nonzero()[0]
        if not fns.size:
            return []
        return [(i, hi << 32 | x) for i, hi in zip(fns.tolist(), h[fns].tolist())]

    def insert(self, x: int) -> None:
        """Add element x. A no-op (bit-identical state) if x is tracked already.

        x is checked here and applied at the next flush (see the class
        docstring).
        """
        x = index(x)  # hashing.as_element, inlined: a call costs ~55 ns per op
        if not 0 <= x < MAX_UNIVERSE:
            raise ValueError(f"element {x} outside 32-bit universe")
        pending = self._pending
        try:
            pending.append(x)
        except AttributeError:  # init's array: listed, in order, at the first insert
            pending = self._pending = pending.tolist()
            pending.append(x)
        if len(pending) >= _PENDING_CAP:
            self._flush()

    def _flush(self) -> None:
        """Apply the queued removals, then the pending inserts, in order:
        fewer than _MERGE_MIN into rows that hold keys one by one, any
        other run by ``_merge``.

        Every delete flushes the inserts before it, so the queued removals
        all precede them. A row's size already counts its queued removals,
        so each key is searched for and shifted out over the whole row,
        whose TOP padding sorts after it.
        """
        dropped = self._dropped
        if dropped:
            ell, buf = self.ell, self._bufv
            pairs = iter(dropped)
            for x, entries in zip(pairs, pairs):
                for e in entries:
                    i = e & 0xFFFFFFFF
                    hi = (i + 1) * ell
                    pos = bisect_left(buf, e ^ i | x, hi - ell, hi)
                    buf[pos:hi - 1] = buf[pos + 1:hi]
                    buf[hi - 1] = _TOP_INT
            dropped.clear()
        pending = self._pending
        if not len(pending):
            return
        self._pending = []
        if len(pending) < _MERGE_MIN and self._sizev[0]:
            for x in pending:
                self._insert_one(x)
        else:  # insert and init checked each element
            self._merge(_sorted_set(np.asarray(pending, dtype=np.uint64)))

    def _merge(self, xs: np.ndarray) -> None:
        """Insert the elements ``xs`` (``as_element_set`` output: sorted,
        no repeats) at once, leaving the state that inserting them one by
        one leaves. ``init`` of a large set, a fault's rebuild, a long flush
        and a flush into empty rows run here, each with no removal queued.
        It is the one writer of empty rows, so it first takes private rows
        in place of the shared ones (``_own_rows``).

        During inserts a threshold only falls, and a row that fills keeps
        its smallest keys. So row i ends as the smallest min(ell, .) of its
        keys and the new keys at or below its threshold at the start, and
        a row that ends full takes its last key as threshold. That gives
        two regimes. While every threshold is TOP, every row holds the
        whole set, so the rows are refilled from empty (``_fill``) with the
        union of row 0's elements and ``xs``: at once under one margined
        bound, or, on the fill's one fallback, from the first _PENDING_CAP
        elements. Otherwise, and for the blocks of _PENDING_CAP elements
        that fallback leaves, only the keys at or below the thresholds are
        built (``HashFamily._keys_below``) and merged into the rows.
        """
        self._where = None
        self._own_rows()
        k, ell, size, delta = self.family.k, self.ell, self._size, self._delta
        if (delta == TOP).all():
            if self._sizev[0]:
                xs = _sorted_set(np.concatenate((self._buf[0, :self._sizev[0]] & _LOW, xs)))
            xs = self._fill(xs)
        for start in range(0, xs.size, _PENDING_CAP):
            fn, keys = self.family._keys_below(xs[start:start + _PENDING_CAP], delta)
            # The sort below cannot tell a TOP key from padding. One is either
            # buffered as a row's last key, or it is x = 2^32 - 1 entering a
            # row whose threshold is TOP.
            top = self._buf[np.arange(k), size - 1] == TOP
            top[fn[keys == TOP]] = True
            rows = np.concatenate((self._buf, self._by_row(fn, keys)), axis=1)
            rows.sort(axis=1)
            rows[:, 1:][rows[:, 1:] == rows[:, :-1]] = TOP  # a key already buffered
            rows.sort(axis=1)
            self._buf[:] = rows[:, :ell]
            size[:] = np.minimum((self._buf != TOP).sum(axis=1) + top, ell)
            full = size == ell
            delta[full] = self._buf[full, ell - 1]
            del fn, keys, rows  # freed before the next block is keyed

    def _fill(self, xs: np.ndarray) -> np.ndarray:
        """Fill the rows from empty with the smallest keys of ``xs``; returns
        the elements it did not take, for ``_merge``'s blocks. Any key the
        rows held before is overwritten.

        A set of n >= _BOUND_MIN * ell elements goes in at once, keying only
        the pairs under one bound. Hashes are uniform, so each row expects
        mu = (7 ell + 32) / 4 keys at or below the bound B of hash mu / n *
        2^32, and B is far below TOP. When every row has at least ell of
        them, each takes its ell smallest: they are the row's smallest keys,
        whatever the hashes. Simple tabulation obeys Chernoff-type bounds
        (Patrascu and Thorup, "The Power of Simple Tabulation Hashing"), and
        the margin of 8 keys over 7 ell / 4 leaves a row short in at most
        about 5% of the fills at k=256, for every ell up to 64 (Poisson
        model). A pair that passes the prefix test takes about four 8-byte
        words on its way to a key, so the scan gives up past a quarter of a
        block's pairs, _PENDING_CAP * k / 4, against about k * (mu + n /
        2^16) for uniform hashes.

        Any other fill, of a smaller set, with a short row, or from a family
        whose hashes crowd under B (say, all below 2^17), keys all the pairs
        of its first _PENDING_CAP elements and keeps each row's ell
        smallest, a TOP key too.
        """
        family, k, ell, n = self.family, self.family.k, self.ell, xs.size
        rows = None
        if n >= _BOUND_MIN * ell:
            bound = (((7 * ell + 32) << 32) // (4 * n)) << 32 | 0xFFFFFFFF
            found = family._keys_below(xs, np.full(k, bound, dtype=np.uint64), _PENDING_CAP * k // 4)
            if found is not None and np.bincount(found[0], minlength=k).min() >= ell:
                rows, xs = self._by_row(*found), xs[:0]
        if rows is None:
            rows, xs = family.keys_many(xs[:_PENDING_CAP]).T, xs[_PENDING_CAP:]  # (k, block)
            if rows.shape[1] > ell:
                rows.partition(ell - 1, axis=1)
                rows = rows[:, :ell]
        rows.sort(axis=1)
        self._buf[:, :rows.shape[1]] = rows
        self._buf[:, rows.shape[1]:] = TOP
        self._size[:] = rows.shape[1]
        if rows.shape[1] == ell:
            self._delta[:] = rows[:, ell - 1]
        return xs

    def _by_row(self, fn: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """The pairs (fn, keys), ordered by fn, as a (k, m) array padded
        with TOP: row i holds function i's keys, at most the ell smallest."""
        counts = np.bincount(fn, minlength=self.family.k)
        out = np.full((self.family.k, counts.max()), TOP, dtype=np.uint64)
        # fn is ordered, so a key's place in its row is its place in fn
        # minus the place where fn's run of that row starts.
        out[fn, np.arange(fn.size) - np.repeat(np.cumsum(counts) - counts, counts)] = keys
        if out.shape[1] > self.ell:
            out.partition(self.ell - 1, axis=1)
            out = out[:, :self.ell]
        return out

    def _insert_one(self, x: int) -> None:
        """Insert x (checked) now: the per-op path.

        The rows that may admit x come from the hash test
        (``_candidates``). The element index, when built, stays exact: x
        gains an entry for each row that admits it, and an element whose key
        drops out of a full row loses that row's entry.
        """
        ell = self.ell
        buf, size, delta = self._bufv, self._sizev, self._deltav
        where, added = self._where, []
        for i, key in self._candidates(x):
            if key > delta[i]:
                continue  # the threshold's hash, but a larger element
            lo = i * ell
            s = size[i]
            pos = bisect_left(buf, key, lo, lo + s)
            if pos < lo + s and buf[pos] == key:
                continue  # pair already buffered
            if s < ell:
                size[i] = s + 1
            else:
                s = ell - 1  # full: the last key drops out
                if where is not None:
                    last = buf[lo + s]
                    y = last & 0xFFFFFFFF
                    entries = where[y]
                    if len(entries) == 1:
                        del where[y]
                    else:
                        entries.remove(last ^ y | i)
            buf[pos + 1:lo + s + 1] = buf[pos:lo + s]
            buf[pos] = key
            added.append(key ^ x | i)
            if s + 1 == ell:  # full after the insert: its last key is the threshold
                delta[i] = buf[lo + s]
        if added and where is not None:
            entries = where.get(x)
            if entries is None:
                where[x] = added
            else:  # x is buffered already: only in a loaded state no stream reaches
                entries += added
                entries.sort(key=lambda e: e & 0xFFFFFFFF)

    def delete(self, x: int, recover) -> None:
        """Remove element x; rebuild via ``recover`` if a buffer would empty.

        ``recover`` is a zero-argument callable returning the current
        (post-deletion) elements of the tracked set, typically bound to the
        authoritative store. It is invoked at most once. If it raises, or
        returns an invalid element (as ``hashing.as_element_set`` checks),
        the error is re-raised as RecoveryError and the sketch keeps its
        pre-delete state and counters, as it does when the returned set
        still holds x (a stale store). Deleting an absent element is a
        no-op.

        The rows that hold x, and x's key in each, come from the element
        index (``_element_index``): an element no row buffers, the common
        case, costs one dict lookup. For a buffered one, the sizes of the
        rows that hold it fall at once and the removal of its keys is queued
        (see the class docstring), so a fault that follows before the next
        read never pays for it.
        """
        x = index(x)  # hashing.as_element, inlined as in insert
        if not 0 <= x < MAX_UNIVERSE:
            raise ValueError(f"element {x} outside 32-bit universe")
        if not self._sizev[0]:
            if not len(self._pending):
                return  # empty set: nothing buffered anywhere
            self._flush()  # the queue may be init's array, which len() reads
        elif self._pending:  # rows that hold keys: a list
            self._flush()
        where = self._where
        if where is None:
            where = self._where = self._element_index()
        entries = where.get(x)
        if entries is None:
            return  # no row holds x
        size = self._sizev
        for e in entries:
            if size[e & 0xFFFFFFFF] == 1:
                self._fault(recover, x)
                return
        del where[x]
        for e in entries:
            size[e & 0xFFFFFFFF] -= 1
        dropped = self._dropped
        dropped.append(x)
        dropped.append(entries)

    def _fault(self, recover, x: int) -> None:
        # Some buffer would empty: one recovery query rebuilds everything,
        # so x's removals and the queued ones are skipped (the rebuild
        # covers them).
        recovered = _recover(recover, x)
        self.recovery_elements_streamed += int(recovered.size)
        self._set_empty()
        if recovered.size:
            self.fault_count += 1
            self._merge(recovered)

    def signature(self) -> Signature:
        """The k-MinHash signature of the tracked set, in O(k) time.

        Rows that hold keys are read in O(k) after a flush. While the rows
        are empty, the signature is the minimum of the n pending elements
        (``HashFamily.min_hashes``), read without a flush. The minimum is
        kept and each read folds in only the elements inserted since the
        last, so a read costs O(k) plus O(k) per new element. ``init`` of a
        300-element set and one read took 0.16-0.26 ms at k=256, ell=32
        (2-vCPU host, median of 101, four processes), against 0.20-0.33 ms
        when ``min_hashes`` reduced full uint32 hash blocks (0.38-0.64 ms
        in a process that had freed no large array before).
        """
        if not self._sizev[0]:  # no removal is queued into empty rows
            pending = self._pending
            if not len(pending):
                raise EmptySetError("signature undefined for an empty set")
            count, values = self._read
            if count < len(pending):
                # insert and init checked each element
                new = np.asarray(pending[count:], dtype=np.uint64)
                values = np.minimum(values, self.family._min_keys(new) >> _SHIFT)
                self._read = (len(pending), values)
            return Signature(values.copy(), self.family.family_key)
        if self._pending or self._dropped:
            self._flush()
        return Signature(self._buf[:, 0] >> _SHIFT, self.family.family_key)

    # -- introspection ------------------------------------------------------

    @property
    def k(self) -> int:
        return self.family.k

    def is_empty(self) -> bool:
        """Whether the tracked set is empty, without a flush: a pending
        insert adds an element, and a delete that would empty a row faults,
        so row 0 is empty only when the set is."""
        return not (len(self._pending) or self._sizev[0])

    def _structure_faults(self) -> list:
        """Violations visible without the tracked set, in O(k * ell).

        Sizes within [0, ell], TOP past each size, strictly sorted rows,
        stored hashes that match their elements, stored keys at or below the
        threshold, a full row's threshold equal to its last key, rows all
        empty (with TOP thresholds) or none empty, and the element index,
        when built, equal to the one the buffers imply.
        """
        self._flush()
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
        if self._where is not None and not self._index_matches():
            bad.append("(internal) the element index differs from the buffers")
        return bad

    def _index_matches(self) -> bool:
        """Whether the built element index equals the one the buffers
        imply, entries and their row order included, without building it:
        the index, flattened and stably sorted by element, against
        ``_index_arrays``."""
        where, (xs, es) = self._where, self._index_arrays()
        sizes = np.fromiter(map(len, where.values()), np.int64, len(where))
        if sizes.sum() != xs.size or not sizes.all():
            return False
        got_x = np.repeat(np.fromiter(where, np.uint64, len(where)), sizes)
        got_e = np.fromiter(chain.from_iterable(where.values()), np.uint64, xs.size)
        order = np.argsort(got_x, kind="stable")
        return np.array_equal(got_x[order], xs) and np.array_equal(got_e[order], es)

    def check_invariants(self, authoritative) -> InvariantReport:
        """Brute-force verification of the structural invariants.

        ``authoritative`` must be the true current contents of the tracked
        set. Checks, for every function i: membership in buffer i is
        equivalent to the pair being at or below the threshold; buffer sizes
        never exceed ell; buffers are empty exactly when the set is; and each
        buffer holds exactly its size's worth of smallest pairs. O(|A| * k),
        fully vectorised so it can run after every op of long streams; the
        set is hashed _PENDING_CAP elements at a time, as ``_merge`` hashes.
        """
        bad = self._structure_faults()
        xs = as_element_set(authoritative)
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
        below = np.zeros(self.family.k, dtype=np.int64)
        for start in range(0, xs.size, _PENDING_CAP):
            below += (self.family.keys_many(xs[start:start + _PENDING_CAP]) <= delta).sum(axis=0)
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
        self._flush()
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
        sketch._own_rows()
        for i, (delta, s, start) in enumerate(rows):
            sketch._buf[i, :s] = np.frombuffer(data, dtype="<u8", count=s, offset=start)
            sketch._size[i] = s
            sketch._delta[i] = delta
        # The stream ops trust the thresholds and row order, so a state no
        # stream can reach is refused here rather than read back wrongly.
        bad = sketch._structure_faults()
        if bad:
            raise ValueError(f"corrupt checkpoint: {bad[0]}")
        return sketch
