import hashlib
import struct
import tracemalloc
from bisect import insort
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynminhash import core
from dynminhash.core import MAX_ELL, TOP, BufferedSketch, Signature
from dynminhash.errors import EmptySetError, RecoveryError
from dynminhash.hashing import HashFamily, as_element_set, new_family
from dynminhash.streams import SetStore, StreamOp

from conftest import ref_signature
from hash_oracles import family_from_tables, nibble_keys
from sketch_reads import (buffer_contents, buffered, split_key, state_equal, threshold,
                          total_buffered)


def test_key_roundtrip():
    key = (0xDEADBEEF << 32) | 0x12345678
    assert split_key(key) == (0xDEADBEEF, 0x12345678)
    assert split_key(TOP) == (0xFFFFFFFF, 0xFFFFFFFF)


class TestInit:
    def test_empty_set(self):
        sk = BufferedSketch.init([], new_family(3, 1), 4)
        assert sk.is_empty()
        assert total_buffered(sk) == 0
        assert all(threshold(sk, i) is None for i in range(3))
        assert sk.check_invariants([]).ok

    def test_not_full_branch(self):
        fam = new_family(1, 2)
        sk = BufferedSketch.init([10, 20, 30], fam, 5)
        assert total_buffered(sk) == 3
        assert threshold(sk, 0) is None
        assert sk.check_invariants([10, 20, 30]).ok

    def test_buffers_equal_bruteforce_smallest(self):
        fam = new_family(4, 7)
        elements = list(range(1000, 1100))
        sk = BufferedSketch.init(elements, fam, 8)
        xs = np.array(elements, dtype=np.uint64)
        keys = fam.keys_many(xs)
        for i in range(4):
            expect = np.sort(keys[:, i])[:8]
            got = [(h << 32) | e for h, e in buffer_contents(sk, i)]
            assert got == expect.tolist()
            assert threshold(sk, i) == split_key(expect[-1])

    def test_duplicates_deduplicated(self):
        fam = new_family(2, 3)
        a = BufferedSketch.init([5, 5, 6, 6, 6], fam, 4)
        b = BufferedSketch.init([5, 6], fam, 4)
        assert state_equal(a, b)

    def test_rejects_bad_ell(self):
        with pytest.raises(ValueError):
            BufferedSketch(new_family(1, 1), 0)

    def test_ell_bound(self):
        fam = new_family(1, 1)
        assert BufferedSketch(fam, MAX_ELL).ell == MAX_ELL
        with pytest.raises(ValueError):
            BufferedSketch(fam, MAX_ELL + 1)

    # SHA-256 of init(xs, new_family(k, k + n), ell).to_bytes() with xs drawn
    # from default_rng(n), duplicated in part where dup is set. The shapes
    # cover n = ell, n < ell, duplicates, k from 1 to 1024 and two gather
    # blocks (k=5, n=40000); any change to the stored bits fails here.
    @pytest.mark.parametrize("k,n,ell,dup,digest", [
        (1, 1, 1, False, "004391174825ab1401d68c7224dcf6fd68de0994188334d78f2a98dde94181d0"),
        (3, 100, 5, True, "42b8f3763aacde3eafb370d678721424b2833d1153f03daebe2b77e7453b9da7"),
        (16, 31, 32, False, "955076c06af71cdd8e545f42512b1cdce5f462c7813bf5eae24364a567febe21"),
        (256, 300, 32, False, "456b3b8026f7fafdbdbb41bb1373e0a30c2acd0765c3a07bb72aae1cd30d52fc"),
        (64, 4096, 16, True, "d36bd3b441e0ba8f7db389d16e11e6c57274060b22ad7ede108db0ed66f75989"),
        (1024, 600, 8, False, "514e1e547e154ababc77d99cb7fd97a811e7d44e918c9dddf00bfe429d803dcb"),
        (5, 40000, 4, False, "b63d18a896cf067d395caa8d2a27052747762fdfb2fe0156a49dd476e0917319"),
    ])
    def test_checkpoint_digest_is_fixed(self, k, n, ell, dup, digest):
        xs = np.random.default_rng(n).integers(0, 1 << 32, size=n, dtype=np.uint64)
        if dup:
            xs = np.concatenate([xs, xs[: n // 2]])
        data = BufferedSketch.init(xs, new_family(k, k + n), ell).to_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_stream_digest_is_fixed(self):
        """SHA-256 of to_bytes after every 97 ops, plus the fault counts, of
        a stream through every bulk path: a first insert run longer than
        _PENDING_CAP, a first fault that recovers more than _PENDING_CAP
        elements, merged insert bursts, and per-op inserts among deletes
        (oldest element first) between reads."""
        rng = np.random.default_rng(97)
        fresh = iter(rng.choice(1 << 32, size=20000, replace=False).tolist())
        sketch = BufferedSketch(new_family(64, 97), 3)
        members, order, recovered = set(), [], []

        def recover():
            recovered.append(len(members))
            return list(members)

        def insert():
            x = next(fresh)
            members.add(x)
            order.append(x)
            sketch.insert(x)

        for _ in range(6000):
            insert()
        h, head = hashlib.sha256(), 0
        for j in range(100):
            for _ in range(97):
                if j % 8 == 3 or not members or rng.random() < 0.15:
                    insert()
                else:
                    x, head = order[head], head + 1
                    members.remove(x)
                    sketch.delete(x, recover)
            h.update(sketch.to_bytes())
        h.update(struct.pack("<QQ", sketch.fault_count, sketch.recovery_elements_streamed))
        assert 6000 > core._PENDING_CAP and recovered[0] > core._PENDING_CAP
        assert h.hexdigest() == "6328fefdb997ef193d669707ecab27177f2bf1eab4ba0dfc04ac2b085dd48622"

    def test_interleaved_digest_is_fixed(self):
        """SHA-256 of to_bytes after every 97 ops, plus the fault counts, of
        a stream of one insert then one delete, so every insert takes the
        per-op path, often into full rows that evict their last key. Some
        inserts repeat a member, some deletes are phantom, and some delete
        the head of a row, which drains rows until they fault."""
        k, ell = 8, 4
        rng = np.random.default_rng(89)
        fam = new_family(k, 89)
        pool = rng.choice(1 << 32, size=400, replace=False).tolist()
        keys = dict(zip(pool, fam.keys_many(pool).tolist()))
        sketch = BufferedSketch(fam, ell)
        members = set(pool[:30])
        for x in members:
            sketch.insert(x)
        h, evictions = hashlib.sha256(), 0
        for op in range(2 * 1600):
            if op % 2 == 0:
                x = pool[rng.integers(len(pool))]
                evictions += x not in members and any(
                    key < d for key, d in zip(keys[x], sketch._delta.tolist()))
                members.add(x)
                sketch.insert(x)
            else:
                r = rng.random()
                if r < 0.1:
                    x = pool[rng.integers(len(pool))]  # mostly phantom
                elif r < 0.45:
                    i = op // 2 % k
                    x = min(members, key=lambda e: keys[e][i])
                else:
                    x = sorted(members)[rng.integers(len(members))]
                members.discard(x)
                sketch.delete(x, lambda: list(members))
            if op % 97 == 96:
                h.update(sketch.to_bytes())
        h.update(struct.pack("<QQ", sketch.fault_count, sketch.recovery_elements_streamed))
        assert evictions > 500 and sketch.fault_count > 20, (evictions, sketch.fault_count)
        assert h.hexdigest() == "e8245494edabd601dd55a8d1407ad02a3d3dcde8f8547b0685bb3d5f8891d70b"


class TestInsert:
    def test_into_empty_keeps_threshold_top(self, id_family):
        sk = BufferedSketch(id_family, 2)
        sk.insert(5)
        assert buffer_contents(sk, 0) == [(5, 5)]
        assert threshold(sk, 0) is None

    def test_full_buffer_hand_trace(self, id_family):
        # identity hashes: pairs are (x, x); buffer {(3,3),(7,7)}, delta (7,7)
        sk = BufferedSketch.init([3, 7], id_family, 2)
        assert threshold(sk, 0) == (7, 7)
        sk.insert(5)
        assert buffer_contents(sk, 0) == [(3, 3), (5, 5)]
        assert threshold(sk, 0) == (5, 5)
        # cross-check against a from-scratch rebuild on the same set
        rebuilt = BufferedSketch.init([3, 7, 5], id_family, 2)
        assert np.array_equal(
            sk.signature().values, rebuilt.signature().values
        )

    def test_above_threshold_ignored(self, id_family):
        sk = BufferedSketch.init([1, 2], id_family, 2)
        sk.insert(9)  # (9, 9) > delta (2, 2)
        assert buffer_contents(sk, 0) == [(1, 1), (2, 2)]
        assert sk.check_invariants([1, 2, 9]).ok

    def test_reinsert_is_bit_identical(self):
        fam = new_family(8, 11)
        sk = BufferedSketch.init(range(50), fam, 4)
        before = sk.to_bytes()
        for x in (0, 17, 49):
            sk.insert(x)
        assert sk.to_bytes() == before
        assert sk.fault_count == 0


class TestDelete:
    def test_absent_element_is_noop(self):
        fam = new_family(4, 13)
        sk = BufferedSketch.init(range(100), fam, 8)
        before = sk.to_bytes()
        sk.delete(5000, lambda: range(100))
        assert sk.to_bytes() == before
        assert sk.fault_count == 0

    def test_fault_and_recovery(self, id_family):
        # ell=1: the buffer holds only the smallest pair; deleting it faults.
        sk = BufferedSketch.init([4, 9], id_family, 1)
        assert buffer_contents(sk, 0) == [(4, 4)]
        sk.delete(4, lambda: [9])
        assert sk.fault_count == 1
        assert sk.recovery_elements_streamed == 1
        assert buffer_contents(sk, 0) == [(9, 9)]
        assert sk.check_invariants([9]).ok

    def test_delete_last_element_resets_cleanly(self, id_family):
        sk = BufferedSketch.init([42], id_family, 2)
        sk.delete(42, lambda: [])
        assert sk.is_empty()
        assert threshold(sk, 0) is None
        assert sk.fault_count == 0  # emptying the set is not a fault
        assert sk.check_invariants([]).ok

    def test_unbuffered_delete_leaves_buffers(self):
        fam = new_family(2, 17)
        elements = list(range(200))
        sk = BufferedSketch.init(elements, fam, 4)
        buffered = {e for i in range(2) for _, e in buffer_contents(sk, i)}
        victim = next(x for x in elements if x not in buffered)
        before = sk.to_bytes()
        sk.delete(victim, lambda: [x for x in elements if x != victim])
        assert sk.to_bytes() == before

    @pytest.mark.parametrize("x", [2**40, -5])
    def test_rejects_element_outside_universe(self, x):
        fam = new_family(2, 3)
        for sk in (BufferedSketch(fam, 2), BufferedSketch.init(range(10), fam, 2)):
            with pytest.raises(ValueError):
                sk.delete(x, lambda: [])

    def test_recovery_failure_preserves_state(self, id_family):
        sk = BufferedSketch.init([4, 9], id_family, 1)
        before = sk.to_bytes()

        def broken():
            raise OSError("store unreachable")

        with pytest.raises(RecoveryError):
            sk.delete(4, broken)
        assert sk.to_bytes() == before

    def test_stale_recovery_raises_and_keeps_state(self, id_family):
        # Deleting 4 faults, so 4 was present; a store still holding it is stale.
        sk = BufferedSketch.init([4, 9], id_family, 1)
        before = sk.to_bytes()
        with pytest.raises(RecoveryError, match="stale"):
            sk.delete(4, lambda: [4, 9])
        assert sk.to_bytes() == before
        assert sk.fault_count == 0


def _top_key_family():
    """Two functions; the first hashes 2^32 - 1 to 0xFFFFFFFF, so that
    element's pair key equals TOP."""
    tables = new_family(2, 59).tables.copy()
    tables[0, :, 15] = 0
    tables[0, 7, 15] = 0xFFFFFFFF
    return family_from_tables(tables)


class TestTopKeyElement:
    X = 2**32 - 1

    def test_insert_matches_init(self):
        fam = _top_key_family()
        for members in ([], [1, 2], [1, 2, 3, 4]):
            sk = BufferedSketch.init(members, fam, 3)
            sk.insert(self.X)
            want = BufferedSketch.init(members + [self.X], fam, 3)
            assert state_equal(sk, want)
            assert sk.signature() == want.signature()

    def test_merged_run_matches_init(self):
        # A run long enough to be merged; at these ells function 0's row
        # ends with the TOP key dropped, last in a full row, or in a row
        # that stays short, where the size must count it, also when the
        # key was buffered before a run without 2^32 - 1.
        fam = _top_key_family()
        run = list(range(10, 10 + core._MERGE_MIN)) + [self.X]
        for ell in (len(run) - 1, len(run), len(run) + 2, len(run) + 3):
            for members in ([], [1, 2], [1, self.X]):
                for queued in (run, run[:-1]):
                    sk = BufferedSketch.init(members, fam, ell)
                    for x in queued:
                        sk.insert(x)
                    assert state_equal(sk, BufferedSketch.init(members + queued, fam, ell))

    def test_phantom_delete_is_noop(self):
        sk = BufferedSketch.init([1, 2], _top_key_family(), 3)
        before = sk.to_bytes()
        sk.delete(self.X, lambda: [1, 2])
        assert sk.to_bytes() == before

    def test_delete_matches_init_signature(self):
        fam = _top_key_family()
        sk = BufferedSketch.init([1, 2, self.X], fam, 3)
        sk.delete(self.X, lambda: [1, 2])
        assert sk.signature() == BufferedSketch.init([1, 2], fam, 3).signature()
        assert sk.check_invariants([1, 2]).ok


def _index_ops(seed, keys, n_ops):
    """(ops, initial members) for the element-index tests, from ``keys``
    (element -> its k pair keys, the elements a pool in draw order).

    Ops are ("insert", x), ("delete", x) and ("stale", x), a delete whose
    recovery returns a set that still holds x. Most inserts are runs of
    one, applied per op at the next delete; some repeat a member. Some
    deletes are phantom and some take the head of a row, which drains rows
    until they fault. A few runs long enough to be merged are followed at
    once by a delete."""
    rng = np.random.default_rng(seed)
    pool = list(keys)
    fresh = iter(pool[40:])
    members = pool[:40]
    initial, ops, k = list(members), [], len(keys[pool[0]])

    def victim(r):
        if r < 0.1:
            return pool[rng.integers(len(pool))]  # mostly phantom
        if r < 0.45:
            i = int(rng.integers(k))
            return min(members, key=lambda e: keys[e][i])
        return members[rng.integers(len(members))]

    for _ in range(n_ops):
        r = rng.random()
        if r < 0.02:
            run = [next(fresh) for _ in range(core._MERGE_MIN + 6)]
            ops += [("insert", x) for x in run]
            members += run
        elif not members or r < (0.45 if len(members) < 60 else 0.2):
            if members and rng.random() < 0.2:
                x = members[rng.integers(len(members))]
            else:
                x = next(fresh)
                members.append(x)
            ops.append(("insert", x))
            continue
        stale = r > 0.95  # a row's head, which faults when it is alone
        x = victim(0.3 if stale else rng.random())
        ops.append(("stale" if stale else "delete", x))
        members = [e for e in members if e != x]
    return ops, initial


_DELETES = ("delete", "stale")


def _read_after(ops, kinds=("insert",) + _DELETES):
    """``ops`` with a ("read", None) after each op whose kind is in ``kinds``."""
    out = []
    for op in ops:
        out.append(op)
        if op[0] in kinds:
            out.append(("read", None))
    return out


def _replay(fam, ell, ops, initial=()):
    """Replay ``ops`` from ``init(initial)`` on the sketch and on
    ``_BufferModel``; returns the sketch and the counts of the cases the
    stream reached. The initial set is buffered at once (``buffered``), so
    the stream's first ops meet the rows it fills, as they did when
    ``init`` merged at once.

    Ops are ("insert", x), ("delete", x), ("stale", x), a delete whose
    recovery returns a set that still holds x, ("roundtrip", None), a
    checkpoint round trip, and ("read", None). The state is compared only
    at reads, so the deletes between reads queue their removals. At a
    read the signature equals the from-scratch one and the model's row
    heads (or the sketch is empty), the model's rows and thresholds match,
    ``check_invariants`` holds, at most k * ell pairs are buffered and the
    faults equal the model's. After every op, each row's size plus its
    queued removals is at most ell, so the queue never holds more than
    k * ell entries.

    The counts, of ops unless said otherwise:
    - inserts of a member (``duplicate``); per-op inserts while the index
      is built (``indexed_insert``), those that push a key out of a full
      row (``eviction``) and those of an element the index holds
      (``duplicate_buffered``); the model's inserts whose key ends last in
      a row they fill (``last_slot``);
    - deletes and stale deletes: of a non-member (``phantom``), of an
      element an indexed insert evicted (``delete_evicted``) or admitted
      (``delete_admitted``), right after a merged run
      (``delete_after_merge``) or a fault (``delete_after_fault``); faults
      (``fault``) and failed recoveries (``stale``);
    - with removals queued: reads where a row has several
      (``several_in_row``), deletes of a buffered 2^32 - 1
      (``top_element_queued``), of a buffered TOP key (``top_key_queued``),
      that fault (``fault_queued``) or fail (``stale_queued``), that flush
      inserts too (``flush_both``) or a merged run (``merge_queued``), and
      round trips (``roundtrip_queued``); the longest queue
      (``most_queued``);
    - ops other than inserts that flush a merged run into rows that all
      hold the whole set (every threshold TOP), which ``_merge`` refills
      with the union (``refill``), 2^32 - 1 in it (``top_refill``);
    - per-op inserts with a key whose hash equals its threshold's while
      its element is larger, so only the full-key comparison keeps it out
      of the row (``hash_tie_above``).
    """
    events = Counter()
    top, evicted, admitted = 2**32 - 1, set(), set()
    insert_one = BufferedSketch._insert_one

    def observed_insert_one(sketch, x):
        events["hash_tie_above"] += any(key > sketch._deltav[i] for i, key in sketch._candidates(x))
        where = sketch._where
        if where is None:
            return insert_one(sketch, x)
        before = {y: len(entries) for y, entries in where.items()}
        events["duplicate_buffered"] += x in before
        insert_one(sketch, x)
        lost = {y for y, n in before.items() if len(where.get(y, ())) < n}
        events["indexed_insert"] += 1
        events["eviction"] += bool(lost)
        evicted.update(lost)
        if x in where:
            admitted.add(x)

    sketch = buffered(BufferedSketch.init(initial, fam, ell))
    model = _BufferModel(fam, ell, [x for _, x in ops if x is not None] + list(initial))
    model.rebuild(initial)
    members, faulted = set(initial), False
    faults = 0  # of the sketches that round trips replaced
    dropped, queued = [], []  # the removal queue, and its rows
    with pytest.MonkeyPatch.context() as m:
        m.setattr(BufferedSketch, "_insert_one", observed_insert_one)
        for op, x in ops:
            if op != "insert" and len(sketch._pending) >= core._MERGE_MIN and sketch._size[0] \
                    and (sketch._delta == TOP).all():
                events["refill"] += 1
                events["top_refill"] += top in members
            if op == "read":
                events["several_in_row"] += len(set(queued)) < len(queued)
                if members:
                    heads = [keys[0] >> 32 for keys in model.lists]
                    assert sketch.signature().values.tolist() == heads
                    assert heads == ref_signature(fam, members).tolist()
                else:
                    assert sketch.is_empty()
                model.assert_matches(sketch)
                assert sketch.check_invariants(members).ok
                assert total_buffered(sketch) <= fam.k * ell
                assert faults + sketch.fault_count == model.events["fault"]
            elif op == "roundtrip":
                events["roundtrip_queued"] += bool(queued)
                faults += sketch.fault_count
                data = sketch.to_bytes()
                sketch = BufferedSketch.from_bytes(data, fam)
                assert sketch.to_bytes() == data
            elif op == "insert":
                events["duplicate"] += x in members
                members.add(x)
                sketch.insert(x)
                model.insert(x)
            else:
                events["phantom"] += x not in members
                events["delete_evicted"] += x in members and x in evicted
                events["delete_admitted"] += x in members and x in admitted
                events["delete_after_fault"] += faulted
                pending = len(sketch._pending)
                events["delete_after_merge"] += pending >= core._MERGE_MIN
                events["flush_both"] += bool(pending and queued)
                events["merge_queued"] += bool(pending >= core._MERGE_MIN and queued)
                held = sketch._where.get(x, ()) if sketch._where is not None else ()
                if queued and held:
                    events["top_element_queued"] += x == top
                    events["top_key_queued"] += any(e ^ (e & 0xFFFFFFFF) | x == TOP for e in held)
                members.discard(x)
                recovered = members | {x} if op == "stale" else members
                before = sketch.fault_count
                try:
                    sketch.delete(x, lambda: list(recovered))
                except RecoveryError:
                    assert op == "stale"
                    assert sketch._dropped == dropped  # the queue survives
                    events["stale"] += 1
                    events["stale_queued"] += bool(queued)
                    members.add(x)  # the sketch kept its pre-delete state
                else:
                    model.delete(x, members)
                faulted = sketch.fault_count > before
                events["fault"] += faulted
                events["fault_queued"] += faulted and bool(queued)
            dropped = list(sketch._dropped)
            queued = [e & 0xFFFFFFFF for entries in dropped[1::2] for e in entries]
            assert (sketch._size + np.bincount(queued, minlength=fam.k).astype(np.int64) <= ell).all()
            events["most_queued"] = max(events["most_queued"], len(queued))
    events["last_slot"] = model.events["last_slot"]
    return sketch, events


class TestElementIndex:
    @pytest.mark.parametrize("k,ell,seed", [(4, 3, 1), (6, 1, 2), (16, 4, 3)])
    def test_stream_ops_match_buffer_model(self, k, ell, seed):
        """Per-op inserts that evict from full rows while the index is
        built, then deletes of evicted and admitted elements, re-inserts of
        buffered elements, phantom deletes, deletes right after a merge and
        after a fault, and stale recoveries followed by more ops; read after
        every delete."""
        fam = new_family(k, seed)
        pool = np.random.default_rng(seed).choice(1 << 32, size=6000, replace=False).tolist()
        ops, initial = _index_ops(seed, dict(zip(pool, fam.keys_many(pool).tolist())), 1500)
        _, events = _replay(fam, ell, _read_after(ops, _DELETES), initial)
        assert min(events[e] for e in (
            "indexed_insert", "eviction", "delete_evicted", "delete_admitted", "duplicate_buffered",
            "phantom", "fault", "delete_after_merge", "delete_after_fault", "stale")) > 0, events

    def test_top_key_element_matches_buffer_model(self):
        """Element 2^32 - 1, whose key under function 0 of the crafted
        family is TOP: buffered in a row while the index is built, pushed
        out of that row when it fills, deleted, re-inserted, deleted as a
        phantom and in a stale recovery; then a longer stream where every
        ninth op names it."""
        fam = _top_key_family()
        top = TestTopKeyElement.X
        ops = [("delete", 7), ("insert", top), ("delete", 8), ("insert", 3), ("delete", top),
               ("insert", top), ("delete", 1), ("delete", 2), ("delete", top), ("delete", top),
               ("insert", top), ("insert", 4), ("delete", 3), ("insert", 5), ("delete", top),
               ("insert", top), ("delete", 4), ("delete", 5), ("stale", top), ("delete", top)]
        _, events = _replay(fam, 3, _read_after(ops, _DELETES), [1, 2])
        assert min(events[e] for e in ("eviction", "delete_evicted", "delete_admitted",
                                       "phantom", "fault", "stale")) > 0, events
        pool = [top] + list(range(10, 6000))
        ops, initial = _index_ops(5, dict(zip(pool, fam.keys_many(pool).tolist())), 700)
        ops = [(op, top if i % 9 == 4 else x) for i, (op, x) in enumerate(ops)]
        _replay(fam, 3, _read_after(ops, _DELETES), initial)


def _tied_top_key_family():
    """``_top_key_family`` with every hash of function 0 in
    [0xFFFF0000, 2^32): each of its keys shares its top 16 bits with every
    threshold, and the key of 2^32 - 1 is still TOP."""
    tables = _top_key_family().tables.copy()
    tables[0] &= 0xFFFF
    tables[0, 7] |= 0xFFFF0000
    return family_from_tables(tables)


def _burst_ops(seed, pool, ell, bursts):
    """(ops, initial members) with ``initial`` filling every row, then
    ``bursts`` insert bursts of at least _MERGE_MIN elements, mostly fresh
    from ``pool`` and some members, each followed by deletes: some phantom,
    most of members, at times enough to drain the set and fault."""
    rng = np.random.default_rng(seed)
    fresh = iter(pool)
    members = [next(fresh) for _ in range(2 * ell + 8)]
    initial, ops = list(members), []
    for _ in range(bursts):
        run = [members[rng.integers(len(members))] if members and rng.random() < 0.1 else next(fresh)
               for _ in range(core._MERGE_MIN + int(rng.integers(0, 4 * ell + 40)))]
        ops += [("insert", x) for x in run]
        members = list(dict.fromkeys(members + run))
        keep = int(rng.integers(0, 2 * ell + 8)) if rng.random() < 0.3 else len(members) // 2
        members = rng.permutation(members).tolist()
        for x in members[keep:]:
            if rng.random() < 0.1:
                ops.append(("delete", next(fresh)))  # phantom
            ops.append(("delete", x))
        members = members[:keep]
    return ops, initial


class TestFilteredMerge:
    """A merge into rows whose thresholds are all below TOP builds only
    the keys whose top 16 bits pass (``HashFamily._keys_below``). Streams
    are replayed (``_replay``) with a read after every delete."""

    @staticmethod
    def _observe(monkeypatch, ell):
        """Counts over the filtered merges (the uncapped ``_keys_below``
        calls): pairs whose top 16 bits equal their threshold's, below and
        above it, of all pairs; blocks where more than ell keys of one row
        pass; blocks that hold a TOP key, and those where it ties its
        threshold's top bits."""
        seen = dict.fromkeys(("merges", "pairs", "tie_below", "tie_above", "crowded", "top_key",
                              "top_tie"), 0)
        keys_below = HashFamily._keys_below

        def observed(family, xs, bound, cap=None):
            found = keys_below(family, xs, bound, cap)
            if cap is not None:
                return found
            fn, keys = found
            every = family.keys_many(xs)
            tie = every >> np.uint64(48) == bound >> np.uint64(48)
            seen["merges"] += 1
            seen["pairs"] += every.size
            seen["tie_below"] += int((tie & (every < bound)).sum())
            seen["tie_above"] += int((tie & (every > bound)).sum())
            seen["crowded"] += bool((np.bincount(fn, minlength=family.k) > ell).any())
            seen["top_key"] += bool((every == TOP).any())
            seen["top_tie"] += bool((tie & (every == TOP)).any())
            return fn, keys

        monkeypatch.setattr(HashFamily, "_keys_below", observed)
        return seen

    @pytest.mark.parametrize("k,ell,narrow,cap", [
        (4, 3, False, None), (16, 4, False, 97), (5, 4, True, None), (8, 2, True, 97)])
    def test_bursts_into_full_rows_match_buffer_model(self, monkeypatch, k, ell, narrow, cap):
        """Bursts into full rows and into rows that deletes left short with
        their thresholds. The narrow family keeps the low 17 bits of each
        hash, so nearly every key's top 16 bits tie its threshold's and the
        full comparison decides. A cap of 97 splits bursts and the rebuilds
        of faults into several blocks, all but the first filtered."""
        fam = new_family(k, 40 + ell)
        if narrow:
            fam = family_from_tables(fam.tables & 0x1FFFF)
        if cap is not None:
            monkeypatch.setattr(core, "_PENDING_CAP", cap)
        pool = np.random.default_rng(k).choice(1 << 32, size=6000, replace=False).tolist()
        ops, initial = _burst_ops(k, pool, ell, 24)
        seen = self._observe(monkeypatch, ell)
        _, events = _replay(fam, ell, _read_after(ops, _DELETES), initial)
        assert events["fault"] > 0 and events["delete_after_merge"] > 0, events
        assert seen["merges"] > 0 and seen["crowded"] > 0, seen
        if narrow:
            assert seen["tie_below"] > 0 and seen["tie_above"] > 0, seen
            assert seen["tie_below"] + seen["tie_above"] > seen["pairs"] // 2, seen

    @pytest.mark.parametrize("family", [_top_key_family, _tied_top_key_family])
    def test_top_key_element_in_bursts_matches_buffer_model(self, monkeypatch, family):
        """Element 2^32 - 1, whose key under function 0 is TOP, in bursts
        into full rows. Under the tied family that key passes the prefix
        test, and the full comparison must reject it."""
        fam, ell = family(), 3
        pool = list(range(10, 6000))
        pool[2 * ell + 8 + 5] = TestTopKeyElement.X  # in the first burst
        ops, initial = _burst_ops(7, pool, ell, 24)
        seen = self._observe(monkeypatch, ell)
        _replay(fam, ell, _read_after(ops, _DELETES), initial)
        assert seen["top_key"] > 0, seen
        assert seen["top_tie"] > 0 or family is _top_key_family, seen


_BLOCK_ELL = 4
_DEFAULT_CAP = core._PENDING_CAP


def _bulk_states(monkeypatch, cap, family):
    """Checkpoints of every bulk path with core._PENDING_CAP = cap.

    ``init`` of a set of three, where function 0's row under the crafted
    family keeps the TOP key; ``init`` of 41 elements, then deletes of the
    elements buffered in row 0, the last of which faults at the latest; and
    a run of inserts queued at the default cap and flushed by a read at
    ``cap``, so that the flush may be longer than the cap, into the 40
    elements and into the set of three, whose rows hold the whole set and
    are refilled with the union, its first block at times shorter than
    the rows. Element 2^32 - 1 is in the last block of every bulk path.
    """
    top = 2**32 - 1
    monkeypatch.setattr(core, "_PENDING_CAP", cap)
    small = buffered(BufferedSketch.init([1, 2, top], family, _BLOCK_ELL))
    states = [small.to_bytes()]
    members = list(range(100, 140)) + [top]
    sketch = buffered(BufferedSketch.init(members, family, _BLOCK_ELL))
    states.append(sketch.to_bytes())
    left = set(members)
    for x in [e for _, e in buffer_contents(sketch, 0)]:
        left.discard(x)
        sketch.delete(x, lambda: list(left))
        states.append((sketch.to_bytes(), sketch.fault_count, sketch.recovery_elements_streamed))
    assert sketch.fault_count >= 1
    monkeypatch.setattr(core, "_PENDING_CAP", _DEFAULT_CAP)
    sketch = buffered(BufferedSketch.init(members[:-1], family, _BLOCK_ELL))
    run = list(range(200, 200 + core._MERGE_MIN)) + [top]
    for x in run:
        sketch.insert(x)
        small.insert(x)
    assert len(sketch._pending) == len(small._pending) == len(run)
    monkeypatch.setattr(core, "_PENDING_CAP", cap)
    states += [sketch.to_bytes(), small.to_bytes()]
    return states


@pytest.mark.parametrize("cap", [1, _BLOCK_ELL - 1, _BLOCK_ELL, _BLOCK_ELL + 1, 7])
@pytest.mark.parametrize("family", ["random", "top_key"])
def test_bulk_paths_match_across_block_sizes(monkeypatch, family, cap):
    """init, a fault's rebuild and a long flush leave the same bits whatever
    block size _merge hashes in."""
    fam = new_family(16, 5) if family == "random" else _top_key_family()
    want = _bulk_states(monkeypatch, _DEFAULT_CAP, fam)
    assert _bulk_states(monkeypatch, cap, fam) == want


def test_bulk_paths_hold_bounded_memory():
    """Traced peak of init (also under a family whose hashes all crowd
    under the bound of a merge into empty rows), min_hashes (also under
    that family and one whose every prefix ties at 0), check_invariants
    and a fault's rebuild over 2^16 elements at k=256: the keys are hashed
    in blocks, not all at once (128 MiB)."""
    fam = new_family(256, 1)
    fam.key_one(0)  # builds the byte tables outside the traced region
    xs = np.random.default_rng(16).choice(1 << 32, size=1 << 16, replace=False).astype(np.uint64)
    sketch = BufferedSketch.init(xs, fam, 32)
    lone = int(np.setdiff1d(np.arange(2, dtype=np.uint64), xs)[0])

    def fault_rebuild():
        rebuilt = BufferedSketch.init([lone], fam, 32)
        rebuilt.delete(lone, lambda: xs)
        assert rebuilt.fault_count == 1

    narrow = family_from_tables(fam.tables & 0x1FFFF)  # every pair passes the prefix test
    flat = family_from_tables(fam.tables & 0xFFFF)  # every prefix is 0
    for family in (narrow, flat):
        family.key_one(0)
    for run, limit in ((lambda: BufferedSketch.init(xs, fam, 32), 32), (lambda: fam.min_hashes(xs), 16),
                       (lambda: sketch.check_invariants(xs), 32), (fault_rebuild, 32),
                       (lambda: BufferedSketch.init(xs, narrow, 32), 32),
                       (lambda: narrow.min_hashes(xs), 16), (lambda: flat.min_hashes(xs), 16)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit * 2**20


def _bounded_states(fam, ell, xs, rng):
    """(per-op model, init, fault rebuild) of the elements ``xs``: the
    model inserts them one by one in a random order, ``init`` merges them
    into empty rows, and so does the rebuild when the delete of the only
    element of a sketch faults with ``xs`` recovered."""
    model = _BufferModel(fam, ell, xs)
    for x in rng.permutation(xs).tolist():
        model.insert(x)
    lone = int(np.setdiff1d(np.arange(len(xs) + 1, dtype=np.uint64), xs)[0])
    rebuilt = BufferedSketch.init([lone], fam, ell)
    rebuilt.delete(lone, lambda: xs.tolist())
    assert rebuilt.fault_count == 1
    return model, buffered(BufferedSketch.init(xs, fam, ell)), rebuilt


def _spy_capped_keys_below(monkeypatch):
    """The pairs count of every capped ``HashFamily._keys_below`` call (the
    bounded pass of ``BufferedSketch._fill``), None for one that gave up."""
    calls = []
    keys_below = HashFamily._keys_below

    def observed(family, xs, bound, cap=None):
        found = keys_below(family, xs, bound, cap)
        if cap is not None:
            calls.append(None if found is None else found[0].size)
        return found

    monkeypatch.setattr(HashFamily, "_keys_below", observed)
    return calls


def _spy_keys_many(monkeypatch):
    """The size of every ``HashFamily.keys_many`` call: in a fill, the
    fallback that keys its first _PENDING_CAP elements in full."""
    calls = []
    keys_many = HashFamily.keys_many

    def observed(family, xs):
        calls.append(len(xs))
        return keys_many(family, xs)

    monkeypatch.setattr(HashFamily, "keys_many", observed)
    return calls


class TestBoundedFill:
    """A merge into empty rows of at least _BOUND_MIN * ell elements keys
    only the pairs under one bound (``BufferedSketch._fill``), and falls
    back to keying its elements in full when some row has fewer than ell
    pairs under it. ``init`` and a fault's rebuild must leave the per-op
    inserts' state on either side of that size."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_init_and_fault_rebuild_match_per_op_inserts(self, data):
        kind = data.draw(st.sampled_from(["random", "narrow", "top_key"]), label="family")
        ell = data.draw(st.sampled_from([1, 2, 32]), label="ell")
        cut = core._BOUND_MIN * ell
        n = data.draw(st.one_of(st.integers(cut - 2, cut + 1), st.integers(cut // 2, 2 * cut)),
                      label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        if kind == "top_key":
            fam = _top_key_family()  # the key of 2^32 - 1 under function 0 is TOP
        else:
            fam = new_family(data.draw(st.sampled_from([1, 5, 256]), label="k"), seed)
            if kind == "narrow":  # the low 17 bits of each hash
                fam = family_from_tables(fam.tables & 0x1FFFF)
        rng = np.random.default_rng(seed)
        xs = rng.choice(1 << 32, size=n, replace=False).astype(np.uint64)
        if data.draw(st.booleans(), label="with 2^32 - 1") or kind == "top_key":
            xs[0] = 2**32 - 1
        xs = np.unique(xs)
        with pytest.MonkeyPatch.context() as m:
            calls = _spy_capped_keys_below(m)
            model, built, rebuilt = _bounded_states(fam, ell, xs, rng)
        assert len(calls) == (2 if xs.size >= cut else 0)
        model.assert_matches(built)
        assert rebuilt.to_bytes() == built.to_bytes()
        assert built._structure_faults() == []

    @pytest.mark.parametrize("raised", ["every", "some"])
    @pytest.mark.parametrize("cap", [None, 97])
    def test_rows_with_too_few_pairs_under_the_bound_are_keyed_in_full(self, monkeypatch,
                                                                         raised, cap):
        """Every hash of the raised functions is at least 2^31, far above
        the bound, so their rows have no pair under it and the whole fill
        falls back to keying its first _PENDING_CAP elements in full; with
        a cap of 97, ``_merge``'s blocks take the rest."""
        k, ell = 7, 4
        tables = new_family(k, 71).tables.copy()
        fns = np.arange(k) if raised == "every" else np.array([0, 3, 6])
        tables[fns] &= 0x7FFFFFFF
        tables[fns, 0] |= 0x80000000
        fam = family_from_tables(tables)
        if cap is not None:
            monkeypatch.setattr(core, "_PENDING_CAP", cap)
        rng = np.random.default_rng(72)
        xs = np.unique(rng.choice(1 << 32, size=3 * core._BOUND_MIN * ell, replace=False)
                       .astype(np.uint64))
        calls = _spy_capped_keys_below(monkeypatch)
        full = _spy_keys_many(monkeypatch)
        model, built, rebuilt = _bounded_states(fam, ell, xs, rng)
        assert len(calls) == 2 and calls[0] == calls[1] and (calls[0] == 0) == (raised == "every")
        assert full == [1] + [min(core._PENDING_CAP, xs.size)] * 2  # the lone element, then both fills
        assert (built._buf[fns] >> np.uint64(63) == 1).all()
        model.assert_matches(built)
        assert rebuilt.to_bytes() == built.to_bytes()

    def test_fills_seldom_fall_back(self, monkeypatch):
        """The bound's margin leaves ell pairs under it in every row of all
        but about 5% of the fills at k=256 (Poisson model; 0.74 of these 40
        seeded fills expected), so at most 2 of them key their elements in
        full."""
        families = [new_family(256, seed) for seed in range(5)]
        bounded, full = _spy_capped_keys_below(monkeypatch), _spy_keys_many(monkeypatch)
        for ell in (1, 2, 8, 32):
            for n in (core._BOUND_MIN * ell, 4096):
                for seed, fam in enumerate(families):
                    rng = np.random.default_rng([ell, n, seed])
                    xs = np.unique(rng.choice(1 << 32, size=n, replace=False).astype(np.uint64))
                    BufferedSketch(fam, ell)._merge(xs)
        assert len(bounded) == 40 and None not in bounded
        assert len(full) <= 2, full

    @pytest.mark.parametrize("cap", [None, 97])
    def test_crowded_prefixes_give_up_for_the_blocks(self, monkeypatch, cap):
        """Under the narrow family (the low 17 bits of each hash) every
        pair is under the bound. With a cap of 97 that is more pairs than
        the prefix scan keeps, so it gives up, and the blocks of ``_merge``
        leave the same state."""
        k, ell = 7, 4
        fam = family_from_tables(new_family(k, 73).tables & 0x1FFFF)
        if cap is not None:
            monkeypatch.setattr(core, "_PENDING_CAP", cap)
        rng = np.random.default_rng(74)
        xs = np.unique(rng.choice(1 << 32, size=3 * core._BOUND_MIN * ell, replace=False)
                       .astype(np.uint64))
        calls = _spy_capped_keys_below(monkeypatch)
        model, built, rebuilt = _bounded_states(fam, ell, xs, rng)
        assert calls == [None if cap else k * xs.size] * 2
        model.assert_matches(built)
        assert rebuilt.to_bytes() == built.to_bytes()


class TestSignature:
    def test_reads_buffer_minimum(self, id_family):
        sk = BufferedSketch.init([3, 7], id_family, 2)
        sig = sk.signature()
        assert sig.values.tolist() == [3]
        assert len(sig) == 1

    def test_empty_set_raises(self):
        sk = BufferedSketch(new_family(2, 1), 2)
        with pytest.raises(EmptySetError):
            sk.signature()

    def test_equality_semantics(self):
        a = Signature([1, 2], family_key=(0, 2))
        b = Signature([1, 2], family_key=(0, 2))
        c = Signature([1, 2], family_key=(1, 2))
        assert a == b
        assert a != c


class TestDeferredRead:
    """``init`` of fewer than _PENDING_CAP elements queues them as pending
    inserts; a read of the empty rows is their per-function minimum
    (``HashFamily.min_hashes``), taken without a flush and kept until the
    next insert. Sizes straddle the flush's per-op/merge cut and the
    queue's cap, with 2^32 - 1 among the elements, under a random, a
    narrow (the low 17 bits of each hash) and the TOP-key family."""

    SIZES = [0, 1, core._MERGE_MIN - 1, core._MERGE_MIN, core._PENDING_CAP - 1, core._PENDING_CAP]
    KINDS = ["random", "narrow", "top_key"]
    ELL = 4

    @staticmethod
    def _family(kind):
        if kind == "top_key":
            return _top_key_family()
        fam = new_family(8, 61)
        return family_from_tables(fam.tables & 0x1FFFF) if kind == "narrow" else fam

    @staticmethod
    def _elements(n):
        """n distinct elements, unsorted, 2^32 - 1 first."""
        xs = np.random.default_rng(n).choice(2**32 - 1, size=n, replace=False).astype(np.uint64)
        xs[:1] = 2**32 - 1
        return xs

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("kind", KINDS)
    def test_read_is_the_minimum_of_the_queued_elements(self, kind, n):
        fam, xs = self._family(kind), self._elements(n)
        sketch = BufferedSketch.init(xs, fam, self.ELL)
        merged = BufferedSketch(fam, self.ELL)
        merged._merge(as_element_set(xs))
        if n == 0:
            with pytest.raises(EmptySetError):
                sketch.signature()
        else:
            sig = sketch.signature()
            deferred = n < core._PENDING_CAP
            assert (len(sketch._pending), sketch._size[0] == 0) == (n if deferred else 0, deferred)
            want = (fam.min_hashes(xs) >> np.uint64(32)).tolist()
            assert sig.values.tolist() == want
            sig.values[:] = 0  # a caller's write does not reach the next read
            assert sketch.signature().values.tolist() == want
            assert buffered(sketch).signature().values.tolist() == want
        assert sketch.to_bytes() == merged.to_bytes()

    @pytest.mark.parametrize("kind", KINDS)
    def test_second_read_hashes_nothing(self, monkeypatch, kind):
        """The first read scans each element's prefixes once and keys none
        of them in bulk; the second hashes nothing."""
        fam, xs = self._family(kind), self._elements(core._PENDING_CAP - 1)
        sketch = BufferedSketch.init(xs, fam, self.ELL)
        hashed, prefixes = [], HashFamily._prefixes

        def counted(family, byte):
            hashed.append(byte.shape[1])
            return prefixes(family, byte)

        def refused(*args):
            raise AssertionError("keys_many on the read of queued elements")

        monkeypatch.setattr(HashFamily, "_prefixes", counted)
        monkeypatch.setattr(HashFamily, "keys_many", refused)
        first = sketch.signature()
        assert sum(hashed) == xs.size
        assert sketch.signature() == first and sum(hashed) == xs.size

    @pytest.mark.parametrize("kind", KINDS)
    def test_reads_between_inserts_hash_each_element_once(self, monkeypatch, kind):
        """Each read of empty rows folds the elements inserted since the
        last into the kept minimum, so N insert-then-read pairs on a fresh
        sketch hash N elements."""
        fam, xs = self._family(kind), self._elements(300)
        sketch, hashed = BufferedSketch(fam, self.ELL), []
        min_keys = HashFamily._min_keys  # min_hashes of checked elements

        def counted(family, xs):
            hashed.append(len(xs))
            return min_keys(family, xs)

        monkeypatch.setattr(HashFamily, "_min_keys", counted)
        for n, x in enumerate(xs.tolist(), 1):
            sketch.insert(x)
            assert sketch.signature().values.tolist() == ref_signature(fam, xs[:n]).tolist()
        assert sum(hashed) == xs.size and sketch._size[0] == 0

    def test_is_empty_keys_nothing(self, monkeypatch):
        """``is_empty`` answers from the queue and row 0's size: the queued
        set stays queued and unhashed."""
        fam, xs = self._family("random"), self._elements(core._MERGE_MIN)
        sketch = BufferedSketch.init(xs, fam, self.ELL)

        def refused(*args):
            raise AssertionError("is_empty hashed the queued elements")

        monkeypatch.setattr(HashFamily, "_hashes", refused)
        monkeypatch.setattr(HashFamily, "_prefixes", refused)
        monkeypatch.setattr(HashFamily, "_keys_below", refused)
        assert not sketch.is_empty() and len(sketch._pending) == xs.size
        assert BufferedSketch(fam, self.ELL).is_empty()

    @pytest.mark.parametrize("n", SIZES[1:])
    @pytest.mark.parametrize("kind", KINDS)
    def test_ops_after_init_match_buffer_model(self, kind, n):
        """An insert after a read, which the next read sees, and a delete
        of 2^32 - 1 right after ``init``."""
        fam, xs, ell = self._family(kind), self._elements(n), self.ELL
        fresh = int(np.setdiff1d(np.arange(n + 1, dtype=np.uint64), xs)[0])
        model = _BufferModel(fam, ell, xs.tolist() + [fresh])
        model.rebuild(xs.tolist())
        sketch = BufferedSketch.init(xs, fam, ell)
        sketch.signature()
        sketch.insert(fresh)
        model.insert(fresh)
        assert sketch.signature().values.tolist() == [keys[0] >> 32 for keys in model.lists]
        model.assert_matches(sketch)

        left = xs[1:].tolist()
        model.rebuild(xs.tolist())
        sketch = BufferedSketch.init(xs, fam, ell)
        sketch.delete(2**32 - 1, lambda: left)
        model.delete(2**32 - 1, left)
        model.assert_matches(sketch)
        assert sketch.check_invariants(left).ok


class TestSharedEmptyRows:
    """A sketch that was never written reads the read-only empty rows that
    every sketch of its (k, ell) shares; its first write takes private
    rows, and a fault that recovers the empty set returns to the shared
    ones. ``init`` of a small set queues its checked array."""

    K, ELL = 8, 4

    def _unwritten(self, fam):
        """(sketch, members): a fresh sketch, one that only queued its set
        and has been read, and one whose fault recovered the empty set."""
        queued = BufferedSketch.init([3, 9, 3], fam, self.ELL)
        queued.signature()
        recovered = BufferedSketch.init([5], fam, self.ELL)
        recovered.delete(5, lambda: [])
        assert recovered.fault_count == 0
        return [(BufferedSketch(fam, self.ELL), []), (queued, [3, 9]), (recovered, [])]

    def _assert_empty_rows(self, sketch):
        assert (sketch._buf == TOP).all() and not sketch._size.any() and (sketch._delta == TOP).all()

    def test_writes_to_unwritten_rows_raise(self):
        fam = new_family(self.K, 3)
        for sketch, _ in self._unwritten(fam):
            for rows, at in ((sketch._buf, (0, 0)), (sketch._size, 0), (sketch._delta, 0),
                             (sketch._dhash, 0)):
                with pytest.raises(ValueError):
                    rows[at] = 1
            for view in (sketch._bufv, sketch._sizev, sketch._deltav):
                with pytest.raises(TypeError):
                    view[0] = 1
        self._assert_empty_rows(BufferedSketch(fam, self.ELL))

    def test_first_write_takes_private_rows(self):
        fam = new_family(self.K, 5)
        shared = BufferedSketch(fam, self.ELL)
        for sketch, members in self._unwritten(fam):
            assert sketch._buf is shared._buf and sketch._size is shared._size
            assert sketch._delta is shared._delta
            sketch.insert(11)
            buffered(sketch)
            assert sketch._buf is not shared._buf and sketch._buf.flags.writeable
            assert sketch.check_invariants(members + [11]).ok
            self._assert_empty_rows(shared)
            self._assert_empty_rows(BufferedSketch(fam, self.ELL))
        wide = BufferedSketch(fam, self.ELL + 1)
        assert wide._buf.shape == (self.K, self.ELL + 1)

    def test_unwritten_sketch_reads_round_trips_and_inserts(self):
        fam = new_family(self.K, 7)
        for sketch, members in self._unwritten(fam):
            assert sketch.is_empty() == (not members)
            data = sketch.to_bytes()
            assert sketch.check_invariants(members).ok
            clone = BufferedSketch.from_bytes(data, family=fam)
            assert state_equal(clone, sketch) and clone.to_bytes() == data
            for restored in (clone, sketch):
                restored.insert(11)
                assert restored.signature().values.tolist() == ref_signature(fam, members + [11]).tolist()
                assert restored.check_invariants(members + [11]).ok
        self._assert_empty_rows(BufferedSketch(fam, self.ELL))

    def test_init_queues_a_copy_of_the_checked_array(self):
        """The queue is the checked elements as given, repeats and order
        kept; a later write to the caller's array never reaches it."""
        fam = new_family(self.K, 9)
        xs = np.array([7, 2, 7, 2**32 - 1], dtype=np.uint64)
        sketch = BufferedSketch.init(xs, fam, self.ELL)
        assert isinstance(sketch._pending, np.ndarray) and sketch._pending.tolist() == xs.tolist()
        xs[:] = 0
        assert sketch.signature().values.tolist() == ref_signature(fam, [7, 2, 2**32 - 1]).tolist()
        assert buffered(sketch).to_bytes() == buffered(BufferedSketch.init([2, 7, 2**32 - 1], fam, self.ELL)).to_bytes()
        with pytest.raises(ValueError):
            BufferedSketch.init(np.array([1, 2**32], dtype=np.uint64), fam, self.ELL)

    def test_init_takes_a_2d_array_as_its_flat_elements(self):
        """An n-d array or nested list holds the elements of its flat form,
        for ``init``'s queue and for ``min_hashes`` alike."""
        fam = new_family(self.K, 11)
        grid = np.array([[4, 8], [15, 4]], dtype=np.uint64)
        want = ref_signature(fam, [4, 8, 15]).tolist()
        for elements in (grid, grid.tolist()):
            sketch = BufferedSketch.init(elements, fam, self.ELL)
            assert sketch._pending.shape == (4,)
            grid[0, 0] = 16  # the caller's array, written after init
            assert sketch.signature().values.tolist() == want
            grid[0, 0] = 4
            assert (fam.min_hashes(elements) >> np.uint64(32)).tolist() == want

    def test_queued_sets_hold_no_rows(self):
        """200 ``init`` + ``signature`` calls on 300-element sets at k=256,
        ell=32 retain under 4 MiB traced: the queued array and the read,
        not 64 KiB of rows per set (16.1 MiB when every sketch built its
        own)."""
        fam = new_family(256, 17)
        rng = np.random.default_rng(17)
        sets = [rng.choice(1 << 32, size=300, replace=False).astype(np.uint64) for _ in range(200)]
        BufferedSketch.init(sets[0], fam, 32).signature()  # tables and shared rows, untraced
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = []
            for xs in sets:
                sketch = BufferedSketch.init(xs, fam, 32)
                sketch.signature()
                kept.append(sketch)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 4 * 2**20


class TestCheckInvariants:
    def test_detects_injected_pair_above_threshold(self):
        fam = new_family(2, 19)
        sk = buffered(BufferedSketch.init(range(50), fam, 4))
        # Replace the largest buffered pair with one above the threshold.
        sk._buf[0, 3] = TOP - np.uint64(1)
        report = sk.check_invariants(range(50))
        assert not report.ok
        assert any("(i)" in v for v in report.violations)

    def test_detects_oversized_buffer(self):
        fam = new_family(1, 23)
        sk = buffered(BufferedSketch.init(range(10), fam, 3))
        sk._size[0] = 5
        report = sk.check_invariants(range(10))
        assert not report.ok
        assert any("(ii)" in v for v in report.violations)

    def test_detects_emptiness_violation(self):
        fam = new_family(1, 29)
        sk = buffered(BufferedSketch.init(range(10), fam, 3))
        sk._size[0] = 0
        sk._buf[0] = TOP
        report = sk.check_invariants(range(10))
        assert not report.ok
        assert any("(iii)" in v for v in report.violations)

    def test_detects_stale_element_index(self):
        fam = new_family(3, 31)
        sk = BufferedSketch.init(range(50), fam, 4)
        sk.delete(1000, lambda: range(50))  # phantom: builds the index
        assert sk._where is not None and sk.check_invariants(range(50)).ok
        x = next(iter(sk._where))
        sk._where[x] = sk._where[x][:-1] or [2]  # drops or invents a row
        report = sk.check_invariants(range(50))
        assert any("(internal)" in v and "index" in v for v in report.violations)

    def test_detects_element_index_entry_with_wrong_key(self):
        fam = new_family(3, 31)
        sk = BufferedSketch.init(range(50), fam, 4)
        sk.delete(1000, lambda: range(50))  # phantom: builds the index
        assert sk._structure_faults() == []
        x = next(iter(sk._where))
        sk._where[x][0] ^= 1 << 40  # a hash bit; the row bits stay intact
        assert any("(internal)" in v and "index" in v for v in sk._structure_faults())


def _rows(sketch):
    return [[int(sketch._delta[i]), sketch._buf[i, :int(sketch._size[i])].tolist()]
            for i in range(sketch.k)]


def _checkpoint(sketch, rows):
    """A BMH1 checkpoint of ``sketch``'s parameters with the given rows."""
    out = [b"BMH1", struct.pack("<IIQ", sketch.k, sketch.ell, sketch.family.master_seed)]
    for delta, keys in rows:
        out.append(struct.pack("<QI", delta, len(keys)) + struct.pack(f"<{len(keys)}Q", *keys))
    return b"".join(out)


def _swap_first_keys(rows):
    keys = rows[0][1]
    keys[0], keys[1] = keys[1], keys[0]


def _forge_element(rows):
    rows[0][1][0] ^= 1  # same hash, another element


def _lower_threshold(rows):
    rows[0][0] = rows[0][1][-1] - 1


def _raise_threshold(rows):
    rows[0][0] = rows[0][1][-1] + 1


def _empty_one_row(rows):
    rows[1][1] = []


class TestSerialization:
    def test_roundtrip(self):
        fam = new_family(5, 31)
        sk = BufferedSketch.init(range(40), fam, 6)
        clone = BufferedSketch.from_bytes(sk.to_bytes())
        assert state_equal(sk, clone)
        assert clone.signature() == sk.signature()

    def test_roundtrip_with_shared_family(self):
        fam = new_family(3, 37)
        sk = BufferedSketch.init(range(10), fam, 2)
        clone = BufferedSketch.from_bytes(sk.to_bytes(), family=fam)
        assert clone.family is fam
        assert state_equal(sk, clone)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            BufferedSketch.from_bytes(b"NOPE" + b"\x00" * 32)

    def test_family_mismatch_rejected(self):
        sk = BufferedSketch.init(range(10), new_family(2, 41), 2)
        with pytest.raises(ValueError):
            BufferedSketch.from_bytes(sk.to_bytes(), family=new_family(2, 42))

    def test_every_truncated_prefix_rejected(self):
        data = BufferedSketch.init(range(40), new_family(5, 31), 6).to_bytes()
        for cut in range(len(data)):
            with pytest.raises(ValueError):
                BufferedSketch.from_bytes(data[:cut])

    def test_oversized_header_rejected(self):
        # Fails on the data's length, before a 200000-function family is built.
        with pytest.raises(ValueError):
            BufferedSketch.from_bytes(b"BMH1" + struct.pack("<IIQ", 200000, 32, 0))

    def test_empty_sketch_roundtrip(self):
        sk = BufferedSketch(new_family(2, 43), 3)
        assert state_equal(BufferedSketch.from_bytes(sk.to_bytes()), sk)

    def test_ell_bound_applies_to_checkpoints(self):
        at_bound = BufferedSketch.init([5], new_family(1, 0), MAX_ELL)
        assert state_equal(BufferedSketch.from_bytes(at_bound.to_bytes()), at_bound)
        above = at_bound.to_bytes()
        above = above[:8] + struct.pack("<I", MAX_ELL + 1) + above[12:]
        with pytest.raises(ValueError, match="ell"):
            BufferedSketch.from_bytes(above)
        # 40 bytes whose header claims ell = 2^22: one genuine pair, which
        # would load into a 32 MiB buffer without the bound.
        forged = BufferedSketch.init([5], new_family(1, 0), 8).to_bytes()
        forged = forged[:8] + struct.pack("<I", 1 << 22) + forged[12:]
        assert len(forged) == 40
        with pytest.raises(ValueError, match="ell"):
            BufferedSketch.from_bytes(forged)

    @pytest.mark.parametrize("mutate", [_swap_first_keys, _forge_element, _lower_threshold,
                                        _raise_threshold, _empty_one_row])
    def test_unreachable_state_rejected(self, mutate):
        sk = buffered(BufferedSketch.init(range(40), new_family(3, 47), 4))
        rows = _rows(sk)
        assert _checkpoint(sk, rows) == sk.to_bytes()
        mutate(rows)
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            BufferedSketch.from_bytes(_checkpoint(sk, rows))

    def test_empty_sketch_with_threshold_rejected(self):
        sk = BufferedSketch(new_family(2, 43), 3)
        with pytest.raises(ValueError, match="threshold is not TOP"):
            BufferedSketch.from_bytes(_checkpoint(sk, [[5, []], [int(TOP), []]]))

    def test_restore_mid_stream_continues_bit_identically(self):
        rng = np.random.default_rng(53)
        fam = new_family(6, 53)
        ops = [("insert" if rng.random() < 0.6 else "delete", int(x))
               for x in rng.integers(0, 40, size=600)]
        whole, _ = _replay(fam, 3, ops)
        for restore_at in (150, 300, 450):
            restored, _ = _replay(fam, 3, ops[:restore_at] + [("roundtrip", None)] + ops[restore_at:])
            assert restored.to_bytes() == whole.to_bytes()


def _oracle_ops(seed, n_ops, pool_size):
    """A random mixed legal/non-legal stream of inserts and deletes of
    ``pool_size`` elements of [0, 2^12): about 30% of the ops are
    non-legal."""
    rng = np.random.default_rng(seed)
    pool = rng.choice(1 << 12, size=pool_size, replace=False)
    members, ops = set(), []
    for _ in range(n_ops):
        x = int(pool[rng.integers(pool_size)])
        present = x in members
        flip = rng.random() < 0.7
        do_insert = (not present) if flip else present
        ops.append(("insert" if do_insert else "delete", x))
        if do_insert:
            members.add(x)
        else:
            members.discard(x)
    return ops


@pytest.mark.parametrize("seed,k,ell", [(0, 1, 1), (1, 4, 2), (2, 8, 8), (3, 3, 16)])
def test_oracle_equivalence_random_streams(seed, k, ell):
    _replay(new_family(k, seed), ell, _read_after(_oracle_ops(seed, n_ops=300, pool_size=40)))


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=9)),
        max_size=60,
    ),
    ell=st.integers(min_value=1, max_value=4),
)
def test_signature_matches_rehash_oracle(ops, ell):
    ops = [("insert" if is_insert else "delete", x) for is_insert, x in ops]
    _replay(new_family(3, 12345), ell, _read_after(ops))


def test_state_is_pure_function_of_seed_and_ops():
    a, _ = _replay(new_family(4, 99), 4, _read_after(_oracle_ops(99, n_ops=200, pool_size=30)))
    b, _ = _replay(new_family(4, 99), 4, _read_after(_oracle_ops(99, n_ops=200, pool_size=30)))
    assert a.to_bytes() == b.to_bytes()
    assert a.fault_count == b.fault_count


def test_nonlegal_stream_matches_deduplicated_legal_stream():
    rng = np.random.default_rng(7)
    fam = new_family(6, 7)
    legal, noisy = [], []
    members = set()
    pool = list(range(60))
    for _ in range(400):
        x = int(pool[rng.integers(len(pool))])
        if x in members:
            op = StreamOp(0, x, -1)
            members.discard(x)
        else:
            op = StreamOp(0, x, 1)
            members.add(x)
        legal.append(op)
        noisy.append(op)
        if rng.random() < 0.2:  # non-legal echo: re-apply against fresh state
            if op.op == 1:
                noisy.append(StreamOp(0, x, 1))  # duplicate insert
            else:
                noisy.append(StreamOp(0, x, -1))  # phantom delete

    def run(ops):
        store = SetStore()
        sk = BufferedSketch(fam, 4)
        recover = store.recovery_provider(0)
        for op in ops:
            store.apply(op)
            if op.op == 1:
                sk.insert(op.element)
            else:
                sk.delete(op.element, recover)
        return sk

    assert run(noisy).to_bytes() == run(legal).to_bytes()


class _BufferModel:
    """The buffer rules in plain Python: one sorted key list per function.

    Keys are ``(h << 32) | x``. A threshold is TOP until its list is full;
    an admitted insert into a full list pushes out the last key and the new
    last key becomes the threshold. A delete that would empty a list rebuilds
    every list from the recovered set; any other delete removes the key and
    keeps the threshold. ``events`` counts the faults and the inserts
    whose key ends last in a full list. ``elements`` holds every element
    the model will see; their keys come from the nibble tables at once.
    """

    def __init__(self, family, ell, elements):
        xs = as_element_set(elements)
        self.keys = dict(zip(xs.tolist(), nibble_keys(family, xs).tolist())).__getitem__
        self.ell = ell
        self.lists = [[] for _ in range(family.k)]
        self.delta = [int(TOP)] * family.k
        self.events = dict.fromkeys(("fault", "last_slot"), 0)

    def insert(self, x):
        for i, key in enumerate(self.keys(x)):
            keys = self.lists[i]
            if key > self.delta[i] or key in keys:
                continue
            full = len(keys) == self.ell
            insort(keys, key)
            if full:
                keys.pop()
                self.events["last_slot"] += keys[-1] == key
            if len(keys) == self.ell:
                self.delta[i] = keys[-1]

    def delete(self, x, members):
        keys = self.keys(x)
        hits = [i for i, key in enumerate(keys) if key in self.lists[i]]
        if any(len(self.lists[i]) == 1 for i in hits):
            self.events["fault"] += bool(members)
            self.rebuild(members)
            return
        for i in hits:
            self.lists[i].remove(keys[i])

    def rebuild(self, members):
        every = [self.keys(x) for x in members]
        for i in range(len(self.lists)):
            keys = sorted(row[i] for row in every)[:self.ell]
            self.lists[i] = keys
            self.delta[i] = keys[-1] if len(keys) == self.ell else int(TOP)

    def assert_matches(self, sketch):
        sketch._flush()
        assert sketch._size.tolist() == [len(keys) for keys in self.lists]
        assert sketch._delta.tolist() == self.delta
        padded = [keys + [int(TOP)] * (self.ell - len(keys)) for keys in self.lists]
        assert sketch._buf.tolist() == padded


@pytest.mark.parametrize("k,ell,mask", [
    pytest.param(3, 1, None, id="1"),
    pytest.param(3, 2, None, id="2"),
    pytest.param(3, 5, None, id="5"),
    pytest.param(3, 32, None, id="32"),
    pytest.param(1, 4, None, id="k1-ell4"),
    pytest.param(70, 6, None, id="k70-ell6"),
    pytest.param(5, 4, 0x1FFFF, id="narrow-k5-ell4"),
    pytest.param(5, 4, 0x7, id="tied-k5-ell4"),
])
def test_state_matches_buffer_model(k, ell, mask):
    """Buffers, sizes and thresholds equal the plain-Python model, read
    after every op of a stream with duplicate inserts, phantom deletes and
    faults.

    A narrow family keeps only the low bits of each hash (``mask``): with
    17, the top 16 bits of every key and threshold are 0 or 1; with 3, the
    stream's elements share eight hashes, so per-op inserts tie their
    threshold's hash with a larger element, which only ``_insert_one``'s
    full-key comparison rejects (``hash_tie_above``)."""
    rng = np.random.default_rng(ell)
    fam = new_family(k, 100 + ell)
    if mask is not None:
        fam = family_from_tables(fam.tables & mask)
    pool = rng.choice(1 << 20, size=4 * ell + 16, replace=False).tolist()
    members, ops = set(), []
    for step in range(2400):
        # Alternate phases that fill the buffers and drain the set to empty,
        # so faults happen at every ell. Many ops are non-legal.
        draining = step // 300 % 2 == 1
        if draining and members and rng.random() < 0.8:
            x = sorted(members)[rng.integers(len(members))]
        else:
            x = pool[rng.integers(len(pool))]
        if rng.random() < (0.02 if draining else 0.85 if x in members else 0.95):
            ops.append(("insert", x))
            members.add(x)
        else:
            ops.append(("delete", x))
            members.discard(x)
    _, events = _replay(fam, ell, _read_after(ops))
    assert min(events[e] for e in ("duplicate", "phantom", "fault", "last_slot")) > 0, events
    assert events["hash_tie_above"] > 0 or mask != 0x7, events


def _candidate_states(fam, ell, seed):
    """(label, elements, sketch): one sketch of ``fam`` taken through fill
    levels, each yielded with 400 elements to test, members and others.

    Empty and short rows have every threshold TOP. Then per-op inserts fill
    every row, a merge lowers the thresholds, deletes leave rows short, and
    deletes run on until a fault rebuilds into fresh arrays."""
    rng = np.random.default_rng(seed)
    pool = rng.choice(1 << 32, size=400, replace=False)
    xs, sk = pool.astype(np.uint64), BufferedSketch(fam, ell)
    yield "empty", xs, sk
    for x in pool[:ell - 1].tolist():
        sk.insert(x)
    yield "short", xs, sk
    for x in pool[ell - 1:ell + 2].tolist():
        sk.insert(x)
    yield "just full", xs, sk
    for x in pool[ell + 2:300].tolist():
        sk.insert(x)
    yield "merged", xs, sk
    members = set(pool[:300].tolist())
    order = iter(rng.permutation(pool[:300]).tolist())
    for x in [next(order) for _ in range(100)]:
        members.discard(x)
        sk.delete(x, lambda: list(members))
    yield "deleted", xs, sk
    faults = sk.fault_count
    while sk.fault_count == faults:
        x = next(order)
        members.discard(x)
        sk.delete(x, lambda: list(members))
    yield "fault", xs, sk


@pytest.mark.parametrize("k,ell,narrow", [(16, 4, False), (5, 3, False), (16, 4, True)])
def test_candidates_match_keys_many(k, ell, narrow):
    """``_candidates(x)`` lists, in function order, every function whose
    key of x is at or below its threshold, only functions whose key's hash
    (so also its top 16 bits) is at or below the threshold's, and x's exact
    keys. The narrow family keeps the low 17 bits of each hash, so most keys
    tie their threshold's top 16 bits, below it and above it."""
    fam = new_family(k, 60 + k)
    if narrow:
        fam = family_from_tables(fam.tables & 0x1FFFF)
    ties = 0
    for label, xs, sk in _candidate_states(fam, ell, k + ell):
        sk._flush()
        delta = sk._delta.copy()
        every_top = (delta == TOP).all()
        assert every_top == (label in ("empty", "short")), label
        for x, keys in zip(xs.tolist(), fam.keys_many(xs)):
            got = sk._candidates(x)
            fns = [i for i, _ in got]
            assert fns == sorted(set(fns)), (label, x)
            assert set(np.flatnonzero(keys <= delta).tolist()) <= set(fns), (label, x)
            assert (keys[fns] >> np.uint64(48) <= delta[fns] >> np.uint64(48)).all(), (label, x)
            assert (keys[fns] >> np.uint64(32) <= delta[fns] >> np.uint64(32)).all(), (label, x)
            assert [key for _, key in got] == keys[fns].tolist(), (label, x)
            assert len(fns) == k or not every_top, (label, x)
            ties += int(((keys > delta) & (keys >> np.uint64(48) == delta >> np.uint64(48))).sum())
    assert ties > 0 or not narrow


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("ops", [[0, 1], [1, 0], [5, 0, 1, 1], [2, 3, 0, 1]])
def test_per_op_insert_rejects_an_equal_hash_above_the_threshold(ell, ops):
    """Function 0 hashes elements 0 and 1 alike (equal nibble-0 entries), so
    once a row holds one of them at its threshold, the other passes
    ``_candidates`` on its hash, and only the full-key comparison in
    ``_insert_one`` tells 1 (above the threshold) from 0 (below it)."""
    tables = new_family(3, 61).tables.copy()
    tables[0, 0, 1] = tables[0, 0, 0]
    fam = family_from_tables(tables)
    assert fam.key_one(0)[0] >> np.uint64(32) == fam.key_one(1)[0] >> np.uint64(32)
    _replay(fam, ell, _read_after([("insert", x) for x in ops]))


def _bursty_ops(seed, ell):
    """A stream of ("insert", x), ("delete", x) and ("read", None) ops.

    It runs in groups of three insert bursts. The first takes one of the
    lengths around the merge cut-off and the pending cap, and deletes then
    shrink the set to ell + 2 elements. The second is short and is followed
    by a few deletes, which leave rows short but with their thresholds. The
    third, merged, meets those rows and inserts the whole set again; the
    set is then drained. Bursts draw some elements from themselves and from
    the tracked set, and some deletes are phantom.
    """
    rng = np.random.default_rng(seed)
    cut, cap = core._MERGE_MIN, core._PENDING_CAP
    pool = rng.choice(1 << 32, size=3 * cap, replace=False).tolist()
    members, ops = [], []

    def burst(length, extra=()):
        nonlocal members
        run = []
        for _ in range(length):
            r = rng.random()
            if run and r < 0.05:
                x = run[rng.integers(len(run))]
            elif members and r < 0.2:
                x = members[rng.integers(len(members))]
            else:
                x = pool[rng.integers(len(pool))]
            run.append(x)
        run += extra
        ops.extend(("insert", x) for x in run)
        members = list(dict.fromkeys(members + run))
        ops.append(("read", None))

    def delete(victims):
        nonlocal members
        for x in victims:
            if rng.random() < 0.2:
                ops.append(("delete", pool[rng.integers(len(pool))]))  # mostly phantom
            ops.append(("delete", x))
        gone = set(victims)
        members = [x for x in members if x not in gone]
        ops.append(("read", None))

    for length in (cut - 1, cut, cut + 1, cap - 1, cap, cap + 1):
        burst(length)
        delete(rng.permutation(members)[:max(0, len(members) - ell - 2)].tolist())
        burst(int(rng.integers(1, 4)))
        delete([members[i] for i in rng.integers(len(members), size=rng.integers(1, ell + 2))])
        burst(cut, members)
        delete(rng.permutation(members).tolist())
    return ops


def _replay_deferred(ops, k, ell, seed, on_burst=None):
    """Replay ``ops``; returns (to_bytes, fault_count) after every delete and
    read. ``on_burst(sketch, None)`` sees the state before each insert burst,
    and ``on_burst(sketch, burst)`` the burst's elements once it ends."""
    fam = new_family(k, seed)
    sketch, members, snaps, burst = BufferedSketch(fam, ell), set(), [], []
    for op, x in ops:
        if op == "insert":
            if on_burst is not None and not burst:
                on_burst(sketch, None)
            burst.append(x)
            members.add(x)
            sketch.insert(x)
            continue
        if burst and on_burst is not None:
            on_burst(sketch, burst)
        burst = []
        if op == "delete":
            members.discard(x)
            sketch.delete(x, lambda: list(members))
        else:
            try:
                sig = sketch.signature()
            except EmptySetError:
                assert not members and sketch.is_empty()
            else:
                assert np.array_equal(sig.values, ref_signature(fam, members))
            assert sketch.check_invariants(members).ok
        snaps.append((sketch.to_bytes(), sketch.fault_count))
    return snaps


@pytest.mark.parametrize("k,ell,seed", [(1, 1, 0), (5, 2, 1), (64, 32, 2), (40, 7, 3)])
def test_deferred_inserts_match_per_op_path(monkeypatch, k, ell, seed):
    """Merged insert runs leave the state of inserting one by one: after
    every delete and read, checkpoints and fault counts equal those of a
    replay whose flushes all run the per-op insert."""
    ops = _bursty_ops(seed, ell)
    cut, cap = core._MERGE_MIN, core._PENDING_CAP
    events = dict.fromkeys(("dup_in_run", "dup_buffered", "phantom", "fault",
                            "merged_into_short_row_with_threshold"), 0)
    before = {}

    def observe(sketch, burst):
        if burst is None:
            sketch._flush()  # queued removals leave deleted keys in the rows
            buf = sketch._buf[sketch._buf != TOP]
            before.update(buffered=set((buf & np.uint64(0xFFFFFFFF)).tolist()),
                          size=sketch._size.copy(), delta=sketch._delta.copy())
            return
        events["dup_in_run"] += len(set(burst)) < len(burst)
        events["dup_buffered"] += any(x in before["buffered"] for x in burst)
        sketch._flush()
        short = (before["size"] < ell) & (before["delta"] != TOP)
        grew = (short & (sketch._size > before["size"])).any()
        events["merged_into_short_row_with_threshold"] += len(burst) >= cut and bool(grew)

    with monkeypatch.context() as m:
        m.setattr(core, "_MERGE_MIN", cap + 1)
        want = _replay_deferred(ops, k, ell, seed, observe)
    members = set()
    for op, x in ops:
        if op == "delete":
            events["phantom"] += x not in members
            members.discard(x)
        elif op == "insert":
            members.add(x)
    events["fault"] = want[-1][1]

    flushed = []
    flush = BufferedSketch._flush

    def counted_flush(sketch):
        if sketch._pending:
            flushed.append(len(sketch._pending))
        flush(sketch)

    monkeypatch.setattr(BufferedSketch, "_flush", counted_flush)
    got = _replay_deferred(ops, k, ell, seed)
    assert len(got) == len(want)
    for j, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"state differs after snapshot {j}"
    runs = {"below_cut": min(flushed) < cut, "at_cut": cut in flushed,
            "merged_below_cap": any(cut < n < cap for n in flushed), "at_cap": cap in flushed,
            "above_cap": max(flushed) == cap and any(n > cap for n in _burst_lengths(ops))}
    assert all(runs.values()), runs
    if ell == 1:  # a one-slot row is full or, with every other row, empty
        del events["merged_into_short_row_with_threshold"]
    assert min(events.values()) > 0, events


def _burst_lengths(ops):
    lengths, n = [], 0
    for op, _ in ops:
        if op == "insert":
            n += 1
        elif n:
            lengths.append(n)
            n = 0
    return lengths


def _queued_ops(seed, pool, ell, rounds, top=None):
    """Ops for ``_replay``: rounds of an insert burst, then a run of at
    least 64 deletes with no read between them, then a read.

    A run deletes members in random order, mixed with phantom deletes.
    About a third of the runs drain the set and end with a stale delete of
    the last member, which faults and fails; the next round deletes that
    member again. Other runs carry, at a random place, a short insert burst,
    a burst long enough to be merged, or a checkpoint round trip
    ("roundtrip"). ``top`` joins every other burst.
    """
    rng = np.random.default_rng(seed)
    fresh = iter(pool)
    members, ops = [], []
    for r in range(rounds):
        burst = [next(fresh) for _ in range(int(rng.choice([2, ell, 4 * ell, core._MERGE_MIN + 7])))]
        if top is not None and r % 2 == 0 and top not in members:
            burst.insert(int(rng.integers(len(burst) + 1)), top)
        ops += [("insert", x) for x in burst]
        members += burst
        victims = rng.permutation(members).tolist()
        drain = rng.random() < 0.35
        if not drain:
            victims = victims[:int(rng.integers(len(victims) // 2, len(victims)))]
        gone = set(victims)
        members = [x for x in members if x not in gone]
        run = [("delete", x) for x in (victims[:-1] if drain else victims)]
        while len(run) < 64 or rng.random() < 0.2:
            run.insert(int(rng.integers(len(run) + 1)), ("delete", next(fresh)))  # phantom
        if drain:
            run.append(("stale", victims[-1]))
            members = victims[-1:]
        else:
            extra = rng.random()
            if extra < 0.6:
                burst = [next(fresh) for _ in range(3 if extra < 0.3 else core._MERGE_MIN + 3)]
                members += burst
                extra = [("insert", x) for x in burst]
            else:
                extra = [("roundtrip", None)] if extra < 0.8 else []
            at = int(rng.integers(1, len(run)))
            run[at:at] = extra
        ops += run
        ops.append(("read", None))
    return ops


class TestRemovalQueue:
    """A delete's row removals wait in a queue until the next read (or the
    next flush of inserts), and a fault discards them; the state at every
    read equals the buffer model's."""

    @pytest.mark.parametrize("k,ell,seed", [(4, 4, 1), (16, 8, 2), (3, 5, 3), (64, 3, 4)])
    def test_runs_of_deletes_match_buffer_model(self, k, ell, seed):
        """Rows lose several keys before a read; faults and stale recoveries
        meet a non-empty queue; inserts, merged ones too, are flushed after
        queued removals; checkpoints round-trip mid-run. Element 2^32 - 1
        is deleted while it is buffered and other removals are queued.
        Merged runs meet rows that all hold the whole set, which
        ``_merge`` refills with the union."""
        fam, top = new_family(k, 60 + seed), 2**32 - 1
        pool = np.random.default_rng(seed).choice(1 << 31, size=20000, replace=False).tolist()
        _, events = _replay(fam, ell, _queued_ops(seed, pool, ell, 40, top))
        assert min(events[e] for e in (
            "several_in_row", "top_element_queued", "fault_queued", "stale_queued", "flush_both",
            "merge_queued", "roundtrip_queued", "refill")) > 0, events
        assert events["most_queued"] > ell, events

    def test_top_key_deleted_with_removals_queued(self):
        """Under the crafted family, 2^32 - 1's key in row 0 is TOP, which
        a search over the whole row must tell from the padding, and which a
        refill of rows that hold the whole set must take by row 0's size."""
        fam, top = _top_key_family(), TestTopKeyElement.X
        _, events = _replay(fam, 6, _queued_ops(14, list(range(10, 20000)), 6, 40, top))
        assert events["most_queued"] > 6, events
        assert events["top_key_queued"] > 0 and events["several_in_row"] > 0, events
        assert events["refill"] > 0 and events["top_refill"] > 0, events
