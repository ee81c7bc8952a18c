import hashlib
import struct
from bisect import insort

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynminhash import _kernels
from dynminhash.core import MAX_ELL, TOP, BufferedSketch, Signature, make_key, split_key
from dynminhash.errors import EmptySetError, RecoveryError
from dynminhash.hashing import HashFamily, new_family
from dynminhash.streams import SetStore, StreamOp

from conftest import ref_signature


def test_key_roundtrip():
    key = make_key(0xDEADBEEF, 0x12345678)
    assert split_key(key) == (0xDEADBEEF, 0x12345678)
    assert split_key(TOP) == (0xFFFFFFFF, 0xFFFFFFFF)


class TestInit:
    def test_empty_set(self):
        sk = BufferedSketch.init([], new_family(3, 1), 4)
        assert sk.is_empty()
        assert sk.total_buffered() == 0
        assert all(sk.threshold(i) is None for i in range(3))
        assert sk.check_invariants([]).ok

    def test_not_full_branch(self):
        fam = new_family(1, 2)
        sk = BufferedSketch.init([10, 20, 30], fam, 5)
        assert sk.total_buffered() == 3
        assert sk.threshold(0) is None
        assert sk.check_invariants([10, 20, 30]).ok

    def test_buffers_equal_bruteforce_smallest(self):
        fam = new_family(4, 7)
        elements = list(range(1000, 1100))
        sk = BufferedSketch.init(elements, fam, 8)
        xs = np.array(elements, dtype=np.uint64)
        keys = (fam.eval_many(xs) << np.uint64(32)) | xs[:, None]
        for i in range(4):
            expect = np.sort(keys[:, i])[:8]
            got = [make_key(h, e) for h, e in sk.buffer_contents(i)]
            assert got == expect.tolist()
            assert sk.threshold(i) == split_key(expect[-1])

    def test_duplicates_deduplicated(self):
        fam = new_family(2, 3)
        a = BufferedSketch.init([5, 5, 6, 6, 6], fam, 4)
        b = BufferedSketch.init([5, 6], fam, 4)
        assert a.state_equal(b)

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


class TestInsert:
    def test_into_empty_keeps_threshold_top(self, id_family):
        sk = BufferedSketch(id_family, 2)
        sk.insert(5)
        assert sk.buffer_contents(0) == [(5, 5)]
        assert sk.threshold(0) is None

    def test_full_buffer_hand_trace(self, id_family):
        # identity hashes: pairs are (x, x); buffer {(3,3),(7,7)}, delta (7,7)
        sk = BufferedSketch.init([3, 7], id_family, 2)
        assert sk.threshold(0) == (7, 7)
        sk.insert(5)
        assert sk.buffer_contents(0) == [(3, 3), (5, 5)]
        assert sk.threshold(0) == (5, 5)
        # cross-check against a from-scratch rebuild on the same set
        rebuilt = BufferedSketch.init([3, 7, 5], id_family, 2)
        assert np.array_equal(
            sk.signature().values, rebuilt.signature().values
        )

    def test_above_threshold_ignored(self, id_family):
        sk = BufferedSketch.init([1, 2], id_family, 2)
        sk.insert(9)  # (9, 9) > delta (2, 2)
        assert sk.buffer_contents(0) == [(1, 1), (2, 2)]
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
        assert sk.buffer_contents(0) == [(4, 4)]
        sk.delete(4, lambda: [9])
        assert sk.fault_count == 1
        assert sk.recovery_elements_streamed == 1
        assert sk.buffer_contents(0) == [(9, 9)]
        assert sk.check_invariants([9]).ok

    def test_delete_last_element_resets_cleanly(self, id_family):
        sk = BufferedSketch.init([42], id_family, 2)
        sk.delete(42, lambda: [])
        assert sk.is_empty()
        assert sk.threshold(0) is None
        assert sk.fault_count == 0  # emptying the set is not a fault
        assert sk.check_invariants([]).ok

    def test_unbuffered_delete_leaves_buffers(self):
        fam = new_family(2, 17)
        elements = list(range(200))
        sk = BufferedSketch.init(elements, fam, 4)
        buffered = {e for i in range(2) for _, e in sk.buffer_contents(i)}
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

    @pytest.mark.parametrize("compiled", [False, True], ids=["fallback", "kernels"])
    def test_stale_recovery_raises_and_keeps_state(self, id_family, monkeypatch, compiled):
        # Deleting 4 faults, so 4 was present; a store still holding it is stale.
        monkeypatch.setattr(_kernels, "ENABLED", compiled)
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
    return HashFamily.from_tables(tables)


@pytest.mark.parametrize("compiled", [False, True], ids=["fallback", "kernels"])
class TestTopKeyElement:
    X = 2**32 - 1

    def test_insert_matches_init(self, monkeypatch, compiled):
        monkeypatch.setattr(_kernels, "ENABLED", compiled)
        fam = _top_key_family()
        for members in ([], [1, 2], [1, 2, 3, 4]):
            sk = BufferedSketch.init(members, fam, 3)
            sk.insert(self.X)
            want = BufferedSketch.init(members + [self.X], fam, 3)
            assert sk.state_equal(want)
            assert sk.signature() == want.signature()

    def test_phantom_delete_is_noop(self, monkeypatch, compiled):
        monkeypatch.setattr(_kernels, "ENABLED", compiled)
        sk = BufferedSketch.init([1, 2], _top_key_family(), 3)
        before = sk.to_bytes()
        sk.delete(self.X, lambda: [1, 2])
        assert sk.to_bytes() == before

    def test_delete_matches_init_signature(self, monkeypatch, compiled):
        monkeypatch.setattr(_kernels, "ENABLED", compiled)
        fam = _top_key_family()
        sk = BufferedSketch.init([1, 2, self.X], fam, 3)
        sk.delete(self.X, lambda: [1, 2])
        assert sk.signature() == BufferedSketch.init([1, 2], fam, 3).signature()
        assert sk.check_invariants([1, 2]).ok


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


class TestCheckInvariants:
    def test_detects_injected_pair_above_threshold(self):
        fam = new_family(2, 19)
        sk = BufferedSketch.init(range(50), fam, 4)
        # Replace the largest buffered pair with one above the threshold.
        sk._buf[0, 3] = TOP - np.uint64(1)
        report = sk.check_invariants(range(50))
        assert not report.ok
        assert any("(i)" in v for v in report.violations)

    def test_detects_oversized_buffer(self):
        fam = new_family(1, 23)
        sk = BufferedSketch.init(range(10), fam, 3)
        sk._size[0] = 5
        report = sk.check_invariants(range(10))
        assert not report.ok
        assert any("(ii)" in v for v in report.violations)

    def test_detects_emptiness_violation(self):
        fam = new_family(1, 29)
        sk = BufferedSketch.init(range(10), fam, 3)
        sk._size[0] = 0
        sk._buf[0] = TOP
        report = sk.check_invariants(range(10))
        assert not report.ok
        assert any("(iii)" in v for v in report.violations)

    def test_detects_stale_threshold_gate(self):
        fam = new_family(3, 31)
        sk = BufferedSketch.init(range(50), fam, 4)
        assert sk.check_invariants(range(50)).ok
        sk._gate += 1 << 16  # lane 1 admits one more top-bits value
        report = sk.check_invariants(range(50))
        assert any("(internal)" in v and "gate" in v for v in report.violations)


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
        assert sk.state_equal(clone)
        assert clone.signature() == sk.signature()

    def test_roundtrip_with_shared_family(self):
        fam = new_family(3, 37)
        sk = BufferedSketch.init(range(10), fam, 2)
        clone = BufferedSketch.from_bytes(sk.to_bytes(), family=fam)
        assert clone.family is fam
        assert sk.state_equal(clone)

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
        assert BufferedSketch.from_bytes(sk.to_bytes()).state_equal(sk)

    def test_ell_bound_applies_to_checkpoints(self):
        at_bound = BufferedSketch.init([5], new_family(1, 0), MAX_ELL)
        assert BufferedSketch.from_bytes(at_bound.to_bytes()).state_equal(at_bound)
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
        sk = BufferedSketch.init(range(40), new_family(3, 47), 4)
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
        ops = [(bool(rng.random() < 0.6), int(x)) for x in rng.integers(0, 40, size=600)]

        def run(restore_at):
            sketch, members = BufferedSketch(fam, 3), set()
            for j, (is_insert, x) in enumerate(ops):
                if j == restore_at:
                    sketch = BufferedSketch.from_bytes(sketch.to_bytes(), family=fam)
                if is_insert:
                    members.add(x)
                    sketch.insert(x)
                else:
                    members.discard(x)
                    sketch.delete(x, lambda: list(members))
            return sketch

        whole = run(None)
        for restore_at in (150, 300, 450):
            assert run(restore_at).to_bytes() == whole.to_bytes()


def _replay(seed, n_ops, k, ell, pool_size, universe=1 << 12):
    """Replay a random mixed legal/non-legal stream, checking the oracle and
    the invariants after every op. Returns the final sketch and store."""
    rng = np.random.default_rng(seed)
    fam = new_family(k, seed)
    store = SetStore()
    sketch = BufferedSketch(fam, ell)
    recover = store.recovery_provider(0)
    pool = rng.choice(universe, size=pool_size, replace=False)
    for _ in range(n_ops):
        x = int(pool[rng.integers(pool_size)])
        present = x in store.contents(0)
        flip = rng.random() < 0.7
        do_insert = (not present) if flip else present
        store.apply(StreamOp(0, x, 1 if do_insert else -1))
        if do_insert:
            sketch.insert(x)
        else:
            sketch.delete(x, recover)
        members = store.contents(0)
        assert sketch.check_invariants(members).ok
        assert sketch.total_buffered() <= k * ell
        if members:
            expect = ref_signature(fam, members)
            assert np.array_equal(sketch.signature().values, expect)
        else:
            assert sketch.is_empty()
    return sketch, store


@pytest.mark.parametrize("seed,k,ell", [(0, 1, 1), (1, 4, 2), (2, 8, 8), (3, 3, 16)])
def test_oracle_equivalence_random_streams(seed, k, ell):
    _replay(seed, n_ops=300, k=k, ell=ell, pool_size=40)


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=9)),
        max_size=60,
    ),
    ell=st.integers(min_value=1, max_value=4),
)
def test_signature_matches_rehash_oracle(ops, ell):
    fam = new_family(3, 12345)
    members = set()
    sketch = BufferedSketch(fam, ell)
    for is_insert, x in ops:
        if is_insert:
            members.add(x)
            sketch.insert(x)
        else:
            members.discard(x)
            sketch.delete(x, lambda: list(members))
        assert sketch.check_invariants(members).ok
        if members:
            assert np.array_equal(
                sketch.signature().values, ref_signature(fam, members)
            )
        else:
            assert sketch.is_empty()


def test_state_is_pure_function_of_seed_and_ops():
    a, _ = _replay(99, n_ops=200, k=4, ell=4, pool_size=30)
    b, _ = _replay(99, n_ops=200, k=4, ell=4, pool_size=30)
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
    keeps the threshold. ``events`` counts the cases a stream has exercised.
    """

    def __init__(self, family, ell):
        self.fns = family.functions
        self.ell = ell
        self.lists = [[] for _ in self.fns]
        self.delta = [int(TOP)] * len(self.fns)
        self.events = dict.fromkeys(("duplicate", "phantom", "fault", "last_slot"), 0)

    def keys(self, x):
        return [(fn(x) << 32) | x for fn in self.fns]

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
        for i, fn in enumerate(self.fns):
            keys = sorted((fn(x) << 32) | x for x in members)[:self.ell]
            self.lists[i] = keys
            self.delta[i] = keys[-1] if len(keys) == self.ell else int(TOP)

    def assert_matches(self, sketch):
        assert sketch._size.tolist() == [len(keys) for keys in self.lists]
        assert sketch._delta.tolist() == self.delta
        padded = [keys + [int(TOP)] * (self.ell - len(keys)) for keys in self.lists]
        assert sketch._buf.tolist() == padded


@pytest.mark.parametrize("k,ell,narrow", [
    pytest.param(3, 1, False, id="1"),
    pytest.param(3, 2, False, id="2"),
    pytest.param(3, 5, False, id="5"),
    pytest.param(3, 32, False, id="32"),
    pytest.param(1, 4, False, id="k1-ell4"),
    pytest.param(70, 6, False, id="k70-ell6"),
    pytest.param(5, 4, True, id="narrow-k5-ell4"),
])
def test_state_matches_buffer_model(k, ell, narrow):
    """Buffers, sizes and thresholds equal the plain-Python model after every
    op of a stream with duplicate inserts, phantom deletes and faults.

    A narrow family keeps only the low 17 bits of each hash, so every key
    shares its top 15 bits with every threshold: the stream ops' gate then
    admits every function and the exact key comparison must reject."""
    rng = np.random.default_rng(ell)
    fam = new_family(k, 100 + ell)
    if narrow:
        fam = HashFamily.from_tables(fam.tables & 0x1FFFF)
    pool = rng.choice(1 << 20, size=4 * ell + 16, replace=False).tolist()
    sketch, model, members = BufferedSketch(fam, ell), _BufferModel(fam, ell), set()
    gate_false_positives = 0
    for step in range(2400):
        # Alternate phases that fill the buffers and drain the set to empty,
        # so faults happen at every ell. Many ops are non-legal.
        draining = step // 300 % 2 == 1
        if draining and members and rng.random() < 0.8:
            x = sorted(members)[rng.integers(len(members))]
        else:
            x = pool[rng.integers(len(pool))]
        present = x in members
        gate_false_positives += any(key > d and key >> 49 == d >> 49
                                    for key, d in zip(model.keys(x), model.delta))
        insert = rng.random() < (0.02 if draining else 0.85 if present else 0.95)
        if insert:
            model.events["duplicate"] += present
            members.add(x)
            sketch.insert(x)
            model.insert(x)
        else:
            model.events["phantom"] += not present
            members.discard(x)
            sketch.delete(x, lambda: list(members))
            model.delete(x, members)
        model.assert_matches(sketch)
        assert sketch._structure_faults() == []
    assert min(model.events.values()) > 0, model.events
    assert gate_false_positives > 0 or not narrow
