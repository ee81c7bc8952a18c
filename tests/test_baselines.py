import struct

import numpy as np
import pytest

from dynminhash import _kernels
from dynminhash.baselines import ALPHA, BssProactiveSketch, BssSketch, VanillaSketch
from dynminhash.core import TOP
from dynminhash.errors import EmptyRowError, EmptySetError, IllegalStreamError, RecoveryError
from dynminhash.hashing import HashFamily, new_family
from dynminhash.similarity import estimate_jaccard, exact_jaccard
from dynminhash.streams import PairGenConfig, gen_correlated_pair

from conftest import ref_min_keys, ref_signature


class TestVanilla:
    def test_insert_replaces_larger_entry(self):
        fam = new_family(4, 1)
        sk = VanillaSketch(fam)
        sk.insert(100)
        sk.insert(200)
        assert np.array_equal(sk._entries, ref_min_keys(fam, [100, 200]))

    def test_delete_nonmin_is_noop(self):
        fam = new_family(4, 2)
        elements = list(range(50))
        sk = VanillaSketch.init(elements, fam)
        mins = {int(e) for e in (sk._entries & np.uint64(0xFFFFFFFF))}
        victim = next(x for x in elements if x not in mins)
        before = sk.to_bytes()

        def recover():  # pragma: no cover - must not be called
            raise AssertionError("recovery must not run for a non-argmin delete")

        sk.delete(victim, recover)
        assert sk.to_bytes() == before
        assert sk.fault_count == 0

    def test_delete_argmin_triggers_single_recovery(self):
        fam = new_family(5, 3)
        elements = list(range(300, 400))
        sk = VanillaSketch.init(elements, fam)
        victim = int(sk._entries[3] & np.uint64(0xFFFFFFFF))
        remaining = [x for x in elements if x != victim]
        calls = []

        def recover():
            calls.append(1)
            return remaining

        sk.delete(victim, recover)
        assert calls == [1]
        assert sk.fault_count == 1
        assert np.array_equal(sk._entries, ref_min_keys(fam, remaining))

    def test_nonlegal_ops_are_noops(self):
        fam = new_family(3, 4)
        sk = VanillaSketch.init([1, 2, 3], fam)
        before = sk.to_bytes()
        sk.insert(2)  # already present
        sk.delete(99, lambda: [1, 2, 3])  # absent
        assert sk.to_bytes() == before

    def test_oracle_equivalence_random_stream(self):
        rng = np.random.default_rng(5)
        fam = new_family(6, 5)
        sk = VanillaSketch(fam)
        members = set()
        for _ in range(400):
            x = int(rng.integers(0, 60))
            if x in members and rng.random() < 0.7:
                members.discard(x)
                sk.delete(x, lambda: list(members))
            else:
                members.add(x)
                sk.insert(x)
            if members:
                assert np.array_equal(sk.signature().values, ref_signature(fam, members))

    def test_empty_signature_raises(self):
        sk = VanillaSketch(new_family(2, 6))
        with pytest.raises(EmptySetError):
            sk.signature()

    def test_recovery_failure_propagates(self):
        fam = new_family(2, 7)
        sk = VanillaSketch.init([5], fam)
        with pytest.raises(RecoveryError):
            sk.delete(5, lambda: (_ for _ in ()).throw(OSError("down")))

    def test_serialization_roundtrip(self):
        fam = new_family(4, 8)
        sk = VanillaSketch.init(range(20), fam)
        clone = VanillaSketch.from_bytes(sk.to_bytes())
        assert np.array_equal(clone._entries, sk._entries)
        with pytest.raises(ValueError):
            VanillaSketch.from_bytes(b"XXXX" + sk.to_bytes()[4:])

    def test_stale_recovery_raises_and_keeps_state(self):
        fam = new_family(3, 9)
        sk = VanillaSketch.init(range(30), fam)
        victim = int(sk._entries[0] & np.uint64(0xFFFFFFFF))
        before = sk.to_bytes()
        with pytest.raises(RecoveryError):
            sk.delete(victim, lambda: range(30))  # still holds the victim
        assert sk.to_bytes() == before
        assert sk.fault_count == 0

    def test_forged_checkpoint_entry_rejected(self):
        data = VanillaSketch.init(range(20), new_family(4, 8)).to_bytes()
        entry = 16 + 8 * 2  # function 2's entry
        key = int.from_bytes(data[entry:entry + 8], "little")
        for forged in (key ^ 1, key ^ (1 << 40), 0xFFFFFFFFFFFFFFFF):
            bad = data[:entry] + forged.to_bytes(8, "little") + data[entry + 8:]
            with pytest.raises(ValueError):
                VanillaSketch.from_bytes(bad)

    def test_empty_checkpoint_loads(self):
        sk = VanillaSketch(new_family(4, 8))
        assert VanillaSketch.from_bytes(sk.to_bytes()).to_bytes() == sk.to_bytes()

    @pytest.mark.parametrize("x", [2**40, -5])
    def test_delete_rejects_element_outside_universe(self, x):
        fam = new_family(2, 3)
        for sk in (VanillaSketch(fam), VanillaSketch.init(range(10), fam)):
            with pytest.raises(ValueError):
                sk.delete(x, lambda: [])


def _top_key_family():
    """Three functions; the first hashes 2^32 - 1 to 0xFFFFFFFF, so that
    element's pair key equals TOP."""
    tables = new_family(3, 59).tables.copy()
    tables[0, :, 15] = 0
    tables[0, 7, 15] = 0xFFFFFFFF
    return HashFamily.from_tables(tables)


@pytest.mark.parametrize("compiled", [False, True], ids=["fallback", "kernels"])
class TestVanillaTopKeyElement:
    X = 2**32 - 1

    def test_singleton_signature(self, monkeypatch, compiled):
        monkeypatch.setattr(_kernels, "ENABLED", compiled)
        fam = _top_key_family()
        sk = VanillaSketch(fam)
        sk.insert(self.X)
        assert sk._entries[0] == TOP
        for got in (sk, VanillaSketch.init([self.X], fam), VanillaSketch.from_bytes(sk.to_bytes(), fam)):
            assert np.array_equal(got.signature().values, ref_signature(fam, [self.X]))

    def test_delete_then_insert_matches_init(self, monkeypatch, compiled):
        monkeypatch.setattr(_kernels, "ENABLED", compiled)
        fam = _top_key_family()
        sk = VanillaSketch.init([self.X], fam)
        sk.delete(self.X, lambda: [])
        with pytest.raises(EmptySetError):
            sk.signature()
        sk.insert(5)
        assert sk.signature() == VanillaSketch.init([5], fam).signature()

    def test_delete_from_empty_is_noop(self, monkeypatch, compiled):
        monkeypatch.setattr(_kernels, "ENABLED", compiled)
        sk = VanillaSketch(_top_key_family())

        def recover():  # pragma: no cover - must not be called
            raise AssertionError("an empty sketch must not recover")

        sk.delete(self.X, recover)
        assert (sk._entries == TOP).all()


class TestBss:
    def test_insert_delete_symmetry(self):
        sk = BssSketch(c2=64, family=new_family(4, 51), universe_bits=14, seed=1)
        before = sk.counters.copy()
        sk.insert(123)
        sk.delete(123)
        assert np.array_equal(sk.counters, before)
        assert sk.n == 0

    def test_level_zero_element_touches_row_zero_only(self):
        sk = BssSketch(c2=64, family=new_family(4, 52), universe_bits=14, seed=2)
        x = next(x for x in range(1000) if sk.h1(x, 1 << 32) % 2 == 1)
        row, _, _ = sk.update(x, 1)
        assert row == 0
        assert sk.counters[0].sum() == 1
        assert sk.counters[1:].sum() == 0

    def test_counter_total_tracks_live_size(self):
        rng = np.random.default_rng(3)
        sk = BssSketch(c2=128, family=new_family(4, 53), universe_bits=16, seed=3)
        members = set()
        for _ in range(1000):
            if members and rng.random() < 0.45:
                x = int(rng.choice(sorted(members)))
                members.discard(x)
                sk.delete(x)
            else:
                x = int(rng.integers(0, 1 << 16))
                if x in members:
                    continue
                members.add(x)
                sk.insert(x)
            assert sk.n == len(members)
            assert int(sk.counters.sum()) == len(members)

    def test_zero_decrement_rejected(self):
        sk = BssSketch(c2=16, family=new_family(4, 54), universe_bits=14, seed=4)
        with pytest.raises(IllegalStreamError):
            sk.delete(7)

    def test_singleton_signature_hashes_its_cell(self):
        fam = new_family(8, 55)
        sk = BssSketch(c2=32, family=fam, universe_bits=14, seed=5)
        x = next(x for x in range(1000) if sk.h1(x, 1 << 32) % 2 == 1)  # level 0
        sk.insert(x)
        sig = sk.signature()
        cell = sk.h2(x, sk.c2)
        assert np.array_equal(sig.values, fam.eval_one(cell))

    def test_singleton_off_row_reports_empty_row(self):
        sk = BssSketch(c2=32, family=new_family(4, 56), universe_bits=14, seed=6)
        x = next(x for x in range(1000) if sk.h1(x, 1 << 32) % 4 == 2)  # level 1
        sk.insert(x)
        with pytest.raises(EmptyRowError):
            sk.signature()

    def test_identical_contents_identical_signatures(self):
        fam = new_family(16, 57)
        a = BssSketch(c2=64, family=fam, universe_bits=14, seed=7)
        b = BssSketch(c2=64, family=fam, universe_bits=14, seed=7)
        for x in range(200, 400):
            a.insert(x)
            b.insert(x)
        assert a.signature() == b.signature()

    def test_empty_set_raises(self):
        sk = BssSketch(c2=16, family=new_family(2, 58), universe_bits=14, seed=8)
        with pytest.raises(EmptySetError):
            sk.signature()

    def test_serialization_roundtrip(self):
        fam = new_family(4, 59)
        sk = BssSketch(c2=32, family=fam, universe_bits=12, seed=9)
        for x in range(100):
            sk.insert(x)
        clone = BssSketch.from_bytes(sk.to_bytes(), fam)
        assert np.array_equal(clone.counters, sk.counters)
        assert clone.n == sk.n
        assert clone.signature() == sk.signature()

    def test_delete_never_recovers(self):
        sk = BssSketch(c2=16, family=new_family(2, 60), universe_bits=14, seed=10)
        sk.insert(7)

        def recover():  # pragma: no cover - must not be called
            raise AssertionError("the counters need no recovery")

        sk.delete(7, recover)
        assert sk.n == 0

    def test_signature_is_min_hash_of_row_cells(self):
        fam = new_family(8, 61)
        sk = BssSketch(c2=64, family=fam, universe_bits=14, seed=11)
        for x in range(500):
            sk.insert(x)
        cells = np.flatnonzero(sk.counters[sk.query_row()])
        assert np.array_equal(sk.signature().values, ref_signature(fam, cells))

    @pytest.mark.slow
    def test_estimate_quality_at_high_similarity(self):
        # Monte-Carlo calibrated: the selected row samples ~1/(2*ALPHA)
        # elements, so at J = 0.8 with c^2 = k = 1024 the absolute error has
        # an 80th percentile of ~0.20 (measured over 200 seeds); +/-0.25
        # covers ~92%. Assert at least 80% within 0.25. Empty-row queries
        # (a known failure mode of this sketch) count as misses.
        k = 1024
        fam_seed = 1000
        cfg = PairGenConfig(universe_size=1 << 17, density=0.05, target_j=0.8)
        hits = 0
        trials = 100
        for t in range(trials):
            a, b = gen_correlated_pair(cfg, 2000 + t)
            fam = new_family(k, fam_seed + t)
            sa = BssSketch(c2=k, family=fam, universe_bits=17, seed=3000 + t)
            sb = BssSketch(c2=k, family=fam, universe_bits=17, seed=3000 + t)
            for x in a:
                sa.insert(int(x))
            for x in b:
                sb.insert(int(x))
            try:
                est = estimate_jaccard(sa.signature(), sb.signature()).estimate
            except EmptyRowError:
                continue
            hits += abs(est - exact_jaccard(a, b)) <= 0.25
        assert hits >= 80, f"only {hits}/{trials} estimates within 0.25"


class TestBssProactive:
    def _fresh(self, k=8, seed=10):
        fam = new_family(k, seed)
        return BssProactiveSketch(c2=32, family=fam, universe_bits=14, seed=seed), fam

    def test_insert_updates_signature_without_recompute(self):
        sk, fam = self._fresh()
        x = next(x for x in range(1000) if sk.h1(x, 1 << 32) % 2 == 1)
        sk.update(x, 1)
        assert sk.fault_count == 0
        cell = sk.h2(x, sk.c2)
        assert np.array_equal(sk.signature().values, fam.eval_one(cell))

    def test_row_signatures_match_rehash_after_every_op(self):
        rng = np.random.default_rng(11)
        sk, fam = self._fresh(k=4, seed=11)
        members = set()
        for _ in range(300):
            if members and rng.random() < 0.5:
                x = int(rng.choice(sorted(members)))
                members.discard(x)
                sk.update(x, -1)
            else:
                x = int(rng.integers(0, 1 << 14))
                if x in members:
                    continue
                members.add(x)
                sk.update(x, 1)
            for row in range(sk.rows):
                cells = np.flatnonzero(sk.counters[row]).astype(np.uint64)
                if cells.size == 0:
                    assert np.all(sk.row_sigs[row] == TOP)
                else:
                    assert np.array_equal(
                        sk.row_sigs[row], ref_min_keys(fam, cells)
                    )

    def test_deleting_argmin_cell_recomputes(self):
        sk, fam = self._fresh(k=4, seed=12)
        level0 = [x for x in range(4000) if sk.h1(x, 1 << 32) % 2 == 1]
        # two elements in row 0 with distinct cells
        a = level0[0]
        b = next(x for x in level0 if sk.h2(x, sk.c2) != sk.h2(a, sk.c2))
        sk.update(a, 1)
        sk.update(b, 1)
        argmin_cells = {int(c) for c in (sk.row_sigs[0] & np.uint64(0xFFFFFFFF))}
        victim = a if sk.h2(a, sk.c2) in argmin_cells else b
        survivor = b if victim is a else a
        sk.update(victim, -1)
        assert sk.fault_count == 1
        cells = np.array([sk.h2(survivor, sk.c2)], dtype=np.uint64)
        assert np.array_equal(sk.row_sigs[0], ref_min_keys(fam, cells))

    def test_loaded_checkpoint_answers_like_the_streamed_sketch(self):
        fam = new_family(4, 1)
        plain = BssSketch(16, fam, 8, 3)
        streamed = BssProactiveSketch(16, fam, 8, 3)
        for x in range(200):
            plain.insert(x)
            streamed.insert(x)
        assert streamed.to_bytes() == plain.to_bytes()  # one BSS1 format for both
        loaded = BssProactiveSketch.from_bytes(streamed.to_bytes(), fam)
        ops = [(x, 1) for x in range(200, 260)] + [(x, -1) for x in range(0, 200, 3)]
        for x, op in ops:
            loaded.update(x, op)
            streamed.update(x, op)
            assert np.array_equal(loaded.row_sigs, streamed.row_sigs)
        assert loaded.signature() == streamed.signature()

    def test_delete_from_doubly_occupied_cell_keeps_signature(self):
        sk, _ = self._fresh(k=4, seed=13)
        pool = [x for x in range(5000) if sk.h1(x, 1 << 32) % 2 == 1]
        a = pool[0]
        b = next(x for x in pool if sk.h2(x, sk.c2) == sk.h2(a, sk.c2) and x != a)
        sk.update(a, 1)
        sk.update(b, 1)
        before = sk.row_sigs.copy()
        sk.update(a, -1)
        assert np.array_equal(sk.row_sigs, before)
        assert sk.fault_count == 0


_BSS_FAMILY = new_family(4, 9)


class _Bss:
    # A loader named from_bytes, like the others, with the family bound.
    @staticmethod
    def from_bytes(data):
        return BssSketch.from_bytes(data, _BSS_FAMILY)


def _bss_checkpoint():
    sk = BssSketch(c2=8, family=_BSS_FAMILY, universe_bits=6, seed=9)
    for x in range(30):
        sk.insert(x)
    return sk.to_bytes()


@pytest.mark.parametrize("loader,data", [
    (VanillaSketch.from_bytes, VanillaSketch.init(range(20), new_family(4, 8)).to_bytes()),
    (_Bss.from_bytes, _bss_checkpoint()),
])
def test_every_truncated_checkpoint_prefix_rejected(loader, data):
    for cut in range(len(data)):
        with pytest.raises(ValueError):
            loader(data[:cut])
    with pytest.raises(ValueError):
        loader(data + b"\x00")


@pytest.mark.parametrize("loader,data", [
    (VanillaSketch.from_bytes, b"VMH1" + struct.pack("<IQ", 1 << 31, 0)),
    (_Bss.from_bytes, b"BSS1" + struct.pack("<IIQq", (1 << 32) - 1, 32, 0, 0)),
])
def test_oversized_header_rejected(loader, data):
    # Fails on the data's length, before a family or counter matrix is built.
    with pytest.raises(ValueError):
        loader(data)


def _with_counter(data, value, n_delta=0):
    """The checkpoint with its first counter set to value and n shifted by n_delta."""
    n = struct.unpack_from("<q", data, 20)[0]
    return data[:20] + struct.pack("<q", n + n_delta) + struct.pack("<q", value) + data[36:]


def test_bss_checkpoint_with_negative_counter_rejected():
    data = _bss_checkpoint()
    first = struct.unpack_from("<q", data, 28)[0]
    bad = _with_counter(data, -1, -1 - first)  # n still equals the counter total
    with pytest.raises(ValueError, match="negative"):
        _Bss.from_bytes(bad)


def test_bss_checkpoint_with_wrong_size_rejected():
    data = _bss_checkpoint()
    first = struct.unpack_from("<q", data, 28)[0]
    assert _Bss.from_bytes(_with_counter(data, first)).n == 30
    for bad in (_with_counter(data, first, 1), _with_counter(data, first + 1)):
        with pytest.raises(ValueError, match="total"):
            _Bss.from_bytes(bad)
