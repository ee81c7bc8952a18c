import numpy as np
import pytest

from dynminhash import hashing
from dynminhash.core import TOP
from dynminhash.hashing import (
    _GATHER_KEYS,
    HashFamily,
    PairwiseHash,
    derive_seed,
    new_family,
    new_pairwise,
)

from hash_oracles import TabulationHash, family_from_tables, fn, nibble_keys


def unrolled_eval(tables, x):
    """Independent 8-lookup reference evaluation over raw nibble tables."""
    h = 0
    for t in range(8):
        h ^= int(tables[t, (x >> (4 * t)) & 15])
    return h


def test_same_seed_same_outputs():
    f1 = new_family(1, 42)
    f2 = new_family(1, 42)
    assert fn(f1, 0)(7) == fn(f2, 0)(7)
    assert np.array_equal(f1.tables, f2.tables)


def test_family_functions_all_distinct():
    fam = new_family(2000, 12345)
    blobs = {fam.tables[i].tobytes() for i in range(2000)}
    assert len(blobs) == 2000


def test_different_seeds_rarely_collide():
    collisions = 0
    for trial in range(100):
        a = fn(new_family(1, 2 * trial), 0)(7)
        b = fn(new_family(1, 2 * trial + 1), 0)(7)
        collisions += a == b
    assert collisions == 0


def test_eval_zero_tables_is_zero():
    h = TabulationHash.from_tables(np.zeros((8, 16), dtype=np.uint32))
    assert h(0) == 0
    assert h(123456789) == 0


def test_eval_x_zero_xors_first_entries():
    h = TabulationHash(seed=9)
    expected = 0
    for t in range(8):
        expected ^= int(h.tables[t, 0])
    assert h(0) == expected


def test_eval_matches_unrolled_reference():
    h = fn(new_family(1, 42), 0)
    assert h(123456) == unrolled_eval(h.tables, 123456)


def test_vectorised_paths_match_scalar():
    fam = new_family(5, 7)
    xs = np.array([0, 1, 255, 123456, (1 << 32) - 1], dtype=np.uint64)
    many = fam.keys_many(xs) >> np.uint64(32)
    for j, x in enumerate(xs):
        scalar = fam.key_one(int(x)) >> np.uint64(32)
        for i in range(fam.k):
            ref = unrolled_eval(fam.tables[i], int(x))
            assert int(many[j, i]) == ref
            assert int(scalar[i]) == ref
            assert fn(fam, i)(int(x)) == ref


@pytest.mark.parametrize("k", [1, 3, 256])
def test_keys_many_matches_nibble_tables_across_gather_blocks(k):
    fam = new_family(k, 100 + k)
    block = _GATHER_KEYS // k  # elements per gather block
    rng = np.random.default_rng(k)
    for n in (0, 1, block - 1, block, block + 1):
        xs = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
        xs[:1] = (1 << 32) - 1
        got = fam.keys_many(xs)
        assert got.shape == (n, k)
        assert np.array_equal(got, nibble_keys(fam, xs))
        for j in {0, n - 1} if n else ():
            x = int(xs[j])
            assert [int(v) for v in got[j]] == [(fn(fam, i)(x) << 32) | x for i in range(k)]


@pytest.mark.parametrize("k,n", [(1, 5), (7, 1000), (256, 300), (256, 513)])
def test_keys_many_is_stored_function_major(k, n):
    # BufferedSketch._merge partitions keys_many(xs).T along its rows, in place.
    # Element-major storage gives the same values but strides every
    # selection, so no value test would notice it.
    xs = np.arange(n, dtype=np.uint64)
    assert new_family(k, 1).keys_many(xs).T.flags.c_contiguous


@pytest.mark.parametrize("k,narrow,block", [
    (7, False, None), (7, False, 13), (256, False, None), (5, True, None), (5, True, 13)])
def test_keys_below_is_the_brute_force_filter_by_function_then_element(monkeypatch, k, narrow,
                                                                       block):
    """``_keys_below`` returns exactly the keys at or below each function's
    bound, ordered by function and then element: under random bounds,
    bounds equal to a key or one below it, and bounds of TOP. The narrow
    family keeps the low 17 bits of each hash, so most keys' top 16 bits tie
    their bound's and the full comparison decides. A block of 13 elements
    spreads the prefix filter over many gather blocks. One bound for every
    function (random, a key or one below a key), as a fill of empty rows
    passes it, with a cap: the same keys under a cap of every pair, and
    None once more pairs pass the prefix test than the cap."""
    fam = new_family(k, 300 + k)
    if narrow:
        fam = family_from_tables(fam.tables & 0x1FFFF)
    if block is not None:
        monkeypatch.setattr(hashing, "_GATHER_KEYS", block * k)
    rng, pick = np.random.default_rng(k), np.random.default_rng(400 + k)
    xs = hashing.as_element_set(rng.integers(0, 1 << 32, size=400, dtype=np.uint64))
    every = nibble_keys(fam, xs).T  # (k, n): function i's keys in element order
    top = np.full(k, TOP, dtype=np.uint64)
    ties = 0
    for trial in range(12):
        drawn = every[np.arange(k), rng.integers(0, xs.size, size=k)]
        choices = np.stack([
            rng.integers(0, 1 << 64, size=k, dtype=np.uint64), drawn, drawn - np.uint64(1), top])
        bound = choices[rng.integers(0, 4, size=k), np.arange(k)] if trial else top
        uniform = np.full(k, choices[pick.integers(0, 3), pick.integers(0, k)])
        for b, cap in ((bound, None), (uniform, every.size)):
            fn_got, keys_got = fam._keys_below(xs, b, cap)
            fn_want, j_want = np.nonzero(every <= b[:, None])
            assert np.array_equal(fn_got, fn_want)
            assert np.array_equal(keys_got, every[fn_want, j_want])
        ties += int(((every >> np.uint64(48) == (bound >> np.uint64(48))[:, None])
                     & (every > bound[:, None])).sum())
        passing = int((every >> np.uint64(48) <= uniform[:, None] >> np.uint64(48)).sum())
        assert passing == 0 or fam._keys_below(xs, uniform, passing - 1) is None
    assert ties > 0 or not narrow


@pytest.mark.parametrize("k,narrow", [(7, False), (256, False), (5, True)])
def test_keys_under_is_the_brute_force_filter_under_one_bound(k, narrow):
    """``_keys_below`` under one bound for every function, as a fill of
    empty rows passes it, returns exactly the keys at or below it, ordered
    by function and then element, for bounds drawn at random, equal to a
    key and one below a key; and None once more pairs pass the prefix test
    than its cap."""
    fam = new_family(k, 400 + k)
    if narrow:
        fam = family_from_tables(fam.tables & 0x1FFFF)
    rng = np.random.default_rng(k)
    xs = hashing.as_element_set(rng.integers(0, 1 << 32, size=400, dtype=np.uint64))
    every = nibble_keys(fam, xs).T
    drawn = every[rng.integers(0, k, size=4), rng.integers(0, xs.size, size=4)]
    for bound in [*rng.integers(0, 1 << 64, size=4, dtype=np.uint64), *drawn, *(drawn - 1)]:
        uniform = np.full(k, bound, dtype=np.uint64)
        fn_got, keys_got = fam._keys_below(xs, uniform, every.size)
        fn_want, j_want = np.nonzero(every <= bound)
        assert np.array_equal(fn_got, fn_want)
        assert np.array_equal(keys_got, every[fn_want, j_want])
        passing = int((every >> np.uint64(48) <= bound >> np.uint64(48)).sum())
        assert passing == 0 or fam._keys_below(xs, uniform, passing - 1) is None


def test_keys_at_gathers_each_functions_own_elements():
    fam = new_family(5, 7)
    xs = np.random.default_rng(8).integers(0, 1 << 32, size=(5, 4), dtype=np.uint64)
    xs[0, 0] = (1 << 32) - 1
    got = fam.keys_at(xs)
    assert got.shape == (5, 4)
    for i in range(fam.k):
        for j in range(4):
            x = int(xs[i, j])
            assert int(got[i, j]) == (unrolled_eval(fam.tables[i], x) << 32) | x


def test_fn_reproducible_from_own_seed():
    fam = new_family(3, 77)
    for i in range(3):
        standalone = TabulationHash(derive_seed(77, i))
        assert np.array_equal(standalone.tables, fam.tables[i])


def test_family_rejects_bad_args():
    with pytest.raises(ValueError):
        new_family(0, 1)
    with pytest.raises(ValueError):
        new_family(1, -1)
    with pytest.raises(ValueError):
        new_family(1, 1 << 64)


def test_eval_rejects_out_of_universe():
    h = fn(new_family(1, 3), 0)
    with pytest.raises(ValueError):
        h(1 << 32)
    with pytest.raises(ValueError):
        h(-1)


def _tied_family():
    """Eight functions under which 3, 0x300 and 0x303 all hash to 0, the
    least hash, and no other element of ``range(0x10, 0x40)`` does."""
    tables = new_family(8, 6).tables.copy()
    tables[:, :, 0] = 0
    tables[:, 0, 3] = tables[:, 2, 3] = 0
    return family_from_tables(tables)


def test_min_hashes_matches_direct_min(monkeypatch):
    """Against the keys' column minimum and the nibble oracle's, neither of
    which scans prefixes, at k = 16 and 256: over 1000 small elements, 300
    below 2^20 (an acp set) and 300 of 32 bits; under a random family and
    two crowded ones, the low 17 and the low 16 bits of its hashes. Under
    the latter every prefix is 0, so full keys decide every minimum. A tie
    on a function's least hash goes to the smaller element, within a block
    and across blocks; unsorted input with repeats reads as its set. Blocks
    of 7 elements must not change the result."""
    rng = np.random.default_rng(5)
    inputs = (np.arange(1000, dtype=np.uint64),
              rng.choice(1 << 20, size=300, replace=False).astype(np.uint64),
              rng.choice(1 << 32, size=300, replace=False).astype(np.uint64))
    cases = []
    for k in (16, 256):
        fam = new_family(k, 5)
        for family in [fam] + [family_from_tables(fam.tables & mask) for mask in (0x1FFFF, 0xFFFF)]:
            for xs in inputs:
                direct = family.keys_many(xs).min(axis=0)
                assert np.array_equal(direct, nibble_keys(family, xs).min(axis=0))
                shuffled = rng.permutation(np.concatenate((xs, xs[::3], xs[-7:])))
                cases.append((family, xs, shuffled, direct))
    tied, rest = _tied_family(), list(range(0x10, 0x40))
    for block in (None, 7):
        for family, xs, shuffled, direct in cases:
            if block is not None:
                monkeypatch.setattr(hashing, "_GATHER_KEYS", block * family.k)
            assert np.array_equal(family.min_hashes(xs), direct)
            assert np.array_equal(family.min_hashes(shuffled), direct)
            assert np.array_equal(family.min_hashes(shuffled.tolist()), direct)
        if block is not None:
            monkeypatch.setattr(hashing, "_GATHER_KEYS", block * tied.k)
        for members, winner in (([0x303, 0x300, 3], 3), ([0x303, 0x300], 0x300)):
            ys = np.array(members + rest + members[::-1], dtype=np.uint64)
            want = nibble_keys(tied, np.unique(ys)).min(axis=0)
            assert want.tolist() == [winner] * tied.k  # hash 0, element ``winner``
            assert np.array_equal(tied.min_hashes(ys), want)


def test_output_bits_are_uniform():
    fam = new_family(1, 2024)
    xs = np.random.default_rng(0).integers(0, 1 << 32, size=1_000_000, dtype=np.uint64)
    values = fam.keys_many(xs)[:, 0] >> np.uint64(32)
    for bit in range(32):
        freq = np.count_nonzero(values & np.uint64(1 << bit)) / xs.size
        assert abs(freq - 0.5) < 0.01, f"bit {bit} frequency {freq}"


def test_minhash_alignment_tracks_jaccard():
    # A and B share 100 of 200 union elements: J = 0.5. The fraction of
    # functions whose minima align must match J within 3 binomial sigmas.
    rng = np.random.default_rng(11)
    union = rng.choice(1 << 32, size=200, replace=False).astype(np.uint64)
    a = union[:150]
    b = union[50:]
    j = 100 / 200
    k = 10_000
    fam = new_family(k, 2718)
    keys_a = fam.keys_many(a).min(axis=0)
    keys_b = fam.keys_many(b).min(axis=0)
    frac = np.count_nonzero((keys_a >> np.uint64(32)) == (keys_b >> np.uint64(32))) / k
    assert abs(frac - j) <= 3 * np.sqrt(j * (1 - j) / k)


class TestPairwise:
    def test_identity_parameters(self):
        h = PairwiseHash(a=1, b=0)
        for x in (0, 1, 12345, (1 << 32) - 1):
            assert h(x, PairwiseHash.P) == x

    def test_matches_big_integer_oracle(self):
        h = new_pairwise(99)
        p = PairwiseHash.P
        for x in (0, 7, 1 << 31, (1 << 32) - 1):
            assert h(x, 1000) == ((h.a * x + h.b) % p) % 1000

    def test_two_seeds_differ(self):
        pairs = {(new_pairwise(s).a, new_pairwise(s).b) for s in range(50)}
        assert len(pairs) == 50

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PairwiseHash(a=0, b=0)
        with pytest.raises(ValueError):
            PairwiseHash(a=1, b=PairwiseHash.P)


def test_from_tables_shape_validation():
    with pytest.raises(ValueError):
        TabulationHash.from_tables(np.zeros((4, 16), dtype=np.uint32))
    with pytest.raises(ValueError):
        family_from_tables(np.zeros((2, 8, 15), dtype=np.uint32))


def test_from_tables_rejects_an_empty_family():
    # Once accepted, and every sketch over it failed in its memoryview casts.
    with pytest.raises(ValueError, match="k must be >= 1"):
        family_from_tables(np.zeros((0, 8, 16), dtype=np.uint32))
    with pytest.raises(ValueError, match="k must be >= 1"):
        HashFamily(0, 1)
