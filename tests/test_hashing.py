import numpy as np
import pytest

from dynminhash.hashing import (
    _GATHER_KEYS,
    HashFamily,
    PairwiseHash,
    TabulationHash,
    derive_seed,
    new_family,
    new_pairwise,
)


def unrolled_eval(tables, x):
    """Independent 8-lookup reference evaluation over raw nibble tables."""
    h = 0
    for t in range(8):
        h ^= int(tables[t, (x >> (4 * t)) & 15])
    return h


def test_same_seed_same_outputs():
    f1 = new_family(1, 42)
    f2 = new_family(1, 42)
    assert f1.fn(0)(7) == f2.fn(0)(7)
    assert np.array_equal(f1.tables, f2.tables)


def test_family_functions_all_distinct():
    fam = new_family(2000, 12345)
    blobs = {fam.tables[i].tobytes() for i in range(2000)}
    assert len(blobs) == 2000


def test_different_seeds_rarely_collide():
    collisions = 0
    for trial in range(100):
        a = new_family(1, 2 * trial).fn(0)(7)
        b = new_family(1, 2 * trial + 1).fn(0)(7)
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
    h = new_family(1, 42).fn(0)
    assert h(123456) == unrolled_eval(h.tables, 123456)


def test_vectorised_paths_match_scalar():
    fam = new_family(5, 7)
    xs = np.array([0, 1, 255, 123456, (1 << 32) - 1], dtype=np.uint64)
    many = fam.eval_many(xs)
    for j, x in enumerate(xs):
        scalar = fam.eval_one(int(x))
        for i in range(fam.k):
            ref = unrolled_eval(fam.tables[i], int(x))
            assert int(many[j, i]) == ref
            assert int(scalar[i]) == ref
            assert fam.fn(i)(int(x)) == ref


def _nibble_keys(fam, xs):
    """(n, k) pair keys evaluated over the 8 nibble tables, vectorised."""
    h = np.zeros((fam.k, xs.size), dtype=np.uint64)
    for t in range(8):
        h ^= fam.tables[:, t, ((xs >> np.uint64(4 * t)) & np.uint64(15)).astype(np.intp)]
    return ((h << np.uint64(32)) | xs).T


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
        assert np.array_equal(got, _nibble_keys(fam, xs))
        for j in {0, n - 1} if n else ():
            x = int(xs[j])
            assert [int(v) for v in got[j]] == [(fam.fn(i)(x) << 32) | x for i in range(k)]


@pytest.mark.parametrize("k,n", [(1, 5), (7, 1000), (256, 300), (256, 513)])
def test_keys_many_is_stored_function_major(k, n):
    # The rebuild partitions keys_many(xs).T along its rows, in place.
    # Element-major storage gives the same values but strides every
    # selection, so no value test would notice it.
    xs = np.arange(n, dtype=np.uint64)
    assert new_family(k, 1).keys_many(xs).T.flags.c_contiguous


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
    h = new_family(1, 3).fn(0)
    with pytest.raises(ValueError):
        h(1 << 32)
    with pytest.raises(ValueError):
        h(-1)


def test_min_hashes_matches_direct_min():
    fam = new_family(16, 5)
    xs = np.arange(1000, dtype=np.uint64)
    keys = (fam.eval_many(xs) << np.uint64(32)) | xs[:, None]
    direct = keys.min(axis=0)
    assert np.array_equal(fam.min_hashes(xs), direct)
    # chunking must not change the result
    assert np.array_equal(fam.min_hashes(xs, chunk_bytes=1024), direct)


def test_output_bits_are_uniform():
    fam = new_family(1, 2024)
    xs = np.random.default_rng(0).integers(0, 1 << 32, size=1_000_000, dtype=np.uint64)
    values = fam.eval_many(xs)[:, 0]
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
    keys_a = ((fam.eval_many(a) << np.uint64(32)) | a[:, None]).min(axis=0)
    keys_b = ((fam.eval_many(b) << np.uint64(32)) | b[:, None]).min(axis=0)
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

    def test_eval_many_matches_scalar(self):
        h = new_pairwise(4)
        xs = [3, 1 << 20, (1 << 32) - 1]
        assert list(h.eval_many(xs, 997)) == [h(x, 997) for x in xs]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PairwiseHash(a=0, b=0)
        with pytest.raises(ValueError):
            PairwiseHash(a=1, b=PairwiseHash.P)


def test_from_tables_shape_validation():
    with pytest.raises(ValueError):
        TabulationHash.from_tables(np.zeros((4, 16), dtype=np.uint32))
    with pytest.raises(ValueError):
        HashFamily.from_tables(np.zeros((2, 8, 15), dtype=np.uint32))
