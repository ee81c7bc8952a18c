"""Fuzzed checkpoint bytes: every loader either raises ValueError or returns
a state that passes its format's checks.

Each example starts from a valid BMH1, VMH1 or BSS1 checkpoint and
overwrites, truncates or extends it. A load that succeeds must re-serialise
to exactly the bytes it read (all three formats are canonical) and pass the
checks the format promises.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dynminhash.baselines import BssProactiveSketch, BssSketch, VanillaSketch
from dynminhash.core import TOP, BufferedSketch
from dynminhash.hashing import new_family

_FAMILY = new_family(3, 21)


def _bmh1():
    return BufferedSketch.init(range(0, 60, 3), _FAMILY, 4).to_bytes()


def _vmh1():
    return VanillaSketch.init(range(10), _FAMILY).to_bytes()


def _bss1():
    sk = BssSketch(4, _FAMILY, 5, 7)
    for x in range(25):
        sk.insert(x)
    return sk.to_bytes()


def _mutations(valid: bytes):
    n = len(valid)
    overwrite = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 255)),
                         min_size=1, max_size=4)
    return st.one_of(
        overwrite.map(lambda edits: _overwrite(valid, edits)),
        st.integers(0, n - 1).map(lambda cut: valid[:cut]),
        st.binary(min_size=1, max_size=24).map(lambda tail: valid + tail),
    )


def _overwrite(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for pos, value in edits:
        out[pos] = value
    return bytes(out)


def _load(loader, data):
    try:
        return loader(data)
    except ValueError:
        return None


_FUZZ = settings(max_examples=60, deadline=None)


@_FUZZ
@given(_mutations(_bmh1()))
def test_bmh1_loads_only_consistent_states(data):
    sketch = _load(BufferedSketch.from_bytes, data)
    if sketch is not None:
        assert sketch.to_bytes() == data
        assert sketch._structure_faults() == []


@_FUZZ
@given(_mutations(_vmh1()))
def test_vmh1_loads_only_genuine_entries(data):
    sketch = _load(VanillaSketch.from_bytes, data)
    if sketch is not None:
        assert sketch.to_bytes() == data
        entries = sketch._entries
        low = entries & np.uint64(0xFFFFFFFF)
        genuine = sketch.family.keys_at(low[:, None])[:, 0] == entries
        assert genuine.all() or (entries == TOP).all()


@_FUZZ
@given(_mutations(_bss1()))
def test_bss1_loads_only_consistent_counters(data):
    sketch = _load(lambda d: BssProactiveSketch.from_bytes(d, _FAMILY), data)
    if sketch is not None:
        assert sketch.to_bytes() == data
        assert (sketch.counters >= 0).all()
        assert int(sketch.counters.sum()) == sketch.n
        for row in range(sketch.rows):
            want = _FAMILY.min_hashes(np.flatnonzero(sketch.counters[row]))
            assert np.array_equal(sketch.row_sigs[row], want)
