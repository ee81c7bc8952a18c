"""Every entry point takes an element the same way, and rejects the same inputs.

An element is a Python int (or integer-dtype array of them) in [0, 2^32).
A float, str or other non-integer raises TypeError, an integer outside the
universe raises ValueError, and a rejected input leaves the sketch as it was.
A recovery result is checked the same way, and a bad one raises
RecoveryError before any counter moves. ``HashFamily.keys_many`` and
``min_hashes`` check their elements the same way too.
"""

import numpy as np
import pytest

from dynminhash.baselines import BssSketch, VanillaSketch
from dynminhash.core import BufferedSketch
from dynminhash.errors import RecoveryError
from dynminhash.hashing import as_element_set, new_family

FAMILY = new_family(4, 1)

#: (bad input, error for a scalar op, error inside a set of elements).
BAD = {
    "minus_one": (-1, ValueError, ValueError),
    "two_pow_32": (1 << 32, ValueError, ValueError),
    "two_pow_64": (1 << 64, ValueError, ValueError),
    "float": (1.5, TypeError, TypeError),
    "str": ("3", TypeError, TypeError),
    "float64_array": (np.array([3.0, 5.0]), TypeError, TypeError),
    "int64_array_with_minus_one": (np.array([3, -1], dtype=np.int64), TypeError, ValueError),
}


def _as_set(bad):
    """The bad input as a set argument: arrays as they are, scalars beside a good element."""
    return bad if isinstance(bad, np.ndarray) else [3, bad]


def _buffered():
    return BufferedSketch.init([7], FAMILY, 2)


def _vanilla():
    return VanillaSketch.init([7], FAMILY)


def _bss():
    sketch = BssSketch(8, FAMILY, seed=2)
    sketch.insert(7)
    return sketch


def _state(sketch):
    return (sketch.to_bytes(), getattr(sketch, "fault_count", None),
            getattr(sketch, "recovery_elements_streamed", None))


SCALAR_OPS = {
    "buffered_insert": (_buffered, lambda sk, x, rec: sk.insert(x)),
    "buffered_delete": (_buffered, lambda sk, x, rec: sk.delete(x, rec)),
    "vanilla_insert": (_vanilla, lambda sk, x, rec: sk.insert(x)),
    "vanilla_delete": (_vanilla, lambda sk, x, rec: sk.delete(x, rec)),
    "bss_insert": (_bss, lambda sk, x, rec: sk.insert(x)),
    "bss_delete": (_bss, lambda sk, x, rec: sk.delete(x, rec)),
}


@pytest.mark.parametrize("bad_name", BAD)
@pytest.mark.parametrize("op_name", SCALAR_OPS)
def test_scalar_op_rejects_and_keeps_state(op_name, bad_name):
    make, op = SCALAR_OPS[op_name]
    bad, error, _ = BAD[bad_name]
    sketch = make()
    before = _state(sketch)
    calls = []
    with pytest.raises(error):
        op(sketch, bad, lambda: calls.append(1) or [])
    assert calls == []
    assert _state(sketch) == before


INITS = {
    "buffered_init": lambda xs: BufferedSketch.init(xs, FAMILY, 2),
    "vanilla_init": lambda xs: VanillaSketch.init(xs, FAMILY),
}
EMPTY = {"buffered_init": lambda: BufferedSketch(FAMILY, 2), "vanilla_init": lambda: VanillaSketch(FAMILY)}


@pytest.mark.parametrize("bad_name", BAD)
@pytest.mark.parametrize("init_name", INITS)
def test_init_rejects(init_name, bad_name):
    bad, _, error = BAD[bad_name]
    with pytest.raises(error):
        INITS[init_name](_as_set(bad))


@pytest.mark.parametrize("bad_name", BAD)
@pytest.mark.parametrize("method", ["keys_many", "min_hashes"])
def test_hash_evaluation_rejects(method, bad_name):
    bad, _, error = BAD[bad_name]
    with pytest.raises(error):
        getattr(FAMILY, method)(_as_set(bad))


@pytest.mark.parametrize("bad_name", BAD)
@pytest.mark.parametrize("make", [_buffered, _vanilla], ids=["buffered", "vanilla"])
def test_recovery_result_rejected_before_any_counter_moves(make, bad_name):
    bad, _, cause = BAD[bad_name]
    sketch = make()
    before = _state(sketch)
    with pytest.raises(RecoveryError) as err:
        sketch.delete(7, lambda: _as_set(bad))  # the only element: a fault
    assert isinstance(err.value.__cause__, cause)
    assert _state(sketch) == before


@pytest.mark.parametrize("empty", [[], set(), np.array([])], ids=["list", "set", "float64_array"])
@pytest.mark.parametrize("init_name", INITS)
def test_empty_input_is_the_empty_set(init_name, empty):
    assert INITS[init_name](empty).to_bytes() == EMPTY[init_name]().to_bytes()


def test_any_iterable_gives_the_same_set_and_errors():
    # A list or tuple goes to numpy as it is; other iterables are listed first.
    want = as_element_set(np.array([9, 3, 3, 2**32 - 1], dtype=np.uint64))
    for xs in ([9, 3, 3, 2**32 - 1], (9, 3, 3, 2**32 - 1), iter([9, 3, 3, 2**32 - 1]),
               {9, 3, 2**32 - 1}, np.array([9, 3, 2**32 - 1], dtype=np.int64)):
        assert np.array_equal(as_element_set(xs), want)
    for bad, _, error in BAD.values():
        if not isinstance(bad, np.ndarray):
            for wrap in (list, tuple, iter):
                with pytest.raises(error):
                    as_element_set(wrap([3, bad]))


def test_found_reproductions():
    for xs in ([1.5, 7.9], ["1", "7"]):
        with pytest.raises(TypeError):
            BufferedSketch.init(xs, FAMILY, 4)
    with pytest.raises(ValueError):
        BufferedSketch.init([-5], new_family(2, 1), 2)
    for sketch in (BufferedSketch.init([1], FAMILY, 2), VanillaSketch.init([1], FAMILY)):
        with pytest.raises(TypeError):
            sketch.delete(1.0, list)
    for sketch in (_buffered(), _vanilla()):
        with pytest.raises(RecoveryError):
            sketch.delete(7, lambda: [1 << 40])
        assert (sketch.fault_count, sketch.recovery_elements_streamed) == (0, 0)
        assert type(sketch).from_bytes(sketch.to_bytes(), FAMILY).to_bytes() == sketch.to_bytes()
    family = new_family(2, 1)
    with pytest.raises(TypeError):
        family.keys_many([1.7])  # once hashed as element 1
    with pytest.raises(ValueError):
        family.min_hashes([1 << 40])  # once keys whose low 32 bits were 0
    with pytest.raises(ValueError):
        family.min_hashes(np.array([-1]))  # once the empty set's all-TOP vector
