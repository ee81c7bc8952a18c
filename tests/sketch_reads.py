"""Reads of a BufferedSketch's buffers for tests.

A sketch defers its inserts until its state is read, so each helper
applies the pending inserts first, as the sketch's own readers do.
"""

import numpy as np

from dynminhash.core import TOP


def split_key(key: int) -> tuple:
    """Unpack a uint64 pair key into its (hash, element) pair."""
    key = int(key)
    return key >> 32, key & 0xFFFFFFFF


def buffered(sketch):
    """``sketch`` with its pending inserts applied to its rows, which is
    the state an eager ``init`` leaves, for tests that read or poke the
    rows directly; returns the sketch."""
    sketch._flush()
    return sketch


def total_buffered(sketch) -> int:
    """Number of stored pairs across all buffers (at most k * ell)."""
    sketch._flush()
    return int(sketch._size.sum())


def buffer_contents(sketch, i: int) -> list:
    """Buffer i as a sorted list of (hash, element) pairs."""
    sketch._flush()
    return [split_key(key) for key in sketch._buf[i, : int(sketch._size[i])]]


def threshold(sketch, i: int):
    """Threshold pair of buffer i, or None when it is the TOP sentinel."""
    sketch._flush()
    d = sketch._delta[i]
    return None if d == TOP else split_key(d)


def state_equal(a, b) -> bool:
    """Bit-identical comparison of parameters, buffers and thresholds."""
    a._flush()
    b._flush()
    return (
        a.family.family_key == b.family.family_key
        and a.ell == b.ell
        and np.array_equal(a._size, b._size)
        and np.array_equal(a._delta, b._delta)
        and np.array_equal(a._buf, b._buf)
    )
