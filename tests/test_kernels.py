"""The compiled kernels must be bit-equivalent to the fallback paths.

Without numba, ``njit`` is the identity, so forcing ``ENABLED`` runs the
kernels as plain Python: the equivalence is checked on every host.
"""

import numpy as np
import pytest

from dynminhash import _kernels
from dynminhash.baselines import VanillaSketch
from dynminhash.core import BufferedSketch
from dynminhash.hashing import new_family
from dynminhash.streams import SetStore, StreamOp


def _drive(sketch_cls, fam, ops, **kwargs):
    store = SetStore()
    if sketch_cls is BufferedSketch:
        sketch = BufferedSketch(fam, kwargs["ell"])
    else:
        sketch = VanillaSketch(fam)
    recover = store.recovery_provider(0)
    for op in ops:
        store.apply(op)
        if op.op == 1:
            sketch.insert(op.element)
        else:
            sketch.delete(op.element, recover)
    return sketch


def _random_ops(seed, n_ops, pool):
    rng = np.random.default_rng(seed)
    members = set()
    ops = []
    for _ in range(n_ops):
        x = int(rng.integers(0, pool))
        if x in members and rng.random() < 0.7:
            members.discard(x)
            ops.append(StreamOp(0, x, -1))
        else:
            members.add(x)
            ops.append(StreamOp(0, x, 1))
        if rng.random() < 0.1:  # sprinkle non-legal echoes
            ops.append(ops[-1])
    return ops


@pytest.mark.parametrize("seed,k,ell", [(0, 1, 1), (1, 7, 3), (2, 16, 8)])
def test_buffered_sketch_paths_agree(monkeypatch, seed, k, ell):
    fam = new_family(k, seed)
    ops = _random_ops(seed, 500, pool=60)
    monkeypatch.setattr(_kernels, "ENABLED", True)
    fast = _drive(BufferedSketch, fam, ops, ell=ell)
    monkeypatch.setattr(_kernels, "ENABLED", False)
    slow = _drive(BufferedSketch, fam, ops, ell=ell)
    assert fast.to_bytes() == slow.to_bytes()
    assert fast.fault_count == slow.fault_count
    assert fast.recovery_elements_streamed == slow.recovery_elements_streamed
    # The kernels move thresholds themselves; the sketch must regate after.
    assert fast._structure_faults() == []


def test_vanilla_paths_agree(monkeypatch):
    fam = new_family(9, 42)
    ops = _random_ops(3, 500, pool=50)
    monkeypatch.setattr(_kernels, "ENABLED", True)
    fast = _drive(VanillaSketch, fam, ops)
    monkeypatch.setattr(_kernels, "ENABLED", False)
    slow = _drive(VanillaSketch, fam, ops)
    assert fast.to_bytes() == slow.to_bytes()
    assert fast.fault_count == slow.fault_count
