"""Span recording around the package's public functions, for the traced run.

``Tracer.install`` replaces selected functions and methods of ``dynminhash``
with wrappers that record one span per call: name, start, end, parent span
and an optional size (keys hashed, elements recovered, pairs returned).
Spans stay in memory, in flat arrays, until ``save`` writes them out.
``layer_metrics`` turns them into the per-layer metrics of BENCHMARK.json.
Nothing in the package itself changes; ``uninstall`` restores every
original.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np


def _wrap_targets():
    from dynminhash import baselines, core, hashing, lsh, similarity, streams

    def n_keys(result):
        return result.size

    return [
        (hashing.HashFamily, "key_one", "hashing.key_one", None),
        (hashing.HashFamily, "keys_many", "hashing.keys_many", n_keys),
        (core.BufferedSketch, "init", "core.init", None),
        (core.BufferedSketch, "insert", "core.insert", None),
        (core.BufferedSketch, "delete", "core.delete", None),
        (core.BufferedSketch, "signature", "core.signature", None),
        (baselines.VanillaSketch, "delete", "baselines.vanilla.delete", None),
        (streams.SetStore, "apply", "streams.apply", None),
        (streams.SetStore, "recover", "streams.recover", len),
        (lsh.LshIndex, "insert", "lsh.insert", None),
        (lsh.LshIndex, "candidates", "lsh.candidates", len),
        (similarity, "estimate_jaccard", "similarity.estimate_jaccard", None),
        (similarity, "exact_jaccard", "similarity.exact_jaccard", None),
    ]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.kind = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.size = array("q")
        self.on = True
        self._stack = [-1]
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name: str, size_fn):
        kind_id = self._name_id(name)
        kind, start, end, parent, size, stack = (
            self.kind, self.start, self.end, self.parent, self.size, self._stack)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(kind)
            kind.append(kind_id)
            parent.append(stack[-1])
            end.append(0)
            size.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if size_fn is not None:
                size[idx] = size_fn(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; safe to call once per uninstall."""
        for owner, attr, name, size_fn in _wrap_targets():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self._wrap(original.__func__, name, size_fn)))
            else:
                setattr(owner, attr, self._wrap(original, name, size_fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextmanager
    def paused(self):
        """Calls inside the block record no spans (checks, untimed set-up)."""
        before, self.on = self.on, False
        try:
            yield
        finally:
            self.on = before

    def arrays(self) -> dict:
        return {
            "kind": np.frombuffer(self.kind, dtype=np.uint16).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, bands: int) -> dict:
        """Per-layer metrics from the recorded spans; 0 where a layer saw no call.

        Per-call times are medians; self time is a span's duration minus
        that of its child spans. ``bands`` converts LSH insert time to time
        per band.
        """
        a = self.arrays()
        kind, parent, size = a["kind"], a["parent"], a["size"]
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        n = kind.size

        def of(name):
            kid = self.name_ids.get(name)
            return np.zeros(n, dtype=bool) if kid is None else kind == kid

        def child_ns(child):
            child = child & (parent >= 0)
            return np.bincount(parent[child], weights=dur[child], minlength=n)[:n]

        def has_child(child):
            out = np.zeros(n, dtype=bool)
            out[parent[child & (parent >= 0)]] = True
            return out

        def med(values, scale):
            return float(np.median(values)) / scale if values.size else 0.0

        def rate(part, whole):
            return float(part.sum()) / whole.sum() if whole.any() else 0.0

        self_ns = dur - child_ns(np.ones(n, dtype=bool))
        key_one, keys_many = of("hashing.key_one"), of("hashing.keys_many")
        recover, cands = of("streams.recover"), of("lsh.candidates")
        exact = of("similarity.exact_jaccard")
        dele, v_del = of("core.delete"), of("baselines.vanilla.delete")
        # A delete faults when it recovers a non-empty set; deleting the last
        # element also calls recovery but rebuilds nothing.
        fault = dele & has_child(recover & (size > 0))
        plain_delete = dele & ~has_child(recover)
        v_fault = v_del & has_child(recover)
        no_recover = dur - child_ns(recover)
        n_keys = int(size[keys_many].sum())
        return {
            "hashing.key_one.ns": med(dur[key_one], 1),
            "hashing.key_one.calls": int(key_one.sum()),
            "hashing.keys_many.ns_per_key": float(dur[keys_many].sum()) / n_keys if n_keys else 0.0,
            "hashing.keys_many.keys": n_keys,
            "core.insert.self_us": med(self_ns[of("core.insert")], 1e3),
            "core.delete.self_us": med(self_ns[plain_delete], 1e3),
            "core.fault.count": int(fault.sum()),
            "core.fault.rate": rate(fault, dele),
            "core.fault.rebuild_ms": med(no_recover[fault], 1e6),
            "core.init.self_ms": med((dur - child_ns(keys_many))[of("core.init")], 1e6),
            "core.signature.us": med(dur[of("core.signature")], 1e3),
            "similarity.estimate_jaccard.us": med(dur[of("similarity.estimate_jaccard")], 1e3),
            "baselines.vanilla.fault.count": int(v_fault.sum()),
            "baselines.vanilla.fault.rate": rate(v_fault, v_del),
            "baselines.vanilla.rebuild_ms": med(no_recover[v_fault], 1e6),
            "streams.apply.us": med(dur[of("streams.apply")], 1e3),
            "streams.recover.calls": int(recover.sum()),
            "streams.recover.elements": int(size[recover].sum()),
            "streams.recover.ms": med(dur[recover], 1e6),
            "lsh.insert.us_per_band": med(dur[of("lsh.insert")], 1e3) / bands,
            "lsh.candidates.ms": med(dur[cands], 1e6),
            "lsh.candidates.pairs": int(size[cands].sum()),
            "similarity.exact_jaccard.us": med(dur[exact], 1e3),
            "similarity.exact_jaccard.calls": int(exact.sum()),
        }
