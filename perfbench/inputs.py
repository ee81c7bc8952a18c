"""Seeded input generation for the benchmark workloads.

Every input is made here from the benchmark's ``--seed`` with numpy's
generator; the program under test only receives the generated elements.
The shapes follow the package's own generators (the insert-n-then-delete-n
stress stream and the planted all-candidate-pairs corpus), but live in the
benchmark so that a change to the program cannot change its inputs.
"""

from __future__ import annotations

import hashlib
from collections import deque

import numpy as np

UNIVERSE = 1 << 32

# Stream tags, so that every phase and unit draws from its own generator.
FAMILY, CHURN, VANILLA, WINDOW, ACP, LSH = range(6)


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """Generator for one (seed, tags) stream; independent across tags."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, tags)]))


def family_seed(seed: int) -> int:
    """64-bit master seed of the hash family used by one run."""
    return int(rng_for(seed, FAMILY).integers(0, 1 << 63))


def distinct(rng: np.random.Generator, n: int, universe: int, used: set | None = None) -> np.ndarray:
    """n distinct uniform elements of [0, universe) in draw order.

    Elements in ``used`` are skipped, and the drawn ones are added to it, so a
    caller can keep every element of a run distinct.
    """
    used = set() if used is None else used
    out = []
    while len(out) < n:
        for x in rng.integers(0, universe, size=n - len(out) + 16, dtype=np.uint64).tolist():
            if x not in used:
                used.add(x)
                out.append(x)
                if len(out) == n:
                    break
    return np.array(out, dtype=np.uint64)


def churn_elements(seed: int, tag: int, unit: int, n: int) -> np.ndarray:
    """Elements of one insert-n-then-delete-n stream (deleted in insert order)."""
    return distinct(rng_for(seed, tag, unit), n, UNIVERSE)


class WindowEvents:
    """Sliding-window events over ``n_sets`` sets of ``window`` elements each.

    An update inserts a fresh element into one set and deletes that set's
    oldest element; a read names two distinct sets. Every element of a run is
    distinct, so every update is legal.
    """

    UPDATE, READ = 1, 0

    def __init__(self, seed: int, n_sets: int, window: int, read_frac: float):
        self.rng = rng_for(seed, WINDOW)
        self.used: set = set()
        self.initial = distinct(self.rng, n_sets * window, UNIVERSE, self.used).reshape(n_sets, window)
        self.windows = [deque(row.tolist()) for row in self.initial]
        self.n_sets = n_sets
        self.read_frac = read_frac

    def next_unit(self, n_events: int) -> list:
        """Events as (UPDATE, set, new, old) or (READ, set_a, set_b) tuples."""
        rng = self.rng
        reads = (rng.random(n_events) < self.read_frac).tolist()
        first = rng.integers(0, self.n_sets, size=n_events).tolist()
        offset = rng.integers(1, self.n_sets, size=n_events).tolist()
        fresh = distinct(rng, n_events - sum(reads), UNIVERSE, self.used).tolist()
        events = []
        for is_read, s, off in zip(reads, first, offset):
            if is_read:
                events.append((self.READ, s, (s + off) % self.n_sets))
            else:
                new = fresh.pop()
                window = self.windows[s]
                window.append(new)
                events.append((self.UPDATE, s, new, window.popleft()))
        return events


def planted_corpus(rng: np.random.Generator, n_sets: int, n_planted: int, set_size: int,
                   universe: int, j_range=(0.55, 0.8)) -> list:
    """Background sets plus planted similar pairs (ids 2i, 2i+1), as uint64 arrays."""
    sets = []
    for _ in range(n_planted):
        j = float(rng.uniform(*j_range))
        shared = round(2 * set_size * j / (1 + j))
        pool = distinct(rng, 2 * set_size - shared, universe)
        rest = pool[shared:]
        sets.append(np.concatenate([pool[:shared], rest[: set_size - shared]]))
        sets.append(np.concatenate([pool[:shared], rest[set_size - shared:]]))
    while len(sets) < n_sets:
        sets.append(distinct(rng, set_size, universe))
    return sets


def digest(*arrays) -> str:
    """Short SHA-256 of the given arrays' bytes, to pin a seed's inputs."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.uint64).tobytes())
    return h.hexdigest()[:16]
