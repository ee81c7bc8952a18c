"""Fully-dynamic input model: stream ops, the authoritative set store,
synthetic generators and graph-neighborhood ingestion.

A stream is a sequence of (set_id, element, op) triples with op in {+1, -1}.
A stream is legal when every insert targets an absent element and every
delete targets a present one; all structures here tolerate non-legal ops and
report them. Stream files are tab-separated UTF-8 text, one op per line,
lines starting with '#' ignored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashing import MAX_UNIVERSE


@dataclass(frozen=True)
class StreamOp:
    """One update: insert (+1) or delete (-1) of an element in a set."""

    set_id: int
    element: int
    op: int

    def __post_init__(self):
        if self.op not in (1, -1):
            raise ValueError(f"op must be +1 or -1, got {self.op}")


@dataclass(frozen=True)
class QueryEvent:
    """A signature query against one set, used by mixed workloads."""

    set_id: int


class SetStore:
    """Authoritative current contents of every set; answers recovery queries.

    Unknown set ids are auto-created as empty sets on first update. Counts
    how many recovery queries it served and how many elements it streamed
    back, so benchmarks can cost recoveries separately.
    """

    def __init__(self):
        self._sets: dict = {}
        self.recovery_queries_served = 0
        self.elements_streamed = 0

    def apply(self, op: StreamOp) -> bool:
        """Apply one op with set semantics; returns whether it was legal."""
        members = self._sets.get(op.set_id)
        if members is None:
            members = self._sets[op.set_id] = set()
        x = op.element
        if op.op == 1:
            if x in members:
                return False
            members.add(x)
        else:
            if x not in members:
                return False
            members.remove(x)
        return True

    def recover(self, set_id) -> list:
        """The current elements of one set (a fresh stream), with accounting.

        A Python set keeps the table of its peak size, and listing it walks
        every slot: 4 elements left of 2^15 took 311 us to list, against
        0.28 us for a compact set. So the set is stored back as a compact
        copy, and only the first recovery after a shrink walks the table.
        """
        try:
            members = self._sets[set_id]
        except KeyError:
            raise KeyError(f"unknown set id {set_id!r}") from None
        self.recovery_queries_served += 1
        self.elements_streamed += len(members)
        members = self._sets[set_id] = set(members)
        return list(members)

    def recovery_provider(self, set_id):
        """Zero-argument recovery callable bound to one set, for sketch.delete."""
        return lambda: self.recover(set_id)

    def contents(self, set_id) -> set:
        """Copy of a set's current contents (no recovery accounting)."""
        return set(self._sets.get(set_id, ()))


# -- synthetic generators ---------------------------------------------------


def _distinct_elements(rng: np.random.Generator, n: int, universe: int) -> np.ndarray:
    """n distinct uniform elements of [0, universe), by rejection sampling."""
    if n > universe:
        raise ValueError(f"cannot draw {n} distinct elements from universe {universe}")
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    seen: dict = {}
    out = np.empty(n, dtype=np.uint64)
    filled = 0
    while filled < n:
        batch = rng.integers(0, universe, size=max(64, int(1.2 * (n - filled))), dtype=np.uint64)
        for x in batch:
            xi = int(x)
            if xi not in seen:
                seen[xi] = None
                out[filled] = xi
                filled += 1
                if filled == n:
                    break
    return out


def gen_uniform_stream(n: int, universe: int, seed: int, set_id: int = 0) -> list:
    """Stress stream: n inserts of distinct random elements, then their
    n deletes in insertion order."""
    rng = np.random.default_rng(seed)
    elems = _distinct_elements(rng, n, universe)
    ops = [StreamOp(set_id, int(x), 1) for x in elems]
    ops.extend(StreamOp(set_id, int(x), -1) for x in elems)
    return ops


@dataclass(frozen=True)
class PairGenConfig:
    """Config for correlated set pairs with a target expected Jaccard.

    A is sampled with density q from [0, universe_size); A' keeps each member
    with probability p1 = 2J/(1+J) and adds each non-member with probability
    p2 = |A|(1-p1)/(N-|A|), which makes |A'| match |A| and the expected
    Jaccard equal target_j.
    """

    universe_size: int
    density: float
    target_j: float

    def __post_init__(self):
        if not 0.0 < self.density < 1.0:
            raise ValueError("density must be in (0, 1)")
        if not 0.0 < self.target_j <= 1.0:
            raise ValueError("target_j must be in (0, 1]")

    @property
    def p1(self) -> float:
        return 2.0 * self.target_j / (1.0 + self.target_j)


def gen_correlated_pair(cfg: PairGenConfig, seed: int):
    """One (A, A') pair as sorted uint64 arrays; see PairGenConfig."""
    if cfg.universe_size > 1 << 26:
        raise ValueError(
            "correlated-pair generation materializes the whole universe; "
            "use a universe of at most 2^26 elements"
        )
    rng = np.random.default_rng(seed)
    n_univ = cfg.universe_size
    member = rng.random(n_univ) < cfg.density
    size_a = int(member.sum())
    p1 = cfg.p1
    if size_a == 0:
        raise ValueError("sampled an empty base set; raise density or universe size")
    p2 = size_a * (1.0 - p1) / (n_univ - size_a)
    if p2 > 1.0:
        raise ValueError(f"infeasible config: p2={p2:.3f} exceeds 1")
    u = rng.random(n_univ)
    member_b = np.where(member, u < p1, u < p2)
    a = np.flatnonzero(member).astype(np.uint64)
    b = np.flatnonzero(member_b).astype(np.uint64)
    return a, b


def gen_mixed_workload(n: int, query_fraction: float, seed: int,
                       universe: int = MAX_UNIVERSE, set_id: int = 0) -> list:
    """n events: each is a QueryEvent with probability query_fraction, else a
    legal update (insert of an absent element or delete of a present one)."""
    if not 0.0 <= query_fraction <= 1.0:
        raise ValueError("query_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    members: list = []
    slot: dict = {}
    events: list = []
    for _ in range(n):
        if members and rng.random() < query_fraction:
            events.append(QueryEvent(set_id))
            continue
        if members and rng.random() < 0.5:
            idx = int(rng.integers(len(members)))
            elem = members[idx]
            last = members.pop()
            if idx < len(members):
                members[idx] = last
                slot[last] = idx
            del slot[elem]
            events.append(StreamOp(set_id, elem, -1))
        else:
            while True:
                elem = int(rng.integers(0, universe))
                if elem not in slot:
                    break
            slot[elem] = len(members)
            members.append(elem)
            events.append(StreamOp(set_id, elem, 1))
    return events


# -- stream files -------------------------------------------------------------


def write_stream(path, ops) -> None:
    """Write ops as tab-separated text: set_id, element, op (+1/-1)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# set_id\telement\top\n")
        for op in ops:
            fh.write(f"{op.set_id}\t{op.element}\t{'+1' if op.op == 1 else '-1'}\n")


def read_stream(path) -> list:
    """Parse a stream file; '#' lines are comments."""
    ops = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 3 tab-separated fields")
            try:
                ops.append(StreamOp(int(parts[0]), int(parts[1]), int(parts[2])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return ops


# -- graph neighborhoods -------------------------------------------------------


def load_graph_balls(edge_list_path, top_v: int, d: int, include_center: bool = False) -> dict:
    """Neighborhood sets of the top_v highest-out-degree vertices.

    Reads a whitespace-separated source-target edge list ('#' comments
    allowed) and returns, for each selected center, the set of vertices
    reachable in at most d hops along out-edges. d must be 1 or 2. The
    center itself is excluded unless include_center is set. Ties in
    out-degree break toward the smaller vertex id. top_v must be at least 1.
    A line with one field or a non-integer vertex raises ValueError naming
    its ``path:lineno``.
    """
    if d not in (1, 2):
        raise ValueError(f"ball radius {d} unsupported; use 1 or 2")
    if top_v < 1:
        raise ValueError(f"top_v must be at least 1, got {top_v}")
    adjacency: dict = {}
    with open(edge_list_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"{edge_list_path}:{lineno}: malformed edge line: {line!r}")
            try:
                src, dst = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"{edge_list_path}:{lineno}: {exc}") from exc
            adjacency.setdefault(src, set()).add(dst)
            adjacency.setdefault(dst, set())
    if not adjacency:
        return {}
    centers = sorted(adjacency, key=lambda v: (-len(adjacency[v]), v))[:top_v]
    balls = {}
    for center in centers:
        frontier = adjacency[center]
        ball = set(frontier)
        if d == 2:
            for v in frontier:
                ball |= adjacency.get(v, ())
        if include_center:
            ball.add(center)
        else:
            ball.discard(center)
        balls[center] = ball
    return balls
