"""Dynamic neighborhood sketches on a small graph, end to end.

We build a random directed graph, treat each high-out-degree vertex's
1-hop neighborhood as a set, keep a buffered sketch per set while edges
churn, and finally answer an all-candidate-pairs query over the sketches.
"""

import tempfile
from pathlib import Path

import numpy as np

from dynminhash import (
    BufferedSketch,
    LshIndex,
    SetStore,
    StreamOp,
    choose_banding,
    estimate_jaccard,
    exact_jaccard,
    load_graph_balls,
    new_family,
)

rng = np.random.default_rng(5)

# A planted community: vertices 0..19 link densely to a shared core, the
# rest of the graph is sparse noise, so community members have similar
# neighborhoods.
edges = []
core = list(range(100, 140))
for v in range(20):
    for u in core:
        if rng.random() < 0.8:
            edges.append((v, u))
for _ in range(400):
    a, b = rng.integers(0, 300, size=2)
    if a != b:
        edges.append((int(a), int(b)))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "edges.txt"
    path.write_text("\n".join(f"{a}\t{b}" for a, b in edges))
    balls = load_graph_balls(path, top_v=30, d=1)
print(f"{len(balls)} neighborhood sets, sizes "
      f"{min(map(len, balls.values()))}..{max(map(len, balls.values()))}")

# Maintain one sketch per neighborhood under a burst of edge updates.
family = new_family(k=128, master_seed=9)
store = SetStore()
sketches = {}
for center, ball in balls.items():
    for u in ball:
        store.apply(StreamOp(center, u, 1))
    sketches[center] = BufferedSketch.init(ball, family, ell=8)

centers = sorted(balls)
for _ in range(500):  # random edge churn: add/remove neighbors
    c = centers[rng.integers(len(centers))]
    u = int(rng.integers(0, 300))
    if u in store.contents(c):
        store.apply(StreamOp(c, u, -1))
        sketches[c].delete(u, store.recovery_provider(c))
    else:
        store.apply(StreamOp(c, u, 1))
        sketches[c].insert(u)

faults = sum(s.fault_count for s in sketches.values())
print(f"500 churn updates handled, {faults} recovery rebuilds across all sketches")

# All-candidate-pairs over the current neighborhoods.
threshold = 0.3
banding = choose_banding(128, threshold, 0.9)
index = LshIndex(banding)
for c in centers:
    if not sketches[c].is_empty():
        index.insert(c, sketches[c].signature())
candidates = index.candidates()

true_pairs = {
    (a, b)
    for i, a in enumerate(centers)
    for b in centers[i + 1:]
    if exact_jaccard(store.contents(a), store.contents(b)) >= threshold
}
hits = candidates & true_pairs
print(f"banding (b={banding.b}, r={banding.r}) returned {len(candidates)} pairs; "
      f"{len(hits)}/{len(true_pairs)} true pairs above J={threshold} found")
for a, b in sorted(hits)[:5]:
    est = estimate_jaccard(sketches[a].signature(), sketches[b].signature()).estimate
    print(f"  pair ({a:>3}, {b:>3}): estimated J={est:.2f}, "
          f"exact J={exact_jaccard(store.contents(a), store.contents(b)):.2f}")
