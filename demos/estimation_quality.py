"""Equal-memory estimation shoot-out, plus the banding law in action.

Three sketches spend the same number of memory words per set: the buffered
sketch with k functions, the argmin-only baseline with k * log2(universe)
functions, and the counter sketch with c^2 = k cells per row. We generate
correlated set pairs with a known expected Jaccard similarity and score the
root-mean-square estimation error.
"""

import numpy as np

from dynminhash import (
    BandingParams,
    LshIndex,
    Signature,
    bench,
    candidate_probability,
    choose_banding,
)

k, bits = 256, 14
print(f"equal memory: buffered k={k}, baseline k={k * bits}, counter c^2={k}; |U|=2^{bits}\n")

rows = bench.rmse_benchmark([0.2, 0.5, 0.8], pairs_per_j=60, k=k, seed=11,
                            universe_bits=bits, density=0.05)
print(f"{'J':>4} {'sketch':>9} {'rmse':>8} {'stddev':>8} {'skipped':>8}")
for row in rows:
    print(f"{row['j']:>4} {row['sketch']:>9} {row['rmse']:>8.4f} {row['stddev']:>8.4f} "
          f"{row['errors']:>8}")

print("\nthe buffered sketch pays exactly its predicted O(1/sqrt(k)) error; the")
print(f"baseline's edge is the sqrt({bits}) from its {bits}x function budget. Meanwhile")
print("the counter sketch sits an order of magnitude worse: its selected row")
print("only samples a handful of elements (occasionally none: 'skipped').")

# Banding: split signatures into b bands of r rows; a pair becomes an ACP
# candidate when some band matches fully, with probability 1 - (1 - s^r)^b.
print("\nbanding law, s = per-entry match probability:")
params = BandingParams(b=16, r=4)
rng = np.random.default_rng(3)
for s in (0.3, 0.6, 0.9):
    hits = 0
    trials = 5000
    for _ in range(trials):
        idx = LshIndex(params)
        sig = rng.integers(1, 1 << 32, size=64, dtype=np.uint64)
        twin = np.where(rng.random(64) < s, sig, sig + np.uint64(1))
        idx.insert("a", Signature(sig))
        idx.insert("b", Signature(twin))
        hits += bool(idx.candidates())
    print(f"  s={s}: measured {hits / trials:.3f}  vs closed form "
          f"{candidate_probability(s, params):.3f}")

chosen = choose_banding(k_max=256, r1=0.5, target_p1=0.8)
print(f"\nchoose_banding(256, r1=0.5, p1>=0.8) -> b={chosen.b}, r={chosen.r} "
      f"(p1={candidate_probability(0.5, chosen):.3f})")
