"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line as it
completes (expect a few minutes of wall time; the estimation-quality
criterion dominates).
"""

import itertools
import math
import random
import statistics
import time

import numpy as np
import pytest

from dynminhash import _kernels, bench
from dynminhash.core import BufferedSketch, Signature
from dynminhash.hashing import new_family
from dynminhash.lsh import BandingParams, LshIndex, candidate_probability, choose_banding, score_acp
from dynminhash.similarity import exact_jaccard
from dynminhash.streams import SetStore, StreamOp

from conftest import identity_family

SEED = 20240901


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:>2} ({name}): {status}  {detail}", flush=True)


# -- criteria 1 + 2: exact oracle equivalence and invariants -------------------


def _sequence_params(idx, rng):
    """Sequence length and sketch parameters; a few forced stress corners."""
    if idx == 999:
        return 4096, 128, 32
    if idx == 998:
        return 4096, 16, 1
    if idx < 700:
        n = int(rng.integers(16, 97))
    elif idx < 900:
        n = int(rng.integers(97, 385))
    elif idx < 980:
        n = int(rng.integers(385, 1025))
    else:
        n = int(rng.integers(1025, 4096))
    k = int(rng.choice([1, 16, 128]))
    ell = int(rng.choice([1, 4, 16, 32]))
    return n, k, ell


def _replay_one(idx):
    """Replay one random mixed legal/non-legal sequence over |U| = 2^14.

    After every op the signature is compared against a from-scratch oracle
    (precomputed hash matrix, min over live columns) and the invariant
    checker runs. Returns (ops, sig_mismatches, invariant_failures,
    space_violations).
    """
    rng = np.random.default_rng((SEED, idx))
    n, k, ell = _sequence_params(idx, rng)
    fam = new_family(k, int(rng.integers(1 << 63)))
    pool_size = max(4, n // 3)
    pool = rng.choice(1 << 14, size=pool_size, replace=False).astype(np.uint64)
    pool_keys = fam.keys_many(pool)  # (pool, k): the from-scratch oracle's table
    sketch = BufferedSketch(fam, ell)
    cols = np.empty(pool_size, dtype=np.int64)
    slot = {}
    m = 0

    def recover():
        return pool[cols[:m]]

    sig_bad = inv_bad = space_bad = 0
    draws = rng.integers(0, pool_size, size=n)
    flips = rng.random(n)
    for step in range(n):
        j = int(draws[step])
        x = int(pool[j])
        present = x in slot
        do_insert = (not present) if flips[step] < 0.7 else present
        if do_insert:
            sketch.insert(x)
            if not present:
                slot[x] = m
                cols[m] = j
                m += 1
        else:
            if present:
                pos = slot.pop(x)
                m -= 1
                if pos != m:
                    moved = cols[m]
                    cols[pos] = moved
                    slot[int(pool[moved])] = pos
            sketch.delete(x, recover)
        if m:
            expect = pool_keys[cols[:m]].min(axis=0) >> np.uint64(32)
            if not np.array_equal(sketch.signature().values, expect):
                sig_bad += 1
        elif not sketch.is_empty():
            sig_bad += 1
        if not sketch.check_invariants(pool[cols[:m]]).ok:
            inv_bad += 1
        if sketch.total_buffered() > k * ell:
            space_bad += 1
    return n, sig_bad, inv_bad, space_bad


@pytest.fixture(scope="module")
def replayed_sequences():
    totals = {"ops": 0, "sig": 0, "inv": 0, "space": 0, "seqs": 1000}
    t0 = time.perf_counter()
    for idx in range(1000):
        n, sig_bad, inv_bad, space_bad = _replay_one(idx)
        totals["ops"] += n
        totals["sig"] += sig_bad
        totals["inv"] += inv_bad
        totals["space"] += space_bad
    totals["seconds"] = time.perf_counter() - t0
    return totals


@pytest.mark.acceptance
def test_criterion_01_oracle_equivalence(replayed_sequences):
    t = replayed_sequences
    ok = t["sig"] == 0
    _report(1, "oracle equivalence", ok,
            f"{t['seqs']} sequences, {t['ops']} ops, {t['sig']} mismatches, "
            f"{t['seconds']:.0f}s")
    assert ok, f"{t['sig']} signature mismatches out of {t['ops']} checked ops"


@pytest.mark.acceptance
def test_criterion_02_invariant_suite(replayed_sequences):
    t = replayed_sequences
    ok = t["inv"] == 0 and t["space"] == 0
    _report(2, "invariant suite", ok,
            f"{t['inv']} invariant failures, {t['space']} space violations")
    assert ok


# -- criterion 3: fault-probability bound --------------------------------------


@pytest.mark.acceptance
def test_criterion_03_fault_probability_bound():
    n, trials = 1 << 10, 10_000
    elements = np.arange(n, dtype=np.uint64)
    results = []
    for ell in (2, 4, 8):
        rng = np.random.default_rng((SEED, 3001, ell))
        faults = 0
        for t in range(trials):
            fam = new_family(1, int(rng.integers(1 << 63)))
            sketch = BufferedSketch.init(elements, fam, ell)
            victims = rng.permutation(n)[: n // 4]
            alive = np.ones(n, dtype=bool)

            def recover():
                return elements[alive]

            for v in victims:
                alive[v] = False
                sketch.delete(int(v), recover)
            faults += sketch.fault_count > 0
        bound = 2 * 0.25 ** ell
        sigma = math.sqrt(bound * (1 - bound) / trials)
        limit = bound + 3 * sigma
        freq = faults / trials
        results.append((ell, freq, limit))
    ok = all(freq <= limit for _, freq, limit in results)
    detail = "; ".join(f"ell={e}: {f:.4f} <= {l:.4f}" for e, f, l in results)
    _report(3, "fault probability bound", ok, detail)
    for ell, freq, limit in results:
        assert freq <= limit, f"ell={ell}: fault frequency {freq} above {limit}"


# -- criterion 4: fault-free prefix --------------------------------------------


@pytest.mark.acceptance
def test_criterion_04_fault_free_prefix():
    n = 1 << 12
    ell = 2 * int(math.log2(n))  # 24
    k = 8
    trials = 1000
    rng = np.random.default_rng((SEED, 4001))
    elements = np.arange(n, dtype=np.uint64)
    faulted = 0
    for t in range(trials):
        fam = new_family(k, int(rng.integers(1 << 63)))
        sketch = BufferedSketch.init(elements, fam, ell)
        victims = rng.permutation(n)[: n // 4]
        alive = np.ones(n, dtype=bool)

        def recover():
            return elements[alive]

        for v in victims:
            alive[v] = False
            sketch.delete(int(v), recover)
        faulted += sketch.fault_count > 0
    freq = faulted / trials
    ok = freq <= 0.01
    _report(4, "fault-free prefix", ok, f"ell={ell}, k={k}: {faulted}/{trials} trials faulted")
    assert ok, f"fault frequency {freq} above 1% within the first n/4 deletions"


# -- criterion 5: fault decay shape --------------------------------------------


def _rank_model_faults(n, k, ell, rng):
    """Counted rebuilds of one drain, from deletion ranks alone (no sketch code).

    The stress deletes in insertion order, which is random with respect to
    the hashes, so each of the k buffers holds a uniform ell-subset of the
    deletion ranks of the live elements. The first buffer to lose its last
    entry forces a rebuild from the survivors; the rebuild counts as a fault
    when survivors remain. Once at most ell survive, every buffer holds all
    of them and the drain ends without another counted fault.
    """
    live, faults = n, 0
    while live > ell:
        first_empty = min(max(rng.sample(range(live), ell)) for _ in range(k))
        live -= first_empty + 1
        faults += live > 0
    return faults


@pytest.mark.acceptance
def test_criterion_05_fault_decay_shape():
    n, k, reps, model_runs = 1 << 12, 100, 20, 100
    ells = [2, 4, 8, 16, 32, 64]
    rows = bench.fault_sweep(n=n, k=k, ells=ells, reps=reps, seed=SEED,
                             universe_bits=32)
    means = [row["mean_faults"] for row in rows]
    monotone = all(a >= b for a, b in zip(means, means[1:]))
    # A drain to empty cannot stay near zero faults: the sketch rebuilds
    # whenever a buffer would empty. For at most one counted rebuild, each of
    # the k buffers would have to keep an element among the last ~ell to be
    # deleted, probability about (1 - (1 - ell/n)^ell)^k: 1e-65 at ell=32.
    # So the floor is checked two-sided against the rank model, ell by ell.
    # The sketch's per-run spread is taken to be the model's: the same
    # distribution if the sketch keeps the rule.
    # Tolerance: 4 standard errors of the difference of means, and at least
    # 4/reps (four runs off by one fault), which binds at ell >= 32, where the
    # model's spread is about 0.
    rng = random.Random(SEED)
    checks = []
    for ell, measured in zip(ells, means):
        runs = [_rank_model_faults(n, k, ell, rng) for _ in range(model_runs)]
        model = statistics.fmean(runs)
        se = statistics.stdev(runs) * math.sqrt(1 / reps + 1 / model_runs)
        checks.append((ell, measured, model, max(4 * se, 4 / reps)))
    agree = all(abs(m - mod) <= tol for _, m, mod, tol in checks)
    detail = "sketch/model means " + ", ".join(
        f"{e}:{m:.2f}/{mod:.2f}" for e, m, mod, _ in checks)
    _report(5, "fault decay shape", monotone and agree, detail)
    assert monotone, f"fault counts not non-increasing along the sweep: {means}"
    for ell, measured, model, tol in checks:
        assert abs(measured - model) <= tol, (
            f"ell={ell}: mean faults {measured:.2f} vs rank model {model:.2f} "
            f"(tolerance {tol:.2f})"
        )


# -- criterion 6: speedup vs the argmin-only baseline ---------------------------


@pytest.mark.acceptance
@pytest.mark.skipif(not _kernels.ENABLED,
                    reason="numba not importable: the 20x gate is for the compiled kernels")
def test_criterion_06_speedup():
    rows = bench.speedup([1 << 12], k=256, ell=32, reps=3, seed=SEED, universe_bits=32)
    ratio = rows[0]["speedup"]
    ok = ratio >= 20.0
    _report(6, "speedup vs vanilla", ok,
            f"vanilla {rows[0]['vanilla_time_s']:.3f}s / buffered {rows[0]['bmh_time_s']:.3f}s "
            f"= {ratio:.1f}x (full-scale targets 238x-745x documented, not gated)")
    assert ok, f"speedup {ratio:.1f}x below 20x"


# -- criterion 7: estimation quality under equal memory -------------------------


@pytest.mark.acceptance
def test_criterion_07_rmse_quality():
    k = 1024
    rows = bench.rmse_benchmark(
        [0.1, 0.5, 0.9], pairs_per_j=200, k=k, seed=SEED,
        universe_bits=17, density=0.05, sketches=("bmh", "bss"),
    )
    by = {(row["j"], row["sketch"]): row for row in rows}
    checks = []
    for j in (0.1, 0.5, 0.9):
        bmh = by[(j, "bmh")]["rmse"]
        bss = by[(j, "bss")]["rmse"]
        bound = 2 * math.sqrt(j * (1 - j) / k)
        checks.append((j, bmh, bound, bss))
    ok_a = all(bmh <= bound for _, bmh, bound, _ in checks)
    ok_b = all(bmh <= bss / 3 for _, bmh, _, bss in checks)
    detail = "; ".join(
        f"J={j}: bmh {bmh:.4f} (bound {bound:.4f}), bss {bss:.4f}"
        for j, bmh, bound, bss in checks
    )
    _report(7, "estimation quality", ok_a and ok_b, detail)
    for j, bmh, bound, bss in checks:
        assert bmh <= bound, f"J={j}: buffered-sketch RMSE {bmh} above {bound}"
        assert bmh <= bss / 3, f"J={j}: buffered-sketch RMSE {bmh} not 3x below {bss}"


# -- criterion 8: banding law ----------------------------------------------------


@pytest.mark.acceptance
def test_criterion_08_banding_law():
    trials = 10_000
    results = []
    for s, r, b in ((0.8, 5, 20), (0.5, 4, 16), (0.2, 2, 8)):
        params = BandingParams(b=b, r=r)
        rng = np.random.default_rng((SEED, 8001, int(s * 10)))
        width = b * r
        match = rng.random((trials, width)) < s
        base = rng.integers(1, 1 << 32, size=(trials, width), dtype=np.uint64)
        hits = 0
        for t in range(trials):
            idx = LshIndex(params, seed=t)
            sig_a = base[t]
            sig_b = np.where(match[t], sig_a, sig_a + np.uint64(1))
            idx.insert(0, Signature(sig_a))
            idx.insert(1, Signature(sig_b))
            hits += bool(idx.candidates())
        expect = candidate_probability(s, params)
        results.append((s, r, b, hits / trials, expect))
    ok = all(abs(freq - expect) <= 0.03 for *_, freq, expect in results)
    detail = "; ".join(
        f"(s={s},r={r},b={b}): {freq:.4f} vs {expect:.4f}" for s, r, b, freq, expect in results
    )
    _report(8, "banding law", ok, detail)
    for s, r, b, freq, expect in results:
        assert abs(freq - expect) <= 0.03, f"(s={s},r={r},b={b}): {freq} vs {expect}"


# -- criterion 9: non-legal robustness -------------------------------------------


@pytest.mark.acceptance
def test_criterion_09_nonlegal_robustness():
    rng = np.random.default_rng((SEED, 9001))
    fam = new_family(64, 777)
    legal, noisy = [], []
    members = set()
    universe = 1 << 14
    while len(legal) < 2048:
        x = int(rng.integers(universe))
        if x in members:
            members.discard(x)
            op = StreamOp(0, x, -1)
        else:
            members.add(x)
            op = StreamOp(0, x, 1)
        legal.append(op)
        noisy.append(op)
        if rng.random() < 0.2:
            if op.op == 1:
                noisy.append(StreamOp(0, x, 1))  # duplicate insert
            else:
                noisy.append(StreamOp(0, x, -1))  # phantom delete

    def run(ops):
        store = SetStore()
        sketch = BufferedSketch(fam, 16)
        recover = store.recovery_provider(0)
        for op in ops:
            store.apply(op)
            if op.op == 1:
                sketch.insert(op.element)
            else:
                sketch.delete(op.element, recover)
        return sketch

    a, b = run(noisy), run(legal)
    ok = a.to_bytes() == b.to_bytes()
    extra = len(noisy) - len(legal)
    _report(9, "non-legal robustness", ok,
            f"{extra} non-legal ops injected into {len(legal)}; states bit-identical: {ok}")
    assert ok


# -- criterion 10: naive-strategy counterexample ----------------------------------


class _NaiveBuffer:
    """Strawman: insert appends if there is room, delete just removes."""

    def __init__(self, hash_fn, ell):
        self.h = hash_fn
        self.ell = ell
        self.pairs = set()

    def insert(self, x):
        if len(self.pairs) < self.ell:
            self.pairs.add((self.h(x), x))

    def delete(self, x):
        self.pairs.discard((self.h(x), x))

    def minimum(self):
        return min(self.pairs) if self.pairs else None


def _search_naive_witness(fam, ell=2, universe=4, max_len=6):
    """Exhaustive search over legal op sequences for a state where the naive
    buffer reports a wrong minimum. Depth-first with legality pruning."""
    h = fam.fn(0)

    def extend(seq, members):
        if seq:
            naive = _NaiveBuffer(h, ell)
            for op, x in seq:
                naive.insert(x) if op == 1 else naive.delete(x)
            if members and naive.minimum() is not None:
                true_min = min((h(x), x) for x in members)
                if naive.minimum() != true_min:
                    return seq
        if len(seq) == max_len:
            return None
        for x in range(universe):
            if x in members:
                found = extend(seq + [(-1, x)], members - {x})
            else:
                found = extend(seq + [(1, x)], members | {x})
            if found:
                return found
        return None

    return extend([], frozenset())


@pytest.mark.acceptance
def test_criterion_10_naive_counterexample():
    fam = identity_family(1)
    witness = _search_naive_witness(fam, ell=2, universe=4, max_len=6)
    assert witness is not None, "exhaustive search found no witness sequence"
    # Replay the witness on the real sketch: it must stay exact throughout.
    store = SetStore()
    sketch = BufferedSketch(fam, 2)
    recover = store.recovery_provider(0)
    naive = _NaiveBuffer(fam.fn(0), 2)
    for op, x in witness:
        store.apply(StreamOp(0, x, op))
        if op == 1:
            sketch.insert(x)
            naive.insert(x)
        else:
            sketch.delete(x, recover)
            naive.delete(x)
    members = store.contents(0)
    true_min = min(fam.fn(0)(x) for x in members)
    sketch_min = int(sketch.signature().values[0])
    naive_min = naive.minimum()[0] if naive.minimum() else None
    ok = sketch_min == true_min and naive_min != true_min
    seq = " ".join(f"{'+' if op == 1 else '-'}{x}" for op, x in witness)
    _report(10, "naive counterexample", ok,
            f"witness [{seq}]: naive min {naive_min}, true {true_min}, sketch {sketch_min}")
    assert sketch_min == true_min
    assert naive_min != true_min


# -- criterion 11: planted all-candidate-pairs ------------------------------------


@pytest.mark.acceptance
def test_criterion_11_acp_planted_pairs():
    k = 256
    threshold = 0.5
    sets, planted = bench.make_planted_acp_corpus(200, 10, seed=SEED, universe_bits=20,
                                                  base_size=300)
    banding = choose_banding(k, threshold, 0.8)
    assert banding.b * banding.r <= k
    _, sigs = bench.build_signatures(sets, k=k, ell=16, seed=SEED + 1)
    index = LshIndex(banding, seed=SEED + 2)
    for set_id, sig in sigs.items():
        index.insert(set_id, sig)
    returned = index.candidates()
    # Exact agreement with the quadratic bucket-scan oracle.
    brute = set()
    for ids in index._buckets.values():
        for a, b in itertools.combinations(sorted(ids), 2):
            brute.add((a, b))
    oracle_exact = returned == brute
    universe_pairs = list(itertools.combinations(sorted(sets), 2))
    exact = {p: exact_jaccard(sets[p[0]], sets[p[1]]) for p in universe_pairs}
    effective = sum(1 for p in universe_pairs if exact[p] >= threshold)
    score = score_acp(returned, universe_pairs, exact, threshold)
    ok = oracle_exact and effective == len(planted) and score.recall >= 0.8
    _report(11, "planted-pair ACP", ok,
            f"banding (b={banding.b}, r={banding.r}), recall {score.recall:.2f}, "
            f"precision {score.precision:.2f}, oracle exact: {oracle_exact} "
            "(full-scale graph tables reproducible via the CLI acp command, not gated)")
    assert oracle_exact, "candidates() disagreed with the brute-force bucket scan"
    assert effective == len(planted), "background pairs crossed the threshold"
    assert score.recall >= 0.8, f"recall {score.recall} below 0.8"
