"""Experiment runners: timed update/query workloads, estimation quality and
all-candidate-pairs scoring.

Every runner is deterministic given its seed (timing columns excluded),
single-threaded while timing, discards one warm-up repetition and reports
both mean and median wall times measured with a monotonic clock. Results come
back as lists of plain dicts ready for CSV/JSON serialization; each row
carries a versioned schema tag.
"""

from __future__ import annotations

import time
from collections import Counter
from itertools import combinations
from statistics import mean, median, pstdev, stdev

import numpy as np

from .baselines import BssProactiveSketch, BssSketch, VanillaSketch
from .core import BufferedSketch
from .errors import EmptyRowError
from .hashing import HashFamily, new_family
from .lsh import BandingParams, LshIndex, score_acp
from .similarity import _as_set, estimate_jaccard, exact_jaccard, rmse
from .streams import (
    PairGenConfig,
    QueryEvent,
    SetStore,
    _distinct_elements,
    gen_correlated_pair,
    gen_mixed_workload,
    gen_uniform_stream,
)

SKETCH_KINDS = ("bmh", "vanilla", "bss", "bss-proactive")


def _subseed(*parts) -> int:
    """Deterministic 64-bit subseed from a tuple of integers."""
    words = np.random.SeedSequence(tuple(int(p) for p in parts)).generate_state(2, dtype=np.uint32)
    return (int(words[0]) << 32) | int(words[1])


def hash_eval_ns(k: int = 256, seed: int = 0, samples: int = 1 << 16) -> float:
    """Measured cost of one hash evaluation on the vectorised path, in ns.

    This is the per-(element, function) constant that multiplies every init,
    insert and rebuild; reported for context next to timing columns.
    """
    family = new_family(k, seed)
    xs = np.random.default_rng(seed).integers(0, 1 << 32, size=samples, dtype=np.uint64)
    family.keys_many(xs[:64])  # touch tables once before timing
    t0 = time.perf_counter()
    family.keys_many(xs)
    elapsed = time.perf_counter() - t0
    return elapsed / (samples * k) * 1e9


def _make_sketch(kind: str, family: HashFamily, ell: int, bss_seed, universe_bits: int = 32,
                 elements=()):
    """A sketch of ``kind`` over ``family`` holding ``elements``.

    bmh and vanilla are built with ``init``; the counter sketches get
    c^2 = k cells per row, ``universe_bits`` rows and the row-selection
    seed ``bss_seed`` (unused by the other kinds), and insert the elements.
    """
    if kind == "bmh":
        return BufferedSketch.init(elements, family, ell)
    if kind == "vanilla":
        return VanillaSketch.init(elements, family)
    counter_sketch = {"bss": BssSketch, "bss-proactive": BssProactiveSketch}.get(kind)
    if counter_sketch is None:
        raise ValueError(f"unknown sketch kind {kind!r}")
    sketch = counter_sketch(family.k, family, universe_bits, bss_seed)
    for x in elements:
        sketch.insert(int(x))
    return sketch


def _replay(sketch, events):
    """Replay updates and signature queries against a fresh store.

    Returns (seconds inside sketch calls, queries that selected an empty row).
    """
    store = SetStore()
    clock = time.perf_counter
    total, errors = 0.0, 0
    recover = None
    for ev in events:
        if isinstance(ev, QueryEvent):
            t0 = clock()
            try:
                sketch.signature()
            except EmptyRowError:
                errors += 1
            total += clock() - t0
            continue
        store.apply(ev)
        if recover is None:
            recover = store.recovery_provider(ev.set_id)
        t0 = clock()
        if ev.op == 1:
            sketch.insert(ev.element)
        else:
            sketch.delete(ev.element, recover)
        total += clock() - t0
    return total, errors


def fault_sweep(n: int, k: int, ells, reps: int, seed: int, universe_bits: int = 32):
    """Insert-everything-then-delete-everything stress over a buffer-size sweep.

    Streams and hash families are paired across buffer sizes (same per-rep
    seeds) so fault counts are directly comparable along the sweep.
    ``sd_faults`` is the sample standard deviation of the per-run fault
    counts (NaN for a single rep).
    """
    universe = 1 << universe_bits
    rows = []
    for ell in ells:
        times, faults = [], []
        for rep in range(reps + 1):  # rep 0 is the discarded warm-up
            family = new_family(k, _subseed(seed, rep, 1))
            ops = gen_uniform_stream(n, universe, _subseed(seed, rep, 2))
            sketch = _make_sketch("bmh", family, ell, None)
            elapsed, _ = _replay(sketch, ops)
            if rep == 0:
                continue
            times.append(elapsed)
            faults.append(sketch.fault_count)
        rows.append({
            "schema": "fault-sweep/1",
            "ell": ell,
            "k": k,
            "n": n,
            "reps": reps,
            "mean_time_s": mean(times),
            "median_time_s": median(times),
            "mean_faults": mean(faults),
            "sd_faults": stdev(faults) if reps > 1 else float("nan"),
        })
    return rows


def speedup(n_values, k: int, ell: int, reps: int, seed: int, universe_bits: int = 32):
    """Vanilla-vs-buffered total update time on identical streams."""
    universe = 1 << universe_bits
    eval_ns = hash_eval_ns(k, _subseed(seed, 99))
    rows = []
    for n in n_values:
        v_times, b_times = [], []
        for rep in range(reps + 1):
            family = new_family(k, _subseed(seed, n, rep, 1))
            ops = gen_uniform_stream(n, universe, _subseed(seed, n, rep, 2))
            v_elapsed, _ = _replay(_make_sketch("vanilla", family, ell, None), ops)
            b_elapsed, _ = _replay(_make_sketch("bmh", family, ell, None), ops)
            if rep == 0:
                continue
            v_times.append(v_elapsed)
            b_times.append(b_elapsed)
        rows.append({
            "schema": "speedup/1",
            "n": n,
            "k": k,
            "ell": ell,
            "reps": reps,
            "vanilla_time_s": mean(v_times),
            "bmh_time_s": mean(b_times),
            "vanilla_median_s": median(v_times),
            "bmh_median_s": median(b_times),
            "speedup": mean(v_times) / mean(b_times),
            "hash_eval_ns": eval_ns,
        })
    return rows


def mixed(n: int, p_values, k: int, ell: int, reps: int, seed: int,
          universe_bits: int = 32, sketches=SKETCH_KINDS):
    """Total time per sketch on workloads with a varying query fraction.

    Memory is equalised across sketches by fixing the counter width c^2 = k.
    """
    universe = 1 << universe_bits
    rows = []
    for p in p_values:
        workloads = [gen_mixed_workload(n, p, _subseed(seed, rep, 3), universe)
                     for rep in range(reps + 1)]
        for kind in sketches:
            times, errors = [], 0
            for rep in range(reps + 1):
                family = new_family(k, _subseed(seed, rep, 4))
                sketch = _make_sketch(kind, family, ell, _subseed(family.master_seed, 17))
                elapsed, errs = _replay(sketch, workloads[rep])
                if rep == 0:
                    continue
                times.append(elapsed)
                errors += errs
            rows.append({
                "schema": "mixed/1",
                "p": p,
                "sketch": kind,
                "n": n,
                "k": k,
                "ell": ell,
                "reps": reps,
                "mean_time_s": mean(times),
                "median_time_s": median(times),
                "query_errors": errors,
            })
    return rows


def rmse_benchmark(j_values, pairs_per_j: int, k: int, seed: int,
                   universe_bits: int = 17, density: float = 0.05,
                   ell: int | None = None, sketches=("bmh", "vanilla", "bss")):
    """Estimation quality on correlated pairs, equal memory across sketches.

    The buffered sketch uses k functions and ell = log2(universe) buffers by
    default; the argmin-only baseline is granted k * log2(universe) functions
    and the counter sketches get c^2 = k cells per row, so all sketches spend
    the same number of memory words. Counter-sketch queries that select an
    empty row are skipped and counted in the ``errors`` column.
    """
    universe = 1 << universe_bits
    if ell is None:
        ell = universe_bits
    vanilla_k = k * universe_bits
    rows = []
    for j in j_values:
        cfg = PairGenConfig(universe_size=universe, density=density, target_j=j)
        estimates: dict = {kind: [] for kind in sketches}
        errors = {kind: 0 for kind in sketches}
        for idx in range(pairs_per_j):
            a, b = gen_correlated_pair(cfg, _subseed(seed, idx, int(j * 1000), 5))
            truth = exact_jaccard(a, b)
            fam_seed = _subseed(seed, idx, int(j * 1000), 6)
            # One family per pair, shared across sketches for a like-for-like
            # comparison (the baseline gets its own, larger family).
            family = new_family(k, fam_seed) if set(sketches) - {"vanilla"} else None
            bss_seed = _subseed(fam_seed, 2)
            for kind in sketches:
                fam = new_family(vanilla_k, _subseed(fam_seed, 1)) if kind == "vanilla" else family
                try:
                    sig_a = _make_sketch(kind, fam, ell, bss_seed, universe_bits, a).signature()
                    sig_b = _make_sketch(kind, fam, ell, bss_seed, universe_bits, b).signature()
                except EmptyRowError:
                    errors[kind] += 1
                else:
                    estimates[kind].append((estimate_jaccard(sig_a, sig_b).estimate, truth))
        for kind in sketches:
            pairs = estimates[kind]
            diffs = [est - truth for est, truth in pairs]
            rows.append({
                "schema": "rmse/1",
                "j": j,
                "sketch": kind,
                "k": k if kind != "vanilla" else vanilla_k,
                "pairs": len(pairs),
                "rmse": rmse(pairs) if pairs else float("nan"),
                "stddev": pstdev(diffs) if diffs else float("nan"),
                "errors": errors[kind],
            })
    return rows


def build_signatures(sets: dict, k: int, ell: int, seed: int, sketch: str = "bmh",
                     universe_bits: int = 32):
    """Signature per set id, using one shared family. Returns (family, dict)."""
    family = new_family(k, seed)
    bss_seed = _subseed(seed, 9)
    sigs = {set_id: _make_sketch(sketch, family, ell, bss_seed, universe_bits, elements).signature()
            for set_id, elements in sets.items()}
    return family, sigs


def _all_pairs_jaccard(sets: dict, ids: list) -> dict:
    """Exact Jaccard similarity of every pair of ``ids``, keyed in id order.

    Postings (element -> positions of the sets holding it) count each
    pair's intersection; |A u B| = |A| + |B| - |A n B| then gives the same
    floats as ``exact_jaccard``.
    """
    members = [_as_set(sets[i]) for i in ids]
    postings: dict = {}
    for pos, elements in enumerate(members):
        for x in elements:
            postings.setdefault(x, []).append(pos)
    shared = Counter(pair for holders in postings.values() for pair in combinations(holders, 2))
    sims = {}
    for a, b in combinations(range(len(ids)), 2):
        union = len(members[a]) + len(members[b]) - shared[a, b]
        sims[ids[a], ids[b]] = shared[a, b] / union if union else 0.0
    return sims


def acp_run(sets: dict, k: int, ell: int, banding: BandingParams, threshold: float,
            seed: int, sketch: str = "bmh", universe_bits: int = 32,
            negative_sample: int | None = None):
    """Index all sets, extract candidate pairs and grade them.

    With ``negative_sample=None`` the exact similarity of every pair is
    computed (full ground truth). Otherwise only returned pairs are graded
    exactly and recall is estimated from a uniform sample of non-returned
    pairs, reported together with a 95% confidence interval; this is the
    documented fallback for corpora too large for full ground truth.
    Returns (pair_rows, summary_dict).
    """
    _, sigs = build_signatures(sets, k, ell, seed, sketch, universe_bits)
    index = LshIndex(banding, seed=_subseed(seed, 11))
    for set_id, sig in sigs.items():
        index.insert(set_id, sig)
    returned = index.candidates()
    ids = sorted(sets)
    pair_rows = []
    for a, b in sorted(returned):
        est = estimate_jaccard(sigs[a], sigs[b]).estimate
        exact = exact_jaccard(sets[a], sets[b])
        pair_rows.append({
            "schema": "acp-pairs/1",
            "set_id_a": a,
            "set_id_b": b,
            "estimated_sim": est,
            "exact_sim": exact,
        })
    summary = {
        "schema": "acp-summary/1",
        "sketch": sketch,
        "k": k,
        "ell": ell,
        "b": banding.b,
        "r": banding.r,
        "threshold": threshold,
        "sets": len(ids),
        "returned_pairs": len(returned),
    }
    if negative_sample is None:
        universe_pairs = list(combinations(ids, 2))
        score = score_acp(returned, universe_pairs, _all_pairs_jaccard(sets, ids), threshold)
        summary.update({
            "tp": score.tp, "fp": score.fp, "fn": score.fn, "tn": score.tn,
            "precision": score.precision, "recall": score.recall, "f1": score.f1,
            "effective_pairs": score.tp + score.fn,
        })
        return pair_rows, summary
    # Sampled ground truth: exact precision, estimated recall.
    tp = sum(1 for row in pair_rows if row["exact_sim"] >= threshold)
    fp = len(pair_rows) - tp
    rng = np.random.default_rng(_subseed(seed, 13))
    n_ids = len(ids)
    total_pairs = n_ids * (n_ids - 1) // 2
    missed_true = 0
    sampled = 0
    while sampled < negative_sample:
        i, j = rng.integers(0, n_ids, size=2)
        if i == j:
            continue
        pair = (ids[min(i, j)], ids[max(i, j)])
        if pair in returned:
            continue
        sampled += 1
        if exact_jaccard(sets[pair[0]], sets[pair[1]]) >= threshold:
            missed_true += 1
    frac = missed_true / sampled if sampled else 0.0
    fn_est = frac * (total_pairs - len(returned))
    se = (frac * (1 - frac) / sampled) ** 0.5 if sampled else 0.0
    fn_lo = max(0.0, frac - 1.96 * se) * (total_pairs - len(returned))
    fn_hi = (frac + 1.96 * se) * (total_pairs - len(returned))
    summary.update({
        "tp": tp, "fp": fp,
        "precision": tp / (tp + fp) if tp + fp else 0.0,
        "fn_estimate": fn_est,
        "recall_estimate": tp / (tp + fn_est) if tp + fn_est else 0.0,
        "recall_ci_low": tp / (tp + fn_hi) if tp + fn_hi else 0.0,
        "recall_ci_high": tp / (tp + fn_lo) if tp + fn_lo else 0.0,
        "negatives_sampled": sampled,
    })
    return pair_rows, summary


def make_planted_acp_corpus(n_sets: int, n_planted: int, seed: int,
                            universe_bits: int = 20, base_size: int = 300,
                            planted_j_range=(0.55, 0.8)):
    """Synthetic ACP corpus: background sets plus planted similar pairs.

    Background sets are disjoint-by-chance random draws (pairwise Jaccard
    near 0); each planted pair shares enough elements to land in the given
    Jaccard range. Returns (sets dict, list of planted id pairs).
    """
    rng = np.random.default_rng(seed)
    universe = 1 << universe_bits
    sets = {}
    planted = []
    next_id = 0
    for _ in range(n_planted):
        j = float(rng.uniform(*planted_j_range))
        # |A| = |B| = base_size with overlap m: J = m / (2*base_size - m).
        m = round(2 * base_size * j / (1 + j))
        union_size = 2 * base_size - m
        pool = _distinct_elements(rng, union_size, universe)
        shared = pool[:m]
        rest = pool[m:]
        a = np.concatenate([shared, rest[: base_size - m]])
        b = np.concatenate([shared, rest[base_size - m:]])
        sets[next_id] = set(int(x) for x in a)
        sets[next_id + 1] = set(int(x) for x in b)
        planted.append((next_id, next_id + 1))
        next_id += 2
    while next_id < n_sets:
        draw = _distinct_elements(rng, base_size, universe)
        sets[next_id] = set(int(x) for x in draw)
        next_id += 1
    return sets, planted
