"""The benchmark's workloads: churn, window-rw and acp.

Each workload sets up several times (``setup_s``), then runs two timed
paths of whole units, interleaved: the sketch path (``ops_per_s``,
``update_*``) and the reference path the sketch is meant to beat
(``reference_ops_per_s``). All calls come from one thread in a closed loop.

A unit is timed in chunks of about 0.1 s. A short fixed probe loop is timed
just before and just after each chunk, and the metrics scale the chunk's
times by the probe, so that they measure the program and not the speed a
shared host happened to run at (see ``probe_ns``). The unscaled figures are
kept in the run's record.

Outputs are checked outside the timed regions: checkpoint signatures against
from-scratch ones, read estimates against the signatures read, candidate
pairs against a direct bucket scan and exact scores against numpy set
operations. A wrong output or a raised exception counts as a failed
operation.
"""

from __future__ import annotations

import gc
import resource
import time
from array import array
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from statistics import median

import numpy as np

from dynminhash import baselines, core, hashing, lsh, similarity, streams
from dynminhash.errors import EmptySetError

import inputs

StreamOp = streams.StreamOp


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is what the benchmark runs, TINY is for its smoke test."""

    k: int = 256
    ell: int = 32
    churn_n: int = 1 << 15
    churn_chunk: int = 4096  # ops per timed chunk; n and 7n/4 are multiples
    vanilla_n: int = 1 << 12
    vanilla_chunk: int = 1024
    sets: int = 64
    window: int = 1024
    read_frac: float = 0.2
    unit_events: int = 2048
    vanilla_unit_events: int = 512
    checkpoint_units: int = 32
    corpus_sets: int = 200
    set_size: int = 300
    planted: int = 10
    acp_universe: int = 1 << 20
    threshold: float = 0.5
    grade_rows: int = 25  # rows of the all-pairs loop per timed chunk
    pool: int = 16  # distinct streams (churn) or corpora (acp) that units cycle over
    setup_reps: int = 3
    setup_budget_s: float = 1.0
    checked_sets: int = 20


FULL = Sizes()
TINY = Sizes(churn_n=256, churn_chunk=64, vanilla_n=64, vanilla_chunk=16, sets=4, window=64,
             unit_events=64, vanilla_unit_events=32, checkpoint_units=2, corpus_sets=30,
             set_size=60, planted=3, grade_rows=10, pool=2, setup_reps=2, setup_budget_s=0.05,
             checked_sets=5)

#: Share of ``--seconds`` given to the sketch path; the rest goes to the reference path.
MAIN_SHARE = 0.6
MAIN, REF = 0, 1
#: Latencies are kept as histograms of 1%-wide log bins, from 1 ns to about
#: 20 s, so that a run's memory does not grow with the number of calls.
BIN_RATIO = 1.01
BINS = 2400
LATENCIES = ("insert", "delete", "update", "query")
#: Iterations of the host-speed probe's per-call loop (see ``probe_ns``), and
#: the probe time per kind that the metrics are scaled to.
PROBE_CALLS = 200
PROBE_REF_NS = {"calls": 1_000_000, "bulk": 1_000_000, "mixed": 2_000_000}
#: The probe's table, shaped like a hash family's packed keys for k = 256,
#: and the rows a batch of 300 elements gathers from it.
_PROBE_TABLE = np.random.default_rng(0).integers(0, 1 << 63, size=(3, 256, 256), dtype=np.uint64)
_PROBE_ROWS = [(np.arange(300) * m) % 256 for m in (1, 7, 13)]


class Run:
    """Counters, latency samples and records of one benchmark run."""

    def __init__(self, seed: int, seconds: float, sizes: Sizes, tracer=None):
        self.seed, self.seconds, self.sizes, self.tracer = seed, seconds, sizes, tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.update_ns = array("q")  # per-call latencies of the current chunk
        self.insert_ns = array("q")
        self.delete_ns = array("q")
        self.query_ns = array("q")
        self.hist = {kind: np.zeros(BINS, dtype=np.int64) for kind in LATENCIES}
        # Per path: ops, wall seconds, and wall seconds at the reference probe time.
        self.totals = ({"ops": 0, "wall": 0.0, "scaled": 0.0}, {"ops": 0, "wall": 0.0, "scaled": 0.0})
        self.probes: dict = {}  # per probe kind, ns before and after each chunk
        self.units: tuple = ([], [])  # (ops, wall s, scaled wall s) per unit, per path
        self._path = MAIN
        self._kinds = ("calls", "calls")  # probe kind per path
        self._probe = 0
        self.setup_s: list = []
        self.setup_raw_s: list = []
        self.peak_rss_mb = 0.0
        self.repeat: dict = {}
        self.detail: dict = {}
        self.digests: list = []
        self.checks = 0
        self.graded = {"candidate_pairs": 0, "tp": 0}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.fail(what)

    def begin(self) -> None:
        """Probe the host's speed just before a timed chunk."""
        self._probe = probe_ns(self._kinds[self._path])

    def chunk(self, ops: int, wall_ns: int) -> None:
        """Record one timed chunk and the latencies taken in it. Its times
        are also scaled by the path's PROBE_REF_NS over the mean of the
        probes before and after it, which is what the metrics report."""
        kind = self._kinds[self._path]
        after = probe_ns(kind)
        self.probes.setdefault(kind, []).extend((self._probe, after))
        scale = 2 * PROBE_REF_NS[kind] / (self._probe + after)
        totals = self.totals[self._path]
        totals["ops"] += ops
        totals["wall"] += wall_ns / 1e9
        totals["scaled"] += wall_ns * scale / 1e9
        for call in LATENCIES:
            pending = getattr(self, call + "_ns")
            if pending:
                ns = np.maximum(np.array(pending, dtype=np.float64) * scale, 1.0)
                bins = np.minimum((np.log(ns) / np.log(BIN_RATIO)).astype(np.int64), BINS - 1)
                self.hist[call] += np.bincount(bins, minlength=BINS)
                del pending[:]

    def quiet(self):
        """Context in which program calls record no spans."""
        return self.tracer.paused() if self.tracer else nullcontext()

    def timed_phases(self, main_unit, ref_unit, kinds: tuple) -> None:
        """Interleave whole units of the sketch path (MAIN_SHARE of --seconds)
        and of the reference path (the rest), each time running the path
        furthest behind its share, until neither has room for another unit
        of its median length. Interleaving spreads both over the whole run.

        ``unit(i)`` times its chunks with ``begin`` and ``chunk`` and returns
        (ops, wall seconds); ``kinds`` names the probe of each path. A
        traced run records spans in every other sketch-path unit and in
        every reference unit; the untraced sketch-path units measure the
        tracing overhead on the same work.
        """
        self._kinds = kinds
        paths = [(main_unit, self.units[MAIN], self.seconds * MAIN_SHARE),
                 (ref_unit, self.units[REF], self.seconds * (1 - MAIN_SHARE))]
        while True:
            room = [p for p, (_, done, budget) in enumerate(paths)
                    if not done or sum(u[1] for u in done) + median(u[1] for u in done) <= budget]
            if not room:
                break
            p = min(room, key=lambda p: sum(u[1] for u in paths[p][1]) / paths[p][2])
            unit, done, _ = paths[p]
            self._path = p
            if self.tracer is not None:
                self.tracer.on = p == REF or len(done) % 2 == 1
            scaled = self.totals[p]["scaled"]
            with _no_gc():
                ops, wall = unit(len(done))
            if self.tracer is not None:
                self.tracer.on = False
            done.append((ops, wall, self.totals[p]["scaled"] - scaled))
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    @property
    def trace_overhead(self) -> float:
        """Median traced sketch-path unit over the median untraced one, minus 1
        (a traced run traces every other sketch-path unit)."""
        walls = [u[1] for u in self.units[MAIN]]
        traced, plain = walls[1::2], walls[0::2]
        return median(traced) / median(plain) - 1 if traced and self.tracer else 0.0

    def timed_setup(self, build):
        """Run build() at least setup_reps times, and more while the total
        stays under setup_budget_s, so that a cheap set-up is reported as the
        median of many repeats; keep the last result. Each time is scaled by
        the bulk probes around it, like a timed chunk."""
        if self.tracer is not None:
            self.tracer.on = True
        while len(self.setup_s) < self.sizes.setup_reps or (
                sum(self.setup_raw_s) < self.sizes.setup_budget_s and len(self.setup_s) < 50):
            with _no_gc():
                before = probe_ns("bulk")
                t0 = time.perf_counter_ns()
                state = build()
                wall = time.perf_counter_ns() - t0
                after = probe_ns("bulk")
            self.setup_raw_s.append(wall / 1e9)
            self.setup_s.append(wall / 1e9 * 2 * PROBE_REF_NS["bulk"] / (before + after))
        if self.tracer is not None:
            self.tracer.on = False
        # Long-lived set-up objects leave the collector's scans, so that the
        # collections between units stay cheap.
        gc.collect()
        gc.freeze()
        return state


def probe_ns(kind: str) -> int:
    """Time in ns of a fixed piece of numpy work of the given kind, 1-3 ms.

    The host switches between speed regimes that differ by up to 2x and can
    last for a whole run, and they do not slow every kind of work alike. A
    probe just before and just after each timed chunk measures the speed
    the chunk ran at, and the metrics scale the chunk's times to a host on
    which the probe takes PROBE_REF_NS[kind]. Each path is probed with the
    work it resembles: ``calls`` is what a sketch update does per call
    (gather three 256-key rows of a table, XOR, compare, find the hits),
    ``bulk`` what a batch init of 300 elements does (gather 300 x 256 keys,
    XOR, partition), ``mixed`` both. The probe never calls the package, so a
    change to the package does not move it.
    """
    table = _PROBE_TABLE
    t0 = time.perf_counter_ns()
    if kind != "bulk":
        limit, hits = np.uint64(1 << 58), 0
        for i in range(PROBE_CALLS):
            row = table[0, i & 255] ^ table[1, (i * 7) & 255]
            row ^= table[2, (i * 13) & 255]
            hits += np.flatnonzero(row <= limit).size
    if kind != "calls":
        keys = table[0][_PROBE_ROWS[0]] ^ table[1][_PROBE_ROWS[1]]
        keys ^= table[2][_PROBE_ROWS[2]]
        np.partition(keys, 31, axis=0)
    return time.perf_counter_ns() - t0


@contextmanager
def _no_gc():
    """Collect, then keep the cyclic collector off for the block.

    As in ``timeit``: a collection started by the benchmark's own
    allocations would land in a random timed call. The package's objects are
    freed by reference counting; cycles wait for the next block.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _family(run: Run):
    family = hashing.new_family(run.sizes.k, inputs.family_seed(run.seed))
    with run.quiet():  # the packing is set-up, not a key_one span
        family.key_one(0)  # builds the lazily packed tables, which every op uses
    return family


def _check_reads(run: Run, reads: list, k: int, where: str) -> None:
    """Each read's estimate must equal the match rate of the signatures read."""
    for sig_a, sig_b, est in reads:
        ok = (len(sig_a) == k and est.k_used == k
              and est.estimate == np.count_nonzero(sig_a.values == sig_b.values) / k)
        run.check(ok, f"{where}: estimate does not match its signatures")


def _check_signature(run: Run, family, ell: int, got, contents: np.ndarray, where: str) -> None:
    """``got`` (signature values, or None for an empty sketch) against a
    from-scratch BufferedSketch.init of ``contents``."""
    if contents.size == 0:
        run.check(got is None, f"{where}: sketch of an empty set is not empty")
        return
    fresh = core.BufferedSketch.init(contents, family, ell).signature().values
    run.check(got is not None and np.array_equal(got, fresh),
              f"{where}: signature differs from a from-scratch init")


# -- churn ---------------------------------------------------------------------


def churn(run: Run) -> None:
    """Insert n distinct elements into one set, then delete them in insert order.

    The sketch path replays n = 2^15 streams through a fresh BufferedSketch
    per unit; the reference path replays n = 2^12 streams through a fresh
    VanillaSketch (quadratic, hence smaller). Units cycle over a pool of the
    seed's streams, and a replayed stream must fault exactly as it did the
    first time.
    """
    sz = run.sizes

    def setup():
        family = _family(run)
        return family, streams.SetStore(), core.BufferedSketch(family, sz.ell)

    family = run.timed_setup(setup)[0]
    pool: dict = {}

    def stream(tag: int, n: int, unit: int) -> list:
        key = (tag, unit % sz.pool)
        if key not in pool:
            pool[key] = inputs.churn_elements(run.seed, tag, key[1], n)
            run.digests.append(inputs.digest(pool[key]))
        xs = pool[key].tolist()
        return [StreamOp(0, x, 1) for x in xs] + [StreamOp(0, x, -1) for x in xs]

    snapshots, v_snapshots = [], []

    def replay(sketch, ops: list, chunk: int, unit: int, snaps: list, lat: bool):
        """One stream; returns (ops, wall). Snapshots the state after the
        inserts (first unit only: checking it is the costliest), after 3/4 of
        the deletes (faults have begun) and at the end."""
        n = len(ops) // 2
        store = streams.SetStore()
        recover = store.recovery_provider(0)
        apply, insert, delete = store.apply, sketch.insert, sketch.delete
        clock = time.perf_counter_ns
        ins_ns, del_ns = run.insert_ns, run.delete_ns
        checkpoints = (n, n + 3 * n // 4, 2 * n)
        wall = 0
        for pos in range(0, 2 * n, chunk):
            run.begin()
            t0 = clock()
            for j in range(pos, pos + chunk):
                op = ops[j]
                apply(op)
                a = clock()
                try:
                    if op.op == 1:
                        insert(op.element)
                    else:
                        delete(op.element, recover)
                except Exception as exc:  # counted, and the replay goes on
                    run.fail(f"stream op {j} of unit {unit}: {exc!r}")
                b = clock()
                if lat:
                    (ins_ns if op.op == 1 else del_ns).append(b - a)
            elapsed = clock() - t0
            wall += elapsed
            run.chunk(chunk, elapsed)
            if pos + chunk in checkpoints and (unit == 0 or pos + chunk > n):
                with run.quiet():
                    try:
                        got = sketch.signature().values
                    except EmptySetError:
                        got = None
                snaps.append((got, np.fromiter(store.contents(0), dtype=np.uint64)))
        run.attempted += 2 * n
        return 2 * n, wall / 1e9

    faults: dict = {}

    def counted(tag: int, unit: int, sketch) -> None:
        """Fault counts of the first replay of each stream; a replay must repeat them."""
        counts = (sketch.fault_count, sketch.recovery_elements_streamed)
        run.check(faults.setdefault((tag, unit % sz.pool), counts) == counts,
                  f"unit {unit}: fault counts differ from the stream's first replay")

    def main_unit(i):
        sketch = core.BufferedSketch(family, sz.ell)
        result = replay(sketch, stream(inputs.CHURN, sz.churn_n, i), sz.churn_chunk, i, snapshots, lat=True)
        counted(inputs.CHURN, i, sketch)
        return result

    def ref_unit(i):
        sketch = baselines.VanillaSketch(family)
        result = replay(sketch, stream(inputs.VANILLA, sz.vanilla_n, i), sz.vanilla_chunk, i,
                        v_snapshots, lat=False)
        counted(inputs.VANILLA, i, sketch)
        return result

    # A stream op is a few small numpy calls; a vanilla fault recomputes over the set.
    run.timed_phases(main_unit, ref_unit, ("calls", "mixed"))
    run.repeat["faults"], run.repeat["recovered_elements"] = faults[inputs.CHURN, 0]
    run.repeat["vanilla_faults"], run.repeat["vanilla_recovered_elements"] = faults[inputs.VANILLA, 0]
    with run.quiet():
        for j, (got, contents) in enumerate(snapshots):
            _check_signature(run, family, sz.ell, got, contents, f"churn checkpoint {j}")
        for j, (got, contents) in enumerate(v_snapshots):
            want = (family.min_hashes(contents) >> np.uint64(32)) if contents.size else None
            ok = (got is None) if want is None else (got is not None and np.array_equal(got, want))
            run.check(ok, f"vanilla checkpoint {j}: signature differs from min_hashes")


# -- window-rw -----------------------------------------------------------------


def window_rw(run: Run) -> None:
    """64 sliding windows of 1024 elements: 80% updates (insert the new
    element, delete the set's oldest), 20% reads (two signatures and an
    estimate). The reference path replays the same events through
    VanillaSketch."""
    sz = run.sizes

    def build(kind):
        events = inputs.WindowEvents(run.seed, sz.sets, sz.window, sz.read_frac)
        fill = [[StreamOp(s, x, 1) for x in row] for s, row in enumerate(events.initial.tolist())]

        def setup():
            family = _family(run)
            store = streams.SetStore()
            for ops in fill:
                for op in ops:
                    store.apply(op)
            if kind == "bmh":
                sketches = [core.BufferedSketch.init(row, family, sz.ell) for row in events.initial]
            else:
                sketches = [baselines.VanillaSketch.init(row, family) for row in events.initial]
            return family, store, sketches

        return events, setup

    events, setup = build("bmh")
    family, store, sketches = run.timed_setup(setup)
    run.digests.append(inputs.digest(events.initial))
    snapshots = []

    def snapshot(store, sketches, into):
        with run.quiet():
            into.append(([s.signature().values for s in sketches],
                         [np.fromiter(store.contents(i), dtype=np.uint64) for i in range(sz.sets)]))

    def replay(gen, store, sketches, n_events, unit, lat):
        evs = gen.next_unit(n_events)
        if unit == 0 and lat:
            run.digests.append(inputs.digest([e[2] for e in evs if e[0]]))
        ops = [(e[0], e[1], StreamOp(e[1], e[2], 1), StreamOp(e[1], e[3], -1)) if e[0] else e
               for e in evs]
        recovers = [store.recovery_provider(s) for s in range(sz.sets)]
        apply, estimate = store.apply, similarity.estimate_jaccard
        clock = time.perf_counter_ns
        ins_ns, del_ns, q_ns = run.insert_ns, run.delete_ns, run.query_ns
        reads, count = [], 0
        run.begin()
        t0 = clock()
        for ev in ops:
            if ev[0]:
                _, s, ins_op, del_op = ev
                sketch = sketches[s]
                apply(ins_op)
                a = clock()
                try:
                    sketch.insert(ins_op.element)
                except Exception as exc:
                    run.fail(f"insert in unit {unit}: {exc!r}")
                b = clock()
                apply(del_op)
                c = clock()
                try:
                    sketch.delete(del_op.element, recovers[s])
                except Exception as exc:
                    run.fail(f"delete in unit {unit}: {exc!r}")
                d = clock()
                if lat:
                    ins_ns.append(b - a)
                    del_ns.append(d - c)
                count += 2
            else:
                a = clock()
                try:
                    sig_a = sketches[ev[1]].signature()
                    sig_b = sketches[ev[2]].signature()
                    reads.append((sig_a, sig_b, estimate(sig_a, sig_b)))
                except Exception as exc:
                    run.fail(f"read in unit {unit}: {exc!r}")
                if lat:
                    q_ns.append(clock() - a)
                count += 1
        wall = clock() - t0
        run.chunk(count, wall)
        with run.quiet():
            _check_reads(run, reads, sz.k, f"window-rw unit {unit}")
        run.attempted += count
        return count, wall / 1e9

    def main_unit(i):
        result = replay(events, store, sketches, sz.unit_events, i, lat=True)
        if i == 0:
            run.repeat["faults"] = sum(s.fault_count for s in sketches)
            run.repeat["recovered_elements"] = sum(s.recovery_elements_streamed for s in sketches)
        if (i + 1) % sz.checkpoint_units == 0:
            snapshot(store, sketches, snapshots)
        return result

    v_events, v_setup = build("vanilla")
    with run.quiet():
        _, v_store, v_sketches = v_setup()

    def ref_unit(i):
        return replay(v_events, v_store, v_sketches, sz.vanilla_unit_events, i, lat=False)

    run.timed_phases(main_unit, ref_unit, ("calls", "mixed"))
    run.detail["faults"] = sum(s.fault_count for s in sketches)
    snapshot(store, sketches, snapshots)
    v_snaps = []
    snapshot(v_store, v_sketches, v_snaps)
    with run.quiet():
        for j, (sigs, contents) in enumerate(snapshots):
            for s in range(sz.sets):
                _check_signature(run, family, sz.ell, sigs[s], contents[s],
                                 f"window-rw checkpoint {j} set {s}")
        for s, (got, contents) in enumerate(zip(*v_snaps[0])):
            run.check(np.array_equal(got, family.min_hashes(contents) >> np.uint64(32)),
                      f"vanilla window set {s}: signature differs from min_hashes")


# -- acp -----------------------------------------------------------------------


def _bucket_pairs(sigs: list, bands: lsh.BandingParams) -> set:
    """Candidate pairs by direct scan of the raw band tuples."""
    buckets: dict = {}
    for set_id, values in enumerate(sigs):
        for j in range(bands.b):
            key = (j, tuple(values[j * bands.r:(j + 1) * bands.r].tolist()))
            buckets.setdefault(key, []).append(set_id)
    pairs = set()
    for ids in buckets.values():
        pairs.update((a, b) for x, a in enumerate(ids) for b in ids[x + 1:])
    return pairs


def acp(run: Run) -> None:
    """All candidate pairs over planted corpora of 200 sets x 300 elements.

    The sketch path takes a corpus from raw sets to estimated candidate
    pairs (init, LshIndex.insert, candidates, two signature reads and an
    estimate per candidate); the reference path grades all pairs of a corpus
    the sketch path indexed exactly, timed in blocks of rows. Units cycle
    over a pool of the seed's corpora, and a corpus seen again must give the
    same candidates and the same grading.
    """
    sz = run.sizes
    bands = lsh.choose_banding(sz.k, sz.threshold, 0.9)
    lsh_seed = int(inputs.rng_for(run.seed, inputs.LSH).integers(0, 1 << 63))
    family = run.timed_setup(lambda: _family(run))
    run.detail["bands"] = [bands.b, bands.r]
    corpora: list = []
    candidates: list = []  # per corpus, the pairs of its first indexing
    positives: dict = {}  # per corpus, the pairs its first grading found similar

    def main_unit(i):
        c = i % sz.pool
        if c == len(corpora):
            corpora.append(inputs.planted_corpus(inputs.rng_for(run.seed, inputs.ACP, c),
                                                 sz.corpus_sets, sz.planted, sz.set_size,
                                                 sz.acp_universe))
            run.digests.append(inputs.digest(*corpora[c]))
        arrays = corpora[c]
        clock = time.perf_counter_ns
        init, estimate = core.BufferedSketch.init, similarity.estimate_jaccard
        upd_ns, q_ns = run.update_ns, run.query_ns
        sketches, reads = [], []
        run.begin()
        t0 = clock()
        index = lsh.LshIndex(bands, seed=lsh_seed)
        for set_id, elems in enumerate(arrays):
            a = clock()
            sketch = init(elems, family, sz.ell)
            index.insert(set_id, sketch.signature())
            upd_ns.append(clock() - a)
            sketches.append(sketch)
        pairs = index.candidates()
        for x, y in sorted(pairs):
            a = clock()
            sig_a, sig_b = sketches[x].signature(), sketches[y].signature()
            reads.append((sig_a, sig_b, estimate(sig_a, sig_b)))
            q_ns.append(clock() - a)
        wall = clock() - t0
        count = len(arrays) + len(pairs)
        run.chunk(count, wall)
        with run.quiet():
            if c == len(candidates):
                candidates.append(pairs)
                sigs = [s.signature().values for s in sketches]
                run.check(pairs == _bucket_pairs(sigs, bands), f"acp corpus {c}: candidates differ from bucket scan")
                checked = set(range(sz.checked_sets)) | {p for pair in pairs for p in pair}
                for set_id in sorted(checked):
                    want = family.min_hashes(arrays[set_id]) >> np.uint64(32)
                    run.check(np.array_equal(sigs[set_id], want), f"acp corpus {c} set {set_id}: signature")
            else:
                run.check(pairs == candidates[c], f"acp unit {i}: candidates differ from corpus {c}'s first")
            _check_reads(run, reads, sz.k, f"acp unit {i}")
        run.attempted += count
        return count, wall / 1e9

    def ref_unit(i):
        c = i % len(candidates)
        arrays = corpora[c]
        sets = [set(a.tolist()) for a in arrays]
        n = len(sets)
        exact = similarity.exact_jaccard
        clock = time.perf_counter_ns
        sims, wall = [], 0
        for lo in range(0, n, sz.grade_rows):
            done = len(sims)
            run.begin()
            t0 = clock()
            for a in range(lo, min(lo + sz.grade_rows, n)):
                set_a = sets[a]
                for b in range(a + 1, n):
                    sims.append(exact(set_a, sets[b]))
            elapsed = clock() - t0
            wall += elapsed
            run.chunk(len(sims) - done, elapsed)
        truth = dict(zip(((a, b) for a in range(n) for b in range(a + 1, n)), sims))
        returned = candidates[c]
        with run.quiet():
            check = returned | {(2 * p, 2 * p + 1) for p in range(sz.planted)}
            rng = inputs.rng_for(run.seed, inputs.ACP, c, 1)
            for a, b in rng.integers(0, n, size=(sz.checked_sets, 2)).tolist():
                if a != b:
                    check.add((min(a, b), max(a, b)))
            for a, b in sorted(check):
                want = np.intersect1d(arrays[a], arrays[b]).size / np.union1d(arrays[a], arrays[b]).size
                run.check(truth[(a, b)] == want, f"acp grading unit {i} pair {(a, b)}")
        found = {p for p, v in truth.items() if v >= sz.threshold}
        if c in positives:
            run.check(found == positives[c], f"acp grading unit {i}: differs from corpus {c}'s first")
        else:
            positives[c] = found
            run.graded["candidate_pairs"] += len(returned)
            run.graded["tp"] += len(returned & found)
            if c == 0:
                run.repeat.update(candidate_pairs=len(returned), tp=len(returned & found),
                                  fp=len(returned - found), fn=len(found - returned))
        run.attempted += len(sims)
        return len(sims), wall / 1e9

    # init hashes and partitions 300 elements at once; grading is measured alike.
    run.timed_phases(main_unit, ref_unit, ("bulk", "bulk"))


WORKLOADS = {"churn": churn, "window-rw": window_rw, "acp": acp}
