"""Benchmark of the dynminhash package: one workload per run.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload churn --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The line before it
is the run's record: environment, host-speed calibration, input digests,
counts that must repeat exactly at a given seed, and the metrics under the
names of the perf ledger. The record is also written to perfbench/out/, and
a traced run writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "update_p50_us": "us",
    "update_p99_us": "us",
    "reference_ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LEDGER_UNITS = {
    "update_ops_per_s": "1/s", "insert_p50_us": "us", "insert_p99_us": "us",
    "delete_p50_us": "us", "delete_p99_us": "us", "query_p50_us": "us", "query_p99_us": "us",
    "vanilla_ops_per_s": "1/s", "speedup_vs_vanilla": "x", "acp_index_s": "s",
    "acp_grade_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "fraction",
}

PER_LAYER_UNITS = {
    "hashing.key_one.ns": "ns",
    "hashing.key_one.calls": "count",
    "hashing.keys_many.ns_per_key": "ns",
    "hashing.keys_many.keys": "count",
    "core.insert.self_us": "us",
    "core.delete.self_us": "us",
    "core.fault.count": "count",
    "core.fault.rate": "fraction",
    "core.fault.rebuild_ms": "ms",
    "core.init.self_ms": "ms",
    "core.signature.us": "us",
    "similarity.estimate_jaccard.us": "us",
    "baselines.vanilla.fault.count": "count",
    "baselines.vanilla.fault.rate": "fraction",
    "baselines.vanilla.rebuild_ms": "ms",
    "streams.apply.us": "us",
    "streams.recover.calls": "count",
    "streams.recover.elements": "count",
    "streams.recover.ms": "ms",
    "lsh.insert.us_per_band": "us",
    "lsh.candidates.ms": "ms",
    "lsh.candidates.pairs": "count",
    "lsh.candidates.yield": "fraction",
    "similarity.exact_jaccard.us": "us",
    "similarity.exact_jaccard.calls": "count",
    "trace.overhead_frac": "fraction",
}


def import_package(root: Path):
    """Put the checkout's src/ first on the path; None if it has no package."""
    src = root / "src"
    if not (src / "dynminhash" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import dynminhash

    return dynminhash


def calibrate_ms() -> float:
    """Median of three timings of a fixed interpreter-bound loop, in ms.

    Taken before and after each workload, so that a change of host speed
    shows in the record instead of passing as a gain or a loss.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc + i * i) & 0xFFFFFFFF
        times.append(time.perf_counter() - t0)
    return median(times) * 1e3


def environment(package) -> dict:
    import numpy

    from dynminhash import _kernels

    return {
        "numba": bool(_kernels.ENABLED),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "package": package.__version__,
    }


def percentiles(counts) -> tuple:
    """p50 and p99 in us from a latency histogram, interpolated inside the bin."""
    import numpy as np

    from workloads import BIN_RATIO

    total = int(counts.sum())
    if not total:
        return 0.0, 0.0
    cum = np.cumsum(counts)
    out = []
    for q in (0.5, 0.99):
        i = int(np.searchsorted(cum, q * total))
        below = cum[i] - counts[i]
        out.append(BIN_RATIO ** (i + (q * total - below) / counts[i]) / 1e3)
    return tuple(out)


def end_to_end(run) -> dict:
    """The gated metrics, from times scaled by the host-speed probes."""
    from workloads import MAIN, REF

    main, ref = run.totals[MAIN], run.totals[REF]
    upd50, upd99 = percentiles(run.hist["update"] + run.hist["insert"] + run.hist["delete"])
    return {
        "ops_per_s": main["ops"] / main["scaled"],
        "update_p50_us": upd50,
        "update_p99_us": upd99,
        "reference_ops_per_s": ref["ops"] / ref["scaled"],
        "setup_s": median(run.setup_s),
        "peak_rss_mb": run.peak_rss_mb,
    }


def unscaled(run) -> dict:
    """The throughputs and set-up time as timed, before the probe scaling,
    with the probe's quartiles over the run."""
    from workloads import MAIN, REF

    main, ref = run.totals[MAIN], run.totals[REF]
    return {"ops_per_s": main["ops"] / main["wall"],
            "reference_ops_per_s": ref["ops"] / ref["wall"],
            "setup_s": median(run.setup_raw_s),
            "probe_ns_quartiles": {kind: quantiles(ns, n=4) for kind, ns in run.probes.items()}}


def ledger(workload: str, run, e2e: dict) -> dict:
    """The end-to-end figures under the perf ledger's per-workload names,
    with the read latencies, which are reported but not gated."""
    from workloads import MAIN, REF

    out = {"setup_s": e2e["setup_s"], "peak_rss_mb": e2e["peak_rss_mb"],
           "failed_frac": run.failed / max(run.attempted, 1)}
    if run.hist["query"].any():
        out["query_p50_us"], out["query_p99_us"] = percentiles(run.hist["query"])
    if workload == "acp":
        out["acp_index_s"] = run.totals[MAIN]["scaled"] / len(run.units[MAIN])
        out["acp_grade_s"] = run.totals[REF]["scaled"] / len(run.units[REF])
    else:
        out["insert_p50_us"], out["insert_p99_us"] = percentiles(run.hist["insert"])
        out["delete_p50_us"], out["delete_p99_us"] = percentiles(run.hist["delete"])
        out.update(update_ops_per_s=e2e["ops_per_s"], vanilla_ops_per_s=e2e["reference_ops_per_s"],
                   speedup_vs_vanilla=e2e["ops_per_s"] / e2e["reference_ops_per_s"])
    return {name: {"value": value, "unit": LEDGER_UNITS[name]} for name, value in out.items()}


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple:
    """Run one workload; returns (result line, record, tracer or None). The
    package must be importable already."""
    import workloads
    from tracing import Tracer

    sizes = sizes or workloads.FULL
    tracer = Tracer() if trace else None
    run = workloads.Run(seed, seconds, sizes, tracer)
    calib_before = calibrate_ms()
    if tracer is not None:
        tracer.install()
        tracer.on = False
    try:
        workloads.WORKLOADS[workload](run)
    finally:
        if tracer is not None:
            tracer.uninstall()
    calib_after = calibrate_ms()
    e2e = end_to_end(run)
    if tracer is None:
        values, units = e2e, END_TO_END_UNITS
    else:
        values = tracer.layer_metrics(_bands(sizes))
        graded = run.graded
        values["lsh.candidates.yield"] = graded["tp"] / graded["candidate_pairs"] if graded["candidate_pairs"] else 0.0
        values["trace.overhead_frac"] = run.trace_overhead
        units = PER_LAYER_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "env": environment(sys.modules["dynminhash"]),
        "calibration_ms": {"before": calib_before, "after": calib_after},
        "input_digests": run.digests,
        "repeat_counts": run.repeat,
        "unit_rates": {"main": [ops / scaled for ops, _, scaled in run.units[0]],
                       "reference": [ops / scaled for ops, _, scaled in run.units[1]]},
        "samples": {kind: int(counts.sum()) for kind, counts in run.hist.items()},
        "unscaled": unscaled(run),
        "checks": run.checks,
        "errors": run.errors,
        "ledger": ledger(workload, run, e2e),
        "detail": run.detail,
    }
    if tracer is not None:
        record["spans"] = len(tracer.kind)
    result = {"correct": run.failed == 0 and run.checks > 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    return result, record, tracer


def _bands(sizes) -> int:
    from dynminhash import lsh

    return lsh.choose_banding(sizes.k, sizes.threshold, 0.9).b


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["churn", "window-rw", "acp"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if import_package(Path.cwd()) is None:
        print("perfbench: no src/dynminhash here; run from the root of a checkout", file=sys.stderr)
        return 2
    result, record, tracer = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"result": result, "record": record}, indent=1))
    if tracer is not None:
        tracer.save(OUT / f"{args.workload}.spans.npz")
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
