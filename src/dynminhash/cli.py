"""Benchmark command line: reproduces the experiment suite at desk scale.

Subcommands: fault-sweep, speedup, mixed, rmse, acp, gen-stream, gen-pairs,
load-balls. Every command is deterministic given --seed (timing columns
excluded) and writes CSV by default or JSON with --json. Exit codes: 0 on
success, 2 on configuration errors, 3 on data errors (unreadable or
malformed input files).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import bench
from .errors import BandingInfeasibleError
from .lsh import BandingParams, choose_banding
from .similarity import exact_jaccard
from .streams import (
    PairGenConfig,
    StreamOp,
    gen_correlated_pair,
    gen_uniform_stream,
    load_graph_balls,
    write_stream,
)

EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3


class ConfigError(Exception):
    pass


class DataError(Exception):
    pass


def _write_rows(rows, out_path, as_json: bool) -> None:
    if not rows:
        raise ConfigError("experiment produced no rows")
    if as_json:
        payload = json.dumps(rows, indent=2, default=float)
        if out_path in (None, "-"):
            sys.stdout.write(payload + "\n")
        else:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        return
    fieldnames = list(rows[0])
    target = sys.stdout if out_path in (None, "-") else open(out_path, "w", newline="", encoding="utf-8")
    try:
        writer = csv.DictWriter(target, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if target is not sys.stdout:
            target.close()


def _int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _float_list(text: str) -> list:
    try:
        return [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    common.add_argument("--reps", type=int, default=20, help="timed repetitions (default 20)")
    common.add_argument("--out", default=None, help="output path (default stdout)")
    common.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
    common.add_argument("--k", type=int, default=256, help="hash functions per signature")
    common.add_argument("--ell", type=int, default=32, help="buffer capacity per function")
    common.add_argument("--universe-bits", type=int, default=32,
                        help="log2 of the element universe (default 32)")

    parser = argparse.ArgumentParser(
        prog="dynminhash-bench",
        description="Benchmarks for dynamic MinHash sketches over update streams with recovery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fault-sweep", parents=[common],
                       help="stress test over a range of buffer sizes")
    p.add_argument("--n", type=int, default=4096, help="elements inserted then deleted")
    p.add_argument("--ells", type=_int_list, default=[2, 4, 8, 16, 32, 64],
                   help="comma-separated buffer sizes to sweep")

    p = sub.add_parser("speedup", parents=[common],
                       help="buffered sketch vs argmin-only baseline on identical streams")
    p.add_argument("--n-list", type=_int_list, default=[4096],
                   help="comma-separated stream half-lengths")

    p = sub.add_parser("mixed", parents=[common],
                       help="interleaved updates and signature queries, all sketches")
    p.add_argument("--n", type=int, default=4096, help="events per workload")
    p.add_argument("--p-list", type=_float_list, default=[0.0, 0.01, 0.05, 0.1, 0.5, 0.9],
                   help="query fractions to sweep")

    p = sub.add_parser("rmse", parents=[common],
                       help="Jaccard estimation error on correlated set pairs")
    p.add_argument("--j-list", type=_float_list, default=[0.1, 0.3, 0.5, 0.7, 0.9])
    p.add_argument("--pairs", type=int, default=1000, help="pairs per similarity level")
    p.add_argument("--density", type=float, default=0.05, help="base-set sampling density")
    p.add_argument("--sketches", default="bmh,vanilla,bss",
                   help="comma-separated subset of bmh,vanilla,bss")
    p.set_defaults(universe_bits=17)  # pair generation materializes the universe

    p = sub.add_parser("acp", parents=[common],
                       help="all-candidate-pairs over graph neighborhoods or a synthetic corpus")
    p.add_argument("--edges", default=None, help="SNAP edge list path")
    p.add_argument("--top-v", type=int, default=5000, help="highest-out-degree centers to keep")
    p.add_argument("--radius", type=int, default=1, choices=(1, 2), help="ball radius")
    p.add_argument("--synthetic-sets", type=int, default=None,
                   help="use a synthetic corpus of this many sets instead of --edges")
    p.add_argument("--planted", type=int, default=10,
                   help="planted similar pairs in the synthetic corpus")
    p.add_argument("--j", type=float, default=0.5, help="similarity threshold")
    p.add_argument("--b", type=int, default=None, help="bands (default: derived)")
    p.add_argument("--r", type=int, default=None, help="rows per band (default: derived)")
    p.add_argument("--target-p1", type=float, default=0.8,
                   help="candidate probability target when deriving (b, r)")
    p.add_argument("--sketch", default="bmh", choices=("bmh", "vanilla", "bss"))
    p.add_argument("--sample-negatives", type=int, default=None,
                   help="estimate recall from this many sampled non-returned pairs")
    p.add_argument("--summary-out", default=None, help="write the summary row here (CSV/JSON)")

    p = sub.add_parser("gen-stream", parents=[common],
                       help="write an insert-everything-then-delete-everything stream file")
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--set-id", type=int, default=0)

    p = sub.add_parser("gen-pairs", parents=[common],
                       help="generate correlated set pairs and their exact similarities")
    p.add_argument("--j", type=float, default=0.5)
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--density", type=float, default=0.05)
    p.add_argument("--stream-out", default=None,
                   help="also write the pairs as an insert stream (set ids 2i, 2i+1)")
    p.set_defaults(universe_bits=17)  # pair generation materializes the universe

    p = sub.add_parser("load-balls", parents=[common],
                       help="neighborhood sets of the highest-out-degree vertices")
    p.add_argument("--edges", required=True, help="SNAP edge list path")
    p.add_argument("--top-v", type=int, default=5000)
    p.add_argument("--radius", type=int, default=1, choices=(1, 2))
    p.add_argument("--include-center", action="store_true")
    p.add_argument("--sets-out", default=None, help="write the balls as an insert stream")
    return parser


def _load_acp_sets(args):
    if args.synthetic_sets is not None:
        sets, _ = bench.make_planted_acp_corpus(args.synthetic_sets, args.planted, args.seed)
        return sets
    if args.edges is None:
        raise ConfigError("acp needs either --edges or --synthetic-sets")
    try:
        return load_graph_balls(args.edges, args.top_v, args.radius)
    except OSError as exc:
        raise DataError(f"cannot read edge list: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"malformed edge list: {exc}") from exc


def _cmd_acp(args) -> None:
    sets = _load_acp_sets(args)
    if not sets:
        raise DataError("no sets to index")
    if (args.b is None) != (args.r is None):
        raise ConfigError("--b and --r must be given together")
    if args.b is not None:
        banding = BandingParams(b=args.b, r=args.r)
    else:
        try:
            banding = choose_banding(args.k, args.j, args.target_p1)
        except BandingInfeasibleError as exc:
            raise ConfigError(str(exc)) from exc
    if banding.b * banding.r > args.k:
        raise ConfigError(f"banding {banding} needs more than k={args.k} signature entries")
    pair_rows, summary = bench.acp_run(
        sets, args.k, args.ell, banding, args.j, args.seed,
        sketch=args.sketch, universe_bits=args.universe_bits,
        negative_sample=args.sample_negatives,
    )
    _write_rows(pair_rows or [{"schema": "acp-pairs/1", "set_id_a": "", "set_id_b": "",
                               "estimated_sim": "", "exact_sim": ""}],
                args.out, args.json)
    if args.summary_out:
        _write_rows([summary], args.summary_out, args.json)
    else:
        sys.stderr.write(json.dumps(summary, default=float) + "\n")


def _cmd_gen_pairs(args) -> None:
    cfg = PairGenConfig(universe_size=1 << args.universe_bits,
                        density=args.density, target_j=args.j)
    rows = []
    stream = []
    for idx in range(args.pairs):
        a, b = gen_correlated_pair(cfg, bench._subseed(args.seed, idx, 5))
        rows.append({
            "schema": "gen-pairs/1",
            "pair": idx,
            "set_id_a": 2 * idx,
            "set_id_b": 2 * idx + 1,
            "size_a": len(a),
            "size_b": len(b),
            "exact_j": exact_jaccard(a, b),
        })
        if args.stream_out:
            stream.extend(StreamOp(2 * idx, int(x), 1) for x in a)
            stream.extend(StreamOp(2 * idx + 1, int(x), 1) for x in b)
    _write_rows(rows, args.out, args.json)
    if args.stream_out:
        write_stream(args.stream_out, stream)


def _cmd_load_balls(args) -> None:
    try:
        balls = load_graph_balls(args.edges, args.top_v, args.radius, args.include_center)
    except OSError as exc:
        raise DataError(f"cannot read edge list: {exc}") from exc
    except ValueError as exc:
        raise DataError(f"malformed edge list: {exc}") from exc
    rows = [{"schema": "balls/1", "center": center, "ball_size": len(ball)}
            for center, ball in sorted(balls.items())]
    _write_rows(rows, args.out, args.json)
    if args.sets_out:
        stream = [StreamOp(center, int(x), 1) for center, ball in sorted(balls.items())
                  for x in sorted(ball)]
        write_stream(args.sets_out, stream)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fault-sweep":
            rows = bench.fault_sweep(args.n, args.k, args.ells, args.reps, args.seed,
                                     args.universe_bits)
            _write_rows(rows, args.out, args.json)
        elif args.command == "speedup":
            rows = bench.speedup(args.n_list, args.k, args.ell, args.reps, args.seed,
                                 args.universe_bits)
            _write_rows(rows, args.out, args.json)
        elif args.command == "mixed":
            rows = bench.mixed(args.n, args.p_list, args.k, args.ell, args.reps, args.seed,
                               args.universe_bits)
            _write_rows(rows, args.out, args.json)
        elif args.command == "rmse":
            sketches = tuple(s for s in args.sketches.split(",") if s)
            bad = set(sketches) - {"bmh", "vanilla", "bss"}
            if bad:
                raise ConfigError(f"unknown sketches: {sorted(bad)}")
            rows = bench.rmse_benchmark(args.j_list, args.pairs, args.k, args.seed,
                                        universe_bits=args.universe_bits,
                                        density=args.density, ell=args.ell,
                                        sketches=sketches)
            _write_rows(rows, args.out, args.json)
        elif args.command == "acp":
            _cmd_acp(args)
        elif args.command == "gen-stream":
            ops = gen_uniform_stream(args.n, 1 << args.universe_bits, args.seed, args.set_id)
            if args.out in (None, "-"):
                raise ConfigError("gen-stream requires --out (stream file path)")
            write_stream(args.out, ops)
        elif args.command == "gen-pairs":
            _cmd_gen_pairs(args)
        elif args.command == "load-balls":
            _cmd_load_balls(args)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ValueError) as exc:  # BandingInfeasibleError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG_ERROR
    except (DataError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA_ERROR
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
