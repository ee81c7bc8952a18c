import csv
import json
from itertools import combinations

import numpy as np
import pytest

from dynminhash import _kernels, bench
from dynminhash.cli import EXIT_CONFIG_ERROR, EXIT_DATA_ERROR, run
from dynminhash.lsh import BandingParams
from dynminhash.similarity import exact_jaccard
from dynminhash.streams import read_stream


def _strip_timing(rows):
    drop = {"mean_time_s", "median_time_s", "vanilla_time_s", "bmh_time_s",
            "vanilla_median_s", "bmh_median_s", "speedup"}
    return [{k: v for k, v in row.items() if k not in drop} for row in rows]


class TestBench:
    def test_fault_sweep_rows_and_determinism(self):
        rows = bench.fault_sweep(n=256, k=8, ells=[2, 8], reps=2, seed=1, universe_bits=14)
        again = bench.fault_sweep(n=256, k=8, ells=[2, 8], reps=2, seed=1, universe_bits=14)
        assert _strip_timing(rows) == _strip_timing(again)
        assert [row["ell"] for row in rows] == [2, 8]
        assert rows[0]["mean_faults"] >= rows[1]["mean_faults"]
        assert all(row["sd_faults"] >= 0 for row in rows)

    def test_speedup_smoke(self):
        rows = bench.speedup([256], k=8, ell=8, reps=2, seed=2, universe_bits=14)
        assert len(rows) == 1
        row = rows[0]
        assert row["schema"] == "speedup/1"
        assert (row["n"], row["k"], row["ell"], row["reps"]) == (256, 8, 8, 2)
        assert row["vanilla_time_s"] > 0 and row["bmh_time_s"] > 0
        assert row["speedup"] == row["vanilla_time_s"] / row["bmh_time_s"]
        assert row["hash_eval_ns"] > 0

    # At this scale wall time is per-op numpy overhead, which favours the
    # one-call vanilla update; the buffered sketch wins only when compiled.
    @pytest.mark.skipif(not _kernels.ENABLED,
                        reason="numba not importable: the ordering is for the compiled kernels")
    def test_speedup_ordering(self):
        rows = bench.speedup([256], k=8, ell=8, reps=2, seed=2, universe_bits=14)
        assert rows[0]["speedup"] >= 1.0

    def test_hash_eval_cost_is_nanoseconds(self):
        ns = bench.hash_eval_ns(k=64, seed=1, samples=1 << 12)
        assert 0.1 < ns < 1000

    def test_mixed_covers_all_sketches(self):
        rows = bench.mixed(n=128, p_values=[0.0, 0.5], k=8, ell=8, reps=1, seed=3,
                           universe_bits=14)
        kinds = {(row["p"], row["sketch"]) for row in rows}
        assert len(kinds) == 2 * len(bench.SKETCH_KINDS)
        assert all(row["mean_time_s"] > 0 for row in rows)

    def test_rmse_smoke(self):
        rows = bench.rmse_benchmark([0.5], pairs_per_j=5, k=64, seed=4,
                                    universe_bits=12, sketches=("bmh", "vanilla", "bss"))
        by_kind = {row["sketch"]: row for row in rows}
        assert by_kind["vanilla"]["k"] == 64 * 12  # equal-memory scaling
        assert 0 <= by_kind["bmh"]["rmse"] <= 1
        assert by_kind["bmh"]["pairs"] == 5

    def test_acp_run_full_ground_truth(self):
        sets, planted = bench.make_planted_acp_corpus(30, 3, seed=5, universe_bits=16,
                                                      base_size=80)
        pair_rows, summary = bench.acp_run(sets, k=64, ell=8,
                                           banding=BandingParams(b=12, r=5),
                                           threshold=0.5, seed=5)
        assert summary["effective_pairs"] == len(planted)
        assert summary["tp"] + summary["fn"] == len(planted)
        assert summary["returned_pairs"] == len(pair_rows)
        for row in pair_rows:
            assert 0 <= row["estimated_sim"] <= 1

    def test_all_pairs_ground_truth_equals_exact_jaccard(self):
        # A small universe so that most pairs share elements.
        sets, _ = bench.make_planted_acp_corpus(24, 3, seed=8, universe_bits=8, base_size=40)
        sets[24], sets[25], sets[26] = [1, 2, 2, 3], np.array([2, 3, 4]), frozenset()
        ids = sorted(sets)
        sims = bench._all_pairs_jaccard(sets, ids)
        assert list(sims) == list(combinations(ids, 2))
        assert all(sims[a, b] == exact_jaccard(sets[a], sets[b]) for a, b in sims)
        assert sims[24, 25] == 0.5 and sims[24, 26] == 0.0
        assert sum(v > 0 for v in sims.values()) > len(sims) // 2

    def test_acp_run_sampled_recall(self):
        sets, _ = bench.make_planted_acp_corpus(30, 3, seed=6, universe_bits=16,
                                                base_size=80)
        _, summary = bench.acp_run(sets, k=64, ell=8, banding=BandingParams(b=12, r=5),
                                   threshold=0.5, seed=6, negative_sample=100)
        assert summary["negatives_sampled"] == 100
        assert 0 <= summary["recall_ci_low"] <= summary["recall_ci_high"] <= 1.0

    def test_planted_corpus_shape(self):
        sets, planted = bench.make_planted_acp_corpus(40, 4, seed=7)
        assert len(sets) == 40
        assert len(planted) == 4
        for a, b in planted:
            assert exact_jaccard(sets[a], sets[b]) >= 0.5


class TestCli:
    def test_fault_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["fault-sweep", "--n", "128", "--k", "4", "--ells", "2,4",
                    "--reps", "1", "--seed", "1", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["ell"] for row in rows] == ["2", "4"]
        assert rows[0]["schema"] == "fault-sweep/1"
        assert "mean_faults" in rows[0]
        assert rows[0]["sd_faults"] == "nan"  # undefined for one rep

    def test_fault_sweep_csv_spread_is_deterministic(self, tmp_path):
        spreads = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run(["fault-sweep", "--n", "128", "--k", "4", "--ells", "2,4",
                        "--reps", "3", "--seed", "1", "--out", str(out)]) == 0
            with open(out) as fh:
                spreads.append([float(row["sd_faults"]) for row in csv.DictReader(fh)])
        assert spreads[0] == spreads[1]
        assert all(sd >= 0 for sd in spreads[0])

    def test_speedup_json(self, tmp_path):
        out = tmp_path / "speedup.json"
        code = run(["speedup", "--n-list", "128", "--k", "4", "--ell", "4",
                    "--reps", "1", "--seed", "1", "--json", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload[0]["n"] == 128

    def test_gen_stream_roundtrip(self, tmp_path):
        out = tmp_path / "ops.tsv"
        code = run(["gen-stream", "--n", "16", "--universe-bits", "12",
                    "--seed", "9", "--out", str(out)])
        assert code == 0
        ops = read_stream(out)
        assert len(ops) == 32

    def test_gen_stream_requires_out(self):
        assert run(["gen-stream", "--n", "4"]) == EXIT_CONFIG_ERROR

    def test_gen_pairs_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["gen-pairs", "--pairs", "3", "--j", "0.5", "--universe-bits", "12",
                "--seed", "11"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        rows = list(csv.DictReader(a.open()))
        assert len(rows) == 3
        assert all(0 <= float(r["exact_j"]) <= 1 for r in rows)

    def test_gen_pairs_stream_out(self, tmp_path):
        stream = tmp_path / "pairs.tsv"
        code = run(["gen-pairs", "--pairs", "2", "--j", "0.9", "--universe-bits", "10",
                    "--seed", "12", "--out", str(tmp_path / "m.csv"),
                    "--stream-out", str(stream)])
        assert code == 0
        ops = read_stream(stream)
        assert {op.set_id for op in ops} == {0, 1, 2, 3}
        assert all(op.op == 1 for op in ops)

    def test_load_balls(self, tmp_path):
        edges = tmp_path / "g.txt"
        edges.write_text("0 1\n0 2\n1 2\n")
        out = tmp_path / "balls.csv"
        sets_out = tmp_path / "balls.tsv"
        code = run(["load-balls", "--edges", str(edges), "--top-v", "2", "--radius", "1",
                    "--out", str(out), "--sets-out", str(sets_out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["center"] == "0" and rows[0]["ball_size"] == "2"
        assert read_stream(sets_out)

    def test_load_balls_missing_file_is_data_error(self, tmp_path):
        code = run(["load-balls", "--edges", str(tmp_path / "nope.txt"),
                    "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_DATA_ERROR

    def test_acp_needs_dataset(self, tmp_path):
        assert run(["acp", "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG_ERROR

    def test_acp_synthetic(self, tmp_path):
        out = tmp_path / "acp.csv"
        summary_out = tmp_path / "summary.csv"
        code = run(["acp", "--synthetic-sets", "24", "--planted", "2", "--k", "64",
                    "--ell", "8", "--j", "0.5", "--seed", "13",
                    "--out", str(out), "--summary-out", str(summary_out)])
        assert code == 0
        summary = list(csv.DictReader(summary_out.open()))[0]
        assert summary["schema"] == "acp-summary/1"
        assert int(summary["sets"]) == 24

    def test_acp_banding_flags_must_pair(self, tmp_path):
        code = run(["acp", "--synthetic-sets", "10", "--b", "5",
                    "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG_ERROR

    def test_rmse_unknown_sketch_rejected(self, tmp_path):
        code = run(["rmse", "--sketches", "bmh,nope", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG_ERROR

    def test_mixed_csv(self, tmp_path):
        out = tmp_path / "mixed.csv"
        code = run(["mixed", "--n", "64", "--p-list", "0.0,1.0", "--k", "4",
                    "--ell", "4", "--reps", "1", "--seed", "14",
                    "--universe-bits", "12", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert {row["sketch"] for row in rows} == set(bench.SKETCH_KINDS)

    def test_rmse_cli_smoke(self, tmp_path):
        out = tmp_path / "rmse.csv"
        code = run(["rmse", "--j-list", "0.5", "--pairs", "3", "--k", "32",
                    "--universe-bits", "11", "--ell", "8", "--seed", "15",
                    "--sketches", "bmh,bss", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert {row["sketch"] for row in rows} == {"bmh", "bss"}
