import csv
import gc
import json
import weakref
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynminhash import bench
from dynminhash.cli import EXIT_CONFIG_ERROR, EXIT_DATA_ERROR, run
from dynminhash.lsh import BandingParams
from dynminhash.similarity import exact_jaccard
from dynminhash.streams import StreamOp, read_stream


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

    def test_replay_collects_garbage_before_timing(self):
        """A cycle left by earlier work is collected before the replay's
        first timed call, so no replay pays a full collection of objects
        that it did not make."""
        class Node:
            pass

        collected, seen = [], []

        class Probe:
            def insert(self, x):
                seen.append(list(collected))

        enabled = gc.isenabled()
        gc.disable()
        try:
            node = Node()
            node.cycle = node
            weakref.finalize(node, collected.append, "node")
            del node
            bench._replay(Probe(), [StreamOp(0, 1, 1)])
        finally:
            if enabled:
                gc.enable()
        assert seen == [["node"]]

    # The buffered sketch's stream ops make no numpy call per op, so it
    # beats the one-call vanilla update even at this scale.
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

    @given(st.lists(st.sets(st.integers(0, 30), max_size=20), max_size=7))
    def test_all_pairs_jaccard_equals_definition_bit_for_bit(self, members):
        """The postings path gives len(a & b) / len(a | b) for every pair,
        the same float as the union built in full; 0.0 for two empty sets."""
        sets = {i: m if i % 2 else np.array(sorted(m), dtype=np.uint64)
                for i, m in enumerate(members)}
        sims = bench._all_pairs_jaccard(sets, list(sets))
        assert list(sims) == list(combinations(range(len(members)), 2))
        for (a, b), got in sims.items():
            union = len(members[a] | members[b])
            want = len(members[a] & members[b]) / union if union else 0.0
            assert got.hex() == want.hex()

    def test_acp_run_sampled_recall(self):
        sets, _ = bench.make_planted_acp_corpus(30, 3, seed=6, universe_bits=16,
                                                base_size=80)
        _, summary = bench.acp_run(sets, k=64, ell=8, banding=BandingParams(b=12, r=5),
                                   threshold=0.5, seed=6, negative_sample=100)
        assert summary["negatives_sampled"] == 100
        assert 0 <= summary["recall_ci_low"] <= summary["recall_ci_high"] <= 1.0

    @pytest.mark.parametrize("n_sets,n_planted", [(2, 1), (1, 0)])
    def test_acp_run_samples_nothing_when_no_pair_is_left(self, n_sets, n_planted):
        # The only pair is returned, or there is no pair: drawing a
        # non-returned pair used to loop forever.
        sets, _ = bench.make_planted_acp_corpus(n_sets, n_planted, seed=1, universe_bits=16,
                                                base_size=80)
        _, summary = bench.acp_run(sets, k=64, ell=8, banding=BandingParams(b=12, r=5),
                                   threshold=0.5, seed=1, negative_sample=3)
        assert summary["returned_pairs"] == n_sets * (n_sets - 1) // 2
        assert summary["negatives_sampled"] == 0 and summary["fn_estimate"] == 0

    @pytest.mark.parametrize("sample", [0, -3])
    def test_acp_run_rejects_an_empty_negative_sample(self, sample):
        # A sample of 0 reported recall 1.0 with CI [1.0, 1.0] from no pair.
        sets, _ = bench.make_planted_acp_corpus(4, 1, seed=1, universe_bits=16, base_size=80)
        with pytest.raises(ValueError, match="at least 1"):
            bench.acp_run(sets, k=64, ell=8, banding=BandingParams(b=12, r=5),
                          threshold=0.5, seed=1, negative_sample=sample)

    @pytest.mark.parametrize("threshold", [1.5, 0.0, -0.2])
    def test_acp_run_rejects_a_threshold_outside_the_unit_interval(self, threshold):
        # 1.5 graded every pair as a true negative.
        sets, _ = bench.make_planted_acp_corpus(4, 1, seed=1, universe_bits=16, base_size=80)
        with pytest.raises(ValueError, match="threshold"):
            bench.acp_run(sets, k=64, ell=8, banding=BandingParams(b=8, r=8),
                          threshold=threshold, seed=1)

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

    @pytest.mark.parametrize("command", ["fault-sweep", "speedup", "mixed"])
    @pytest.mark.parametrize("reps", ["0", "-1"])
    def test_reps_below_one_rejected(self, command, reps, capsys):
        with pytest.raises(SystemExit) as exc:
            run([command, "--reps", reps])
        assert exc.value.code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "--reps" in err and "at least 1" in err

    @pytest.mark.parametrize("command,flag,value", [
        ("speedup", "--n-list", "0"), ("speedup", "--n-list", "64,-2"),
        ("mixed", "--n", "0"), ("mixed", "--n", "-1"),
        ("fault-sweep", "--n", "0"), ("fault-sweep", "--ells", "2,0"),
        ("rmse", "--pairs", "0"), ("gen-pairs", "--pairs", "-1"), ("gen-stream", "--n", "-5"),
        ("acp", "--synthetic-sets", "0"), ("acp", "--synthetic-sets", "-4"),
        ("acp", "--sample-negatives", "0"), ("acp", "--sample-negatives", "-1"),
        ("acp", "--top-v", "0"), ("load-balls", "--top-v", "-1"),
    ])
    def test_sizes_below_one_rejected(self, command, flag, value, capsys):
        # speedup --n-list 0 divided by an empty stream's zero time, mixed
        # --n 0 printed rows of zero times, acp --sample-negatives 0 reported
        # recall 1.0 from no sampled pair, and --top-v -1 kept every center
        # but the last.
        with pytest.raises(SystemExit) as exc:
            run([command, flag, value, "--reps", "1", "--k", "4"])
        assert exc.value.code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"argument {flag}:" in err and "at least 1" in err

    @pytest.mark.parametrize("argv", [
        ["acp", "--synthetic-sets", "6", "--planted", "1", "--k", "64", "--ell", "8",
         "--b", "8", "--r", "8"],
        ["gen-pairs", "--pairs", "2"],
    ])
    @pytest.mark.parametrize("j", ["1.5", "0", "-0.2", "nan"])
    def test_threshold_outside_the_unit_interval_rejected(self, argv, j, tmp_path, capsys):
        # With --b and --r given, acp graded every pair against --j 1.5 (tp 0)
        # or -0.2 and exited 0.
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--j", j, "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert "argument --j: must be in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fault-sweep", "--ell", "8"], ["rmse", "--reps", "3"],
        ["load-balls", "--edges", "g.txt", "--seed", "1"],
    ])
    def test_unread_common_flag_rejected(self, argv, capsys):
        # fault-sweep sweeps --ells, rmse times nothing and load-balls draws
        # nothing, so none of them reads the flag it is given. Parsing fails
        # before g.txt is opened.
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err

    def test_gen_stream_universe_bits_above_32_rejected(self, tmp_path, capsys):
        # 40 bits would write elements above 2^32, which every sketch rejects.
        out = tmp_path / "s.tsv"
        with pytest.raises(SystemExit) as exc:
            run(["gen-stream", "--n", "4", "--universe-bits", "40", "--out", str(out)])
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert "argument --universe-bits:" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["load-balls", "acp"])
    def test_malformed_edge_list_is_data_error(self, command, tmp_path, capsys):
        edges = tmp_path / "g.txt"
        edges.write_text("1 2\n2 x\n")
        code = run([command, "--edges", str(edges), "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_DATA_ERROR
        assert capsys.readouterr().err == (f"error: malformed edge list: {edges}:2: "
                                           "invalid literal for int() with base 10: 'x'\n")

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

    @pytest.mark.parametrize("n_sets,n_planted", [("3", "4"), ("4", "-1")])
    def test_acp_synthetic_sets_must_hold_planted_pairs(self, n_sets, n_planted, tmp_path, capsys):
        # 3 sets with 4 planted pairs indexed 8 sets.
        code = run(["acp", "--synthetic-sets", n_sets, "--planted", n_planted,
                    "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "planted" in err
        assert not (tmp_path / "x.csv").exists()

    def test_acp_bss_empty_row_is_data_error(self, tmp_path, capsys):
        # On graph balls of a few elements the counter sketch can select an
        # empty row for some set; that is reported against the set, not
        # raised.
        rng = np.random.default_rng(0)
        edges = tmp_path / "g.txt"
        edges.write_text("".join(f"{a} {b}\n" for a, b in rng.integers(0, 400, size=(1200, 2))
                                 if a != b))
        code = run(["acp", "--edges", str(edges), "--sketch", "bss", "--top-v", "150",
                    "--k", "64", "--ell", "8", "--seed", "2", "--j", "0.3",
                    "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: no signature for set ")

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
