import re
import sys

import numpy as np
import pytest

from dynminhash.similarity import exact_jaccard
from dynminhash.streams import (
    PairGenConfig,
    QueryEvent,
    SetStore,
    StreamOp,
    gen_correlated_pair,
    gen_mixed_workload,
    gen_uniform_stream,
    load_graph_balls,
    read_stream,
    write_stream,
)


class TestSetStore:
    def test_insert_into_empty_is_legal(self):
        store = SetStore()
        assert store.apply(StreamOp(0, 5, 1)) is True
        assert store.contents(0) == {5}

    def test_duplicate_insert_flagged(self):
        store = SetStore()
        store.apply(StreamOp(0, 5, 1))
        assert store.apply(StreamOp(0, 5, 1)) is False
        assert store.contents(0) == {5}

    def test_phantom_delete_flagged(self):
        store = SetStore()
        assert store.apply(StreamOp(0, 9, -1)) is False
        assert store.contents(0) == set()

    def test_unknown_set_autocreated(self):
        store = SetStore()
        store.apply(StreamOp(42, 1, 1))
        assert store.contents(42) == {1}

    def test_recover_counts_queries_and_elements(self):
        store = SetStore()
        store.apply(StreamOp(0, 1, 1))
        assert sorted(store.recover(0)) == [1]
        store.apply(StreamOp(1, 2, -1))  # creates set 1, empty
        assert store.recover(1) == []
        assert store.recovery_queries_served == 2
        assert store.elements_streamed == 1

    def test_recover_after_inserts(self):
        store = SetStore()
        for x in range(5):
            store.apply(StreamOp(3, x, 1))
        assert sorted(store.recover(3)) == list(range(5))

    def test_recover_after_a_shrink(self):
        """A set that grew to 2^12 and shrank to 4 recovers the same
        elements and counts, twice, and is stored back compact."""
        store, stale = SetStore(), set(range(1 << 12))
        for x in range(1 << 12):
            store.apply(StreamOp(5, x, 1))
        for x in range(4, 1 << 12):
            store.apply(StreamOp(5, x, -1))
            stale.discard(x)
        for served in (1, 2):
            assert sorted(store.recover(5)) == [0, 1, 2, 3]
            assert (store.recovery_queries_served, store.elements_streamed) == (served, 4 * served)
        assert sys.getsizeof(store._sets[5]) < sys.getsizeof(stale) // 100
        assert store.apply(StreamOp(5, 4, 1)) and not store.apply(StreamOp(5, 0, 1))
        assert sorted(store.recover(5)) == [0, 1, 2, 3, 4]

    def test_recover_unknown_raises(self):
        with pytest.raises(KeyError):
            SetStore().recover(7)

    def test_matches_shadow_replay(self):
        rng = np.random.default_rng(1)
        store = SetStore()
        shadow: dict = {}
        for _ in range(2000):
            sid = int(rng.integers(0, 3))
            x = int(rng.integers(0, 50))
            op = 1 if rng.random() < 0.55 else -1
            store.apply(StreamOp(sid, x, op))
            members = shadow.setdefault(sid, set())
            members.add(x) if op == 1 else members.discard(x)
        for sid, members in shadow.items():
            assert set(store.recover(sid)) == members


class TestUniformStream:
    def test_empty(self):
        assert gen_uniform_stream(0, 1 << 16, seed=0) == []

    def test_deterministic(self):
        a = gen_uniform_stream(16, 1 << 16, seed=3)
        b = gen_uniform_stream(16, 1 << 16, seed=3)
        assert a == b

    def test_inserts_then_deletes_in_insertion_order(self):
        ops = gen_uniform_stream(8, 1 << 16, seed=4)
        inserts, deletes = ops[:8], ops[8:]
        assert all(op.op == 1 for op in inserts)
        assert all(op.op == -1 for op in deletes)
        assert [op.element for op in inserts] == [op.element for op in deletes]

    def test_elements_distinct_and_stream_fully_legal(self):
        ops = gen_uniform_stream(1 << 12, 1 << 14, seed=5)
        elements = [op.element for op in ops[: 1 << 12]]
        assert len(set(elements)) == len(elements)
        store = SetStore()
        assert all(store.apply(op) for op in ops)

    def test_rejects_oversized_draw(self):
        with pytest.raises(ValueError):
            gen_uniform_stream(10, 4, seed=0)


class TestCorrelatedPairs:
    def test_j_one_gives_identical_sets(self):
        cfg = PairGenConfig(universe_size=1 << 12, density=0.05, target_j=1.0)
        a, b = gen_correlated_pair(cfg, seed=1)
        assert np.array_equal(a, b)

    def test_p1_formula(self):
        cfg = PairGenConfig(universe_size=1 << 12, density=0.05, target_j=0.5)
        assert cfg.p1 == pytest.approx(2 / 3)

    def test_infeasible_p2_rejected(self):
        cfg = PairGenConfig(universe_size=100, density=0.9, target_j=0.05)
        with pytest.raises(ValueError):
            gen_correlated_pair(cfg, seed=2)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            PairGenConfig(universe_size=10, density=0.0, target_j=0.5)
        with pytest.raises(ValueError):
            PairGenConfig(universe_size=10, density=0.5, target_j=0.0)

    def test_oversized_universe_rejected(self):
        cfg = PairGenConfig(universe_size=1 << 30, density=0.05, target_j=0.5)
        with pytest.raises(ValueError):
            gen_correlated_pair(cfg, seed=3)

    @pytest.mark.slow
    def test_mean_jaccard_converges_to_target(self):
        # Monte-Carlo validation of p1 = 2J/(1+J), p2 = |A|(1-p1)/(N-|A|).
        cfg = PairGenConfig(universe_size=1 << 17, density=0.05, target_j=0.5)
        sims, ratios = [], []
        for seed in range(1000):
            a, b = gen_correlated_pair(cfg, seed)
            sims.append(exact_jaccard(a, b))
            ratios.append(len(b) / len(a))
        assert 0.48 <= float(np.mean(sims)) <= 0.52
        assert abs(float(np.mean(ratios)) - 1.0) <= 0.05


class TestMixedWorkload:
    def test_pure_update_stream(self):
        events = gen_mixed_workload(200, 0.0, seed=1, universe=1 << 16)
        assert all(isinstance(e, StreamOp) for e in events)

    def test_pure_query_stream_after_first_update(self):
        events = gen_mixed_workload(50, 1.0, seed=2, universe=1 << 16)
        assert isinstance(events[0], StreamOp)  # nothing to query yet
        assert all(isinstance(e, QueryEvent) for e in events[1:])

    def test_query_count_is_binomial(self):
        n, p = 1 << 12, 0.05
        events = gen_mixed_workload(n, p, seed=3, universe=1 << 20)
        queries = sum(isinstance(e, QueryEvent) for e in events)
        sigma = (n * p * (1 - p)) ** 0.5
        assert abs(queries - n * p) <= 4 * sigma

    def test_updates_are_legal(self):
        store = SetStore()
        events = gen_mixed_workload(1000, 0.3, seed=4, universe=1 << 10)
        for ev in events:
            if isinstance(ev, StreamOp):
                assert store.apply(ev) is True

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            gen_mixed_workload(10, 1.5, seed=0)


class TestStreamFiles:
    def test_roundtrip(self, tmp_path):
        ops = gen_uniform_stream(32, 1 << 16, seed=6, set_id=2)
        path = tmp_path / "stream.tsv"
        write_stream(path, ops)
        assert read_stream(path) == ops

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "stream.tsv"
        path.write_text("# comment\n\n0\t5\t+1\n0\t5\t-1\n")
        assert read_stream(path) == [StreamOp(0, 5, 1), StreamOp(0, 5, -1)]

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t5\n")
        with pytest.raises(ValueError):
            read_stream(path)

    def test_non_integer_field_names_its_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# header\n0\t5\t+1\n0\tx\t+1\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: invalid literal"):
            read_stream(path)

    def test_op_other_than_plus_minus_one_names_its_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("0\t5\t2\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:1: op must be \+1 or -1, got 2$"):
            read_stream(path)


class TestGraphBalls:
    def _write_edges(self, tmp_path, edges, header=True):
        path = tmp_path / "graph.txt"
        lines = (["# src dst"] if header else []) + [f"{a}\t{b}" for a, b in edges]
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_triangle_radius_one(self, tmp_path):
        path = self._write_edges(tmp_path, [(0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)])
        balls = load_graph_balls(path, top_v=3, d=1)
        assert balls == {0: {1, 2}, 1: {0, 2}, 2: {0, 1}}

    def test_path_radius_two(self, tmp_path):
        path = self._write_edges(tmp_path, [(10, 11), (11, 12)])
        balls = load_graph_balls(path, top_v=1, d=2)
        assert balls == {10: {11, 12}}

    def test_include_center_flag(self, tmp_path):
        path = self._write_edges(tmp_path, [(0, 1)])
        assert load_graph_balls(path, top_v=1, d=1, include_center=True) == {0: {0, 1}}

    def test_center_excluded_even_on_cycles(self, tmp_path):
        path = self._write_edges(tmp_path, [(0, 1), (1, 0)])
        balls = load_graph_balls(path, top_v=2, d=2)
        assert balls[0] == {1}

    def test_top_v_selects_highest_out_degree(self, tmp_path):
        edges = [(0, x) for x in range(1, 6)] + [(7, 8), (8, 0), (8, 7)]
        path = self._write_edges(tmp_path, edges)
        balls = load_graph_balls(path, top_v=2, d=1)
        assert set(balls) == {0, 8}

    def test_matches_networkx_bfs_oracle(self, tmp_path):
        nx = pytest.importorskip("networkx")
        rng = np.random.default_rng(8)
        edges = {(int(a), int(b)) for a, b in rng.integers(0, 40, size=(300, 2)) if a != b}
        path = self._write_edges(tmp_path, sorted(edges))
        graph = nx.DiGraph(sorted(edges))
        for d in (1, 2):
            balls = load_graph_balls(path, top_v=10, d=d)
            for center, ball in balls.items():
                lengths = nx.single_source_shortest_path_length(graph, center, cutoff=d)
                assert ball == {v for v, dist in lengths.items() if 0 < dist <= d}

    @pytest.mark.parametrize("top_v", [0, -1])
    def test_top_v_below_one_rejected(self, tmp_path, top_v):
        # A slice [:-1] kept every center but the last.
        path = self._write_edges(tmp_path, [(v, v + 1) for v in range(5)])
        with pytest.raises(ValueError, match="top_v"):
            load_graph_balls(path, top_v=top_v, d=1)

    def test_radius_cap(self, tmp_path):
        path = self._write_edges(tmp_path, [(0, 1)])
        with pytest.raises(ValueError):
            load_graph_balls(path, top_v=1, d=3)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_graph_balls(tmp_path / "absent.txt", top_v=1, d=1)

    def test_malformed_edge_rejected(self, tmp_path):
        # A short line, then a non-integer vertex; blank and comment lines count.
        path = tmp_path / "bad.txt"
        for text, lineno in (("0\n", 1), ("1 2\n\n3\n", 3), ("1 2\n2 x\n", 2),
                             ("# src dst\nx 1\n", 2)):
            path.write_text(text)
            with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:{lineno}: "):
                load_graph_balls(path, top_v=1, d=1)
