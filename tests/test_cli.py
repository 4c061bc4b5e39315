import csv

import numpy as np
import pytest

from fneq.cli import main
from fneq.io import load_csv, save_csv, save_fvecs
from fneq.neq import top_k
from fneq.persist import load_index

from conftest import make_mips_data


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    items = make_mips_data(100, 12, seed=1)
    queries = rng.normal(size=(6, 12))
    save_csv(tmp_path / "items.csv", items)
    save_csv(tmp_path / "queries.csv", queries)
    save_fvecs(tmp_path / "items.fvecs", items)
    return tmp_path, items, queries


def run(args):
    return main([str(a) for a in args])


class TestTrain:
    def test_train_writes_loadable_index(self, workspace):
        tmp, _, _ = workspace
        code = run(["train", "--data", tmp / "items.csv", "--mode", "neq_kmeans",
                    "--m", 3, "--m-prime", 1, "--k-star", 8,
                    "--out", tmp / "idx.fneq", "--seed", 5])
        assert code == 0
        index = load_index(tmp / "idx.fneq")
        assert index.mode == "neq_kmeans"
        assert index.metadata.seed == 5

    def test_layout_recorded_for_wide_data(self, tmp_path):
        save_csv(tmp_path / "wide.csv", make_mips_data(80, 512, seed=2))
        code = run(["train", "--data", tmp_path / "wide.csv", "--mode", "pq",
                    "--m", 8, "--k-star", 64, "--out", tmp_path / "wide.fneq"])
        assert code == 0
        index = load_index(tmp_path / "wide.fneq")
        assert index.layout.D_star == 64
        assert index.metadata.m == 8

    def test_fvecs_input(self, workspace):
        tmp, _, _ = workspace
        code = run(["train", "--data", tmp / "items.fvecs", "--format", "fvecs",
                    "--mode", "pq", "--m", 3, "--k-star", 8, "--out", tmp / "f.fneq"])
        assert code == 0

    def test_unreadable_data_is_exit_2(self, tmp_path):
        code = run(["train", "--data", tmp_path / "missing.csv", "--mode", "pq",
                    "--m", 2, "--k-star", 4, "--out", tmp_path / "x.fneq"])
        assert code == 2

    def test_training_error_is_exit_3(self, workspace):
        tmp, _, _ = workspace
        code = run(["train", "--data", tmp / "items.csv", "--mode", "neq_kmeans",
                    "--m", 6, "--m-prime", 1, "--k-star", 8,  # 5 does not divide 12
                    "--out", tmp / "bad.fneq"])
        assert code == 3

    def test_missing_flag_is_exit_1(self, workspace):
        tmp, _, _ = workspace
        with pytest.raises(SystemExit) as exc:
            run(["train", "--data", tmp / "items.csv", "--mode", "pq", "--m", 2,
                 "--out", tmp / "x.fneq"])  # --k-star missing
        assert exc.value.code == 1


class TestQuery:
    def build(self, tmp):
        assert run(["train", "--data", tmp / "items.csv", "--mode", "neq_kmeans",
                    "--m", 3, "--m-prime", 1, "--k-star", 8,
                    "--out", tmp / "idx.fneq"]) == 0

    def test_query_roundtrip_is_stable(self, workspace):
        tmp, _, _ = workspace
        self.build(tmp)
        assert run(["query", "--index", tmp / "idx.fneq", "--queries", tmp / "queries.csv",
                    "--k", 5, "--out", tmp / "a.csv"]) == 0
        assert run(["query", "--index", tmp / "idx.fneq", "--queries", tmp / "queries.csv",
                    "--k", 5, "--out", tmp / "b.csv"]) == 0
        assert (tmp / "a.csv").read_bytes() == (tmp / "b.csv").read_bytes()
        with open(tmp / "a.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["query_id", "rank", "item_id", "score"]
        assert len(rows) == 1 + 6 * 5

    def test_exact_argmax_on_lossless_index(self, tmp_path):
        items = make_mips_data(24, 6, seed=3)
        save_csv(tmp_path / "items.csv", items)
        rng = np.random.default_rng(3)
        queries = rng.normal(size=(5, 6))
        save_csv(tmp_path / "queries.csv", queries)
        assert run(["train", "--data", tmp_path / "items.csv", "--mode", "neq_kmeans",
                    "--m", 2, "--m-prime", 1, "--k-star", 24,
                    "--out", tmp_path / "idx.fneq"]) == 0
        assert run(["query", "--index", tmp_path / "idx.fneq",
                    "--queries", tmp_path / "queries.csv", "--k", 1,
                    "--out", tmp_path / "out.csv"]) == 0
        with open(tmp_path / "out.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        for qi, row in enumerate(rows):
            assert int(row[2]) == int(np.argmax(items @ queries[qi]))

    def test_distance_ranking_matches_top_k(self, workspace):
        tmp, _, _ = workspace
        self.build(tmp)
        assert run(["query", "--index", tmp / "idx.fneq", "--queries", tmp / "queries.csv",
                    "--k", 7, "--ranking", "distance", "--out", tmp / "dist.csv"]) == 0
        index = load_index(tmp / "idx.fneq")
        queries = load_csv(tmp / "queries.csv")
        with open(tmp / "dist.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 7 * len(queries)
        for qi, q in enumerate(queries):
            ids, _ = top_k(q, index, 7, ranking="distance")
            got = [int(r[2]) for r in rows if int(r[0]) == qi]
            assert got == ids.tolist()

    def test_header_n_disagreeing_with_codes_is_exit_2(self, workspace):
        tmp, _, _ = workspace
        self.build(tmp)
        raw = bytearray((tmp / "idx.fneq").read_bytes())
        n = int.from_bytes(raw[11:15], "little")
        for bad_n in (n - 1, n + 1):
            raw[11:15] = bad_n.to_bytes(4, "little")
            (tmp / "bad.fneq").write_bytes(raw)
            assert run(["query", "--index", tmp / "bad.fneq",
                        "--queries", tmp / "queries.csv"]) == 2

    def test_empty_query_file(self, workspace):
        tmp, _, _ = workspace
        self.build(tmp)
        (tmp / "empty.csv").write_text("")
        assert run(["query", "--index", tmp / "idx.fneq", "--queries", tmp / "empty.csv",
                    "--out", tmp / "out.csv"]) == 0
        with open(tmp / "out.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["query_id", "rank", "item_id", "score"]]

    def test_dimension_mismatch_is_exit_2(self, workspace):
        tmp, _, _ = workspace
        self.build(tmp)
        save_csv(tmp / "short.csv", np.ones((2, 5)))
        assert run(["query", "--index", tmp / "idx.fneq",
                    "--queries", tmp / "short.csv"]) == 2

    def test_bad_magic_is_exit_2(self, workspace):
        tmp, _, _ = workspace
        (tmp / "junk.fneq").write_bytes(b"JUNKJUNKJUNK" * 20)
        assert run(["query", "--index", tmp / "junk.fneq",
                    "--queries", tmp / "queries.csv"]) == 2


class TestEval:
    def test_eval_emits_csvs(self, workspace):
        tmp, _, _ = workspace
        assert run(["train", "--data", tmp / "items.csv", "--mode", "pq",
                    "--m", 3, "--k-star", 8, "--out", tmp / "idx.fneq"]) == 0
        assert run(["eval", "--index", tmp / "idx.fneq", "--data", tmp / "items.csv",
                    "--queries", tmp / "queries.csv", "--truth-depth", 5,
                    "--iterations", 2, "--items-list", "50,100",
                    "--out-prefix", tmp / "report"]) == 0
        with open(tmp / "report_metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "method"
        assert rows[1][0] == "pq"
        with open(tmp / "report_curve.csv") as fh:
            curve = list(csv.reader(fh))
        assert curve[0] == ["items", "recall"]
        assert [r[0] for r in curve[1:]] == ["50", "100"]

    def test_lossless_eval_reports_recall_one(self, tmp_path):
        # Four distinct patterns, each duplicated: every bootstrap
        # resample still sees all patterns, so k*=4 stays lossless.
        patterns = np.array(
            [[4.0, 0, 0, 0, 0, 0], [0, 3.0, 0, 0, 0, 0],
             [0, 0, 2.0, 0, 0, 0], [0, 0, 0, 1.0, 0, 0]]
        )
        items = np.tile(patterns, (10, 1))
        save_csv(tmp_path / "items.csv", items)
        save_csv(tmp_path / "queries.csv", np.random.default_rng(4).normal(size=(4, 6)))
        assert run(["train", "--data", tmp_path / "items.csv", "--mode", "pq",
                    "--m", 1, "--k-star", 4, "--out", tmp_path / "idx.fneq"]) == 0
        assert run(["eval", "--index", tmp_path / "idx.fneq", "--data", tmp_path / "items.csv",
                    "--queries", tmp_path / "queries.csv", "--truth-depth", 5,
                    "--iterations", 1, "--items-list", "40",
                    "--out-prefix", tmp_path / "r"]) == 0
        with open(tmp_path / "r_metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert float(rows[1][3]) == 1.0
        assert float(rows[1][7]) == 0.0  # single iteration -> std 0

    def test_items_list_beyond_n_is_exit_1(self, workspace):
        tmp, _, _ = workspace
        assert run(["train", "--data", tmp / "items.csv", "--mode", "pq",
                    "--m", 3, "--k-star", 8, "--out", tmp / "idx.fneq"]) == 0
        assert run(["eval", "--index", tmp / "idx.fneq", "--data", tmp / "items.csv",
                    "--queries", tmp / "queries.csv", "--items-list", "50,200",
                    "--out-prefix", tmp / "r"]) == 1

    @pytest.mark.parametrize("items_list", ["100,50", "50,50"])
    def test_items_list_not_ascending_is_exit_1(self, workspace, items_list):
        tmp, _, _ = workspace
        assert run(["train", "--data", tmp / "items.csv", "--mode", "pq",
                    "--m", 3, "--k-star", 8, "--out", tmp / "idx.fneq"]) == 0
        assert run(["eval", "--index", tmp / "idx.fneq", "--data", tmp / "items.csv",
                    "--queries", tmp / "queries.csv", "--items-list", items_list,
                    "--out-prefix", tmp / "r"]) == 1


class TestTune:
    def test_tune_writes_grid(self, tmp_path, capsys):
        points, _ = np.random.default_rng(5).normal(size=(60, 4)), None
        save_csv(tmp_path / "points.csv", points)
        assert run(["tune", "--data", tmp_path / "points.csv", "--bounds", 2, 12,
                    "--k-star", 3, "--generations", 3, "--grid-steps", 3,
                    "--out-grid", tmp_path / "grid.csv"]) == 0
        out = capsys.readouterr().out
        assert "best xi1=" in out
        with open(tmp_path / "grid.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["xi1", "xi2", "cost"]
        assert len(rows) == 10
        for row in rows[1:]:
            assert 2.0 <= float(row[0]) <= 12.0

    @pytest.mark.parametrize("query_rows", [4, 0])
    def test_recall_queries_of_other_dimension_or_none_are_exit_2(
        self, tmp_path, capsys, query_rows
    ):
        rng = np.random.default_rng(6)
        save_csv(tmp_path / "points.csv", rng.normal(size=(40, 6)))
        save_csv(tmp_path / "queries.csv", rng.normal(size=(query_rows, 5)))
        assert run(["tune", "--data", tmp_path / "points.csv", "--objective", "recall",
                    "--queries", tmp_path / "queries.csv", "--k-star", 3,
                    "--out-grid", tmp_path / "grid.csv"]) == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    def test_empty_data_is_exit_2_as_for_train(self, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text("")
        assert run(["tune", "--data", tmp_path / "empty.csv",
                    "--out-grid", tmp_path / "grid.csv"]) == 2
        assert "data error" in capsys.readouterr().err
        assert run(["train", "--data", tmp_path / "empty.csv", "--mode", "pq", "--m", 1,
                    "--k-star", 2, "--out", tmp_path / "idx.fneq"]) == 2
