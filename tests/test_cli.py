import csv
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import fneq
import fneq.cli
import fneq.clustering

from fneq.cli import _build_parser, main
from fneq.clustering import ClusteringParams
from fneq.io import load_csv, save_csv, save_fvecs
from fneq.neq import top_k
from fneq.persist import load_index
from fneq.tuner import GAConfig

from conftest import make_mips_data


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(0)
    items = make_mips_data(100, 12, seed=1)
    queries = rng.normal(size=(6, 12))
    save_csv(tmp_path / "items.csv", items)
    save_csv(tmp_path / "queries.csv", queries)
    save_fvecs(tmp_path / "items.fvecs", items)
    save_csv(tmp_path / "huge.csv", items * 1e140)  # codewords beyond float32's range
    (tmp_path / "not_utf8.csv").write_bytes(b"1,2\n3,\xff4\n")
    (tmp_path / "inf.csv").write_text("1,2\n3,inf\n")
    (tmp_path / "truncated.fvecs").write_bytes(b"\x02\x00")  # half a dimension header
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

    def test_data_whose_squared_distances_overflow_is_exit_2(self, tmp_path, capsys):
        save_csv(tmp_path / "huge.csv", np.random.default_rng(0).normal(size=(200, 8)) * 1e160)
        code = run(["train", "--data", tmp_path / "huge.csv", "--mode", "pq",
                    "--m", 4, "--k-star", 4, "--out", tmp_path / "x.fneq"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("fneq train: data error: ") and "overflow" in err
        assert not (tmp_path / "x.fneq").exists()

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


class TestThreadEnv:
    @pytest.mark.parametrize("value", ["lots", "-1"])
    def test_malformed_fneq_threads_is_exit_1_before_reading_data(
        self, workspace, monkeypatch, capsys, value
    ):
        tmp, _, _ = workspace
        assert run(["train", "--data", tmp / "items.csv", "--mode", "pq",
                    "--m", 3, "--k-star", 8, "--out", tmp / "idx.fneq"]) == 0
        monkeypatch.setenv("FNEQ_THREADS", value)

        def no_reading(*args):
            raise AssertionError("input read before FNEQ_THREADS was checked")

        monkeypatch.setattr("fneq.cli.io.load_matrix", no_reading)
        monkeypatch.setattr("fneq.cli.load_index", no_reading)
        capsys.readouterr()
        assert run(["train", "--data", tmp / "items.csv", "--mode", "neq_kmeans",
                    "--m", 3, "--m-prime", 1, "--k-star", 8, "--out", tmp / "new.fneq"]) == 1
        assert "FNEQ_THREADS" in capsys.readouterr().err
        assert not (tmp / "new.fneq").exists()
        assert run(["eval", "--index", tmp / "idx.fneq", "--data", tmp / "items.csv",
                    "--queries", tmp / "queries.csv", "--iterations", 1,
                    "--items-list", "50", "--out-prefix", tmp / "r"]) == 1
        assert "FNEQ_THREADS" in capsys.readouterr().err
        assert not (tmp / "r_metrics.csv").exists()


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

    def test_failed_write_keeps_the_earlier_ranking_and_exits_2(self, workspace, monkeypatch,
                                                                 capsys):
        tmp, _, _ = workspace
        self.build(tmp)
        argv = ["query", "--index", tmp / "idx.fneq", "--queries", tmp / "queries.csv",
                "--k", 5, "--out", tmp / "ranked.csv"]
        assert run(argv) == 0
        before = (tmp / "ranked.csv").read_bytes()
        files = sorted(tmp.iterdir())
        ranked = fneq.cli._ranked
        calls = []

        def failing(*args):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("no space left on device")
            return ranked(*args)

        monkeypatch.setattr(fneq.cli, "_ranked", failing)
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == "fneq query: data error: no space left on device\n"
        assert (tmp / "ranked.csv").read_bytes() == before
        assert sorted(tmp.iterdir()) == files

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
        for mode in ("pq", "rq"):
            assert run(["train", "--data", tmp / "items.csv", "--mode", mode, "--m", 3,
                        "--k-star", 8, "--out", tmp / f"{mode}.fneq"]) == 0
        queries = load_csv(tmp / "queries.csv")
        for name in ("idx", "pq", "rq"):
            assert run(["query", "--index", tmp / f"{name}.fneq", "--queries", tmp / "queries.csv",
                        "--k", 7, "--ranking", "distance", "--out", tmp / "dist.csv"]) == 0
            index = load_index(tmp / f"{name}.fneq")
            with open(tmp / "dist.csv") as fh:
                rows = list(csv.reader(fh))[1:]
            assert len(rows) == 7 * len(queries)
            for qi, q in enumerate(queries):
                ids, scores = top_k(q, index, 7, ranking="distance")
                got = [r for r in rows if int(r[0]) == qi]
                assert [int(r[2]) for r in got] == ids.tolist()
                assert [r[3] for r in got] == [f"{s:.9g}" for s in scores]

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

    def test_eval_names_the_parameters_it_retrained_at(self, workspace, capsys):
        # The index file stores no interval, so indexes trained at different
        # intervals evaluate alike, and the output says which one was used.
        tmp, _, _ = workspace
        lines = []
        for name, xi in (("a", ("8.5", "9.1")), ("b", ("1.1", "1.15"))):
            assert run(["train", "--data", tmp / "items.csv", "--mode", "fuzzy2_neq",
                        "--m", 4, "--m-prime", 1, "--k-star", 8, "--xi1", xi[0], "--xi2", xi[1],
                        "--out", tmp / f"{name}.fneq"]) == 0
            capsys.readouterr()
            assert run(["eval", "--index", tmp / f"{name}.fneq", "--data", tmp / "items.csv",
                        "--queries", tmp / "queries.csv", "--truth-depth", 5,
                        "--iterations", 1, "--out-prefix", tmp / name]) == 0
            lines.append(capsys.readouterr().out.splitlines())
        assert (tmp / "a.fneq").read_bytes() != (tmp / "b.fneq").read_bytes()
        for out in lines:
            assert out[1] == ("retrained at the library defaults xi1=8.5 xi2=9.1 epsilon=1e-05 "
                              "max_iters=100: the index file stores none of them")
            assert out[2].startswith("wrote ")
        assert lines[0][0].split(" time=")[0] == lines[1][0].split(" time=")[0]

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

    def test_data_whose_squared_distances_overflow_is_exit_2(self, tmp_path, capsys):
        normal = np.random.default_rng(0).normal(size=(200, 8))
        save_csv(tmp_path / "items.csv", normal)
        save_csv(tmp_path / "huge.csv", normal * 1e160)
        assert run(["train", "--data", tmp_path / "items.csv", "--mode", "pq",
                    "--m", 4, "--k-star", 4, "--out", tmp_path / "idx.fneq"]) == 0
        capsys.readouterr()
        code = run(["eval", "--index", tmp_path / "idx.fneq", "--data", tmp_path / "huge.csv",
                    "--queries", tmp_path / "items.csv", "--iterations", 1,
                    "--out-prefix", tmp_path / "r"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("fneq eval: data error: ") and "overflow" in err
        assert not (tmp_path / "r_metrics.csv").exists()


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

    def test_recall_objective_writes_grid(self, tmp_path, capsys):
        save_csv(tmp_path / "points.csv", np.random.default_rng(5).normal(size=(200, 8)))
        assert run(["tune", "--data", tmp_path / "points.csv", "--objective", "recall",
                    "--queries", tmp_path / "points.csv", "--k-star", 4, "--m", 3,
                    "--m-prime", 1, "--population", 2, "--generations", 1, "--grid-steps", 2,
                    "--out-grid", tmp_path / "grid.csv"]) == 0
        assert capsys.readouterr().out.startswith("best xi1=")
        with open(tmp_path / "grid.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["xi1", "xi2", "cost"] and len(rows) == 5

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

    def test_grid_file_and_best_line_identical_at_one_and_two_threads(
        self, tmp_path, capsys, monkeypatch
    ):
        save_csv(tmp_path / "points.csv", np.random.default_rng(7).normal(size=(60, 4)))
        outputs = []
        for cap in (1, 2):
            monkeypatch.setenv("FNEQ_THREADS", str(cap))
            grid = tmp_path / f"grid{cap}.csv"
            assert run(["tune", "--data", tmp_path / "points.csv", "--k-star", 3,
                        "--population", 4, "--generations", 2, "--grid-steps", 4,
                        "--out-grid", grid]) == 0
            best = capsys.readouterr().out.splitlines()[0]
            assert best.startswith("best xi1=")
            outputs.append((best, grid.read_bytes()))
        assert outputs[0] == outputs[1]
        assert len(outputs[0][1].splitlines()) == 17

    def test_grid_file_and_best_line_identical_at_one_and_two_threads_above_the_threshold(
        self, tmp_path, capsys, monkeypatch
    ):
        """With the row threshold below the 45 training rows, ``ga_optimize``'s
        fits run on two threads at ``FNEQ_THREADS=2``; the grid file and the
        ``best`` line equal those at one thread and at the default threshold."""
        save_csv(tmp_path / "points.csv", np.random.default_rng(7).normal(size=(60, 4)))
        paired, split = fneq.clustering._paired, []

        @contextmanager
        def spying(wanted):
            with paired(wanted) as pair:
                split.append(pair is not None)
                yield pair

        monkeypatch.setattr(fneq.clustering, "_paired", spying)
        outputs = []
        for cap, threshold in ((1, 20), (2, 20), (2, fneq.clustering._SPLIT_ROWS)):
            monkeypatch.setenv("FNEQ_THREADS", str(cap))
            monkeypatch.setattr(fneq.clustering, "_SPLIT_ROWS", threshold)
            split.clear()
            grid = tmp_path / f"grid{cap}-{threshold}.csv"
            assert run(["tune", "--data", tmp_path / "points.csv", "--k-star", 3,
                        "--population", 4, "--generations", 2, "--grid-steps", 4,
                        "--out-grid", grid]) == 0
            best = capsys.readouterr().out.splitlines()[0]
            assert best.startswith("best xi1=")
            outputs.append((best, grid.read_bytes()))
            # Every fit but the grid's 10 pairs, which run on pool threads, splits.
            assert len(split) > 10
            assert split.count(True) == (len(split) - 10 if (cap, threshold) == (2, 20) else 0)
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0][1].splitlines()) == 17

    def test_grid_to_stdout_on_a_pipe(self, tmp_path):
        save_csv(tmp_path / "points.csv", np.random.default_rng(7).normal(size=(60, 4)))
        env = dict(os.environ, PYTHONPATH=str(Path(fneq.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "fneq.cli", "tune", "--data", str(tmp_path / "points.csv"),
             "--k-star", "3", "--population", "4", "--generations", "2", "--grid-steps", "3",
             "--out-grid", "/dev/stdout"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.decode().splitlines()
        assert lines[0] == "xi1,xi2,cost" and len(lines) == 12
        assert lines[-2].startswith("best xi1=") and lines[-1] == "wrote /dev/stdout"

    def test_data_whose_squared_distances_overflow_is_exit_2(self, tmp_path, capsys):
        save_csv(tmp_path / "huge.csv", np.random.default_rng(0).normal(size=(200, 8)) * 1e160)
        code = run(["tune", "--data", tmp_path / "huge.csv", "--k-star", 3,
                    "--out-grid", tmp_path / "grid.csv"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("fneq tune: data error: ") and "overflow" in err
        assert not (tmp_path / "grid.csv").exists()

    def test_empty_data_is_exit_2_as_for_train(self, tmp_path, capsys):
        (tmp_path / "empty.csv").write_text("")
        assert run(["tune", "--data", tmp_path / "empty.csv",
                    "--out-grid", tmp_path / "grid.csv"]) == 2
        assert "data error" in capsys.readouterr().err
        assert run(["train", "--data", tmp_path / "empty.csv", "--mode", "pq", "--m", 1,
                    "--k-star", 2, "--out", tmp_path / "idx.fneq"]) == 2


class TestExitCodes:
    """Exit code and stderr prefix of each failure site that no other
    test reaches. ``{tmp}`` is the workspace; ``idx.fneq`` there is a
    trained pq index and ``missing/`` does not exist."""

    TRAIN = ["train", "--data", "{tmp}/items.csv", "--mode", "pq", "--m", 3, "--k-star", 8]
    TUNE = ["tune", "--data", "{tmp}/items.csv", "--k-star", 3, "--population", 2,
            "--generations", 1, "--grid-steps", 2]
    EVAL = ["eval", "--index", "{tmp}/idx.fneq", "--data", "{tmp}/items.csv",
            "--queries", "{tmp}/queries.csv", "--iterations", 1]
    # Invalid parameters are rejected before the (missing) data or index is read.
    NO_DATA_TRAIN = ["train", "--data", "{tmp}/missing.csv", "--mode", "pq", "--m", 3,
                     "--k-star", 8, "--out", "{tmp}/new.fneq"]
    NO_DATA_NEQ_TRAIN = ["train", "--data", "{tmp}/missing.csv", "--mode", "neq_kmeans",
                         "--m", 3, "--k-star", 8, "--out", "{tmp}/new.fneq"]
    NO_DATA_TUNE = ["tune", "--data", "{tmp}/missing.csv", "--out-grid", "{tmp}/grid.csv"]
    NO_DATA_RECALL_TUNE = NO_DATA_TUNE + ["--objective", "recall", "--queries", "{tmp}/missing.csv"]
    NO_INDEX_EVAL = ["eval", "--index", "{tmp}/missing.fneq", "--data", "{tmp}/items.csv",
                     "--queries", "{tmp}/queries.csv", "--out-prefix", "{tmp}/r"]
    # The recall objective checks its setting before the search starts.
    RECALL_TUNE = TUNE + ["--objective", "recall", "--queries", "{tmp}/items.csv",
                          "--out-grid", "{tmp}/grid.csv"]

    CASES = {
        "train-out-in-missing-dir": (
            TRAIN + ["--out", "{tmp}/missing/idx.fneq"], 2, "fneq train: data error: "),
        "query-k-0": (
            ["query", "--index", "{tmp}/idx.fneq", "--queries", "{tmp}/queries.csv", "--k", 0],
            1, "fneq query: --k must lie in [1, 100]"),
        "query-out-in-missing-dir": (
            ["query", "--index", "{tmp}/idx.fneq", "--queries", "{tmp}/queries.csv",
             "--out", "{tmp}/missing/out.csv"], 2, "fneq query: data error: "),
        "eval-truth-depth-0": (
            EVAL + ["--truth-depth", 0, "--out-prefix", "{tmp}/r"],
            1, "fneq eval: --truth-depth must lie in [1, 100]"),
        "eval-items-list-not-a-number": (
            EVAL + ["--items-list", "20,lots", "--out-prefix", "{tmp}/r"],
            1, "fneq eval: --items-list: invalid literal"),
        "eval-out-prefix-in-missing-dir": (
            EVAL + ["--truth-depth", 5, "--out-prefix", "{tmp}/missing/r"],
            2, "fneq eval: data error: "),
        "tune-bounds-below-1": (
            TUNE + ["--bounds", 0.5, 2, "--out-grid", "{tmp}/grid.csv"],
            1, "fneq tune: fuzziness genes must stay above 1"),
        "tune-recall-without-queries": (
            TUNE + ["--objective", "recall", "--out-grid", "{tmp}/grid.csv"],
            1, "fneq tune: --objective recall requires --queries"),
        "tune-k-star-above-training-split": (
            ["tune", "--data", "{tmp}/items.csv", "--k-star", 76, "--out-grid", "{tmp}/grid.csv"],
            3, "fneq tune: training error: not enough training points"),
        "tune-out-grid-in-missing-dir": (
            TUNE + ["--out-grid", "{tmp}/missing/grid.csv"], 2, "fneq tune: data error: "),
        "tune-recall-k-star-above-points": (
            RECALL_TUNE + ["--k-star", 300, "--m", 3], 3,
            "fneq tune: training error: k_star=300 exceeds the 100 non-zero items\n"),
        "tune-recall-m-dir-not-dividing-D": (
            RECALL_TUNE + ["--k-star", 4, "--m", 6, "--m-prime", 1], 3,
            "fneq tune: training error: m_dir=5 does not divide D=12; pad the data first"),
        # A data fault inside the recall objective keeps its type through the search.
        "tune-recall-codewords-beyond-float32": (
            ["tune", "--data", "{tmp}/huge.csv", "--objective", "recall",
             "--queries", "{tmp}/queries.csv", "--k-star", 4, "--m", 3, "--m-prime", 1,
             "--population", 2, "--generations", 1, "--grid-steps", 2,
             "--out-grid", "{tmp}/grid.csv"], 3,
            "fneq tune: training error: codebook values must lie within float32's range "
            "(±3.4e38), at genome (xi1=7.29179, xi2=11.9273)\n"),
        "train-pq-codewords-beyond-float32": (
            ["train", "--data", "{tmp}/huge.csv", "--mode", "pq", "--m", 3, "--k-star", 4,
             "--out", "{tmp}/new.fneq"], 3,
            "fneq train: training error: codebook values must lie within float32's range"),
        "train-neq-norms-beyond-float32": (
            ["train", "--data", "{tmp}/huge.csv", "--mode", "neq_kmeans", "--m", 3, "--k-star", 4,
             "--out", "{tmp}/new.fneq"], 3,
            "fneq train: training error: codebook values must lie within float32's range"),
        "train-xi1-0.5": (
            NO_DATA_TRAIN + ["--xi1", 0.5], 1,
            "fneq train: fuzziness interval must satisfy 1 < xi1 <= xi2"),
        "train-epsilon-0": (
            NO_DATA_TRAIN + ["--epsilon", 0], 1, "fneq train: epsilon must be positive"),
        "train-max-iters-0": (
            NO_DATA_TRAIN + ["--max-iters", 0], 1, "fneq train: max_iters must be at least 1"),
        "train-seed-negative": (
            NO_DATA_TRAIN + ["--seed", -1], 1, "fneq train: seed must lie in [0, 2**64)"),
        "train-seed-2**64+5": (
            NO_DATA_TRAIN + ["--seed", 2**64 + 5], 1, "fneq train: seed must lie in [0, 2**64)"),
        "tune-seed-negative": (
            NO_DATA_TUNE + ["--seed", -1], 1, "fneq tune: seed must lie in [0, 2**64)"),
        "eval-seed-negative": (
            NO_INDEX_EVAL + ["--seed", -1], 1, "fneq eval: seed must lie in [0, 2**64)"),
        "eval-iterations-0": (
            NO_INDEX_EVAL + ["--iterations", 0], 1, "fneq eval: --iterations must be at least 1"),
        "tune-grid-steps-0": (
            NO_DATA_TUNE + ["--grid-steps", 0], 1, "fneq tune: --grid-steps must be at least 2"),
        "tune-k-star-0": (
            NO_DATA_TUNE + ["--k-star", 0], 1, "fneq tune: k_star must be at least 1"),
        "tune-recall-k-star-1": (
            NO_DATA_RECALL_TUNE + ["--k-star", 1], 1, "fneq tune: k_star must be at least 2"),
        "tune-recall-m-prime-at-m": (
            NO_DATA_RECALL_TUNE + ["--m", 1, "--m-prime", 1], 1,
            "fneq tune: m=1 must exceed m_prime=1"),
        "train-neq-k-star-0": (
            NO_DATA_NEQ_TRAIN + ["--k-star", 0], 1, "fneq train: k_star must be at least 2"),
        "train-neq-m-0": (
            NO_DATA_NEQ_TRAIN + ["--m", 0], 1, "fneq train: m=0 must exceed m_prime=1"),
        "train-neq-m-prime-at-m": (
            NO_DATA_NEQ_TRAIN + ["--m", 2, "--m-prime", 2], 1,
            "fneq train: m=2 must exceed m_prime=2"),
        "train-pq-k-star-0": (
            NO_DATA_TRAIN + ["--k-star", 0], 1, "fneq train: k_star must be at least 1"),
        "train-data-not-utf8": (
            ["train", "--data", "{tmp}/not_utf8.csv", "--mode", "pq", "--m", 1, "--k-star", 1,
             "--out", "{tmp}/new.fneq"], 2, "fneq train: data error: "),
        "train-data-non-finite": (
            ["train", "--data", "{tmp}/inf.csv", "--mode", "pq", "--m", 1, "--k-star", 1,
             "--out", "{tmp}/new.fneq"], 2, "fneq train: data error: "),
        "train-fvecs-truncated-header": (
            ["train", "--data", "{tmp}/truncated.fvecs", "--format", "fvecs", "--mode", "pq",
             "--m", 1, "--k-star", 1, "--out", "{tmp}/new.fneq"], 2, "fneq train: data error: "),
        "query-queries-not-utf8": (
            ["query", "--index", "{tmp}/idx.fneq", "--queries", "{tmp}/not_utf8.csv"],
            2, "fneq query: data error: "),
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a failure prints its one line only
    @pytest.mark.parametrize("argv,code,prefix", CASES.values(), ids=CASES.keys())
    def test_failure_exit_code_and_message(self, workspace, capsys, argv, code, prefix):
        tmp, _, _ = workspace

        def fill(args):
            return [a.format(tmp=tmp) if isinstance(a, str) else a for a in args]

        assert run(fill(self.TRAIN + ["--out", "{tmp}/idx.fneq"])) == 0
        before = sorted(tmp.iterdir())
        capsys.readouterr()
        assert run(fill(argv)) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert "Traceback" not in err
        assert sorted(tmp.iterdir()) == before

    def test_train_on_csv_with_byte_order_mark_exits_0(self, workspace):
        """A spreadsheet's "CSV UTF-8" export starts with a byte-order mark;
        it trains the index the same file without the mark does."""
        tmp, _, _ = workspace
        (tmp / "bom.csv").write_bytes(b"\xef\xbb\xbf" + (tmp / "items.csv").read_bytes())
        for name in ("items", "bom"):
            assert run(["train", "--data", tmp / f"{name}.csv", "--mode", "pq", "--m", 3,
                        "--k-star", 8, "--out", tmp / f"{name}.fneq"]) == 0
        assert (tmp / "bom.fneq").read_bytes() == (tmp / "items.fneq").read_bytes()


def test_parser_defaults_are_the_library_defaults():
    parser = _build_parser()
    train = parser.parse_args(["train", "--data", "d.csv", "--mode", "pq", "--m", "1",
                               "--k-star", "1", "--out", "x.fneq"])
    params = ClusteringParams()
    assert (train.xi1, train.xi2, train.epsilon, train.max_iters) == (
        params.xi_lower, params.xi_upper, params.epsilon, params.max_iters)
    tune = parser.parse_args(["tune", "--data", "d.csv", "--out-grid", "g.csv"])
    config = GAConfig()
    assert (tuple(tune.bounds), tune.population, tune.generations) == (
        config.bounds, config.population, config.generations)
