import csv
import time

import numpy as np
import pytest

import fneq.evaluate
from fneq.clustering import ClusteringParams
from fneq.core import Dataset, QuerySet
from fneq.errors import InvalidInputError
from fneq.evaluate import (
    DEFAULT_ITEM_COUNTS,
    EvalConfig,
    bootstrap_eval,
    exact_topk,
    f1,
    precision,
    recall,
    recall_item_curve,
    running_time,
    thread_cap,
    write_curve_csv,
    write_metrics_csv,
)
from fneq.neq import train_neq

from conftest import make_mips_data
from oracles import full_sort_topk


class TestExactTopk:
    def test_orthogonal_basis(self):
        data = Dataset(np.eye(4))
        queries = QuerySet(np.eye(4)[[1]])
        truth = exact_topk(data, queries, t=1)
        assert truth.ids[0, 0] == 1

    def test_full_depth_orders_everything(self):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(30, 5)))
        queries = QuerySet(rng.normal(size=(3, 5)))
        truth = exact_topk(data, queries, t=30)
        for qi in range(3):
            scores = data.items @ queries.queries[qi]
            np.testing.assert_array_equal(truth.ids[qi], full_sort_topk(scores, 30))

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(size=(200, 8)))
        queries = QuerySet(rng.normal(size=(10, 8)))
        truth = exact_topk(data, queries, t=10)
        for qi in range(10):
            scores = data.items @ queries.queries[qi]
            np.testing.assert_array_equal(truth.ids[qi], full_sort_topk(scores, 10))

    def test_depth_validation(self):
        data = Dataset(np.eye(3))
        with pytest.raises(InvalidInputError):
            exact_topk(data, QuerySet(np.eye(3)), t=4)
        with pytest.raises(InvalidInputError, match="disagree on dimensionality"):
            exact_topk(data, QuerySet(np.eye(2)), t=1)


class TestMetrics:
    def test_recall_direct_count(self):
        assert recall({"A", "B", "X", "Y"}, {"A", "B", "C", "D"}) == 0.5

    def test_recall_perfect_and_disjoint(self):
        assert recall({1, 2}, {1, 2}) == 1.0
        assert recall({1, 2}, {3, 4}) == 0.0

    def test_precision(self):
        assert precision([1, 2, 3, 4], [1, 9]) == 0.25

    def test_f1_closed_forms(self):
        assert f1(0.7, 0.7) == pytest.approx(0.7)
        assert f1(1.0, 0.5) == pytest.approx(2.0 / 3.0)
        assert f1(0.0, 0.0) == 0.0

    def test_f1_harmonic_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            p, r = rng.random(), rng.random()
            value = f1(p, r)
            assert min(p, r) - 1e-12 <= value <= (p + r) / 2 + 1e-12

    def test_metric_preconditions(self):
        with pytest.raises(InvalidInputError):
            recall({1}, set())
        with pytest.raises(InvalidInputError):
            precision(set(), {1})

    def test_recall_equals_precision_at_equal_sizes(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = set(map(int, rng.choice(50, size=10, replace=False)))
            b = set(map(int, rng.choice(50, size=10, replace=False)))
            assert recall(a, b) == precision(a, b)


class TestRunningTime:
    def test_noop_is_fast_and_nonnegative(self):
        elapsed = running_time(lambda: None)
        assert 0.0 <= elapsed < 0.01

    def test_sleep_probe(self):
        elapsed = running_time(lambda: time.sleep(0.1))
        assert 0.09 <= elapsed <= 0.5

    def test_nested_timers(self):
        inner = []

        def work():
            inner.append(running_time(lambda: time.sleep(0.02)))

        outer = running_time(work)
        assert outer >= inner[0]


def lossless_setup(n=60, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(4, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    norms = np.array([0.5, 1.0, 2.0, 4.0])
    rows = np.asarray([n_ * d for n_ in norms for d in dirs] * (n // 16 + 1))[:n]
    data = Dataset(rows)
    index = train_neq(data, m=2, m_prime=1, k_star=4, mode="neq_kmeans",
                      params=ClusteringParams(seed=seed))
    queries = QuerySet(rng.normal(size=(8, dim)))
    return data, index, queries


class TestRecallItemCurve:
    def test_lossless_index_scores_one_everywhere(self):
        data, index, queries = lossless_setup()
        curve = recall_item_curve(index, data, queries, [20, 40, 60], t=5)
        assert [c for c, _ in curve] == [20, 40, 60]
        assert all(v == 1.0 for _, v in curve)

    def test_single_query_hand_computed(self):
        # Three items on distinct axes; the query prefers item 0 then 2.
        data = Dataset(np.diag([2.0, 1.0, 3.0]))
        index = train_neq(data, m=2, m_prime=1, k_star=3, mode="neq_kmeans",
                          params=ClusteringParams(seed=1))
        queries = QuerySet(np.array([[1.0, 0.1, 0.5]]))
        curve = recall_item_curve(index, data, queries, [2, 3], t=2)
        assert curve[0] == (2, 1.0)
        assert curve[1] == (3, 1.0)

    def test_count_validation(self):
        data, index, queries = lossless_setup()
        with pytest.raises(InvalidInputError):
            recall_item_curve(index, data, queries, [40, 20], t=5)
        with pytest.raises(InvalidInputError):
            recall_item_curve(index, data, queries, [20, 400], t=5)
        with pytest.raises(InvalidInputError):
            recall_item_curve(index, data, queries, [2], t=5)


class TestBootstrapEval:
    def make_config(self, seed=0, **overrides):
        data = Dataset(make_mips_data(120, 8, seed=seed))
        rng = np.random.default_rng(seed + 1)
        queries = QuerySet(rng.normal(size=(6, 8)))
        defaults = dict(
            dataset=data,
            queries=queries,
            mode="neq_kmeans",
            m=3,
            m_prime=1,
            k_star=8,
            params=ClusteringParams(seed=seed),
            truth_depth=5,
            item_counts=(30, 60),
        )
        defaults.update(overrides)
        return EvalConfig(**defaults)

    def test_single_iteration_has_zero_std(self):
        report = bootstrap_eval(self.make_config(), iterations=1, seed=3)
        assert report.recall_std == 0.0
        assert report.precision_std == 0.0
        assert report.iterations == 1
        assert len(report.running_time_seconds) == 1

    def test_fixed_seed_reproduces_report(self):
        a = bootstrap_eval(self.make_config(), iterations=2, seed=4)
        b = bootstrap_eval(self.make_config(), iterations=2, seed=4)
        assert a.recalls == b.recalls
        assert a.curve == b.curve
        assert a.recall_mean == b.recall_mean

    def test_degenerate_dataset_has_zero_std(self):
        data = Dataset(np.tile([[1.0, 2.0, 2.0, 1.0]], (50, 1)))
        rng = np.random.default_rng(5)
        config = self.make_config(dataset=data, queries=QuerySet(rng.normal(size=(4, 4))),
                                  m=2, k_star=2, truth_depth=3, item_counts=(10,))
        report = bootstrap_eval(config, iterations=3, seed=5)
        assert report.recall_std == 0.0
        assert len(set(report.recalls)) == 1

    def test_precision_equals_recall_at_default_k(self):
        report = bootstrap_eval(self.make_config(), iterations=2, seed=6)
        assert report.precision_mean == pytest.approx(report.recall_mean)

    def test_retrieved_k_decouples_precision(self):
        report = bootstrap_eval(self.make_config(retrieved_k=10), iterations=1, seed=7)
        # Retrieving 10 against 5 relevant halves precision relative to recall.
        assert report.precision_mean == pytest.approx(report.recall_mean / 2)

    def test_default_item_counts_filtered(self):
        config = self.make_config(item_counts=None)
        report = bootstrap_eval(config, iterations=1, seed=8)
        assert report.curve == ()  # n=120 is under every default count
        assert DEFAULT_ITEM_COUNTS[0] == 2048

    def test_each_iteration_scans_each_query_once(self, monkeypatch):
        scans = []
        scan = fneq.evaluate.scan_scores

        def spy(q, index, limit=None):
            scans.append(limit)
            return scan(q, index, limit=limit)

        monkeypatch.setattr(fneq.evaluate, "scan_scores", spy)
        config = self.make_config()
        bootstrap_eval(config, iterations=3, seed=2)
        assert scans == [None] * (3 * config.queries.count)

    def test_iterations_validated(self):
        with pytest.raises(InvalidInputError):
            bootstrap_eval(self.make_config(), iterations=0)
        with pytest.raises(InvalidInputError, match="truth depth 121 exceeds n=120"):
            bootstrap_eval(self.make_config(truth_depth=121), iterations=1)

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["-1", "2**64"])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(InvalidInputError, match=r"seed must lie in \[0, 2\*\*64\)"):
            bootstrap_eval(self.make_config(), iterations=1, seed=seed)

    @pytest.mark.parametrize("counts", [(60, 30), (30, 30), (3, 60), (30, 121)])
    def test_bad_item_counts_rejected_before_training(self, monkeypatch, counts):
        trained = []
        monkeypatch.setattr(fneq.evaluate, "train_index", lambda *a, **kw: trained.append(a))
        with pytest.raises(InvalidInputError):
            bootstrap_eval(self.make_config(item_counts=counts), iterations=2)
        assert trained == []


class TestCsvWriters:
    def test_metrics_csv_schema(self, tmp_path):
        report = bootstrap_eval(
            TestBootstrapEval().make_config(), iterations=1, seed=9
        )
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, [report])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "dataset", "items", "recall", "precision", "f1", "time_s", "std"]
        assert rows[1][0] == "neq_kmeans"
        assert 0.0 <= float(rows[1][3]) <= 1.0

    def test_curve_csv_schema(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, [(10, 0.5), (20, 0.75)])
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["items", "recall"]
        assert rows[1] == ["10", "0.500000"]


def test_thread_cap_env(monkeypatch):
    monkeypatch.setenv("FNEQ_THREADS", "3")
    assert thread_cap() == 3
    monkeypatch.setenv("FNEQ_THREADS", "0")
    assert thread_cap() >= 1
    monkeypatch.delenv("FNEQ_THREADS")
    assert thread_cap() >= 1
    monkeypatch.setenv("FNEQ_THREADS", "lots")
    with pytest.raises(InvalidInputError):
        thread_cap()
