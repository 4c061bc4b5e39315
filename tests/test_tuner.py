import csv
import hashlib
import math
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fneq.clustering
import fneq.tuner
from fneq.clustering import ClusteringParams
from fneq.core import Dataset, QuerySet
from fneq.errors import InvalidInputError
from fneq.evaluate import exact_topk
from fneq.neq import train_index
from fneq.tuner import (
    GAConfig,
    GAResult,
    ga_optimize,
    make_quantization_mse_objective,
    make_recall_objective,
    write_grid_csv,
    xi_grid,
)

from conftest import convex_toy, make_gaussian_mixture, make_mips_data
from oracles import recall_cost_reference, xi_grid_reference


class TestGaOptimize:
    def test_converges_on_convex_toy(self):
        result = ga_optimize(convex_toy, GAConfig(seed=0))
        assert abs(result.xi1 - 8.5) < 0.1
        assert abs(result.xi2 - 9.1) < 0.1
        assert result.xi1 <= result.xi2

    def test_constant_objective_terminates_immediately(self):
        result = ga_optimize(lambda a, b: 1.0, GAConfig(seed=1))
        assert result.cost == 1.0
        assert result.n_generations <= 2

    def test_fixed_seed_identical_trajectory(self):
        a = ga_optimize(convex_toy, GAConfig(seed=2))
        b = ga_optimize(convex_toy, GAConfig(seed=2))
        assert a.best_history == b.best_history
        assert (a.xi1, a.xi2, a.cost) == (b.xi1, b.xi2, b.cost)

    def test_best_history_monotone_nonincreasing(self):
        result = ga_optimize(convex_toy, GAConfig(seed=3))
        history = np.asarray(result.best_history)
        assert np.all(np.diff(history) <= 0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), population=st.integers(2, 12), ties=st.booleans())
    def test_best_history_is_the_least_cost_evaluated_by_each_generation(self, seed, population, ties):
        """Generation ``g`` ends after ``N (g + 2)`` evaluations: the initial
        population of ``N`` (two genes times the population over two, and at
        least 5 in scipy) and ``N`` trials per generation. Rounded costs tie often."""
        costs = []

        def recording(x1, x2):
            costs.append(round(convex_toy(x1, x2), 0) if ties else convex_toy(x1, x2))
            return costs[-1]

        result = ga_optimize(recording, GAConfig(population=population, generations=8, seed=seed))
        n = max(5, 2 * max(2, math.ceil(population / 2)))
        assert len(costs) == result.n_evaluations == n * (result.n_generations + 1)
        assert result.best_history == tuple(min(costs[: n * (g + 2)]) for g in range(result.n_generations))
        assert result.cost == result.best_history[-1] == min(costs)

    def test_a_nan_cost_fails_its_genome(self):
        """scipy ranks NaN below every cost, so a NaN must not reach it: the
        search and the grid raise at the genome that returned it."""
        seen = []

        def nan_on_the_fifth_call(x1, x2):
            seen.append((x1, x2))
            return math.nan if len(seen) == 5 else convex_toy(x1, x2)

        with pytest.raises(RuntimeError) as info:
            ga_optimize(nan_on_the_fifth_call, GAConfig(population=8, generations=6, seed=0))
        x1, x2 = seen[4]
        assert str(info.value) == f"objective returned NaN at genome (xi1={x1:.6g}, xi2={x2:.6g})"
        assert len(seen) == 5
        with pytest.raises(RuntimeError, match=r"^objective returned NaN at genome \(xi1=2, xi2=7\)$"):
            xi_grid(lambda x1, x2: math.nan if (x1, x2) == (2.0, 7.0) else convex_toy(x1, x2), (2.0, 12.0), steps=3)

    def test_genomes_repaired_and_bounded(self):
        seen = []

        def spy(x1, x2):
            seen.append((x1, x2))
            return convex_toy(x1, x2)

        config = GAConfig(seed=4, bounds=(2.0, 12.0), generations=10)
        ga_optimize(spy, config)
        for x1, x2 in seen:
            assert x1 <= x2
            assert 2.0 <= x1 <= 12.0
            assert 2.0 <= x2 <= 12.0

    def test_objective_failure_carries_genome_context(self):
        def broken(x1, x2):
            raise ArithmeticError("boom")

        with pytest.raises(RuntimeError, match="xi1"):
            ga_optimize(broken, GAConfig(seed=5, generations=2))

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            GAConfig(population=1)
        with pytest.raises(InvalidInputError):
            GAConfig(mutation_rate=1.5)
        with pytest.raises(InvalidInputError):
            GAConfig(bounds=(5.0, 4.0))
        with pytest.raises(InvalidInputError):
            GAConfig(bounds=(0.5, 4.0))
        with pytest.raises(InvalidInputError):
            GAConfig(tolerance=0.0)


class TestGrid:
    def test_grid_shape_and_symmetric_repair(self):
        grid = xi_grid(convex_toy, (2.0, 12.0), steps=5)
        assert grid.shape == (25, 3)
        # Repair makes (a, b) and (b, a) cost-identical.
        by_pair = {(round(r[0], 9), round(r[1], 9)): r[2] for r in grid}
        for (a, b), cost in by_pair.items():
            assert by_pair[(b, a)] == cost

    def test_steps_validated(self):
        with pytest.raises(InvalidInputError, match="^steps must be at least 2$"):
            xi_grid(convex_toy, (2.0, 12.0), steps=1)

    def test_grid_csv_parses(self, tmp_path):
        grid = xi_grid(convex_toy, (2.0, 12.0), steps=4)
        path = tmp_path / "grid.csv"
        write_grid_csv(path, grid)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["xi1", "xi2", "cost"]
        assert len(rows) == 17
        floats = [[float(v) for v in row] for row in rows[1:]]
        assert all(len(row) == 3 for row in floats)


class TestMseObjective:
    def test_returns_finite_cost_and_respects_interval(self):
        points, _ = make_gaussian_mixture(120, 3, centers=4, seed=0)
        objective = make_quantization_mse_objective(
            points, k_star=4, params=ClusteringParams(seed=0, max_iters=30)
        )
        cost = objective(2.0, 2.5)
        assert np.isfinite(cost) and cost >= 0.0

    def test_tight_clusters_beat_nothing(self):
        # Sanity: the quantization error of a fitted codebook is far below
        # the raw variance of well-separated blobs.
        points, _ = make_gaussian_mixture(200, 3, centers=4, seed=1, spread=0.05)
        objective = make_quantization_mse_objective(
            points, k_star=4, params=ClusteringParams(seed=1, max_iters=30)
        )
        variance = float(np.mean(np.sum((points - points.mean(axis=0)) ** 2, axis=1)))
        assert objective(2.0, 2.2) < variance * 0.5

    @pytest.mark.parametrize("cap", [1, 2])
    def test_search_above_the_split_threshold_is_pinned(self, monkeypatch, cap):
        """A search whose 4200 training rows exceed ``_SPLIT_ROWS``: at
        ``FNEQ_THREADS=2`` the evolution's fits run on two threads and the
        grid's on its pool threads. The best genome and the grid's bytes,
        diagonal pairs included, are the values recorded before the search
        shared one k-means++ start (numpy 2.4.6, OpenBLAS 0.3.31, x86-64)."""
        monkeypatch.setenv("FNEQ_THREADS", str(cap))
        points, _ = make_gaussian_mixture(5600, 4, centers=6, seed=12)
        assert len(points) - len(points) // 4 > fneq.clustering._SPLIT_ROWS
        objective = make_quantization_mse_objective(points, 4, ClusteringParams(seed=12, max_iters=5))
        best = ga_optimize(objective, GAConfig(population=4, generations=1, seed=12, tolerance=1e-12))
        grid = xi_grid(objective, (2.0, 5.0), steps=3)
        assert best == GAResult(xi1=2.3083256847593443, xi2=7.83749401619977, cost=2.271213838889764,
                                n_generations=1, n_evaluations=10, best_history=(2.271213838889764,))
        assert hashlib.sha256(grid.tobytes()).hexdigest() == (
            "72bb9f6bbf5144e85421f85301b216a0d0834857ed55211dc3bfff246c020348")

    def test_data_fault_on_the_first_call_names_its_genome(self):
        """The shared start is drawn on the first call, so a fault in the
        training rows or in the held-out quarter surfaces there, typed and
        with the genome."""
        overflowing = np.random.default_rng(0).normal(size=(40, 3)) * 1e160
        nan_held_out = np.random.default_rng(0).normal(size=(400, 4))
        nan_held_out[np.random.default_rng(0).permutation(400)[3]] = np.nan  # held out: the quarter that leads the seed-0 permutation
        for points, match in [(overflowing, "overflow"), (nan_held_out, "^points must be finite")]:
            objective = make_quantization_mse_objective(points, 3, ClusteringParams(seed=0))
            with pytest.raises(InvalidInputError, match=match + r", at genome \(xi1=2, xi2=2\)$"):
                xi_grid(objective, (2.0, 3.0), steps=2)


def spy_starts(monkeypatch) -> list:
    """Record each ``kmeans_plusplus`` call, the tuner's and ``it2fpcm``'s.
    Each takes 10 ms more, so threads that race to the first call overlap."""
    calls, original = [], fneq.clustering.kmeans_plusplus

    def spying(*args):
        calls.append(threading.get_ident())
        time.sleep(0.01)
        return original(*args)

    monkeypatch.setattr(fneq.clustering, "kmeans_plusplus", spying)
    monkeypatch.setattr(fneq.tuner, "kmeans_plusplus", spying)
    return calls


class TestOneStartPerObjective:
    def test_construction_draws_none_and_a_search_draws_one(self, monkeypatch):
        calls = spy_starts(monkeypatch)
        points, _ = make_gaussian_mixture(120, 3, centers=4, seed=2)
        objective = make_quantization_mse_objective(points, 4, ClusteringParams(seed=2, max_iters=10))
        assert calls == []
        ga_optimize(objective, GAConfig(population=4, generations=2, seed=2))
        xi_grid(objective, (1.5, 6.0), steps=3)
        assert len(calls) == 1

    @pytest.mark.parametrize("cap", [2, 8])
    def test_grid_threads_making_the_first_call_draw_one(self, monkeypatch, cap):
        """The grid's pool threads race to the first call, switching every
        few microseconds; one start is drawn, and the grid equals the loop's."""
        monkeypatch.setenv("FNEQ_THREADS", str(cap))
        calls = spy_starts(monkeypatch)
        points, _ = make_gaussian_mixture(90, 3, centers=4, seed=6)
        objective = make_quantization_mse_objective(points, 4, ClusteringParams(seed=6, max_iters=15))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            grid = xi_grid(objective, (1.5, 6.0), steps=4)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 1 and calls[0] != threading.get_ident()
        assert grid.tobytes() == xi_grid_reference(objective, (1.5, 6.0), steps=4).tobytes()


class TestRecallObjective:
    params = ClusteringParams(seed=0, max_iters=20)

    def test_empty_query_set_rejected(self):
        data = Dataset(make_mips_data(60, 8, seed=3))
        with pytest.raises(InvalidInputError):
            make_recall_objective(data, QuerySet(np.empty((0, 8))), 3, 1, 4, self.params)

    @pytest.mark.parametrize("dim,k_star,match", [
        (8, 195, "k_star=195 exceeds the 190 non-zero items"),
        (7, 4, "m_dir=2 does not divide D=7"),
    ], ids=["k-star-above-non-zero-items", "m-dir-not-dividing-D"])
    def test_setting_no_genome_can_train_rejected_before_the_truth(
            self, monkeypatch, dim, k_star, match):
        items = make_mips_data(200, dim, seed=3)
        items[::20] = 0.0  # 10 zero rows, which no direction codebook trains on
        data = Dataset(items)
        truths = []
        monkeypatch.setattr(fneq.tuner, "exact_topk", lambda *a: truths.append(a))
        with pytest.raises(InvalidInputError, match=match):
            make_recall_objective(data, QuerySet(items[:5]), 3, 1, k_star, self.params)
        assert truths == []

    @pytest.mark.parametrize("n_queries", [1, 13, 37])
    def test_cost_equals_negated_mean_of_per_query_recall_loop(self, n_queries):
        data = Dataset(make_mips_data(240, 8, seed=3))
        queries = QuerySet(np.random.default_rng(4).normal(size=(n_queries, 8)))
        objective = make_recall_objective(data, queries, 3, 1, 8, self.params, truth_depth=5)
        p = replace(self.params, xi_lower=2.0, xi_upper=2.5, eta_lower=2.0, eta_upper=2.5)
        index = train_index(data, "fuzzy2_neq", 3, 1, 8, p)
        expected = recall_cost_reference(index, exact_topk(data, queries, 5).ids, queries, 5)
        assert objective(2.0, 2.5) == expected
