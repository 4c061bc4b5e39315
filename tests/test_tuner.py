import csv
from dataclasses import replace

import numpy as np
import pytest

from fneq.clustering import ClusteringParams
from fneq.core import Dataset, QuerySet
from fneq.errors import InvalidInputError
from fneq.evaluate import exact_topk
from fneq.neq import train_index
from fneq.tuner import (
    GAConfig,
    ga_optimize,
    make_quantization_mse_objective,
    make_recall_objective,
    write_grid_csv,
    xi_grid,
)

from conftest import make_gaussian_mixture, make_mips_data
from oracles import recall_cost_reference


def convex_toy(x1, x2):
    return (x1 - 8.5) ** 2 + (x2 - 9.1) ** 2


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
            assert by_pair[(b, a)] == pytest.approx(cost)

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

    def test_holdout_fraction_validated(self):
        points, _ = make_gaussian_mixture(50, 2, centers=2, seed=2)
        with pytest.raises(InvalidInputError):
            make_quantization_mse_objective(points, 2, ClusteringParams(), holdout_fraction=1.5)


class TestRecallObjective:
    params = ClusteringParams(seed=0, max_iters=20)

    def test_empty_query_set_rejected(self):
        data = Dataset(make_mips_data(60, 8, seed=3))
        with pytest.raises(InvalidInputError):
            make_recall_objective(data, QuerySet(np.empty((0, 8))), 3, 1, 4, self.params)

    @pytest.mark.parametrize("n_queries", [1, 13, 37])
    def test_cost_equals_negated_mean_of_per_query_recall_loop(self, n_queries):
        data = Dataset(make_mips_data(240, 8, seed=3))
        queries = QuerySet(np.random.default_rng(4).normal(size=(n_queries, 8)))
        objective = make_recall_objective(data, queries, 3, 1, 8, self.params, truth_depth=5)
        p = replace(self.params, xi_lower=2.0, xi_upper=2.5, eta_lower=2.0, eta_upper=2.5)
        index = train_index(data, "fuzzy2_neq", 3, 1, 8, p)
        expected = recall_cost_reference(index, exact_topk(data, queries, 5).ids, queries, 5)
        assert objective(2.0, 2.5) == expected
