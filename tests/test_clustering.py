import dataclasses
import re

import numpy as np
import pytest
import scipy

import fneq.clustering
from fneq.clustering import (
    ClusteringParams,
    encode_scalar,
    it2fpcm,
    kmeans,
    kmeans_plusplus,
    kmeans_scalar,
    squared_distances,
    type_reduce,
)
from fneq.errors import InvalidInputError

from conftest import make_gaussian_mixture
from oracles import fpcm_reference, uniform_bin_mse


#: Each trainer's centroids for 4 clusters at seed 0.
TRAINERS = {
    "kmeans": lambda p: kmeans(p, 4, ClusteringParams(seed=0)).centroids.codewords,
    "training kmeans": lambda p: kmeans(
        p, 4, ClusteringParams(seed=0), tol=1e-4, exact_inertia=False
    ).centroids.codewords,
    "it2fpcm": lambda p: it2fpcm(p, ClusteringParams(c=4, seed=0)).centroids_lower,
}


class TestKMeans:
    def test_two_separated_pairs(self):
        points = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 10.0], [10.0, 11.0]])
        result = kmeans(points, 2, ClusteringParams(seed=0))
        got = sorted(result.centroids.codewords.tolist())
        np.testing.assert_allclose(got, [[0.0, 0.5], [10.0, 10.5]])
        assert result.converged

    def test_every_point_its_own_centroid(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(12, 3))
        result = kmeans(points, 12, ClusteringParams(seed=5))
        assert result.inertia == 0.0
        assert sorted(points.tolist()) == sorted(result.centroids.codewords.tolist())

    def test_lloyd_conditions_on_random_points(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(500, 2))
        result = kmeans(points, 8, ClusteringParams(seed=3, max_iters=200))
        centroids = result.centroids.codewords
        # Condition 1: assignments are brute-force nearest.
        nearest = squared_distances(points, centroids).argmin(axis=1)
        np.testing.assert_array_equal(result.assignments, nearest)
        # Condition 2: each centroid is the mean of its cell.
        for j in range(8):
            cell = points[result.assignments == j]
            assert cell.size > 0
            np.testing.assert_allclose(centroids[j], cell.mean(axis=0), atol=1e-7)

    def test_inertia_monotone(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(400, 5))
        result = kmeans(points, 16, ClusteringParams(seed=4))
        history = np.asarray(result.inertia_history)
        assert np.all(np.diff(history) <= 1e-9 * history[0])

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(200, 4))
        a = kmeans(points, 6, ClusteringParams(seed=7))
        b = kmeans(points, 6, ClusteringParams(seed=7))
        np.testing.assert_array_equal(a.centroids.codewords, b.centroids.codewords)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia

    def test_identical_points_terminate(self):
        points = np.ones((20, 3))
        result = kmeans(points, 4, ClusteringParams(seed=0))
        assert result.inertia == 0.0
        assert result.converged

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            kmeans(np.ones((3, 2)), 4, ClusteringParams())
        with pytest.raises(InvalidInputError, match="c=0"):
            kmeans(np.ones((3, 2)), 0, ClusteringParams())
        with pytest.raises(InvalidInputError):
            kmeans(np.array([[np.nan, 1.0]]), 1, ClusteringParams())
        with pytest.raises(InvalidInputError, match="^points must be a non-empty 2-D matrix$"):
            kmeans(np.ones(3), 1, ClusteringParams())
        for tol in (-1e-4, np.nan):
            with pytest.raises(InvalidInputError, match="tol"):
                kmeans(np.ones((3, 2)), 2, ClusteringParams(), tol=tol)

    def test_tolerance_stop_keeps_nearest_labels(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(2000, 2))
        params = ClusteringParams(seed=1, max_iters=500)
        exact = kmeans(points, 16, params)
        early = kmeans(points, 16, params, tol=1e-2)
        assert early.converged and exact.converged
        assert early.n_iter < exact.n_iter
        history = early.inertia_history
        assert history[-2] - history[-1] <= 1e-2 * history[-1]
        assert all(a - b > 1e-2 * b for a, b in zip(history[:-2], history[1:-1]))
        nearest = squared_distances(points, early.centroids.codewords).argmin(axis=1)
        np.testing.assert_array_equal(early.assignments, nearest)


    @pytest.mark.parametrize("exact_inertia", [True, False])
    def test_cell_sums_add_points_in_order(self, exact_inertia):
        """A cell's mean adds its points one by one in ascending order from
        +0.0 at every width, as numpy's mean over rows does for widths of 2
        and more; summed pairwise the width-2 points below would give 0, and
        exactly 2, and numpy's ``mean`` of the width-1 points reads 0.8. The
        sums come from scipy's sparse CSC product, so a scipy release that
        reorders it moves every codebook."""
        cases = [(np.array([[1e16, 1.0, -1e16, 1.0], [0.0] * 4]).T, 0.25),
                 (np.array([[1e16] + [1.0] * 8 + [-1e16]]).T, 0.0)]
        for points, mean in cases:
            result = kmeans(points, 1, ClusteringParams(max_iters=1), exact_inertia=exact_inertia)
            assert result.centroids.codewords[0, 0] == mean, (
                f"scipy {scipy.__version__} no longer adds a cell's points in order"
            )

    @pytest.mark.parametrize("scale", [1e153, 1e156, 1e160])
    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_points_whose_squared_distances_overflow_are_rejected(self, trainer, scale):
        points = np.random.default_rng(0).normal(size=(200, 8)) * scale
        with pytest.raises(InvalidInputError, match="overflow"):
            TRAINERS[trainer](points)

    @pytest.mark.parametrize("trainer", TRAINERS)
    def test_large_points_below_the_overflow_limit_train(self, trainer):
        points = np.random.default_rng(0).normal(size=(200, 8)) * 1e140
        assert np.all(np.isfinite(TRAINERS[trainer](points)))


class TestClusteringParams:
    def test_eta_mirrors_xi_by_default(self):
        params = ClusteringParams(xi_lower=3.0, xi_upper=4.0)
        assert params.eta_lower == 3.0 and params.eta_upper == 4.0

    def test_interval_validation(self):
        with pytest.raises(InvalidInputError):
            ClusteringParams(xi_lower=5.0, xi_upper=4.0)
        with pytest.raises(InvalidInputError):
            ClusteringParams(xi_lower=1.0, xi_upper=2.0)
        with pytest.raises(InvalidInputError):
            ClusteringParams(epsilon=0.0)
        with pytest.raises(InvalidInputError, match="^c must be at least 1$"):
            ClusteringParams(c=0)
        for eta1, eta2 in ((1.0, 2.0), (3.0, 2.5)):
            with pytest.raises(InvalidInputError,
                               match="^possibility interval must satisfy 1 < eta1 <= eta2$"):
                ClusteringParams(eta_lower=eta1, eta_upper=eta2)


class TestIt2fpcm:
    def test_point_masses_get_crisp_memberships(self):
        # Two exact point masses: centroids land on them, so the
        # zero-distance rule pins memberships to exactly 1 and 0.
        points = np.vstack([np.zeros((5, 2)), np.ones((5, 2))])
        result = it2fpcm(points, ClusteringParams(c=2, seed=0))
        centroids = (result.centroids_lower + result.centroids_upper) / 2
        own = np.argmin(squared_distances(np.zeros((1, 2)), centroids)[0])
        for k in range(5):  # the five points at (0, 0)
            assert result.membership_upper[own, k] == 1.0
            assert result.membership_lower[own, k] == 1.0
            assert result.membership_upper[1 - own, k] == 0.0

    def test_interval_ordering_and_range(self):
        points, _ = make_gaussian_mixture(300, 4, centers=5, seed=1)
        result = it2fpcm(points, ClusteringParams(c=5, seed=2))
        assert np.all(result.membership_lower <= result.membership_upper)
        assert np.all(result.membership_lower >= 0.0)
        assert np.all(result.membership_upper <= 1.0)
        assert np.all(result.possibility_lower <= result.possibility_upper)
        assert result.converged
        assert result.final_improvement < 1e-5

    def test_collapsed_interval_matches_type1_fpcm(self):
        points, _ = make_gaussian_mixture(120, 3, centers=4, seed=3, spread=0.3)
        params = ClusteringParams(
            c=4, xi_lower=2.0, xi_upper=2.0, eta_lower=2.0, eta_upper=2.0, seed=9,
            epsilon=1e-10, max_iters=400,
        )
        result = it2fpcm(points, params)
        np.testing.assert_allclose(
            result.membership_lower, result.membership_upper, atol=1e-9
        )
        np.testing.assert_array_equal(result.centroids_lower, result.centroids_upper)
        v_ref, mu_ref, _ = fpcm_reference(
            points, 4, xi=2.0, eta=2.0, seed=9, epsilon=1e-10, max_iters=400
        )
        np.testing.assert_allclose(result.centroids_lower, v_ref, atol=1e-6)
        np.testing.assert_allclose(result.membership_lower, mu_ref.T, atol=1e-6)

    def test_type1_reduced_memberships_sum_to_one(self):
        points, _ = make_gaussian_mixture(200, 3, centers=4, seed=4)
        result = it2fpcm(points, ClusteringParams(c=4, seed=5))
        reduced = (result.membership_lower + result.membership_upper) / 2
        np.testing.assert_allclose(reduced.sum(axis=0), 1.0, atol=1e-6)

    def test_deterministic_under_seed(self):
        points, _ = make_gaussian_mixture(150, 3, centers=3, seed=6)
        a = it2fpcm(points, ClusteringParams(c=3, seed=8))
        b = it2fpcm(points, ClusteringParams(c=3, seed=8))
        np.testing.assert_array_equal(a.centroids_lower, b.centroids_lower)
        np.testing.assert_array_equal(a.membership_upper, b.membership_upper)
        assert a.objective == b.objective

    def test_non_convergence_is_flagged(self):
        points, _ = make_gaussian_mixture(150, 3, centers=3, seed=7)
        result = it2fpcm(points, ClusteringParams(c=3, seed=1, epsilon=1e-12, max_iters=2))
        assert not result.converged
        assert result.n_iter == 2

    def test_c_larger_than_n_rejected(self):
        with pytest.raises(InvalidInputError):
            it2fpcm(np.ones((3, 2)), ClusteringParams(c=5))

    @pytest.mark.parametrize("field", ["membership_lower", "membership_upper", "possibility_upper"])
    def test_nan_bound_is_rejected(self, field):
        points, _ = make_gaussian_mixture(60, 2, centers=3, seed=3)
        result = it2fpcm(points, ClusteringParams(c=3, seed=0))
        bad = getattr(result, field).copy()
        bad[1, 2] = np.nan
        with pytest.raises(InvalidInputError, match="0 <= lower <= upper <= 1"):
            dataclasses.replace(result, **{field: bad})

    @pytest.mark.parametrize("edit,match", [
        (lambda lo, up: (lo[:2], up[:2]), r"have 3 rows and one shape, got \(2, 2\) and \(2, 2\)"),
        (lambda lo, up: (lo, np.hstack([up, up[:, :1]])), r"got \(3, 2\) and \(3, 3\)"),
        (lambda lo, up: (lo[:, 0], up[:, 0]), r"^centroids_lower must be a non-empty 2-D matrix, got shape \(3,\)$"),
        (lambda lo, up: (lo, np.where(up == up.max(), np.nan, up)), "^centroids_upper must contain only finite"),
    ], ids=["fewer-rows-than-clusters", "bounds-of-two-shapes", "1-D", "nan"])
    def test_invalid_centroids_are_rejected(self, edit, match):
        points, _ = make_gaussian_mixture(60, 2, centers=3, seed=3)
        result = it2fpcm(points, ClusteringParams(c=3, seed=0))
        lo, up = edit(result.centroids_lower, result.centroids_upper)
        with pytest.raises(InvalidInputError, match=match):
            dataclasses.replace(result, centroids_lower=lo, centroids_upper=up)

    def test_possibilities_at_eta_equal_xi_are_the_frozen_memberships(self):
        points, _ = make_gaussian_mixture(60, 2, centers=3, seed=3)
        shared = it2fpcm(points, ClusteringParams(c=3, seed=0))
        assert shared.possibility_lower is shared.membership_lower
        assert shared.possibility_upper is shared.membership_upper
        assert not shared.membership_lower.flags.writeable
        apart = it2fpcm(points, ClusteringParams(c=3, seed=0, eta_lower=2.0, eta_upper=3.0))
        assert not np.shares_memory(apart.possibility_lower, apart.membership_lower)
        bad = shared.membership_lower.copy()
        bad[1, 2] = np.nan  # one array as both lower bounds is still checked
        with pytest.raises(InvalidInputError, match="^membership bounds must satisfy"):
            dataclasses.replace(shared, membership_lower=bad, possibility_lower=bad)

    @pytest.mark.parametrize("xi,eta,passes", [
        ((3.0, 3.0), (3.0, 3.0), 1), ((3.0, 3.0), (2.5, 2.5), 1),
        ((3.0, 3.0), (2.5, 4.0), 2), ((3.0, 4.0), (3.0, 4.0), 2),
    ])
    def test_degenerate_intervals_take_one_bound_pass(self, monkeypatch, xi, eta, passes):
        """Each iteration computes the midpoint distances, then one distance
        pass per bound: one pass only when both intervals are points."""
        points, _ = make_gaussian_mixture(80, 2, centers=3, seed=4)
        params = ClusteringParams(c=3, xi_lower=xi[0], xi_upper=xi[1], eta_lower=eta[0],
                                  eta_upper=eta[1], seed=4, max_iters=7, epsilon=1e-12)
        start = kmeans_plusplus(points, 3, np.random.default_rng(4))
        calls = []
        monkeypatch.setattr(fneq.clustering, "squared_distances",
                            lambda a, b: calls.append(1) or squared_distances(a, b))
        result = it2fpcm(points, params, init=start)
        assert len(calls) == result.n_iter * (1 + passes)

    @pytest.mark.parametrize("init,shape", [
        (np.zeros((4, 2)), "(4, 2)"), (np.zeros((3, 3)), "(3, 3)"), (np.zeros(6), "(6,)"),
        (np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]]), "(3, 2)"),
        (np.array([[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0]]), "(3, 2)"),
    ], ids=["extra-row", "extra-column", "1-D", "nan", "inf"])
    def test_invalid_init_is_rejected(self, init, shape):
        points, _ = make_gaussian_mixture(30, 2, centers=3, seed=5)
        with pytest.raises(InvalidInputError, match=rf"^init must be a finite \(3, 2\) matrix, got shape {re.escape(shape)}$"):
            it2fpcm(points, ClusteringParams(c=3, seed=0), init=init)


class TestTypeReduce:
    def test_collapsed_interval_passthrough(self):
        points, _ = make_gaussian_mixture(100, 2, centers=3, seed=8)
        params = ClusteringParams(c=3, xi_lower=2.5, xi_upper=2.5, seed=0)
        result = it2fpcm(points, params)
        centroids, membership = type_reduce(result)
        np.testing.assert_array_equal(centroids.codewords, result.centroids_lower)
        np.testing.assert_array_equal(membership, result.membership_lower)

    def test_midpoint(self):
        points, _ = make_gaussian_mixture(100, 2, centers=3, seed=9)
        result = it2fpcm(points, ClusteringParams(c=3, seed=1))
        centroids, membership = type_reduce(result)
        np.testing.assert_allclose(
            centroids.codewords, (result.centroids_lower + result.centroids_upper) / 2
        )
        assert np.all(membership >= result.membership_lower - 1e-15)
        assert np.all(membership <= result.membership_upper + 1e-15)


class TestKMeansScalar:
    def test_two_point_masses(self):
        cb = kmeans_scalar(np.array([1.0, 1.0, 1.0, 9.0, 9.0, 9.0]), 2)
        np.testing.assert_array_equal(cb.values, [1.0, 9.0])

    def test_single_codeword_is_mean(self):
        values = np.array([1.0, 2.0, 6.0])
        cb = kmeans_scalar(values, 1)
        np.testing.assert_allclose(cb.values, [values.mean()])

    def test_beats_uniform_binning(self):
        rng = np.random.default_rng(10)
        values = rng.lognormal(size=1000)
        cb = kmeans_scalar(values, 16)
        codes = encode_scalar(values, cb)
        mse = float(np.mean((values - cb.values[codes]) ** 2))
        assert mse <= uniform_bin_mse(values, 16)

    def test_exact_when_k_covers_distinct_values(self):
        rng = np.random.default_rng(11)
        values = rng.choice([0.5, 1.25, 2.0, 4.0], size=50)
        cb = kmeans_scalar(values, 4)
        codes = encode_scalar(values, cb)
        np.testing.assert_array_equal(cb.values[codes], values)

    def test_nearest_assignment_with_tie_to_lower(self):
        cb = kmeans_scalar(np.array([0.0, 0.0, 2.0, 2.0]), 2)
        np.testing.assert_array_equal(cb.values, [0.0, 2.0])
        assert encode_scalar(np.array([1.0]), cb)[0] == 0  # midpoint tie
        assert encode_scalar(np.array([1.01]), cb)[0] == 1

    def test_signed_variant_for_residuals(self):
        values = np.array([-0.5, -0.5, 0.75, 0.75])
        cb = kmeans_scalar(values, 2, signed=True)
        np.testing.assert_array_equal(cb.values, [-0.5, 0.75])
        with pytest.raises(InvalidInputError):
            kmeans_scalar(values, 2)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            kmeans_scalar(np.array([]), 2)
        with pytest.raises(InvalidInputError, match="values must be finite"):
            kmeans_scalar(np.array([1.0, np.inf]), 2)
        with pytest.raises(InvalidInputError, match="k must be at least 1"):
            kmeans_scalar(np.array([1.0, 2.0]), 0)
