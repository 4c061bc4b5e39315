import numpy as np
import pytest

from fneq.aggregation import (
    FuzzyMeasure,
    SugenoInputs,
    cluster_weights,
    fuse_codebooks,
    sugeno_integral,
)
from fneq.clustering import ClusteringParams, it2fpcm
from fneq.errors import InvalidInputError

from conftest import make_gaussian_mixture
from oracles import fpcm_reference, sugeno_by_level_sets


def random_measure(rng, n_sources):
    if rng.random() < 0.5:
        return FuzzyMeasure()
    return FuzzyMeasure(kind="explicit", weights=tuple(rng.uniform(0.05, 1.0, n_sources)))


class TestFuzzyMeasure:
    def test_cardinality_prefixes(self):
        g = FuzzyMeasure().prefix_values(np.array([1, 0]))
        np.testing.assert_allclose(g, [0.5, 1.0])

    def test_explicit_prefixes_follow_ranking(self):
        m = FuzzyMeasure(kind="explicit", weights=(3.0, 1.0))
        np.testing.assert_allclose(m.prefix_values(np.array([1, 0])), [0.25, 1.0])

    def test_monotone_and_normalized(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(1, 8))
            m = random_measure(rng, n)
            g = m.prefix_values(rng.permutation(n))
            assert g[-1] == pytest.approx(1.0)
            assert np.all(np.diff(g) >= 0)
            assert np.all(g >= 0)

    def test_invalid_measures(self):
        with pytest.raises(InvalidInputError):
            FuzzyMeasure(kind="owa")
        with pytest.raises(InvalidInputError):
            FuzzyMeasure(kind="explicit", weights=(-1.0, 2.0))
        with pytest.raises(InvalidInputError):
            FuzzyMeasure(kind="explicit")
        with pytest.raises(InvalidInputError):
            FuzzyMeasure(weights=(1.0,))


class TestSugenoIntegral:
    def test_idempotence(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = rng.random()
            n = int(rng.integers(1, 6))
            inputs = SugenoInputs(h_values=np.full(n, v), memberships=np.ones(n))
            assert sugeno_integral(inputs, random_measure(rng, n)) == pytest.approx(v)

    def test_inputs_are_read_only_copies(self):
        h, mem = np.array([0.2, 0.9]), np.array([1.0, 1.0])
        inputs = SugenoInputs(h, mem)
        h[0] = 5.0  # out of [0, 1]: it must not reach the checked inputs
        mem[1] = 0.0
        np.testing.assert_array_equal(inputs.h_values, [0.2, 0.9])
        np.testing.assert_array_equal(inputs.memberships, [1.0, 1.0])
        assert not inputs.h_values.flags.writeable and not inputs.memberships.flags.writeable

    def test_hand_evaluated_two_sources(self):
        inputs = SugenoInputs(h_values=[1.0, 0.0], memberships=[1.0, 1.0])
        assert sugeno_integral(inputs, FuzzyMeasure()) == pytest.approx(0.5)

    def test_matches_level_set_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 7))
            inputs = SugenoInputs(h_values=rng.random(n), memberships=rng.random(n))
            measure = random_measure(rng, n)
            combined = inputs.h_values * inputs.memberships

            def g_of(subset):
                if measure.kind == "cardinality":
                    return len(subset) / n
                w = np.asarray(measure.weights)
                return float(w[subset].sum() / w.sum())

            expected = sugeno_by_level_sets(combined, g_of)
            assert sugeno_integral(inputs, measure) == pytest.approx(expected, abs=1e-12)

    def test_internality(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(1, 8))
            inputs = SugenoInputs(h_values=rng.random(n), memberships=rng.random(n))
            combined = inputs.h_values * inputs.memberships
            out = sugeno_integral(inputs, FuzzyMeasure())
            assert combined.min() - 1e-12 <= out <= combined.max() + 1e-12

    def test_monotone_in_each_input(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            h = rng.random(n)
            mem = rng.random(n)
            measure = random_measure(rng, n)
            base = sugeno_integral(SugenoInputs(h, mem), measure)
            i = int(rng.integers(n))
            h2 = h.copy()
            h2[i] = min(1.0, h2[i] + rng.random() * (1 - h2[i]))
            assert sugeno_integral(SugenoInputs(h2, mem), measure) >= base - 1e-12

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            SugenoInputs(h_values=[], memberships=[])
        with pytest.raises(InvalidInputError):
            SugenoInputs(h_values=[0.5], memberships=[0.5, 0.5])
        with pytest.raises(InvalidInputError):
            SugenoInputs(h_values=[1.5], memberships=[0.5])
        with pytest.raises(InvalidInputError):
            sugeno_integral(
                SugenoInputs([0.5, 0.5], [1.0, 1.0]),
                FuzzyMeasure(kind="explicit", weights=(1.0,)),
            )


class TestFuseCodebooks:
    def test_collapsed_interval_is_identity(self):
        points, _ = make_gaussian_mixture(150, 3, centers=4, seed=5)
        params = ClusteringParams(c=4, xi_lower=3.0, xi_upper=3.0, seed=2)
        result = it2fpcm(points, params)
        fused = fuse_codebooks(result)
        np.testing.assert_array_equal(fused.codewords, result.centroids_lower)

    def test_interval_containment(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            points, _ = make_gaussian_mixture(200, 4, centers=6, seed=seed, spread=0.6)
            result = it2fpcm(points, ClusteringParams(c=6, seed=seed))
            measure = random_measure(rng, 2)
            fused = fuse_codebooks(result, measure)
            lo = np.minimum(result.centroids_lower, result.centroids_upper)
            hi = np.maximum(result.centroids_lower, result.centroids_upper)
            assert np.all(fused.codewords >= lo - 1e-12)
            assert np.all(fused.codewords <= hi + 1e-12)

    def test_collapse_reproduces_type1_fpcm(self):
        points, _ = make_gaussian_mixture(120, 3, centers=4, seed=7, spread=0.3)
        params = ClusteringParams(
            c=4, xi_lower=2.0, xi_upper=2.0, eta_lower=2.0, eta_upper=2.0, seed=4,
            epsilon=1e-10, max_iters=400,
        )
        fused = fuse_codebooks(it2fpcm(points, params))
        v_ref, _, _ = fpcm_reference(
            points, 4, xi=2.0, eta=2.0, seed=4, epsilon=1e-10, max_iters=400
        )
        np.testing.assert_allclose(fused.codewords, v_ref, atol=1e-6)

    def test_cluster_weights_are_mean_memberships(self):
        points, _ = make_gaussian_mixture(100, 2, centers=3, seed=8)
        result = it2fpcm(points, ClusteringParams(c=3, seed=3))
        w_lo, w_up = cluster_weights(result)
        np.testing.assert_allclose(w_lo, result.membership_lower.mean(axis=1))
        np.testing.assert_allclose(w_up, result.membership_upper.mean(axis=1))
        assert np.all(w_lo <= w_up)
