import inspect

import numpy as np
import pytest

import fneq.clustering
import fneq.quantizers
from fneq.clustering import ClusteringParams, kmeans
from fneq.core import Codebook, Dataset, SubVectorLayout
from fneq.errors import CorruptionError, InvalidInputError
from fneq.neq import train_index
from fneq.quantizers import (
    TRAINING_TOL,
    _subseeds,
    build_adc_table,
    decode,
    encode,
    encode_batch,
    train_pq,
    train_rq,
)

from oracles import brute_force_nearest


def product_dataset(seed=0, copies=4):
    """Items whose halves each take exactly two distinct patterns, so a
    (m=2, k*=2) product quantizer represents them losslessly."""
    halves_a = np.array([[1.0, 0.0], [0.0, 1.0]])
    halves_b = np.array([[2.0, 0.0], [0.0, 3.0]])
    rows = [np.concatenate([a, b]) for a in halves_a for b in halves_b]
    rng = np.random.default_rng(seed)
    rows = rng.permutation(np.asarray(rows * copies))
    return Dataset(rows)


class TestTrainPq:
    def test_exactly_representable(self):
        data = product_dataset()
        index = train_pq(data, m_dir=2, k_star=2, params=ClusteringParams(seed=0))
        recon = decode(index.codes.codes, index.codebooks, index.layout)
        np.testing.assert_allclose(recon, data.items, atol=1e-12)

    def test_degenerate_exact_quantizer(self):
        rng = np.random.default_rng(1)
        data = Dataset(rng.normal(size=(24, 6)))
        index = train_pq(data, m_dir=1, k_star=24, params=ClusteringParams(seed=1))
        recon = decode(index.codes.codes, index.codebooks, index.layout)
        np.testing.assert_array_equal(recon, data.items)

    def test_reconstruction_error_additivity(self):
        rng = np.random.default_rng(2)
        data = Dataset(rng.normal(size=(300, 12)))
        params = ClusteringParams(seed=2)
        index = train_pq(data, m_dir=3, k_star=8, params=params)
        recon = decode(index.codes.codes, index.codebooks, index.layout)
        total_err = float(np.sum((data.items - recon) ** 2))
        inertia_sum = 0.0
        for j, sl in zip(range(3), index.layout.slices()):
            sub = data.items[:, sl]
            result = kmeans(sub, 8, ClusteringParams(seed=_subseeds(2, 3)[j]))
            inertia_sum += result.inertia
        np.testing.assert_allclose(total_err, inertia_sum, rtol=1e-9)

    def test_divisibility_enforced(self):
        rng = np.random.default_rng(3)
        with pytest.raises(InvalidInputError):
            train_pq(Dataset(rng.normal(size=(20, 10))), 3, 4, ClusteringParams())

    def test_k_star_above_n_rejected(self):
        data = Dataset(np.random.default_rng(3).normal(size=(5, 4)))
        with pytest.raises(InvalidInputError, match="^k_star=6 exceeds n=5$"):
            train_pq(data, 2, 6, ClusteringParams())


class TestEncodeDecode:
    def setup_method(self):
        self.layout = SubVectorLayout(D=4, m_dir=2)
        self.codebooks = (
            Codebook([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]]),
            Codebook([[1.0, 1.0], [5.0, 5.0], [9.0, 9.0]]),
        )

    def test_exact_codeword_match(self):
        x = np.array([0.0, 2.0, 5.0, 5.0])
        np.testing.assert_array_equal(encode(x, self.codebooks, self.layout), [2, 1])

    def test_equidistant_tie_takes_lowest_index(self):
        x = np.array([1.0, 0.0, 3.0, 3.0])  # equidistant in both sub-spaces
        np.testing.assert_array_equal(encode(x, self.codebooks, self.layout), [0, 0])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(4)
        items = rng.normal(size=(60, 4)) * 3
        codes = encode_batch(items, self.codebooks, self.layout)
        for j, sl in enumerate(self.layout.slices()):
            expected = brute_force_nearest(items[:, sl], self.codebooks[j].codewords)
            np.testing.assert_array_equal(codes[:, j], expected)

    def test_decode_fixed_point(self):
        x = np.array([2.0, 0.0, 9.0, 9.0])
        codes = encode(x, self.codebooks, self.layout)
        np.testing.assert_array_equal(decode(codes, self.codebooks, self.layout), x)

    def test_single_subspace_returns_codeword(self):
        layout = SubVectorLayout(D=2, m_dir=1)
        cb = (Codebook([[1.0, 2.0], [3.0, 4.0]]),)
        np.testing.assert_array_equal(decode(np.array([1]), cb, layout), [3.0, 4.0])

    def test_nearest_encoding_is_optimal(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            x = rng.normal(size=4) * 2
            best = decode(encode(x, self.codebooks, self.layout), self.codebooks, self.layout)
            best_err = np.sum((x - best) ** 2)
            for c0 in range(3):
                for c1 in range(3):
                    other = decode(np.array([c0, c1]), self.codebooks, self.layout)
                    assert best_err <= np.sum((x - other) ** 2) + 1e-12

    def test_out_of_range_code_rejected(self):
        with pytest.raises(CorruptionError):
            decode(np.array([5, 0]), self.codebooks, self.layout)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            encode(np.zeros(6), self.codebooks, self.layout)
        with pytest.raises(InvalidInputError, match="^expected rows of length 4$"):
            encode_batch(np.zeros((3, 6)), self.codebooks, self.layout)
        with pytest.raises(InvalidInputError, match="^expected 2 codes per item$"):
            decode(np.array([[0, 1, 2]]), self.codebooks, self.layout)

    def test_fewer_codebooks_than_sub_spaces_rejected(self):
        one = self.codebooks[:1]
        with pytest.raises(InvalidInputError, match="at least 2 codebooks"):
            encode_batch(np.zeros((3, 4)), one, self.layout)
        with pytest.raises(InvalidInputError, match="at least 2 codebooks"):
            decode(np.array([0]), one, self.layout)
        with pytest.raises(InvalidInputError, match="at least 2 codebooks"):
            build_adc_table(np.zeros(4), one, self.layout)


class TestTrainRq:
    def test_single_stage_is_plain_kmeans(self):
        rng = np.random.default_rng(6)
        data = Dataset(rng.normal(size=(100, 5)))
        index = train_rq(data, stages=1, k_star=7, params=ClusteringParams(seed=3))
        reference = kmeans(
            data.items, 7, ClusteringParams(seed=_subseeds(3, 1)[0]), tol=TRAINING_TOL
        )
        np.testing.assert_array_equal(
            index.codebooks[0].codewords, reference.centroids.codewords
        )
        np.testing.assert_array_equal(index.codes.codes[:, 0], reference.assignments)

    def test_recovers_constructed_two_stage_structure(self):
        rng = np.random.default_rng(7)
        coarse = rng.normal(size=(4, 6)) * 100.0
        fine = rng.normal(size=(4, 6))
        rows = np.asarray(
            [coarse[i] + fine[j] for i in range(4) for j in range(4)] * 3
        )
        data = Dataset(rng.permutation(rows))
        index = train_rq(data, stages=2, k_star=4, params=ClusteringParams(seed=4))
        recon = decode(index.codes.codes, index.codebooks, SubVectorLayout(D=6, m_dir=1))
        residual = np.linalg.norm(data.items - recon, axis=1)
        assert residual.max() < 1e-9 * 100.0

    def test_residual_energy_monotone(self):
        rng = np.random.default_rng(8)
        data = Dataset(rng.normal(size=(400, 8)))
        params = ClusteringParams(seed=5)
        energies = []
        for stages in (1, 2, 3):
            index = train_rq(data, stages=stages, k_star=16, params=params)
            recon = decode(index.codes.codes, index.codebooks, SubVectorLayout(D=8, m_dir=1))
            energies.append(float(np.mean(np.linalg.norm(data.items - recon, axis=1))))
        assert energies[2] <= energies[1] <= energies[0]

    def test_stage_validation(self):
        rng = np.random.default_rng(9)
        with pytest.raises(InvalidInputError):
            train_rq(Dataset(rng.normal(size=(10, 4))), 0, 4, ClusteringParams())


def test_every_training_fit_stops_at_the_training_tolerance(monkeypatch):
    """``train_pq``, ``train_rq`` and ``train_index`` (pq, rq, neq_kmeans)
    pass ``TRAINING_TOL`` to every k-means fit (the training Lloyd,
    ``kmeans(..., exact_inertia=False)`` as ``quantizers`` binds it);
    ``kmeans`` itself defaults to no tolerance, so a direct call stops
    at label stability."""
    calls = []
    original = fneq.quantizers.kmeans

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(fneq.quantizers, "kmeans", spy)
    data = Dataset(np.random.default_rng(10).normal(size=(200, 12)))
    params = ClusteringParams(seed=6, max_iters=20)
    train_pq(data, 3, 8, params)
    train_rq(data, 2, 8, params)
    for mode, m, m_prime in (("pq", 3, 0), ("rq", 2, 0), ("neq_kmeans", 4, 1)):
        train_index(data, mode, m, m_prime, 8, params)
    assert calls == [{"tol": TRAINING_TOL, "exact_inertia": False}] * (3 + 2 + 3 + 2 + 3)
    assert inspect.signature(kmeans).parameters["tol"].default == 0.0


class TestAdcTable:
    def setup_method(self):
        self.layout = SubVectorLayout(D=6, m_dir=2)
        rng = np.random.default_rng(10)
        self.codebooks = (
            Codebook(rng.normal(size=(5, 3))),
            Codebook(rng.normal(size=(5, 3))),
        )

    def test_zero_query_zero_table(self):
        table = build_adc_table(np.zeros(6), self.codebooks, self.layout)
        np.testing.assert_array_equal(table.tables, np.zeros((2, 5)))

    def test_codeword_equal_to_query_slice(self):
        q = np.concatenate([self.codebooks[0].codewords[2], np.zeros(3)])
        table = build_adc_table(q, self.codebooks, self.layout)
        expected = float(np.sum(self.codebooks[0].codewords[2] ** 2))
        assert table.tables[0, 2] == pytest.approx(expected, rel=1e-12)

    def test_lookup_linearity(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            q = rng.normal(size=6)
            codes = rng.integers(0, 5, size=2)
            table = build_adc_table(q, self.codebooks, self.layout)
            via_table = table.tables[0, codes[0]] + table.tables[1, codes[1]]
            direct = float(q @ decode(codes, self.codebooks, self.layout))
            assert abs(via_table - direct) <= 1e-9 * (1 + abs(direct))

    def test_stage_table_matches_full_inner_products(self):
        rng = np.random.default_rng(12)
        codebooks = (Codebook(rng.normal(size=(4, 6))), Codebook(rng.normal(size=(4, 6))))
        q = rng.normal(size=6)
        table = build_adc_table(q, codebooks, SubVectorLayout(D=6, m_dir=1))
        np.testing.assert_allclose(table.tables[0], codebooks[0].codewords @ q)
        np.testing.assert_allclose(table.tables[1], codebooks[1].codewords @ q)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            build_adc_table(np.zeros(5), self.codebooks, self.layout)
