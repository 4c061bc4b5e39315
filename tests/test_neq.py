from dataclasses import replace

import numpy as np
import pytest

from fneq.clustering import ClusteringParams
from fneq.core import Codebook, CodeMatrix, Dataset, NormCodebook, SubVectorLayout
from fneq.errors import CorruptionError, InvalidInputError
from fneq.evaluate import exact_topk
from fneq.core import QuerySet
from fneq.neq import (
    IndexArtifact,
    IndexMetadata,
    OpCounter,
    estimate_inner_product,
    item_sq_norms,
    norm_factor,
    per_item_cost,
    query_tables,
    reconstruct,
    reencode,
    scan_scores,
    select_top_k,
    top_k,
    train_index,
    train_neq,
)

from conftest import make_mips_data
from oracles import full_sort_topk


def exact_neq_dataset(seed=0):
    """Items of the form norm * unit direction with 4 distinct directions
    and 4 distinct norms: losslessly representable at k*=4, m=2."""
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(4, 6))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    norms = np.array([0.5, 1.0, 2.0, 4.0])
    rows = np.asarray([n * d for n in norms for d in dirs] * 2)
    return Dataset(rows)


def tiny_artifact(norm_values, dir_codewords, codes):
    """Hand-built single-norm-codebook artifact over one direction part."""
    dir_cb = Codebook(dir_codewords)
    layout = SubVectorLayout(D=dir_cb.dim, m_dir=1)
    codes = np.asarray(codes)
    k = max(len(norm_values), dir_cb.k_star)
    return IndexArtifact(
        mode="neq_kmeans",
        layout=layout,
        norm_codebooks=(NormCodebook(norm_values),),
        dir_codebooks=(dir_cb,),
        codes=CodeMatrix(codes, k_stars=(len(norm_values), dir_cb.k_star)),
        metadata=IndexMetadata(
            D=dir_cb.dim, n=codes.shape[0], m=2, m_prime=1, k_star=k, seed=0
        ),
    )


class TestTrainNeq:
    def test_exactly_representable(self):
        data = exact_neq_dataset()
        index = train_neq(data, m=2, m_prime=1, k_star=4, mode="neq_kmeans",
                          params=ClusteringParams(seed=0))
        recon = np.vstack([reconstruct(c, index) for c in index.codes.codes])
        np.testing.assert_allclose(recon, data.items, atol=1e-6)

    def test_norm_quantization_exact_when_k_covers(self):
        data = exact_neq_dataset(seed=1)
        index = train_neq(data, m=2, m_prime=1, k_star=4, mode="neq_kmeans",
                          params=ClusteringParams(seed=1))
        recon = np.vstack([reconstruct(c, index) for c in index.codes.codes])
        recon_norms = np.linalg.norm(recon, axis=1)
        true_norms = np.linalg.norm(data.items, axis=1)
        np.testing.assert_allclose(recon_norms, true_norms, rtol=1e-6)

    def test_fuzzy_mode_trains_and_is_deterministic(self):
        data = Dataset(make_mips_data(120, 8, seed=2))
        params = ClusteringParams(seed=3)
        a = train_neq(data, m=3, m_prime=1, k_star=6, mode="fuzzy2_neq", params=params)
        b = train_neq(data, m=3, m_prime=1, k_star=6, mode="fuzzy2_neq", params=params)
        for cb_a, cb_b in zip(a.dir_codebooks, b.dir_codebooks):
            np.testing.assert_array_equal(cb_a.codewords, cb_b.codewords)
        np.testing.assert_array_equal(a.codes.codes, b.codes.codes)

    def test_zero_norm_rows(self):
        rows = make_mips_data(40, 6, seed=4)
        rows[[3, 17]] = 0.0
        index = train_neq(Dataset(rows), m=2, m_prime=1, k_star=5,
                          mode="neq_kmeans", params=ClusteringParams(seed=4))
        # Zero rows carry code 0 everywhere and relative norm 0, so the
        # norm codebook learns an exact zero codeword for them.
        np.testing.assert_array_equal(index.codes.codes[3], 0)
        np.testing.assert_array_equal(index.codes.codes[17], 0)
        assert index.norm_codebooks[0].values[0] == 0.0
        np.testing.assert_array_equal(reconstruct(index.codes.codes[3], index), np.zeros(6))

    def test_residual_norm_stages(self):
        data = Dataset(make_mips_data(200, 8, seed=5, norm_sigma=1.2))
        one = train_neq(data, m=3, m_prime=1, k_star=8, mode="neq_kmeans",
                        params=ClusteringParams(seed=5))
        two = train_neq(data, m=4, m_prime=2, k_star=8, mode="neq_kmeans",
                        params=ClusteringParams(seed=5))
        assert two.norm_codebooks[1].signed
        true_norms = np.linalg.norm(data.items, axis=1)

        def mean_norm_err(index):
            recon = np.vstack([reconstruct(c, index) for c in index.codes.codes])
            approx = np.linalg.norm(recon, axis=1)
            return float(np.mean(np.abs(approx - true_norms) / true_norms))

        # Direction parts differ (2 vs 2 sub-quantizers share D*=4); the
        # extra residual stage must not hurt the norm reconstruction.
        assert mean_norm_err(two) <= mean_norm_err(one) + 1e-9

    def test_validation(self):
        data = Dataset(make_mips_data(30, 8, seed=6))
        params = ClusteringParams()
        with pytest.raises(InvalidInputError):
            train_neq(data, m=2, m_prime=2, k_star=4, mode="neq_kmeans", params=params)
        with pytest.raises(InvalidInputError):
            train_neq(data, m=2, m_prime=0, k_star=4, mode="neq_kmeans", params=params)
        with pytest.raises(InvalidInputError):
            train_neq(data, m=4, m_prime=1, k_star=4, mode="neq_kmeans", params=params)
        with pytest.raises(InvalidInputError):
            train_neq(data, m=2, m_prime=1, k_star=64, mode="neq_kmeans", params=params)
        with pytest.raises(InvalidInputError):
            train_index(data, "opq", 2, 1, 4, params)


class TestReconstruct:
    def test_unit_norm_factor_returns_direction(self):
        direction = np.array([[0.6, 0.8]])
        index = tiny_artifact([1.0], direction, [[0, 0]])
        np.testing.assert_allclose(reconstruct(np.array([0, 0]), index), [0.6, 0.8])

    def test_zero_norm_factor_returns_zero_vector(self):
        index = tiny_artifact([0.0, 2.0], [[0.6, 0.8]], [[0, 0]])
        np.testing.assert_array_equal(reconstruct(np.array([0, 0]), index), [0.0, 0.0])
        assert norm_factor(np.array([0, 0]), index) == 0.0

    def test_estimate_consistent_with_reconstruction(self):
        rng = np.random.default_rng(7)
        data = Dataset(make_mips_data(150, 12, seed=7))
        for mode, m, mp in [("pq", 3, 0), ("rq", 2, 0), ("neq_kmeans", 4, 1), ("fuzzy2_neq", 3, 1)]:
            index = train_index(data, mode, m, mp, 8, ClusteringParams(seed=8))
            q = rng.normal(size=12)
            adc = query_tables(q, index)
            for row in index.codes.codes[::7]:
                est = estimate_inner_product(q, row, index, adc)
                direct = float(q @ reconstruct(row, index))
                assert abs(est - direct) <= 1e-9 * (1.0 + abs(direct))


class TestEstimateInnerProduct:
    def test_hand_trace(self):
        # m'=1, m=2: norm part sums to 2.0, lookup part to 3.0.
        index = tiny_artifact([2.0], [[3.0, 0.0]], [[0, 0]])
        q = np.array([1.0, 0.0])
        assert estimate_inner_product(q, np.array([0, 0]), index) == pytest.approx(6.0)

    def test_orthogonal_query_scores_zero(self):
        index = tiny_artifact([5.0, 7.0], [[1.0, 0.0], [2.0, 0.0]], [[1, 0], [0, 1]])
        q = np.array([0.0, 3.0])
        for row in index.codes.codes:
            assert estimate_inner_product(q, row, index) == 0.0

    @pytest.mark.parametrize(
        "mode,m,m_prime,lookups,adds,multiplies",
        [
            pytest.param("neq_kmeans", 3, 1, 2, 1, 1, id="neq_kmeans"),
            pytest.param("fuzzy2_neq", 3, 1, 2, 1, 1, id="fuzzy2_neq"),
            pytest.param("pq", 2, 0, 2, 0, 0, id="pq"),
            pytest.param("rq", 2, 0, 2, 0, 0, id="rq"),
        ],
    )
    def test_op_counts_match_contract(self, mode, m, m_prime, lookups, adds, multiplies):
        data = Dataset(make_mips_data(60, 8, seed=9))
        index = train_index(data, mode, m, m_prime, 4, ClusteringParams(seed=9))
        counter = OpCounter()
        adc = query_tables(np.ones(8), index)
        estimate_inner_product(np.ones(8), index.codes.codes[0], index, adc, counter)
        cost = per_item_cost(index)
        assert counter.lookups == cost["lookups"] == lookups
        assert counter.adds == cost["adds"] == adds
        assert counter.multiplies == cost["multiplies"] == multiplies

    @pytest.mark.parametrize("position,part", [
        (0, "norm"), (1, "direction"), (2, "direction"), (3, "expected 3 codes per item"),
    ])
    def test_negative_codes_rejected_like_reconstruct(self, position, part):
        """Position 3 makes the row one code too long."""
        data = Dataset(make_mips_data(60, 8, seed=11))
        index = train_neq(data, m=3, m_prime=1, k_star=4, mode="neq_kmeans",
                          params=ClusteringParams(seed=11))
        row = np.resize(index.codes.codes[0].astype(np.int64), max(position + 1, 3))
        row[position] = -1
        with pytest.raises(CorruptionError):
            reconstruct(row, index)
        with pytest.raises(CorruptionError, match=part):
            estimate_inner_product(np.ones(8), row, index)

    def test_scan_matches_per_item_estimates(self):
        data = Dataset(make_mips_data(80, 8, seed=10))
        index = train_neq(data, m=3, m_prime=1, k_star=8, mode="neq_kmeans",
                          params=ClusteringParams(seed=10))
        q = np.random.default_rng(10).normal(size=8)
        adc = query_tables(q, index)
        scanned = scan_scores(q, index)
        expected = [estimate_inner_product(q, row, index, adc) for row in index.codes.codes]
        np.testing.assert_allclose(scanned, expected, rtol=1e-12)


def layout_artifact(mode, D, m_dir, widths, m_prime=0, k=2, n=3, code_m=None, md=()):
    """Hand-built artifact with direction codebooks of the given widths
    on ``SubVectorLayout(D, m_dir)`` and all-zero codes, ``code_m`` of them
    per item (default ``m``); ``md`` overrides metadata fields."""
    rng = np.random.default_rng(0)
    m = m_prime + len(widths)
    code_m = m if code_m is None else code_m
    return IndexArtifact(
        mode=mode,
        layout=SubVectorLayout(D=D, m_dir=m_dir),
        norm_codebooks=tuple(
            NormCodebook(np.linspace(0.5, 1.0, k), signed=s > 0) for s in range(m_prime)
        ),
        dir_codebooks=tuple(Codebook(rng.normal(size=(k, w))) for w in widths),
        codes=CodeMatrix(np.zeros((n, code_m), dtype=np.int64), k_stars=(k,) * code_m),
        metadata=IndexMetadata(**{"D": D, "n": n, "m": m, "m_prime": m_prime, "k_star": k,
                                  "seed": 0, **dict(md)}),
    )


class TestIndexArtifact:
    @pytest.mark.parametrize(
        "mode,D,m_dir,widths,m_prime",
        [
            ("pq", 4, 2, (2, 2, 2), 0),  # would otherwise read as a residual stage
            ("pq", 4, 2, (2,), 0),
            ("pq", 4, 2, (4, 4), 0),
            ("neq_kmeans", 4, 1, (4, 4), 1),
            ("fuzzy2_neq", 4, 2, (2, 4), 1),
            ("rq", 4, 2, (2, 2), 0),
            ("rq", 4, 1, (4, 2), 0),
            ("rq", 4, 1, (), 0),  # no stage
            ("pq", 4, 2, (2, 2), 1),  # norm codebooks belong to the NEQ modes
            ("rq", 4, 1, (4,), 1),
        ],
    )
    def test_direction_codebooks_must_follow_the_layout(self, mode, D, m_dir, widths, m_prime):
        with pytest.raises(InvalidInputError):
            layout_artifact(mode, D, m_dir, widths, m_prime)

    @pytest.mark.parametrize("edit,message", [
        ({"md": {"m_prime": 2}}, "m_prime disagrees"),
        ({"md": {"m": 4}}, "m disagrees"),
        ({"code_m": 4}, "code matrix width"),
    ])
    def test_metadata_and_code_width_must_follow_the_codebooks(self, edit, message):
        with pytest.raises(InvalidInputError, match=message):
            layout_artifact("neq_kmeans", 4, 2, (2, 2), 1, **edit)

    def test_norm_stages_and_code_bounds_must_load_back(self):
        index = layout_artifact("neq_kmeans", 4, 2, (2, 2), m_prime=1)
        # Stage 0 is re-wrapped unsigned, as ``load_index`` reads it.
        with pytest.raises(InvalidInputError, match="unsigned"):
            replace(index, norm_codebooks=(NormCodebook([-1.0, 1.0], signed=True),))
        # A bound above the codebook's size would let the scan read the
        # ADC table's padding.
        codes = np.zeros((3, 3), dtype=np.int64)
        codes[0, 1] = 10
        with pytest.raises(InvalidInputError, match="codebook sizes"):
            replace(index, codes=CodeMatrix(codes, k_stars=(2, 16, 2)))

    def test_layout_must_span_metadata_D(self):
        index = layout_artifact("pq", 4, 2, (2, 2))
        with pytest.raises(InvalidInputError, match="metadata D=6"):
            replace(index, metadata=replace(index.metadata, D=6))

    def test_rq_stages_share_one_full_width_sub_space(self):
        index = layout_artifact("rq", 4, 1, (4, 4, 4))
        assert index.n_parts == 3
        assert query_tables(np.ones(4), index).tables.shape == (3, 2)

    def test_metadata_n_must_match_code_rows(self):
        index = tiny_artifact([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]], [[0, 1], [1, 0], [1, 1]])
        assert index.n == index.metadata.n == 3
        for bad_n in (2, 4):
            with pytest.raises(InvalidInputError, match="n=.*disagrees"):
                replace(index, metadata=replace(index.metadata, n=bad_n))


class TestReencode:
    @pytest.mark.parametrize(
        "mode,m,m_prime",
        [("pq", 2, 0), ("rq", 2, 0), ("neq_kmeans", 3, 1), ("neq_kmeans", 4, 2)],
    )
    def test_reencoding_training_data_reproduces_codes(self, mode, m, m_prime):
        data = Dataset(make_mips_data(90, 8, seed=21))
        index = train_index(data, mode, m, m_prime, 8, ClusteringParams(seed=21))
        again = reencode(index, data)
        np.testing.assert_array_equal(again.codes.codes, index.codes.codes)
        assert again.metadata == index.metadata

    def test_all_zero_corpus_gets_code_zero(self):
        data = Dataset(make_mips_data(60, 8, seed=24))
        index = train_index(data, "neq_kmeans", 3, 1, 4, ClusteringParams(seed=24))
        zero = reencode(index, Dataset(np.zeros((5, 8))))
        np.testing.assert_array_equal(zero.codes.codes, np.zeros((5, 3)))
        assert zero.n == zero.metadata.n == 5

    def test_new_items_are_scored_consistently(self):
        train = Dataset(make_mips_data(120, 8, seed=22))
        fresh = Dataset(make_mips_data(40, 8, seed=23))
        index = train_index(train, "neq_kmeans", 3, 1, 8, ClusteringParams(seed=22))
        fresh_index = reencode(index, fresh)
        assert fresh_index.n == 40
        q = np.random.default_rng(23).normal(size=8)
        scores = scan_scores(q, fresh_index)
        for i, row in enumerate(fresh_index.codes.codes):
            direct = float(q @ reconstruct(row, fresh_index))
            assert abs(scores[i] - direct) <= 1e-9 * (1 + abs(direct))

    def test_dimension_mismatch_rejected(self):
        data = Dataset(make_mips_data(60, 8, seed=24))
        index = train_index(data, "pq", 2, 0, 8, ClusteringParams(seed=24))
        with pytest.raises(InvalidInputError):
            reencode(index, Dataset(make_mips_data(10, 6, seed=24)))


class TestSelectTopK:
    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            scores = rng.integers(0, 6, size=30).astype(np.float64)  # many ties
            k = int(rng.integers(1, 30))
            np.testing.assert_array_equal(select_top_k(scores, k), full_sort_topk(scores, k))

    def test_k_beyond_n_rejected(self):
        with pytest.raises(InvalidInputError):
            select_top_k(np.ones(3), 4)


class TestTopK:
    def test_full_ranking_orders_everything(self):
        data = Dataset(make_mips_data(50, 8, seed=12))
        index = train_neq(data, m=3, m_prime=1, k_star=8, mode="neq_kmeans",
                          params=ClusteringParams(seed=12))
        q = np.random.default_rng(12).normal(size=8)
        ids, scores = top_k(q, index, k=50)
        assert sorted(ids.tolist()) == list(range(50))
        assert np.all(np.diff(scores) <= 0)

    def test_duplicate_scores_break_ties_by_id(self):
        index = tiny_artifact([1.0], [[1.0, 0.0]], [[0, 0]] * 5)
        ids, scores = top_k(np.array([1.0, 0.0]), index, k=5)
        np.testing.assert_array_equal(ids, [0, 1, 2, 3, 4])
        assert np.all(scores == scores[0])

    def test_exact_recovery_on_lossless_index(self):
        data = exact_neq_dataset(seed=13)
        index = train_neq(data, m=2, m_prime=1, k_star=4, mode="neq_kmeans",
                          params=ClusteringParams(seed=13))
        rng = np.random.default_rng(13)
        queries = QuerySet(rng.normal(size=(25, 6)))
        truth = exact_topk(data, queries, t=5)
        for qi in range(queries.count):
            ids, _ = top_k(queries.queries[qi], index, k=5)
            np.testing.assert_array_equal(ids, truth.ids[qi])

    def test_pq_mode_reproduces_plain_pq_ranking(self):
        rng = np.random.default_rng(14)
        data = Dataset(rng.normal(size=(120, 8)))
        index = train_index(data, "pq", 2, 0, 8, ClusteringParams(seed=14))
        q = rng.normal(size=8)
        # Plain PQ ranking: ADC sums against sub-space codebooks.
        tables = query_tables(q, index).tables
        codes = index.codes.codes
        plain = tables[0, codes[:, 0]] + tables[1, codes[:, 1]]
        ids, scores = top_k(q, index, k=10)
        np.testing.assert_array_equal(ids, select_top_k(plain, 10))
        np.testing.assert_allclose(scores, plain[ids], rtol=1e-12)

    def test_distance_ranking_on_lossless_index(self):
        data = exact_neq_dataset(seed=15)
        index = train_neq(data, m=2, m_prime=1, k_star=4, mode="neq_kmeans",
                          params=ClusteringParams(seed=15))
        rng = np.random.default_rng(15)
        q = rng.normal(size=6)
        truth = np.sum((data.items - q) ** 2, axis=1)
        ids, _ = top_k(q, index, k=8, ranking="distance")
        np.testing.assert_array_equal(ids, full_sort_topk(-truth, 8))

    def test_item_sq_norms_match_reconstructions(self):
        data = Dataset(make_mips_data(60, 8, seed=16))
        for mode, m, mp in [("pq", 2, 0), ("rq", 2, 0), ("neq_kmeans", 3, 1)]:
            index = train_index(data, mode, m, mp, 6, ClusteringParams(seed=16))
            recon = np.vstack([reconstruct(c, index) for c in index.codes.codes])
            np.testing.assert_allclose(
                item_sq_norms(index), np.sum(recon**2, axis=1), rtol=1e-9, atol=1e-12
            )

    def test_unknown_ranking_rejected(self):
        index = tiny_artifact([1.0], [[1.0, 0.0]], [[0, 0]])
        with pytest.raises(InvalidInputError):
            top_k(np.ones(2), index, k=1, ranking="cosine")
