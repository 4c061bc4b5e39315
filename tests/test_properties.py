"""Property tests of Lloyd k-means, codebook fusion, NEQ encoding, the
scan, top-k selection, persistence and the recall curve against the
reference implementations in ``oracles.py``, re-encoding and the
per-item estimate."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fneq.aggregation import FuzzyMeasure, fuse_codebooks
from fneq.clustering import ClusteringParams, FuzzyClusterResult, kmeans
from fneq.core import Codebook, CodeMatrix, Dataset, NormCodebook, QuerySet, SubVectorLayout
from fneq.errors import InvalidInputError
from fneq.evaluate import recall_item_curve
from fneq.neq import (
    IndexArtifact,
    IndexMetadata,
    estimate_inner_product,
    query_tables,
    reencode,
    scan_scores,
    select_top_k,
    train_index,
)
from fneq.persist import load_index, save_index

from oracles import curve_reference, full_sort_topk, fuse_reference, lloyd_reference

SETTINGS = settings(max_examples=60, deadline=None)


def random_artifact(
    seed: int, n: int, m_prime: int, n_parts: int, k_star: int, d_star: int | None = None
) -> IndexArtifact:
    """An index with random codebooks and uniformly random codes."""
    rng = np.random.default_rng(seed)
    if d_star is None:
        d_star = int(rng.integers(1, 4))
    layout = SubVectorLayout(D=n_parts * d_star, m_dir=n_parts)
    norm_cbs = tuple(
        NormCodebook(np.sort(rng.uniform(0.0 if s == 0 else -1.0, 3.0, k_star)), signed=s > 0)
        for s in range(m_prime)
    )
    dir_cbs = tuple(Codebook(rng.normal(size=(k_star, d_star))) for _ in range(n_parts))
    m = m_prime + n_parts
    codes = CodeMatrix(rng.integers(0, k_star, size=(n, m)), k_stars=(k_star,) * m)
    return IndexArtifact(
        mode="neq_kmeans" if m_prime else "pq",
        layout=layout,
        norm_codebooks=norm_cbs,
        dir_codebooks=dir_cbs,
        codes=codes,
        metadata=IndexMetadata(D=layout.D, n=n, m=m, m_prime=m_prime, k_star=k_star, seed=seed),
    )


artifacts = st.builds(
    random_artifact,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    m_prime=st.sampled_from([0, 1, 2]),
    n_parts=st.integers(1, 4),
    k_star=st.sampled_from([2, 16, 256, 300]),
)


def lloyd_points(seed: int, n: int, d: int, distinct: int, values: str, layout: str) -> np.ndarray:
    """``n`` rows drawn from ``distinct`` random rows, so k-means++ can
    pick coincident seeds and cells can empty. ``values`` adds exact
    ties (integers) or signed zeros; ``layout`` picks the memory view."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(distinct, 2 * d)) * 10.0 ** rng.integers(-3, 4)
    if values == "integers":
        base = np.round(base)
    elif values != "normal":
        base[rng.random(base.shape) < 0.4] = -0.0 if values == "negative zeros" else 0.0
    wide = base[rng.integers(0, distinct, size=n)]
    views = {
        "contiguous": lambda: np.ascontiguousarray(wide[:, :d]),
        "column slice": lambda: wide[:, d:],
        "strided": lambda: wide[:, ::2],
        "fortran": lambda: np.asfortranarray(wide[:, :d]),
    }
    return views[layout]()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    d=st.integers(1, 6),
    values=st.sampled_from(["normal", "integers", "zeros", "negative zeros"]),
    layout=st.sampled_from(["contiguous", "column slice", "strided", "fortran"]),
    max_iters=st.integers(1, 30),
    data=st.data(),
)
def test_kmeans_equals_lloyd_reference_bit_for_bit(seed, n, d, values, layout, max_iters, data):
    distinct = data.draw(st.integers(1, n), label="distinct")
    # Few clusters give large cells, where pairwise and sequential sums differ.
    c = data.draw(st.one_of(st.integers(1, min(n, 3)), st.integers(1, n)), label="c")
    points = lloyd_points(seed, n, d, distinct, values, layout)
    params = ClusteringParams(seed=seed, max_iters=max_iters)
    got = kmeans(points, c, params)
    want = lloyd_reference(points, c, params)
    assert got.centroids.codewords.tobytes() == want.centroids.codewords.tobytes()
    np.testing.assert_array_equal(got.assignments, want.assignments)
    assert got.inertia_history == want.inertia_history
    assert (got.inertia, got.n_iter, got.converged) == (want.inertia, want.n_iter, want.converged)


def interval_result(seed: int, c: int, d: int, n: int, collapse: float, levels: str):
    """A ``FuzzyClusterResult`` from random arrays: the bounds agree on a
    ``collapse`` share of the coordinates (some at -0.0), and memberships
    are drawn from ``{0, 1}`` or the unit interval."""
    rng = np.random.default_rng(seed)
    lower = rng.normal(size=(c, d)) * 10.0 ** rng.integers(-3, 4)
    lower[rng.random((c, d)) < 0.2] = -0.0
    upper = np.where(rng.random((c, d)) < collapse, lower, lower + rng.normal(size=(c, d)))

    def memberships():
        if levels == "binary":
            return rng.integers(0, 2, (c, n)).astype(float)
        return rng.random((c, n))

    a, b = memberships(), memberships()
    return FuzzyClusterResult(
        centroids_lower=lower, centroids_upper=upper,
        membership_lower=np.minimum(a, b), membership_upper=np.maximum(a, b),
        possibility_lower=np.minimum(a, b), possibility_upper=np.maximum(a, b),
        objective=0.0, final_improvement=0.0, n_iter=1, converged=True,
    )


measures = st.one_of(
    st.none(),
    st.just(FuzzyMeasure()),
    st.tuples(st.sampled_from([0.0, 0.25, 1.0, 3.0]), st.sampled_from([0.0, 0.5, 1.0, 7.0]))
    .filter(lambda w: sum(w) > 0)
    .map(lambda w: FuzzyMeasure(kind="explicit", weights=w)),
)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.integers(1, 19),
    d=st.integers(1, 11),
    n=st.integers(1, 6),
    collapse=st.sampled_from([0.0, 0.3, 1.0]),
    levels=st.sampled_from(["binary", "uniform"]),
    measure=measures,
)
def test_fuse_codebooks_equals_loop_reference_bit_for_bit(seed, c, d, n, collapse, levels, measure):
    result = interval_result(seed, c, d, n, collapse, levels)
    got = fuse_codebooks(result, measure).codewords
    assert got.tobytes() == fuse_reference(result, measure).codewords.tobytes()
    with pytest.raises(InvalidInputError):
        fuse_codebooks(result, FuzzyMeasure(kind="explicit", weights=(1.0, 1.0, 1.0)))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["neq_kmeans", "fuzzy2_neq"]),
    m_prime=st.sampled_from([1, 2]),
    k_star=st.integers(2, 8),
    zero_share=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
)
def test_training_codes_equal_reencoded_codes(seed, mode, m_prime, k_star, zero_share):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3 * k_star, 90))
    items = rng.normal(size=(n, 6)) * rng.lognormal(0.0, 0.8, size=(n, 1))
    items[rng.permutation(n)[: int(zero_share * (n - k_star))]] = 0.0
    dataset = Dataset(items)
    params = ClusteringParams(seed=seed, max_iters=15)
    index = train_index(dataset, mode, m_prime + 2, m_prime, k_star, params)
    again = reencode(index, dataset).codes.codes
    assert again.dtype == index.codes.codes.dtype
    np.testing.assert_array_equal(again, index.codes.codes)


@SETTINGS
@given(index=artifacts, q_seed=st.integers(0, 2**32 - 1), data=st.data())
def test_scan_equals_per_item_estimate_bit_for_bit(index, q_seed, data):
    q = np.random.default_rng(q_seed).normal(size=index.layout.D)
    adc = query_tables(q, index)
    expected = np.array(
        [estimate_inner_product(q, row, index, adc) for row in index.codes.codes]
    )
    assert index.codes.codes.dtype == (np.uint16 if index.metadata.k_star > 256 else np.uint8)
    np.testing.assert_array_equal(scan_scores(q, index), expected)
    limit = data.draw(st.integers(0, index.n), label="limit")
    np.testing.assert_array_equal(scan_scores(q, index, limit=limit), expected[:limit])


tied_scores = st.lists(
    st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf, -np.inf]), min_size=1, max_size=60
)


@SETTINGS
@given(values=tied_scores, data=st.data())
def test_select_top_k_equals_full_sort(values, data):
    scores = np.array(values)
    k = data.draw(st.one_of(st.just(len(values)), st.integers(0, len(values))), label="k")
    np.testing.assert_array_equal(select_top_k(scores, k), full_sort_topk(scores, k))


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 200),
    m_prime=st.sampled_from([0, 1, 2]),
    k_star=st.sampled_from([16, 300]),
)
def test_roundtrip_codes_are_frozen_columns_with_equal_scans(seed, n, m_prime, k_star):
    index = random_artifact(seed, n, m_prime, 3, k_star)
    q = np.random.default_rng(seed).normal(size=index.layout.D)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.fneq"
        save_index(path, index)
        loaded = load_index(path)
    codes = loaded.codes.codes
    assert not codes.flags.writeable
    assert codes.flags.f_contiguous
    assert all(codes[:, j].flags.c_contiguous for j in range(codes.shape[1]))
    assert codes.dtype == index.codes.codes.dtype
    np.testing.assert_array_equal(codes, index.codes.codes)
    for limit in (None, n // 2):
        np.testing.assert_array_equal(
            scan_scores(q, loaded, limit=limit), scan_scores(q, index, limit=limit)
        )


@settings(max_examples=500, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 80),
    m_prime=st.sampled_from([0, 1, 2]),
    n_parts=st.integers(1, 3),
    d_star=st.integers(1, 16),
    k_star=st.sampled_from([2, 3, 16]),
    integers=st.booleans(),
    data=st.data(),
)
def test_recall_item_curve_equals_count_by_count_reference(
    seed, n, m_prime, n_parts, d_star, k_star, integers, data
):
    index = random_artifact(seed, n, m_prime, n_parts, k_star, d_star)
    rng = np.random.default_rng([seed, 1])
    n_queries = data.draw(st.integers(0, 3), label="queries")
    distinct = data.draw(st.integers(1, 3), label="distinct")
    # Repeated rows tie in true score. Integer values tie exactly; real
    # values tie up to how the matrix product rounds each column, which
    # depends on the product's width, so a truth sliced from a wider
    # product can rank them differently.
    pool = rng.normal(size=(distinct + n_queries, index.layout.D))
    if integers:
        pool = np.round(2.0 * pool)
    items = pool[rng.integers(0, distinct, size=n)]
    queries = QuerySet(pool[distinct:])
    counts = set(data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4), label="counts"))
    if data.draw(st.booleans(), label="all items"):
        counts.add(n)
    counts = sorted(counts)
    dataset = Dataset(items)
    for t in range(1, counts[0] + 1):
        assert recall_item_curve(index, dataset, queries, counts, t) == curve_reference(
            index, dataset, queries, counts, t
        ), f"t={t}"
