"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them inline).

Criteria 7-9 share one synthetic corpus: random unit directions scaled
by log-normal norms, the regime where explicit norm quantization is
supposed to pay off. The norm-explicit configuration there is m=8
codebooks with one norm codebook; since 7 direction sub-quantizers do
not divide D=64, items and queries are zero-padded to D=70 (exact for
inner products and norms) while PQ runs on the raw 64 dimensions at the
same 8-codebooks/16-codewords budget.
"""

import functools
import os
import time

import numpy as np
import pytest

from fneq.aggregation import FuzzyMeasure, SugenoInputs, fuse_codebooks, sugeno_integral
from fneq.clustering import (
    ClusteringParams,
    it2fpcm,
    kmeans,
    squared_distances,
)
from fneq.core import Dataset, QuerySet, pad_to_multiple
from fneq.evaluate import EvalConfig, bootstrap_eval, exact_topk, f1, precision, recall
from fneq.neq import (
    OpCounter,
    estimate_inner_product,
    item_sq_norms,
    per_item_cost,
    query_tables,
    reconstruct,
    scan_scores,
    select_top_k,
    top_k,
    train_index,
)
from fneq.persist import load_index, save_index
from fneq.transform import augment_items, augment_queries, max_norm
from fneq.tuner import GAConfig, ga_optimize, write_grid_csv, xi_grid

from conftest import make_gaussian_mixture, make_mips_data
from oracles import fpcm_reference


def criterion(number, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {number:>2}] FAIL  {title}")
                raise
            print(f"\n[criterion {number:>2}] PASS  {title}")
            return result

        return wrapper

    return decorate


# Shared corpus for criteria 7-9 (built once; training is the slow part).
N_ITEMS, DIM, M_TOTAL, K_STAR, TRUTH_DEPTH = 10_000, 64, 8, 16, 20
N_QUERIES, N_SEEDS, BOOT_ITERS = 100, 10, 10


@pytest.fixture(scope="module")
def corpus():
    items = make_mips_data(N_ITEMS, DIM, seed=0)
    rng = np.random.default_rng(1)
    queries = rng.normal(size=(N_QUERIES, DIM))
    return items, queries


@pytest.fixture(scope="module")
def trend_reports(corpus):
    """Bootstrap benchmark of PQ / NEQ / Fuzzy-2 NEQ at the shared
    setting, paired through identical resampling seeds."""
    items, queries = corpus
    padded_items = pad_to_multiple(items, M_TOTAL - 1)
    padded_queries = pad_to_multiple(queries, M_TOTAL - 1)
    reports = {}
    for mode, data, qs in (
        ("pq", items, queries),
        ("neq_kmeans", padded_items, padded_queries),
        ("fuzzy2_neq", padded_items, padded_queries),
    ):
        config = EvalConfig(
            dataset=Dataset(data),
            queries=QuerySet(qs),
            mode=mode,
            m=M_TOTAL,
            m_prime=0 if mode == "pq" else 1,
            k_star=K_STAR,
            params=ClusteringParams(seed=0),
            truth_depth=TRUTH_DEPTH,
            item_counts=(),
        )
        reports[mode] = bootstrap_eval(config, iterations=BOOT_ITERS, seed=7)
    return reports


@criterion(1, "transform identities on 1000 random pairs")
def test_c01_transform_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    items = rng.normal(size=(1000, 32)) * rng.lognormal(size=(1000, 1))
    queries = rng.normal(size=(1000, 32))
    phi = max_norm(Dataset(items))
    lifted = augment_items(items, phi)
    lifted_q = augment_queries(queries)

    norms = np.linalg.norm(lifted, axis=1)
    assert np.all(np.abs(norms - phi) <= 1e-7 * max(phi, 1.0))

    before = np.einsum("ij,ij->i", items, queries)
    after = np.einsum("ij,ij->i", lifted, lifted_q)
    assert np.all(np.abs(after - before) <= 1e-9 * (1.0 + np.abs(before)))

    q_sq = np.einsum("ij,ij->i", queries, queries)
    dist = np.einsum("ij,ij->i", lifted_q - lifted, lifted_q - lifted)
    identity = q_sq + phi**2 - 2.0 * before
    assert np.all(np.abs(dist - identity) <= 1e-6 * np.abs(identity))

    assert time.perf_counter() - start < 1.0


@criterion(2, "Lloyd optimality after k-means on 2000 points")
def test_c02_lloyd_optimality():
    rng = np.random.default_rng(102)
    points = rng.normal(size=(2000, 8))
    result = kmeans(points, 16, ClusteringParams(seed=5, max_iters=300))
    centroids = result.centroids.codewords
    nearest = squared_distances(points, centroids).argmin(axis=1)
    assert np.array_equal(result.assignments, nearest)
    for j in range(16):
        cell = points[result.assignments == j]
        assert cell.shape[0] > 0
        np.testing.assert_allclose(centroids[j], cell.mean(axis=0), atol=1e-7)


@criterion(3, "exact recovery: lossless index reproduces exact MIPS top-10")
def test_c03_exact_recovery():
    start = time.perf_counter()
    data = Dataset(make_mips_data(256, 16, seed=103))
    index = train_index(
        data, "neq_kmeans", m=2, m_prime=1, k_star=256, params=ClusteringParams(seed=3)
    )
    rng = np.random.default_rng(104)
    queries = QuerySet(rng.normal(size=(100, 16)))
    truth = exact_topk(data, queries, t=10)
    total = 0.0
    for qi in range(100):
        ids, _ = top_k(queries.queries[qi], index, k=10)
        total += recall(ids, truth.ids[qi])
    assert total / 100 == 1.0
    assert time.perf_counter() - start < 10.0


@criterion(4, "query-time estimate equals inner product with reconstruction")
def test_c04_estimate_matches_reconstruction():
    rng = np.random.default_rng(105)
    settings = [
        ("pq", 3, 0), ("rq", 2, 0), ("neq_kmeans", 3, 1), ("fuzzy2_neq", 3, 1),
        ("neq_kmeans", 5, 2), ("pq", 2, 0), ("fuzzy2_neq", 5, 1), ("rq", 3, 0),
        ("neq_kmeans", 2, 1), ("fuzzy2_neq", 2, 1),
    ]
    for seed, (mode, m, m_prime) in enumerate(settings):
        data = Dataset(make_mips_data(120, 12, seed=200 + seed))
        index = train_index(data, mode, m, m_prime, 8, ClusteringParams(seed=seed))
        q = rng.normal(size=12)
        adc = query_tables(q, index)
        for row in index.codes.codes:
            est = estimate_inner_product(q, row, index, adc)
            direct = float(q @ reconstruct(row, index))
            assert abs(est - direct) <= 1e-9 * (1.0 + abs(direct))


@criterion(5, "Sugeno integral properties over 10000 random inputs")
def test_c05_sugeno_properties():
    rng = np.random.default_rng(106)
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        h = rng.random(n)
        mem = rng.random(n)
        if rng.random() < 0.5:
            measure = FuzzyMeasure()
        else:
            measure = FuzzyMeasure(kind="explicit", weights=tuple(rng.uniform(0.05, 1, n)))
        combined = h * mem
        value = sugeno_integral(SugenoInputs(h, mem), measure)
        # Internality.
        assert combined.min() - 1e-12 <= value <= combined.max() + 1e-12
        # Idempotence at a shared level.
        level = float(rng.random())
        assert sugeno_integral(
            SugenoInputs(np.full(n, level), np.ones(n)), measure
        ) == pytest.approx(level)
        # Monotonicity under a single raised input.
        i = int(rng.integers(n))
        h_up = h.copy()
        h_up[i] = min(1.0, h_up[i] + rng.random() * (1.0 - h_up[i]))
        assert sugeno_integral(SugenoInputs(h_up, mem), measure) >= value - 1e-12

    # Interval collapse reproduces type-1 FPCM centroids: compare the
    # fixed points by running both sides to tight convergence.
    points, _ = make_gaussian_mixture(150, 4, centers=5, seed=107, spread=0.3)
    params = ClusteringParams(
        c=5, xi_lower=2.0, xi_upper=2.0, eta_lower=2.0, eta_upper=2.0, seed=6,
        epsilon=1e-10, max_iters=400,
    )
    fused = fuse_codebooks(it2fpcm(points, params))
    reference, _, _ = fpcm_reference(
        points, 5, xi=2.0, eta=2.0, seed=6, epsilon=1e-10, max_iters=400
    )
    np.testing.assert_allclose(fused.codewords, reference, atol=1e-6)


@criterion(6, "IT2FPCM interval invariants on Gaussian mixtures")
def test_c06_it2fpcm_invariants():
    for seed in (108, 109, 110):
        points, _ = make_gaussian_mixture(400, 6, centers=4, seed=seed)
        params = ClusteringParams(c=4, seed=seed, epsilon=1e-5, max_iters=200)
        result = it2fpcm(points, params)
        for lo, up in (
            (result.membership_lower, result.membership_upper),
            (result.possibility_lower, result.possibility_upper),
        ):
            assert np.all(lo >= 0.0) and np.all(up <= 1.0)
            assert np.all(lo <= up)
        assert result.converged
        assert result.final_improvement < 1e-5
        again = it2fpcm(points, params)
        np.testing.assert_array_equal(result.centroids_lower, again.centroids_lower)
        np.testing.assert_array_equal(result.membership_upper, again.membership_upper)
        assert result.objective == again.objective


@criterion(7, "explicit norm codebooks cut the relative norm error vs PQ")
def test_c07_norm_error_reduction(corpus):
    start = time.perf_counter()
    items, _ = corpus
    pq_errs, neq_errs = [], []
    for seed in range(N_SEEDS):
        data = Dataset(make_mips_data(N_ITEMS, DIM, seed=300 + seed))
        true_norms = np.linalg.norm(data.items, axis=1)
        padded = Dataset(pad_to_multiple(data.items, M_TOTAL - 1))

        pq = train_index(data, "pq", M_TOTAL, 0, K_STAR, ClusteringParams(seed=seed))
        neq = train_index(
            padded, "neq_kmeans", M_TOTAL, 1, K_STAR, ClusteringParams(seed=seed)
        )
        pq_norms = np.sqrt(item_sq_norms(pq))
        neq_norms = np.sqrt(item_sq_norms(neq))
        pq_errs.append(float(np.mean(np.abs(pq_norms - true_norms) / true_norms)))
        neq_errs.append(float(np.mean(np.abs(neq_norms - true_norms) / true_norms)))

    mean_pq, mean_neq = np.mean(pq_errs), np.mean(neq_errs)
    assert mean_neq < mean_pq, f"NEQ norm error {mean_neq:.4f} vs PQ {mean_pq:.4f}"
    assert time.perf_counter() - start < 120.0


@criterion(8, "comparative recall trend: Fuzzy-2 NEQ vs NEQ vs PQ")
def test_c08_comparative_trend(trend_reports):
    r_pq = trend_reports["pq"].recall_mean
    r_neq = trend_reports["neq_kmeans"].recall_mean
    r_fz = trend_reports["fuzzy2_neq"].recall_mean
    detail = f"mean recall: pq={r_pq:.4f} neq={r_neq:.4f} fuzzy2={r_fz:.4f}"
    # The modes share resamples and seeds, so per-iteration differences pair.
    recalls = {name: np.array(trend_reports[mode].recalls)
               for name, mode in (("pq", "pq"), ("neq", "neq_kmeans"), ("fuzzy2", "fuzzy2_neq"))}
    for a, b in (("neq", "pq"), ("fuzzy2", "pq"), ("fuzzy2", "neq")):
        diff = recalls[a] - recalls[b]
        detail += (f"; paired {a} - {b}: {diff.mean():+.4f} ± {diff.std(ddof=1):.4f} (sd),"
                   f" {int((diff >= 0).sum())} of {diff.size} ≥ 0")
    assert r_neq >= r_pq - 0.01, detail
    assert r_fz >= r_pq - 0.01, detail
    assert r_fz >= r_neq - 0.01, detail


NETFLIX_ITEMS_ENV = "FNEQ_NETFLIX_ITEMS"
NETFLIX_QUERIES_ENV = "FNEQ_NETFLIX_QUERIES"


@pytest.mark.skipif(
    not (os.environ.get(NETFLIX_ITEMS_ENV) and os.environ.get(NETFLIX_QUERIES_ENV)),
    reason=f"set {NETFLIX_ITEMS_ENV} and {NETFLIX_QUERIES_ENV} (fvecs files) to run",
)
@criterion("8b", "user-supplied embeddings reach the published recall band")
def test_c08b_external_embedding_protocol():
    """Conditional clause of the trend criterion: with the 300-dim item
    and user embeddings supplied, the 8-codebooks/32-clusters setting
    must put Fuzzy-2 NEQ at or above NEQ and inside 94.65 +/- 3 points
    of recall at 16384 items."""
    from fneq.io import load_fvecs

    items = load_fvecs(os.environ[NETFLIX_ITEMS_ENV])
    queries = load_fvecs(os.environ[NETFLIX_QUERIES_ENV])[:100]
    m, k_star, t = 8, 32, 20
    padded_items = pad_to_multiple(items, m - 1)
    padded_queries = pad_to_multiple(queries, m - 1)
    recalls = {}
    for mode in ("neq_kmeans", "fuzzy2_neq"):
        config = EvalConfig(
            dataset=Dataset(padded_items),
            queries=QuerySet(padded_queries),
            mode=mode,
            m=m,
            m_prime=1,
            k_star=k_star,
            params=ClusteringParams(seed=0),
            truth_depth=t,
            item_counts=(16384,),
        )
        report = bootstrap_eval(config, iterations=BOOT_ITERS, seed=7)
        recalls[mode] = report.curve[0][1]
    assert recalls["fuzzy2_neq"] >= recalls["neq_kmeans"], recalls
    assert abs(recalls["fuzzy2_neq"] - 0.9465) <= 0.03, recalls


@criterion(9, "query-cost parity between Fuzzy-2 NEQ and PQ")
def test_c09_query_cost_parity(corpus):
    items, queries = corpus
    data = Dataset(items)
    padded = Dataset(pad_to_multiple(items, M_TOTAL - 1))
    padded_queries = pad_to_multiple(queries, M_TOTAL - 1)
    pq = train_index(data, "pq", M_TOTAL, 0, K_STAR, ClusteringParams(seed=0))
    fz = train_index(padded, "fuzzy2_neq", M_TOTAL, 1, K_STAR, ClusteringParams(seed=0))

    # Identical per-item lookup counts: (m - m') lookups + m' adds + 1 multiply.
    cost = per_item_cost(fz)
    assert cost == {"lookups": M_TOTAL - 1, "adds": 1, "multiplies": 1}
    counter = OpCounter()
    estimate_inner_product(
        padded_queries[0], fz.codes.codes[0], fz, query_tables(padded_queries[0], fz), counter
    )
    assert (counter.lookups, counter.adds, counter.multiplies) == (M_TOTAL - 1, 1, 1)
    assert per_item_cost(pq) == {"lookups": M_TOTAL, "adds": 0, "multiplies": 0}

    def scan_all(index, qs):
        def run():
            for qi in range(qs.shape[0]):
                scan_scores(qs[qi], index)

        return run

    # Interleaved repeats, so a load spike hits both sides alike.
    runs = {"pq": scan_all(pq, queries), "fuzzy": scan_all(fz, padded_queries)}
    times = {name: [] for name in runs}
    for _ in range(9):
        for name, run in runs.items():
            t0 = time.perf_counter()
            run()
            times[name].append(time.perf_counter() - t0)
    t_pq, t_fz = min(times["pq"]), min(times["fuzzy"])
    assert t_fz <= 1.25 * t_pq, f"fuzzy scan {t_fz:.4f}s vs pq {t_pq:.4f}s"


@criterion(10, "metric closed forms")
def test_c10_metric_unit_cases():
    assert recall({"a", "b", "x", "y"}, {"a", "b", "c", "d"}) == 0.5
    assert recall({1, 2, 3}, {1, 2, 3}) == 1.0
    assert recall({1}, {2}) == 0.0
    assert precision({1, 2, 3, 4}, {1, 2}) == 0.5
    assert f1(1.0, 0.5) == pytest.approx(2.0 / 3.0)
    assert f1(0.25, 0.25) == pytest.approx(0.25)
    assert f1(0.0, 0.0) == 0.0


@criterion(11, "persistence round-trip keeps rankings bit-identical")
def test_c11_persistence_roundtrip(tmp_path):
    rng = np.random.default_rng(111)
    settings = [
        ("pq", 3, 0), ("rq", 2, 0), ("neq_kmeans", 3, 1),
        ("fuzzy2_neq", 3, 1), ("neq_kmeans", 5, 2),
    ]
    for seed, (mode, m, m_prime) in enumerate(settings):
        data = Dataset(make_mips_data(90, 12, seed=400 + seed))
        index = train_index(data, mode, m, m_prime, 8, ClusteringParams(seed=seed))
        path = tmp_path / f"{mode}-{seed}.fneq"
        save_index(path, index)
        loaded = load_index(path)
        for _ in range(4):
            q = rng.normal(size=12)
            before = scan_scores(q, index)
            after = scan_scores(q, loaded)
            np.testing.assert_array_equal(before, after)
            np.testing.assert_array_equal(select_top_k(before, 15), select_top_k(after, 15))


@criterion(12, "tuner converges on the convex toy objective and emits the grid")
def test_c12_tuner_sanity(tmp_path):
    result = ga_optimize(
        lambda x1, x2: (x1 - 8.5) ** 2 + (x2 - 9.1) ** 2, GAConfig(seed=12)
    )
    assert abs(result.xi1 - 8.5) < 0.1 and abs(result.xi2 - 9.1) < 0.1

    grid = xi_grid(lambda x1, x2: (x1 - 8.5) ** 2 + (x2 - 9.1) ** 2, (2.0, 12.0), steps=6)
    path = tmp_path / "grid.csv"
    write_grid_csv(path, grid)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "xi1,xi2,cost"
    assert len(lines) == 37
    for line in lines[1:]:
        xi1, xi2, cost = (float(tok) for tok in line.split(","))
        assert 2.0 <= xi1 <= 12.0 and 2.0 <= xi2 <= 12.0 and cost >= 0.0
