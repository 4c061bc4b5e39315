"""Property tests of Lloyd k-means, IT2FPCM, codebook fusion, NEQ encoding, the
scan, top-k selection, persistence and the recall curve against the
reference implementations in ``oracles.py``, re-encoding and the
per-item estimate."""

import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fneq.aggregation import FuzzyMeasure, fuse_codebooks
import fneq.clustering
from fneq.clustering import (
    ClusteringParams,
    FuzzyClusterResult,
    _interval_partition,
    _lloyd_update,
    _shared_ratios,
    it2fpcm,
    kmeans,
    kmeans_plusplus,
    squared_distances,
)
from fneq.core import (
    Codebook, CodeMatrix, Dataset, NormCodebook, QuerySet, SubVectorLayout, row_norms,
)
from fneq.errors import InvalidInputError
from fneq.evaluate import EvalConfig, bootstrap_eval, recall_item_curve
from fneq.neq import (
    MODES,
    IndexArtifact,
    IndexMetadata,
    _encode,
    _gather_sum,
    estimate_inner_product,
    item_sq_norms,
    query_tables,
    reencode,
    scan_scores,
    select_top_k,
    train_index,
)
from fneq.persist import load_index, save_index
from fneq.quantizers import (
    build_adc_table, decode, encode_batch, nearest_codes, train_pq, train_rq,
)

import oracles
from oracles import (
    bootstrap_eval_reference,
    build_stage_table,
    cell_sums_reference,
    curve_reference,
    full_sort_topk,
    fuse_reference,
    it2fpcm_reference,
    lloyd_reference,
    nearest_codes_reference,
    rq_decode,
    rq_encode,
    train_index_reference,
    train_pq_reference,
    train_rq_reference,
)

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


def test_kmeans_equals_lloyd_reference_bit_for_bit(monkeypatch):
    """``kmeans``, the exact labeller, gives ``lloyd_reference``'s centroids,
    assignments and inertias bit for bit. A spy counts the calls that reach
    the empty-cell repair, which both labellers share."""
    reached = {"repair": 0}

    def counted_update(points, columns, labels, centroids, closest):
        def counted_closest():
            reached["repair"] += 1
            return closest()

        return _lloyd_update(points, columns, labels, centroids, counted_closest)

    monkeypatch.setattr(fneq.clustering, "_lloyd_update", counted_update)

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
    def check(seed, n, d, values, layout, max_iters, data):
        distinct = data.draw(st.integers(1, n), label="distinct")
        # Few clusters give large cells, where pairwise and sequential sums differ.
        c = data.draw(st.one_of(st.integers(1, min(n, 3)), st.integers(1, n)), label="c")
        points = lloyd_points(seed, n, d, distinct, values, layout)
        params = ClusteringParams(seed=seed, max_iters=max_iters)
        tol = draw_tol(data)
        got = kmeans(points, c, params, tol=tol) if tol else kmeans(points, c, params)
        want = lloyd_reference(points, c, params, tol)
        assert got.centroids.codewords.tobytes() == want.centroids.codewords.tobytes()
        np.testing.assert_array_equal(got.assignments, want.assignments)
        assert got.inertia_history == want.inertia_history
        assert (got.inertia, got.n_iter, got.converged) == (want.inertia, want.n_iter, want.converged)

    check()
    assert reached["repair"] > 0, reached


def test_training_kmeans_equals_kmeans_bit_for_bit(monkeypatch):
    """``kmeans(..., exact_inertia=False)``, the training Lloyd, gives
    ``kmeans``' centroids, assignments, ``n_iter`` and ``converged`` bit
    for bit on tie-heavy points up to width 64. Spies count the calls
    that reach its empty-cell repair and its exact stop-test fallback
    (``squared_distances`` called from ``kmeans``' own body)."""
    reached = {"repair": 0, "fallback": 0}
    update, distances = fneq.clustering._lloyd_update, fneq.clustering.squared_distances

    def counted_update(points, columns, labels, centroids, closest):
        def counted_closest():
            reached["repair"] += 1
            return closest()

        return update(points, columns, labels, centroids, counted_closest)

    def counted_distances(*args):
        reached["fallback"] += sys._getframe(1).f_code.co_name == "kmeans"
        return distances(*args)

    @settings(max_examples=500, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 80),
        d=st.integers(1, 64),
        values=st.sampled_from(["normal", "integers", "zeros", "negative zeros"]),
        layout=st.sampled_from(["contiguous", "column slice", "strided", "fortran"]),
        max_iters=st.integers(1, 30),
        data=st.data(),
    )
    def check(seed, n, d, values, layout, max_iters, data):
        distinct = data.draw(st.integers(1, n), label="distinct")
        c = data.draw(st.one_of(st.integers(1, min(n, 3)), st.integers(1, n)), label="c")
        points = lloyd_points(seed, n, d, distinct, values, layout)
        params = ClusteringParams(seed=seed, max_iters=max_iters)
        tol = draw_tol(data)
        want = kmeans(points, c, params, tol=tol)
        with monkeypatch.context() as patch:
            patch.setattr(fneq.clustering, "_lloyd_update", counted_update)
            patch.setattr(fneq.clustering, "squared_distances", counted_distances)
            got = kmeans(points, c, params, tol=tol, exact_inertia=False)
        assert got.centroids.codewords.tobytes() == want.centroids.codewords.tobytes()
        np.testing.assert_array_equal(got.assignments, want.assignments)
        assert (got.n_iter, got.converged) == (want.n_iter, want.converged)

    check()
    assert reached["repair"] > 0 and reached["fallback"] > 0, reached


def test_lloyd_cell_means_equal_bincount_sums_bit_for_bit():
    """``_lloyd_update``'s sparse one-hot product adds each cell's points in
    the order of one ``bincount`` per coordinate (``cell_sums_reference``),
    byte for byte: 1-300 cells, some empty, widths 2-80, entries drawn from
    a few values and their negations (exact ties and cancellations) with
    signed zeros, at magnitudes from subnormal to 2^1023, where sums of a
    few entries overflow. Counts confirm that every case was reached: an
    infinite sum, a column of -0.0 members, an empty cell, a subnormal."""
    reached = {"inf": 0, "negative zero": 0, "empty cell": 0, "subnormal": 0}

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        d=st.integers(2, 80),
        c=st.integers(1, 300),
        distinct=st.integers(1, 6),
        data=st.data(),
    )
    def check(seed, n, d, c, distinct, data):
        lo, hi = data.draw(st.sampled_from([(-1074, -1000), (-1074, 1023), (-30, 30), (1020, 1023)]))
        exponents = data.draw(st.lists(st.integers(lo, hi), min_size=distinct, max_size=distinct))
        negated = data.draw(st.booleans(), label="negations in the pool")
        used = data.draw(st.integers(1, c), label="labelled cells")
        rng = np.random.default_rng(seed)
        pool = rng.uniform(0.5, 1.0, distinct) * np.ldexp(1.0, exponents)
        pool = np.concatenate([pool, -pool if negated else [], [-0.0, -0.0]])
        points = rng.choice(pool, size=(n, d))
        labels = rng.integers(0, used, n)
        previous = rng.normal(size=(c, d))
        got = previous.copy()
        _lloyd_update(points, (np.ones(n), np.arange(n + 1)), labels, got, lambda: np.zeros(n))
        sums = cell_sums_reference(points, labels, c)
        counts = np.bincount(labels, minlength=c)
        want = previous.copy()
        want[counts > 0] = sums[counts > 0] / counts[counts > 0, None]
        assert got.tobytes() == want.tobytes()
        reached["inf"] += bool(np.isinf(sums).any())
        # A cell whose members are all -0.0 in a column sums to +0.0 there.
        negative_zero = cell_sums_reference(np.signbit(points) & (points == 0), labels, c)
        reached["negative zero"] += bool(((negative_zero == counts[:, None]) & (counts > 0)[:, None]).any())
        reached["empty cell"] += bool((counts == 0).any())
        reached["subnormal"] += bool(((points != 0) & (np.abs(points) < np.finfo(np.float64).tiny)).any())

    check()
    assert all(reached.values()), reached


def draw_tol(data) -> float:
    """``kmeans``'s default ``tol = 0`` half the time, otherwise a
    log-uniform tolerance in [1e-6, 1e-1]."""
    if data.draw(st.booleans(), label="default tol"):
        return 0.0
    return 10.0 ** data.draw(st.floats(-6.0, -1.0), label="log10 tol")


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    d=st.integers(1, 6),
    k=st.integers(-8, 8),
    max_iters=st.integers(1, 50),
    data=st.data(),
)
def test_kmeans_stop_does_not_depend_on_scale(seed, n, d, k, max_iters, data):
    """Points times 2^k give the same labels, ``n_iter`` and ``converged``,
    centroids times 2^k and inertias times 4^k, bit for bit: scaling by a
    power of two is exact, so any scale-dependent stopping rule shows.
    The points are at unit scale, where Lloyd's gains are neither all
    above nor all below a tolerance that does not scale with them."""
    distinct = data.draw(st.integers(1, n), label="distinct")
    c = data.draw(st.integers(1, min(n, 32)), label="c")
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(distinct, d))[rng.integers(0, distinct, size=n)]
    params = ClusteringParams(seed=seed, max_iters=max_iters)
    tol = draw_tol(data)
    base = kmeans(points, c, params, tol=tol)
    scaled = kmeans(points * 2.0**k, c, params, tol=tol)
    np.testing.assert_array_equal(scaled.assignments, base.assignments)
    assert (scaled.n_iter, scaled.converged) == (base.n_iter, base.converged)
    assert scaled.centroids.codewords.tobytes() == (base.centroids.codewords * 2.0**k).tobytes()
    assert scaled.inertia_history == tuple(h * 4.0**k for h in base.inertia_history)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    d=st.integers(1, 64),
    values=st.sampled_from(["normal", "integers", "zeros"]),
    data=st.data(),
)
def test_kmeans_plusplus_equals_frozen_seeding_bit_for_bit(seed, n, d, values, data):
    """Few distinct rows and ``c`` up to ``n`` make every remaining point
    coincide with a seed, so the uniform fallback fires. The draws are
    recorded with their probabilities, which a last-bit change in a
    distance moves even when the picks stay the same."""
    points = lloyd_points(seed, n, d, data.draw(st.integers(1, n), label="distinct"), values,
                          "contiguous")
    c = data.draw(st.integers(1, n), label="c")
    runs = [RecordingRng(seed) for _ in range(2)]
    got = kmeans_plusplus(points, c, runs[0])
    want = oracles.kmeans_plusplus(points, c, runs[1])
    assert got.tobytes() == want.tobytes()
    assert runs[0].draws == runs[1].draws


class RecordingRng:
    """A seeded generator that records each draw and its probabilities."""

    def __init__(self, seed: int):
        self.rng, self.draws = np.random.default_rng(seed), []

    def integers(self, n):
        self.draws.append(("integers", n))
        return self.rng.integers(n)

    def choice(self, n, p):
        self.draws.append(("choice", n, p.tobytes()))
        return self.rng.choice(n, p=p)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 40),
    d=st.integers(1, 4),
    c=st.integers(1, 20),
    on_centre=st.sampled_from([0.0, 0.3, 1.0]),
    lower=st.floats(1.05, 12.0),
    width=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
)
def test_interval_partition_equals_frozen_partition_bit_for_bit(
    seed, n, d, c, on_centre, lower, width
):
    """Integer centres, some repeated, and an ``on_centre`` share of the
    points placed on a centre: points at distance zero from one or
    several centres."""
    rng = np.random.default_rng(seed)
    centres = rng.integers(-2, 3, size=(c, d)).astype(np.float64)
    centres[rng.random(c) < 0.3] = centres[0]
    points = rng.integers(-2, 3, size=(n, d)) + rng.normal(size=(n, d)) * rng.integers(0, 2)
    placed = rng.random(n) < on_centre
    points[placed] = centres[rng.integers(0, c, size=placed.sum())]
    shared = _shared_ratios(squared_distances(centres, points))
    got = _interval_partition(shared, lower, lower + width)
    want = oracles._interval_partition(squared_distances(points, centres), lower, lower + width)
    for g, w in zip(got, want):
        assert g.flags.c_contiguous and (g.shape, g.tobytes()) == (w.shape, w.tobytes())


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


def _fuzzy_outcome(points: np.ndarray, params: ClusteringParams, trainer) -> tuple:
    """Every field of the trainer's result as bytes, or the error it raised."""
    try:
        r = trainer(points, params)
    except InvalidInputError as exc:
        return ("raised", str(exc))
    arrays = (
        r.centroids_lower, r.centroids_upper, r.membership_lower,
        r.membership_upper, r.possibility_lower, r.possibility_upper,
    )
    scalars = np.array([r.objective, r.final_improvement], dtype=np.float64)
    return (
        tuple((a.dtype.str, a.shape, a.tobytes()) for a in arrays),
        scalars.tobytes(), r.n_iter, r.converged,
    )


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    d=st.integers(1, 5),
    values=st.sampled_from(["normal", "integers", "zeros"]),
    xi_lower=st.floats(1.05, 12.0),
    xi_width=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    eta=st.sampled_from(["default", "equal", "apart", "apart, collapsed", "lower", "upper"]),
    max_iters=st.integers(1, 20),
    epsilon=st.sampled_from([1e-12, 1e-5, 1e-2]),
    data=st.data(),
)
def test_it2fpcm_equals_reference_bit_for_bit(
    seed, n, d, values, xi_lower, xi_width, eta, max_iters, epsilon, data
):
    points = lloyd_points(seed, n, d, data.draw(st.integers(1, n)), values, "contiguous")
    params = fuzzy_params(data, n, seed, xi_lower, xi_width, eta, max_iters, epsilon)
    assert _fuzzy_outcome(points, params, it2fpcm) == _fuzzy_outcome(
        points, params, it2fpcm_reference
    )


def fuzzy_params(data, n, seed, xi_lower, xi_width, eta, max_iters, epsilon) -> ClusteringParams:
    """Parameters with up to ``min(n, 6)`` clusters and the possibility
    interval ``eta``: the default, equal to xi, sharing one end with it, or
    apart from it (and collapsed to a point)."""
    xi_upper = xi_lower + xi_width
    # "lower" and "upper" share one end of the interval with xi.
    etas = {
        "default": {},
        "equal": {"eta_lower": xi_lower, "eta_upper": xi_upper},
        "lower": {"eta_lower": xi_lower, "eta_upper": xi_upper + data.draw(st.floats(0.01, 3.0))},
        "upper": {
            "eta_lower": data.draw(st.floats(1.01, xi_lower).filter(lambda e: e != xi_lower)),
            "eta_upper": xi_upper,
        },
    }
    if eta.startswith("apart"):
        eta_lower = data.draw(st.floats(1.05, 12.0).filter(lambda e: e != xi_lower))
        eta_upper = eta_lower if eta.endswith("collapsed") else eta_lower + data.draw(
            st.floats(0.01, 3.0)
        )
        etas[eta] = {"eta_lower": eta_lower, "eta_upper": eta_upper}
    return ClusteringParams(
        c=data.draw(st.integers(1, min(n, 6))), xi_lower=xi_lower, xi_upper=xi_upper,
        epsilon=epsilon, max_iters=max_iters, seed=seed, **etas[eta],
    )


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.one_of(st.sampled_from([1, 2]), st.integers(1, 61)),
    d=st.integers(1, 5),
    values=st.sampled_from(["normal", "integers", "zeros"]),
    xi_lower=st.floats(1.05, 12.0),
    xi_width=st.one_of(st.just(0.0), st.floats(0.01, 3.0)),
    eta=st.sampled_from(["default", "equal", "apart", "apart, collapsed", "lower", "upper"]),
    max_iters=st.integers(1, 20),
    epsilon=st.sampled_from([1e-12, 1e-5, 1e-2]),
    data=st.data(),
)
def test_it2fpcm_split_across_two_threads_equals_reference_bit_for_bit(
    seed, n, d, values, xi_lower, xi_width, eta, max_iters, epsilon, data
):
    """With the row threshold at one row, every fit at ``FNEQ_THREADS=2``
    runs its iterations on two threads, each half of the rows on its own;
    ``n`` is often 1, where the first half is empty, or 2. All six arrays, the objective,
    ``n_iter`` and ``converged`` equal the reference's and the one-thread
    fit's."""
    points = lloyd_points(seed, n, d, data.draw(st.integers(1, n)), values, "contiguous")
    params = fuzzy_params(data, n, seed, xi_lower, xi_width, eta, max_iters, epsilon)
    want = _fuzzy_outcome(points, params, it2fpcm_reference)
    original = fneq.clustering._shared_ratios
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fneq.clustering, "_SPLIT_ROWS", 1)
        for cap in (1, 2):
            threads = set()

            def recording(d2):
                threads.add(threading.get_ident())
                return original(d2)

            mp.setattr(fneq.clustering, "_shared_ratios", recording)
            mp.setenv("FNEQ_THREADS", str(cap))
            assert _fuzzy_outcome(points, params, it2fpcm) == want
            assert len(threads) == (cap if want[0] != "raised" else 0)


_INTERVAL = st.tuples(st.floats(1.05, 12.0), st.one_of(st.just(0.0), st.floats(0.01, 3.0)))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    d=st.integers(1, 5),
    c=st.integers(1, 6),
    xi=_INTERVAL,
    eta=st.one_of(st.none(), _INTERVAL),
    max_iters=st.integers(1, 20),
    cap=st.sampled_from([1, 2]),
)
# xi1 = xi2 with eta = xi, and eta1 = eta2 apart from xi: one bound pass per iteration.
@example(seed=3, n=50, d=3, c=4, xi=(3.0, 0.0), eta=None, max_iters=10, cap=1)
@example(seed=4, n=50, d=3, c=4, xi=(3.0, 0.0), eta=(2.5, 0.0), max_iters=10, cap=1)
# From ``_SPLIT_ROWS`` rows at two threads the partitions run on two halves.
@example(seed=5, n=fneq.clustering._SPLIT_ROWS + 3, d=3, c=5, xi=(3.0, 0.0), eta=None, max_iters=6, cap=2)
def test_it2fpcm_from_its_kmeans_plusplus_start_equals_reference_bit_for_bit(
    seed, n, d, c, xi, eta, max_iters, cap
):
    """``init`` set to the k-means++ start that ``it2fpcm`` draws at its seed
    gives every field of the default fit and of ``it2fpcm_reference``."""
    points = lloyd_points(seed, n, d, n, "normal", "contiguous")
    eta = {} if eta is None else {"eta_lower": eta[0], "eta_upper": sum(eta)}
    params = ClusteringParams(c=min(c, n), xi_lower=xi[0], xi_upper=sum(xi), seed=seed,
                              max_iters=max_iters, epsilon=1e-12, **eta)
    start = kmeans_plusplus(points, params.c, np.random.default_rng(seed))
    want = _fuzzy_outcome(points, params, it2fpcm_reference)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("FNEQ_THREADS", str(cap))
        assert _fuzzy_outcome(points, params, it2fpcm) == want
        assert _fuzzy_outcome(points, params, lambda p, q: it2fpcm(p, q, init=start)) == want


def training_items(seed: int, k_star: int, zero_share: float, values: str) -> Dataset:
    """Six-wide items with at least ``k_star`` non-zero rows. Integer and
    thirds data put float64 codewords on exact ties that the stored
    float32 codebooks break one way or the other."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3 * k_star, 90))
    if values == "normal":
        items = rng.normal(size=(n, 6)) * rng.lognormal(0.0, 0.8, size=(n, 1))
    else:
        items = rng.integers(-3, 4, size=(n, 6)) / (3.0 if values == "thirds" else 1.0)
    items[rng.permutation(n)[: int(zero_share * (n - k_star))]] = 0.0
    return Dataset(items)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(MODES),
    m_prime=st.sampled_from([1, 2]),
    parts=st.sampled_from([1, 2, 3, 6]),
    k_star=st.integers(2, 8),
    zero_share=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    values=st.sampled_from(["normal", "integers", "thirds"]),
)
@example(seed=1, mode="pq", m_prime=1, parts=6, k_star=8, zero_share=0.0, values="thirds")
@example(seed=19, mode="rq", m_prime=1, parts=2, k_star=3, zero_share=0.0, values="integers")
def test_training_codes_equal_reencoded_codes(
    seed, mode, m_prime, parts, k_star, zero_share, values
):
    """``parts`` direction codebooks (rq: stages; pq and rq ignore
    ``m_prime``)."""
    dataset = training_items(seed, k_star, zero_share, values)
    params = ClusteringParams(seed=seed, max_iters=15)
    m = parts if mode in ("pq", "rq") else m_prime + parts
    index = train_index(dataset, mode, m, m_prime, k_star, params)
    again = reencode(index, dataset).codes.codes
    assert again.dtype == index.codes.codes.dtype
    np.testing.assert_array_equal(again, index.codes.codes)


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 60),
    m_dir=st.integers(1, 4),
    d_star=st.sampled_from([1, 3, 7, 8, 9, 16, 33]),
    k_star=st.integers(1, 20),
    zero_share=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
)
def test_encoded_relative_norms_equal_norms_over_decoded_norms(
    seed, n, m_dir, d_star, k_star, zero_share
):
    """``_encode`` takes ``||x_bar||`` from the chosen codewords' squared
    norms. Its direction codes are ``encode_batch``'s of the unit
    directions, and its relative norms are ``||x|| / ||decode(codes)||``
    up to the rounding of two sums of ``D`` squares taken in other orders.
    All-zero rows get code 0 everywhere and relative norm 0."""
    rng = np.random.default_rng(seed)
    layout = SubVectorLayout(D=m_dir * d_star, m_dir=m_dir)
    items = rng.normal(size=(n, layout.D)) * rng.lognormal(0.0, 2.0, size=(n, 1))
    zero = rng.random(n) < zero_share
    items[zero] = 0.0
    cbs = tuple(Codebook(rng.normal(size=(k_star, d_star))) for _ in range(m_dir))
    seen = []

    def stage_codebook(s, residual):
        seen.append(residual.copy())
        return NormCodebook(np.array([0.0, 1.0]))

    _, codes = _encode(items, layout, cbs, 1, stage_codebook)
    np.testing.assert_array_equal(codes[zero], 0)
    np.testing.assert_array_equal(seen[0][zero], 0.0)
    norms = row_norms(items[~zero])
    dir_codes = encode_batch(items[~zero] / norms[:, None], cbs, layout)
    np.testing.assert_array_equal(codes[~zero, 1:], dir_codes)
    want = norms / row_norms(decode(dir_codes, cbs, layout))
    eps = np.finfo(np.float64).eps
    np.testing.assert_allclose(seen[0][~zero], want, rtol=(layout.D + 3) * eps, atol=0.0)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    parts=st.sampled_from([1, 2, 3, 6]),
    m_prime=st.sampled_from([1, 2]),
    k_star=st.integers(2, 8),
    zero_share=st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
    values=st.sampled_from(["normal", "integers", "thirds"]),
    max_iters=st.integers(1, 20),
    cap=st.integers(1, 3),
    measure=measures,
)
# Corpora on which some pq or rq fit stops at the training tolerance,
# which these small corpora seldom reach.
@example(seed=1510, parts=2, m_prime=1, k_star=2, zero_share=0.0, values="normal",
         max_iters=20, cap=2, measure=None)
@example(seed=1800, parts=2, m_prime=2, k_star=8, zero_share=0.0, values="normal",
         max_iters=20, cap=1, measure=None)
def test_trainers_equal_references_bit_for_bit(
    seed, parts, m_prime, k_star, zero_share, values, max_iters, cap, measure
):
    """``train_pq``/``train_rq`` give the references' codebooks and codes,
    and ``train_index`` saves the reference's bytes in every mode, at any
    ``FNEQ_THREADS`` cap and whether k-means stops at label stability,
    at the training tolerance or at ``max_iters``."""
    dataset = training_items(seed, k_star, zero_share, values)
    params = ClusteringParams(seed=seed, max_iters=max_iters)
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setenv("FNEQ_THREADS", str(cap))
        for train, reference in ((train_pq, train_pq_reference), (train_rq, train_rq_reference)):
            got = train(dataset, parts, k_star, params)
            want = reference(dataset, parts, k_star, params)
            assert [cb.codewords.tobytes() for cb in got.codebooks] == [
                cb.codewords.tobytes() for cb in want.codebooks
            ]
            np.testing.assert_array_equal(got.codes.codes, want.codes.codes)
        for mode in MODES:
            norms = 0 if mode in ("pq", "rq") else m_prime
            args = (dataset, mode, norms + parts, norms, k_star, params, measure)
            save_index(Path(tmp) / "got", train_index(*args))
            save_index(Path(tmp) / "want", train_index_reference(*args))
            assert (Path(tmp) / "got").read_bytes() == (Path(tmp) / "want").read_bytes(), mode


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 80),
    k=st.integers(1, 40),
    n=st.integers(0, 300),
    thirds=st.booleans(),
    exponent=st.integers(-30, 30),
)
def test_nearest_codes_equal_cdist_argmin(seed, d, k, n, thirds, exponent):
    """The GEMM kernel with its exact re-check gives the ``cdist`` argmin,
    ties included, on tie-prone data at scales ``2**exponent``: integer or
    thirds codewords with repeats; points on a codeword, on the midpoint of
    two, or on a midpoint moved by a relative ``2**-j`` (``j`` in 20..52),
    which puts near ties at every size around the rounding bound."""
    rng = np.random.default_rng(seed)
    grid = rng.integers(-3, 4, size=(k, d)) / (3.0 if thirds else 1.0)
    codewords = grid[rng.integers(0, k, size=k)]
    a, b = rng.integers(0, k, size=(2, n))
    kind = rng.integers(0, 3, size=n)
    points = np.where((kind == 0)[:, None], codewords[a], (codewords[a] + codewords[b]) / 2)
    nudge = rng.normal(size=(n, d)) * 2.0 ** -rng.integers(20, 53, size=(n, 1))
    points[kind == 2] += nudge[kind == 2]
    scale = 2.0**exponent
    codebook = Codebook(codewords * scale)
    expected = nearest_codes_reference(points * scale, codebook)
    np.testing.assert_array_equal(nearest_codes(points * scale, codebook), expected)


@pytest.mark.parametrize("k", [255, 256, 257, 600])
def test_nearest_codes_equal_cdist_argmin_past_one_byte(k):
    """Past 256 codewords, where codes and near counts outgrow a byte:
    rows beside each codeword, rows on midpoints (two-way ties) and a
    codebook of ``k`` coinciding codewords, where every row ties."""
    line = np.column_stack([np.arange(k, dtype=float), np.zeros(k)])
    points = np.vstack([line + 0.25, (line[:-1] + line[1:]) / 2])
    for codebook in (Codebook(line), Codebook(np.zeros((k, 2)))):
        expected = nearest_codes_reference(points, codebook)
        np.testing.assert_array_equal(nearest_codes(points, codebook), expected)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 80),
    k=st.integers(1, 40),
    n=st.integers(0, 300),
    distinct=st.integers(1, 40),
    exponent=st.integers(-540, 400),
)
def test_nearest_distance_estimate_lies_within_its_bound(seed, d, k, n, distinct, exponent):
    """Per row, ``_nearest``'s ``best + ||x||²`` is within its ``bound`` of
    the least ``cdist`` distance, on repeated rows and codewords (exact
    zeros next to estimates), from subnormal to large scales."""
    rng = np.random.default_rng(seed)
    pool = rng.normal(size=(distinct, d)) * 2.0**exponent
    points = pool[rng.integers(0, distinct, size=n)]
    codewords = pool[rng.integers(0, distinct, size=k)]
    _, best, bound = fneq.clustering._nearest(points, codewords)
    exact = squared_distances(points, codewords).min(axis=1)
    estimate = best + np.einsum("ij,ij->i", points, points)
    assert np.all(np.abs(estimate - exact) <= bound), (estimate, exact, bound)


#: Values that make codewords coincide, distances tie and zeros carry a sign.
TIE_VALUES = np.array([-1.5, -1.0, -0.0, 0.0, 0.5, 1.0])


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    stages=st.integers(1, 4),
    D=st.integers(1, 5),
    k_stars=st.lists(st.integers(1, 6), min_size=4, max_size=4),
    n=st.integers(0, 30),
    continuous=st.booleans(),
)
def test_stage_kernels_equal_references_bit_for_bit(seed, stages, D, k_stars, n, continuous):
    """Residual stages on ``SubVectorLayout(D, 1)`` through the shared
    kernels give the bytes of the stage encoder, decoder and table."""
    rng = np.random.default_rng(seed)
    layout = SubVectorLayout(D=D, m_dir=1)
    codebooks = tuple(Codebook(rng.choice(TIE_VALUES, size=(k, D))) for k in k_stars[:stages])
    items = rng.choice(TIE_VALUES, size=(n, D))
    q = rng.choice(TIE_VALUES, size=D)
    if continuous:
        items = items + rng.normal(size=(n, D))
        q = q + rng.normal(size=D)
    codes = encode_batch(items, codebooks, layout)
    np.testing.assert_array_equal(codes, rq_encode(items, codebooks))
    drawn = np.column_stack([rng.integers(0, cb.k_star, n) for cb in codebooks])
    for c in (codes, drawn, *drawn[:1]):
        assert decode(c, codebooks, layout).tobytes() == rq_decode(c, codebooks).tobytes()
    table = build_adc_table(q, codebooks, layout).tables
    assert table.tobytes() == build_stage_table(q, codebooks).tables.tobytes()


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


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 50),
    sizes=st.lists(st.integers(1, 8), min_size=1, max_size=6),
    stacked=st.booleans(),
)
def test_gather_sum_equals_zero_seeded_sum_bit_for_bit(seed, n, sizes, stacked):
    """The scan's seeded sum gives the zeroed accumulator's bytes on tables
    of signed zeros and exact ties, as a list of tables (the norm sums) or
    as the rows of one table (the direction sums)."""
    rng = np.random.default_rng(seed)
    tables = [rng.choice(TIE_VALUES, size=k) for k in sizes]
    if stacked:
        tables = np.vstack([np.pad(t, (0, max(sizes) - len(t))) for t in tables])
    codes = rng.integers(0, sizes, size=(n, len(sizes))).astype(np.uint8)
    got = _gather_sum(tables, codes)
    assert got.tobytes() == oracles.gather_sum_reference(tables, codes).tobytes()


@st.composite
def sized_artifacts(draw):
    """A valid artifact of any mode, rq with 1-8 stages, each codebook of
    its own size and scale."""
    mode = draw(st.sampled_from(MODES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m_prime = draw(st.integers(1, 2)) if mode in ("neq_kmeans", "fuzzy2_neq") else 0
    n_dir = draw(st.integers(1, 8 if mode == "rq" else 4))
    m = m_prime + n_dir
    sizes = draw(st.lists(st.one_of(st.integers(1, 20), st.sampled_from([256, 257, 300])),
                          min_size=m, max_size=m))
    d_star = draw(st.integers(1, 4))
    m_dir = 1 if mode == "rq" else n_dir
    n = draw(st.integers(0, 40))
    norm_cbs = tuple(
        NormCodebook(np.sort(rng.uniform(0.0 if s == 0 else -1.0, 3.0, sizes[s])), signed=s > 0)
        for s in range(m_prime)
    )
    dir_cbs = tuple(Codebook(rng.normal(size=(k, d_star)) * 10.0 ** rng.integers(-3, 4))
                    for k in sizes[m_prime:])
    return IndexArtifact(
        mode=mode,
        layout=SubVectorLayout(D=m_dir * d_star, m_dir=m_dir),
        norm_codebooks=norm_cbs,
        dir_codebooks=dir_cbs,
        codes=CodeMatrix(rng.integers(0, sizes, size=(n, m)), k_stars=sizes),
        metadata=IndexMetadata(D=m_dir * d_star, n=n, m=m, m_prime=m_prime,
                               k_star=max(sizes), seed=0),
    )


@settings(max_examples=200, deadline=None)
@given(index=sized_artifacts())
def test_item_sq_norms_equal_reference(index):
    """pq and the NEQ modes give the reference's bytes; rq's Gram tables
    sum the decoded norm in another order, so it agrees to rounding on the
    scale of its codewords (the norm can cancel to far below them)."""
    event(index.mode)
    got, want = item_sq_norms(index), oracles.item_sq_norms_reference(index)
    if index.mode != "rq":
        assert got.tobytes() == want.tobytes()
        return
    scale = sum(float(np.max(np.linalg.norm(cb.codewords, axis=1))) for cb in index.dir_codebooks)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale**2)


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


#: Each rule an artifact can break is broken with probability 1/4.
rule_broken = st.sampled_from([False, False, False, True])


@st.composite
def artifact_parts(draw):
    """Parts of an artifact in any mode, with flags for the rules they
    break: norm codebooks outside the NEQ modes (``split``), no direction
    codebook, a codebook off ``k_star`` (``short``), a code bound above
    its codebook's size (``wide``), a negative stage-0 norm codeword and
    a seed outside [0, 2**64)."""
    mode = draw(st.sampled_from(MODES))
    split, no_dir, short, wide, negative, bad_seed = (draw(rule_broken) for _ in range(6))
    has_norms = (mode in ("neq_kmeans", "fuzzy2_neq")) != split
    return dict(
        mode=mode,
        m_prime=draw(st.integers(1, 2)) if has_norms else 0,
        n_dir=0 if no_dir else draw(st.integers(1, 3)),
        d_star=draw(st.integers(1, 3)),
        k_star=draw(st.sampled_from([2, 3, 257])),
        n=draw(st.integers(1, 5)),
        short=short,
        wide=wide,
        negative=negative,
        seed=draw(st.sampled_from([-1, 2**64, 2**64 + 5]) if bad_seed else st.integers(0, 2**64 - 1)),
        rng_seed=draw(st.integers(0, 2**32 - 1)),
    ), not (split or no_dir or short or wide or bad_seed or (negative and has_norms))


def build_artifact(mode, m_prime, n_dir, d_star, k_star, n, short, wide, negative, seed, rng_seed):
    rng = np.random.default_rng(rng_seed)
    m = m_prime + n_dir
    sizes = [k_star] * m
    if short and m:
        sizes[-1] -= 1
    norm_cbs = []
    for s in range(m_prime):
        values = np.sort(rng.uniform(0.0 if s == 0 else -1.0, 3.0, sizes[s]))
        if s == 0 and negative:
            values[0] = -1.0
        norm_cbs.append(NormCodebook(values, signed=s > 0 or negative))
    dir_cbs = tuple(Codebook(rng.normal(size=(k, d_star))) for k in sizes[m_prime:])
    codes = rng.integers(0, sizes, size=(n, m))
    bounds = list(sizes)
    if wide and m:
        bounds[0] += 5
        codes[0, 0] = bounds[0] - 1
    m_dir = 1 if mode == "rq" else max(n_dir, 1)
    return IndexArtifact(
        mode=mode,
        layout=SubVectorLayout(D=m_dir * d_star, m_dir=m_dir),
        norm_codebooks=tuple(norm_cbs),
        dir_codebooks=dir_cbs,
        codes=CodeMatrix(codes, k_stars=bounds),
        metadata=IndexMetadata(D=m_dir * d_star, n=n, m=m, m_prime=m_prime, k_star=k_star, seed=seed),
    )


def broken_artifact(**changes):
    """Parts of a valid neq_kmeans artifact with ``changes`` that break it."""
    parts = dict(mode="neq_kmeans", m_prime=1, n_dir=2, d_star=2, k_star=3, n=4,
                 short=False, wide=False, negative=False, seed=0, rng_seed=0)
    return {**parts, **changes}, False


@settings(max_examples=200, deadline=None)
@given(case=artifact_parts())
@example(case=broken_artifact(mode="pq"))
@example(case=broken_artifact(mode="rq", m_prime=0, n_dir=0))
@example(case=broken_artifact(negative=True))
@example(case=broken_artifact(seed=2**64 + 5))
def test_save_accepts_exactly_the_artifacts_that_load_back_equal(case):
    parts, valid = case
    event(f"valid={valid}")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "index.fneq"
        if not valid:
            with pytest.raises(InvalidInputError):
                save_index(path, build_artifact(**parts))
            assert list(Path(tmp).iterdir()) == []
            return
        index = build_artifact(**parts)
        save_index(path, index)
        loaded = load_index(path)
    assert (loaded.mode, loaded.layout, loaded.metadata) == (index.mode, index.layout, index.metadata)
    assert loaded.codes.k_stars == index.codes.k_stars
    assert loaded.codes.codes.dtype == index.codes.codes.dtype
    assert loaded.codes.codes.tobytes() == index.codes.codes.tobytes()
    for a, b in zip(loaded.norm_codebooks, index.norm_codebooks, strict=True):
        assert (a.values.tobytes(), a.signed) == (b.values.tobytes(), b.signed)
    for a, b in zip(loaded.dir_codebooks, index.dir_codebooks, strict=True):
        assert a.codewords.tobytes() == b.codewords.tobytes()


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


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(["pq", "neq_kmeans", "fuzzy2_neq"]),
    n=st.integers(20, 60),
    n_queries=st.integers(0, 4),
    iterations=st.integers(1, 2),
    data=st.data(),
)
def test_bootstrap_eval_equals_two_scan_reference(seed, mode, n, n_queries, iterations, data):
    """Every report field but the wall times matches the loop that scans
    each query twice per iteration."""
    rng = np.random.default_rng(seed)
    items = rng.normal(size=(n, 6)) * rng.lognormal(0.0, 0.8, size=(n, 1))
    if data.draw(st.booleans(), label="integers"):
        items = np.round(items)
    t = data.draw(st.integers(1, 5), label="t")
    counts = sorted(set(data.draw(st.lists(st.integers(t, n), max_size=3), label="counts")))
    config = EvalConfig(
        dataset=Dataset(items), queries=QuerySet(rng.normal(size=(n_queries, 6))), mode=mode,
        m=3 if mode == "pq" else 4, m_prime=0 if mode == "pq" else 1, k_star=4,
        params=ClusteringParams(seed=seed, max_iters=5), truth_depth=t,
        retrieved_k=data.draw(st.one_of(st.none(), st.integers(1, n)), label="k"),
        item_counts=tuple(counts) or None,
    )
    got = vars(bootstrap_eval(config, iterations, seed))
    want = vars(bootstrap_eval_reference(config, iterations, seed))
    for report in (got, want):
        assert len(report.pop("running_time_seconds")) == iterations
    assert got == want
