"""``FNEQ_THREADS`` and the work it caps, the per-sub-space codebook fits,
``reencode``'s row blocks, the tuner's grid and a large top-level
IT2FPCM fit's second thread: the cap itself, byte-identical indexes and
grids at every cap and block split, worker errors, the pool the fits run
on, when a fit opens its own, and the one module that owns pools."""

import os
import re
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import fneq.clustering
import fneq.neq
import fneq.quantizers
from fneq.clustering import ClusteringParams, it2fpcm
from fneq.core import Dataset, QuerySet, pad_to_multiple, thread_cap
from fneq.errors import InvalidInputError
from fneq.neq import _BLOCK, _encode, reencode, train_index
from fneq.persist import save_index
from fneq.quantizers import _subseeds
from fneq.tuner import make_quantization_mse_objective, make_recall_objective, xi_grid

from conftest import convex_toy, make_gaussian_mixture, make_mips_data
from oracles import xi_grid_reference

#: (mode, m, m_prime, direction sub-spaces)
CONFIGS = [
    ("pq", 8, 0, 8),
    ("neq_kmeans", 8, 1, 7),
    ("neq_kmeans", 8, 2, 6),
    ("fuzzy2_neq", 8, 1, 7),
    ("fuzzy2_neq", 8, 2, 6),
]


def corpus(m_dir: int, zero_rows: bool) -> Dataset:
    items = pad_to_multiple(make_mips_data(400, 20, seed=3), m_dir)
    if zero_rows:
        items[::37] = 0.0
    return Dataset(items)


def saved_bytes(tmp_path, dataset, mode, m, m_prime, cap, monkeypatch) -> list[bytes]:
    """The saved trained index, and its re-encode of the corpus repeated
    past one ``reencode`` block."""
    monkeypatch.setenv("FNEQ_THREADS", str(cap))
    index = train_index(dataset, mode, m, m_prime, 8, ClusteringParams(seed=4, max_iters=30))
    corpus = Dataset(np.tile(dataset.items, (_BLOCK // dataset.n + 1, 1)))
    files = []
    for name, artifact in (("trained", index), ("reencoded", reencode(index, corpus))):
        path = tmp_path / f"{mode}-{cap}-{name}.fneq"
        save_index(path, artifact)
        files.append(path.read_bytes())
    return files


def test_thread_cap_auto_counts_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.delenv("FNEQ_THREADS", raising=False)
    assert thread_cap() == 1
    monkeypatch.setenv("FNEQ_THREADS", "0")
    assert thread_cap() == 1
    monkeypatch.setenv("FNEQ_THREADS", "5")
    assert thread_cap() == 5


def test_thread_cap_without_affinity_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    monkeypatch.delenv("FNEQ_THREADS", raising=False)
    assert thread_cap() == 1


@pytest.mark.parametrize("value", ["lots", "-1", "2.5"])
def test_malformed_cap_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("FNEQ_THREADS", value)
    with pytest.raises(InvalidInputError, match="FNEQ_THREADS"):
        thread_cap()


@pytest.mark.parametrize("zero_rows", [False, True])
@pytest.mark.parametrize("mode,m,m_prime,m_dir", CONFIGS)
def test_index_bytes_identical_at_every_cap(tmp_path, monkeypatch, mode, m, m_prime, m_dir,
                                            zero_rows):
    dataset = corpus(m_dir, zero_rows)
    one = saved_bytes(tmp_path, dataset, mode, m, m_prime, 1, monkeypatch)
    for cap in (2, 3):
        assert saved_bytes(tmp_path, dataset, mode, m, m_prime, cap, monkeypatch) == one


def failing_on(trainer, seeds):
    """``trainer`` that raises on sub-spaces 5 and 6 (picked by their
    seeds); sub-space 6 fails at once, sub-space 5 after a short wait."""

    def fit(points, *args, **kwargs):
        params = args[-1]
        if params.seed == seeds[6]:
            raise InvalidInputError("sub-space 6 failed")
        if params.seed == seeds[5]:
            time.sleep(0.05)
            raise InvalidInputError("sub-space 5 failed")
        return trainer(points, *args, **kwargs)

    return fit


@pytest.mark.parametrize("cap", [1, 2, 3])
# Case ids name the ``train_index`` module, the fit and the mode; the
# k-means fit is patched where ``quantizers._kmeans_fit`` looks it up, in
# ``fneq.quantizers``.
@pytest.mark.parametrize("module,name,mode", [
    pytest.param(fneq.quantizers, "kmeans", "pq", id="fneq.neq-kmeans-pq"),
    pytest.param(fneq.quantizers, "kmeans", "neq_kmeans", id="fneq.neq-kmeans-neq_kmeans"),
    pytest.param(fneq.neq, "it2fpcm", "fuzzy2_neq", id="fneq.neq-it2fpcm-fuzzy2_neq"),
])
def test_first_failing_sub_space_raises_its_own_error(monkeypatch, cap, module, name, mode):
    monkeypatch.setenv("FNEQ_THREADS", str(cap))
    params = ClusteringParams(seed=9, max_iters=10)
    monkeypatch.setattr(module, name, failing_on(getattr(module, name), _subseeds(9, 7)))
    dataset = corpus(7, zero_rows=False)
    with pytest.raises(InvalidInputError, match="^sub-space 5 failed$"):
        train_index(dataset, mode, 7 if mode == "pq" else 8, 1, 8, params)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_fits_run_on_at_most_cap_pool_threads(monkeypatch, cap):
    monkeypatch.setenv("FNEQ_THREADS", str(cap))
    seen = set()
    original = fneq.quantizers.kmeans

    def recording(*args, **kwargs):
        seen.add(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(fneq.quantizers, "kmeans", recording)
    fneq.quantizers.train_pq(corpus(8, False), 8, 8, ClusteringParams(seed=1, max_iters=5))
    assert threading.get_ident() not in seen
    assert 1 <= len(seen) <= cap


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_pools_never_nest_in_a_fit_or_a_re_encode_block(monkeypatch, cap):
    """Inside a codebook fit and inside a re-encode block ``thread_cap()``
    is 1, so a pool opened there runs on one thread."""
    monkeypatch.setenv("FNEQ_THREADS", str(cap))
    lock = threading.Lock()
    caps = {"fit": [], "block": []}

    def spying(original, where):
        def call(*args, **kwargs):
            with lock:
                caps[where].append(thread_cap())
            return original(*args, **kwargs)

        return call

    fit = spying(fneq.quantizers.kmeans, "fit")
    monkeypatch.setattr(fneq.quantizers, "kmeans", fit)
    items = block_corpus()
    index = train_index(Dataset(items[:300]), "neq_kmeans", 5, 1, 8,
                        ClusteringParams(seed=2, max_iters=20))
    monkeypatch.setattr(fneq.neq, "_encode", spying(fneq.neq._encode, "block"))
    reencode(index, Dataset(items))
    assert caps == {"fit": [1] * 4, "block": [1] * 3}
    assert thread_cap() == cap


def spy_fits(monkeypatch) -> tuple[list, list]:
    """Record what ``_paired`` yields to each ``it2fpcm`` call (``None``: no
    pool opened) and the thread of each ``_shared_ratios`` call."""
    yielded, threads, lock = [], [], threading.Lock()
    paired, shared_ratios = fneq.clustering._paired, fneq.clustering._shared_ratios

    @contextmanager
    def spying_paired(wanted):
        with paired(wanted) as pair:
            yielded.append(pair)
            yield pair

    def spying_ratios(d2):
        with lock:
            threads.append(threading.get_ident())
        return shared_ratios(d2)

    monkeypatch.setattr(fneq.clustering, "_paired", spying_paired)
    monkeypatch.setattr(fneq.clustering, "_shared_ratios", spying_ratios)
    return yielded, threads


def fit_points(n: int) -> np.ndarray:
    return make_gaussian_mixture(n, 3, centers=4, seed=3)[0]


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_top_level_fit_above_the_threshold_uses_at_most_two_threads(monkeypatch, cap):
    """From ``_SPLIT_ROWS`` points a top-level fit pairs the calling thread
    with one pool thread where ``FNEQ_THREADS`` allows two, and stays on
    the calling thread at 1."""
    monkeypatch.setenv("FNEQ_THREADS", str(cap))
    yielded, threads = spy_fits(monkeypatch)
    it2fpcm(fit_points(fneq.clustering._SPLIT_ROWS), ClusteringParams(c=4, seed=1, max_iters=3))
    assert len(yielded) == 1 and (yielded[0] is None) == (cap == 1)
    assert threading.get_ident() in threads
    assert len(set(threads)) == min(2, cap)


def fuzzy_fit_in_thread_map():
    """A ``fuzzy2_neq`` index over ``_SPLIT_ROWS`` items, whose fits run on
    the pool threads of ``_thread_map``."""
    items = pad_to_multiple(make_mips_data(fneq.clustering._SPLIT_ROWS, 8, seed=5), 4)
    train_index(Dataset(items), "fuzzy2_neq", 5, 1, 4, ClusteringParams(seed=3, max_iters=3))


def grid_pair():
    """Three grid pairs of the MSE objective, which fits on ``_SPLIT_ROWS``
    training points on the grid's threads."""
    points = fit_points(fneq.clustering._SPLIT_ROWS * 4 // 3 + 2)
    objective = make_quantization_mse_objective(points, 4, ClusteringParams(seed=2, max_iters=3))
    xi_grid(objective, (2.0, 3.0), steps=2)


@pytest.mark.parametrize("case,cap,rows", [
    ("fit-in-thread-map", 2, None),
    ("grid-pair", 2, None),
    ("one-thread", 1, fneq.clustering._SPLIT_ROWS),
    ("below-threshold", 2, fneq.clustering._SPLIT_ROWS - 1),
])
def test_fit_opens_no_pool_inside_a_pool_at_one_thread_or_below_the_threshold(
    monkeypatch, case, cap, rows
):
    """Inside ``_thread_map``'s fit and grid pools, at ``FNEQ_THREADS=1`` and
    below ``_SPLIT_ROWS`` points, every fit runs on the thread that called it."""
    monkeypatch.setenv("FNEQ_THREADS", str(cap))
    callers, lock = [], threading.Lock()
    fit = fneq.clustering.it2fpcm

    def calling(points, params, **kwargs):
        with lock:
            callers.append(threading.get_ident())
        return fit(points, params, **kwargs)

    monkeypatch.setattr(fneq.neq, "it2fpcm", calling)
    yielded, threads = spy_fits(monkeypatch)
    if case == "fit-in-thread-map":
        fuzzy_fit_in_thread_map()
    elif case == "grid-pair":
        grid_pair()
    else:
        calling(fit_points(rows), ClusteringParams(c=4, seed=1, max_iters=3))
    assert yielded == [None] * len(callers) and callers
    assert set(threads) == set(callers)
    assert (threading.get_ident() in callers) == (rows is not None)


def test_only_core_names_the_thread_pool():
    """Every pool runs through ``core._thread_map``: no other module names
    ``ThreadPoolExecutor`` or the ``_pool`` thread flag."""
    package = Path(fneq.neq.__file__).parent
    owners = [path.name for path in sorted(package.glob("*.py"))
              if re.search(r"\bThreadPoolExecutor\b|\b_pool\b", path.read_text())]
    assert owners == ["core.py"]


#: (mode, m_prime) of the re-encoding tests; pq and rq have no norm codebooks.
REENCODE_CONFIGS = [("pq", 0), ("rq", 0), ("neq_kmeans", 1), ("neq_kmeans", 2),
                    ("fuzzy2_neq", 1), ("fuzzy2_neq", 2)]


def block_corpus() -> np.ndarray:
    """``2 * _BLOCK + 37`` rows: three blocks, the middle one all zero."""
    items = make_mips_data(2 * _BLOCK + 37, 12, seed=6)
    items[_BLOCK : 2 * _BLOCK] = 0.0
    return items


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("mode,m_prime", REENCODE_CONFIGS)
def test_reencode_blocks_equal_one_encode_call(monkeypatch, cap, mode, m_prime):
    """Coded block by block on ``cap`` threads, the corpus gets the codes of
    one ``_encode`` call on the whole matrix."""
    monkeypatch.setenv("FNEQ_THREADS", str(cap))
    items = block_corpus()
    index = train_index(Dataset(items[:300]), mode, 4 + m_prime, m_prime, 8,
                        ClusteringParams(seed=2, max_iters=20))
    whole = _encode(items, index.layout, index.dir_codebooks, index.m_prime,
                    lambda s, residual: index.norm_codebooks[s])[1]
    codes = reencode(index, Dataset(items)).codes.codes
    np.testing.assert_array_equal(codes, whole)


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_first_failing_block_raises_its_own_error(monkeypatch, cap):
    """Blocks 1 and 2 fail, block 1 after a short wait: its error is raised."""
    monkeypatch.setenv("FNEQ_THREADS", str(cap))
    items = make_mips_data(2 * _BLOCK + 37, 12, seed=6)
    index = train_index(Dataset(items[:300]), "pq", 4, 0, 8, ClusteringParams(seed=2))
    original = fneq.neq._encode

    def failing(block, *args):
        if block.shape[0] == 37:
            raise InvalidInputError("block 2 failed")
        if np.array_equal(block[0], items[_BLOCK]):
            time.sleep(0.05)
            raise InvalidInputError("block 1 failed")
        return original(block, *args)

    monkeypatch.setattr(fneq.neq, "_encode", failing)
    with pytest.raises(InvalidInputError, match="^block 1 failed$"):
        reencode(index, Dataset(items))


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("steps", range(2, 8))
def test_grid_equals_reference_on_convex_toy(monkeypatch, cap, steps):
    monkeypatch.setenv("FNEQ_THREADS", str(cap))
    grid = xi_grid(convex_toy, (2.0, 12.0), steps)
    assert grid.tobytes() == xi_grid_reference(convex_toy, (2.0, 12.0), steps).tobytes()


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_grid_equals_reference_on_mse_objective(monkeypatch, cap):
    monkeypatch.setenv("FNEQ_THREADS", str(cap))
    points, _ = make_gaussian_mixture(90, 3, centers=4, seed=5)
    objective = make_quantization_mse_objective(
        points, k_star=4, params=ClusteringParams(seed=5, max_iters=15)
    )
    grid = xi_grid(objective, (1.5, 6.0), steps=4)
    assert grid.tobytes() == xi_grid_reference(objective, (1.5, 6.0), steps=4).tobytes()


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_pools_opened_on_the_grid_get_one_thread(monkeypatch, cap):
    """The recall objective trains an index, whose fit and re-encode pools
    open on the grid's threads: there ``thread_cap()`` is 1, so the grid's
    cap bounds the whole search, and the grid still equals the reference."""
    monkeypatch.setenv("FNEQ_THREADS", str(cap))
    data = Dataset(make_mips_data(120, 8, seed=8))
    queries = QuerySet(np.random.default_rng(8).normal(size=(4, 8)))
    trains = make_recall_objective(
        data, queries, 3, 1, 4, ClusteringParams(seed=8, max_iters=10), truth_depth=5
    )
    lock = threading.Lock()
    caps = []

    def objective(x1, x2):
        with lock:
            caps.append(thread_cap())
        return trains(x1, x2)

    grid = xi_grid(objective, (1.5, 6.0), steps=3)
    assert caps == [1] * 6
    assert thread_cap() == cap
    assert grid.tobytes() == xi_grid_reference(trains, (1.5, 6.0), steps=3).tobytes()


def test_grid_on_more_threads_than_cores_with_fast_switching_equals_reference(monkeypatch):
    """The MSE objective shares its split and parameters between the grid's
    threads; switching threads every few microseconds must not change a cost."""
    monkeypatch.setenv("FNEQ_THREADS", "8")
    points, _ = make_gaussian_mixture(90, 3, centers=4, seed=6)
    objective = make_quantization_mse_objective(
        points, k_star=4, params=ClusteringParams(seed=6, max_iters=15)
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        grid = xi_grid(objective, (1.5, 6.0), steps=5)
    finally:
        sys.setswitchinterval(interval)
    assert grid.tobytes() == xi_grid_reference(objective, (1.5, 6.0), steps=5).tobytes()


@pytest.mark.parametrize("cap", [1, 2, 3])
@pytest.mark.parametrize("steps", [2, 5, 8])
def test_grid_calls_each_unordered_pair_once_on_cap_pool_threads(monkeypatch, cap, steps):
    monkeypatch.setenv("FNEQ_THREADS", str(cap))
    lock = threading.Lock()
    calls, threads = Counter(), set()

    def spy(x1, x2):
        with lock:
            calls[x1, x2] += 1
            threads.add(threading.get_ident())
        time.sleep(0.001)
        return convex_toy(x1, x2)

    xi_grid(spy, (2.0, 12.0), steps)
    axis = [float(v) for v in np.linspace(2.0, 12.0, steps)]
    pairs = {(a, b) for a in axis for b in axis if a <= b}
    assert sum(calls.values()) == steps * (steps + 1) // 2
    assert calls == Counter(pairs)
    assert threading.get_ident() not in threads
    assert 1 <= len(threads) <= cap


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_first_failing_grid_pair_raises_the_reference_error(monkeypatch, cap):
    """Pairs (axis[1], axis[3]) and (axis[2], axis[2]) fail, the first after a
    short wait: both grids raise the error of the first in row-major order."""
    monkeypatch.setenv("FNEQ_THREADS", str(cap))
    axis = np.linspace(2.0, 12.0, 5)

    def failing(x1, x2):
        if (x1, x2) == (axis[1], axis[3]):
            time.sleep(0.05)
            raise ArithmeticError("late failure")
        if (x1, x2) == (axis[2], axis[2]):
            raise ArithmeticError("early failure")
        return convex_toy(x1, x2)

    errors = []
    for grid in (xi_grid, xi_grid_reference):
        with pytest.raises(RuntimeError) as exc:
            grid(failing, (2.0, 12.0), 5)
        errors.append((str(exc.value), str(exc.value.__cause__)))
    assert errors[0] == errors[1]
    assert errors[0] == ("objective failed at genome (xi1=4.5, xi2=9.5)", "late failure")
