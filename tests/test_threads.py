"""``FNEQ_THREADS`` and the per-sub-space codebook fits it caps: the cap
itself, byte-identical indexes at every cap, worker errors and the pool
the fits run on."""

import os
import threading
import time

import numpy as np
import pytest

import fneq.neq
import fneq.quantizers
from fneq.clustering import ClusteringParams
from fneq.core import Dataset, pad_to_multiple, thread_cap
from fneq.errors import InvalidInputError
from fneq.neq import train_index
from fneq.persist import save_index
from fneq.quantizers import _subseeds

from conftest import make_mips_data

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


def saved_bytes(tmp_path, dataset, mode, m, m_prime, cap, monkeypatch) -> bytes:
    monkeypatch.setenv("FNEQ_THREADS", str(cap))
    index = train_index(dataset, mode, m, m_prime, 8, ClusteringParams(seed=4, max_iters=30))
    path = tmp_path / f"{mode}-{cap}.fneq"
    save_index(path, index)
    return path.read_bytes()


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
# k-means fit is patched where it is looked up, in ``fneq.quantizers``.
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
