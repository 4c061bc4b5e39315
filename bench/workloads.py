"""The four benchmark workloads and the correctness checks they run.

Every workload drives the public ``fneq`` API from one process with one
closed-loop client. ``prepare`` makes the inputs from the seed and does
the work the benchmark needs but does not time (building the indexes
``serve`` reads, exact ground truth). ``setup`` is the program's work
before the first timed operation and is timed as ``setup_s``. ``run``
is one timed pass; ``check`` verifies that pass outside the timing.

Traced functions are always looked up through their module at call
time (``fneq.neq.scan_scores``), so the tracer's rebinding applies to
the benchmark's own calls as well as to calls inside the package.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from dataclasses import dataclass
from statistics import median

import numpy as np

import fneq
import fneq.cli
import fneq.tuner

DIM = 64
M = 8
K_STAR = 16
TRUTH_DEPTH = 20
MODES = ("pq", "rq", "neq_kmeans", "fuzzy2_neq")
NEQ_MODES = ("neq_kmeans", "fuzzy2_neq")
#: Seeds of the work each workload does: the acceptance suite's corpus,
#: every trained index, the bootstrap resamples and the tuner's search.
#: The workload seed draws only the queries and the items beyond the
#: training sample, so every run does the same training work and the
#: spread between runs is the machine's.
CORPUS_SEED = TRAIN_SEED = 0
BOOTSTRAP_SEED = 7
#: Items sampled per query when comparing scan values with the per-item estimate.
ESTIMATE_SAMPLE = 8
#: Relative tolerance of that comparison.
ESTIMATE_RTOL = 1e-9


@dataclass(frozen=True)
class Size:
    """Input sizes. ``full`` is the benchmark; ``tiny`` only exercises
    the code paths, for the self-test."""

    n_items: int = 100_000
    n_train: int = 10_000
    serve_queries: int = 500
    recall_queries: int = 200
    tune_queries: int = 500
    boot_queries: int = 200
    boot_counts: tuple[int, ...] = (2048, 4096, 8192)
    boot_iterations: int = 2
    ga_population: int = 6
    ga_generations: int = 3
    grid_steps: int = 4


SIZES = {
    "full": Size(),
    "tiny": Size(
        n_items=3000,
        n_train=1000,
        serve_queries=12,
        recall_queries=12,
        tune_queries=12,
        boot_queries=12,
        boot_counts=(256, 512),
        boot_iterations=1,
        ga_population=4,
        ga_generations=1,
        grid_steps=2,
    ),
}


# -- inputs ----------------------------------------------------------------


def _mips_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    """Unit Gaussian directions scaled by lognormal(0, 0.8) norms."""
    directions = rng.normal(size=(n, DIM))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    norms = rng.lognormal(mean=0.0, sigma=0.8, size=n)
    return directions * norms[:, None]


def make_corpus(seed: int, n_items: int, n_head: int) -> np.ndarray:
    """The first ``n_head`` rows are the acceptance suite's corpus, the
    same at every seed, so training sees the same sample; the rest come
    from a stream of ``seed``."""
    head = _mips_rows(np.random.default_rng(CORPUS_SEED), n_head)
    if n_items <= n_head:
        return head[:n_items]
    tail = _mips_rows(np.random.default_rng([seed, 1]), n_items - n_head)
    return np.vstack([head, tail])


def make_queries(seed: int, count: int, stream: int) -> np.ndarray:
    """Gaussian queries rounded to float32, so an fvecs round trip is exact."""
    rng = np.random.default_rng([seed, stream])
    return rng.normal(size=(count, DIM)).astype(np.float32).astype(np.float64)


def pad(matrix: np.ndarray) -> np.ndarray:
    """Zero-pad D=64 to 70 so the NEQ modes get 7 direction codebooks."""
    return fneq.pad_to_multiple(matrix, M - 1)


def m_prime(mode: str) -> int:
    return 1 if mode in NEQ_MODES else 0


def expected_cost(mode: str) -> dict[str, int]:
    """The per-item scan-cost contract at m=8: (m - m', m', 1) for the
    norm-explicit modes, m lookups alone for pq and rq."""
    mp = m_prime(mode)
    return {"lookups": M - mp, "adds": mp, "multiplies": 1 if mp else 0}


# -- bookkeeping -----------------------------------------------------------


class Ledger:
    """Operations attempted, operations failed and checks run per kind."""

    def __init__(self):
        self.attempted = 0
        self.failed: set[int] = set()
        self.checks: dict[str, int] = {}
        self.failures: list[str] = []

    def op(self) -> int:
        self.attempted += 1
        return self.attempted

    def check(self, kind: str, op: int, ok: bool, detail: str = "") -> None:
        self.checks[kind] = self.checks.get(kind, 0) + 1
        if not ok:
            self.failed.add(op)
            if len(self.failures) < 20:
                self.failures.append(f"{kind}: {detail}")


def recall_at(ids: np.ndarray, truth: np.ndarray) -> float:
    return len(set(ids.tolist()) & set(truth.tolist())) / len(truth)


def check_estimates(ledger, op, index, q, ids, scores) -> None:
    """Scan values must equal the per-item estimate within ESTIMATE_RTOL."""
    adc = fneq.neq.query_tables(q, index)
    codes = index.codes.codes
    for i, s in zip(ids, scores):
        e = fneq.estimate_inner_product(q, codes[i], index, adc)
        ok = abs(s - e) <= ESTIMATE_RTOL * max(abs(s), abs(e)) or s == e
        ledger.check("scan_estimate", op, ok, f"item {i}: scan {s!r} vs estimate {e!r}")


def check_sampled_scan(ledger, op, index, q, rng) -> None:
    """Full scan of ``q``, then the estimate check on sampled items."""
    scores = fneq.neq.scan_scores(q, index)
    ids = rng.choice(index.n, size=min(ESTIMATE_SAMPLE, index.n), replace=False)
    check_estimates(ledger, op, index, q, ids, scores[ids])


def check_cost(ledger, op, index, mode) -> None:
    """``per_item_cost`` and a counted single-item estimate both match
    the contract."""
    want = expected_cost(mode)
    got = fneq.per_item_cost(index)
    counter = fneq.OpCounter()
    q = np.ones(index.metadata.D)
    fneq.estimate_inner_product(q, index.codes.codes[0], index, op_counter=counter)
    counted = {"lookups": counter.lookups, "adds": counter.adds, "multiplies": counter.multiplies}
    if mode in NEQ_MODES:
        ok = got == want and counted == want
    else:
        # pq and rq count one multiply by the fixed norm factor of 1.
        ok = got == want and counted["lookups"] == want["lookups"] and counted["adds"] == 0
    ledger.check("cost_contract", op, ok, f"{mode}: per_item_cost {got}, counted {counted}")


def check_reload(ledger, op, path, index) -> None:
    """A reloaded index equals the saved one bit for bit."""
    loaded = fneq.persist.load_index(path)
    same = (
        loaded.mode == index.mode
        and loaded.codes.codes.dtype == index.codes.codes.dtype
        and loaded.codes.codes.shape == index.codes.codes.shape
        and loaded.codes.codes.tobytes() == index.codes.codes.tobytes()
        and len(loaded.dir_codebooks) == len(index.dir_codebooks)
        and len(loaded.norm_codebooks) == len(index.norm_codebooks)
        and all(
            a.codewords.tobytes() == b.codewords.tobytes()
            for a, b in zip(loaded.dir_codebooks, index.dir_codebooks)
        )
        and all(
            a.values.tobytes() == b.values.tobytes()
            for a, b in zip(loaded.norm_codebooks, index.norm_codebooks)
        )
    )
    ledger.check("reload", op, same, f"{index.mode}: reloaded index differs from {path}")


def build_one(mode, train, full, path):
    """``build``'s recipe: train on the sample, re-encode all, save."""
    trained = fneq.neq.train_index(
        train, mode, M, m_prime(mode), K_STAR, fneq.ClusteringParams(seed=TRAIN_SEED)
    )
    index = fneq.neq.reencode(trained, full)
    fneq.persist.save_index(path, index)
    return index


def truth_ids(dataset, queries: np.ndarray, chunk: int = 100) -> np.ndarray:
    """Exact top-20 ids from ``exact_topk``, a chunk of queries at a time
    to bound the score matrix's memory."""
    parts = [
        fneq.exact_topk(dataset, fneq.QuerySet(queries[i : i + chunk]), TRUTH_DEPTH).ids
        for i in range(0, len(queries), chunk)
    ]
    return np.vstack(parts)


def recall_of(index, queries, truth) -> float:
    values = [
        recall_at(fneq.neq.top_k(q, index, TRUTH_DEPTH)[0], truth[i])
        for i, q in enumerate(queries)
    ]
    return float(np.mean(values))


# -- workloads -------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, size: Size, workdir: str, ledger: Ledger):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.ledger = ledger
        self.passes: list[dict] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> dict:
        raise NotImplementedError

    def check(self, result: dict) -> None:
        pass

    def wall(self) -> float:
        return median(p["wall_s"] for p in self.passes)

    def recalls(self) -> dict[str, float]:
        """Recall@20 of each mode this workload indexes."""
        raise NotImplementedError

    def own_metrics(self) -> dict:
        """This workload's own metrics beyond set-up time and recall."""
        raise NotImplementedError

    def metrics(self, setup_s: float) -> tuple[dict, dict]:
        """``(end_to_end, detail)``, each ``name -> (value, unit)``: the
        gated metrics every workload reports, and this workload's own."""
        recall = self.recalls()
        detail = {
            "setup_s": (setup_s, "s"),
            **self.own_metrics(),
            **{f"recall_at_20.{mode}": (value, "ratio") for mode, value in recall.items()},
        }
        e2e = {
            "setup_s": (setup_s, "s"),
            "wall_s": (self.wall(), "s"),
            "recall_at_20": (float(np.mean(list(recall.values()))), "ratio"),
        }
        return e2e, detail


class Build(Workload):
    """Train on the first n_train items, re-encode all, save: per mode."""

    name = "build"

    def prepare(self):
        s = self.size
        items = make_corpus(self.seed, s.n_items, s.n_train)
        self.inputs = {64: items, 70: pad(items)}
        self.queries = make_queries(self.seed, s.recall_queries, 2)
        self.truth = None
        self.recall: dict[str, float] = {}
        self.first_codes: dict[str, bytes] = {}

    def setup(self):
        n = self.size.n_train
        self.data = {
            dim: (fneq.Dataset(x[:n]), fneq.Dataset(x)) for dim, x in self.inputs.items()
        }

    def run(self):
        times, indexes = {}, {}
        start = time.perf_counter()
        for mode in MODES:
            train, full = self.data[70 if mode in NEQ_MODES else 64]
            t0 = time.perf_counter()
            indexes[mode] = build_one(mode, train, full, self.path(f"{mode}.fneq"))
            times[mode] = time.perf_counter() - t0
        return {"wall_s": time.perf_counter() - start, "build_s": times, "indexes": indexes}

    def check(self, result):
        led = self.ledger
        rng = np.random.default_rng([self.seed, 3, len(self.passes)])
        if self.truth is None:
            self.truth = truth_ids(self.data[64][1], self.queries)
        result["bytes_per_item"] = {}
        for mode, index in result.pop("indexes").items():
            op = led.op()
            path = self.path(f"{mode}.fneq")
            check_reload(led, op, path, index)
            check_cost(led, op, index, mode)
            queries = pad(self.queries) if mode in NEQ_MODES else self.queries
            for qi in rng.choice(len(queries), size=min(4, len(queries)), replace=False):
                check_sampled_scan(led, op, index, queries[qi], rng)
            codes = index.codes.codes.tobytes()
            first = self.first_codes.setdefault(mode, codes)
            led.check("deterministic", op, codes == first, f"{mode}: codes changed between passes")
            if mode not in self.recall:
                self.recall[mode] = recall_of(index, queries, self.truth)
            result["bytes_per_item"][mode] = os.path.getsize(path) / index.n

    def recalls(self):
        return dict(self.recall)

    def own_metrics(self):
        bpi = [v for p in self.passes for v in p["bytes_per_item"].values()]
        return {
            **{
                f"build_s.{m}": (median(p["build_s"][m] for p in self.passes), "s")
                for m in MODES
            },
            "index_bytes_per_item": (float(np.mean(bpi)), "B"),
        }


class Serve(Workload):
    """Single-query top_k on two saved 100k indexes, then the CLI."""

    name = "serve"
    MODES = ("pq", "fuzzy2_neq")

    def prepare(self):
        s = self.size
        items = make_corpus(self.seed, s.n_items, s.n_train)
        q64 = make_queries(self.seed, s.serve_queries, 4)
        inputs = {"pq": (items, q64), "fuzzy2_neq": (pad(items), pad(q64))}
        self.queries = {mode: q for mode, (_, q) in inputs.items()}
        self.built, self.file_bytes, self.load_peak = {}, {}, {}
        for mode, (x, q) in inputs.items():
            path = self.path(f"{mode}.fneq")
            self.built[mode] = build_one(
                mode, fneq.Dataset(x[: s.n_train]), fneq.Dataset(x), path
            )
            self.file_bytes[mode] = os.path.getsize(path)
            fneq.save_fvecs(self.path(f"{mode}.queries.fvecs"), q)
            # Peak allocation of a load, in a call apart from the timed ones.
            tracemalloc.start()
            try:
                fneq.persist.load_index(path)
                self.load_peak[mode] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        self.truth = truth_ids(fneq.Dataset(items), q64)
        self.loaded = None
        self.first_ids: dict[str, np.ndarray] = {}

    def setup(self):
        loaded = {mode: fneq.persist.load_index(self.path(f"{mode}.fneq")) for mode in self.MODES}
        for mode, index in loaded.items():
            fneq.neq.top_k(self.queries[mode][0], index, TRUTH_DEPTH)
        first = self.loaded is None
        self.loaded = loaded
        if first:
            for mode in self.MODES:
                op = self.ledger.op()
                check_reload(self.ledger, op, self.path(f"{mode}.fneq"), self.built[mode])
                check_cost(self.ledger, op, loaded[mode], mode)

    def run(self):
        n_q = self.size.serve_queries
        ids = {mode: np.empty((n_q, TRUTH_DEPTH), dtype=np.int64) for mode in self.MODES}
        scores = {mode: np.empty((n_q, TRUTH_DEPTH)) for mode in self.MODES}
        latency = []
        start = time.perf_counter()
        for i in range(n_q):
            for mode in self.MODES:
                t0 = time.perf_counter()
                got_ids, got_scores = fneq.neq.top_k(self.queries[mode][i], self.loaded[mode], TRUTH_DEPTH)
                latency.append(time.perf_counter() - t0)
                ids[mode][i] = got_ids
                scores[mode][i] = got_scores
        cli_s, codes = {}, {}
        for mode in self.MODES:
            argv = [
                "query",
                "--index", self.path(f"{mode}.fneq"),
                "--queries", self.path(f"{mode}.queries.fvecs"),
                "--format", "fvecs",
                "--k", str(TRUTH_DEPTH),
                "--out", self.path(f"{mode}.ranked.csv"),
            ]
            t0 = time.perf_counter()
            codes[mode] = fneq.cli.main(argv)
            cli_s[mode] = time.perf_counter() - t0
        return {
            "wall_s": time.perf_counter() - start,
            "latency_s": latency,
            "qps": 2 * n_q / sum(cli_s.values()),
            "ids": ids,
            "scores": scores,
            "cli_exit": codes,
        }

    def _cli_ids(self, mode: str) -> np.ndarray:
        table = np.loadtxt(
            self.path(f"{mode}.ranked.csv"), delimiter=",", skiprows=1, usecols=(0, 1, 2),
            dtype=np.int64, ndmin=2,
        )
        out = np.full((self.size.serve_queries, TRUTH_DEPTH), -1, dtype=np.int64)
        out[table[:, 0], table[:, 1] - 1] = table[:, 2]
        return out

    def check(self, result):
        led = self.ledger
        rng = np.random.default_rng([self.seed, 5, len(self.passes)])
        result["recall"] = {}
        for mode in self.MODES:
            index = self.loaded[mode]
            ids, scores = result["ids"].pop(mode), result["scores"].pop(mode)
            exit_ok = result["cli_exit"][mode] == 0
            cli_ids = self._cli_ids(mode) if exit_ok else None
            first = self.first_ids.setdefault(mode, ids)
            for i in range(len(ids)):
                top_op, cli_op = led.op(), led.op()
                led.check("cli_exit", cli_op, exit_ok, f"{mode}: exit {result['cli_exit'][mode]}")
                if exit_ok:
                    led.check(
                        "cli_ids", cli_op, np.array_equal(cli_ids[i], ids[i]),
                        f"{mode} query {i}: CLI ids differ from top_k",
                    )
                led.check(
                    "deterministic", top_op, np.array_equal(first[i], ids[i]),
                    f"{mode} query {i}: ranking changed between passes",
                )
                pick = rng.choice(TRUTH_DEPTH, size=2, replace=False)
                q = self.queries[mode][i]
                check_estimates(led, top_op, index, q, ids[i][pick], scores[i][pick])
                if i % 25 == 0:
                    check_sampled_scan(led, top_op, index, q, rng)
            result["recall"][mode] = float(
                np.mean([recall_at(ids[i], self.truth[i]) for i in range(len(ids))])
            )

    def recalls(self):
        return {m: median(p["recall"][m] for p in self.passes) for m in self.MODES}

    def own_metrics(self):
        latency_ms = np.array([v for p in self.passes for v in p["latency_s"]]) * 1e3
        n = self.built["pq"].n
        return {
            "index_bytes_per_item": (float(np.mean(list(self.file_bytes.values()))) / n, "B"),
            "load_peak_bytes_per_item": (max(self.load_peak.values()) / n, "B"),
            "query_p50_ms": (float(np.percentile(latency_ms, 50)), "ms"),
            "query_p99_ms": (float(np.percentile(latency_ms, 99)), "ms"),
            "query_samples": (int(latency_ms.size), "count"),
            "query_qps": (median(p["qps"] for p in self.passes), "1/s"),
        }


class Bootstrap(Workload):
    """bootstrap_eval on the 10k acceptance corpus, for three modes."""

    name = "bootstrap"
    MODES = ("pq", "neq_kmeans", "fuzzy2_neq")

    def prepare(self):
        s = self.size
        items = make_corpus(self.seed, s.n_train, s.n_train)
        q = make_queries(self.seed, s.boot_queries, 6)
        self.inputs = {64: (items, q), 70: (pad(items), pad(q))}
        self.first_recall: dict[str, float] = {}
        # The exact oracle against a plain sort: it defines every recall here.
        op = self.ledger.op()
        truth = fneq.exact_topk(fneq.Dataset(items), fneq.QuerySet(q), TRUTH_DEPTH).ids
        scores = q @ items.T
        for i, row in enumerate(scores):
            want = np.lexsort((np.arange(row.size), -row))[:TRUTH_DEPTH]
            self.ledger.check("exact_truth", op, np.array_equal(truth[i], want), f"query {i}")

    def setup(self):
        self.data = {
            dim: (fneq.Dataset(x), fneq.QuerySet(q)) for dim, (x, q) in self.inputs.items()
        }

    def run(self):
        reports, times = {}, {}
        start = time.perf_counter()
        for mode in self.MODES:
            dataset, queries = self.data[70 if mode in NEQ_MODES else 64]
            config = fneq.EvalConfig(
                dataset=dataset,
                queries=queries,
                mode=mode,
                m=M,
                m_prime=m_prime(mode),
                k_star=K_STAR,
                params=fneq.ClusteringParams(seed=TRAIN_SEED),
                truth_depth=TRUTH_DEPTH,
                item_counts=self.size.boot_counts,
            )
            t0 = time.perf_counter()
            reports[mode] = fneq.evaluate.bootstrap_eval(
                config, iterations=self.size.boot_iterations, seed=BOOTSTRAP_SEED
            )
            times[mode] = time.perf_counter() - t0
        return {"wall_s": time.perf_counter() - start, "reports": reports, "eval_s": times}

    def check(self, result):
        led = self.ledger
        result["recall"] = {}
        for mode, rep in result.pop("reports").items():
            op = led.op()
            values = rep.recalls + tuple(r for _, r in rep.curve)
            ok = (
                rep.iterations == self.size.boot_iterations
                and len(rep.recalls) == rep.iterations
                and tuple(c for c, _ in rep.curve) == self.size.boot_counts
                and all(0.0 <= v <= 1.0 for v in values)
                and rep.precisions == rep.recalls
            )
            led.check("report", op, ok, f"{mode}: malformed report")
            first = self.first_recall.setdefault(mode, rep.recall_mean)
            led.check(
                "deterministic", op, rep.recall_mean == first,
                f"{mode}: recall {rep.recall_mean} vs {first} on an earlier pass",
            )
            result["recall"][mode] = rep.recall_mean

    def recalls(self):
        return {m: median(p["recall"][m] for p in self.passes) for m in self.MODES}

    def own_metrics(self):
        return {"eval_s": (self.wall(), "s")}


class Tune(Workload):
    """Differential-evolution search of the fuzziness interval, plus a grid."""

    name = "tune"

    def __init__(self, *args, trace_objective=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace_objective = trace_objective

    def prepare(self):
        s = self.size
        items = pad(make_corpus(self.seed, s.n_train, s.n_train))
        directions = items / np.linalg.norm(items, axis=1, keepdims=True)
        self.items = items
        self.points = directions[:, : items.shape[1] // (M - 1)]
        self.queries = pad(make_queries(self.seed, s.tune_queries, 7))
        # A tolerance that never stops the search early keeps the
        # evaluation count fixed: population x (generations + 1).
        self.config = fneq.GAConfig(
            population=s.ga_population, generations=s.ga_generations, seed=TRAIN_SEED,
            tolerance=1e-12,
        )
        self.first = None
        self.recall = None

    def setup(self):
        self.dataset = fneq.Dataset(self.items)
        self.objective = fneq.tuner.make_quantization_mse_objective(
            self.points, K_STAR, fneq.ClusteringParams(seed=TRAIN_SEED)
        )

    def run(self):
        evaluations = [0]
        objective = self.objective

        def counted(xi1, xi2):
            evaluations[0] += 1
            return objective(xi1, xi2)

        if self.trace_objective is not None:
            counted = self.trace_objective(counted)
        start = time.perf_counter()
        best = fneq.tuner.ga_optimize(counted, self.config)
        grid = fneq.tuner.xi_grid(counted, self.config.bounds, steps=self.size.grid_steps)
        wall = time.perf_counter() - start
        return {"wall_s": wall, "best": best, "grid": grid, "evaluations": evaluations[0]}

    def check(self, result):
        led = self.ledger
        op = led.op()
        best, grid = result["best"], result["grid"]
        lo, hi = self.config.bounds
        in_bounds = lo <= best.xi1 <= best.xi2 <= hi
        led.check("genome", op, in_bounds, f"best genome ({best.xi1}, {best.xi2})")
        again = self.objective(best.xi1, best.xi2)
        led.check("tune_cost", op, again == best.cost, f"cost {best.cost} re-evaluates to {again}")
        steps = self.size.grid_steps
        grid_ok = grid.shape == (steps * steps, 3) and bool(np.all(np.isfinite(grid)))
        led.check("grid", op, grid_ok, f"grid of shape {grid.shape}")
        key = (best.xi1, best.xi2, best.cost)
        self.first = self.first or key
        led.check("deterministic", op, key == self.first, f"best {key} vs {self.first}")
        if self.recall is None:
            params = fneq.ClusteringParams(
                seed=TRAIN_SEED, xi_lower=best.xi1, xi_upper=best.xi2,
            )
            index = fneq.neq.train_index(self.dataset, "fuzzy2_neq", M, 1, K_STAR, params)
            self.recall = recall_of(index, self.queries, truth_ids(self.dataset, self.queries))
        result["cost"] = best.cost

    def recalls(self):
        return {"fuzzy2_neq": self.recall}

    def own_metrics(self):
        return {
            "tune_s": (self.wall(), "s"),
            "tune_cost": (median(p["cost"] for p in self.passes), "mse"),
            "tune_evaluations": (median(p["evaluations"] for p in self.passes), "count"),
        }


WORKLOADS = {cls.name: cls for cls in (Build, Serve, Bootstrap, Tune)}

#: Check kinds each workload must have run for its result to count as correct.
REQUIRED_CHECKS = {
    "build": ("reload", "cost_contract", "scan_estimate", "deterministic"),
    "serve": ("reload", "cost_contract", "scan_estimate", "cli_exit", "cli_ids", "deterministic"),
    "bootstrap": ("exact_truth", "report", "deterministic"),
    "tune": ("genome", "tune_cost", "grid", "deterministic"),
}
