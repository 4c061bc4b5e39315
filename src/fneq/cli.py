"""Command-line surface: train, query, eval and tune.

Exit codes: 0 success, 1 usage errors (bad flags, invalid parameters
such as a seed outside [0, 2**64), checked before any input is read), 2
data errors (unreadable or malformed inputs, mismatched dimensions,
corrupt index files, failed writes), 3 training failures. A failure
prints ``fneq <command>: <message>`` to stderr, with ``data error: `` or
``training error: `` before the message for codes 2 and 3.

Every thread pool (sub-space codebook fits, re-encode row blocks, the
tuner's grid, the second thread of an IT2FPCM fit of 4096 points or more
outside a pool) is capped by ``FNEQ_THREADS`` (0 or unset: the CPUs
available), and pools never nest; a value that is not a non-negative
integer exits 1. Output is bit-identical at every cap for one OpenBLAS
thread count, which can itself change IT2FPCM's output. RQ stages and
queries stay single-threaded. Pinning ``OPENBLAS_NUM_THREADS=1`` avoids oversubscription.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager, nullcontext

import numpy as np

from . import io
from .clustering import ClusteringParams, _check_points, _check_seed
from .core import Dataset, QuerySet, thread_cap
from .errors import CorruptionError, InvalidInputError
from .evaluate import (
    EvalConfig,
    _checked_counts,
    bootstrap_eval,
    write_curve_csv,
    write_metrics_csv,
)
from .neq import MODES, _check_training, _ranked, item_sq_norms, train_index
from .persist import _atomic_open, load_index, save_index
from .tuner import (
    GAConfig,
    ga_optimize,
    make_quantization_mse_objective,
    make_recall_objective,
    write_grid_csv,
    xi_grid,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAIN = 3
_LABELS = {EXIT_USAGE: "", EXIT_DATA: "data error: ", EXIT_TRAIN: "training error: "}
#: What reading an input file or an index can raise.
_READ_ERRORS = (OSError, InvalidInputError, CorruptionError)


class _Exit(Exception):
    """Ends the command with exit ``code``; ``main`` prints the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


@contextmanager
def _exits(code: int, *errors: type[Exception], prefix: str = ""):
    """Turn ``errors`` raised in one phase of a command (checking
    parameters, loading, training or writing) into an ``_Exit`` with
    ``code`` and the error's message after ``prefix``."""
    try:
        yield
    except errors as exc:
        raise _Exit(code, f"{prefix}{exc}") from exc


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad flags; the contract here
    reserves 2 for data errors, so usage errors exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fneq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    train = sub.add_parser("train", help="train an index and write it to disk")
    train.add_argument("--data", required=True, help="item matrix file")
    train.add_argument("--format", choices=("fvecs", "csv"), default="csv")
    train.add_argument("--mode", choices=MODES, required=True)
    train.add_argument("--m", type=int, required=True, help="total codebooks")
    train.add_argument("--m-prime", type=int, default=1, help="norm codebooks (NEQ modes)")
    train.add_argument("--k-star", type=int, required=True, help="codewords per codebook")
    train.add_argument("--xi1", type=float, default=ClusteringParams.xi_lower)
    train.add_argument("--xi2", type=float, default=ClusteringParams.xi_upper)
    train.add_argument("--epsilon", type=float, default=ClusteringParams.epsilon)
    train.add_argument("--max-iters", type=int, default=ClusteringParams.max_iters)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--out", required=True, help="index file to write")

    query = sub.add_parser("query", help="rank items for each query")
    query.add_argument("--index", required=True)
    query.add_argument("--queries", required=True)
    query.add_argument("--format", choices=("fvecs", "csv"), default="csv")
    query.add_argument("--k", type=int, default=20)
    query.add_argument("--ranking", choices=("inner_product", "distance"), default="inner_product")
    query.add_argument("--out", default=None, help="output CSV (stdout when omitted)")

    ev = sub.add_parser("eval", help="bootstrap benchmark with metric and curve CSVs")
    ev.add_argument("--index", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--queries", required=True)
    ev.add_argument("--format", choices=("fvecs", "csv"), default="csv")
    ev.add_argument("--truth-depth", type=int, default=20)
    ev.add_argument("--iterations", type=int, default=10)
    ev.add_argument("--items-list", default=None, help="comma-separated curve item counts")
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--dataset-label", default="dataset")
    ev.add_argument("--out-prefix", required=True)

    tune = sub.add_parser("tune", help="search the fuzziness interval")
    tune.add_argument("--data", required=True)
    tune.add_argument("--format", choices=("fvecs", "csv"), default="csv")
    tune.add_argument("--bounds", type=float, nargs=2, default=GAConfig.bounds, metavar=("LOW", "HIGH"))
    tune.add_argument("--objective", choices=("mse", "recall"), default="mse")
    tune.add_argument("--k-star", type=int, default=16)
    tune.add_argument("--m", type=int, default=3, help="total codebooks (recall objective)")
    tune.add_argument("--m-prime", type=int, default=1)
    tune.add_argument("--queries", default=None, help="query file (recall objective)")
    tune.add_argument("--population", type=int, default=GAConfig.population)
    tune.add_argument("--generations", type=int, default=GAConfig.generations)
    tune.add_argument("--grid-steps", type=int, default=8)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--out-grid", required=True)
    return parser


def _load_queries(path: str, fmt: str, dim: int) -> QuerySet:
    queries = io.load_matrix(path, fmt)
    query_set = QuerySet(queries if queries.size else np.empty((0, dim)))
    if query_set.count and query_set.dim != dim:
        raise InvalidInputError(f"queries have D={query_set.dim} but D={dim} is expected")
    return query_set


def _load_dataset(args) -> Dataset:
    """``--data`` as a ``Dataset`` whose squared distances do not overflow."""
    dataset = Dataset(io.load_matrix(args.data, args.format))
    _check_points(dataset.items, 1)
    return dataset


def _cmd_train(args) -> int:
    with _exits(EXIT_USAGE, InvalidInputError):
        params = ClusteringParams(
            xi_lower=args.xi1,
            xi_upper=args.xi2,
            epsilon=args.epsilon,
            max_iters=args.max_iters,
            seed=args.seed,
        )
        _check_training(args.mode, args.m, args.m_prime, args.k_star)
    with _exits(EXIT_DATA, *_READ_ERRORS):
        dataset = _load_dataset(args)
    with _exits(EXIT_TRAIN, InvalidInputError):
        index = train_index(dataset, args.mode, args.m, args.m_prime, args.k_star, params)
    with _exits(EXIT_DATA, OSError):
        save_index(args.out, index)
    layout = index.layout
    print(
        f"trained {index.mode}: D={index.metadata.D} D*={layout.D_star} n={index.n} "
        f"m={index.metadata.m} m'={index.m_prime} k*={index.metadata.k_star} -> {args.out}"
    )
    return EXIT_OK


def _cmd_query(args) -> int:
    with _exits(EXIT_DATA, *_READ_ERRORS):
        index = load_index(args.index)
        queries = _load_queries(args.queries, args.format, index.metadata.D).queries
    if args.k < 1 or args.k > index.n:
        raise _Exit(EXIT_USAGE, f"--k must lie in [1, {index.n}]")

    out = _atomic_open(args.out, "x", newline="", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with _exits(EXIT_DATA, OSError), out as fh:
        writer = csv.writer(fh)
        writer.writerow(("query_id", "rank", "item_id", "score"))
        sq_norms = item_sq_norms(index) if args.ranking == "distance" else None
        for qi, q in enumerate(queries):
            ids, scores = _ranked(q, index, args.k, sq_norms)
            for rank, (item, score) in enumerate(zip(ids, scores), start=1):
                writer.writerow((qi, rank, int(item), f"{score:.9g}"))
    return EXIT_OK


def _cmd_eval(args) -> int:
    with _exits(EXIT_USAGE, InvalidInputError):
        _check_seed(args.seed)
    if args.iterations < 1:
        raise _Exit(EXIT_USAGE, "--iterations must be at least 1")
    with _exits(EXIT_DATA, *_READ_ERRORS):
        index = load_index(args.index)
        dataset = _load_dataset(args)
        query_set = _load_queries(args.queries, args.format, dataset.dim)
    if args.truth_depth < 1 or args.truth_depth > dataset.n:
        raise _Exit(EXIT_USAGE, f"--truth-depth must lie in [1, {dataset.n}]")

    counts = None
    if args.items_list:
        with _exits(EXIT_USAGE, ValueError, prefix="--items-list: "):
            counts = tuple(_checked_counts(args.items_list.split(","), args.truth_depth, dataset.n))

    md = index.metadata
    config = EvalConfig(
        dataset=dataset,
        queries=query_set,
        mode=index.mode,
        m=md.m,
        m_prime=md.m_prime,
        k_star=md.k_star,
        params=ClusteringParams(seed=md.seed),
        truth_depth=args.truth_depth,
        item_counts=counts,
        dataset_label=args.dataset_label,
    )
    with _exits(EXIT_TRAIN, InvalidInputError):
        report = bootstrap_eval(config, iterations=args.iterations, seed=args.seed)
    metrics_path = f"{args.out_prefix}_metrics.csv"
    curve_path = f"{args.out_prefix}_curve.csv"
    with _exits(EXIT_DATA, OSError):
        write_metrics_csv(metrics_path, [report])
        write_curve_csv(curve_path, report.curve)
    print(
        f"{report.method} on {report.dataset_label}: recall={report.recall_mean:.4f} "
        f"precision={report.precision_mean:.4f} f1={report.f1_mean:.4f} "
        f"time={report.time_mean:.3f}s std={report.recall_std:.4f}"
    )
    print(f"wrote {metrics_path} and {curve_path}")
    return EXIT_OK


def _cmd_tune(args) -> int:
    with _exits(EXIT_USAGE, InvalidInputError):
        config = GAConfig(
            population=args.population,
            bounds=(args.bounds[0], args.bounds[1]),
            seed=args.seed,
            generations=args.generations,
        )
        params = ClusteringParams(seed=args.seed)
        if args.objective == "recall":
            _check_training("fuzzy2_neq", args.m, args.m_prime, args.k_star)
        elif args.k_star < 1:
            raise InvalidInputError("k_star must be at least 1")
    if args.objective == "recall" and not args.queries:
        raise _Exit(EXIT_USAGE, "--objective recall requires --queries")
    if args.grid_steps < 2:
        raise _Exit(EXIT_USAGE, "--grid-steps must be at least 2")
    with _exits(EXIT_DATA, *_READ_ERRORS):
        dataset = _load_dataset(args)
        if args.objective == "recall":
            query_set = _load_queries(args.queries, args.format, dataset.dim)
            if not query_set.count:
                raise InvalidInputError("the recall objective needs at least one query")
    with _exits(EXIT_TRAIN, InvalidInputError):
        if args.objective == "mse":
            objective = make_quantization_mse_objective(dataset.items, args.k_star, params)
        else:
            objective = make_recall_objective(
                dataset,
                query_set,
                m=args.m,
                m_prime=args.m_prime,
                k_star=args.k_star,
                params=params,
            )
        result = ga_optimize(objective, config)
        grid = xi_grid(objective, config.bounds, steps=args.grid_steps)
    with _exits(EXIT_DATA, OSError):
        write_grid_csv(args.out_grid, grid)
    print(f"best xi1={result.xi1:.4f} xi2={result.xi2:.4f} cost={result.cost:.6g}")
    print(f"wrote {args.out_grid}")
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "query": _cmd_query,
    "eval": _cmd_eval,
    "tune": _cmd_tune,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _exits(EXIT_USAGE, InvalidInputError):
            thread_cap()  # a malformed FNEQ_THREADS fails before any input is read
        return _COMMANDS[args.command](args)
    except _Exit as exc:
        print(f"fneq {args.command}: {_LABELS[exc.code]}{exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
