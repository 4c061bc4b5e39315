"""Command-line surface: train, query, eval and tune.

Exit codes: 0 success, 1 usage errors, 2 data errors (unreadable or
malformed inputs, mismatched dimensions, corrupt index files), 3
training failures. fneq starts no threads of its own, so
``FNEQ_THREADS`` no longer sets any parallelism in it;
``fneq.evaluate.thread_cap()`` still reads the variable because the
benchmark records that value.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import io
from .clustering import ClusteringParams
from .core import Dataset, QuerySet
from .errors import CorruptionError, InvalidInputError
from .evaluate import (
    EvalConfig,
    _checked_counts,
    bootstrap_eval,
    write_curve_csv,
    write_metrics_csv,
)
from .neq import MODES, item_sq_norms, scan_scores, select_top_k, train_index
from .persist import load_index, save_index
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


class _UsageError(Exception):
    pass


class _DataError(Exception):
    pass


class _TrainError(Exception):
    pass


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
    train.add_argument("--xi1", type=float, default=8.5)
    train.add_argument("--xi2", type=float, default=9.1)
    train.add_argument("--epsilon", type=float, default=1e-5)
    train.add_argument("--max-iters", type=int, default=100)
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
    tune.add_argument("--bounds", type=float, nargs=2, default=(2.0, 12.0), metavar=("LOW", "HIGH"))
    tune.add_argument("--objective", choices=("mse", "recall"), default="mse")
    tune.add_argument("--k-star", type=int, default=16)
    tune.add_argument("--m", type=int, default=3, help="total codebooks (recall objective)")
    tune.add_argument("--m-prime", type=int, default=1)
    tune.add_argument("--queries", default=None, help="query file (recall objective)")
    tune.add_argument("--population", type=int, default=10)
    tune.add_argument("--generations", type=int, default=50)
    tune.add_argument("--grid-steps", type=int, default=8)
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--out-grid", required=True)
    return parser


def _load_matrix(path: str, fmt: str):
    try:
        return io.load_matrix(path, fmt)
    except (OSError, InvalidInputError) as exc:
        raise _DataError(str(exc)) from exc


def _load_dataset(path: str, fmt: str) -> Dataset:
    items = _load_matrix(path, fmt)
    try:
        return Dataset(items)
    except InvalidInputError as exc:
        raise _DataError(str(exc)) from exc


def _load_queries(path: str, fmt: str, dim: int) -> QuerySet:
    queries = _load_matrix(path, fmt)
    try:
        query_set = QuerySet(queries if queries.size else np.empty((0, dim)))
    except InvalidInputError as exc:
        raise _DataError(str(exc)) from exc
    if query_set.count and query_set.dim != dim:
        raise _DataError(f"queries have D={query_set.dim} but D={dim} is expected")
    return query_set


def _cmd_train(args) -> int:
    dataset = _load_dataset(args.data, args.format)
    params = ClusteringParams(
        xi_lower=args.xi1,
        xi_upper=args.xi2,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        seed=args.seed,
    )
    try:
        index = train_index(dataset, args.mode, args.m, args.m_prime, args.k_star, params)
    except InvalidInputError as exc:
        raise _TrainError(str(exc)) from exc
    try:
        save_index(args.out, index)
    except OSError as exc:
        raise _DataError(str(exc)) from exc
    layout = index.layout
    print(
        f"trained {index.mode}: D={index.metadata.D} D*={layout.D_star} n={index.n} "
        f"m={index.metadata.m} m'={index.m_prime} k*={index.metadata.k_star} -> {args.out}"
    )
    return EXIT_OK


def _cmd_query(args) -> int:
    try:
        index = load_index(args.index)
    except (OSError, CorruptionError) as exc:
        raise _DataError(str(exc)) from exc
    queries = _load_queries(args.queries, args.format, index.metadata.D).queries
    if args.k < 1 or args.k > index.n:
        raise _UsageError(f"--k must lie in [1, {index.n}]")

    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(("query_id", "rank", "item_id", "score"))
        sq_norms = item_sq_norms(index) if args.ranking == "distance" else None
        for qi in range(queries.shape[0]):
            scores = scan_scores(queries[qi], index)
            if sq_norms is not None:
                q = queries[qi]
                scores = -(q @ q - 2.0 * scores + sq_norms)
            ids = select_top_k(scores, args.k)
            for rank, item in enumerate(ids, start=1):
                writer.writerow((qi, rank, int(item), f"{scores[item]:.9g}"))
    finally:
        if args.out:
            out.close()
    return EXIT_OK


def _cmd_eval(args) -> int:
    try:
        index = load_index(args.index)
    except (OSError, CorruptionError) as exc:
        raise _DataError(str(exc)) from exc
    dataset = _load_dataset(args.data, args.format)
    query_set = _load_queries(args.queries, args.format, dataset.dim)
    if args.truth_depth < 1 or args.truth_depth > dataset.n:
        raise _UsageError(f"--truth-depth must lie in [1, {dataset.n}]")

    counts = None
    if args.items_list:
        try:
            counts = tuple(_checked_counts(args.items_list.split(","), args.truth_depth, dataset.n))
        except (ValueError, InvalidInputError) as exc:
            raise _UsageError(f"--items-list: {exc}") from exc

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
    try:
        report = bootstrap_eval(config, iterations=args.iterations, seed=args.seed)
    except InvalidInputError as exc:
        raise _TrainError(str(exc)) from exc
    metrics_path = f"{args.out_prefix}_metrics.csv"
    curve_path = f"{args.out_prefix}_curve.csv"
    try:
        write_metrics_csv(metrics_path, [report])
        write_curve_csv(curve_path, report.curve)
    except OSError as exc:
        raise _DataError(str(exc)) from exc
    print(
        f"{report.method} on {report.dataset_label}: recall={report.recall_mean:.4f} "
        f"precision={report.precision_mean:.4f} f1={report.f1_mean:.4f} "
        f"time={report.time_mean:.3f}s std={report.recall_std:.4f}"
    )
    print(f"wrote {metrics_path} and {curve_path}")
    return EXIT_OK


def _cmd_tune(args) -> int:
    dataset = _load_dataset(args.data, args.format)
    try:
        config = GAConfig(
            population=args.population,
            bounds=(args.bounds[0], args.bounds[1]),
            seed=args.seed,
            generations=args.generations,
        )
    except InvalidInputError as exc:
        raise _UsageError(str(exc)) from exc
    params = ClusteringParams(seed=args.seed)
    if args.objective == "recall":
        if not args.queries:
            raise _UsageError("--objective recall requires --queries")
        query_set = _load_queries(args.queries, args.format, dataset.dim)
        if not query_set.count:
            raise _DataError("the recall objective needs at least one query")
    try:
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
    except InvalidInputError as exc:
        raise _TrainError(str(exc)) from exc
    try:
        write_grid_csv(args.out_grid, grid)
    except OSError as exc:
        raise _DataError(str(exc)) from exc
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
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"fneq {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _DataError as exc:
        print(f"fneq {args.command}: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _TrainError as exc:
        print(f"fneq {args.command}: training error: {exc}", file=sys.stderr)
        return EXIT_TRAIN


if __name__ == "__main__":
    sys.exit(main())
