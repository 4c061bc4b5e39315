"""Search for the fuzziness interval [xi1, xi2] by differential evolution.

The search runs scipy's differential evolution with a small population,
mutation 0.5, recombination 0.7 and tolerance 0.01. Genomes are repaired by
swapping so the evaluated pair always satisfies ``xi1 <= xi2``; the best cost
recorded per generation is monotone non-increasing. A NaN cost fails its genome.

The default codebook objective is the mean squared quantization error of
the fused fuzzy codebook on a held-out split; a recall-based objective
is available but far slower. ``xi_grid`` calls either once per unordered
pair, through ``core._thread_map``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import differential_evolution

from .clustering import ClusteringParams, _check_points, kmeans_plusplus
from .core import Dataset, QuerySet, SubVectorLayout, _thread_map, row_norms
from .errors import InvalidInputError
from .evaluate import exact_topk, recall
from .neq import _check_training, _fuzzy_fit, top_k, train_index
from .persist import _write_csv
from .quantizers import nearest_codes

GRID_HEADER = ("xi1", "xi2", "cost")


@dataclass(frozen=True)
class GAConfig:
    """Evolution-search settings; bounds apply to both genes."""

    population: int = 10
    mutation_rate: float = 0.5
    recombination_rate: float = 0.7
    tolerance: float = 0.01
    bounds: tuple[float, float] = (2.0, 12.0)
    seed: int = 0
    generations: int = 50

    def __post_init__(self):
        if self.population < 2:
            raise InvalidInputError("population must be at least 2")
        for name in ("mutation_rate", "recombination_rate"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise InvalidInputError(f"{name} must lie in [0, 1]")
        if self.tolerance <= 0:
            raise InvalidInputError("tolerance must be positive")
        lo, hi = self.bounds
        if not (lo < hi):
            raise InvalidInputError("bounds must satisfy low < high")
        if lo <= 1.0:
            raise InvalidInputError("fuzziness genes must stay above 1")


@dataclass(frozen=True)
class GAResult:
    xi1: float
    xi2: float
    cost: float
    n_generations: int
    n_evaluations: int
    best_history: tuple[float, ...]


def _repaired(objective):
    def call(genome):
        x1, x2 = float(min(genome)), float(max(genome))
        genome = f"genome (xi1={x1:.6g}, xi2={x2:.6g})"
        try:
            cost = float(objective(x1, x2))
        except Exception as exc:
            if isinstance(exc, InvalidInputError):  # a data fault keeps its type
                raise InvalidInputError(f"{exc}, at {genome}") from exc
            raise RuntimeError(f"objective failed at {genome}") from exc
        if math.isnan(cost):  # scipy's argmin would rank it best
            raise RuntimeError(f"objective returned NaN at {genome}")
        return cost

    return call


def ga_optimize(objective, config: GAConfig) -> GAResult:
    """Minimize ``objective(xi1, xi2)`` over the configured bounds.

    Terminates when the population cost spread falls under the
    tolerance or the generation cap is reached; the returned genome
    always satisfies ``xi1 <= xi2``. ``best_history[g]`` is the least cost
    evaluated by generation ``g``'s end, as scipy (>= 1.12) passes it.
    """
    history: list[float] = []
    try:
        result = differential_evolution(
            _repaired(objective),
            bounds=[config.bounds, config.bounds],
            maxiter=config.generations,
            popsize=max(2, math.ceil(config.population / 2)),
            mutation=config.mutation_rate,
            recombination=config.recombination_rate,
            tol=config.tolerance,
            seed=config.seed,
            polish=False,
            callback=lambda intermediate_result: history.append(float(intermediate_result.fun)),
        )
    except RuntimeError as exc:  # scipy re-raises the objective's ValueErrors as RuntimeError
        raise exc.__cause__ if isinstance(exc.__cause__, InvalidInputError) else exc
    xi1, xi2 = sorted(float(v) for v in result.x)
    return GAResult(
        xi1=xi1,
        xi2=xi2,
        cost=float(result.fun),
        n_generations=int(result.nit),
        n_evaluations=int(result.nfev),
        best_history=tuple(history),
    )


def xi_grid(objective, bounds: tuple[float, float], steps: int = 12) -> np.ndarray:
    """Evaluate the (repaired) objective on a square grid; rows are
    ``(xi1, xi2, cost)`` in row-major order for the heat-map export. The
    objective runs once per unordered pair through ``_thread_map``, so it
    must be thread-safe. The first failing pair in row-major order raises, NaN costs included."""
    if steps < 2:
        raise InvalidInputError("steps must be at least 2")
    wrapped = _repaired(objective)
    axis = np.linspace(bounds[0], bounds[1], steps)
    i, j = np.triu_indices(steps)
    cost = np.empty((steps, steps))
    cost[i, j] = cost[j, i] = _thread_map(wrapped, zip(axis[i], axis[j]))
    return np.column_stack([np.repeat(axis, steps), np.tile(axis, steps), cost.ravel()])


def write_grid_csv(path, grid: np.ndarray) -> None:
    rows = ([f"{x1:.6f}", f"{x2:.6f}", f"{cost:.10g}"] for x1, x2, cost in grid)
    _write_csv(path, GRID_HEADER, rows)


def _at_interval(params: ClusteringParams, cost):
    """``objective(xi1, xi2)``: ``cost`` of ``params`` with fuzziness and possibility [xi1, xi2]."""
    return lambda xi1, xi2: cost(
        replace(params, xi_lower=xi1, xi_upper=xi2, eta_lower=xi1, eta_upper=xi2))


def make_quantization_mse_objective(points: np.ndarray, k_star: int, params: ClusteringParams):
    """Cost = mean squared quantization error of the fused codebook on a held-out
    quarter of ``points``. Genomes change only the interval, so every fit starts from
    the one k-means++ start at ``params.seed``, drawn by the first call, which validates both splits."""
    points = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(params.seed)
    order = rng.permutation(points.shape[0])
    n_hold = max(1, points.shape[0] // 4)
    holdout = points[order[:n_hold]]
    train = points[order[n_hold:]]
    if train.shape[0] < k_star:
        raise InvalidInputError("not enough training points for the requested k_star")

    start, lock = [], threading.Lock()

    def cost(p: ClusteringParams) -> float:
        with lock:  # the grid's pool threads may make the first call
            if not start:
                _check_points(holdout, 1)
                start.append(kmeans_plusplus(_check_points(train, k_star), k_star, np.random.default_rng(params.seed)))
        codebook = _fuzzy_fit(k_star, p, None, start[0])(train, p.seed)[0]
        err = holdout - codebook.codewords[nearest_codes(holdout, codebook)]
        return float(np.mean(np.einsum("ij,ij->i", err, err)))

    return _at_interval(params, cost)


def make_recall_objective(
    dataset: Dataset,
    queries: QuerySet,
    m: int,
    m_prime: int,
    k_star: int,
    params: ClusteringParams,
    truth_depth: int = 20,
):
    """Cost = negated mean recall of a fuzzy index at the given setting.

    Retrains the whole index per evaluation; use small data. The checks that
    no genome changes (the layout, ``k_star`` against the non-zero items) run
    before the exact truth.
    """
    if not queries.count:
        raise InvalidInputError("the recall objective needs at least one query")
    SubVectorLayout(D=dataset.dim, m_dir=_check_training("fuzzy2_neq", m, m_prime, k_star)[1])
    nonzero = int(np.count_nonzero(row_norms(dataset.items)))
    if k_star > nonzero:
        raise InvalidInputError(f"k_star={k_star} exceeds the {nonzero} non-zero items")
    truth = exact_topk(dataset, queries, truth_depth)

    def cost(p: ClusteringParams) -> float:
        index = train_index(dataset, "fuzzy2_neq", m, m_prime, k_star, p)
        recalls = [recall(top_k(q, index, truth_depth)[0], truth.ids[i])
                   for i, q in enumerate(queries.queries)]
        return -float(np.mean(recalls))

    return _at_interval(params, cost)
