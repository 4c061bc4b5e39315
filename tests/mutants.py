"""Mutation checks: each entry edits the program once, and the tests it
names must then fail.

Run from anywhere, with the checkout's test dependencies installed:

    python tests/mutants.py          # every mutant
    python tests/mutants.py 0 4      # the mutants at these positions

Each mutant runs in a fresh copy of the whole checkout (without ``.git``)
in a temporary directory, where its one edit is applied and its tests run
with ``python -m pytest -x -q -p no:cacheprovider``. The whole tree is
copied because ``pyproject.toml`` puts the checkout's own ``src/`` first on
pytest's path. A mutant is *killed* when its tests fail, *survived* when
they pass, and *stale* when its old text does not occur exactly once in
its file. pytest does not collect this file; ``test_mutants.py`` checks
that no entry is stale.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str  # relative to the checkout's root
    old: str  # occurs exactly once in ``path``
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the checkout's root


TUNER, CLUSTERING = "src/fneq/tuner.py", "src/fneq/clustering.py"
NEQ, QUANTIZERS, AGGREGATION = "src/fneq/neq.py", "src/fneq/quantizers.py", "src/fneq/aggregation.py"
HISTORY = "tests/test_tuner.py::TestGaOptimize::test_best_history_is_the_least_cost_evaluated_by_each_generation"
REPAIR = "tests/test_clustering.py::TestKMeans::test_empty_cells_take_the_farthest_points_ties_by_index"
LLOYD = "tests/test_properties.py::test_kmeans_equals_lloyd_reference_bit_for_bit"
IT2FPCM = "tests/test_properties.py::test_it2fpcm_equals_reference_bit_for_bit"
STAGES = "tests/test_properties.py::test_stage_kernels_equal_references_bit_for_bit"
EXACT = ("tests/test_evaluate.py::TestExactTopk::test_full_depth_orders_everything",
         "tests/test_evaluate.py::TestExactTopk::test_matches_full_sort_oracle")
NON_FINITE_QUERY = "tests/test_neq.py::TestTopK::test_query_that_cannot_be_ranked_is_rejected"
SUGENO_COPIES = "tests/test_aggregation.py::TestSugenoIntegral::test_inputs_are_read_only_copies"

MUTANTS = (
    Mutant(TUNER, "history.append(float(intermediate_result.fun))",
           "history.append(float(intermediate_result.x[0]))",
           (HISTORY, "tests/test_tuner.py::TestMseObjective::test_search_above_the_split_threshold_is_pinned")),
    Mutant(TUNER, "        if math.isnan(cost):", "        if False:",
           ("tests/test_tuner.py::TestGaOptimize::test_a_nan_cost_fails_its_genome",)),
    Mutant(TUNER, "                _check_points(holdout, 1)\n", "",
           ("tests/test_tuner.py::TestMseObjective::test_data_fault_on_the_first_call_names_its_genome",)),
    Mutant(CLUSTERING, "        if tau != mu:", "        if False:",
           ("tests/test_clustering.py::TestIt2fpcm::test_possibilities_of_another_shape_are_rejected",)),
    Mutant(CLUSTERING, 'np.argsort(-closest, kind="stable")', 'np.argsort(closest, kind="stable")', (REPAIR, LLOYD)),
    Mutant(CLUSTERING, "far = far[closest[far] > 0]", "far = far[closest[far] >= 0]", (REPAIR, LLOYD)),
    Mutant(CLUSTERING, 'np.argsort(-closest, kind="stable")', "np.argsort(-closest)", (REPAIR, LLOYD)),
    # One exit from the IT2FPCM loop, the index-layout rule, the exact top-t and the query checks.
    Mutant(CLUSTERING, "converged = improvement < params.epsilon", "converged = improvement > params.epsilon",
           ("tests/test_clustering.py::TestIt2fpcm::test_interval_ordering_and_range", IT2FPCM)),
    Mutant(CLUSTERING, "            objective, v_lo, v_up, mu, tau = best\n", "            pass\n", (IT2FPCM,)),
    Mutant(NEQ, "if layout.m_dir != (m_dir := _mode_m_dir(self.mode, md.m, md.m_prime)):", "if False:",
           ("tests/test_neq.py::TestIndexArtifact::test_direction_codebooks_must_follow_the_layout",)),
    Mutant("src/fneq/evaluate.py", "[dataset.n], t)", "[dataset.n - 1], t)", EXACT),
    Mutant(QUANTIZERS, '    _require_finite(q, "q")\n', "", (NON_FINITE_QUERY,)),
    Mutant(QUANTIZERS, '"tables", _frozen(np.asarray(self.tables, dtype=np.float64))',
           '"tables", np.asarray(self.tables, dtype=np.float64)',
           ("tests/test_quantizers.py::TestAdcTable::test_tables_are_a_read_only_copy",)),
    Mutant(AGGREGATION, '"h_values", _frozen(h)', '"h_values", h', (SUGENO_COPIES,)),
    Mutant(AGGREGATION, '"memberships", _frozen(mem)', '"memberships", mem', (SUGENO_COPIES,)),
    # Recorded by hand on scratch copies before this catalogue existed.
    Mutant(QUANTIZERS, "out[:, sl] += cb.codewords[col]", "out[:, sl] = cb.codewords[col]", (STAGES,)),
    Mutant(QUANTIZERS, "residual[:, sl] -= cb.codewords[codes[:, j]]", "pass", (STAGES,)),
    Mutant(CLUSTERING, "partitions(mid, points[:half]), lambda: partitions(mid, points[half:])",
           "partitions(mid, points[half:]), lambda: partitions(mid, points[:half])",
           ("tests/test_properties.py::test_it2fpcm_from_its_kmeans_plusplus_start_equals_reference_bit_for_bit",
            "tests/test_cli.py::TestTune::test_grid_file_and_best_line_identical_at_one_and_two_threads_above_the_threshold")),
    Mutant(TUNER, "            if isinstance(exc, InvalidInputError):  # a data fault keeps its type\n"
                  '                raise InvalidInputError(f"{exc}, at {genome}") from exc\n', "",
           ("tests/test_cli.py::TestExitCodes::test_failure_exit_code_and_message[tune-recall-codewords-beyond-float32]",
            "tests/test_tuner.py::TestMseObjective::test_data_fault_on_the_first_call_names_its_genome")),
    Mutant(QUANTIZERS, "tol=TRAINING_TOL, exact_inertia=False)", "tol=TRAINING_TOL)",
           ("tests/test_quantizers.py::test_every_training_fit_stops_at_the_training_tolerance",)),
    Mutant(CLUSTERING, "return d2.argmin(axis=0), float(", "return len(d2) - 1 - d2[::-1].argmin(axis=0), float(",
           (LLOYD,)),
)


def occurrences(mutant: Mutant) -> int:
    return (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old)


def run(mutant: Mutant) -> str:
    """``killed``, ``survived``, ``stale`` or ``error (pytest exit N)``."""
    if occurrences(mutant) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="fneq-mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "_out", "_work"))
        target = copy / mutant.path
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, capture_output=True, text=True,
        )
    return {0: "survived", 1: "killed"}.get(done.returncode, f"error (pytest exit {done.returncode})")


def main(argv: list[str]) -> int:
    picked = [int(a) for a in argv] or range(len(MUTANTS))
    tally: dict[str, int] = {}
    for i in picked:
        mutant = MUTANTS[i]
        status = run(mutant)
        tally[status] = tally.get(status, 0) + 1
        print(f"{i:3d} {status:9s} {mutant.path}: {mutant.old.strip()!r} -> {mutant.new.strip()!r}", flush=True)
    print(", ".join(f"{status} {count}" for status, count in sorted(tally.items())))
    return 0 if set(tally) <= {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
