"""Which ``fneq`` functions the traced run times, and the per-layer
metrics it derives from their spans.

Every metric is per timed pass, plus the set-up done once: a span under
the ``bench.setup`` root counts once, a span under a ``bench.pass``
root counts ``1 / passes``. The scan counts are computed, not measured:
the public ``per_item_cost`` times the items each ``scan_scores`` call
covered, so they repeat exactly at a fixed seed.
"""

from __future__ import annotations

import os
from statistics import median

import numpy as np

#: (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("core.Dataset.self_s", "s"),
    ("core.CodeMatrix.self_s", "s"),
    ("clustering.kmeans.calls", "count"),
    ("clustering.kmeans.self_s", "s"),
    ("clustering.kmeans.iters", "count"),
    ("clustering.kmeans.iter_ms", "ms"),
    ("clustering.kmeans.converged_ratio", "ratio"),
    ("clustering.it2fpcm.calls", "count"),
    ("clustering.it2fpcm.self_s", "s"),
    ("clustering.it2fpcm.iters", "count"),
    ("clustering.it2fpcm.iter_ms", "ms"),
    ("clustering.it2fpcm.converged_ratio", "ratio"),
    ("clustering.kmeans_scalar.self_s", "s"),
    ("clustering.encode_scalar.self_s", "s"),
    ("aggregation.fuse_codebooks.calls", "count"),
    ("aggregation.fuse_codebooks.self_s", "s"),
    ("aggregation.fuse_codebooks.distinct_ratio", "ratio"),
    ("quantizers.encode_batch.self_s", "s"),
    ("quantizers.encode_batch.rows", "count"),
    ("quantizers.decode.self_s", "s"),
    ("quantizers.build_adc_table.calls", "count"),
    ("quantizers.build_adc_table.self_s", "s"),
    ("neq.train_index.self_s", "s"),
    ("neq.reencode.self_s", "s"),
    ("neq.reencode.rows", "count"),
    ("neq.scan_scores.calls", "count"),
    ("neq.scan_scores.self_s", "s"),
    ("neq.scan_scores.items", "count"),
    ("neq.scan_scores.ns_per_item", "ns"),
    ("neq.scan_scores.lookups", "count"),
    ("neq.scan_scores.adds", "count"),
    ("neq.scan_scores.multiplies", "count"),
    ("neq.scan_scores.bytes_read", "B"),
    ("neq.select_top_k.calls", "count"),
    ("neq.select_top_k.self_s", "s"),
    ("persist.save_index.self_s", "s"),
    ("persist.save_index.bytes", "B"),
    ("persist.load_index.self_s", "s"),
    ("persist.load_index.peak_bytes", "B"),
    ("io.load_matrix.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("evaluate.exact_topk.self_s", "s"),
    ("evaluate.recall_item_curve.self_s", "s"),
    ("evaluate.bootstrap_eval.self_s", "s"),
    ("tuner.objective.calls", "count"),
    ("tuner.objective.self_s", "s"),
    ("tuner.ga_optimize.self_s", "s"),
    ("tuner.xi_grid.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
)


def distinct_codewords(codewords: np.ndarray) -> int:
    """Codewords that differ by more than 1e-6 of their RMS norm."""
    scale = float(np.sqrt(np.mean(codewords**2))) or 1.0
    return int(np.unique(np.round(codewords / scale, 6), axis=0).shape[0])


def install(tracer, fneq) -> None:
    """Rebind the traced names; hooks record counts on each span."""

    def iterations(span, args, kwargs, result):
        tracer.count(span, iters=result.n_iter, converged=int(result.converged))

    def distinct(span, args, kwargs, result):
        tracer.count(span, distinct=distinct_codewords(result.codewords) / result.k_star)

    def first_arg_rows(span, args, kwargs, result):
        tracer.count(span, rows=np.shape(args[0])[0])

    def dataset_rows(span, args, kwargs, result):
        tracer.count(span, rows=args[1].n)

    def scan(span, args, kwargs, result):
        index = args[1]
        items = int(result.shape[0])
        cost = fneq.neq.per_item_cost(index)
        code_bytes = index.codes.codes.itemsize
        table_bytes = 8 * index.metadata.k_star * (index.n_parts + index.m_prime)
        tracer.count(
            span,
            items=items,
            lookups=items * cost["lookups"],
            adds=items * cost["adds"],
            multiplies=items * cost["multiplies"],
            bytes_read=items * (cost["lookups"] + cost["adds"]) * code_bytes + table_bytes,
        )

    def saved(span, args, kwargs, result):
        tracer.count(span, bytes=os.path.getsize(args[0]))

    targets = (
        (fneq.clustering, "kmeans", "clustering.kmeans", iterations),
        (fneq.clustering, "it2fpcm", "clustering.it2fpcm", iterations),
        (fneq.clustering, "kmeans_scalar", "clustering.kmeans_scalar", None),
        (fneq.clustering, "kmeans_scalar_signed", "clustering.kmeans_scalar", None),
        (fneq.clustering, "encode_scalar", "clustering.encode_scalar", None),
        (fneq.aggregation, "fuse_codebooks", "aggregation.fuse_codebooks", distinct),
        (fneq.quantizers, "encode_batch", "quantizers.encode_batch", first_arg_rows),
        (fneq.quantizers, "decode", "quantizers.decode", None),
        (fneq.quantizers, "build_adc_table", "quantizers.build_adc_table", None),
        (fneq.neq, "train_index", "neq.train_index", None),
        (fneq.neq, "reencode", "neq.reencode", dataset_rows),
        (fneq.neq, "scan_scores", "neq.scan_scores", scan),
        (fneq.neq, "select_top_k", "neq.select_top_k", None),
        (fneq.persist, "save_index", "persist.save_index", saved),
        (fneq.persist, "load_index", "persist.load_index", None),
        (fneq.io, "load_matrix", "io.load_matrix", None),
        (fneq.cli, "main", "cli.main", None),
        (fneq.evaluate, "exact_topk", "evaluate.exact_topk", None),
        (fneq.evaluate, "recall_item_curve", "evaluate.recall_item_curve", None),
        (fneq.evaluate, "bootstrap_eval", "evaluate.bootstrap_eval", None),
        (fneq.tuner, "ga_optimize", "tuner.ga_optimize", None),
        (fneq.tuner, "xi_grid", "tuner.xi_grid", None),
    )
    for module, attr, name, hook in targets:
        tracer.trace_function(module, attr, name, hook)
    tracer.trace_init(fneq.core.Dataset, "core.Dataset")
    tracer.trace_init(fneq.core.CodeMatrix, "core.CodeMatrix")


def per_layer(tracer, roots, untraced_s: float, load_peak: dict | None) -> dict:
    """``name -> (value, unit)`` for every metric in PER_LAYER."""
    totals = tracer.layer_totals({"bench.setup", "bench.pass"})
    setup, passes = totals["bench.setup"], totals["bench.pass"]

    def get(span: str, key: str) -> float:
        once = setup.get(span, {}).get(key, 0.0)
        return float(once + passes.get(span, {}).get(key, 0.0) / len(roots))

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return scale * a / b if b else 0.0

    kids = tracer.children()
    walls = [r[3] - r[2] for r in roots]
    coverage = median(tracer.covered(kids.get(r[0], [])) / (r[3] - r[2]) for r in roots)
    traced_s = median(walls)
    derived = {
        "iter_ms": lambda s: ratio(get(s, "self_s"), get(s, "iters"), 1e3),
        "converged_ratio": lambda s: ratio(get(s, "converged"), get(s, "calls")),
        "distinct_ratio": lambda s: ratio(get(s, "distinct"), get(s, "calls")),
        "ns_per_item": lambda s: ratio(get(s, "self_s"), get(s, "items"), 1e9),
    }
    special = {
        "persist.load_index.peak_bytes": float(max(load_peak.values())) if load_peak else 0.0,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_ratio": ratio(traced_s - untraced_s, untraced_s),
        "trace.coverage": coverage,
    }
    out = {}
    for metric, unit in PER_LAYER:
        if metric in special:
            value = special[metric]
        else:
            span, key = metric.rsplit(".", 1)
            value = derived[key](span) if key in derived else get(span, key)
        out[metric] = (value, unit)
    return out
