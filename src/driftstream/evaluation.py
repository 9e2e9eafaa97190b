"""Prequential (test-then-train) evaluation, rolling-accuracy curves,
summary metrics, the one stream loader (``load_stream``: a CSV file or a
synthetic config to a table and its predictive schema), and the one runner
of many configs on a stream (``experiment_matrix``), which the parameter
grid search and the detector x batch-size x strategy matrix both use.
Accuracy is the sole ranking metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .adaptation import Controller, ExperimentConfig, Records
from .preprocess import BinBoundaries
from .stream_core import (
    ConfigError, FeatureSchema, Table, class_ids, infer_schema, open_csv_stream, write_columns,
)
from .synth import SynthConfig, generate


@dataclass
class ExperimentSummary:
    overall_accuracy: float
    n_predictions: int
    n_drifts: int
    n_retrains: int


def run_experiment(
    table: Table,
    schema: FeatureSchema,
    config: ExperimentConfig,
) -> tuple[Records, ExperimentSummary]:
    """Drive the adaptation controller over the post-warm-up stream; one
    prequential record per labeled prediction, as columns, whose correct,
    drift and retrain flags the summary counts. Deterministic given the
    stream and config."""
    if len(table) < config.warmup:
        raise ConfigError(f"stream has only {len(table)} rows, warm-up needs {config.warmup}")
    controller = Controller(table[: config.warmup], schema, config)

    # unlabeled rows cannot be scored prequentially; each block's columns are
    # copied out as it comes, so no block outlives its step
    n, cols = 0, np.zeros((5, len(table) - config.warmup), dtype=np.int64)
    for b in controller.steps(table[config.warmup :].labeled()):
        stop = n + len(b.index)
        cols[:, n:stop] = b.index, b.predicted, b.actual, b.drift, b.retrain
        n = stop
    records = Records(*cols[:, :n], window=config.window)
    summary = ExperimentSummary(
        overall_accuracy=int(records.correct.sum()) / n if n else 0.0,
        n_predictions=n,
        n_drifts=int(records.drift.sum()),
        n_retrains=int(records.retrain.sum()),
    )
    return records, summary


def rolling_mean(series: Sequence[float], window: int) -> list[float]:
    """Trailing mean: out[i] = mean(series[max(0, i-window+1) .. i])."""
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(series, dtype=float)
    if len(x) == 0:
        return []
    csum = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(len(x))
    lo = np.maximum(idx - window + 1, 0)
    return ((csum[idx + 1] - csum[lo]) / (idx + 1 - lo)).tolist()


# -- the stream loader and the experiment matrix --------------------------


def load_stream(
    source: Union[str, SynthConfig], label: str = "", exclude: Sequence[str] = (),
    bins: Optional[BinBoundaries] = None,
) -> tuple[Table, FeatureSchema]:
    """The table of a stream and its predictive schema. A ``SynthConfig``
    gives its generated stream, whose table holds the hidden-context column
    that the predictive schema excludes. A path gives its CSV file read
    whole, with the schema ``infer_schema(source, label, exclude)``; with
    ``bins`` the label column is read as an hours-valued target and binned
    into their classes."""
    if isinstance(source, SynthConfig):
        stream = generate(source)
        return stream.table, stream.predictive_schema
    schema = infer_schema(source, label, exclude)
    label_map = bins.classes if bins else class_ids
    return Table.concat(schema, open_csv_stream(source, schema, label_map)), schema


def _receive_stream(*stream) -> None:
    """Keep the (table, schema) that a worker process gets once, as it starts."""
    global _stream
    _stream = stream


def _run_cell(config: ExperimentConfig) -> ExperimentSummary:
    return run_experiment(*_stream, config)[1]


def experiment_matrix(
    table: Table, schema: FeatureSchema, configs: Sequence[ExperimentConfig], workers: int = 1
) -> list[ExperimentSummary]:
    """One independent deterministic run per config on the stream; the
    summaries come back in config order. Runs share no state, so they may
    run across worker processes, each getting the stream once as it starts,
    with results identical for any worker count."""
    if workers <= 1:
        return [run_experiment(table, schema, config)[1] for config in configs]
    import multiprocessing  # imported here: most commands never start a pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn"),
        initializer=_receive_stream, initargs=(table, schema),
    ) as pool:
        return list(pool.map(_run_cell, configs))


# -- CSV output (fixed 6-decimal float formatting for reproducible files) --


def _rolling_column(records: Records) -> tuple[np.ndarray, list[str]]:
    """The rolling accuracies as codes into texts: the first ``window - 1`` rows'
    one by one, then the ``window + 1`` values a full window can take."""
    n, w, head = len(records), records.window, min(records.window - 1, len(records))
    texts = [f"{a:.6f}" for a in (records.in_window[:head] / np.arange(1, head + 1)).tolist()]
    texts += [f"{c / w:.6f}" for c in range(min(w, n) + 1)]
    return np.concatenate((np.arange(head), records.in_window[head:] + head)), texts


def write_records_csv(records: Records, path) -> None:
    r = records
    names = ("index", "predicted", "actual", "correct", "rolling_accuracy", "drift", "retrain")
    ints = (r.predicted, r.actual, r.correct)
    write_columns(path, names, (r.index, *ints, _rolling_column(r), r.drift, r.retrain))


def write_curves_csv(records: Records, path) -> None:
    columns = (records.index, _rolling_column(records))
    write_columns(path, ("index", "rolling_accuracy"), columns)


def write_events_csv(records: Records, path) -> None:
    """One line per flag; a row's drift comes before its retrain_done."""
    rows, kind = np.nonzero(np.stack((records.drift, records.retrain), axis=1))
    index = records.index[rows]
    write_columns(path, ("index", "event"), (index, (kind, ("drift", "retrain_done"))))


def write_summary_csv(rows: Sequence[dict], path) -> None:
    """One row per experiment cell; dict keys become the header (first row's
    order), floats fixed to 6 decimals."""
    if not rows:
        raise ValueError("no summary rows to write")
    cols = [[f"{r[h]:.6f}" if isinstance(r[h], float) else str(r[h]) for r in rows] for h in rows[0]]
    write_columns(path, list(rows[0]), cols)
