"""Prequential (test-then-train) evaluation, rolling-accuracy curves,
summary metrics, the parameter grid search, and the detector x batch-size x
strategy experiment matrix.

Accuracy is the sole ranking metric; per-class confusion counts are carried
in the summary for inspection but never used for ranking.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .adaptation import ConfigError, Controller, ExperimentConfig, Records
from .detectors import make_detector
from .preprocess import BinBoundaries, bin_target
from .stream_core import FeatureSchema, Table, open_csv_stream, write_columns
from .synth import SynthConfig, generate


@dataclass
class ExperimentSummary:
    overall_accuracy: float
    n_predictions: int
    n_drifts: int
    n_retrains: int
    performance_increase_vs_baseline: Optional[float] = None
    confusion: Optional[list[list[int]]] = None

    def against_baseline(self, baseline_accuracy: float) -> "ExperimentSummary":
        rel = (self.overall_accuracy - baseline_accuracy) / baseline_accuracy
        return dataclasses.replace(self, performance_increase_vs_baseline=rel)


def run_experiment(
    table: Table,
    schema: FeatureSchema,
    config: ExperimentConfig,
) -> tuple[Records, ExperimentSummary]:
    """Drive the adaptation controller over the post-warm-up stream; one
    prequential record per labeled prediction, as columns. Deterministic
    given the stream and config."""
    if len(table) < config.warmup:
        raise ConfigError(f"stream has only {len(table)} rows, warm-up needs {config.warmup}")
    detector = make_detector(config.detector, config.ph_delta, config.ph_lambda,
                             config.ph_burn_in, config.adwin_delta)
    controller = Controller.from_warmup(table[: config.warmup], schema, detector, config)
    K = controller.model.n_classes

    # unlabeled rows cannot be scored prequentially; each block's columns are
    # copied out as it comes, so no block outlives its step
    n, cols = 0, np.zeros((5, len(table) - config.warmup), dtype=np.int64)
    for b in controller.steps(table[config.warmup :].labeled()):
        cols[:, n : n + len(b)] = b.index, b.predicted, b.actual, b.drift, b.retrain
        n += len(b)
    records = Records(*cols[:, :n], window=config.window)
    pairs = records.actual * K + records.predicted
    confusion = np.bincount(pairs, minlength=K * K).reshape(K, K)
    summary = ExperimentSummary(
        overall_accuracy=int(records.correct.sum()) / n if n else 0.0,
        n_predictions=n,
        n_drifts=controller.n_drifts,
        n_retrains=controller.n_retrains,
        confusion=confusion.tolist(),
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


def grid_search(
    prefix: Table,
    schema: FeatureSchema,
    param_grid: Sequence[dict],
    fixed: ExperimentConfig,
) -> tuple[dict, list[tuple[dict, ExperimentSummary]]]:
    """Evaluate each grid point on the stream prefix; return the point with
    maximal overall accuracy (ties break to the first in grid order) plus
    the full score table."""
    if not param_grid:
        raise ConfigError("empty parameter grid")
    table = []
    best = None
    for params in param_grid:
        cfg = dataclasses.replace(fixed, **params)
        _, summary = run_experiment(prefix, schema, cfg)
        table.append((dict(params), summary))
        if best is None or summary.overall_accuracy > best[1].overall_accuracy:
            best = (dict(params), summary)
    return best[0], table


# -- experiment matrix ----------------------------------------------------


@dataclass(frozen=True)
class CsvSource:
    """Replayable file-backed stream. When ``bin_day_edges`` is set, the
    label column is read as an hours-valued target and binned into classes
    at those day edges."""

    path: str
    schema: FeatureSchema
    bin_day_edges: tuple[float, ...] = ()

    def load(self) -> tuple[Table, FeatureSchema]:
        if self.bin_day_edges:
            bins = BinBoundaries(self.bin_day_edges, unit_divisor=24.0)
            label_map = lambda token: bin_target(float(token), bins)
        else:
            label_map = int
        chunks = open_csv_stream(self.path, self.schema, label_map)
        return Table.concat(self.schema, chunks), self.schema


@dataclass(frozen=True)
class SynthSource:
    """Replayable regenerable stream (hidden-context column excluded from
    the predictive schema)."""

    config: SynthConfig

    def load(self) -> tuple[Table, FeatureSchema]:
        stream = generate(self.config)
        return stream.table, stream.config.schema(include_hidden=False)


def _run_cell(stream: tuple[Table, FeatureSchema], config: ExperimentConfig) -> ExperimentSummary:
    table, schema = stream
    return run_experiment(table, schema, config)[1]


def experiment_matrix(
    source, configs: Sequence[ExperimentConfig], workers: int = 1
) -> list[ExperimentSummary]:
    """One independent deterministic run per config, on the stream that
    ``source`` replays; the summaries come back in config order. Runs share
    no state, so they may run across worker processes, with results
    identical for any worker count. The source is loaded once, in this
    process, so a data error in it is raised here before any worker starts;
    each worker gets the loaded stream with its config."""
    if not hasattr(source, "load"):
        raise ConfigError("matrix needs a replayable source (CsvSource or SynthSource)")
    stream = source.load()
    if workers <= 1:
        return [_run_cell(stream, config) for config in configs]
    import multiprocessing  # imported here: most commands never start a pool
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=workers, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        return list(pool.map(_run_cell, repeat(stream), configs))


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
