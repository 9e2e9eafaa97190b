"""Prequential (test-then-train) evaluation, rolling-accuracy curves,
summary metrics, the parameter grid search, and the detector x batch-size x
strategy experiment matrix.

Accuracy is the sole ranking metric; per-class confusion counts are carried
in the summary for inspection but never used for ranking.
"""

from __future__ import annotations

import csv
import dataclasses
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .adaptation import ConfigError, Controller, ExperimentConfig, PrequentialRecord
from .detectors import make_detector
from .preprocess import BinBoundaries, bin_target
from .stream_core import FeatureSchema, Table, open_csv_stream
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
) -> tuple[list[PrequentialRecord], ExperimentSummary]:
    """Drive the adaptation controller over the post-warm-up stream; one
    prequential record per labeled prediction. Deterministic given the
    stream and config."""
    if len(table) < config.warmup:
        raise ConfigError(f"stream has only {len(table)} rows, warm-up needs {config.warmup}")
    detector = make_detector(
        config.detector,
        ph_delta=config.ph_delta,
        ph_lambda=config.ph_lambda,
        ph_burn_in=config.ph_burn_in,
        adwin_delta=config.adwin_delta,
    )
    controller = Controller.from_warmup(table[: config.warmup], schema, detector, config)
    K = controller.model.n_classes

    # unlabeled rows cannot be scored prequentially
    out = list(controller.steps(table[config.warmup :].labeled()))
    n = len(out)
    correct = np.array([r.correct for r in out], dtype=np.int64)
    # rolling accuracy: the correct count of the last `window` rows over
    # their number, an int/int division that is correctly rounded
    in_window = np.cumsum(correct)
    n_correct = int(in_window[-1]) if n else 0
    in_window[config.window :] -= in_window[: -config.window].copy()
    lengths = np.minimum(np.arange(1, n + 1), config.window)
    for r, acc in zip(out, (in_window / lengths).tolist()):
        r.rolling_accuracy = acc
    pairs = np.array([r.actual * K + r.predicted for r in out], dtype=np.int64)
    confusion = np.bincount(pairs, minlength=K * K).reshape(K, K)
    summary = ExperimentSummary(
        overall_accuracy=n_correct / n if n else 0.0,
        n_predictions=n,
        n_drifts=controller.n_drifts,
        n_retrains=controller.n_retrains,
        confusion=confusion.tolist(),
    )
    return out, summary


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


# The loaded matrix source of a worker process; set once per worker by the
# pool initializer, never in the parent.
_worker_stream: Optional[tuple[Table, FeatureSchema]] = None


def _load_worker_source(source) -> None:
    global _worker_stream
    _worker_stream = source.load()


def _run_worker_cell(config: ExperimentConfig) -> ExperimentSummary:
    return _run_cell(_worker_stream, config)


def experiment_matrix(
    source, configs: Sequence[ExperimentConfig], workers: int = 1
) -> list[ExperimentSummary]:
    """One independent deterministic run per config, on the stream that
    ``source`` replays; the summaries come back in config order. Runs share
    no state, so they may run across worker processes, with results
    identical for any worker count. The source is loaded once: in this
    process when ``workers`` <= 1, else once in each worker."""
    if not hasattr(source, "load"):
        raise ConfigError("matrix needs a replayable source (CsvSource or SynthSource)")
    if workers <= 1:
        stream = source.load()
        return [_run_cell(stream, config) for config in configs]
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("spawn"),
        initializer=_load_worker_source,
        initargs=(source,),
    ) as pool:
        return list(pool.map(_run_worker_cell, configs))


# -- CSV output (fixed 6-decimal float formatting for reproducible files) --


def _fmt(x: float) -> str:
    return f"{x:.6f}"


# The per-row files are written with f-strings: the bytes of csv.writer's
# default dialect (CRLF line ends; ints and fixed-point floats need no quotes).


def write_records_csv(records: Sequence[PrequentialRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("index,predicted,actual,correct,rolling_accuracy,drift,retrain\r\n")
        fh.writelines(
            f"{r.index},{r.predicted},{r.actual},{r.correct},{r.rolling_accuracy:.6f},"
            f"{r.drift_flag},{r.retrain_flag}\r\n"
            for r in records
        )


def write_curves_csv(records: Sequence[PrequentialRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("index,rolling_accuracy\r\n")
        fh.writelines(f"{r.index},{r.rolling_accuracy:.6f}\r\n" for r in records)


def write_events_csv(records: Sequence[PrequentialRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("index,event\r\n")
        for r in records:
            if r.drift_flag:
                fh.write(f"{r.index},drift\r\n")
            if r.retrain_flag:
                fh.write(f"{r.index},retrain_done\r\n")


def write_summary_csv(rows: Sequence[dict], path) -> None:
    """One row per experiment cell; dict keys become the header (first row's
    order), floats fixed to 6 decimals."""
    if not rows:
        raise ValueError("no summary rows to write")
    header = list(rows[0].keys())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(
                [_fmt(v) if isinstance(v, float) else v for v in (row[h] for h in header)]
            )
