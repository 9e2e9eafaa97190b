"""Prequential (test-then-train) evaluation, rolling-accuracy curves,
summary metrics, the parameter grid search, and the detector x batch-size x
strategy experiment matrix.

Accuracy is the sole ranking metric; per-class confusion counts are carried
in the summary for inspection but never used for ranking.
"""

from __future__ import annotations

import csv
import dataclasses
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .adaptation import Controller, ControllerConfig, STRATEGIES
from .detectors import make_detector
from .preprocess import BinBoundaries, bin_target
from .stream_core import (
    FeatureSchema,
    Instance,
    LabeledInstance,
    Record,
    open_csv_stream,
)
from .synth import SynthConfig, generate

DETECTORS = ("none", "page_hinkley", "adwin")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    detector: str = "none"
    strategy: Optional[str] = None
    batch_size: int = 500
    incremental: bool = False
    warmup: int = 2000
    window: int = 1000
    mini_batch_size: int = 10
    ph_delta: float = 0.005
    ph_lambda: float = 0.6
    ph_burn_in: int = 30
    adwin_delta: float = 0.001
    boxcox: tuple[str, ...] = ()
    prefix_len: tuple[tuple[str, int], ...] = ()
    n_classes: Optional[int] = None

    def __post_init__(self):
        if self.detector not in DETECTORS:
            raise ConfigError(f"unknown detector {self.detector!r}")
        if self.strategy is not None and self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.detector == "none" and self.strategy is not None:
            raise ConfigError("a data-selection strategy requires a detector")
        if self.detector != "none" and self.strategy is None:
            raise ConfigError("a detector requires a data-selection strategy")
        if self.warmup < 1:
            raise ConfigError("warmup must be >= 1")
        if self.window < 1:
            raise ConfigError("rolling window must be >= 1")


@dataclass
class PrequentialRecord:
    index: int
    predicted: int
    actual: int
    correct: int
    rolling_accuracy: float
    drift_flag: int
    retrain_flag: int


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


def _build_controller(
    warmup_records: Sequence[LabeledInstance],
    schema: FeatureSchema,
    config: ExperimentConfig,
) -> Controller:
    detector = make_detector(
        config.detector,
        ph_delta=config.ph_delta,
        ph_lambda=config.ph_lambda,
        ph_burn_in=config.ph_burn_in,
        adwin_delta=config.adwin_delta,
    )
    ctrl_config = ControllerConfig(
        strategy=config.strategy,
        batch_size=config.batch_size,
        incremental=config.incremental,
        mini_batch_size=config.mini_batch_size,
    )
    return Controller.from_warmup(
        warmup_records,
        schema,
        detector,
        ctrl_config,
        n_classes=config.n_classes,
        boxcox_features=config.boxcox,
        prefix_len=dict(config.prefix_len),
    )


def run_experiment(
    records: Iterable[Record],
    schema: FeatureSchema,
    config: ExperimentConfig,
) -> tuple[list[PrequentialRecord], ExperimentSummary]:
    """Drive the adaptation controller over the post-warm-up stream; one
    prequential record per labeled prediction. Deterministic given the
    stream and config."""
    it = iter(records)
    warmup_records = []
    for rec in it:
        warmup_records.append(rec)
        if len(warmup_records) >= config.warmup:
            break
    if len(warmup_records) < config.warmup:
        raise ConfigError(
            f"stream has only {len(warmup_records)} records, warm-up needs {config.warmup}"
        )
    controller = _build_controller(warmup_records, schema, config)
    K = controller.model.n_classes

    out: list[PrequentialRecord] = []
    win: deque[int] = deque(maxlen=config.window)
    win_sum = 0
    confusion = np.zeros((K, K), dtype=np.int64)
    n_correct = 0
    # unlabeled records cannot be scored prequentially
    labeled = (rec for rec in it if isinstance(rec, LabeledInstance))
    for r in controller.steps(labeled):
        c = 1 if r.correct else 0
        if len(win) == win.maxlen:
            win_sum -= win[0]
        win.append(c)
        win_sum += c
        n_correct += c
        confusion[r.actual, r.prediction] += 1
        out.append(
            PrequentialRecord(
                r.index,
                r.prediction,
                r.actual,
                c,
                win_sum / len(win),
                1 if r.drift else 0,
                1 if r.retrained else 0,
            )
        )
    n = len(out)
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
    prefix: Sequence[Record],
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

    def load(self) -> tuple[list[Record], FeatureSchema]:
        if self.bin_day_edges:
            bins = BinBoundaries(self.bin_day_edges, unit_divisor=24.0)
            label_map = lambda token: bin_target(float(token), bins)
        else:
            label_map = int
        return list(open_csv_stream(self.path, self.schema, label_map)), self.schema


@dataclass(frozen=True)
class SynthSource:
    """Replayable regenerable stream (hidden-context column excluded from
    the predictive schema)."""

    config: SynthConfig

    def load(self) -> tuple[list[Record], FeatureSchema]:
        stream = generate(self.config)
        return stream.instances, stream.config.schema(include_hidden=False)


MatrixKey = tuple[str, int, str]


def _run_cell(args) -> tuple[MatrixKey, ExperimentSummary]:
    source, base, detector, batch_size, strategy = args
    records, schema = source.load()
    cfg = dataclasses.replace(
        base, detector=detector, strategy=strategy, batch_size=batch_size
    )
    _, summary = run_experiment(records, schema, cfg)
    return (detector, batch_size, strategy), summary


def experiment_matrix(
    source,
    detectors: Sequence[str] = ("page_hinkley", "adwin"),
    batch_sizes: Sequence[int] = (500, 1000, 2000, 5000),
    strategies: Sequence[str] = STRATEGIES,
    incremental: bool = True,
    base: Optional[ExperimentConfig] = None,
    workers: int = 1,
) -> dict[MatrixKey, ExperimentSummary]:
    """Independent deterministic run per (detector, batch size, strategy)
    cell. Cells share no state, so they may run across worker processes;
    the result is keyed, not appended, and identical for any worker count."""
    if not hasattr(source, "load"):
        raise ConfigError("matrix needs a replayable source (CsvSource or SynthSource)")
    if base is None:
        base = ExperimentConfig()
    base = dataclasses.replace(
        base, incremental=incremental, detector="none", strategy=None
    )
    jobs = [
        (source, base, d, b, s)
        for d in detectors
        for b in batch_sizes
        for s in strategies
    ]
    results: dict[MatrixKey, ExperimentSummary] = {}
    if workers <= 1:
        for job in jobs:
            key, summary = _run_cell(job)
            results[key] = summary
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for key, summary in pool.map(_run_cell, jobs):
                results[key] = summary
    return results


# -- CSV output (fixed 6-decimal float formatting for reproducible files) --


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def write_records_csv(records: Sequence[PrequentialRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["index", "predicted", "actual", "correct", "rolling_accuracy", "drift", "retrain"]
        )
        for r in records:
            w.writerow(
                [r.index, r.predicted, r.actual, r.correct, _fmt(r.rolling_accuracy),
                 r.drift_flag, r.retrain_flag]
            )


def write_curves_csv(records: Sequence[PrequentialRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "rolling_accuracy"])
        for r in records:
            w.writerow([r.index, _fmt(r.rolling_accuracy)])


def write_events_csv(records: Sequence[PrequentialRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["index", "event"])
        for r in records:
            if r.drift_flag:
                w.writerow([r.index, "drift"])
            if r.retrain_flag:
                w.writerow([r.index, "retrain_done"])


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
