"""Retraining controller: labeled-instance buffer, drift-alarm handling, the
three data-selection strategies (last / mixed / next), and the two learning
modes (retraining and incremental mini-batch updates).

Step order per instance i: predict with the current model, feed the detector
(stable mode only), then either react to an alarm or advance a pending
collection, then (stable mode) apply incremental mini-batch updates, and
finally append i to the ring buffer. The alarm instance itself therefore
belongs to no retraining set: *last* consumes the buffered window [t-B, t),
*next* collects (t, t+B], and *mixed* uses the last ceil(B/2) buffered
pre-alarm instances plus the next floor(B/2) collected ones. Retraining
completes 0 / floor(B/2) / B steps after the alarm respectively.

While a collection is outstanding the detector is not fed and incremental
updates pause; the detector is reset after every retraining.

``Controller.steps`` walks a stream in that order but scores it in blocks:
the model is constant within a block, and a block that a refit cuts short
at row j has its scores after j dropped and computed again with the new
model, so its results equal those of ``step`` called row by row.

The controller keeps its rows as encoded columns (stream index, label,
category indices, numeric values): the current chunk plus the tail of the
previous ones that a window can still use. The ring buffer, the mini-batch
and an outstanding collection are positions into those columns, so a refit
or an update reads a slice of them.

One ``ExperimentConfig`` describes a run: the detector, the strategy, the
batch and mini-batch sizes, the learning mode and the encoder settings. The
controller reads its part of it; each step yields the row's
``PrequentialRecord``, whose rolling accuracy the evaluation fills in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .naive_bayes import NaiveBayesModel
from .preprocess import EncoderState
from .stream_core import FeatureSchema, RowError, Table, csv_row

LAST = "last"
MIXED = "mixed"
NEXT = "next"
STRATEGIES = (LAST, MIXED, NEXT)

DETECTORS = ("none", "page_hinkley", "adwin")

STABLE = "stable"
COLLECTING = "collecting"

# Block lengths for ``Controller.steps``: rows are encoded _MAX_BLOCK at a
# time; while an alarm can refit the model on any row, blocks are at most
# _MIN_BLOCK rows long.
_MIN_BLOCK = 16
_MAX_BLOCK = 4096

# The most classes ``Controller.from_warmup`` infers from the warm-up labels
# (largest label + 1). The count tables grow with the class count and the
# confusion matrix with its square, so one stray label must not size them;
# an explicit ``ExperimentConfig.n_classes`` is not bounded.
MAX_INFERRED_CLASSES = 1000


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class ControllerError(RuntimeError):
    pass


class LabelError(RowError, ControllerError):
    """A stream row whose label the controller cannot learn from: missing
    in the warm-up prefix, or outside [0, n_classes)."""


def _check_labels(rows: Table, n_classes: int, schema: FeatureSchema) -> None:
    """Raise ``LabelError`` for the first row of ``rows`` without a label,
    else for the first whose label is outside [0, n_classes)."""
    labels = rows.label
    if None in labels:
        index = rows.index[labels.index(None)]
        raise LabelError("row has no label", index, csv_row(schema, index))
    if min(labels) < 0 or max(labels) >= n_classes:
        i = next(i for i, y in enumerate(labels) if not 0 <= y < n_classes)
        index = rows.index[i]
        raise LabelError(
            f"label {labels[i]} outside [0, {n_classes})", index, csv_row(schema, index)
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """One run: detector and its parameters, data-selection strategy,
    retraining batch size, learning mode (incremental mini-batches or
    not), warm-up and rolling-window lengths, and encoder settings."""

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
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.mini_batch_size < 1:
            raise ConfigError(f"mini_batch_size must be >= 1, got {self.mini_batch_size}")
        if self.warmup < 1:
            raise ConfigError("warmup must be >= 1")
        if self.window < 1:
            raise ConfigError("rolling window must be >= 1")


@dataclass(slots=True)
class PrequentialRecord:
    """One scored row, with 0/1 ints as the CSV files hold them.
    ``rolling_accuracy`` is 0.0 as the controller yields the record and is
    filled in by ``run_experiment``."""

    index: int
    predicted: int
    actual: int
    correct: int
    rolling_accuracy: float
    drift_flag: int
    retrain_flag: int


@dataclass(frozen=True)
class RetrainEvent:
    alarm_index: int
    retrain_index: int
    used_indices: tuple[int, ...]


class Rows(NamedTuple):
    """Encoded rows as columns, in stream order: stream indices, labels, an
    (n, n_categorical) category index matrix and an (n, n_numeric) value
    matrix. The stream indices are a list of the stream's own int objects,
    which retrain records then share instead of holding copies."""

    index: list[int]
    label: np.ndarray
    cats: np.ndarray
    nums: np.ndarray


class Controller:
    """One controller per stream; single-threaded stepping.

    Rows are numbered by position: the initial buffer holds positions
    0 .. len-1 and each stepped row takes the next one. ``_cols`` holds the
    rows from position ``_base`` on.
    """

    def __init__(
        self,
        model: NaiveBayesModel,
        encoder: EncoderState,
        detector,
        config: ExperimentConfig,
        buffer: Optional[Rows] = None,
    ):
        self.model = model
        self.encoder = encoder
        self.detector = detector
        self.config = config
        if buffer is None:
            buffer = Rows(
                [],
                np.empty(0, dtype=np.int64),
                np.empty((0, len(encoder.cat_cardinalities)), dtype=np.int64),
                np.empty((0, encoder.n_numeric)),
            )
        self._cols = Rows._make(c[-config.batch_size :] for c in buffer)
        self._base = 0
        self._next = len(self._cols.index)
        self.mode = STABLE
        self.remaining = 0
        self.mini_batch: list[int] = []  # positions
        # an outstanding collection retrains on [_window_lo, _alarm_pos)
        # plus the rows collected after _alarm_pos
        self._window_lo = 0
        self._alarm_pos = 0
        self._alarm_index: Optional[int] = None
        self.n_drifts = 0
        self.n_retrains = 0
        self.retrain_history: list[RetrainEvent] = []
        self.event_log: list[tuple[int, str]] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def from_warmup(
        cls,
        warmup: Table,
        schema: FeatureSchema,
        detector,
        config: ExperimentConfig,
    ) -> "Controller":
        """Fit and freeze the encoder on the warm-up rows (with the
        config's Box-Cox features and prefix lengths), train the initial
        model on them (``config.n_classes`` classes, or as many as the
        warm-up labels imply, at most ``MAX_INFERRED_CLASSES``), and pre-fill
        the buffer with their tail. Encoder settings that cannot apply to
        these rows raise ``ConfigError``; a row without a label, or a label
        that would infer more classes, raises ``LabelError``."""
        if not len(warmup):
            raise ControllerError("warm-up requires at least one labeled instance")
        try:
            encoder = EncoderState(schema, config.boxcox, dict(config.prefix_len))
            encoder.fit(warmup)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        n_classes = config.n_classes
        if n_classes is None:
            top = max((y for y in warmup.label if y is not None), default=0)
            if top >= MAX_INFERRED_CLASSES:
                index = warmup.index[warmup.label.index(top)]
                raise LabelError(
                    f"label {top} would make {top + 1} classes; at most"
                    f" {MAX_INFERRED_CLASSES} are inferred from the warm-up labels",
                    index, csv_row(schema, index),
                )
            n_classes = top + 1
        _check_labels(warmup, n_classes, schema)
        cats, nums = encoder.encode_many(warmup)
        rows = Rows(warmup.index, np.array(warmup.label, dtype=np.int64), cats, nums)
        model = NaiveBayesModel.fit(
            rows.label, rows.cats, rows.nums,
            n_classes, encoder.cat_cardinalities, encoder.n_numeric,
        )
        return cls(model, encoder, detector, config, buffer=rows)

    # -- rows -------------------------------------------------------------

    @property
    def buffer(self) -> Rows:
        """The labeled ring buffer: the last ``batch_size`` rows stepped,
        the warm-up tail counting as stepped."""
        return self._rows(slice(max(0, self._next - self.config.batch_size), self._next))

    def _rows(self, pos) -> Rows:
        """The rows at positions ``pos``, a slice or an integer array."""
        b = self._base
        index, label, cats, nums = self._cols
        if isinstance(pos, slice):
            sel = slice(pos.start - b, pos.stop - b)
            return Rows(index[sel], label[sel], cats[sel], nums[sel])
        sel = pos - b
        return Rows([index[i] for i in sel.tolist()], label[sel], cats[sel], nums[sel])

    def _append(self, chunk: Table) -> tuple[list[int], list[int], np.ndarray, np.ndarray]:
        """Check and encode the rows of ``chunk`` and append them to the
        columns at positions ``_next`` on. Rows that neither the buffer nor
        a part-filled mini-batch can use any more are dropped first, so at
        most ``batch_size + mini_batch_size`` rows before ``_next`` stay.
        An outstanding collection needs no more: its window spans
        ``batch_size + 1`` positions, the alarm row included, and its last
        row is not stepped yet.
        Returns the chunk's stream indices and labels as lists and its
        category and value matrices."""
        _check_labels(chunk, self.model.n_classes, self.encoder.schema)
        index, labels = chunk.index, chunk.label
        cats, nums = self.encoder.encode_many(chunk)
        keep = self._next - self.config.batch_size
        if self.mini_batch:
            keep = min(keep, self.mini_batch[0])
        keep = max(keep, self._base)
        old = slice(keep - self._base, self._next - self._base)
        kept = self._cols
        self._cols = Rows(
            kept.index[old] + index,
            np.concatenate((kept.label[old], np.array(labels, dtype=np.int64))),
            np.concatenate((kept.cats[old], cats)),
            np.concatenate((kept.nums[old], nums)),
        )
        self._base = keep
        return index, labels, cats, nums

    # -- stepping ---------------------------------------------------------

    def _refit(self, rows: Rows, alarm_index: int, now: int) -> int:
        """Replace the model by one fitted on ``rows``; 1 if it did, 0 if
        ``rows`` is empty and the old model stays."""
        if not len(rows.index):
            return 0
        m = self.model
        self.model = NaiveBayesModel.fit(
            rows.label, rows.cats, rows.nums, m.n_classes, m.cat_cardinalities, m.n_numeric
        )
        self.n_retrains += 1
        self.retrain_history.append(RetrainEvent(alarm_index, now, tuple(rows.index)))
        self.event_log.append((now, "retrain_done"))
        self.detector.reset()
        self.mini_batch.clear()
        return 1

    def _rows_to_change(self) -> int:
        """How many of the next rows the current model can score before it
        can next change: the end of an outstanding collection, the row that
        fills the mini-batch, or at most _MIN_BLOCK rows when an alarm could
        refit the model on any row."""
        if self.mode == COLLECTING:
            return self.remaining
        n = _MIN_BLOCK if self.config.strategy is not None else _MAX_BLOCK
        if self.config.incremental:
            n = min(n, self.config.mini_batch_size - len(self.mini_batch))
        return n

    def step(self, row: Table) -> PrequentialRecord:
        """Test then train on the row of a one-row table."""
        if self.model.n_trained < 1:
            raise ControllerError("step before warm-up")
        index, labels, cats, nums = self._append(row)
        pred = self.model.predict_many(cats, nums).tolist()[0]
        return self._advance(index[0], labels[0], pred)

    def steps(self, table: Table) -> Iterator[PrequentialRecord]:
        """Test then train on each row in turn, yielding what ``step`` would
        return for it. Rows are encoded in chunks and scored in blocks: a
        block is scored with one ``predict_many`` call and runs up to the
        next row at which the model can change, so the model is constant
        within it. When the model changes at a row anyway (a refit at an
        alarm), the scores after that row are dropped and the rest of the
        block is scored again with the new model. A chunk holding a row
        without a label or with one outside [0, n_classes) raises
        ``LabelError`` before any of its rows is stepped."""
        for lo in range(0, len(table), _MAX_BLOCK):
            if self.model.n_trained < 1:
                raise ControllerError("step before warm-up")
            chunk = table[lo : lo + _MAX_BLOCK]
            index, labels, cats, nums = self._append(chunk)
            start = 0
            while start < len(chunk):
                stop = min(len(chunk), start + self._rows_to_change())
                preds = self.model.predict_many(cats[start:stop], nums[start:stop]).tolist()
                for i in range(start, stop):
                    r = self._advance(index[i], labels[i], preds[i - start])
                    yield r
                    if r.retrain_flag:  # updates fall on a block's last row; refits may not
                        break
                start = i + 1

    def _advance(self, index: int, label: int, pred: int) -> PrequentialRecord:
        """The state machine: everything a step does after scoring the row
        at position ``_next``."""
        cfg = self.config
        p = self._next
        correct = 1 if pred == label else 0
        drift = 0
        retrained = 0

        if self.mode == STABLE:
            # without a strategy no alarm can act, so the detector is not fed
            if cfg.strategy is not None and self.detector.observe(0.0 if correct else 1.0):
                drift = 1
                self.n_drifts += 1
                self._alarm_index = index
                self.event_log.append((index, "drift"))
                if cfg.strategy == LAST:
                    retrained = self._refit(self.buffer, index, index)
                else:
                    # mixed keeps the last ceil(B/2) buffered rows; next none
                    pre = math.ceil(cfg.batch_size / 2) if cfg.strategy == MIXED else 0
                    self._window_lo = max(0, p - pre)
                    self._alarm_pos = p
                    self.remaining = cfg.batch_size - pre
                    if self.remaining == 0:  # mixed with B == 1: no post half
                        window = self._rows(slice(self._window_lo, p))
                        retrained = self._refit(window, index, index)
                    else:
                        self.mode = COLLECTING
                        self.event_log.append((index, "retrain_start"))
            elif cfg.incremental:
                self.mini_batch.append(p)
                if len(self.mini_batch) >= cfg.mini_batch_size:
                    # a run of consecutive positions: every refit clears the
                    # mini-batch, and the rows of a collection join none
                    _, labels, cats, nums = self._rows(slice(self.mini_batch[0], p + 1))
                    self.model.update(labels, cats, nums)
                    self.mini_batch.clear()
        else:  # COLLECTING: the alarm row belongs to no window
            self.remaining -= 1
            if self.remaining == 0:
                a = self._alarm_pos
                window = np.concatenate((np.arange(self._window_lo, a), np.arange(a + 1, p + 1)))
                retrained = self._refit(self._rows(window), self._alarm_index, index)
                self.mode = STABLE

        self._next = p + 1
        return PrequentialRecord(index, pred, label, correct, 0.0, drift, retrained)
