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

``Controller.steps`` walks a stream in that order but scores and steps it
in blocks. Each row of a block is scored against the model version it would
see row by row: in stable mode a block runs across incremental mini-batch
updates, and the versions after each of them are staged from the block's
rows before it is scored (``NaiveBayesModel.stage``); the model then becomes
the version in force after the last row stepped. A block that the model
leaves at row j otherwise (a refit at an alarm, or the updates that a
collection pauses) ends there, its rows after j scored again with the model
now in force, so its results equal those of a row-by-row walk.

The controller keeps its rows as encoded columns (stream index, label,
category indices, numeric values): the current chunk plus the tail of the
previous ones that a window can still use. The ring buffer, the mini-batch
and an outstanding collection are positions into those columns, so a refit
or an update reads a slice of them.

One ``ExperimentConfig`` describes a run: the detector, the strategy, the
batch and mini-batch sizes, the learning mode and the encoder settings. The
controller reads its part of it and yields the records of each block as
columns (``Records``), whose rolling-accuracy window the evaluation sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .detectors import make_detector
from .naive_bayes import NaiveBayesModel, Versions
from .preprocess import EncoderState
from .stream_core import UNLABELED, FeatureSchema, RowError, Table, csv_row

LAST = "last"
MIXED = "mixed"
NEXT = "next"
STRATEGIES = (LAST, MIXED, NEXT)

STABLE = "stable"
COLLECTING = "collecting"

# Block lengths for ``Controller.steps``: rows are encoded _MAX_BLOCK at a
# time; while an alarm can refit the model on any row, blocks are at most
# _MIN_BLOCK rows long, the horizon over which rows are scored before the
# detector has seen them (rows scored past an alarm that changes the model
# are scored again). A block in stable mode runs across incremental
# mini-batch edges; the model versions it stages hold at most
# _MAX_VERSION_CELLS numbers in all (``NaiveBayesModel.version_cells``
# each), so a small mini-batch on a wide model cannot copy its tables per row.
_MIN_BLOCK = 64
_MAX_BLOCK = 4096
_MAX_VERSION_CELLS = 1 << 18

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
    """Raise ``LabelError`` for the first row of ``rows`` that has no label
    or whose label is outside [0, n_classes)."""
    bad = (rows.label < 0) | (rows.label >= n_classes)  # UNLABELED < 0
    if bad.any():
        i = int(bad.argmax())
        index, y = int(rows.index[i]), int(rows.label[i])
        message = "row has no label" if y == UNLABELED else f"label {y} outside [0, {n_classes})"
        raise LabelError(message, index, csv_row(schema, index))


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
        try:  # the detectors hold the bounds of their parameters
            make_detector(self.detector, self.ph_delta, self.ph_lambda, self.ph_burn_in,
                          self.adwin_delta)
        except ValueError as e:
            raise ConfigError(str(e)) from None
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


class PrequentialRecord(NamedTuple):
    """One row of ``Records``, with 0/1 ints as the CSV files hold them."""

    index: int
    predicted: int
    actual: int
    correct: int
    rolling_accuracy: float
    drift_flag: int
    retrain_flag: int


@dataclass(eq=False)
class Records:
    """Scored rows as int64 columns: stream indices, predicted and actual
    classes, 0/1 drift and retrain flags; and the rolling-accuracy ``window``,
    set by ``run_experiment``. Iterating yields ``PrequentialRecord`` rows of
    Python numbers (rolling accuracy 0.0 without a window)."""

    index: np.ndarray
    predicted: np.ndarray
    actual: np.ndarray
    drift: np.ndarray
    retrain: np.ndarray
    window: int = 0

    @cached_property
    def correct(self) -> np.ndarray:
        return (self.predicted == self.actual).astype(np.int64)

    @cached_property
    def in_window(self) -> np.ndarray:
        """Each row's correct count over its last ``window`` rows."""
        counts = np.cumsum(self.correct)
        counts[self.window :] -= counts[: -self.window].copy()
        return counts

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self) -> Iterator[PrequentialRecord]:
        n, w = len(self), self.window  # the rolling accuracy: an int/int division
        acc = (self.in_window / np.minimum(np.arange(1, n + 1), w)).tolist() if w else repeat(0.0)
        return map(PrequentialRecord, self.index.tolist(), self.predicted.tolist(),
                   self.actual.tolist(), self.correct.tolist(), acc,
                   self.drift.tolist(), self.retrain.tolist())


@dataclass(frozen=True, eq=False)
class RetrainEvent:
    """A refit: the stream indices of its alarm, of the row that completed
    it and, as an int64 array, of the rows it used."""

    alarm_index: int
    retrain_index: int
    used: np.ndarray

    @property
    def used_indices(self) -> tuple[int, ...]:
        return tuple(self.used.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, RetrainEvent) and (
            (self.alarm_index, self.retrain_index, self.used_indices)
            == (other.alarm_index, other.retrain_index, other.used_indices))


class Rows(NamedTuple):
    """Encoded rows as columns, in stream order: stream indices and labels
    (int64 arrays), an (n, n_categorical) category index matrix and an
    (n, n_numeric) value matrix."""

    index: np.ndarray
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
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty((0, len(encoder.cat_cardinalities)), dtype=np.int64),
                np.empty((0, encoder.n_numeric)),
            )
        self._cols = Rows._make(c[-config.batch_size :] for c in buffer)
        self._base = 0
        self._next = len(self._cols.index)
        self.mode = STABLE
        self.remaining = 0
        self.mini_batch = range(0)  # positions
        # an outstanding collection retrains on [_window_lo, _alarm_pos)
        # plus the rows collected after _alarm_pos
        self._window_lo = 0
        self._alarm_pos = 0
        self._alarm_index: Optional[int] = None
        self.n_drifts = 0
        self.n_retrains = 0
        self.retrain_history: list[RetrainEvent] = []

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
            top = int(warmup.label.max())  # UNLABELED only if no row has a label
            if top >= MAX_INFERRED_CLASSES:
                index = int(warmup.index[warmup.label.argmax()])
                raise LabelError(
                    f"label {top} would make {top + 1} classes; at most"
                    f" {MAX_INFERRED_CLASSES} are inferred from the warm-up labels",
                    index, csv_row(schema, index),
                )
            n_classes = top + 1
        _check_labels(warmup, n_classes, schema)
        cats, nums = encoder.encode_many(warmup)
        rows = Rows(warmup.index, warmup.label, cats, nums)
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
        sel = slice(pos.start - b, pos.stop - b) if isinstance(pos, slice) else pos - b
        return Rows._make(c[sel] for c in self._cols)

    def _append(self, chunk: Table) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Check and encode the rows of ``chunk`` and append them to the
        columns at positions ``_next`` on. Rows that neither the buffer nor
        a part-filled mini-batch can use any more are dropped first, so at
        most ``batch_size + mini_batch_size`` rows before ``_next`` stay.
        An outstanding collection needs no more: its window spans
        ``batch_size + 1`` positions, the alarm row included, and its last
        row is not stepped yet.
        Returns the chunk's stream indices and labels, category and value
        matrices."""
        _check_labels(chunk, self.model.n_classes, self.encoder.schema)
        cats, nums = self.encoder.encode_many(chunk)
        keep = self._next - self.config.batch_size
        if self.mini_batch:
            keep = min(keep, self.mini_batch[0])
        keep = max(keep, self._base)
        new = (chunk.index, chunk.label, cats, nums)
        self._cols = Rows._make(map(np.concatenate, zip(self._rows(slice(keep, self._next)), new)))
        self._base = keep
        return new

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
        self.retrain_history.append(RetrainEvent(alarm_index, now, rows.index))
        self.detector.reset()
        self.mini_batch = range(0)
        return 1

    def _rows_to_change(self) -> int:
        """How many of the next rows one block scores: up to the end of an
        outstanding collection, or at most _MIN_BLOCK rows when an alarm
        could refit the model on any row. In stable mode a block runs across
        the edges of incremental mini-batches, each row scored against the
        model version it would see row by row; it holds as many versions as
        _MAX_VERSION_CELLS allows (at least two: the model and the one
        after its next update)."""
        cfg = self.config
        if self.mode == COLLECTING:
            return self.remaining
        n = _MIN_BLOCK if cfg.strategy is not None else _MAX_BLOCK
        if cfg.incremental:
            # the versions of n rows: 1 + (len(mini_batch) + n) // size
            most = max(2, _MAX_VERSION_CELLS // self.model.version_cells)
            n = min(n, most * cfg.mini_batch_size - len(self.mini_batch) - 1)
        return n

    def _stage(self, n: int) -> tuple[Optional[Versions], Optional[np.ndarray]]:
        """The model versions that the next ``n`` rows see, and each row's
        version: version v is the model after the first v mini-batches
        that fill from the pending one on. None, None when the model stays
        as it is over them."""
        cfg = self.config
        if self.mode == COLLECTING or not cfg.incremental:
            return None, None
        size, p = cfg.mini_batch_size, self._next
        lo = self.mini_batch.start if self.mini_batch else p
        filled = (p - lo + n) // size
        if not filled:
            return None, None
        _, label, cats, nums = self._rows(slice(lo, lo + filled * size))
        return self.model.stage(label, cats, nums, size), np.arange(p - lo, p - lo + n) // size

    def step(self, row: Table) -> PrequentialRecord:
        """``steps`` on a one-row table: test then train on its row. The
        engine never calls it; it stays as a benchmark hook
        (``perfbench/tracer.py`` wraps it)."""
        ((record,),) = self.steps(row)
        return record

    def steps(self, table: Table) -> Iterator[Records]:
        """Test then train on each row in turn, yielding the records of each
        scored block. Rows are encoded in chunks and scored in blocks, each
        with one ``predict_many`` call, every row against the model version
        it would see row by row: in stable mode a block runs across
        incremental mini-batch updates, whose versions ``_stage`` stages
        before the block is scored, and the model becomes the version in
        force after the last row stepped. When the model leaves those
        versions at a row (a refit at an alarm, or the updates that a
        collection pauses), the block's records end at that row and its
        rows after it are scored again with the model now in force. A chunk
        holding a row without a label or with one outside [0, n_classes)
        raises ``LabelError`` before any of its rows is stepped."""
        for lo in range(0, len(table), _MAX_BLOCK):
            if self.model.n_trained < 1:
                raise ControllerError("step before warm-up")
            index, labels, cats, nums = self._append(table[lo : lo + _MAX_BLOCK])
            start = 0
            while start < len(index):
                stop = min(len(index), start + self._rows_to_change())
                versions, at = self._stage(stop - start)
                pred = self.model.predict_many(cats[start:stop], nums[start:stop], versions, at)
                actual = labels[start:stop]
                n, drift, retrained = self._step_block(index[start:stop], pred != actual, versions)
                flags = np.zeros((2, n), dtype=np.int64)
                flags[0, drift] = drift >= 0  # drift -1: no alarm
                flags[1, -1] = retrained
                yield Records(index[start : start + n], pred[:n], actual[:n], flags[0], flags[1])
                start += n

    def _step_block(
        self, index: np.ndarray, wrong: np.ndarray, versions: Optional[Versions]
    ) -> tuple[int, int, int]:
        """The state machine over a scored block (stream indices ``index``,
        ``wrong`` where the prediction missed, ``versions`` as ``_stage``
        staged them) from position ``_next`` on. Stable mode with a strategy
        feeds the detector row by row up to its first alarm; the rows
        before an alarm join the mini-batches, and the model becomes the
        staged version after the last one they fill, so no row's update
        runs twice. An alarm opens a collection (with no rows after the
        alarm for *last*), which the block's later rows join as far as they
        were scored with the model now in force, and which refits when
        complete. The block is stepped up to that refit.
        Returns the rows stepped, the alarm's offset (-1 if none) and 1 if
        the last row stepped refitted, else 0."""
        cfg = self.config
        n, k, drift, retrained = len(index), 0, -1, 0
        edge = n  # rows from this offset on were scored with a later model version
        if self.mode == STABLE:
            k = n
            if cfg.strategy is not None:  # without one no alarm could act
                observe = self.detector.observe
                for i, miss in enumerate(wrong.tolist()):
                    if observe(1.0 if miss else 0.0):
                        k = drift = i
                        break
            p = self._next
            if cfg.incremental:
                # a run of consecutive positions: every refit clears the
                # mini-batch, and the rows of a collection join none
                size = cfg.mini_batch_size
                lo = self.mini_batch.start if self.mini_batch else p
                filled = (p + k - lo) // size
                if filled:
                    self.model.commit(versions, filled)
                    lo += filled * size
                self.mini_batch = range(lo, p + k)
                edge = lo + size - p
            if drift >= 0:
                # last keeps the B buffered rows, mixed the last ceil(B/2), next none
                B, a = cfg.batch_size, p + k
                pre = {LAST: B, MIXED: math.ceil(B / 2)}.get(cfg.strategy, 0)
                self.n_drifts += 1
                self._alarm_index, self._alarm_pos = int(index[drift]), a
                self._window_lo, self.remaining = max(0, a - pre), B - pre
                self.mode = COLLECTING
                k += 1
            self._next = p + k
        if self.mode == COLLECTING:  # the alarm row belongs to no window
            m = min(min(n, edge) - k, self.remaining)
            self.remaining -= m
            self._next, k = self._next + m, k + m
            if self.remaining == 0:
                a, lo, now = self._alarm_pos, self._window_lo, self._next
                pos = slice(lo, a) if now == a + 1 else np.r_[lo:a, a + 1 : now]
                retrained = self._refit(self._rows(pos), self._alarm_index, int(index[k - 1]))
                self.mode = STABLE
        return k, drift, retrained
