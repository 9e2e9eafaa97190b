"""Retraining controller: labeled-instance buffer, drift-alarm handling, the
three data-selection strategies (last / mixed / next), and the two learning
modes (retraining and incremental mini-batch updates).

Step order per instance i: predict with the current model; detect (stable
mode only): feed the detector and, unless i alarms, apply incremental
mini-batch updates and append i to the ring buffer; act (after an alarm or
while a collection is pending): open the strategy's collection at an alarm,
or add i to the pending one and refit once it is complete. The alarm
instance itself therefore belongs to no retraining set: *last* consumes the
buffered window [t-B, t), *next* collects (t, t+B], and *mixed* uses the
last ceil(B/2) buffered pre-alarm instances plus the next floor(B/2)
collected ones; retraining completes 0 / floor(B/2) / B steps after it.

While a collection is pending the detector is not fed and incremental
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
(from ``_mb_start`` on) and a pending ``Collection`` are positions into those
columns, so a refit or an update reads a slice of them. A controller is built
from its warm-up rows, so no retraining window is empty.

One ``ExperimentConfig`` describes a run: the detector, the strategy, the
batch and mini-batch sizes, the learning mode and the encoder settings. The
controller reads its part of it and yields the records of each block as
columns (``Records``), whose rolling-accuracy window the evaluation sets,
and whose drift and retrain flags give a run's alarm and refit counts. Each
refit is also kept as a ``RetrainEvent`` of four stream indices: its alarm,
the row that completed it, and the first and last rows of its window. The
window is every row stepped, or held from the warm-up, between those two,
the alarm row excepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, repeat
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .detectors import make_detector
from .naive_bayes import NaiveBayesModel, Versions
from .preprocess import EncoderState
from .stream_core import UNLABELED, ConfigError, FeatureSchema, RowError, Table

LAST = "last"
MIXED = "mixed"
NEXT = "next"
STRATEGIES = (LAST, MIXED, NEXT)

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

# The most classes ``Controller`` infers from the warm-up labels
# (largest label + 1). The count tables grow with the class count, so one
# stray label must not size them.
MAX_INFERRED_CLASSES = 1000


class LabelError(RowError):
    """A stream row whose label the controller cannot learn from: missing
    in the warm-up prefix, or outside [0, n_classes)."""


def _check_labels(rows: Table, n_classes: int) -> None:
    """Raise ``LabelError`` for the first row of ``rows`` that has no label
    or whose label is outside [0, n_classes)."""
    bad = (rows.label < 0) | (rows.label >= n_classes)  # UNLABELED < 0
    if bad.any():
        i = int(bad.argmax())
        index, y = int(rows.index[i]), int(rows.label[i])
        message = "row has no label" if y == UNLABELED else f"label {y} outside [0, {n_classes})"
        raise LabelError(message, index)


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

    def __post_init__(self):
        try:  # the detectors hold the bounds of their parameters
            make_detector(self)
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


class RetrainEvent(NamedTuple):
    """A refit, as stream indices: its alarm, the row that completed it, and
    the first and last rows of its window. A window is a run of consecutive
    rows that the controller stepped or held from its warm-up, so the refit
    used every such row from ``first_index`` to ``last_index`` but the
    alarm row."""

    alarm_index: int
    retrain_index: int
    first_index: int
    last_index: int


class Rows(NamedTuple):
    """Encoded rows as columns, in stream order: stream indices and labels
    (int64 arrays), an (n, n_categorical) category index matrix, an
    (n, n_numeric) value matrix and each row's positions in the model's
    count table (``NaiveBayesModel.positions``), which every staging and
    refit of the row reads."""

    index: np.ndarray
    label: np.ndarray
    cats: np.ndarray
    nums: np.ndarray
    pos: np.ndarray


class Collection(NamedTuple):
    """A pending retrain: the stream index of its alarm, and as positions
    the alarm row and its window, [lo, alarm) plus (alarm, end). It
    refits once the row before ``end`` is stepped."""

    alarm_index: int
    alarm: int
    lo: int
    end: int


class Controller:
    """One controller per stream; single-threaded stepping.

    Rows are numbered by position: the warm-up tail in the buffer holds
    positions 0 .. len-1 and each stepped row takes the next one. ``_cols``
    holds the rows from position ``_base`` on; ``_next`` is the position of
    the next row. In stable mode (``collection`` None) the pending
    mini-batch is positions ``_mb_start .. _next - 1``. ``retrain_history``
    holds one ``RetrainEvent`` per refit, in order.
    """

    def __init__(self, warmup: Table, schema: FeatureSchema, config: ExperimentConfig):
        """Build the encoder from the warm-up rows (with the config's Box-Cox
        features and prefix lengths), train the initial model on them (as many
        classes as the warm-up labels imply, at most ``MAX_INFERRED_CLASSES``),
        pre-fill the buffer with their tail and build the config's detector.
        No warm-up rows, or encoder settings that cannot apply to them,
        raise ``ConfigError``; a row without a label, or a label that would
        infer more classes, raises ``LabelError``."""
        if not len(warmup):
            raise ConfigError("warm-up requires at least one labeled instance")
        try:
            encoder = EncoderState(schema, warmup, config.boxcox, dict(config.prefix_len))
        except ValueError as e:
            raise ConfigError(str(e)) from None
        top = int(warmup.label.max())  # UNLABELED only if no row has a label
        if top >= MAX_INFERRED_CLASSES:
            index = int(warmup.index[warmup.label.argmax()])
            raise LabelError(
                f"label {top} would make {top + 1} classes; at most"
                f" {MAX_INFERRED_CLASSES} are inferred from the warm-up labels", index
            )
        n_classes = top + 1
        _check_labels(warmup, n_classes)
        cats, nums = encoder.encode_many(warmup)
        self.model = NaiveBayesModel.fit(
            warmup.label, cats, nums, n_classes, encoder.cat_cardinalities, encoder.n_numeric
        )
        self.encoder = encoder
        self.detector = make_detector(config)
        self.config = config
        pos = self.model.positions(warmup.label, cats)
        rows = Rows(warmup.index, warmup.label, cats, nums, pos)
        self._cols = Rows._make(c[-config.batch_size :] for c in rows)
        self._base = 0
        self._next = self._mb_start = len(self._cols.index)
        self.collection: Optional[Collection] = None
        self.retrain_history: list[RetrainEvent] = []

    # -- rows -------------------------------------------------------------

    def _rows(self, pos) -> Rows:
        """The rows at positions ``pos``, a slice or an integer array."""
        b = self._base
        sel = slice(pos.start - b, pos.stop - b) if isinstance(pos, slice) else pos - b
        return Rows._make(c[sel] for c in self._cols)

    def _append(self, chunk: Table) -> Rows:
        """Check and encode the rows of ``chunk`` and append them to the
        columns at positions ``_next`` on. Rows that neither the buffer nor
        a part-filled mini-batch can use any more are dropped first, so at
        most ``batch_size + mini_batch_size`` rows before ``_next`` stay.
        A pending collection needs no more: its window spans
        ``batch_size + 1`` positions, the alarm row included, and its last
        row is not stepped yet.
        Returns the chunk's rows."""
        _check_labels(chunk, self.model.n_classes)
        cats, nums = self.encoder.encode_many(chunk)
        keep = self._next - self.config.batch_size
        if self.config.incremental:  # otherwise only a refit moves _mb_start
            keep = min(keep, self._mb_start)
        keep = max(keep, self._base)
        new = Rows(chunk.index, chunk.label, cats, nums, self.model.positions(chunk.label, cats))
        self._cols = Rows._make(map(np.concatenate, zip(self._rows(slice(keep, self._next)), new)))
        self._base = keep
        return new

    # -- stepping ---------------------------------------------------------

    def _refit(self, rows: Rows, alarm_index: int, now: int) -> None:
        """Replace the model by one fitted on ``rows``, the window of the
        alarm at stream index ``alarm_index``, completed at stream index
        ``now``; end the collection and start an empty mini-batch."""
        m = self.model
        shape = m.n_classes, m.cat_cardinalities, m.n_numeric
        self.model = NaiveBayesModel.fit(rows.label, rows.cats, rows.nums, *shape, rows.pos)
        first, last = int(rows.index[0]), int(rows.index[-1])
        self.retrain_history.append(RetrainEvent(alarm_index, now, first, last))
        self.detector.reset()
        self.collection = None
        self._mb_start = self._next

    def _plan(self, n: int) -> tuple[int, Optional[Versions], Optional[np.ndarray]]:
        """How many of the next ``n`` rows one block scores, the model
        versions they see and each row's version (None, None when the model
        stays as it is over them). A block runs up to the end of a pending
        collection, or at most _MIN_BLOCK rows when an alarm could refit
        the model on any row. In stable mode it runs across the edges of
        incremental mini-batches: version v is the model after the first v
        mini-batches that fill from ``_mb_start`` on, and a block holds as
        many versions as _MAX_VERSION_CELLS allows (at least two: the model
        and the one after its next update)."""
        cfg = self.config
        if self.collection is not None:
            return min(n, self.collection.end - self._next), None, None
        n = min(n, _MIN_BLOCK if cfg.strategy is not None else _MAX_BLOCK)
        if not cfg.incremental:
            return n, None, None
        size, pending = cfg.mini_batch_size, self._next - self._mb_start
        # the versions of n rows: 1 + (pending + n) // size
        most = max(2, _MAX_VERSION_CELLS // self.model.version_cells)
        n = min(n, most * size - pending - 1)
        filled = (pending + n) // size
        if not filled:
            return n, None, None
        rows = self._rows(slice(self._mb_start, self._mb_start + filled * size))
        versions = self.model.stage(rows.label, rows.cats, rows.nums, size, rows.pos)
        return n, versions, np.arange(pending, pending + n) // size

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
        incremental mini-batch updates, whose versions ``_plan`` stages
        before the block is scored. ``_detect`` then steps the block up to
        its first alarm, and ``_act`` steps the alarm and a pending
        collection. When the model leaves the staged versions at a row (a
        refit, or the updates that a collection pauses), the block's records
        end there and its later rows are scored again. A chunk holding a row
        without a label or with one outside [0, n_classes) raises
        ``LabelError`` before any of its rows is stepped."""
        for lo in range(0, len(table), _MAX_BLOCK):
            index, labels, cats, nums, _ = self._append(table[lo : lo + _MAX_BLOCK])
            start = 0
            while start < len(index):
                m, versions, at = self._plan(len(index) - start)
                stop = start + m
                pred = self.model.predict_many(cats[start:stop], nums[start:stop], versions, at)
                actual = labels[start:stop]
                n, drift, edge = self._detect(pred != actual, versions)
                retrained = 0
                if drift >= 0 or self.collection is not None:
                    n, retrained = self._act(index[start:stop], drift, edge)
                flags = np.zeros((2, n), dtype=np.int64)
                flags[0, drift] = drift >= 0  # drift -1: no alarm
                flags[1, -1] = retrained
                yield Records(index[start : start + n], pred[:n], actual[:n], flags[0], flags[1])
                start += n

    def _detect(self, wrong: np.ndarray, versions: Optional[Versions]) -> tuple[int, int, int]:
        """The detect phase over a scored block (``wrong`` where the
        prediction missed, ``versions`` as ``_plan`` staged them) from
        position ``_next`` on. In stable mode with a strategy it feeds the
        detector up to its first alarm and steps the rows before it, whose
        filled mini-batches it commits. Returns the rows stepped, the
        alarm's offset (-1 if none) and the offset from which rows were
        scored with a later model version."""
        cfg, n = self.config, len(wrong)
        if self.collection is not None:
            return 0, -1, n
        k, drift, edge, p = n, -1, n, self._next
        if cfg.strategy is not None:  # without one no alarm could act
            # one observe call per row, up to the first that alarms
            alarms = compress(count(), map(self.detector.observe, wrong.astype(float).tolist()))
            drift = next(alarms, -1)
            if drift >= 0:
                k = drift
        if cfg.incremental:
            # every refit empties the mini-batch; collected rows join none
            size = cfg.mini_batch_size
            filled = (p + k - self._mb_start) // size
            if filled:
                self.model.commit(versions, filled)
                self._mb_start += filled * size
            edge = self._mb_start + size - p
        self._next = p + k
        return k, drift, edge

    def _act(self, index: np.ndarray, drift: int, edge: int) -> tuple[int, int]:
        """The act phase over the block of stream indices ``index``, after
        ``_detect`` stepped the rows before an alarm at offset ``drift`` (or
        none, -1): an alarm opens the collection of ``config.strategy``
        (which strategy is read only here) and steps the alarm row. The
        pending collection then takes the rows before offset ``edge`` and
        refits when complete. Returns the rows stepped and 1 if the last of
        them refitted, else 0."""
        k = 0
        if drift >= 0:
            # last keeps the B buffered rows, mixed the last ceil(B/2), next none
            B, a = self.config.batch_size, self._next
            pre = {LAST: B, MIXED: math.ceil(B / 2)}.get(self.config.strategy, 0)
            self.collection = Collection(int(index[drift]), a, max(0, a - pre), a + 1 + B - pre)
            self._next, k = a + 1, drift + 1
        alarm_index, a, lo, end = self.collection
        m = min(min(len(index), edge) - k, end - self._next)
        self._next, k = self._next + m, k + m
        if self._next < end:
            return k, 0
        pos = slice(lo, a) if end == a + 1 else np.r_[lo:a, a + 1 : end]
        self._refit(self._rows(pos), alarm_index, int(index[k - 1]))
        return k, 1
