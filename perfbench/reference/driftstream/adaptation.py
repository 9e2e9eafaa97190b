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
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .detectors import NoDetector
from .naive_bayes import NaiveBayesModel
from .preprocess import EncodedInstance, EncoderState
from .stream_core import FeatureSchema, LabeledInstance

LAST = "last"
MIXED = "mixed"
NEXT = "next"
STRATEGIES = (LAST, MIXED, NEXT)

STABLE = "stable"
COLLECTING = "collecting"


class ControllerError(RuntimeError):
    pass


@dataclass(frozen=True)
class ControllerConfig:
    strategy: Optional[str] = None
    batch_size: int = 500
    incremental: bool = False
    mini_batch_size: int = 10
    smoothing_alpha: float = 1.0
    var_floor: float = 1e-9

    def __post_init__(self):
        if self.strategy is not None and self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.batch_size < 1 or self.mini_batch_size < 1:
            raise ValueError("batch_size and mini_batch_size must be >= 1")


@dataclass
class StepResult:
    index: int
    prediction: int
    actual: int
    correct: bool
    drift: bool
    retrained: bool


@dataclass(frozen=True)
class RetrainEvent:
    alarm_index: int
    retrain_index: int
    used_indices: tuple[int, ...]


class Controller:
    """One controller per stream; single-threaded stepping."""

    def __init__(
        self,
        model: NaiveBayesModel,
        encoder: EncoderState,
        detector,
        config: ControllerConfig,
        buffer: Optional[Iterable[EncodedInstance]] = None,
    ):
        self.model = model
        self.encoder = encoder
        self.detector = detector
        self.config = config
        self.buffer: deque[EncodedInstance] = deque(buffer or (), maxlen=config.batch_size)
        self.mode = STABLE
        self.remaining = 0
        self.pending_pre: list[EncodedInstance] = []
        self.collected: list[EncodedInstance] = []
        self.mini_batch: list[EncodedInstance] = []
        self._alarm_index: Optional[int] = None
        self.n_drifts = 0
        self.n_retrains = 0
        self.retrain_history: list[RetrainEvent] = []
        self.event_log: list[tuple[int, str]] = []

    # -- construction -----------------------------------------------------

    @classmethod
    def from_warmup(
        cls,
        warmup: Sequence[LabeledInstance],
        schema: FeatureSchema,
        detector,
        config: ControllerConfig,
        n_classes: Optional[int] = None,
        boxcox_features: Sequence[str] = (),
        prefix_len: Optional[dict[str, int]] = None,
    ) -> "Controller":
        """Fit and freeze the encoder on the warm-up data, train the initial
        model on it, and pre-fill the buffer with its tail."""
        if not warmup:
            raise ControllerError("warm-up requires at least one labeled instance")
        if any(not isinstance(r, LabeledInstance) for r in warmup):
            raise ControllerError("warm-up data must be fully labeled")
        encoder = EncoderState(schema, boxcox_features, prefix_len)
        encoder.fit([r.instance for r in warmup])
        if n_classes is None:
            n_classes = max(r.label for r in warmup) + 1
        encoded = [encoder.encode(r.instance, r.label) for r in warmup]
        model = NaiveBayesModel.fit(
            encoded,
            n_classes,
            encoder.cat_cardinalities,
            encoder.n_numeric,
            config.smoothing_alpha,
            config.var_floor,
        )
        tail = encoded[-config.batch_size :]
        return cls(model, encoder, detector, config, buffer=tail)

    def make_static(self) -> "Controller":
        """Disable detection and incremental updates; the model is frozen."""
        self.detector = NoDetector()
        self.config = ControllerConfig(
            strategy=None,
            batch_size=self.config.batch_size,
            incremental=False,
            mini_batch_size=self.config.mini_batch_size,
            smoothing_alpha=self.config.smoothing_alpha,
            var_floor=self.config.var_floor,
        )
        return self

    # -- stepping ---------------------------------------------------------

    def _refit(self, instances: Sequence[EncodedInstance], alarm_index: int, now: int) -> bool:
        if not instances:
            return False  # nothing usable; keep the old model
        self.model = NaiveBayesModel.fit(
            instances,
            self.model.n_classes,
            self.model.cat_cardinalities,
            self.model.n_numeric,
            self.config.smoothing_alpha,
            self.config.var_floor,
        )
        self.n_retrains += 1
        self.retrain_history.append(
            RetrainEvent(alarm_index, now, tuple(e.index for e in instances))
        )
        self.event_log.append((now, "retrain_done"))
        self.detector.reset()
        self.mini_batch.clear()
        return True

    def step(self, labeled: LabeledInstance) -> StepResult:
        if self.model.n_trained < 1:
            raise ControllerError("step before warm-up")
        cfg = self.config
        enc = self.encoder.encode(labeled.instance, labeled.label)
        pred, _ = self.model.predict(enc)
        correct = pred == labeled.label
        drift = False
        retrained = False

        if self.mode == STABLE:
            alarm = self.detector.observe(0.0 if correct else 1.0)
            if alarm and cfg.strategy is not None:
                drift = True
                self.n_drifts += 1
                self._alarm_index = enc.index
                self.event_log.append((enc.index, "drift"))
                if cfg.strategy == LAST:
                    retrained = self._refit(list(self.buffer), enc.index, enc.index)
                else:
                    pre = math.ceil(cfg.batch_size / 2)
                    post = cfg.batch_size - pre
                    if cfg.strategy == MIXED:
                        self.pending_pre = list(self.buffer)[-pre:]
                        self.remaining = post
                    else:  # NEXT
                        self.pending_pre = []
                        self.remaining = cfg.batch_size
                    self.collected = []
                    if self.remaining == 0:  # mixed with B == 1: no post half
                        retrained = self._refit(self.pending_pre, enc.index, enc.index)
                        self.pending_pre = []
                    else:
                        self.mode = COLLECTING
                        self.event_log.append((enc.index, "retrain_start"))
            elif cfg.incremental:
                self.mini_batch.append(enc)
                if len(self.mini_batch) >= cfg.mini_batch_size:
                    self.model.update(self.mini_batch)
                    self.mini_batch.clear()
        else:  # COLLECTING
            self.collected.append(enc)
            self.remaining -= 1
            if self.remaining == 0:
                retrained = self._refit(
                    self.pending_pre + self.collected, self._alarm_index, enc.index
                )
                self.pending_pre = []
                self.collected = []
                self.mode = STABLE

        self.buffer.append(enc)
        return StepResult(enc.index, pred, labeled.label, correct, drift, retrained)
