"""Incremental multi-class naive Bayes over mixed categorical/numeric
features.

Counts and Welford accumulators make from-scratch fitting and per-batch
incremental updates count-equivalent: update(fit(A), B) matches fit(A + B)
exactly on integer counts and to floating-point accumulation error on the
Gaussian parameters. All likelihood math is carried out in log space.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np

from .preprocess import EncodedInstance

_SERIAL_VERSION = 1
_LOG_2PI = float(np.log(2.0 * np.pi))


class Welford:
    """Streaming (count, mean, M2) accumulator."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def push(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    def variance(self, floor: float = 0.0) -> float:
        if self.count >= 2:
            return max(self.m2 / (self.count - 1), floor)
        return floor


class NaiveBayesModel:
    """Class priors plus per-class categorical counts and Gaussian
    accumulators.

    ``cat_cardinalities`` are per-feature category counts including the
    reserved unseen slot. Ties in the posterior break toward the lowest
    class id (numpy argmax convention).
    """

    def __init__(
        self,
        n_classes: int,
        cat_cardinalities: Sequence[int],
        n_numeric: int,
        smoothing_alpha: float = 1.0,
        var_floor: float = 1e-9,
    ):
        if n_classes < 1:
            raise ValueError("need at least one class")
        if smoothing_alpha <= 0 or var_floor <= 0:
            raise ValueError("smoothing_alpha and var_floor must be > 0")
        self.n_classes = n_classes
        self.cat_cardinalities = tuple(int(c) for c in cat_cardinalities)
        self.n_numeric = n_numeric
        self.alpha = smoothing_alpha
        self.var_floor = var_floor
        K = n_classes
        self.class_counts = np.zeros(K, dtype=np.int64)
        self.cat_counts = [np.zeros((K, c), dtype=np.int64) for c in self.cat_cardinalities]
        self.g_count = np.zeros((K, n_numeric), dtype=np.int64)
        self.g_mean = np.zeros((K, n_numeric))
        self.g_m2 = np.zeros((K, n_numeric))

    # -- training ---------------------------------------------------------

    @classmethod
    def fit(
        cls,
        instances: Sequence[EncodedInstance],
        n_classes: int,
        cat_cardinalities: Sequence[int],
        n_numeric: int,
        smoothing_alpha: float = 1.0,
        var_floor: float = 1e-9,
    ) -> "NaiveBayesModel":
        """Batch fit; counts exactly reflect the instance list."""
        if not instances:
            raise ValueError("cannot fit on an empty instance list")
        model = cls(n_classes, cat_cardinalities, n_numeric, smoothing_alpha, var_floor)
        labels = np.array([e.label for e in instances], dtype=np.int64)
        if labels.min() < 0 or labels.max() >= n_classes:
            raise ValueError("label id outside [0, n_classes)")
        model.class_counts = np.bincount(labels, minlength=n_classes).astype(np.int64)
        if model.cat_cardinalities:
            cats = np.array([e.cat for e in instances])
            for f, c in enumerate(model.cat_cardinalities):
                flat = labels * c + cats[:, f]
                model.cat_counts[f] = (
                    np.bincount(flat, minlength=n_classes * c)
                    .reshape(n_classes, c)
                    .astype(np.int64)
                )
        if n_numeric:
            nums = np.array([e.num for e in instances])
            for k in range(n_classes):
                xs = nums[labels == k]
                if len(xs) == 0:
                    continue
                mean = xs.mean(axis=0)
                model.g_count[k] = len(xs)
                model.g_mean[k] = mean
                model.g_m2[k] = ((xs - mean) ** 2).sum(axis=0)
        return model

    def update(self, batch: Iterable[EncodedInstance]) -> "NaiveBayesModel":
        """Advance counts and accumulators with new labeled instances."""
        for e in batch:
            k = e.label
            if k is None or not 0 <= k < self.n_classes:
                raise ValueError(f"label {k!r} outside [0, {self.n_classes})")
            self.class_counts[k] += 1
            for f in range(len(self.cat_cardinalities)):
                self.cat_counts[f][k, e.cat[f]] += 1
            n = self.g_count[k] + 1
            delta = e.num - self.g_mean[k]
            self.g_mean[k] = self.g_mean[k] + delta / n
            self.g_m2[k] = self.g_m2[k] + delta * (e.num - self.g_mean[k])
            self.g_count[k] = n
        return self

    # -- prediction -------------------------------------------------------

    @property
    def n_trained(self) -> int:
        return int(self.class_counts.sum())

    def _variances(self) -> np.ndarray:
        var = np.full((self.n_classes, self.n_numeric), self.var_floor)
        ok = self.g_count >= 2
        np.divide(self.g_m2, np.maximum(self.g_count - 1, 1), out=var, where=ok)
        return np.maximum(var, self.var_floor)

    def log_scores_many(self, cats: np.ndarray, nums: np.ndarray) -> np.ndarray:
        """Per-class unnormalized log posteriors, one row per probe: ``cats``
        is an (n, n_categorical) index matrix and ``nums`` an (n, n_numeric)
        value matrix. The only scoring routine; every row is computed with
        the same elementwise operations in the same order whatever n is, so
        a row's scores do not depend on the block it is scored in."""
        n = len(cats) if self.cat_cardinalities else len(nums)
        N = self.n_trained
        K = self.n_classes
        scores = np.empty((n, K))
        scores[:] = np.log(self.class_counts + self.alpha) - np.log(N + self.alpha * K)
        for f, c in enumerate(self.cat_cardinalities):
            log_counts = np.log(self.cat_counts[f] + self.alpha).T  # (c, K)
            scores = (scores + log_counts[cats[:, f]]) - np.log(
                self.class_counts + self.alpha * c
            )
        if self.n_numeric:
            var = self._variances()
            diff = nums[:, None, :] - self.g_mean
            scores = scores - 0.5 * (np.log(2.0 * np.pi * var) + diff * diff / var).sum(axis=-1)
        return scores

    def log_scores(self, enc: EncodedInstance) -> np.ndarray:
        """Per-class unnormalized log posterior of one instance."""
        return self.log_scores_many(enc.cat[None, :], enc.num[None, :])[0]

    def predict(self, enc: EncodedInstance) -> tuple[int, np.ndarray]:
        if self.n_trained < 1:
            raise ValueError("model has no training data")
        scores = self.log_scores(enc)
        return int(np.argmax(scores)), scores

    def predict_many(self, cats: np.ndarray, nums: np.ndarray) -> np.ndarray:
        """Argmax predictions for a probe matrix; row i is bit-for-bit the
        prediction ``predict`` makes for probe i."""
        if self.n_trained < 1:
            raise ValueError("model has no training data")
        return np.argmax(self.log_scores_many(cats, nums), axis=1)

    def posterior(self, enc: EncodedInstance) -> np.ndarray:
        """Normalized class posterior (max-subtracted softmax of log scores)."""
        s = self.log_scores(enc)
        s = np.exp(s - s.max())
        return s / s.sum()

    # -- plumbing ---------------------------------------------------------

    def clone(self) -> "NaiveBayesModel":
        m = NaiveBayesModel(
            self.n_classes, self.cat_cardinalities, self.n_numeric, self.alpha, self.var_floor
        )
        m.class_counts = self.class_counts.copy()
        m.cat_counts = [a.copy() for a in self.cat_counts]
        m.g_count = self.g_count.copy()
        m.g_mean = self.g_mean.copy()
        m.g_m2 = self.g_m2.copy()
        return m

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": _SERIAL_VERSION,
                "n_classes": self.n_classes,
                "cat_cardinalities": list(self.cat_cardinalities),
                "n_numeric": self.n_numeric,
                "alpha": self.alpha,
                "var_floor": self.var_floor,
                "class_counts": self.class_counts.tolist(),
                "cat_counts": [a.tolist() for a in self.cat_counts],
                "g_count": self.g_count.tolist(),
                "g_mean": self.g_mean.tolist(),
                "g_m2": self.g_m2.tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "NaiveBayesModel":
        doc = json.loads(text)
        if doc.get("version") != _SERIAL_VERSION:
            raise ValueError(f"unsupported model version {doc.get('version')!r}")
        m = cls(
            doc["n_classes"],
            doc["cat_cardinalities"],
            doc["n_numeric"],
            doc["alpha"],
            doc["var_floor"],
        )
        m.class_counts = np.array(doc["class_counts"], dtype=np.int64)
        m.cat_counts = [np.array(a, dtype=np.int64) for a in doc["cat_counts"]]
        m.g_count = np.array(doc["g_count"], dtype=np.int64)
        m.g_mean = np.array(doc["g_mean"], dtype=float)
        m.g_m2 = np.array(doc["g_m2"], dtype=float)
        return m
