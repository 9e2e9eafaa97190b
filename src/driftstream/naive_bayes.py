"""Incremental multi-class naive Bayes over mixed categorical/numeric
features.

Counts and Welford accumulators make from-scratch fitting and per-batch
incremental updates count-equivalent: update(fit(A), B) matches fit(A + B)
exactly on integer counts and to floating-point accumulation error on the
Gaussian parameters. All likelihood math is carried out in log space.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .preprocess import EncodedInstance


class _Layout(NamedTuple):
    """Constants shared by every model of one shape (cardinalities and
    alpha). The stacked count table holds feature f in rows ``bounds[f]``
    to ``bounds[f + 1]``, the first of them ``offsets[f]``; ``alpha_cards``
    is alpha times each cardinality and then alpha, as a column."""

    bounds: tuple[int, ...]
    offsets: np.ndarray
    alpha_cards: np.ndarray


@functools.lru_cache(maxsize=64)
def _layout(cards: tuple[int, ...], alpha: float) -> _Layout:
    bounds = tuple(itertools.accumulate(cards, initial=0))
    offsets = np.array(bounds[:-1], dtype=np.int64)
    alpha_cards = (alpha * np.array(cards + (1,), dtype=np.int64))[:, None]
    offsets.flags.writeable = alpha_cards.flags.writeable = False
    return _Layout(bounds, offsets, alpha_cards)


class NaiveBayesModel:
    """Class priors plus per-class categorical counts and Gaussian
    accumulators.

    ``cat_cardinalities`` are per-feature category counts including the
    reserved unseen slot. The categorical counts of all features are one
    stacked (sum of cardinalities, K) table, feature after feature;
    ``cat_counts[f]`` is feature f's (K, c) view of it. ``g_mean`` and
    ``g_m2`` are the per-class Gaussian means and sums of squared
    deviations over each class's rows (``class_counts``).
    Ties in the posterior break toward the lowest class id (numpy argmax
    convention).

    The score state (log prior, log count table, per-feature denominators,
    variances and their logs) is derived once per model change, by the
    first scoring call after it: a fitted model has none yet, and
    ``update`` clears it.
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
        self.cat_cardinalities = tuple(map(int, cat_cardinalities))
        self.n_numeric = n_numeric
        self.alpha = smoothing_alpha
        self.var_floor = var_floor
        self._layout = _layout(self.cat_cardinalities, self.alpha)
        bounds = self._layout.bounds
        self.n_trained = 0
        self.class_counts = np.zeros(n_classes, dtype=np.int64)
        self._counts = np.zeros((bounds[-1], n_classes), dtype=np.int64)
        self.cat_counts = tuple(self._counts[lo:hi].T for lo, hi in zip(bounds, bounds[1:]))
        # the Gaussian means and M2s as one (2, K, n_numeric) array
        self._gauss = np.zeros((2, n_classes, n_numeric))
        self.g_mean, self.g_m2 = self._gauss
        self._state: Optional[tuple] = None
        self._var: Optional[list] = None  # the variances as ``update`` left them

    def _count_index(self, labels: np.ndarray, cats: np.ndarray) -> np.ndarray:
        """Flat positions in the stacked table of each row's categories."""
        return ((cats + self._layout.offsets) * self.n_classes + labels[:, None]).ravel()

    # -- training ---------------------------------------------------------

    @classmethod
    def fit(
        cls,
        labels: np.ndarray,
        cats: np.ndarray,
        nums: np.ndarray,
        n_classes: int,
        cat_cardinalities: Sequence[int],
        n_numeric: int,
        smoothing_alpha: float = 1.0,
        var_floor: float = 1e-9,
    ) -> "NaiveBayesModel":
        """Batch fit on columns: ``labels`` (n,), ``cats`` an (n,
        n_categorical) index matrix and ``nums`` an (n, n_numeric) value
        matrix, row i one instance. Counts exactly reflect the rows; the
        Gaussian parameters are a two-pass mean and M2 per class over the
        class's rows in row order."""
        if not len(labels):
            raise ValueError("cannot fit on an empty instance list")
        model = cls(n_classes, cat_cardinalities, n_numeric, smoothing_alpha, var_floor)
        labels = np.asarray(labels, dtype=np.int64)
        if labels.min() < 0:
            raise ValueError("label id outside [0, n_classes)")
        class_counts = np.bincount(labels, minlength=n_classes)
        if len(class_counts) > n_classes:
            raise ValueError("label id outside [0, n_classes)")
        model.n_trained = len(labels)
        model.class_counts[:] = class_counts
        counts = model._counts
        if counts.size:
            counts.ravel()[:] = np.bincount(model._count_index(labels, cats), minlength=counts.size)
        if n_numeric:
            # the arithmetic of xs.mean(axis=0) and ((xs - mean) ** 2).sum(axis=0)
            masks = labels == np.arange(n_classes)[:, None]
            for k, n_k in enumerate(class_counts.tolist()):
                if n_k:
                    xs = nums.compress(masks[k], axis=0)
                    mean = np.divide(np.add.reduce(xs, axis=0), n_k, out=model.g_mean[k])
                    dev = xs - mean
                    np.add.reduce(np.square(dev, out=dev), axis=0, out=model.g_m2[k])
        return model

    def update(self, labels: np.ndarray, cats: np.ndarray, nums: np.ndarray) -> "NaiveBayesModel":
        """Advance counts and accumulators with new labeled rows (columns as
        in ``fit``). Categorical counts are added by one ``bincount``; the
        Gaussian accumulators take one Welford step per row, in row order,
        on Python floats, which is the float64 arithmetic of a per-row numpy
        update. The variances come from the same floats: IEEE division and
        the comparison with the floor give the bits of ``_variances``."""
        ks = labels.tolist()
        if not ks:
            return self
        K = self.n_classes
        if min(ks) < 0 or max(ks) >= K:
            raise ValueError(f"label outside [0, {K})")
        self._state = None
        self.n_trained += len(ks)
        stacked = self._counts
        if stacked.size:
            flat = np.bincount(self._count_index(labels, cats), minlength=stacked.size)
            stacked += flat.reshape(stacked.shape)
        counts = self.class_counts.tolist()
        if self.n_numeric:
            means, m2s = self._gauss.tolist()
            for k, row in zip(ks, nums.tolist()):
                n = counts[k] = counts[k] + 1
                mean, m2 = means[k], m2s[k]
                for d, x in enumerate(row):
                    delta = x - mean[d]
                    mean[d] += delta / n
                    m2[d] += delta * (x - mean[d])
            self._gauss[:] = means, m2s
            # np.maximum(v, floor), NaN included
            floor = self.var_floor
            self._var = [
                [floor if (v := m / (n - 1)) < floor else v for m in row]
                if n >= 2 else [floor] * len(row)
                for n, row in zip(counts, m2s)
            ]
        else:
            for k in ks:
                counts[k] += 1
        self.class_counts[:] = counts
        return self

    # -- prediction -------------------------------------------------------

    def _variances(self) -> np.ndarray:
        var = np.full((self.n_classes, self.n_numeric), self.var_floor)
        n = self.class_counts[:, None]
        np.divide(self.g_m2, np.maximum(n - 1, 1), out=var, where=n >= 2)
        return np.maximum(var, self.var_floor)

    def _score_state(self) -> tuple:
        """The term table: the smoothed log counts (sum of cardinalities
        rows), the log denominator of each categorical feature and the log
        prior, each a row of K; then the variances (K, n_numeric) and their
        ``log(2 pi var)``. One ``np.log`` takes all the rows of the table."""
        alpha, layout = self.alpha, self._layout
        top = layout.bounds[-1]
        terms = np.empty((top + len(layout.alpha_cards), self.n_classes))
        np.add(self._counts, alpha, out=terms[:top])
        np.add(self.class_counts, layout.alpha_cards, out=terms[top:])
        np.log(terms, out=terms)
        terms[-1] -= np.log(self.n_trained + alpha * self.n_classes)
        var = log_var = None
        if self.n_numeric:
            var = self._variances() if self._var is None else np.array(self._var)
            log_var = np.log(2.0 * np.pi * var)
        self._state = terms, var, log_var
        self._var = None
        return self._state

    def log_scores_many(self, cats: np.ndarray, nums: np.ndarray) -> np.ndarray:
        """Per-class unnormalized log posteriors, one row per probe: ``cats``
        is an (n, n_categorical) index matrix and ``nums`` an (n, n_numeric)
        value matrix. The only scoring routine; every row is computed with
        the same elementwise operations in the same order whatever n is, so
        a row's scores do not depend on the block it is scored in.

        Starting from the log prior, each categorical feature adds its
        smoothed log count and subtracts its log denominator, in feature
        order; then half the summed Gaussian terms
        ``log(2 pi var) + diff**2 / var`` is subtracted."""
        terms, var, log_var = self._state or self._score_state()
        prior = terms[-1]
        if self.cat_cardinalities:
            top = self._layout.bounds[-1]
            gathered = terms.take((cats + self._layout.offsets).T, axis=0)  # (n_categorical, n, K)
            scores = prior + gathered[0]
            scores -= terms[top]
            for f in range(1, len(gathered)):
                scores += gathered[f]
                scores -= terms[top + f]
        else:
            scores = np.repeat(prior[None, :], len(nums), axis=0)
        if self.n_numeric:
            diffs = nums[:, None, :] - self.g_mean
            diffs *= diffs
            diffs /= var
            diffs += log_var
            scores -= 0.5 * np.add.reduce(diffs, axis=2)
        return scores

    def predict(self, enc: EncodedInstance) -> tuple[int, np.ndarray]:
        """Prediction and scores of one encoded row. The engine never calls it;
        it stays as a benchmark hook (``perfbench/tracer.py`` wraps it)."""
        if self.n_trained < 1:
            raise ValueError("model has no training data")
        scores = self.log_scores_many(enc.cat[None, :], enc.num[None, :])[0]
        return int(np.argmax(scores)), scores

    def predict_many(self, cats: np.ndarray, nums: np.ndarray) -> np.ndarray:
        """Argmax predictions for a probe matrix (``log_scores_many``'s
        rows), ties to the lowest class id."""
        if self.n_trained < 1:
            raise ValueError("model has no training data")
        return np.argmax(self.log_scores_many(cats, nums), axis=1)
