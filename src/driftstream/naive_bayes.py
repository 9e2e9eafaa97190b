"""Incremental multi-class naive Bayes over mixed categorical/numeric
features.

Counts and Welford accumulators make from-scratch fitting and per-batch
incremental updates count-equivalent: update(fit(A), B) matches fit(A + B)
exactly on integer counts and to floating-point accumulation error on the
Gaussian parameters. All likelihood math is carried out in log space.

A model can be staged through its next mini-batch updates (``stage``): the
versions it takes, stacked, so that the rows between the updates are scored
in one call, each against its own version, and the model then becomes one
of them (``commit``) with the bits that ``update`` would give.
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
    is alpha times each cardinality and then alpha, as a column; ``fixed``
    are the rows of a term table after the log counts (the per-feature
    denominators, then the prior)."""

    bounds: tuple[int, ...]
    offsets: np.ndarray
    alpha_cards: np.ndarray
    fixed: np.ndarray


@functools.lru_cache(maxsize=64)
def _layout(cards: tuple[int, ...], alpha: float) -> _Layout:
    bounds = tuple(itertools.accumulate(cards, initial=0))
    offsets = np.array(bounds[:-1], dtype=np.int64)
    alpha_cards = (alpha * np.array(cards + (1,), dtype=np.int64))[:, None]
    fixed = np.arange(bounds[-1], bounds[-1] + len(cards) + 1)
    for a in (offsets, alpha_cards, fixed):
        a.flags.writeable = False
    return _Layout(bounds, offsets, alpha_cards, fixed)


class Versions(NamedTuple):
    """Versions of a model, stacked on a leading axis (``stage``): rows
    trained on; the stacked categorical counts with the class counts as
    their last row; the Gaussian means and M2s; and the score state, the
    term table (the smoothed log counts, the log denominator of each
    categorical feature and the log prior, each a row of K) and the
    variances and their ``log(2 pi var)``."""

    n_trained: np.ndarray  # (V,)
    table: np.ndarray  # (V, sum of cardinalities + 1, K)
    gauss: np.ndarray  # (V, 2, K, n_numeric)
    terms: np.ndarray  # (V, sum of cardinalities + n_categorical + 1, K)
    var: np.ndarray  # (V, K, n_numeric)
    log_var: np.ndarray  # (V, K, n_numeric)


class NaiveBayesModel:
    """Class priors plus per-class categorical counts and Gaussian
    accumulators.

    ``cat_cardinalities`` are per-feature category counts including the
    reserved unseen slot. The categorical counts of all features are one
    stacked (sum of cardinalities, K) table, feature after feature, above
    the class counts (``class_counts``) in one count table;
    ``cat_counts[f]`` is feature f's (K, c) view of it. ``g_mean`` and
    ``g_m2`` are the per-class Gaussian means and sums of squared
    deviations over each class's rows.
    Ties in the posterior break toward the lowest class id (numpy argmax
    convention).

    The score state is the model's one version (``Versions``), derived by
    the first scoring call after a ``fit``, or taken from the staged
    versions by ``commit``. ``version_cells`` is how many numbers one
    version holds. ``alpha`` is the Laplace smoothing count and ``var_floor``
    the least Gaussian variance.
    """

    alpha = 1.0
    var_floor = 1e-9

    def __init__(self, n_classes: int, cat_cardinalities: Sequence[int], n_numeric: int):
        if n_classes < 1:
            raise ValueError("need at least one class")
        self.n_classes = n_classes
        self.cat_cardinalities = tuple(map(int, cat_cardinalities))
        self.n_numeric = n_numeric
        self._layout = _layout(self.cat_cardinalities, self.alpha)
        bounds = self._layout.bounds
        top = bounds[-1]
        self.n_trained = 0
        self._table = np.zeros((top + 1, n_classes), dtype=np.int64)
        self._counts, self.class_counts = self._table[:top], self._table[top]
        self.cat_counts = tuple(self._counts[lo:hi].T for lo, hi in zip(bounds, bounds[1:]))
        # the Gaussian means and M2s as one (2, K, n_numeric) array
        self._gauss = np.zeros((2, n_classes, n_numeric))
        self.g_mean, self.g_m2 = self._gauss
        self._state: Optional[Versions] = None
        rows = 2 * top + len(self.cat_cardinalities) + 2  # count and term tables
        self.version_cells = 1 + (rows + 4 * n_numeric) * n_classes

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
    ) -> "NaiveBayesModel":
        """Batch fit on columns: ``labels`` (n,), ``cats`` an (n,
        n_categorical) index matrix and ``nums`` an (n, n_numeric) value
        matrix, row i one instance. Counts exactly reflect the rows; the
        Gaussian parameters are a two-pass mean and M2 per class over the
        class's rows in row order."""
        if not len(labels):
            raise ValueError("cannot fit on an empty instance list")
        model = cls(n_classes, cat_cardinalities, n_numeric)
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
        in ``fit``): ``stage`` them as one mini-batch and ``commit`` the
        version after it."""
        if not len(labels):
            return self
        K = self.n_classes
        if labels.min() < 0 or labels.max() >= K:
            raise ValueError(f"label outside [0, {K})")
        return self.commit(self.stage(labels, cats, nums, len(labels)), 1)

    def stage(self, labels: np.ndarray, cats: np.ndarray, nums: np.ndarray, size: int) -> Versions:
        """The versions of the model through its next updates, from rows
        with labels in [0, K) (columns as in ``fit``): version v is the
        model after ``update`` on each of the first v mini-batches of
        ``size`` rows, one version per complete mini-batch, and version 0
        is the model as it is. The model does not change.

        The counts of every version come from one ``bincount`` of the rows'
        count positions keyed by the first version that holds them, then a
        ``cumsum`` over versions. The Gaussian accumulators take one Welford
        step per row, in row order, on Python floats (the float64
        arithmetic of a per-row numpy update), recorded at each mini-batch
        edge. The term tables of all versions take one ``np.log``, and the
        variances follow from the M2s and class counts of each version."""
        K, layout = self.n_classes, self._layout
        V = len(labels) // size
        n = V * size
        top = layout.bounds[-1]
        width = (top + 1) * K
        # each row's positions in the count table: its categories, then its class
        pos = np.empty((n, len(layout.offsets) + 1), dtype=np.int64)
        np.add(cats[:n], layout.offsets, out=pos[:, :-1])
        pos[:, -1] = top
        pos *= K
        key = np.arange(width, (V + 1) * width, width).repeat(size)  # each row's version's table
        key += labels[:n]
        pos += key[:, None]
        table = np.bincount(pos.ravel(), minlength=(V + 1) * width).reshape(V + 1, top + 1, K)
        table[0] = self._table
        np.cumsum(table, axis=0, out=table)
        d = self.n_numeric
        gauss = np.empty((V + 1, 2, K, d))
        gauss[0] = self._gauss
        if d and V:
            counts = self.class_counts.tolist()
            means, m2s = self._gauss.reshape(2, -1).tolist()  # class k at k * d
            ks, xs = labels[:n].tolist(), nums[:n].tolist()
            edges = []
            for lo in range(0, n, size):
                for k, row in zip(ks[lo : lo + size], xs[lo : lo + size]):
                    c = counts[k] = counts[k] + 1
                    j = k * d
                    for x in row:
                        mean = means[j]
                        delta = x - mean
                        means[j] = mean = mean + delta / c
                        m2s[j] += delta * (x - mean)
                        j += 1
                edges += means
                edges += m2s
            gauss.reshape(-1)[2 * K * d :] = edges
        # the variance: M2 / (n - 1) for a class with two or more rows, at
        # least the floor (np.maximum keeps a NaN)
        n_k = table[:, top, :, None]  # each version's class counts
        var = np.full((V + 1, K, d), self.var_floor)
        np.divide(gauss[:, 1], n_k - 1, out=var, where=n_k >= 2)
        np.maximum(var, self.var_floor, out=var)
        terms = np.empty((V + 1, top + len(layout.alpha_cards), K))
        np.add(table[:, :top], self.alpha, out=terms[:, :top])
        np.add(table[:, top, None], layout.alpha_cards, out=terms[:, top:])
        np.log(terms, out=terms)
        n_trained = self.n_trained + size * np.arange(V + 1)
        terms[:, -1] -= np.log(n_trained + self.alpha * K)[:, None]
        return Versions(n_trained, table, gauss, terms, var, np.log(2.0 * np.pi * var))

    def commit(self, versions: Versions, v: int) -> "NaiveBayesModel":
        """Become version ``v`` of ``versions``, which ``stage`` made from
        this model: its counts, accumulators and score state."""
        self.n_trained = int(versions.n_trained[v])
        self._table[:] = versions.table[v]
        self._gauss[:] = versions.gauss[v]
        self._state = Versions._make(a[v : v + 1] for a in versions)
        return self

    # -- prediction -------------------------------------------------------

    def _score_state(self) -> Versions:
        """The model's one version, staged through no rows."""
        self._state = self.stage(
            np.empty(0, dtype=np.int64),
            np.empty((0, len(self.cat_cardinalities)), dtype=np.int64),
            np.empty((0, self.n_numeric)),
            1,
        )
        return self._state

    def log_scores_many(
        self,
        cats: np.ndarray,
        nums: np.ndarray,
        versions: Optional[Versions] = None,
        at: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-class unnormalized log posteriors, one row per probe: ``cats``
        is an (n, n_categorical) index matrix and ``nums`` an (n, n_numeric)
        value matrix. Row i is scored against version ``at[i]`` of
        ``versions`` (``stage``); by default every row against the model as
        it is. The only scoring routine; every row is computed with the same
        elementwise operations in the same order whatever n and whichever
        version, so a row's scores depend neither on the block it is scored
        in nor on the other versions staged with its own.

        Starting from the log prior, each categorical feature adds its
        smoothed log count and subtracts its log denominator, in feature
        order; then half the summed Gaussian terms
        ``log(2 pi var) + diff**2 / var`` is subtracted. Each term is
        gathered from the tables of the row's version."""
        if versions is None:
            versions = self._state or self._score_state()
        layout = self._layout
        terms = versions.terms
        flat = terms.reshape(-1, self.n_classes)  # the versions' tables, one after another
        if at is None:
            sel = base = 0
        else:
            sel, base = at, (at * terms.shape[1])[:, None]
        fixed = flat.take(layout.fixed + base, axis=0)  # ([n,] n_categorical + 1, K)
        prior = fixed[..., -1, :]
        if self.cat_cardinalities:
            gathered = flat.take((cats + (layout.offsets + base)).T, axis=0)  # (n_categorical, n, K)
            scores = prior + gathered[0]
            scores -= fixed[..., 0, :]
            for f in range(1, len(gathered)):
                scores += gathered[f]
                scores -= fixed[..., f, :]
        else:
            scores = np.empty((len(nums), self.n_classes))
            scores[:] = prior
        if self.n_numeric:
            diffs = nums[:, None, :] - versions.gauss[sel, 0]
            diffs *= diffs
            diffs /= versions.var[sel]
            diffs += versions.log_var[sel]
            scores -= 0.5 * np.add.reduce(diffs, axis=2)
        return scores

    def predict(self, enc: EncodedInstance) -> tuple[int, np.ndarray]:
        """Prediction and scores of one encoded row. The engine never calls it;
        it stays as a benchmark hook (``perfbench/tracer.py`` wraps it)."""
        if self.n_trained < 1:
            raise ValueError("model has no training data")
        scores = self.log_scores_many(enc.cat[None, :], enc.num[None, :])[0]
        return int(np.argmax(scores)), scores

    def predict_many(
        self,
        cats: np.ndarray,
        nums: np.ndarray,
        versions: Optional[Versions] = None,
        at: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Argmax predictions for a probe matrix (``log_scores_many``'s
        rows and versions), ties to the lowest class id."""
        if self.n_trained < 1:
            raise ValueError("model has no training data")
        return np.argmax(self.log_scores_many(cats, nums, versions, at), axis=1)
