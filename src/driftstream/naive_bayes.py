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


class _Layout(NamedTuple):
    """Constants shared by every model of one shape (cardinalities, alpha
    and class count K). The count table holds feature f in rows
    ``bounds[f]`` to ``bounds[f + 1]``, the first of them ``offsets[f]``,
    then the class counts and last the rows trained on, in every class's
    column. A term table is the log of rows ``term_rows`` of a count table
    plus ``term_add``: each categorical count plus alpha, the class counts
    plus alpha times each cardinality (the per-feature denominators) and
    plus alpha (the prior's numerator), and the rows trained on plus alpha
    times K (its denominator). A probe's terms are gathered from rows
    ``score_rows`` of a term table, its categories added to the first
    n_categorical: each feature's log count, then the per-feature
    denominators and the prior."""

    bounds: tuple[int, ...]
    offsets: np.ndarray
    term_rows: np.ndarray
    term_add: np.ndarray
    score_rows: np.ndarray


@functools.lru_cache(maxsize=64)
def _layout(cards: tuple[int, ...], alpha: float, n_classes: int) -> _Layout:
    bounds = tuple(itertools.accumulate(cards, initial=0))
    top = bounds[-1]
    offsets = np.array(bounds[:-1], dtype=np.int64)
    term_rows = np.r_[:top, [top] * (len(cards) + 1), top + 1]
    alpha_cards = alpha * np.array(cards + (1, n_classes), dtype=np.int64)
    term_add = np.concatenate((np.full(top, alpha), alpha_cards))[:, None]
    score_rows = np.concatenate((offsets, np.arange(top, top + len(cards) + 1)))
    for a in (offsets, term_rows, term_add, score_rows):
        a.flags.writeable = False
    return _Layout(bounds, offsets, term_rows, term_add, score_rows)


class Versions(NamedTuple):
    """Versions of a model, stacked (``stage``): rows trained on; the count
    tables; the Gaussian means and M2s, followed, as score state, by the
    variances and their ``log(2 pi var)``, with the versions on the second
    axis; and the term tables (the smoothed log counts, the log denominator
    of each categorical feature, the log prior and its log denominator,
    each a row of K)."""

    n_trained: np.ndarray  # (V,), a view of the tables
    table: np.ndarray  # (V, sum of cardinalities + 2, K)
    gauss: np.ndarray  # (4, V, K, n_numeric): mean, M2, var, log(2 pi var)
    terms: np.ndarray  # (V, sum of cardinalities + n_categorical + 2, K)


class NaiveBayesModel:
    """Class priors plus per-class categorical counts and Gaussian
    accumulators.

    ``cat_cardinalities`` are per-feature category counts including the
    reserved unseen slot. The categorical counts of all features are one
    stacked (sum of cardinalities, K) table, feature after feature, above
    the class counts (``class_counts``) and the rows trained on
    (``n_trained``) in one count table; ``cat_counts[f]`` is feature f's
    (K, c) view of it. ``g_mean`` and ``g_m2`` are the per-class Gaussian
    means and sums of squared deviations over each class's rows.
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
        self._layout = _layout(self.cat_cardinalities, self.alpha, n_classes)
        # the Gaussian means and M2s as one (2, K, n_numeric) array
        self._gauss = np.zeros((2, n_classes, n_numeric))
        self._state: Optional[Versions] = None
        top = self._layout.bounds[-1]
        rows = 2 * top + len(self.cat_cardinalities) + 4  # count and term tables
        self.version_cells = 1 + (rows + 4 * n_numeric) * n_classes
        self._table = np.zeros((top + 2, n_classes), dtype=np.int64)

    @property
    def n_trained(self) -> int:
        return int(self._table[-1, 0])

    @n_trained.setter
    def n_trained(self, n: int) -> None:
        self._table[-1] = n

    # views of the count table and of the Gaussian accumulators, taken when
    # read, so that a copy or a pickle holds the tables alone
    class_counts = property(lambda self: self._table[-2])
    _counts = property(lambda self: self._table[:-2])
    g_mean = property(lambda self: self._gauss[0])
    g_m2 = property(lambda self: self._gauss[1])

    @property
    def cat_counts(self) -> tuple[np.ndarray, ...]:
        bounds = self._layout.bounds
        return tuple(self._counts[lo:hi].T for lo, hi in zip(bounds, bounds[1:]))

    def positions(self, labels: np.ndarray, cats: np.ndarray) -> np.ndarray:
        """Each row's flat positions in the count table, an (n,
        n_categorical + 1) int64 matrix: the cells of its categories,
        ``(cats + offsets) * K + label``, then its class cell."""
        layout = self._layout
        pos = np.empty((len(labels), len(layout.offsets) + 1), dtype=np.int64)
        np.add(cats, layout.offsets, out=pos[:, :-1])
        pos[:, -1] = layout.bounds[-1]
        pos *= self.n_classes
        pos += labels[:, None]
        return pos

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
        pos: Optional[np.ndarray] = None,
    ) -> "NaiveBayesModel":
        """Batch fit on columns: ``labels`` (n,), ``cats`` an (n,
        n_categorical) index matrix and ``nums`` an (n, n_numeric) value
        matrix, row i one instance. Counts exactly reflect the rows; the
        Gaussian parameters are a two-pass mean and M2 per class over the
        class's rows in row order. A caller that holds the rows'
        ``positions`` passes them as ``pos``, for labels it has checked to
        be in [0, n_classes); the labels are checked otherwise."""
        if not len(labels):
            raise ValueError("cannot fit on an empty instance list")
        model = cls(n_classes, cat_cardinalities, n_numeric)
        if pos is None:
            labels = np.asarray(labels, dtype=np.int64)
            if labels.min() < 0 or labels.max() >= n_classes:
                raise ValueError("label id outside [0, n_classes)")
            pos = model.positions(labels, cats)
        shape = model._table.shape
        table = np.bincount(pos.ravel(), minlength=shape[0] * shape[1]).reshape(shape)
        table[-1] = len(labels)
        model._table = table
        if n_numeric:
            # the arithmetic of xs.mean(axis=0) and ((xs - mean) ** 2).sum(axis=0)
            # on each class's rows xs, in row order: a slice of the rows
            # sorted by class (a radix sort of the labels as the least int type)
            counts = model.class_counts
            order = labels.astype(np.min_scalar_type(n_classes - 1)).argsort(kind="stable")
            xs = nums.take(order, axis=0)
            classes = list(itertools.pairwise(itertools.accumulate(counts.tolist(), initial=0)))
            mean, m2 = model.g_mean, model.g_m2
            for k, (lo, hi) in enumerate(classes):
                if lo < hi:
                    np.add.reduce(xs[lo:hi], axis=0, out=mean[k])
            np.divide(mean, np.maximum(counts, 1)[:, None], out=mean)  # an absent class's 0 / 1
            dev = xs - mean.repeat(counts, axis=0)
            np.square(dev, out=dev)
            for k, (lo, hi) in enumerate(classes):
                if lo < hi:
                    np.add.reduce(dev[lo:hi], axis=0, out=m2[k])
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

    def stage(
        self,
        labels: np.ndarray,
        cats: np.ndarray,
        nums: np.ndarray,
        size: int,
        pos: Optional[np.ndarray] = None,
    ) -> Versions:
        """The versions of the model through its next updates, from rows
        with labels in [0, K) (columns as in ``fit``, and their
        ``positions`` as ``pos`` if the caller holds them): version v is
        the model after ``update`` on each of the first v mini-batches of
        ``size`` rows, one version per complete mini-batch, and version 0
        is the model as it is. The model does not change.

        The counts of every version come from one ``bincount`` of the rows'
        count positions keyed by the first version that holds them, then a
        cumulative sum over versions. The Gaussian accumulators take one
        Welford step per row, in row order, on Python floats (the float64
        arithmetic of a per-row numpy update), recorded at each mini-batch
        edge. The term tables of all versions take one ``np.log``, and the
        variances follow from the M2s and class counts of each version."""
        K, layout = self.n_classes, self._layout
        V = len(labels) // size
        n = V * size
        width = self._table.size
        if pos is None:
            pos = self.positions(labels[:n], cats[:n])
        # each mini-batch's positions, moved to its version's table
        keys = np.arange(width, (V + 1) * width, width)[:, None]
        keyed = pos[:n].reshape(V, size * pos.shape[1]) + keys
        cells = np.bincount(keyed.ravel(), minlength=(V + 1) * width).reshape(V + 1, width)
        cells[0] = self._table.ravel()
        cells[1:, -K:] = size  # the rows trained on
        np.add.accumulate(cells, axis=0, out=cells)
        table = cells.reshape(V + 1, -1, K)
        d = self.n_numeric
        gauss = np.empty((4, V + 1, K, d))
        gauss[:2, 0] = self._gauss
        if d and V:
            counts = self.class_counts.tolist()
            means, m2s = self._gauss.reshape(2, -1).tolist()  # class k at k * d
            ks, xs = labels[:n].tolist(), nums[:n].tolist()
            mean_edges, m2_edges = [], []
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
                mean_edges += means
                m2_edges += m2s
            gauss[:2, 1:] = np.array((mean_edges, m2_edges)).reshape(2, V, K, d)
        # the variance: M2 / (n - 1), at least the floor (np.maximum keeps a
        # NaN); a class with fewer than two rows has an M2 of 0, so the floor
        var = gauss[2]
        np.divide(gauss[1], np.maximum(table[:, -2, :, None], 2) - 1.0, out=var)
        np.maximum(var, self.var_floor, out=var)
        np.log(np.multiply(2.0 * np.pi, var), out=gauss[3])
        terms = np.add(table.take(layout.term_rows, axis=1), layout.term_add)
        np.log(terms, out=terms)
        terms[:, -2] -= terms[:, -1]
        return Versions(table[:, -1, 0], table, gauss, terms)

    def commit(self, versions: Versions, v: int) -> "NaiveBayesModel":
        """Become version ``v`` of ``versions``, which ``stage`` made from
        this model: its counts, accumulators and score state."""
        n_trained, table, gauss, terms = versions
        self._table[:] = table[v]
        self._gauss[:] = gauss[:2, v]
        self._state = Versions(n_trained[v : v + 1], table[v : v + 1], gauss[:, v : v + 1],
                               terms[v : v + 1])
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
        K, n_cat = self.n_classes, len(self.cat_cardinalities)
        terms = versions.terms
        flat = terms.reshape(-1, K)  # the versions' tables, one after another
        if at is None:
            base, gauss = np.zeros((len(cats), 1), dtype=np.int64), versions.gauss[:, 0]
        else:  # gauss: the means, M2s, variances and their logs, each ([n,] K, n_numeric)
            base, gauss = (at * terms.shape[1])[:, None], versions.gauss.take(at, axis=1)
        rows = base + self._layout.score_rows
        rows[:, :n_cat] += cats
        # (2 n_categorical + 1, n, K): the log counts, the log denominators, the log prior
        gathered = flat.take(rows.T, axis=0)
        scores = gathered[-1]
        for f in range(n_cat):
            scores += gathered[f]
            scores -= gathered[n_cat + f]
        if self.n_numeric:
            diffs = nums.repeat(K, axis=0).reshape(len(nums), K, self.n_numeric)
            diffs -= gauss[0]
            diffs *= diffs
            diffs /= gauss[2]
            diffs += gauss[3]
            scores -= 0.5 * np.add.reduce(diffs, axis=2)
        return scores

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
        return self.log_scores_many(cats, nums, versions, at).argmax(axis=1)

    # a benchmark hook: perfbench/tracer.py wraps this name, and nothing calls it
    predict = predict_many
