"""Feature pipeline: category prefix truncation, categorical index encoding,
Box-Cox transformation of skewed numerics, and target binning.

The encoder is fitted on the warm-up rows it is built from; categories
unseen in them share one reserved index so model dimensionality stays fixed
across retrainings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .stream_core import ConfigError, FeatureSchema, RowError, Table

_EPS = 1e-6
_LAMBDA_LO, _LAMBDA_HI = -5.0, 5.0
_GOLDEN_TOL = 1e-4


class DegenerateInputError(ConfigError):
    """Fitting input carries no usable variation."""


def truncate_category(value: str, prefix_len: int) -> str:
    """First ``prefix_len`` characters of ``value``; shorter values pass
    through unchanged."""
    if prefix_len < 1:
        raise ValueError("prefix_len must be >= 1")
    return value[:prefix_len]


@dataclass(frozen=True)
class BoxCoxParams:
    lam: float
    shift: float = 0.0


def boxcox_log_likelihood(values: np.ndarray, lam: float) -> float:
    """Profile log-likelihood of the power transform for positive data."""
    n = len(values)
    logs = np.log(values)
    if abs(lam) < 1e-8:
        t = logs
    else:
        t = (np.power(values, lam) - 1.0) / lam
    var = t.var()
    if var <= 0:
        return -math.inf
    return -0.5 * n * math.log(var) + (lam - 1.0) * logs.sum()


def fit_boxcox(values: Sequence[float]) -> BoxCoxParams:
    """Fit lambda by maximizing the profile log-likelihood over [-5, 5] with
    golden-section search (tolerance 1e-4). A shift of max(0, 1e-6 - min(x))
    is applied first so all values are positive."""
    x = np.asarray(values, dtype=float)
    if len(x) < 10:
        raise ValueError("need at least 10 values to fit a transform")
    if np.all(x == x[0]):
        raise DegenerateInputError("all values equal")
    shift = max(0.0, _EPS - float(x.min()))
    xs = x + shift

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = _LAMBDA_LO, _LAMBDA_HI
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc = boxcox_log_likelihood(xs, c)
    fd = boxcox_log_likelihood(xs, d)
    while b - a > _GOLDEN_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = boxcox_log_likelihood(xs, c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = boxcox_log_likelihood(xs, d)
    return BoxCoxParams(lam=(a + b) / 2.0, shift=shift)


def apply_boxcox(x: float, params: BoxCoxParams) -> float:
    v = x + params.shift
    if v <= 0:
        raise ValueError(f"value {x} not positive after shift {params.shift}")
    if abs(params.lam) > 1e-8:
        return (v ** params.lam - 1.0) / params.lam
    return math.log(v)


def inverse_boxcox(y: float, params: BoxCoxParams) -> float:
    """The inverse of ``apply_boxcox``; no command calls it, acceptance criterion 7 does."""
    if abs(params.lam) > 1e-8:
        base = params.lam * y + 1.0
        if base <= 0.0:
            raise ValueError(f"value {y} outside the transform's range for lam={params.lam}")
        return base ** (1.0 / params.lam) - params.shift
    return math.exp(y) - params.shift


TERTILE = "tertile"
FIXED_DAYS = "fixed_days"


@dataclass(frozen=True)
class BinBoundaries:
    """Upper class edges; with ``unit_divisor`` > 1 the target is first
    floor-divided into that unit (hours -> days for divisor 24)."""

    upper_edges: tuple[float, ...]
    unit_divisor: float = 1.0

    def __post_init__(self):
        edges = tuple(float(e) for e in self.upper_edges)
        object.__setattr__(self, "upper_edges", edges)
        ascending = all(a < b for a, b in zip(edges, edges[1:]))
        if not edges or not ascending or not all(map(math.isfinite, edges)):
            raise ValueError("upper_edges must be finite and strictly ascending, K >= 2")

    @property
    def n_classes(self) -> int:
        return len(self.upper_edges) + 1


def fit_target_bins(
    values: Sequence[float],
    mode: str = TERTILE,
    day_edges: Sequence[float] = (6, 39),
) -> BinBoundaries:
    """Tertile mode: edges at the empirical 1/3 and 2/3 quantiles (linear
    interpolation). fixed_days mode: the given day edges over an
    hours-valued target (unit divisor 24). No command calls it; acceptance criterion 7 does."""
    if mode == FIXED_DAYS:
        return BinBoundaries(tuple(day_edges), unit_divisor=24.0)
    if mode != TERTILE:
        raise ValueError(f"unknown binning mode {mode!r}")
    x = np.asarray(values, dtype=float)
    if len(x) < 3:
        raise ValueError("need at least as many values as classes")
    edges = (float(np.quantile(x, 1 / 3)), float(np.quantile(x, 2 / 3)))
    if edges[1] <= edges[0]:
        raise DegenerateInputError("collapsed tertile edges (tied values)")
    return BinBoundaries(edges, unit_divisor=1.0)


def bin_target(hours: float, bins: BinBoundaries) -> int:
    """Class label for a non-negative target value. With a unit divisor the
    value is floored into whole units first, making integer day edges exact."""
    if hours < 0:
        raise ValueError("target must be >= 0")
    u = math.floor(hours / bins.unit_divisor) if bins.unit_divisor != 1.0 else hours
    return sum(1 for e in bins.upper_edges if e < u)


class EncoderState:
    """Category-index maps plus optional Box-Cox parameters per numeric
    feature, fitted on the warm-up rows the encoder is built from; unseen
    categories map to the reserved index ``len(categories)``.
    """

    def __init__(
        self,
        schema: FeatureSchema,
        warmup: Table,
        boxcox_features: Sequence[str] = (),
        prefix_len: Optional[dict[str, int]] = None,
    ):
        """Map the categories of ``warmup`` in order of first appearance
        and fit the Box-Cox parameters on it. A setting that names the wrong
        kind of feature raises ``ValueError``, and a failed Box-Cox fit its
        error, naming the feature."""
        self.schema = schema
        self.prefix_len = dict(prefix_len or {})
        self.boxcox_features = tuple(boxcox_features)
        unknown = set(self.boxcox_features) - set(schema.numeric_names)
        if unknown:
            raise ValueError(f"boxcox names features that are not numeric: {sorted(unknown)}")
        unknown = set(self.prefix_len) - set(schema.categorical_names)
        if unknown:
            raise ValueError(
                f"prefix-len names features that are not categorical: {sorted(unknown)}"
            )
        if any(n < 1 for n in self.prefix_len.values()):
            raise ValueError(f"prefix lengths must be >= 1, got {self.prefix_len}")
        self.cat_maps: dict[str, dict[str, int]] = {}
        for name in schema.categorical_names:
            column = warmup.columns[name]
            m = self.cat_maps[name] = {}
            codes, first = np.unique(column.codes, return_index=True)
            tokens = self._vocab(name, column.vocab)
            for code in codes[np.argsort(first)].tolist():
                m.setdefault(tokens[code], len(m))
        self.boxcox: dict[str, BoxCoxParams] = {}
        for name in self.boxcox_features:
            try:
                self.boxcox[name] = fit_boxcox(warmup.columns[name])
            except ValueError as e:
                raise type(e)(f"cannot fit boxcox to {name!r} on the warm-up rows: {e}") from None
        # per feature, the last vocabulary encoded and its tokens' indices
        self._lookups: dict[str, tuple[tuple[str, ...], np.ndarray]] = {}

    def _vocab(self, name: str, vocab: tuple[str, ...]) -> Sequence[str]:
        """The tokens of vocabulary ``vocab`` of feature ``name``,
        prefix-truncated where configured (tokens may then collide)."""
        plen = self.prefix_len.get(name)
        return [truncate_category(t, plen) for t in vocab] if plen else vocab

    @property
    def cat_cardinalities(self) -> tuple[int, ...]:
        """Each categorical feature's category count, the reserved unseen
        slot included."""
        return tuple(len(self.cat_maps[n]) + 1 for n in self.schema.categorical_names)

    @property
    def n_numeric(self) -> int:
        return len(self.schema.numeric_names)

    def encode_many(self, table: Table) -> tuple[np.ndarray, np.ndarray]:
        """Columnar encode: an (n, n_categorical) int64 index matrix and an
        (n, n_numeric) float64 value matrix, row i holding the encoding of
        row i of ``table``. The encoder never changes, so each row is a
        pure function of its values: a categorical column's vocabulary is
        mapped once and its codes gathered; Box-Cox goes through the scalar
        ``apply_boxcox`` one value at a time. A value outside the fitted
        Box-Cox support raises ``RowError`` naming its row."""
        cat_names, num_names = self.schema.categorical_names, self.schema.numeric_names
        cats = np.empty((len(table), len(cat_names)), dtype=np.int64)
        for i, name in enumerate(cat_names):
            column = table.columns[name]
            vocab, lookup = self._lookups.get(name, (None, None))
            if vocab is not column.vocab:  # the slices of a table share its vocabulary
                m = self.cat_maps[name]
                tokens = self._vocab(name, column.vocab)
                lookup = np.array([m.get(t, len(m)) for t in tokens], dtype=np.int64)
                self._lookups[name] = column.vocab, lookup
            cats[:, i] = lookup[column.codes]
        nums = np.empty((len(table), len(num_names)))
        for j, name in enumerate(num_names):
            column = table.columns[name]
            params = self.boxcox.get(name)
            if params is not None:
                column = column.tolist()
                try:
                    column = [apply_boxcox(x, params) for x in column]
                except ValueError as e:
                    i = next(i for i, x in enumerate(column) if x + params.shift <= 0)
                    index = int(table.index[i])
                    raise RowError(f"{name}: {e}", index) from None
            nums[:, j] = column
        return cats, nums

    # a benchmark hook: perfbench/tracer.py wraps this name, and nothing calls it
    encode = encode_many
