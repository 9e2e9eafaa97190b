"""Synthetic labeled streams with controllable concept drift.

Each concept is a categorical/Gaussian naive-Bayes generative model (uniform
class priors, per-class category tables, per-class Gaussian means with unit
standard deviation). Drift replaces or interpolates the concept's tables, so
Bayes-optimal accuracy under any concept is computable by enumeration
(``exact_bayes_accuracy`` over ``bayes_predict``) and can serve as an
independent oracle.

Randomness comes from numpy's PCG64 seeded through ``SeedSequence(seed)``
with one spawned child stream per role (concept construction, schedule,
labels, one per feature, hidden context). Outputs are bit-identical for a
given config.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .stream_core import (
    CATEGORICAL, NUMERIC, UNLABELED, ConfigError, DictColumn, FeatureSchema, Table, write_columns,
)

SUDDEN = "sudden"
GRADUAL = "gradual"
RECURRING = "recurring"

#: Name of the unobserved step feature mimicking an automation-rate change.
HIDDEN_FEATURE = "automation"

# Dirichlet concentration for category tables; small values give peaked,
# well-separated per-class distributions.
_DIRICHLET_ALPHA = 0.4
_MEAN_RANGE = 3.0
_SIGMA = 1.0


@dataclass(frozen=True)
class DriftSpec:
    kind: str
    position: int
    width: int = 0
    magnitude: float = 1.0

    def __post_init__(self):
        if self.kind not in (SUDDEN, GRADUAL, RECURRING):
            raise ConfigError(f"unknown drift kind {self.kind!r}")
        if self.position < 0 or self.width < 0:
            raise ConfigError("position and width must be >= 0")
        if self.kind == SUDDEN and self.width != 0:
            raise ConfigError("sudden drift must have width 0")
        if self.kind in (GRADUAL, RECURRING) and self.width <= 0:
            raise ConfigError(f"{self.kind} drift needs width > 0")
        if not 0.0 <= self.magnitude <= 1.0:
            raise ConfigError("magnitude must be in [0, 1]")


@dataclass(frozen=True)
class SynthConfig:
    n_instances: int
    n_categorical: int = 3
    n_numeric: int = 2
    n_classes: int = 3
    n_categories: int = 6
    drift: tuple[DriftSpec, ...] = ()
    hidden_context: bool = False
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "drift", tuple(self.drift))
        if self.n_instances <= 0:
            raise ConfigError("n_instances must be > 0")
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.n_categorical < 0 or self.n_numeric < 0:
            raise ConfigError("feature counts must be >= 0")
        if self.n_categorical + self.n_numeric < 1:
            raise ConfigError("need at least one feature")
        if self.n_categories < 2:
            raise ConfigError("need at least 2 categories")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for d in self.drift:
            if d.position >= self.n_instances:
                raise ConfigError(
                    f"drift position {d.position} outside stream of {self.n_instances}"
                )

    def schema(self, include_hidden: bool = True) -> FeatureSchema:
        """Schema of the emitted CSV; the hidden-context feature is present in
        the file but excluded from the default predictive schema."""
        feats = [(f"cat{i}", CATEGORICAL) for i in range(self.n_categorical)]
        feats += [(f"num{i}", NUMERIC) for i in range(self.n_numeric)]
        if include_hidden and self.hidden_context:
            feats.append((HIDDEN_FEATURE, NUMERIC))
        return FeatureSchema(tuple(feats), label_column="label")


@dataclass(frozen=True)
class Concept:
    """Generative parameters of one concept."""

    cat_tables: np.ndarray  # (n_categorical, n_classes, n_categories)
    means: np.ndarray  # (n_numeric, n_classes)


def _draw_concept(rng: np.random.Generator, cfg: SynthConfig) -> Concept:
    tables = rng.dirichlet(
        np.full(cfg.n_categories, _DIRICHLET_ALPHA),
        size=(cfg.n_categorical, cfg.n_classes),
    )
    means = rng.uniform(-_MEAN_RANGE, _MEAN_RANGE, size=(cfg.n_numeric, cfg.n_classes))
    return Concept(tables, means)


def _interpolate(old: Concept, fresh: Concept, m: float) -> Concept:
    return Concept(
        (1.0 - m) * old.cat_tables + m * fresh.cat_tables,
        (1.0 - m) * old.means + m * fresh.means,
    )


def build_concepts(cfg: SynthConfig) -> list[Concept]:
    """Concept 0 plus one (magnitude-interpolated) concept per drift spec."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
    concepts = [_draw_concept(rng, cfg)]
    for d in cfg.drift:
        fresh = _draw_concept(rng, cfg)
        concepts.append(_interpolate(concepts[-1], fresh, d.magnitude))
    return concepts


def concept_schedule(cfg: SynthConfig, rng: np.random.Generator) -> np.ndarray:
    """Realized concept id per stream index.

    Sudden drift switches at the position; gradual drift draws the new
    concept with probability d/width at offset d into the window; recurring
    alternates old and new concept every ``width`` instances from the
    position onward.
    """
    ids = np.zeros(cfg.n_instances, dtype=np.int64)
    for k, d in enumerate(cfg.drift):
        old, new = k, k + 1
        if d.kind == SUDDEN:
            ids[d.position :] = new
        elif d.kind == GRADUAL:
            end = min(d.position + d.width, cfg.n_instances)
            span = np.arange(end - d.position)
            p_new = (span + 1) / d.width
            pick = rng.random(end - d.position) < p_new
            ids[d.position : end] = np.where(pick, new, old)
            ids[end:] = new
        elif d.kind == RECURRING:
            offs = np.arange(cfg.n_instances - d.position)
            phase = (offs // d.width) % 2
            ids[d.position :] = np.where(phase == 0, new, old)
    return ids


@dataclass
class SynthStream:
    config: SynthConfig
    table: Table  # every row labeled; the hidden-context column included
    concept_ids: np.ndarray
    concepts: list[Concept]

    @property
    def schema(self) -> FeatureSchema:
        return self.config.schema(include_hidden=True)

    @property
    def predictive_schema(self) -> FeatureSchema:
        return self.config.schema(include_hidden=False)


def generate(cfg: SynthConfig) -> SynthStream:
    """Generate the full stream; deterministic given ``cfg`` (incl. seed)."""
    root = np.random.SeedSequence(cfg.seed)
    n_feats = cfg.n_categorical + cfg.n_numeric
    children = root.spawn(3 + n_feats + 1)
    # children[0] is reserved for concept construction (see build_concepts)
    rng_schedule = np.random.default_rng(children[1])
    rng_label = np.random.default_rng(children[2])
    feat_rngs = [np.random.default_rng(c) for c in children[3 : 3 + n_feats]]
    rng_hidden = np.random.default_rng(children[3 + n_feats])

    concepts = build_concepts(cfg)
    cid = concept_schedule(cfg, rng_schedule)
    n = cfg.n_instances
    y = rng_label.integers(cfg.n_classes, size=n)

    # each row's category from its uniform draw and the cdf of its concept
    # and class, drawn for one (concept, class) group of rows at a time
    K = cfg.n_classes
    group = cid * K + y
    order, ends = np.argsort(group), np.cumsum(np.bincount(group, minlength=len(concepts) * K))
    cat_vals = np.empty((cfg.n_categorical, n), dtype=np.int64)
    for f in range(cfg.n_categorical):
        u = feat_rngs[f].random(n)
        for g, (lo, hi) in enumerate(zip([0, *ends[:-1].tolist()], ends.tolist())):
            rows = order[lo:hi]
            cdf = np.cumsum(concepts[g // K].cat_tables[f, g % K])
            cat_vals[f, rows] = np.searchsorted(cdf, u[rows], side="right")
    cat_vals.clip(0, cfg.n_categories - 1, out=cat_vals)

    columns: dict = {}
    vocab = tuple(f"c{v}" for v in range(cfg.n_categories))
    for f in range(cfg.n_categorical):
        columns[f"cat{f}"] = DictColumn(cat_vals[f], vocab)
    means = np.stack([c.means for c in concepts])  # (concept, feature, class)
    for j in range(cfg.n_numeric):
        z = feat_rngs[cfg.n_categorical + j].standard_normal(n)
        columns[f"num{j}"] = means[cid, j, y] + _SIGMA * z

    if cfg.hidden_context:
        first_pos = min((d.position for d in cfg.drift), default=n)
        level = np.where(np.arange(n) < first_pos, 0.25, 0.75)
        columns[HIDDEN_FEATURE] = np.clip(level + 0.05 * rng_hidden.standard_normal(n), 0.0, 1.0)

    return SynthStream(cfg, Table(np.arange(n), y, columns), cid, concepts)


def bayes_predict(concept: Concept, cat_idx: Sequence[int], num: Sequence[float]) -> int:
    """Bayes-optimal class under a known concept (uniform priors); with
    ``exact_bayes_accuracy``, the generator's learner-independent oracle."""
    K = concept.cat_tables.shape[1] if concept.cat_tables.size else concept.means.shape[1]
    scores = np.zeros(K)
    for f, v in enumerate(cat_idx):
        scores += np.log(np.maximum(concept.cat_tables[f, :, v], 1e-300))
    for j, x in enumerate(num):
        scores += -0.5 * ((x - concept.means[j]) / _SIGMA) ** 2
    return int(np.argmax(scores))


def exact_bayes_accuracy(rule: Concept, data: Concept) -> float:
    """Exact accuracy of the Bayes rule of ``rule`` on data drawn from
    ``data``; requires a purely categorical feature space (enumerable)."""
    if rule.means.shape[0] != 0:
        raise ValueError("exact enumeration requires n_numeric == 0")
    n_cat, K, C = data.cat_tables.shape
    acc = 0.0
    combos = np.indices([C] * n_cat).reshape(n_cat, -1).T
    for combo in combos:
        pred = bayes_predict(rule, combo, ())
        p_joint = np.full(K, 1.0 / K)
        for f, v in enumerate(combo):
            p_joint = p_joint * data.cat_tables[f, :, v]
        acc += p_joint[pred]
    return float(acc)


def write_csv(table: Table, schema: FeatureSchema, path) -> None:
    """Write a stream to CSV with ``write_columns``, floats as their ``repr``;
    reads back through ``open_csv_stream`` to an equal table."""
    columns = [
        table.columns[name] if kind == NUMERIC else
        (table.columns[name].codes, table.columns[name].vocab) for name, kind in schema.features
    ]
    labels = table.label
    if (labels == UNLABELED).any():  # as text then, an unlabeled row's cell empty
        labels = ["" if y == UNLABELED else str(y) for y in labels.tolist()]
    try:
        write_columns(path, [*schema.names, schema.label_column], [*columns, labels])
    except OSError as e:
        raise OSError(f"cannot write stream to {path}: {e}") from e


def write_concept_sidecar(concept_ids: np.ndarray, path) -> None:
    """Ground-truth concept id per index, for test oracles only."""
    write_columns(path, ("index", "concept_id"), (np.arange(len(concept_ids)), concept_ids))


def paper_like_config(seed: int = 42) -> SynthConfig:
    """Benchmark profile at the scale of the original use case: 70,774
    instances, warm-up handled by the caller, one sudden drift at 35,000."""
    return SynthConfig(
        n_instances=70774,
        n_categorical=3,
        n_numeric=2,
        n_classes=3,
        n_categories=6,
        drift=(DriftSpec(SUDDEN, 35000, 0, 0.9),),
        hidden_context=True,
        seed=seed,
    )


PROFILES = {"paper-like": paper_like_config}
