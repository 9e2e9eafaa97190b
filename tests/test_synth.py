"""Tests for the synthetic drift-stream generator.

The generator's concepts are known in closed form, so Bayes-optimal
accuracies computed by exact enumeration act as independent oracles for the
drift behavior.
"""

import numpy as np
import pytest

from driftstream.evaluation import rolling_mean
from driftstream.stream_core import UNLABELED, Table, open_csv_stream
from driftstream.synth import (
    GRADUAL,
    HIDDEN_FEATURE,
    NONE,
    RECURRING,
    SUDDEN,
    DriftSpec,
    SynthConfig,
    SynthConfigError,
    bayes_predict,
    build_concepts,
    concept_schedule,
    exact_bayes_accuracy,
    generate,
    paper_like_config,
    write_csv,
)


def small_config(**kw):
    base = dict(n_instances=200, n_categorical=2, n_numeric=1, seed=7)
    base.update(kw)
    return SynthConfig(**base)


# -- config validation --------------------------------------------------------


def test_sudden_requires_zero_width():
    with pytest.raises(SynthConfigError):
        DriftSpec(SUDDEN, 10, width=5)


def test_gradual_requires_positive_width():
    with pytest.raises(SynthConfigError):
        DriftSpec(GRADUAL, 10, width=0)


def test_magnitude_bounds():
    with pytest.raises(SynthConfigError):
        DriftSpec(SUDDEN, 10, magnitude=1.5)


def test_drift_position_outside_stream():
    with pytest.raises(SynthConfigError):
        small_config(drift=(DriftSpec(SUDDEN, 200),))


def test_need_at_least_one_feature():
    with pytest.raises(SynthConfigError):
        small_config(n_categorical=0, n_numeric=0)


# -- concept schedule ---------------------------------------------------------


def test_no_drift_schedule_all_zero():
    cfg = SynthConfig(n_instances=100, seed=7, drift=(DriftSpec(NONE, 0),))
    stream = generate(cfg)
    assert (stream.concept_ids == 0).all()


def test_sudden_flips_exactly_at_position():
    cfg = SynthConfig(n_instances=2000, seed=3, drift=(DriftSpec(SUDDEN, 1000, 0, 1.0),))
    ids = generate(cfg).concept_ids
    assert (ids[:1000] == 0).all()
    assert (ids[1000:] == 1).all()


def test_gradual_mixes_inside_window_only():
    cfg = SynthConfig(
        n_instances=3000, seed=5, drift=(DriftSpec(GRADUAL, 1000, width=800),)
    )
    ids = generate(cfg).concept_ids
    assert (ids[:1000] == 0).all()
    assert (ids[1800:] == 1).all()
    window = ids[1000:1800]
    assert (window == 0).any() and (window == 1).any()
    # the new concept becomes monotonically more likely through the window
    assert window[:200].mean() < window[-200:].mean()


def test_recurring_alternates_every_width():
    cfg = SynthConfig(
        n_instances=1000, seed=5, drift=(DriftSpec(RECURRING, 400, width=100),)
    )
    ids = generate(cfg).concept_ids
    assert (ids[:400] == 0).all()
    assert (ids[400:500] == 1).all()
    assert (ids[500:600] == 0).all()
    assert (ids[600:700] == 1).all()


# -- determinism and structure ------------------------------------------------


def test_same_config_bit_identical():
    a = generate(small_config())
    b = generate(small_config())
    assert a.table == b.table
    assert (a.concept_ids == b.concept_ids).all()


def test_different_seed_differs():
    a = generate(small_config(seed=1))
    b = generate(small_config(seed=2))
    assert a.table != b.table


def test_values_and_labels_in_range():
    cfg = small_config(n_instances=500)
    stream = generate(cfg)
    assert stream.table.label.dtype == np.int64
    for i, label in enumerate(stream.table.label):
        assert label != UNLABELED
        assert 0 <= label < cfg.n_classes
    for f in range(cfg.n_categorical):
        column = stream.table.columns[f"cat{f}"]
        assert column.vocab == tuple(f"c{j}" for j in range(cfg.n_categories))
        assert set(column.tokens()) <= set(column.vocab)


def test_magnitude_zero_keeps_concept_unchanged():
    cfg = small_config(
        n_instances=100, drift=(DriftSpec(SUDDEN, 50, 0, 0.0),)
    )
    c0, c1 = build_concepts(cfg)
    np.testing.assert_allclose(c0.cat_tables, c1.cat_tables)
    np.testing.assert_allclose(c0.means, c1.means)


# -- round-trip through CSV ---------------------------------------------------


def test_write_read_round_trip(tmp_path):
    stream = generate(small_config())
    p = tmp_path / "s.csv"
    write_csv(stream.table, stream.schema, p)
    back = Table.concat(stream.schema, open_csv_stream(p, stream.schema))
    assert back == stream.table


def test_file_line_count(tmp_path):
    stream = generate(small_config(n_instances=150))
    p = tmp_path / "s.csv"
    write_csv(stream.table, stream.schema, p)
    assert len(p.read_text().splitlines()) == 151


def test_empty_write_reads_back_empty(tmp_path):
    stream = generate(small_config())
    p = tmp_path / "s.csv"
    write_csv(stream.table[:0], stream.schema, p)
    assert list(open_csv_stream(p, stream.schema)) == []


def test_write_to_bad_path_mentions_path(tmp_path):
    stream = generate(small_config())
    bad = tmp_path / "nope" / "s.csv"
    with pytest.raises(OSError, match="nope"):
        write_csv(stream.table, stream.schema, bad)


# -- Bayes-rate oracle --------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_frozen_bayes_rule_drops_after_full_drift(seed):
    cfg = SynthConfig(
        n_instances=100,
        n_categorical=3,
        n_numeric=0,
        drift=(DriftSpec(SUDDEN, 50, 0, 1.0),),
        seed=seed,
    )
    c0, c1 = build_concepts(cfg)
    pre = exact_bayes_accuracy(c0, c0)
    post = exact_bayes_accuracy(c0, c1)
    assert pre - post >= 0.2


def test_generated_stream_matches_exact_bayes_rate():
    """Accuracy of the concept-0 rule on generated data matches the exact
    enumeration within sampling error, both before and after the drift."""
    cfg = SynthConfig(
        n_instances=20000,
        n_categorical=3,
        n_numeric=0,
        drift=(DriftSpec(SUDDEN, 10000, 0, 1.0),),
        seed=2,
    )
    stream = generate(cfg)
    c0, c1 = stream.concepts

    def empirical(segment):
        hits = 0
        tokens = [segment.columns[f"cat{i}"].tokens() for i in range(3)]
        for row in range(len(segment)):
            cats = [int(tokens[i][row][1:]) for i in range(3)]
            hits += bayes_predict(c0, cats, ()) == segment.label[row]
        return hits / len(segment)

    assert abs(empirical(stream.table[:10000]) - exact_bayes_accuracy(c0, c0)) < 0.03
    assert abs(empirical(stream.table[10000:]) - exact_bayes_accuracy(c0, c1)) < 0.03


# -- hidden context -----------------------------------------------------------


def test_hidden_feature_excluded_from_predictive_schema():
    cfg = small_config(
        hidden_context=True, drift=(DriftSpec(SUDDEN, 100, 0, 0.5),)
    )
    stream = generate(cfg)
    assert HIDDEN_FEATURE in stream.schema.names
    assert HIDDEN_FEATURE not in stream.predictive_schema.names
    assert HIDDEN_FEATURE in stream.table.columns


def test_hidden_feature_steps_at_drift():
    cfg = SynthConfig(
        n_instances=8000,
        hidden_context=True,
        drift=(DriftSpec(SUDDEN, 4000, 0, 0.9),),
        seed=11,
    )
    stream = generate(cfg)
    series = stream.table.columns[HIDDEN_FEATURE]
    rm = rolling_mean(series, 1000)
    assert abs(rm[3999] - 0.25) < 0.02
    assert abs(rm[7999] - 0.75) < 0.02


def test_paper_like_profile_shape():
    cfg = paper_like_config(seed=42)
    assert cfg.n_instances == 70774
    assert cfg.hidden_context
    (d,) = cfg.drift
    assert d.kind == SUDDEN and d.position == 35000
