"""Tests for prequential evaluation, rolling curves, the stream loader, and
the experiment matrix."""

import csv
import dataclasses
from collections import deque

import numpy as np
import pytest

from driftstream import evaluation, stream_core
from driftstream.adaptation import STRATEGIES, Controller, Records
from driftstream.evaluation import (
    ExperimentConfig,
    experiment_matrix,
    load_stream,
    rolling_mean,
    run_experiment,
    write_curves_csv,
    write_events_csv,
    write_records_csv,
    write_summary_csv,
)
from driftstream.naive_bayes import NaiveBayesModel
from driftstream.preprocess import BinBoundaries
from driftstream.stream_core import (
    CATEGORICAL,
    NUMERIC,
    UNLABELED,
    ConfigError,
    DictColumn,
    FeatureSchema,
    Table,
)
from driftstream.synth import SUDDEN, DriftSpec, SynthConfig, generate, paper_like_config, write_csv
from test_adaptation import reference_step, used_indices
from test_stream_core import csv_writer_bytes

SCHEMA = FeatureSchema((("tok", CATEGORICAL),), "label")


def constant_stream(labels, warmup=4):
    """Warm-up of class-0 instances but its last, of class 1 (so 2 classes are
    inferred), then one instance per given label, all with the same feature
    value so the model keeps predicting 0."""
    n = warmup + len(labels)
    tokens = DictColumn.from_tokens(["a"] * n)
    return Table(np.arange(n), np.array([0] * (warmup - 1) + [1, *labels]), {"tok": tokens})


def small_synth(seed=3):
    return SynthConfig(
        n_instances=3000,
        n_categorical=2,
        n_numeric=1,
        drift=(DriftSpec(SUDDEN, 1500, 0, 1.0),),
        seed=seed,
    )


STATIC = ExperimentConfig(warmup=300)


# -- run_experiment -----------------------------------------------------------


def test_overall_accuracy_arithmetic():
    cfg = ExperimentConfig(warmup=4)
    records, summary = run_experiment(constant_stream([0, 1, 0]), SCHEMA, cfg)
    assert [r.correct for r in records] == [1, 0, 1]
    assert summary.overall_accuracy == pytest.approx(2 / 3)
    assert summary.n_predictions == 3


def test_record_count_equals_stream_minus_warmup():
    stream = generate(small_synth())
    _, summary = run_experiment(stream.table, stream.predictive_schema, STATIC)
    assert summary.n_predictions == 3000 - 300


def test_unlabeled_rows_skipped_after_warmup():
    recs = constant_stream([0, 1, 0])
    bare = Table(np.array([99]), np.array([UNLABELED]), {"tok": DictColumn.from_tokens(["b"])})
    recs = Table.concat(SCHEMA, [recs[:5], bare, recs[5:]])
    cfg = ExperimentConfig(warmup=4)
    records, summary = run_experiment(recs, SCHEMA, cfg)
    assert summary.n_predictions == 3
    assert 99 not in [r.index for r in records]


def test_stream_shorter_than_warmup_rejected():
    cfg = ExperimentConfig(warmup=100)
    with pytest.raises(ConfigError):
        run_experiment(constant_stream([0]), SCHEMA, cfg)


def test_rolling_accuracy_field_matches_rolling_mean():
    stream = generate(small_synth())
    cfg = dataclasses.replace(STATIC, window=50)
    records, _ = run_experiment(stream.table, stream.predictive_schema, cfg)
    expected = rolling_mean([r.correct for r in records], 50)
    got = [r.rolling_accuracy for r in records]
    np.testing.assert_allclose(got, expected, atol=1e-12)


def per_row_rolling(records, window):
    """Rolling accuracy the way a per-row loop keeps it: a deque of the
    last ``window`` correct flags and a running sum."""
    win, win_sum, rolling = deque(maxlen=window), 0, []
    for r in records:
        if len(win) == window:
            win_sum -= win[0]
        win.append(r.correct)
        win_sum += r.correct
        rolling.append(win_sum / len(win))
    return rolling


@pytest.mark.parametrize("strategy", ["last", "mixed"])  # a drift on its retrain's row, or not
@pytest.mark.parametrize("window", [1, 7, 1000, 10_000])  # 10,000 > the predictions
def test_written_rolling_accuracy_is_each_value_formatted(tmp_path, window, strategy):
    """records.csv, curves.csv and events.csv as a per-row csv.writer loop
    writes them, rolling accuracies from a deque, with 12 classes (two-digit
    class ids) and unlabeled rows (gaps in the stream indices)."""
    stream = generate(dataclasses.replace(small_synth(), n_classes=12))
    labels = np.where((stream.table.index > 300) & (stream.table.index % 7 == 0), UNLABELED,
                      stream.table.label)
    table = Table(stream.table.index, labels, stream.table.columns)
    cfg = ExperimentConfig(warmup=300, window=window, detector="page_hinkley", strategy=strategy,
                           batch_size=200, incremental=True)
    records, _ = run_experiment(table, stream.predictive_schema, cfg)
    assert max(records.predicted) >= 10 and max(records.actual) >= 10 and sum(records.drift)
    rolling = per_row_rolling(records, window)
    texts = [f"{a:.6f}" for a in rolling]
    rows = list(records)
    write_records_csv(records, tmp_path / "r.csv")
    write_curves_csv(records, tmp_path / "c.csv")
    write_events_csv(records, tmp_path / "e.csv")
    assert (tmp_path / "r.csv").read_bytes() == csv_writer_bytes(
        ["index", "predicted", "actual", "correct", "rolling_accuracy", "drift", "retrain"],
        [(r.index, r.predicted, r.actual, r.correct, t, r.drift_flag, r.retrain_flag)
         for r, t in zip(rows, texts)],
    )
    assert (tmp_path / "c.csv").read_bytes() == csv_writer_bytes(
        ["index", "rolling_accuracy"], [(r.index, t) for r, t in zip(rows, texts)]
    )
    events = [(r.index, name) for r in rows
              for name, flag in (("drift", r.drift_flag), ("retrain_done", r.retrain_flag)) if flag]
    assert (tmp_path / "e.csv").read_bytes() == csv_writer_bytes(["index", "event"], events)


@pytest.mark.parametrize("window", [1, 50, 10_000])  # 10,000 > the 2,700 predictions
@pytest.mark.parametrize("unlabeled", [False, True])
def test_rolling_accuracy_and_confusion_equal_a_per_row_loop(window, unlabeled):
    stream = generate(small_synth())
    table = stream.table
    if unlabeled:  # every 7th post-warm-up row, skipped by the run
        labels = np.where((table.index > 300) & (table.index % 7 == 0), UNLABELED, table.label)
        table = Table(table.index, labels, table.columns)
    cfg = dataclasses.replace(
        STATIC, window=window, detector="page_hinkley", strategy="last", batch_size=200,
        incremental=True,
    )
    records, summary = run_experiment(table, stream.predictive_schema, cfg)
    assert len(records) == 2700 - (386 if unlabeled else 0)
    rolling = per_row_rolling(records, window)
    assert [r.rolling_accuracy for r in records] == rolling  # float for float
    assert summary.overall_accuracy == sum(r.correct for r in records) / len(records)


def test_accuracy_is_exact_mean_of_correct_flags():
    stream = generate(small_synth())
    records, summary = run_experiment(stream.table, stream.predictive_schema, STATIC)
    assert summary.overall_accuracy == sum(r.correct for r in records) / len(records)


def test_drift_handling_beats_static_on_drifting_stream():
    stream = generate(small_synth())
    _, static = run_experiment(stream.table, stream.predictive_schema, STATIC)
    handled_cfg = dataclasses.replace(
        STATIC, detector="page_hinkley", strategy="last", batch_size=200, incremental=True
    )
    _, handled = run_experiment(stream.table, stream.predictive_schema, handled_cfg)
    assert handled.overall_accuracy > static.overall_accuracy
    assert handled.n_drifts >= 1 and handled.n_retrains >= 1


def _run_capturing(monkeypatch, records, schema, cfg):
    """run_experiment plus the controller it drove."""
    built = []

    def capture(*args):
        built.append(Controller(*args))
        return built[-1]

    monkeypatch.setattr(evaluation, "Controller", capture)
    out, summary = run_experiment(records, schema, cfg)
    return out, summary, built[0]


@pytest.fixture(scope="module")
def drifting_stream():
    return generate(
        SynthConfig(
            n_instances=2000,
            n_categorical=2,
            n_numeric=3,
            drift=(DriftSpec(SUDDEN, 700, 0, 1.0), DriftSpec(SUDDEN, 1300, 0, 1.0)),
            seed=3,
        )
    )


@pytest.mark.parametrize(
    "detector,strategy",
    [("none", None)]
    + [(d, s) for d in ("page_hinkley", "adwin") for s in ("last", "mixed", "next")],
)
@pytest.mark.parametrize("incremental", [False, True])
@pytest.mark.parametrize("batch_size,mini_batch_size", [(1, 1), (1, 10), (40, 10), (40, 1)])
def test_block_path_equals_step_loop(
    monkeypatch, drifting_stream, detector, strategy, incremental, batch_size, mini_batch_size
):
    cfg = ExperimentConfig(
        detector=detector,
        strategy=strategy,
        batch_size=batch_size,
        incremental=incremental,
        mini_batch_size=mini_batch_size,
        warmup=200,
        window=50,
        ph_lambda=2.0,
        adwin_delta=0.5,
    )
    records, schema = drifting_stream.table, drifting_stream.predictive_schema
    block = _run_capturing(monkeypatch, records, schema, cfg)

    def reference_steps(ctrl, rows):  # one-row record blocks from the oracle
        for row in rows:
            r = reference_step(ctrl, row)
            cols = np.array([[r.predicted], [r.actual], [r.drift_flag], [r.retrain_flag]])
            yield Records(np.array([r.index]), *cols)

    monkeypatch.setattr(Controller, "steps", reference_steps)
    plain = _run_capturing(monkeypatch, records, schema, cfg)

    assert list(block[0]) == list(plain[0])  # every prequential record
    assert block[1] == plain[1]  # the summary
    assert block[2].retrain_history == plain[2].retrain_history
    assert block[1].n_drifts == plain[1].n_drifts
    if detector != "none":
        assert plain[1].n_drifts >= 2


@pytest.fixture(scope="module")
def paper_like_stream():
    return load_stream(paper_like_config(seed=42))


@pytest.mark.parametrize(
    "params,alarms",
    [
        (dict(detector="page_hinkley", ph_lambda=0.9), 1102),  # 1,201 at the default 0.6
        (dict(detector="page_hinkley", ph_delta=0.01, ph_lambda=0.8, ph_burn_in=50), None),
        (dict(detector="adwin", adwin_delta=0.01), None),
    ],
    ids=["ph-lambda", "ph-all", "adwin"],
)
def test_controller_runs_the_detector_its_config_names(paper_like_stream, params, alarms):
    # the controller builds its detector from the config, so a controller
    # stepped by hand gives the records of run_experiment on that config
    table, schema = paper_like_stream
    cfg = ExperimentConfig(strategy="last", batch_size=500, incremental=True, **params)
    ctrl = Controller(table[: cfg.warmup], schema, cfg)
    if cfg.detector == "page_hinkley":
        ph = ctrl.detector
        assert (ph.delta, ph.lam, ph.burn_in) == (cfg.ph_delta, cfg.ph_lambda, cfg.ph_burn_in)
    else:
        assert ctrl.detector.delta == cfg.adwin_delta
    blocks = list(ctrl.steps(table[cfg.warmup :].labeled()))
    records, summary = run_experiment(table, schema, cfg)
    for name in ("index", "predicted", "actual", "drift", "retrain"):
        stepped = np.concatenate([getattr(b, name) for b in blocks])
        assert np.array_equal(stepped, getattr(records, name))
    alarms_walked = sum(int(b.drift.sum()) for b in blocks)
    assert (alarms_walked, len(ctrl.retrain_history)) == (summary.n_drifts, summary.n_retrains)
    assert summary.n_drifts == int(records.drift.sum()) > 0
    if alarms is not None:
        assert summary.n_drifts == alarms


@pytest.fixture(scope="module")
def gappy_stream(drifting_stream):
    """``drifting_stream`` with a tenth of its rows after the first 200 unlabeled."""
    table = drifting_stream.table
    label = table.label.copy()
    rng = np.random.default_rng(8)
    label[200 + np.flatnonzero(rng.random(len(label) - 200) < 0.1)] = UNLABELED
    return Table(table.index, label, table.columns), drifting_stream.predictive_schema


@pytest.mark.parametrize("detector", ["page_hinkley", "adwin"])
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("batch_size", [1, 2, 7, 301])
@pytest.mark.parametrize("incremental", [False, True])
def test_refit_bounds_name_the_rows_each_refit_fitted(
    monkeypatch, gappy_stream, detector, strategy, batch_size, incremental
):
    # a refit fits the labeled rows that the controller stepped or held from
    # its warm-up from first_index to last_index, all but the alarm row; and
    # the summary counts the alarms and refits of that walk
    table, schema = gappy_stream
    cfg = ExperimentConfig(detector=detector, strategy=strategy, batch_size=batch_size,
                           incremental=incremental, warmup=200, ph_lambda=2.0, adwin_delta=0.5)
    ctrl = Controller(table[: cfg.warmup], schema, cfg)
    stepped = table[cfg.warmup :].labeled()
    assert len(stepped) <= 0.95 * (len(table) - cfg.warmup)
    fits, alarms, fit, observe = [], [], NaiveBayesModel.fit.__func__, ctrl.detector.observe

    def spy(cls, labels, cats, nums, *shape):
        fits.append((labels.copy(), cats.copy(), nums.copy()))
        return fit(cls, labels, cats, nums, *shape)

    def counting(x):
        alarms.append(observe(x))
        return alarms[-1]

    monkeypatch.setattr(NaiveBayesModel, "fit", classmethod(spy))
    ctrl.detector.observe = counting
    for _ in ctrl.steps(stepped):
        pass
    monkeypatch.undo()

    held = np.concatenate((table.index[: cfg.warmup], stepped.index)).tolist()
    cats, nums = ctrl.encoder.encode_many(table)  # row i holds stream index i
    assert len(fits) == len(ctrl.retrain_history) > 0
    for event, (labels, fit_cats, fit_nums) in zip(ctrl.retrain_history, fits):
        rows = list(used_indices(event, held))
        assert np.array_equal(labels, table.label[rows])
        assert np.array_equal(fit_cats, cats[rows]) and np.array_equal(fit_nums, nums[rows])
    _, summary = run_experiment(table, schema, cfg)
    assert (summary.n_drifts, summary.n_retrains) == (sum(alarms), len(fits))


# -- config validation --------------------------------------------------------


def test_strategy_without_detector_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(detector="none", strategy="next")


def test_detector_without_strategy_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(detector="adwin", strategy=None)


def test_unknown_detector_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(detector="cusum", strategy="last")


def test_unknown_strategy_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig(detector="adwin", strategy="newest")


# -- rolling_mean -------------------------------------------------------------


def test_rolling_mean_example():
    assert rolling_mean([1, 2, 3], 2) == pytest.approx([1.0, 1.5, 2.5])


def test_rolling_mean_window_at_least_length():
    assert rolling_mean([1, 2, 3], 10) == pytest.approx([1.0, 1.5, 2.0])


def test_rolling_mean_constant_series():
    assert rolling_mean([0.7] * 20, 5) == pytest.approx([0.7] * 20)


def test_rolling_mean_window_zero_rejected():
    with pytest.raises(ValueError):
        rolling_mean([1.0], 0)


def test_rolling_mean_empty():
    assert rolling_mean([], 3) == []


# -- grid search --------------------------------------------------------------


def test_grid_search_cardinality_and_best():
    """A threshold grid run through experiment_matrix gives one summary per
    grid value, in grid order, each equal to that value's own run; the value
    kept by the gridsearch rule (first of the highest) reaches the best
    accuracy."""
    stream = generate(small_synth())
    fixed = dataclasses.replace(
        STATIC, detector="page_hinkley", strategy="last", batch_size=200
    )
    grid = (0.3, 0.6, 0.9)
    configs = [dataclasses.replace(fixed, ph_lambda=v) for v in grid]
    summaries = experiment_matrix(stream.table, stream.predictive_schema, configs)
    assert len(summaries) == len(grid)
    for config, summary in zip(configs, summaries):
        _, solo = run_experiment(stream.table, stream.predictive_schema, config)
        assert summary == solo
    best_value, best = max(zip(grid, summaries), key=lambda p: p[1].overall_accuracy)
    assert best_value in grid
    assert best.overall_accuracy == max(s.overall_accuracy for s in summaries)


# -- sources and matrix -------------------------------------------------------


def test_synth_source_hides_hidden_feature():
    cfg = dataclasses.replace(small_synth(), hidden_context=True)
    records, schema = load_stream(cfg)
    assert "automation" not in schema.names
    assert len(records) == 3000


def test_csv_source_round_trip(tmp_path):
    stream = generate(small_synth())
    p = tmp_path / "s.csv"
    write_csv(stream.table, stream.schema, p)
    records, schema = load_stream(str(p), "label")
    assert schema == stream.schema  # the column kinds sniffed from the file
    assert records == stream.table


@pytest.fixture(scope="module")
def awkward_source(tmp_path_factory):
    """A CSV stream of 1,500 rows: quoted and non-ASCII tokens, empty cells,
    unlabeled rows after the warm-up, categories first seen late and one
    seen in a few rows only."""
    rng = np.random.default_rng(4)
    p = tmp_path_factory.mktemp("awkward") / "s.csv"
    acts, res = ["a,b", 'a"b', "", "é", "x"], ["日本", "", "y"]
    with open(p, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["act", "dur", "res", "label"])
        for i in range(1500):
            y = int(rng.integers(3))
            act = acts[(y + int(rng.integers(2))) % len(acts)]
            if i > 900 and rng.random() < 0.1:
                act = "late"
            if 700 <= i < 710:
                act = "few"
            label = "" if i > 300 and rng.random() < 0.05 else y
            w.writerow([act, repr(y + rng.normal()), res[int(rng.integers(3))], label])
    return str(p)


@pytest.mark.parametrize("chunk_rows", [1, 7, 4096])
def test_read_chunk_size_changes_no_table_and_no_record(monkeypatch, awkward_source, chunk_rows):
    cfg = dataclasses.replace(STATIC, detector="page_hinkley", strategy="last", batch_size=100,
                              incremental=True)
    table, schema = load_stream(awkward_source, "label")
    assert schema == FeatureSchema(
        (("act", CATEGORICAL), ("dur", NUMERIC), ("res", CATEGORICAL)), "label"
    )
    records, summary = run_experiment(table, schema, cfg)
    monkeypatch.setattr(stream_core, "CHUNK_ROWS", chunk_rows)
    chunked, _ = load_stream(awkward_source, "label")
    assert chunked == table  # the same indices, labels, values and tokens
    assert chunked.index.tolist() == list(range(1500))
    assert chunked.columns["act"].tokens() == table.columns["act"].tokens()
    chunked_records, chunked_summary = run_experiment(chunked, schema, cfg)
    assert list(chunked_records) == list(records)
    assert chunked_summary == summary and summary.n_drifts > 0


def test_csv_source_bins_hour_labels(tmp_path):
    p = tmp_path / "s.csv"
    with open(p, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["tok", "label"])
        for hours in (100.0, 936.0, 960.0):
            w.writerow(["a", hours])
    records, _ = load_stream(str(p), "label", bins=BinBoundaries((6, 39), unit_divisor=24.0))
    assert records.label.tolist() == [0, 1, 2]


def matrix(stream, detectors, batch_sizes, workers=1):
    """``experiment_matrix`` over the incremental detector x batch size x
    strategy grid on STATIC, keyed by (detector, batch size, strategy)."""
    keys = [(d, b, s) for d in detectors for b in batch_sizes for s in STRATEGIES]
    configs = [
        dataclasses.replace(STATIC, detector=d, batch_size=b, strategy=s, incremental=True)
        for d, b, s in keys
    ]
    return dict(zip(keys, experiment_matrix(*stream, configs, workers)))


def test_matrix_shape_and_keys():
    results = matrix(load_stream(small_synth()), ("page_hinkley", "adwin"), (100, 200))
    assert len(results) == 2 * 2 * 3
    assert ("page_hinkley", 100, "last") in results


def test_matrix_cells_match_separate_runs():
    records, schema = load_stream(small_synth())
    base = dataclasses.replace(STATIC, detector="none", strategy=None)
    results = matrix((records, schema), ("adwin",), (200,))
    for (det, b, strat), summary in results.items():
        cfg = dataclasses.replace(
            base, detector=det, strategy=strat, batch_size=b, incremental=True
        )
        _, solo = run_experiment(records, schema, cfg)
        assert summary.overall_accuracy == solo.overall_accuracy
        assert summary.n_drifts == solo.n_drifts


def test_matrix_worker_count_does_not_change_results():
    stream = load_stream(small_synth())
    serial = matrix(stream, ("page_hinkley",), (100,), workers=1)
    parallel = matrix(stream, ("page_hinkley",), (100,), workers=2)
    assert serial.keys() == parallel.keys()
    for k in serial:
        assert serial[k].overall_accuracy == parallel[k].overall_accuracy


def test_matrix_sends_the_stream_once_per_worker(monkeypatch):
    # each worker gets the stream when it starts, not with every config
    stream = load_stream(small_synth())
    pickled = []

    def counting(table, protocol):
        pickled.append(protocol)
        return object.__reduce_ex__(table, protocol)

    monkeypatch.setattr(Table, "__reduce_ex__", counting, raising=False)
    parallel = matrix(stream, ("page_hinkley",), (100, 200), workers=2)
    assert len(parallel) == 6
    assert 1 <= len(pickled) <= 2
    monkeypatch.undo()
    assert parallel == matrix(stream, ("page_hinkley",), (100, 200), workers=1)


# -- CSV writers --------------------------------------------------------------


def test_record_and_curve_csvs(tmp_path):
    cfg = ExperimentConfig(warmup=4)
    records, _ = run_experiment(constant_stream([0, 1, 0]), SCHEMA, cfg)
    rp, cp, ep = tmp_path / "r.csv", tmp_path / "c.csv", tmp_path / "e.csv"
    write_records_csv(records, rp)
    write_curves_csv(records, cp)
    write_events_csv(records, ep)
    rows = rp.read_text().splitlines()
    assert rows[0] == "index,predicted,actual,correct,rolling_accuracy,drift,retrain"
    assert rows[1] == "4,0,0,1,1.000000,0,0"
    assert cp.read_text().splitlines()[2] == "5,0.500000"
    assert ep.read_text().splitlines() == ["index,event"]  # no events fired


def test_summary_csv_formatting(tmp_path):
    p = tmp_path / "s.csv"
    write_summary_csv(
        [{"detector": "adwin", "accuracy": 0.123456789, "n_drifts": 3}], p
    )
    assert p.read_text().splitlines() == [
        "detector,accuracy,n_drifts",
        "adwin,0.123457,3",
    ]


def test_summary_csv_empty_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_summary_csv([], tmp_path / "s.csv")
