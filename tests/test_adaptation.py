"""Tests for the retraining controller: window algebra of the three data
selection strategies, collection state machine, and learning modes.

A scripted detector lets the tests fire an alarm at an exact stream index
and observe exactly what the controller feeds back to it.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftstream import adaptation
from driftstream.adaptation import (
    LAST,
    MIXED,
    NEXT,
    STRATEGIES,
    Collection,
    Controller,
    MAX_INFERRED_CLASSES,
    ExperimentConfig,
    LabelError,
    PrequentialRecord,
)
from driftstream.detectors import NoDetector
from driftstream.evaluation import load_stream
from driftstream.naive_bayes import NaiveBayesModel
from driftstream.stream_core import (
    CATEGORICAL,
    NUMERIC,
    UNLABELED,
    ConfigError,
    DictColumn,
    FeatureSchema,
    Table,
)
from driftstream.synth import DriftSpec, SynthConfig

SCHEMA = FeatureSchema((("tok", CATEGORICAL),), "label")


class ScriptedDetector:
    """Fires exactly when the test arms it; records every call."""

    def __init__(self):
        self.fire = False
        self.calls = 0
        self.resets = 0

    def observe(self, x):
        self.calls += 1
        armed, self.fire = self.fire, False
        return armed

    def reset(self):
        self.resets += 1
        return self


def make_config(strategy=None, **kw):
    """An ExperimentConfig for ``strategy``. A test that scripts alarms
    assigns its detector to ``ctrl.detector`` once the controller is built."""
    return ExperimentConfig(
        detector="none" if strategy is None else "page_hinkley", strategy=strategy, **kw
    )


def model_state(model):
    """A model's state as bytes: trained rows, class counts, the stacked
    categorical counts, the Gaussian means and M2s."""
    return (
        model.n_trained,
        model.class_counts.tobytes(),
        model._counts.tobytes(),
        model.g_mean.tobytes(),
        model.g_m2.tobytes(),
    )


def reference_step(ctrl, row):
    """Test then train on the row of a one-row table, one row at a time: the
    per-row state machine that the block walk replaced, kept as its oracle.
    Score the row, feed the detector (stable mode, with a strategy), then
    react to an alarm or advance the collection, or add the row to the
    mini-batch and update once it is full. It drives the controller's own
    columns, ``collection``, ``_mb_start`` and refit."""
    new = ctrl._append(row)
    index = int(new.index[0])
    label, pred = int(new.label[0]), int(ctrl.model.predict_many(new.cats, new.nums)[0])
    cfg, p = ctrl.config, ctrl._next
    ctrl._next = p + 1
    correct = int(pred == label)
    drift = retrained = 0
    if ctrl.collection is None:
        if cfg.strategy is not None and ctrl.detector.observe(0.0 if correct else 1.0):
            drift = 1
            B = cfg.batch_size
            pre = {LAST: B, MIXED: math.ceil(B / 2), NEXT: 0}[cfg.strategy]
            ctrl.collection = Collection(index, p, max(0, p - pre), p + 1 + B - pre)
        elif cfg.incremental and p + 1 - ctrl._mb_start >= cfg.mini_batch_size:
            batch = ctrl._rows(slice(ctrl._mb_start, p + 1))
            ctrl.model.update(batch.label, batch.cats, batch.nums)
            ctrl._mb_start = p + 1
    # a collection refits once its last row is stepped (*last* at its
    # alarm); the alarm row belongs to no window
    if ctrl.collection is not None and ctrl.collection.end == p + 1:
        alarm_index, a, lo, end = ctrl.collection
        window = np.concatenate((np.arange(lo, a), np.arange(a + 1, end)))
        ctrl._refit(ctrl._rows(window), alarm_index, index)
        retrained = 1
    return PrequentialRecord(index, pred, label, correct, 0.0, drift, retrained)


def used_indices(event, stepped=None):
    """The stream indices of the rows that the refit ``event`` used, read
    from its bounds: each index of ``stepped`` (the rows the controller
    stepped or held from its warm-up; every index if None) from
    ``first_index`` to ``last_index``, the alarm row excepted."""
    first, last = event.first_index, event.last_index
    rows = range(first, last + 1) if stepped is None else (i for i in stepped if first <= i <= last)
    return tuple(i for i in rows if i != event.alarm_index)


def make_stream(n):
    tokens = DictColumn.from_tokens(["ab"[i % 2] for i in range(n)])
    return Table(np.arange(n), np.arange(n) % 2, {"tok": tokens})


def run_with_alarm(strategy, batch_size, alarm_at, n=300, warmup=50, **cfg_kw):
    stream = make_stream(n)
    det = ScriptedDetector()
    cfg = make_config(strategy=strategy, batch_size=batch_size, **cfg_kw)
    ctrl = Controller(stream[:warmup], SCHEMA, cfg)
    ctrl.detector = det
    results = []
    for rec in stream[warmup:]:
        if rec.index[0] == alarm_at:
            det.fire = True
        results.append(ctrl.step(rec))
    return ctrl, det, results


# -- window algebra -----------------------------------------------------------


def test_last_uses_the_b_instances_before_the_alarm():
    ctrl, det, results = run_with_alarm(LAST, 10, alarm_at=100)
    (event,) = ctrl.retrain_history
    assert event.alarm_index == 100
    assert event.retrain_index == 100  # zero collection delay
    assert used_indices(event) == tuple(range(90, 100))
    r = next(r for r in results if r.index == 100)
    assert r.drift_flag and r.retrain_flag


def test_next_uses_the_b_instances_after_the_alarm():
    ctrl, det, results = run_with_alarm(NEXT, 10, alarm_at=100)
    (event,) = ctrl.retrain_history
    assert event.alarm_index == 100
    assert event.retrain_index == 110
    assert used_indices(event) == tuple(range(101, 111))
    assert not next(r for r in results if r.index == 100).retrain_flag
    assert next(r for r in results if r.index == 110).retrain_flag


def test_mixed_splits_half_and_half_around_the_alarm():
    ctrl, det, results = run_with_alarm(MIXED, 10, alarm_at=100)
    (event,) = ctrl.retrain_history
    assert event.retrain_index == 105
    assert used_indices(event) == tuple(range(95, 100)) + tuple(range(101, 106))


def test_mixed_odd_batch_size_puts_extra_instance_before():
    ctrl, _, _ = run_with_alarm(MIXED, 7, alarm_at=100)
    (event,) = ctrl.retrain_history
    used = used_indices(event)
    pre = [i for i in used if i < 100]
    post = [i for i in used if i > 100]
    assert len(pre) == 4 and len(post) == 3  # ceil(7/2) / floor(7/2)
    assert event.retrain_index == 103


def test_alarm_instance_in_no_retraining_set():
    for strategy in STRATEGIES:
        ctrl, _, _ = run_with_alarm(strategy, 8, alarm_at=100)
        (event,) = ctrl.retrain_history
        assert 100 not in used_indices(event)


@settings(max_examples=30, deadline=None)
@given(
    strategy=st.sampled_from(STRATEGIES),
    batch_size=st.integers(2, 12),
    offset=st.integers(0, 40),
)
def test_window_contracts_property(strategy, batch_size, offset):
    alarm_at = 60 + offset
    ctrl, _, _ = run_with_alarm(strategy, batch_size, alarm_at, n=150, warmup=40)
    (event,) = ctrl.retrain_history
    t, B, used = alarm_at, batch_size, used_indices(event)
    pre = [i for i in used if i < t]
    post = [i for i in used if i > t]
    if strategy == LAST:
        assert not post and used == tuple(range(t - B, t))
        assert event.retrain_index == t
    elif strategy == NEXT:
        assert not pre and used == tuple(range(t + 1, t + B + 1))
        assert event.retrain_index == t + B
    else:
        assert len(pre) == math.ceil(B / 2) and len(post) == B // 2
        assert event.retrain_index == t + B // 2


def test_mixed_batch_size_one_retrains_immediately():
    ctrl, _, _ = run_with_alarm(MIXED, 1, alarm_at=100)
    (event,) = ctrl.retrain_history
    assert event.retrain_index == 100
    assert used_indices(event) == (99,)


def test_early_drift_short_buffer_uses_what_is_available():
    ctrl, _, _ = run_with_alarm(LAST, 10, alarm_at=6, n=50, warmup=5)
    (event,) = ctrl.retrain_history
    # buffer held the 5 warm-up instances plus index 5
    assert used_indices(event) == (0, 1, 2, 3, 4, 5)


def test_stream_end_mid_collection_skips_retraining():
    ctrl, _, results = run_with_alarm(NEXT, 10, alarm_at=95, n=100, warmup=50)
    assert sum(r.drift_flag for r in results) == 1
    assert len(ctrl.retrain_history) == 0
    assert ctrl.retrain_history == []


def test_buffer_clamped_to_warmup_size():
    # a 5,000-row *last* window after a 50-row warm-up uses the buffer: the whole warm-up
    ctrl, _, _ = run_with_alarm(LAST, 5000, alarm_at=50, n=60, warmup=50)
    (event,) = ctrl.retrain_history
    assert used_indices(event) == tuple(range(50))


# -- detector interaction -----------------------------------------------------


def test_detector_suppressed_during_collection():
    stream = make_stream(300)
    det = ScriptedDetector()
    cfg = make_config(strategy=NEXT, batch_size=20)
    ctrl = Controller(stream[:50], SCHEMA, cfg)
    ctrl.detector = det
    for rec in stream[50:]:
        if rec.index[0] == 100:
            det.fire = True
        before = det.calls
        r = ctrl.step(rec)
        if 100 < rec.index[0] <= 120:
            assert det.calls == before  # collecting: detector not fed
        else:
            assert det.calls == before + 1


def test_detector_reset_after_each_retraining():
    for strategy in STRATEGIES:
        _, det, _ = run_with_alarm(strategy, 10, alarm_at=100)
        assert det.resets == 1


def test_at_most_one_outstanding_retraining():
    stream = make_stream(300)
    det = ScriptedDetector()
    cfg = make_config(strategy=NEXT, batch_size=30)
    ctrl = Controller(stream[:50], SCHEMA, cfg)
    ctrl.detector = det
    results = []
    for rec in stream[50:]:
        if rec.index[0] in (100, 110):  # second arm falls inside collection
            det.fire = True
        results.append(ctrl.step(rec))
    # the alarm armed at 110 cannot fire until collection ends at 130, so
    # the second drift lands at 131, not inside the first collection
    assert [r.index for r in results if r.drift_flag] == [100, 131]
    assert [e.retrain_index for e in ctrl.retrain_history] == [130, 161]


# -- learning modes -----------------------------------------------------------


def test_incremental_updates_apply_every_mini_batch():
    stream = make_stream(100)
    cfg = make_config(strategy=None, incremental=True, mini_batch_size=10)
    ctrl = Controller(stream[:50], SCHEMA, cfg)
    for rec in stream[50:65]:
        ctrl.step(rec)
    # one full mini-batch applied, five instances still pending
    assert ctrl.model.n_trained == 60
    assert ctrl._next - ctrl._mb_start == 5


def test_incremental_pauses_during_collection():
    stream = make_stream(300)
    det = ScriptedDetector()
    cfg = make_config(
        strategy=NEXT, batch_size=20, incremental=True, mini_batch_size=5
    )
    ctrl = Controller(stream[:50], SCHEMA, cfg)
    ctrl.detector = det
    for rec in stream[50:]:
        if rec.index[0] == 100:
            det.fire = True
        before = ctrl.model.n_trained
        r = ctrl.step(rec)
        if 100 < rec.index[0] < 120:
            assert ctrl.model.n_trained == before
        if r.retrain_flag:
            # new model trained on exactly the collected batch
            assert ctrl.model.n_trained == 20
            break


def test_retraining_replaces_incrementally_updated_model():
    stream = make_stream(300)
    det = ScriptedDetector()
    cfg = make_config(strategy=LAST, batch_size=10, incremental=True)
    ctrl = Controller(stream[:50], SCHEMA, cfg)
    ctrl.detector = det
    for rec in stream[50:]:
        if rec.index[0] == 100:
            det.fire = True
        r = ctrl.step(rec)
        if r.retrain_flag:
            break
    # the incrementally grown model (50 warm-up + updates) was discarded
    assert ctrl.model.n_trained == 10


def test_static_config_freezes_everything():
    stream = make_stream(200)
    det = ScriptedDetector()
    ctrl = Controller(stream[:50], SCHEMA, make_config(batch_size=10))
    ctrl.detector = det
    det.fire = True  # an alarm without a strategy changes nothing
    trained = ctrl.model.n_trained
    results = [ctrl.step(rec) for rec in stream[50:]]
    assert ctrl.model.n_trained == trained
    assert not any(r.drift_flag or r.retrain_flag for r in results)
    assert ctrl.retrain_history == []


def test_static_prediction_is_pure_function_of_instance():
    stream = make_stream(100)
    cfg = make_config()
    ctrl = Controller(stream[:50], SCHEMA, cfg)
    probe = stream[60]
    first = ctrl.step(probe).predicted
    for rec in stream[51:60]:
        ctrl.step(rec)
    assert ctrl.step(probe).predicted == first


# -- block walk ---------------------------------------------------------------

MIXED_SCHEMA = FeatureSchema((("tok", CATEGORICAL), ("x", NUMERIC)), "label")


class CountingDetector:
    """Fires on the observe calls whose 1-based number is in ``fire_on``;
    a pure function of the call count, so two controllers fed alike see the
    same alarms."""

    def __init__(self, fire_on):
        self.fire_on = set(fire_on)
        self.calls = 0

    def observe(self, x):
        self.calls += 1
        return self.calls in self.fire_on

    def reset(self):
        return self


def noisy_stream(n, seed=0):
    rng = np.random.default_rng(seed)
    labels, toks, xs = [], [], []
    for i in range(n):
        y = int(rng.integers(3))
        toks.append("abcd"[y] if rng.random() < 0.6 else "abcd"[int(rng.integers(4))])
        xs.append(float(y + rng.normal()))
        labels.append(y)
    columns = {"tok": DictColumn.from_tokens(toks), "x": np.array(xs)}
    return Table(np.arange(n), np.array(labels), columns)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("batch_size", [1, 12])
@pytest.mark.parametrize(
    "incremental,mini_batch_size", [(False, 10), (True, 1), (True, 3), (True, 10)]
)
def test_block_walk_equals_step_loop(monkeypatch, strategy, batch_size, incremental, mini_batch_size):
    # the step loop is ``reference_step``'s, not ``Controller.step``: that
    # is now a one-row call of the block walk under test
    stream = noisy_stream(900)
    rng = np.random.default_rng(batch_size + mini_batch_size)
    # dense alarms, some in runs, so that they land on block edges too
    fire_on = {c for c in range(1, 900) if rng.random() < 0.08 or c % 37 in (0, 1)}
    cfg = make_config(
        strategy=strategy,
        batch_size=batch_size,
        incremental=incremental,
        mini_batch_size=mini_batch_size,
    )
    block = Controller(stream[:60], MIXED_SCHEMA, cfg)
    plain = Controller(stream[:60], MIXED_SCHEMA, cfg)
    block.detector, plain.detector = CountingDetector(fire_on), CountingDetector(fire_on)
    block_detector, plain_detector = block.detector, plain.detector

    walked, blocks, versions = [], [], []
    predict_many = NaiveBayesModel.predict_many

    def spy(model, cats, nums, staged=None, at=None):
        blocks.append((len(walked), len(cats)))  # first row, length
        versions.append(0 if at is None else int(at[-1]))  # the last row's version
        return predict_many(model, cats, nums, staged, at)

    monkeypatch.setattr(NaiveBayesModel, "predict_many", spy)
    yielded = 0
    for records in block.steps(stream[60:]):
        walked.extend(records)
        yielded += 1
    monkeypatch.undo()
    stepped = [reference_step(plain, rec) for rec in stream[60:]]

    assert walked == stepped
    assert yielded == len(blocks)  # one record block per scored block
    assert block.retrain_history == plain.retrain_history
    drifts = [sum(r.drift_flag for r in records) for records in (walked, stepped)]
    assert (drifts[0], len(block.retrain_history)) == (drifts[1], len(plain.retrain_history))
    assert block_detector.calls == plain_detector.calls
    assert (block.collection, block._next, block._mb_start) == (
        plain.collection, plain._next, plain._mb_start)
    assert model_state(block.model) == model_state(plain.model)
    buffered = slice(max(0, block._next - batch_size), block._next)  # the last B rows stepped
    for a, b in zip(block._rows(buffered), plain._rows(buffered)):  # index, label, cats, nums, pos
        assert len(a) and np.array_equal(a, b)
    # the stream exercises what it is meant to: alarms on the first and on
    # the last row of a block, and (where blocks exceed one row) blocks cut
    # short by a refit at an alarm, whose rest is scored again
    alarms = {i for i, r in enumerate(walked) if r.drift_flag}
    assert alarms & {start for start, _ in blocks}
    assert alarms & {start + n - 1 for start, n in blocks}
    refits_at_alarm = strategy == LAST or (strategy == MIXED and batch_size == 1)
    if refits_at_alarm and mini_batch_size > 1:
        assert any(nxt < start + n for (start, n), (nxt, _) in zip(blocks, blocks[1:]))
    # incremental blocks run across mini-batch edges, some across two or more
    assert (max(versions) >= 2) == incremental


@pytest.mark.parametrize("incremental,mini_batch_size", [(False, 10), (True, 1), (True, 7)])
def test_block_walk_scores_each_row_once_when_no_alarm_can_refit(
    monkeypatch, incremental, mini_batch_size
):
    # without a strategy the model changes only where a mini-batch fills,
    # which blocks run across (each row scored against its version), also
    # across an encode-chunk edge (4,096 rows) that leaves a mini-batch
    # part-filled: no score is computed and dropped
    stream = noisy_stream(4560)
    cfg = make_config(incremental=incremental, mini_batch_size=mini_batch_size)
    ctrl = Controller(stream[:60], MIXED_SCHEMA, cfg)
    sizes = []
    predict_many = NaiveBayesModel.predict_many

    def spy(model, cats, nums, *versions):
        sizes.append(len(cats))
        return predict_many(model, cats, nums, *versions)

    monkeypatch.setattr(NaiveBayesModel, "predict_many", spy)
    assert sum(map(len, ctrl.steps(stream[60:]))) == 4500
    assert sum(sizes) == 4500
    assert max(sizes) == 4096


def test_staged_versions_of_a_wide_model_stay_under_the_cap(monkeypatch):
    # thousands of categories and a mini-batch of one row: a 4,096-row
    # chunk is stepped in blocks whose staged versions together stay under
    # the cap, not in one block with a copy of the tables per row
    n_tokens, warmup = 3000, 3000
    rng = np.random.default_rng(3)
    tokens = [f"t{i}" for i in range(n_tokens)]
    labels = rng.integers(3, size=warmup + 4096)
    pool = tokens + [f"unseen{i}" for i in range(50)]
    toks = tokens + [pool[i] for i in rng.integers(len(pool), size=4096)]
    stream = Table(
        np.arange(len(labels)), labels,
        {"tok": DictColumn.from_tokens(toks), "x": rng.normal(size=len(labels)) + labels},
    )
    cfg = make_config(incremental=True, mini_batch_size=1)
    block = Controller(stream[:warmup], MIXED_SCHEMA, cfg)
    plain = Controller(stream[:warmup], MIXED_SCHEMA, cfg)
    assert block.model.cat_cardinalities == (n_tokens + 1,)
    staged = []
    stage = NaiveBayesModel.stage

    def spy(model, *args):
        versions = stage(model, *args)
        staged.append((len(versions.n_trained), sum(a.size for a in versions)))
        return versions

    monkeypatch.setattr(NaiveBayesModel, "stage", spy)
    walked = [r for records in block.steps(stream[warmup:]) for r in records]
    monkeypatch.undo()
    assert len(walked) == 4096
    assert max(cells for _, cells in staged) <= adaptation._MAX_VERSION_CELLS
    assert max(n for n, _ in staged) > 2  # a block still spans several updates
    assert walked == [reference_step(plain, row) for row in stream[warmup:]]
    assert model_state(block.model) == model_state(plain.model)


@pytest.mark.parametrize("strategy", [None, LAST, NEXT])
@pytest.mark.parametrize("incremental", [False, True])
def test_columns_hold_at_most_a_window_a_mini_batch_and_a_chunk(strategy, incremental):
    # the rows the buffer, a part-filled mini-batch or a pending collection
    # can still use, plus the chunk being stepped; without incremental
    # updates the mini-batch start holds no rows back
    stream = noisy_stream(9000)
    cfg = make_config(strategy, batch_size=40, incremental=incremental, mini_batch_size=10)
    detector = NoDetector() if strategy is None else CountingDetector(range(100, 9000, 300))
    ctrl = Controller(stream[:60], MIXED_SCHEMA, cfg)
    ctrl.detector = detector
    bound = cfg.batch_size + cfg.mini_batch_size + adaptation._MAX_BLOCK
    for _ in ctrl.steps(stream[60:]):
        assert len(ctrl._cols.index) <= bound
    assert ctrl._next == 40 + 8940
    assert (len(ctrl.retrain_history) > 0) == (strategy is not None)


# -- the detect and act phases ------------------------------------------------

DRIFTING = SynthConfig(3000, drift=(DriftSpec("sudden", 1500),), seed=5)
PH_INCREMENTAL = dict(detector="page_hinkley", batch_size=100, incremental=True, warmup=300)


def columns(blocks):
    """The records of ``blocks`` as one tuple of columns."""
    blocks = list(blocks)
    return tuple(np.concatenate([getattr(b, c) for b in blocks])
                 for c in ("index", "predicted", "actual", "drift", "retrain"))


def new_controller(table, schema, config):
    return Controller(table[: config.warmup], schema, config)


def test_a_controller_paused_at_its_first_alarm_finishes_as_a_fresh_run(monkeypatch):
    # a controller paused between the two phases is a whole state: a copy
    # of it acts under any strategy and then steps on like a fresh run
    table, schema = load_stream(DRIFTING)
    stream = table[300:]
    paused, act = [], Controller._act

    def pause(ctrl, *args):
        if not paused:
            paused.append(copy.deepcopy((ctrl, args)))
        return act(ctrl, *args)

    monkeypatch.setattr(Controller, "_act", pause)
    controller = new_controller(table, schema, ExperimentConfig(strategy=LAST, **PH_INCREMENTAL))
    for _ in controller.steps(stream):
        pass
    monkeypatch.undo()
    ((ctrl, args),) = paused
    assert (ctrl.retrain_history, ctrl.collection, args[1] >= 0) == ([], None, True)  # drift offset
    for strategy in STRATEGIES:
        config = ExperimentConfig(strategy=strategy, **PH_INCREMENTAL)
        fork = copy.deepcopy(ctrl)
        fork.config = config
        k, _ = fork._act(*args)
        last = int(args[0][k - 1])  # the stream index of the last row stepped
        forked = columns(fork.steps(stream[last + 1 - 300 :]))
        fresh = new_controller(table, schema, config)
        after = columns(fresh.steps(stream))
        after = tuple(c[after[0] > last] for c in after)
        assert all(np.array_equal(a, b) for a, b in zip(forked, after))
        assert fork.retrain_history == fresh.retrain_history
        assert (int(forked[3].sum()), len(fork.retrain_history)) == (
            int(after[3].sum()), len(fresh.retrain_history))
        assert len(fresh.retrain_history) > 1


@pytest.mark.parametrize("incremental", [False, True])
def test_a_config_without_a_detector_never_acts(monkeypatch, incremental):
    def act(ctrl, *args):
        raise AssertionError("_act called without a detector")

    monkeypatch.setattr(Controller, "_act", act)
    table, schema = load_stream(DRIFTING)
    config = ExperimentConfig(incremental=incremental, warmup=300)
    assert sum(map(len, new_controller(table, schema, config).steps(table[300:]))) == 2700


# -- protocol -----------------------------------------------------------------


def test_test_then_train_label_cannot_leak():
    stream = make_stream(100)
    cfg = make_config(strategy=None, incremental=True, mini_batch_size=1)
    a = Controller(stream[:50], SCHEMA, cfg)
    b = Controller(stream[:50], SCHEMA, cfg)
    probe = stream[50]
    flipped = Table(probe.index, 1 - probe.label, probe.columns)
    assert a.step(probe).predicted == b.step(flipped).predicted


def test_replay_reproduces_events_and_predictions():
    def run():
        ctrl, _, results = run_with_alarm(MIXED, 10, alarm_at=100)
        return ctrl.retrain_history, [(r.index, r.predicted) for r in results]

    assert run() == run()


def test_warmup_requires_labeled_instances():
    with pytest.raises(ConfigError):
        Controller(make_stream(0), SCHEMA, make_config())
    tok = {"tok": DictColumn.from_tokens(["a"])}
    bare = Table(np.zeros(1, np.int64), np.array([UNLABELED]), tok)
    with pytest.raises(LabelError) as info:
        Controller(bare, SCHEMA, make_config())
    assert "row has no label" in str(info.value)


@pytest.mark.parametrize("walk", ["steps", "step"])
def test_label_outside_classes_rejected_before_its_chunk_is_stepped(walk):
    stream = make_stream(120)
    stream.label[90] = 2  # 2 classes seen in warm-up
    ctrl = Controller(stream[:50], SCHEMA, make_config())
    stepped = []
    with pytest.raises(LabelError) as info:
        if walk == "steps":  # rows 50..119 form one chunk
            for records in ctrl.steps(stream[50:]):
                stepped.extend(records)
        else:
            stepped.extend(ctrl.step(rec) for rec in stream[50:])
    assert (info.value.index, info.value.row) == (90, 92)
    assert type(info.value.index) is int and type(info.value.row) is int
    assert len(stepped) == (0 if walk == "steps" else 40)


def test_unlabeled_warmup_row_named_in_the_error():
    stream = make_stream(50)
    stream.label[7] = UNLABELED
    with pytest.raises(LabelError) as info:
        Controller(stream, SCHEMA, make_config())
    assert (info.value.index, info.value.row) == (7, 9)


def test_first_unusable_warmup_row_named_whichever_its_kind():
    stream = make_stream(50)
    stream.label[3] = -1  # outside the 2 classes
    stream.label[7] = UNLABELED
    with pytest.raises(LabelError) as info:
        Controller(stream, SCHEMA, make_config())
    assert (info.value.index, info.value.row) == (3, 5)
    assert "label -1 outside [0, 2)" in str(info.value)


def test_inferred_class_count_is_bounded_by_the_largest_label_row():
    stream = make_stream(50)
    stream.label[7] = MAX_INFERRED_CLASSES
    stream.label[30] = stream.label[40] = MAX_INFERRED_CLASSES + 5
    with pytest.raises(LabelError) as info:
        Controller(stream, SCHEMA, make_config())
    assert (info.value.index, info.value.row) == (30, 32)


def test_n_classes_inferred_from_warmup():
    ctrl = Controller(
        make_stream(50), SCHEMA, make_config()
    )
    assert ctrl.model.n_classes == 2


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(strategy="newest")
    with pytest.raises(ValueError):
        ExperimentConfig(batch_size=0)
    with pytest.raises(ValueError):
        ExperimentConfig(mini_batch_size=0)
    # the CLI's size flags reject 0 first, so only the library reaches these
    with pytest.raises(ConfigError, match="warmup must be >= 1"):
        ExperimentConfig(warmup=0)
    with pytest.raises(ConfigError, match="rolling window must be >= 1"):
        ExperimentConfig(window=0)
