"""Tests for the Page-Hinkley and ADWIN change detectors.

Each detector is checked against an independently written reference: a
vectorized numpy evaluation of the Page-Hinkley recurrence, and a plain
list-based ADWIN that stores every observation and scans all element-level
cuts (no histogram compression).
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from driftstream.adaptation import ExperimentConfig
from driftstream.detectors import Adwin, NoDetector, PageHinkley, make_detector


def ph_reference_alarms(xs, delta=0.005, lam=0.6, burn_in=30):
    """Vectorized one-shot evaluation of the Page-Hinkley statistic (no
    resets): indices where the alarm condition first holds."""
    xs = np.asarray(xs, dtype=float)
    t = np.arange(1, len(xs) + 1)
    means = np.cumsum(xs) / t
    m = np.cumsum(xs - means - delta)
    m_min = np.minimum.accumulate(np.minimum(m, 0.0))
    alarm = (t > burn_in) & (m - m_min > lam)
    return np.flatnonzero(alarm)


class ListAdwin:
    """Reference ADWIN over the raw observation list: scans every
    element-level cut with the same epsilon rule, no bucketing."""

    def __init__(self, delta=0.001, check_period=32):
        self.delta = delta
        self.check_period = check_period
        self.window = []
        self.since = 0

    def observe(self, x):
        self.window.append(x)
        self.since += 1
        if self.since < self.check_period:
            return False
        self.since = 0
        detected = False
        triggered = True
        while triggered and len(self.window) >= 2:
            triggered = False
            w = self.window
            total = sum(w)
            s0 = 0.0
            for n0 in range(1, len(w)):
                s0 += w[n0 - 1]
                n1 = len(w) - n0
                m = 1.0 / (1.0 / n0 + 1.0 / n1)
                eps = math.sqrt(math.log(4.0 * len(w) / self.delta) / (2.0 * m))
                if abs(s0 / n0 - (total - s0) / n1) >= eps:
                    self.window = w[1:]
                    detected = True
                    triggered = True
                    break
        return detected


def drive(det, xs):
    return [i for i, x in enumerate(xs) if det.observe(x)]


# -- Page-Hinkley -------------------------------------------------------------


def test_ph_constant_zero_never_alarms():
    det = PageHinkley()
    assert drive(det, [0.0] * 10000) == []


def test_ph_statistic_nonnegative():
    rng = np.random.default_rng(0)
    det = PageHinkley()
    for x in rng.random(500):
        det.observe(float(x))
        assert det.statistic >= 0.0


def test_ph_step_alarm_within_50():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        xs = np.concatenate(
            [(rng.random(1000) < 0.2), (rng.random(500) < 0.8)]
        ).astype(float)
        alarms = drive(PageHinkley(), list(xs))
        first = next(a for a in alarms if a >= 1000)
        assert first - 1000 <= 50


def test_ph_matches_vectorized_reference():
    rng = np.random.default_rng(1)
    xs = np.concatenate([(rng.random(600) < 0.2), (rng.random(100) < 0.8)]).astype(float)
    det = PageHinkley()
    ours = drive(det, list(xs))
    ref = ph_reference_alarms(xs)
    np.testing.assert_array_equal(ours, ref)


@pytest.mark.xfail(
    strict=True,
    reason="with lambda=0.6 a single 0/1 error observation moves the "
    "statistic by ~1 - p - delta > lambda, so isolated errors after quiet "
    "stretches alarm; the <= 1 mean false-alarm target is unreachable at "
    "this threshold on a Bernoulli error stream",
)
def test_ph_false_positive_rate_on_stationary_stream():
    total = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        xs = (rng.random(10000) < 0.3).astype(float)
        det = PageHinkley()
        for x in xs:
            if det.observe(float(x)):
                total += 1
                det.reset()
    assert total / 20 <= 1.0


def test_ph_domain_error():
    with pytest.raises(ValueError):
        PageHinkley().observe(1.5)
    with pytest.raises(ValueError):
        PageHinkley().observe(-0.1)


def test_ph_no_alarm_during_burn_in():
    det = PageHinkley(burn_in=30)
    assert drive(det, [1.0] * 30) == []


def test_ph_reset_preserves_parameters():
    det = PageHinkley(delta=0.01, lam=0.6, burn_in=7)
    det.observe(1.0)
    det.reset()
    assert (det.delta, det.lam, det.burn_in) == (0.01, 0.6, 7)
    assert det.t == 0 and det.statistic == 0.0


def test_ph_reset_replay_matches_fresh():
    rng = np.random.default_rng(2)
    prefix = list((rng.random(400) < 0.2).astype(float))
    suffix = list((rng.random(300) < 0.9).astype(float))
    det = PageHinkley()
    for x in prefix:
        if det.observe(x):
            det.reset()
    det.reset()
    replay = drive(det, suffix)
    fresh = drive(PageHinkley(), suffix)
    assert replay == fresh


def test_ph_shift_covariance():
    # dyadic values keep the running-mean arithmetic exact, so alarms line
    # up bit for bit under a constant shift
    rng = np.random.default_rng(3)
    base = [0.5 if b else 0.0 for b in rng.random(2000) < 0.3]
    shifted = [x + 0.25 for x in base]
    assert drive(PageHinkley(), base) == drive(PageHinkley(), shifted)


def test_ph_parameter_validation():
    with pytest.raises(ValueError):
        PageHinkley(lam=0.0)
    with pytest.raises(ValueError):
        PageHinkley(delta=-0.1)


# -- ADWIN --------------------------------------------------------------------


def test_adwin_initial_state():
    det = Adwin()
    assert det.width == 0 and det.total == 0.0 and det.mean == 0.0


def test_adwin_step_detects_within_150():
    xs = [0.0] * 1000 + [1.0] * 400
    det = Adwin()
    alarms = drive(det, xs)
    assert alarms, "no detection at all"
    assert alarms[0] - 1000 <= 150
    assert det.mean > 0.9


def test_adwin_close_to_list_reference_on_step():
    xs = [0.0] * 1000 + [1.0] * 400
    ours = drive(Adwin(), xs)
    ref = drive(ListAdwin(), xs)
    assert ours and ref
    # bucket-boundary cuts lag element-level cuts by at most a couple of
    # check periods
    assert abs(ours[0] - ref[0]) <= 96


def test_adwin_no_false_positives_short():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        xs = (rng.random(20000) < 0.5).astype(float)
        assert drive(Adwin(), list(xs)) == []


def test_adwin_list_reference_no_false_positives():
    rng = np.random.default_rng(0)
    xs = list((rng.random(20000) < 0.5).astype(float))
    assert drive(ListAdwin(), xs) == []


def test_adwin_width_and_total_track_inputs_exactly():
    rng = np.random.default_rng(4)
    xs = (rng.random(3000) < 0.4).astype(float)
    det = Adwin()
    for i, x in enumerate(xs):
        det.observe(float(x))
        assert det.width <= i + 1
        bw = sum(len(row) << i for i, row in enumerate(det.rows))
        bt = sum(total for row in det.rows for total in row)
        assert det.width == bw
        assert det.total == bt  # exact: 0/1 inputs, integer-valued sums
    assert det.width == 3000  # stationary stream: nothing dropped
    assert det.total == float(xs.sum())


def test_adwin_rows_respect_bucket_limit():
    det = Adwin()
    for x in [0.0, 1.0] * 2000:
        det.observe(x)
        for row in det.rows:
            assert len(row) <= det.max_buckets_per_row + 1


def test_adwin_drop_removes_oldest_only():
    det = Adwin()
    xs = [0.0] * 1000 + [1.0] * 1000
    for x in xs:
        before = det.width
        det.observe(x)
        assert det.width <= before + 1  # grows by one, shrinks only on drops
    # after the drift everything old was evicted
    assert det.mean > 0.95


def test_adwin_deterministic():
    rng = np.random.default_rng(5)
    xs = list((rng.random(5000) < 0.3).astype(float))
    assert drive(Adwin(), xs) == drive(Adwin(), xs)


def test_adwin_reset_preserves_delta():
    det = Adwin(delta=0.001)
    det.observe(1.0)
    det.reset()
    assert det.delta == 0.001
    assert det.width == 0 and det.total == 0.0


def test_adwin_reset_replay_matches_fresh():
    xs = [0.0] * 500 + [1.0] * 200
    det = Adwin()
    drive(det, [1.0] * 300)
    det.reset()
    assert drive(det, xs) == drive(Adwin(), xs)


def test_adwin_domain_error():
    with pytest.raises(ValueError):
        Adwin().observe(2.0)


def test_adwin_parameter_validation():
    with pytest.raises(ValueError):
        Adwin(delta=0.0)
    with pytest.raises(ValueError):
        Adwin(delta=1.0)


# -- factory and NoDetector ---------------------------------------------------


def config(detector, **params):
    """An ``ExperimentConfig`` naming ``detector``, with a strategy if it alarms."""
    return ExperimentConfig(detector, None if detector == "none" else "last", **params)


def test_factory_names():
    assert isinstance(make_detector(config("none")), NoDetector)
    assert isinstance(make_detector(config("page_hinkley")), PageHinkley)
    assert isinstance(make_detector(config("adwin")), Adwin)
    with pytest.raises(ValueError):  # read by attribute: ExperimentConfig would refuse it first
        make_detector(SimpleNamespace(detector="cusum"))


def test_factory_forwards_parameters():
    ph = make_detector(config("page_hinkley", ph_delta=0.01, ph_lambda=0.9, ph_burn_in=5))
    assert (ph.delta, ph.lam, ph.burn_in) == (0.01, 0.9, 5)
    ad = make_detector(config("adwin", adwin_delta=0.01))
    assert ad.delta == 0.01


def test_no_detector_never_alarms():
    det = NoDetector()
    assert drive(det, [1.0] * 100) == []
    with pytest.raises(ValueError):
        det.observe(3.0)
