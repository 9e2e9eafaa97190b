"""Change detectors for the per-instance 0/1 prediction-error stream:
Page-Hinkley and adaptive windowing (ADWIN).

Both are deterministic functions of the observation sequence and accept any
real input in [0, 1].
"""

from __future__ import annotations

import math
from collections import deque


def _check_input(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"observation {x!r} outside [0, 1]")
    return float(x)


class PageHinkley:
    """One-sided Page-Hinkley test for an increase in the monitored mean.

    Per observation: the running mean is updated incrementally, then
    m_t += (x - running_mean - delta), then the running minimum of m_t.
    An alarm fires when m_t - m_min > lam, once past the burn-in. The plain
    cumulative variant is used (no exponential forgetting). After an alarm
    the caller is expected to ``reset()``.
    """

    def __init__(self, delta: float = 0.005, lam: float = 0.6, burn_in: int = 30):
        if not delta >= 0:  # NaN too
            raise ValueError(f"Page-Hinkley delta must be >= 0, got {delta}")
        if not lam > 0:
            raise ValueError(f"Page-Hinkley lambda must be > 0, got {lam}")
        if burn_in < 0:
            raise ValueError(f"Page-Hinkley burn-in must be >= 0, got {burn_in}")
        self.delta = delta
        self.lam = lam
        self.burn_in = burn_in
        self.reset()

    def reset(self) -> "PageHinkley":
        """Clear statistics; parameters are preserved."""
        self.t = 0
        self.running_mean = 0.0
        self.m_t = 0.0
        self.m_min = 0.0
        return self

    @property
    def statistic(self) -> float:
        return self.m_t - self.m_min

    def observe(self, x: float) -> bool:
        if not 0.0 <= x <= 1.0:  # _check_input's test, without a call per row
            raise ValueError(f"observation {x!r} outside [0, 1]")
        x = float(x)
        t = self.t = self.t + 1
        mean = self.running_mean = self.running_mean + (x - self.running_mean) / t
        m_t = self.m_t = self.m_t + (x - mean - self.delta)
        if m_t < self.m_min:
            self.m_min = m_t
        return t > self.burn_in and m_t - self.m_min > self.lam


class Adwin:
    """Adaptive-window change detector over an exponential histogram.

    ``rows[i]`` holds the totals of buckets of ``2**i`` observations each,
    oldest first; when a row exceeds ``max_buckets_per_row + 1`` buckets, its
    two oldest totals are summed into one bucket of the next row. Every
    ``check_period`` observations all prefix/suffix cuts at bucket
    boundaries are scanned oldest to newest; a cut with
    |mean0 - mean1| >= sqrt(ln(4 * width / delta) / (2 m)) (m the harmonic
    mean of the sub-window sizes) drops the oldest bucket, repeating while
    any cut still triggers.
    """

    max_buckets_per_row = 5  # ADWIN's M
    check_period = 32

    def __init__(self, delta: float = 0.001):
        if not 0.0 < delta < 1.0:
            raise ValueError(f"ADWIN delta must be in (0, 1), got {delta}")
        self.delta = delta
        self.reset()

    def reset(self) -> "Adwin":
        """Clear the window; parameters are preserved."""
        self.rows: list[deque[float]] = [deque()]
        self.width = 0
        self.total = 0.0
        self._since_check = 0
        return self

    @property
    def mean(self) -> float:
        return self.total / self.width if self.width else 0.0

    def observe(self, x: float) -> bool:
        x = _check_input(x)
        rows = self.rows
        rows[0].append(x)
        self.width += 1
        self.total += x
        i = 0
        while len(rows[i]) > self.max_buckets_per_row + 1:
            merged = rows[i].popleft() + rows[i].popleft()
            i += 1
            if i == len(rows):
                rows.append(deque())
            rows[i].append(merged)
        self._since_check += 1
        if self._since_check < self.check_period:
            return False
        self._since_check = 0
        detected = False
        while self.width >= 2 and self._cut_triggers():
            # A merge takes a row from M + 2 buckets to M, and drops take
            # only from the top row, so the top row is empty only at width 0.
            top = rows[-1]
            self.width -= 1 << (len(rows) - 1)
            self.total -= top.popleft()
            if not top and len(rows) > 1:
                rows.pop()
            detected = True
        return detected

    def _cut_triggers(self) -> bool:
        """Whether some cut at a bucket boundary has |mean0 - mean1| >= eps."""
        n0 = 0
        s0 = 0.0
        log_term = math.log(4.0 * self.width / self.delta)
        for i in range(len(self.rows) - 1, -1, -1):
            size = 1 << i
            for total in self.rows[i]:
                n0 += size
                if n0 == self.width:  # the newest bucket: no cut after it
                    return False
                s0 += total
                n1 = self.width - n0
                m = 1.0 / (1.0 / n0 + 1.0 / n1)
                eps = math.sqrt(log_term / (2.0 * m))
                mu0 = s0 / n0
                mu1 = (self.total - s0) / n1
                if abs(mu0 - mu1) >= eps:
                    return True
        return False


class NoDetector:
    """Placeholder detector that never alarms (static / incremental-only).
    No config feeds it; it stays because ``perfbench/tracer.py`` wraps its
    ``observe`` by name."""

    def observe(self, x: float) -> bool:
        _check_input(x)
        return False

    def reset(self) -> "NoDetector":
        return self


def make_detector(config):
    """The detector, with its parameters, that ``config`` (an ``ExperimentConfig``) names."""
    if config.detector == "none":
        return NoDetector()
    if config.detector == "page_hinkley":
        return PageHinkley(config.ph_delta, config.ph_lambda, config.ph_burn_in)
    if config.detector == "adwin":
        return Adwin(config.adwin_delta)
    raise ValueError(f"unknown detector {config.detector!r}")
