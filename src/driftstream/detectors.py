"""Change detectors for the per-instance 0/1 prediction-error stream:
Page-Hinkley and adaptive windowing (ADWIN).

Both are deterministic functions of the observation sequence and accept any
real input in [0, 1].
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional


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
        x = _check_input(x)
        self.t += 1
        self.running_mean += (x - self.running_mean) / self.t
        self.m_t += x - self.running_mean - self.delta
        if self.m_t < self.m_min:
            self.m_min = self.m_t
        return self.t > self.burn_in and self.m_t - self.m_min > self.lam


class _Bucket:
    __slots__ = ("total", "count")

    def __init__(self, total: float, count: int):
        self.total = total
        self.count = count


class Adwin:
    """Adaptive-window change detector over an exponential histogram.

    Rows hold buckets of 2^row observations each (oldest first); when a row
    exceeds ``max_buckets_per_row + 1`` buckets, its two oldest buckets merge
    into the next row. Every ``check_period`` observations all prefix/suffix
    cuts at bucket boundaries are scanned oldest to newest; a cut with
    |mean0 - mean1| >= sqrt(ln(4 * width / delta) / (2 m)) (m the harmonic
    mean of the sub-window sizes) drops the oldest bucket, repeating while
    any cut still triggers.
    """

    def __init__(self, delta: float = 0.001, max_buckets_per_row: int = 5, check_period: int = 32):
        if not 0.0 < delta < 1.0:
            raise ValueError(f"ADWIN delta must be in (0, 1), got {delta}")
        if max_buckets_per_row < 1 or check_period < 1:
            raise ValueError("max_buckets_per_row and check_period must be >= 1")
        self.delta = delta
        self.max_buckets_per_row = max_buckets_per_row
        self.check_period = check_period
        self.reset()

    def reset(self) -> "Adwin":
        """Clear the window; parameters are preserved."""
        self.rows: list[deque[_Bucket]] = [deque()]
        self.width = 0
        self.total = 0.0
        self._since_check = 0
        return self

    @property
    def mean(self) -> float:
        return self.total / self.width if self.width else 0.0

    def observe(self, x: float) -> bool:
        x = _check_input(x)
        self.rows[0].append(_Bucket(x, 1))
        self.width += 1
        self.total += x
        self._compress()
        self._since_check += 1
        if self._since_check < self.check_period:
            return False
        self._since_check = 0
        return self._cut_scan()

    def _compress(self) -> None:
        i = 0
        while i < len(self.rows):
            row = self.rows[i]
            if len(row) <= self.max_buckets_per_row + 1:
                break
            a = row.popleft()
            b = row.popleft()
            if i + 1 == len(self.rows):
                self.rows.append(deque())
            self.rows[i + 1].append(_Bucket(a.total + b.total, a.count + b.count))
            i += 1

    def _oldest_first(self):
        for i in range(len(self.rows) - 1, -1, -1):
            yield from self.rows[i]

    def _drop_oldest_bucket(self) -> None:
        for i in range(len(self.rows) - 1, -1, -1):
            if self.rows[i]:
                b = self.rows[i].popleft()
                self.width -= b.count
                self.total -= b.total
                if not self.rows[i] and i == len(self.rows) - 1 and i > 0:
                    self.rows.pop()
                return

    def _cut_scan(self) -> bool:
        detected = False
        triggered = True
        while triggered and self.width >= 2:
            triggered = False
            n0 = 0
            s0 = 0.0
            log_term = math.log(4.0 * self.width / self.delta)
            buckets = list(self._oldest_first())
            for b in buckets[:-1]:
                n0 += b.count
                s0 += b.total
                n1 = self.width - n0
                m = 1.0 / (1.0 / n0 + 1.0 / n1)
                eps = math.sqrt(log_term / (2.0 * m))
                mu0 = s0 / n0
                mu1 = (self.total - s0) / n1
                if abs(mu0 - mu1) >= eps:
                    self._drop_oldest_bucket()
                    detected = True
                    triggered = True
                    break
        return detected


class NoDetector:
    """Placeholder detector that never alarms (static / incremental-only).
    No config feeds it; it stays because ``perfbench/tracer.py`` wraps its
    ``observe`` by name."""

    def observe(self, x: float) -> bool:
        _check_input(x)
        return False

    def reset(self) -> "NoDetector":
        return self


def make_detector(
    name: str,
    ph_delta: float = 0.005,
    ph_lambda: float = 0.6,
    ph_burn_in: int = 30,
    adwin_delta: float = 0.001,
):
    """Factory used by the experiment drivers; name in
    {none, page_hinkley, adwin}."""
    if name == "none":
        return NoDetector()
    if name == "page_hinkley":
        return PageHinkley(delta=ph_delta, lam=ph_lambda, burn_in=ph_burn_in)
    if name == "adwin":
        return Adwin(delta=adwin_delta)
    raise ValueError(f"unknown detector {name!r}")
