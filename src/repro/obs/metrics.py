"""Windowed metrics over virtual time: counters, gauges, histograms.

The registry complements tracing: spans answer "where did *this*
request's microseconds go", metrics answer "what is the p99 queue wait
*right now*".  Histograms are log-linear (HDR-style): every power-of-two
range is split into ``sub`` linear sub-buckets, bounding the relative
quantile error at ``1/(2·sub)`` (≈3% at the default 16) with O(1)
recording and a few hundred integer slots — no sample retention.

Windowing rotates the bucket array every ``window_us`` of virtual time;
queries merge the live window with up to ``windows-1`` closed ones, so a
percentile reflects the recent past rather than the whole run.  All-time
buckets are kept alongside for end-of-run reporting.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

#: Default sliding-window span (virtual µs) and window count.
DEFAULT_WINDOW_US = 10_000.0
DEFAULT_WINDOWS = 6

#: Sentinel returned by quantile queries over an empty (or fully
#: expired) window.  0.0 is a legal latency, so "no data" must be
#: distinguishable from "very fast": NaN propagates through arithmetic,
#: compares False against every threshold, and is detected with
#: :func:`no_data`.
EMPTY_QUANTILE = float("nan")


def no_data(value: float) -> bool:
    """True when a quantile query returned the empty-window sentinel."""
    return isinstance(value, float) and math.isnan(value)


def _bucket_index(value: float, sub: int) -> int:
    """Log-linear bucket index for a non-negative value."""
    if value < 1.0:
        # sub-microsecond values share one linear region: [0, 1) split
        # into ``sub`` buckets, below the log-linear lattice
        return int(value * sub)
    mantissa, exponent = math.frexp(value)     # value = mantissa * 2**exp
    # mantissa ∈ [0.5, 1): linear position within the octave
    offset = int((mantissa - 0.5) * 2.0 * sub)
    return exponent * sub + min(offset, sub - 1)


def _bucket_value(index: int, sub: int) -> float:
    """Representative (midpoint) value of a bucket."""
    if index < sub:
        return (index + 0.5) / sub
    exponent, offset = divmod(index, sub)
    lo = math.ldexp(0.5 * (1.0 + offset / sub), exponent)
    hi = math.ldexp(0.5 * (1.0 + (offset + 1) / sub), exponent)
    return (lo + hi) / 2.0


class Histogram:
    """Log-linear histogram with sliding virtual-time windows."""

    def __init__(self, name: str = "", sub: int = 16,
                 window_us: float = DEFAULT_WINDOW_US,
                 windows: int = DEFAULT_WINDOWS):
        self.name = name
        self.sub = sub
        self.window_us = window_us
        self.max_windows = windows
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self._all: Dict[int, int] = {}
        self._live: Dict[int, int] = {}
        self._live_start = 0.0
        #: closed windows, oldest first: (window_start, buckets)
        self._closed: Deque[Tuple[float, Dict[int, int]]] = deque(
            maxlen=max(windows - 1, 1))

    def record(self, now: float, value: float) -> None:
        if value < 0.0:
            value = 0.0
        self._rotate(now)
        idx = _bucket_index(value, self.sub)
        self._all[idx] = self._all.get(idx, 0) + 1
        self._live[idx] = self._live.get(idx, 0) + 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    def _rotate(self, now: float) -> None:
        gap = now - self._live_start
        if gap < self.window_us:
            return
        # close the live window under its original start, then jump the
        # lattice forward in one step — empty intermediate windows carry
        # no counts, so there is nothing to materialize
        if self._live:
            self._closed.append((self._live_start, self._live))
            self._live = {}
        self._live_start += int(gap // self.window_us) * self.window_us

    # -- queries -------------------------------------------------------------
    def _merged(self, now: Optional[float]) -> Dict[int, int]:
        if now is None:
            return self._all
        self._rotate(now)
        horizon = now - self.window_us * self.max_windows
        merged = dict(self._live)
        for start, buckets in self._closed:
            if start + self.window_us <= horizon:
                continue
            for idx, n in buckets.items():
                merged[idx] = merged.get(idx, 0) + n
        return merged

    def percentile(self, pct: float, now: Optional[float] = None) -> float:
        """Quantile estimate; ``now`` restricts to the sliding window,
        ``None`` queries the whole run.

        A query over zero samples — a histogram nothing was recorded
        into, or a window whose contents have all expired — returns
        :data:`EMPTY_QUANTILE` (NaN), never a stale or fabricated 0.0.
        """
        buckets = self._merged(now)
        total = sum(buckets.values())
        if total == 0:
            return EMPTY_QUANTILE
        rank = max(int(math.ceil(pct / 100.0 * total)), 1)
        seen = 0
        for idx in sorted(buckets):
            seen += buckets[idx]
            if seen >= rank:
                return _bucket_value(idx, self.sub)
        return _bucket_value(max(buckets), self.sub)

    def window_count(self, now: float) -> int:
        return sum(self._merged(now).values())

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p90(self) -> float:
        return self.percentile(90)

    @property
    def p99(self) -> float:
        return self.percentile(99)


class Counter:
    """Monotonic counter with per-window rate support."""

    def __init__(self, name: str = "", window_us: float = DEFAULT_WINDOW_US):
        self.name = name
        self.window_us = window_us
        self.value = 0
        self._window_value = 0
        self._window_start = 0.0

    def inc(self, now: float, amount: int = 1) -> None:
        self._roll(now)
        self.value += amount
        self._window_value += amount

    def _roll(self, now: float) -> None:
        if now - self._window_start >= self.window_us:
            self._window_value = 0
            self._window_start = now

    def rate_per_us(self, now: float) -> float:
        self._roll(now)
        span = max(now - self._window_start, 1e-9)
        return self._window_value / span


class Gauge:
    """Last-write-wins scalar with its update time."""

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0.0
        self.updated_at = 0.0

    def set(self, now: float, value: float) -> None:
        self.value = value
        self.updated_at = now


class MetricsRegistry:
    """Named metric directory shared by the runtime and harnesses.

    Installed on the simulator as ``sim.metrics`` by
    :class:`~repro.obs.plane.TracePlane`; instrumentation sites read
    ``sim.metrics`` (None until installed) so an uninstrumented run
    pays nothing.
    """

    def __init__(self, sim=None, window_us: float = DEFAULT_WINDOW_US,
                 windows: int = DEFAULT_WINDOWS):
        self.sim = sim
        self.window_us = window_us
        self.windows = windows
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _now(self, now: Optional[float]) -> float:
        if now is not None:
            return now
        return self.sim.now if self.sim is not None else 0.0

    # -- access (create on first use) ---------------------------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name, self.window_us)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str, window_us: Optional[float] = None,
                  windows: Optional[int] = None) -> Histogram:
        """The named histogram, created on first use.  The optional
        window overrides apply only at creation — declare a non-default
        window (e.g. an SLO's evaluation window) before traffic records
        into the metric."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(
                name, window_us=window_us or self.window_us,
                windows=windows or self.windows)
        return h

    def get_histogram(self, name: str) -> Optional[Histogram]:
        """The named histogram, or None — without creating it (readers
        like the PulsePlane probes must not materialise metrics)."""
        return self._histograms.get(name)

    # -- convenience recorders ----------------------------------------------
    def inc(self, name: str, amount: int = 1,
            now: Optional[float] = None) -> None:
        self.counter(name).inc(self._now(now), amount)

    def observe(self, name: str, value: float,
                now: Optional[float] = None) -> None:
        self.histogram(name).record(self._now(now), value)

    def set_gauge(self, name: str, value: float,
                  now: Optional[float] = None) -> None:
        self.gauge(name).set(self._now(now), value)

    # -- reporting ------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted({*self._counters, *self._gauges, *self._histograms})

    def snapshot(self, now: Optional[float] = None) -> Dict[str, Dict[str, float]]:
        """One flat report: counters, gauges, and histogram quantiles.

        Histogram quantiles are windowed when ``now`` is given (the usual
        operator view), all-time when ``None``.
        """
        out: Dict[str, Dict[str, float]] = {}
        for name, c in sorted(self._counters.items()):
            out[name] = {"type": "counter", "value": c.value}
        for name, g in sorted(self._gauges.items()):
            out[name] = {"type": "gauge", "value": g.value,
                         "updated_at": g.updated_at}
        for name, h in sorted(self._histograms.items()):
            # empty/expired windows surface as None (JSON null), never as
            # the in-band NaN sentinel or a fake 0.0
            quantiles = {p: h.percentile(p, now) for p in (50, 90, 99)}
            out[name] = {
                "type": "histogram",
                "count": h.count,
                "mean": h.mean,
                "p50": None if no_data(quantiles[50]) else quantiles[50],
                "p90": None if no_data(quantiles[90]) else quantiles[90],
                "p99": None if no_data(quantiles[99]) else quantiles[99],
                "max": h.max_value,
            }
        return out
