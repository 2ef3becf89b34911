"""SLO objectives over PulsePlane samples: grammar + burn-rate alerting.

An SLO here is a latency-quantile objective — "``rkv p99 < 40us over
2ms``" — evaluated continuously against the windowed service histograms
the clients record (``svc.<name>.latency_us``).  Evaluation follows the
multi-window burn-rate pattern from SRE practice:

* every pulse sample is classified *bad* when the watched quantile is at
  or over the threshold (the empty-window sentinel counts as *good* —
  no traffic burns no budget);
* the **burn rate** of a window is ``bad_fraction / budget`` where
  ``budget`` is the allowed bad fraction (default 10%).  A burn rate of
  1.0 spends the error budget exactly as fast as allowed;
* a **breach** fires only when *both* the fast window (``window_us``)
  and the slow window (``slow_windows`` × fast) burn at or above
  ``burn_threshold`` — the fast window gives detection latency, the slow
  window immunity to one-sample blips;
* recovery is hysteretic: the evaluator leaves the breach state only
  after a *full fast window* of consecutive in-budget samples.

Breach/recovery transitions are emitted as ``slo.breach`` /
``slo.recover`` tracer instants and ``slo.breaches`` metrics, recorded
into the pulse store (``slo.<name>.*`` series), and re-derivable from
the stored history — which is exactly how the
:class:`~repro.check.monitors.PulseMonitor` proves the accounting is
conservative (every counted breach is backed by over-threshold burns).
"""

from __future__ import annotations

import re
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from .metrics import EMPTY_QUANTILE, no_data

#: Default error budget: fraction of samples allowed over threshold.
DEFAULT_BUDGET = 0.1
#: Default slow-window span, in fast windows.
DEFAULT_SLOW_WINDOWS = 4

_UNIT_US = {"us": 1.0, "ms": 1_000.0, "s": 1_000_000.0}

#: ``<service> p<pct> < <threshold><unit> over <window><unit> [windows]``
_SLO_RE = re.compile(
    r"^\s*(?P<service>[A-Za-z0-9_.:-]+)\s+p(?P<pct>\d+(?:\.\d+)?)\s*<\s*"
    r"(?P<threshold>\d+(?:\.\d+)?)\s*(?P<tunit>us|ms|s)\s+over\s+"
    r"(?P<window>\d+(?:\.\d+)?)\s*(?P<wunit>us|ms|s)\s*(?:windows?)?\s*$")


def parse_slo(text: str) -> Dict[str, object]:
    """Parse the compact SLO grammar into SLOSpec keyword arguments.

    >>> parse_slo("rkv p99 < 40us over 2ms")["threshold_us"]
    40.0
    """
    match = _SLO_RE.match(text)
    if match is None:
        raise ValueError(
            f"bad SLO {text!r}; expected "
            f"'<service> p<pct> < <threshold>{{us|ms|s}} "
            f"over <window>{{us|ms|s}}'")
    service = match.group("service")
    pct = float(match.group("pct"))
    threshold = float(match.group("threshold")) * _UNIT_US[match.group("tunit")]
    window = float(match.group("window")) * _UNIT_US[match.group("wunit")]
    return {
        "name": f"{service}-p{pct:g}",
        "service": service,
        "pct": pct,
        "threshold_us": threshold,
        "window_us": window,
    }


class SloEvaluator:
    """Evaluates one SLO against its service histogram every pulse."""

    def __init__(self, sim, store, name: str, metric: str,
                 threshold_us: float, pct: float = 99.0,
                 window_us: float = 2_000.0,
                 slow_windows: int = DEFAULT_SLOW_WINDOWS,
                 budget: float = DEFAULT_BUDGET,
                 burn_threshold: float = 1.0,
                 period_us: float = 500.0):
        if threshold_us <= 0:
            raise ValueError(f"slo {name}: threshold_us must be positive")
        if not 0.0 < budget <= 1.0:
            raise ValueError(f"slo {name}: budget must be in (0, 1]")
        self.sim = sim
        self.store = store
        self.name = name
        self.metric = metric
        self.pct = pct
        self.threshold_us = threshold_us
        self.window_us = window_us
        self.budget = budget
        self.burn_threshold = burn_threshold
        #: samples per fast window, and the slow multiple of it
        self.fast_n = max(int(round(window_us / period_us)), 1)
        self.slow_n = self.fast_n * max(int(slow_windows), 1)
        self._bad: Deque[int] = deque(maxlen=self.slow_n)
        self._ok_streak = 0
        self.in_breach = False
        self.breaches = 0
        self.recoveries = 0
        #: (t, "breach" | "recover", burn_fast, burn_slow) per transition.
        self.transitions: List[Tuple[float, str, float, float]] = []

    # -- burn math --------------------------------------------------------
    def _burn(self, n: int) -> float:
        if not self._bad:
            return 0.0
        window = list(self._bad)[-n:]
        return (sum(window) / len(window)) / self.budget

    # -- one evaluation tick ----------------------------------------------
    def evaluate(self, t: float) -> None:
        metrics = self.sim.metrics
        hist = metrics.get_histogram(self.metric) if metrics else None
        value = (EMPTY_QUANTILE if hist is None
                 else hist.percentile(self.pct, t))
        bad = (not no_data(value)) and value >= self.threshold_us
        self._bad.append(1 if bad else 0)
        self._ok_streak = 0 if bad else self._ok_streak + 1
        burn_fast = self._burn(self.fast_n)
        burn_slow = self._burn(self.slow_n)
        if (not self.in_breach and len(self._bad) >= self.fast_n
                and burn_fast >= self.burn_threshold
                and burn_slow >= self.burn_threshold):
            self.in_breach = True
            self.breaches += 1
            self.transitions.append((t, "breach", burn_fast, burn_slow))
            self._emit("slo.breach", t, value, burn_fast, burn_slow)
        elif self.in_breach and self._ok_streak >= self.fast_n:
            self.in_breach = False
            self.recoveries += 1
            self.transitions.append((t, "recover", burn_fast, burn_slow))
            self._emit("slo.recover", t, value, burn_fast, burn_slow)
        prefix = f"slo.{self.name}"
        self.store.record(t, f"{prefix}.value", value)
        self.store.record(t, f"{prefix}.burn_fast", burn_fast)
        self.store.record(t, f"{prefix}.burn_slow", burn_slow)
        self.store.record(t, f"{prefix}.breach",
                          1.0 if self.in_breach else 0.0)

    def _emit(self, kind: str, t: float, value: float,
              burn_fast: float, burn_slow: float) -> None:
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(f"{kind}:{self.name}", "slo", track="slo",
                           slo=self.name, metric=self.metric,
                           value=None if no_data(value) else value,
                           threshold_us=self.threshold_us,
                           burn_fast=burn_fast, burn_slow=burn_slow)
        metrics = self.sim.metrics
        if metrics is not None:
            metrics.counter(kind).inc(t)

    # -- reporting --------------------------------------------------------
    def report(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "metric": self.metric,
            "objective": (f"p{self.pct:g} < {self.threshold_us:g}us "
                          f"over {self.window_us:g}us"),
            "budget": self.budget,
            "burn_threshold": self.burn_threshold,
            "fast_samples": self.fast_n,
            "slow_samples": self.slow_n,
            "evaluations": len(self._bad),
            "in_breach": self.in_breach,
            "breaches": self.breaches,
            "recoveries": self.recoveries,
            "transitions": [
                {"t_us": round(t, 3), "kind": kind,
                 "burn_fast": round(bf, 4), "burn_slow": round(bs, 4)}
                for t, kind, bf, bs in self.transitions],
        }


def render_slo_report(reports: List[Dict[str, object]]) -> str:
    """Human-readable ``repro slo`` table."""
    if not reports:
        return "no SLOs declared"
    lines = []
    for rep in reports:
        state = "BREACH" if rep["in_breach"] else "ok"
        lines.append(
            f"[slo:{rep['name']}] {rep['objective']}  state={state}  "
            f"breaches={rep['breaches']} recoveries={rep['recoveries']} "
            f"(budget={rep['budget']:g}, fast={rep['fast_samples']} "
            f"slow={rep['slow_samples']} samples)")
        for tr in rep["transitions"]:
            lines.append(
                f"  {tr['kind']:>8s} @{tr['t_us']:12.1f}us "
                f"burn_fast={tr['burn_fast']:.2f} "
                f"burn_slow={tr['burn_slow']:.2f}")
    return "\n".join(lines)
