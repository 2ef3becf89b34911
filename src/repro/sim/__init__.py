"""Discrete-event simulation kernel (virtual time in microseconds)."""

from .engine import MICROSECOND, MILLISECOND, SECOND, EventHandle, SimulationError, Simulator
from .process import Process, Signal, Timeout, all_of, spawn
from .doorbell import Doorbell
from .resources import Resource, Store
from .distributions import Rng, ZipfGenerator, percentile, rng_draw_count
from .faults import FaultKind, FaultPlane, FaultSnapshot, FaultSpec, RecoveryPolicy
from .stats import Counter, Ewma, LatencyRecorder, LatencyTracker, UtilizationTracker

__all__ = [
    "MICROSECOND",
    "MILLISECOND",
    "SECOND",
    "EventHandle",
    "SimulationError",
    "Simulator",
    "Process",
    "Signal",
    "Timeout",
    "Doorbell",
    "all_of",
    "spawn",
    "Resource",
    "Store",
    "Rng",
    "FaultKind",
    "FaultPlane",
    "FaultSnapshot",
    "FaultSpec",
    "RecoveryPolicy",
    "ZipfGenerator",
    "percentile",
    "rng_draw_count",
    "Counter",
    "Ewma",
    "LatencyRecorder",
    "LatencyTracker",
    "UtilizationTracker",
]
