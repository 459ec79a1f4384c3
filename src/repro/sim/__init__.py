"""Deterministic discrete-event simulation kernel and instrumentation."""

from .domains import DomainCoordinator, DomainMessage, SyncError
from .engine import Process, Signal, SimulationError, Simulator
from .resources import CreditPool, Resource, Store
from .rng import SeededRNG, ZipfGenerator
from .stats import (
    LatencyRecorder,
    RunningStats,
    TimeWeightedValue,
    cdf_points,
    percentile,
)

__all__ = [
    "Simulator",
    "DomainCoordinator",
    "DomainMessage",
    "SyncError",
    "Process",
    "Signal",
    "SimulationError",
    "Resource",
    "Store",
    "CreditPool",
    "SeededRNG",
    "ZipfGenerator",
    "RunningStats",
    "LatencyRecorder",
    "TimeWeightedValue",
    "percentile",
    "cdf_points",
]
