"""Deterministic simulator and trace checker for a bounded-order broadcast
stack built from k-set agreement and snapshot objects."""

from .scenario import ScenarioConfig
from .sim import run_scenario
from .trace import parse_trace, serialize_trace
from .checker import ALL_SUITES, check_all

__all__ = [
    "ALL_SUITES",
    "ScenarioConfig",
    "check_all",
    "parse_trace",
    "run_scenario",
    "serialize_trace",
]
