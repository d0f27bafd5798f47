"""Scenario configuration: the versioned input format of a simulation run.

A scenario file is a single JSON object whose fields are exactly the
configuration fields below.  Its work items are ``broadcast`` and
``propose`` operations, and every process runs the full protocol stack on
them (agreement oracle, snapshot objects, set broadcast, per-message
unpacking, repeated agreement).  A scenario cannot prescribe deliveries:
a delivery pattern the stack does not make is a trace written by hand,
which only the checker reads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

SCENARIO_VERSION = 1

# Caps on a scenario's size.  Per turn, the simulator and the checker do
# work linear in n (MEM snapshots, SNAP cells), kscd.ordering compares all
# n(n-1)/2 pairs of processes, and every turn emits at least one event, so
# a run that spends its whole budget holds that many events in memory.
# Both caps admit every checked-in scenario and the benchmark's workloads
# (n up to 20, a budget of 1,000,000 turns).
MAX_PROCESSES = 64
MAX_STEP_BUDGET = 1_000_000

# A workload key is a pid written one way only: decimal digits without
# sign, space or leading zero, so no two keys can name the same process.
_CANONICAL_PID = re.compile(r"0|[1-9][0-9]*")

SCHEDULE_POLICIES = ("seeded-random", "round-robin", "scripted")

ORACLE_POLICIES = (
    "first-1",
    "first-k-adversarial",
    "echo",
    "first-k-plus-one-permissive",
)


# The fields of a scenario object, the keys ``to_json_dict`` writes.
_SCENARIO_KEYS = frozenset((
    "version", "n", "k", "seed", "schedule_policy", "crash_plan", "workload", "step_budget",
    "oracle_policy",
))
_BROADCAST_KEYS = frozenset(("op", "payload"))
_PROPOSE_KEYS = frozenset(("op", "instance", "value"))
_SCRIPTED_KEYS = frozenset(("policy", "script"))


class ConfigError(ValueError):
    """Raised when a scenario violates one of its invariants."""


def require_int(value, name: str) -> int:
    """``value`` when it is a JSON integer (a bool is not); ConfigError
    otherwise, so that no number is rounded or coerced."""
    if type(value) is not int:
        raise ConfigError(f"{name} must be an integer, not {type(value).__name__}")
    return value


def reject_unknown_keys(obj: dict, known: frozenset, what: str) -> None:
    """ConfigError naming the first key of ``obj`` not in ``known``, so
    that a misspelled field is refused instead of defaulted."""
    if not obj.keys() <= known:
        raise ConfigError(f"unknown {what} field {min(obj.keys() - known)!r}")


def _workload_pid(key: str) -> int:
    """The pid a workload key names; ConfigError unless it is in canonical form."""
    if _CANONICAL_PID.fullmatch(key) is None:
        raise ConfigError(
            f"workload key {key!r} must be a pid written without sign, space or leading zero"
        )
    return int(key)


@dataclass(frozen=True)
class WorkItem:
    op: str  # "broadcast" | "propose"
    payload: str | None = None       # broadcast
    instance: int | None = None      # propose
    value: str | None = None         # propose

    def to_json_dict(self) -> dict:
        if self.op == "broadcast":
            return {"op": "broadcast", "payload": self.payload}
        return {"op": "propose", "instance": self.instance, "value": self.value}

    @staticmethod
    def from_json_dict(obj: dict) -> "WorkItem":
        op = obj.get("op")
        if op == "broadcast":
            reject_unknown_keys(obj, _BROADCAST_KEYS, "broadcast item")
            return WorkItem(op="broadcast", payload=obj["payload"])
        if op == "propose":
            reject_unknown_keys(obj, _PROPOSE_KEYS, "propose item")
            return WorkItem(op="propose", instance=obj["instance"], value=obj["value"])
        raise ConfigError(f"unknown workload op {op!r}")


@dataclass(frozen=True)
class SchedulePolicy:
    kind: str
    script: tuple[tuple[int, str], ...] = ()

    def to_json_dict(self):
        if self.kind != "scripted":
            return self.kind
        return {"policy": "scripted", "script": [[pid, thread] for pid, thread in self.script]}

    @staticmethod
    def from_json_dict(obj) -> "SchedulePolicy":
        if isinstance(obj, str):
            return SchedulePolicy(kind=obj)
        if isinstance(obj, dict) and obj.get("policy") == "scripted":
            reject_unknown_keys(obj, _SCRIPTED_KEYS, "schedule_policy")
            script = tuple(
                (require_int(pid, "a schedule script pid"), thread)
                for pid, thread in obj.get("script", [])
            )
            return SchedulePolicy(kind="scripted", script=script)
        raise ConfigError(f"unrecognized schedule_policy {obj!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    n: int
    k: int
    seed: int
    schedule: SchedulePolicy
    crash_plan: tuple[tuple[int, int], ...]
    workload: dict[int, tuple[WorkItem, ...]]
    step_budget: int
    oracle_policy: str = "first-k-adversarial"
    version: int = SCENARIO_VERSION

    def validate(self) -> None:
        if self.version != SCENARIO_VERSION:
            raise ConfigError(f"unsupported scenario version {self.version}")
        if not (1 <= self.n <= MAX_PROCESSES):
            raise ConfigError(
                f"process count must satisfy n >= 1 and n <= {MAX_PROCESSES} (got n={self.n})"
            )
        if not (1 <= self.k <= self.n):
            raise ConfigError(f"agreement degree must satisfy 1 <= k <= n (got k={self.k}, n={self.n})")
        if not (1 <= self.step_budget <= MAX_STEP_BUDGET):
            raise ConfigError(
                f"step_budget must satisfy 1 <= step_budget <= {MAX_STEP_BUDGET} "
                f"(got {self.step_budget})"
            )
        if not (0 <= self.seed <= (1 << 64) - 1):
            raise ConfigError("seed must fit in 64 bits")
        if self.oracle_policy not in ORACLE_POLICIES:
            raise ConfigError(f"unknown oracle_policy {self.oracle_policy!r}")
        if self.schedule.kind not in SCHEDULE_POLICIES:
            raise ConfigError(f"unknown schedule_policy {self.schedule.kind!r}")

        seen_crash = set()
        for pid, turn in self.crash_plan:
            if not (1 <= pid <= self.n):
                raise ConfigError(f"crash_plan names unknown process {pid}")
            if pid in seen_crash:
                raise ConfigError(f"crash_plan names process {pid} more than once")
            if turn < 0:
                raise ConfigError(f"crash turn must be >= 0 (got {turn} for p{pid})")
            seen_crash.add(pid)

        for pid, items in self.workload.items():
            if not (1 <= pid <= self.n):
                raise ConfigError(f"workload names unknown process {pid}")
            instances = []
            for item in items:
                if item.op not in ("broadcast", "propose"):
                    raise ConfigError(f"unknown workload op {item.op!r}")
                if item.op == "propose":
                    if type(item.instance) is not int or type(item.value) is not str:
                        raise ConfigError(
                            f"propose item of p{pid} needs an integer instance and a string value"
                        )
                    instances.append(item.instance)
            if instances != sorted(set(instances)):
                raise ConfigError(f"propose instance numbers of p{pid} must strictly increase")

        if self.schedule.kind == "scripted":
            for pid, thread in self.schedule.script:
                if not (1 <= pid <= self.n):
                    raise ConfigError(f"schedule script names unknown process {pid}")
                if thread not in ("main", "task"):
                    raise ConfigError(f"schedule script names unknown thread {thread!r}")

    # --- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "n": self.n,
            "k": self.k,
            "seed": self.seed,
            "schedule_policy": self.schedule.to_json_dict(),
            "crash_plan": [[pid, turn] for pid, turn in self.crash_plan],
            "workload": {
                str(pid): [item.to_json_dict() for item in items]
                for pid, items in sorted(self.workload.items())
            },
            "step_budget": self.step_budget,
            "oracle_policy": self.oracle_policy,
        }

    @staticmethod
    def from_json_dict(obj: dict, extra_keys: frozenset = frozenset()) -> "ScenarioConfig":
        """The config that ``obj`` holds; ConfigError on a field it does
        not read, other than ``extra_keys``, or on any invalid value."""
        try:
            reject_unknown_keys(obj, _SCENARIO_KEYS | extra_keys, "scenario")
            workload = {
                _workload_pid(pid): tuple(WorkItem.from_json_dict(item) for item in items)
                for pid, items in obj.get("workload", {}).items()
            }
            config = ScenarioConfig(
                n=require_int(obj["n"], "n"),
                k=require_int(obj["k"], "k"),
                seed=require_int(obj["seed"], "seed"),
                schedule=SchedulePolicy.from_json_dict(obj.get("schedule_policy", "seeded-random")),
                crash_plan=tuple(
                    (require_int(p, "a crash_plan pid"), require_int(t, "a crash_plan turn"))
                    for p, t in obj.get("crash_plan", [])
                ),
                workload=workload,
                step_budget=require_int(obj.get("step_budget", 100_000), "step_budget"),
                oracle_policy=obj.get("oracle_policy", "first-k-adversarial"),
                version=require_int(obj.get("version", SCENARIO_VERSION), "version"),
            )
        except ConfigError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed scenario: {exc}") from exc
        config.validate()
        return config


def read_utf8(path, error: type[Exception], translate: bool = True) -> str:
    """The text of the file at ``path``, newlines translated as ``open``
    does unless ``translate`` is false; ``error``, naming the file and the
    line, when it is not UTF-8.  No UTF-8 sequence holds a CR or LF byte,
    so translating the bytes is translating the text."""
    data = Path(path).read_bytes()
    if translate:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None


def load_json(path):
    """The JSON value in the file at ``path``; ConfigError, naming the
    file, when it is not UTF-8, not JSON, or nested too deeply to decode."""
    text = read_utf8(path, ConfigError)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: invalid JSON ({exc.msg})") from exc
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None


def load_scenario(path) -> ScenarioConfig:
    return ScenarioConfig.from_json_dict(load_json(path))
