"""Trace representation and the line-delimited trace file format.

A trace file is UTF-8, one JSON record per line:

    {"record":"config","trace_format":2, ...scenario fields...}
    {"record":"event","step":0,"pid":1,"kind":"invoke","payload":{...}}
    ...
    {"record":"outcome","outcome":"quiescent","turns":123}

Event fields appear in the fixed order (step, pid, kind, payload) and all
collections inside payloads are canonically sorted, so a given scenario
always serializes to byte-identical output.

This is trace format 2.  MEM accesses carry counts: cell i of MEM is the
number of messages p_i has published, which names the set {i:0, ...,
i:c-1} that format 1 listed in full.  A MEM write has ``args: [count]``
and a MEM snapshot a ``result`` of n counts.  The reader accepts format 2
only: a config record without ``"trace_format": 2`` is rejected.

``step`` is a global event index: it strictly increases over the whole
trace.  One scheduler turn may emit several consecutive events (an
operation invocation plus its shared-object access, a set delivery plus
its per-message deliveries).  Crash plans and the step budget count
scheduler turns, not events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

EVENT_KINDS = (
    "invoke",
    "return",
    "object-access",
    "deliver-set",
    "deliver-msg",
    "decide",
    "crash",
)

TRACE_FORMAT = 2


class TraceFormatError(ValueError):
    pass


@dataclass(frozen=True)
class Event:
    step: int
    pid: int
    kind: str
    payload: dict

    def to_json_dict(self) -> dict:
        return {
            "record": "event",
            "step": self.step,
            "pid": self.pid,
            "kind": self.kind,
            "payload": self.payload,
        }


@dataclass
class Trace:
    config: "ScenarioConfig"
    events: list[Event]
    outcome: str  # "quiescent" | "budget-exhausted"
    turns: int

    @property
    def quiescent(self) -> bool:
        return self.outcome == "quiescent"


class Recorder:
    """Assigns event step indices in emission order."""

    def __init__(self):
        self.events: list[Event] = []

    def emit(self, pid: int, kind: str, payload: dict) -> Event:
        ev = Event(step=len(self.events), pid=pid, kind=kind, payload=payload)
        self.events.append(ev)
        return ev


def _dumps(obj: dict) -> str:
    # Insertion order of keys is part of the format; never sort here.
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)


def serialize_trace(trace: Trace) -> str:
    lines = []
    cfg_record = {"record": "config", "trace_format": TRACE_FORMAT}
    cfg_record.update(trace.config.to_json_dict())
    lines.append(_dumps(cfg_record))
    for ev in trace.events:
        lines.append(_dumps(ev.to_json_dict()))
    lines.append(
        _dumps({"record": "outcome", "outcome": trace.outcome, "turns": trace.turns})
    )
    return "\n".join(lines) + "\n"


def write_trace(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_trace(trace))


def _check_access(lineno: int, payload) -> None:
    """An object access carries the lists the checker reads: the arguments
    of a write or propose and the cells a snapshot returned."""
    if not isinstance(payload, dict):
        raise TraceFormatError(f"line {lineno}: an object-access payload must be a JSON object")
    op = payload.get("op")
    if op in ("write", "propose"):
        args = payload.get("args")
        if not isinstance(args, list) or not args:
            raise TraceFormatError(f"line {lineno}: a {op} needs a non-empty list 'args'")
    elif op == "snapshot" and not isinstance(payload.get("result"), list):
        raise TraceFormatError(f"line {lineno}: a snapshot needs a list 'result'")


def parse_trace(text: str) -> Trace:
    from .scenario import ScenarioConfig

    config = None
    events: list[Event] = []
    outcome = None
    turns = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(rec, dict):
            raise TraceFormatError(f"line {lineno}: a record must be a JSON object")
        kind = rec.get("record")
        if kind == "config":
            fmt = rec.get("trace_format", 1)
            if fmt != TRACE_FORMAT:
                raise TraceFormatError(
                    f"line {lineno}: trace format {fmt!r} is not supported; "
                    f"this reader reads format {TRACE_FORMAT} only (re-run the scenario)"
                )
            config = ScenarioConfig.from_json_dict(rec)
        elif kind == "event":
            try:
                ev = Event(rec["step"], rec["pid"], rec["kind"], rec["payload"])
            except KeyError as exc:
                raise TraceFormatError(f"line {lineno}: missing event field {exc}") from exc
            if ev.kind not in EVENT_KINDS:
                raise TraceFormatError(f"line {lineno}: unknown event kind {ev.kind!r}")
            if ev.kind == "object-access":
                _check_access(lineno, ev.payload)
            events.append(ev)
        elif kind == "outcome":
            outcome = rec["outcome"]
            turns = rec.get("turns", 0)
        else:
            raise TraceFormatError(f"line {lineno}: unknown record kind {kind!r}")
    if config is None:
        raise TraceFormatError("trace has no config record")
    if outcome is None:
        raise TraceFormatError("trace has no outcome record")
    steps = [ev.step for ev in events]
    if steps != sorted(set(steps)):
        raise TraceFormatError("event steps must strictly increase")
    return Trace(config=config, events=events, outcome=outcome, turns=turns)


def read_trace(path) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read())
