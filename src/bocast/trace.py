"""Trace representation and the line-delimited trace file format.

A trace file is UTF-8, one JSON record per line:

    {"record":"config","trace_format":2, ...scenario fields...}
    {"record":"event","step":0,"pid":1,"kind":"invoke","payload":{...}}
    ...
    {"record":"outcome","outcome":"quiescent","turns":123}

A record ends at ``"\n"`` and nowhere else.  Strings are written without
ASCII escaping, so U+2028, U+2029 and U+0085 may appear raw inside a
record; they are not line ends.  Blank lines are skipped, and a record may
carry surrounding JSON whitespace (a ``"\r"`` before the ``"\n"``, say).

Event fields appear in the fixed order (step, pid, kind, payload) and all
collections inside payloads are canonically sorted, so a given scenario
always serializes to byte-identical output.  ``step`` and ``pid`` are
JSON integers (not booleans), ``pid`` is in 1..n, and ``payload`` is an
object.  The one config record comes before every event.  The outcome
record's ``outcome`` is ``"quiescent"`` or ``"budget-exhausted"`` and its
``turns`` an integer >= 0.

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

OUTCOMES = ("quiescent", "budget-exhausted")

TRACE_FORMAT = 2


class TraceFormatError(ValueError):
    pass


@dataclass(slots=True)
class Event:
    step: int
    pid: int
    kind: str
    payload: dict


@dataclass
class Trace:
    config: "ScenarioConfig"
    events: list[Event]
    outcome: str  # one of OUTCOMES
    turns: int

    @property
    def quiescent(self) -> bool:
        return self.outcome == "quiescent"


class Recorder:
    """Assigns event step indices in emission order."""

    def __init__(self):
        self.events: list[Event] = []

    def emit(self, pid: int, kind: str, payload: dict) -> Event:
        ev = Event(len(self.events), pid, kind, payload)
        self.events.append(ev)
        return ev


# One encoder and one decoder for every record.  Insertion order of keys
# is part of the format; never sort here.
_encode = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False).encode
_decode = json.JSONDecoder().raw_decode


def serialize_trace(trace: Trace) -> str:
    """The trace file text.  An event line is its fixed header, written
    directly, followed by the encoded payload; that is byte for byte what
    encoding the whole record as one object gives, provided step and pid
    are ints and kind needs no escaping, which is checked."""
    cfg_record = {"record": "config", "trace_format": TRACE_FORMAT}
    cfg_record.update(trace.config.to_json_dict())
    lines = [_encode(cfg_record)]
    append = lines.append
    for ev in trace.events:
        step, pid, kind = ev.step, ev.pid, ev.kind
        if type(step) is not int or type(pid) is not int or kind not in EVENT_KINDS:
            raise ValueError(
                f"cannot serialize event (step={step!r}, pid={pid!r}, kind={kind!r}): "
                "step and pid must be ints and kind one of EVENT_KINDS"
            )
        append(
            f'{{"record":"event","step":{step},"pid":{pid},"kind":"{kind}",'
            f'"payload":{_encode(ev.payload)}}}'
        )
    append(_encode({"record": "outcome", "outcome": trace.outcome, "turns": trace.turns}))
    append("")  # the text ends with a newline, without copying it to add one
    return "\n".join(lines)


def write_trace(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_trace(trace))


def parse_trace(text: str) -> Trace:
    from .scenario import ScenarioConfig

    config = None
    n = 0
    events: list[Event] = []
    append = events.append
    last_step = -1
    outcome = None
    turns = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        try:
            rec, end = _decode(line)
        except ValueError:
            end = -1
        if end != len(line):
            # Not exactly one JSON value: a blank line, a record padded
            # with whitespace (json.loads accepts it) or invalid JSON
            # (json.loads words the error).
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        if type(rec) is not dict:
            raise TraceFormatError(f"line {lineno}: a record must be a JSON object")
        kind = rec.get("record")
        if kind == "event":
            try:
                step, pid, ev_kind, payload = rec["step"], rec["pid"], rec["kind"], rec["payload"]
            except KeyError as exc:
                raise TraceFormatError(f"line {lineno}: missing event field {exc}") from exc
            if type(step) is not int or type(pid) is not int:
                raise TraceFormatError(f"line {lineno}: event step and pid must be integers")
            if step <= last_step:
                raise TraceFormatError(f"line {lineno}: event steps must strictly increase")
            if not 0 < pid <= n:
                if config is None:
                    raise TraceFormatError(f"line {lineno}: an event before the config record")
                raise TraceFormatError(f"line {lineno}: pid {pid} is not in 1..{n}")
            if type(payload) is not dict:
                raise TraceFormatError(f"line {lineno}: an event payload must be a JSON object")
            if ev_kind == "object-access":
                # The checker reads the object's name, the arguments of a
                # write or propose and the cells a snapshot returned.
                op = payload.get("op")
                if op == "snapshot":
                    if type(payload.get("result")) is not list:
                        raise TraceFormatError(f"line {lineno}: a snapshot needs a list 'result'")
                elif op == "write" or op == "propose":
                    args = payload.get("args")
                    if type(args) is not list or not args:
                        raise TraceFormatError(
                            f"line {lineno}: a {op} needs a non-empty list 'args'"
                        )
                if type(payload.get("object")) is not str:
                    raise TraceFormatError(
                        f"line {lineno}: an object-access needs a string 'object'"
                    )
            elif ev_kind == "deliver-set":
                if type(payload.get("set")) is not list:
                    raise TraceFormatError(f"line {lineno}: a deliver-set needs a list 'set'")
            elif ev_kind not in EVENT_KINDS:
                raise TraceFormatError(f"line {lineno}: unknown event kind {ev_kind!r}")
            last_step = step
            append(Event(step, pid, ev_kind, payload))
        elif kind == "config":
            if config is not None:
                raise TraceFormatError(f"line {lineno}: a second config record")
            fmt = rec.get("trace_format", 1)
            if fmt != TRACE_FORMAT:
                raise TraceFormatError(
                    f"line {lineno}: trace format {fmt!r} is not supported; "
                    f"this reader reads format {TRACE_FORMAT} only (re-run the scenario)"
                )
            config = ScenarioConfig.from_json_dict(rec)
            n = config.n
        elif kind == "outcome":
            outcome = rec.get("outcome")
            if outcome not in OUTCOMES:
                raise TraceFormatError(
                    f"line {lineno}: outcome {outcome!r} is not one of {', '.join(OUTCOMES)}"
                )
            turns = rec.get("turns", 0)
            if type(turns) is not int or turns < 0:
                raise TraceFormatError(f"line {lineno}: turns must be an integer >= 0")
        else:
            raise TraceFormatError(f"line {lineno}: unknown record kind {kind!r}")
    if config is None:
        raise TraceFormatError("trace has no config record")
    if outcome is None:
        raise TraceFormatError("trace has no outcome record")
    return Trace(config=config, events=events, outcome=outcome, turns=turns)


def read_trace(path) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh.read())
