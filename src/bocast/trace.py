"""Trace representation and the line-delimited trace file format.

A trace file is UTF-8, one JSON record per line:

    {"record":"config","trace_format":3, ...scenario fields...}
    [0,1,"invoke",{"op":"ksa_propose","msg":"1:0","instance":0,"value":"red"}]
    [0,1,"MEM","write",[1],null]
    [1,1,"MEM","snapshot",null,[1,0,0]]
    ...
    [7,3,"deliver-msg",{"msg":"1:0","position":0}]
    ...
    {"record":"outcome","outcome":"quiescent","turns":123}

This is trace format 3.  The config record comes first and the outcome
record last; every line between them is one event, a JSON array:

* an object access is ``[turn, pid, object, op, args, result]``;
* any other event is ``[turn, pid, kind, payload]``, with ``kind`` one of
  ``EVENT_KINDS`` other than ``"object-access"`` and ``payload`` an object.

``turn`` is the scheduler turn that emitted the event: an integer >= 0
that never decreases and is at most the outcome's ``turns``.  One turn
may emit several consecutive events (an operation invocation plus its
shared-object access, a set delivery plus its per-message deliveries),
and a crash carries the turn at which it fires.  ``pid`` is an integer
(not a boolean) in 1..n.  An event's step is its index in the trace,
counted from 0; it is not written, and no row holds it.
The outcome record holds ``record``, ``outcome`` and ``turns`` and no
other key: ``outcome`` is ``"quiescent"`` or ``"budget-exhausted"`` and
``turns`` an integer >= 0.  Crash plans and the step budget count
scheduler turns, not events.

The fields the checker reads, with the types the reader requires of them
(an *id* is a message id ``"s:i"`` in the canonical form of
``messages.is_msg_id``: two decimal integers without leading zeros.  A
sender outside 1..n is not a format error; the checker's validity
verdicts judge it):

    kind / object   op              fields
    invoke          kbo_broadcast   msg: id  (payload: the broadcast value)
    invoke          ksa_propose     msg: id, instance: int, value: str
    return          -               (op, msg or instance/value: not read)
    decide          -               instance: int, value: str
    deliver-set     -               round: int, set: list of ids
    deliver-msg     -               msg: id  (position: not read)
    crash           -               (empty payload)
    MEM             write           args: [count]              result: null
    MEM             snapshot        args: null                 result: n counts
    KSET[r]         propose         args: [id]                 result: id
    SNAP1[r]        write           args: [value: str]         result: null
    SNAP1[r]        snapshot        args: null                 result: n cells, str or null
    SNAP2[r]        write           args: [view: list of str]  result: null
    SNAP2[r]        snapshot        args: null                 result: n cells, view or null

An access's args and result are exactly as listed: a write or a propose
has one arg, a write's result is null, and a snapshot's args are null.
Cell i of MEM is the number of messages p_i has published, which names
the set {i:0, ..., i:c-1}.  ``r`` is a K2S round, a decimal integer.  A
trace stays greppable by kind (``"deliver-set"``) and by object
(``"SNAP2[0]"``).  A record ends at ``"\\n"`` and nowhere else.  Strings
are written without ASCII escaping, so U+2028, U+2029 and U+0085 may
appear raw inside a record; they are not line ends.  Blank lines are
skipped, and a record may carry surrounding JSON whitespace (a ``"\\r"``
before the ``"\\n"``, say).  All collections inside payloads are
canonically sorted, so a given scenario always serializes to
byte-identical output.

The reader reads format 3 only: a config record without
``"trace_format": 3`` is rejected on its line, and so is one holding a
key other than ``"record"``, ``"trace_format"`` and the scenario's
fields.  ``read_trace`` decodes a file's bytes as UTF-8 and translates
no line end, so a file reads exactly as its text does.

The reader cuts the text into blocks of whole lines, about 64 KiB each.
It decodes a block with one JSON call, on the block with each line end
replaced by a separator holding a NUL string, and keeps the result only
when that array proves each line to be exactly one JSON value
(``_decode_block`` gives the reason).  Any other block (one with a blank
line, a record split over two lines, two records on one line, a
byte-order mark, nesting too deep or a NUL payload) is read one line at
a time.  Either way each line gives what ``json.loads`` gives for it
alone, and every message names the line a line-by-line reader names.

In memory, a trace is its list of format-3 rows: ``Trace.rows`` holds
each event as the JSON array its line decodes to, and the simulator's
``Recorder`` builds the same lists, each at its exact size (``emit``
writes the object-access rows, ``event`` every other), so the run,
the writer, the reader and the checker's index all handle one list per
event and nothing else.  In the fields the reader checks, the rows hold
each repeated value once, and a run's rows and its parsed rows share
alike.  All rows with one object name hold one string for it, each op
and each kind is one string, and all rows of one turn hold one int; the
reader takes each from a lookup it makes anyway to check the row.  Each
message id in a field the reader checks (an invoke's or a deliver-msg's ``msg``, a deliver-set's
members, a KSET access's arg and result) is one string per id: the
simulator makes it once, at the invoke, and the reader keeps it in
``_Ids``, its cache of well-formed ids.  A SNAP1 value or SNAP2 view
member is that string when it is an id found before it, as each is in a
stack trace.  No field the reader does not check is touched: a return's
``msg`` may be any JSON value.

Snapshots follow one rule.  Every snapshot object (MEM, SNAP1[r],
SNAP2[r]) keeps its cells as written so far, in a list that a write
replaces and never changes, and a snapshot holds that list: in the
simulator, ``objects.SnapshotArray``; in the reader, a snapshot whose
args are null and whose result equals its object's cells.  MEM starts
with n counts of 0, a SNAP1[r] or SNAP2[r] with n null cells.  So each
written cell is the very value its writer's row holds as ``args[0]``,
and snapshots of one object with no write between them hold one list.
Such a snapshot needs no check of its own, since a JSON value equal to a
string, to null or to a list of strings is one, and each written cell
passed its write's check.  For MEM the rule applies only when both the
result and the cells hold ints only: ``true`` and ``1.0`` equal counts
but are not ints.  Any other snapshot is checked in full and holds a
list of its own.  The rows are read-only: a change to one cell would
change the other rows that hold it.  ``Trace.events`` is a view for
readers outside the package: it builds ``Event`` records from the rows
on each call.
"""

from __future__ import annotations

import functools
import gc
import json
import re
from dataclasses import dataclass
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring

from .messages import is_msg_id

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

TRACE_FORMAT = 3

# The keys a config record holds besides the scenario's fields.
CONFIG_RECORD_KEYS = frozenset(("record", "trace_format"))
# The keys an outcome record holds, every one required.
OUTCOME_RECORD_KEYS = frozenset(("record", "outcome", "turns"))


class TraceFormatError(ValueError):
    pass


def pauses_cyclic_gc(fn):
    """Run ``fn`` with the cyclic garbage collector paused.

    The bulk builders (``run_scenario``, ``parse_trace``, ``check_all``)
    allocate one container per event or more: a parsed wide trace holds
    hundreds of thousands of them.  While they are built, every
    generational collection walks them again and frees nothing, because
    these calls build acyclic trees and leave no cyclic garbage:
    reference counting alone frees all they drop.  That condition is what
    makes the pause safe, and ``tests/test_gc_pause.py`` enforces it (with
    the collector off, ``gc.collect()`` finds nothing unreachable after
    each call).  ``serialize_trace`` is paused too: it runs straight after
    ``run_scenario`` returns, and the first collection it started would
    walk every row of the fresh trace, to free nothing.  The collector is
    enabled again on the way out, also when ``fn`` raises, but only if it
    was enabled on the way in, so nested calls and callers that run with
    it off keep their state.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@dataclass(slots=True)
class Event:
    """One event as a record: what ``Trace.events`` builds from a row."""

    pid: int
    kind: str
    payload: dict
    turn: int = 0


@dataclass
class Trace:
    """A trace in memory: its config, its events as format-3 rows (the
    lists the file holds, one per event, in trace order), its outcome and
    its turn count.  The rows are read-only: each is a list of its own,
    but a snapshot holds its object's cells as written so far, a list it
    shares with the other snapshots of that object until the next write,
    and whose cells are the written values; all rows hold one string per
    message id in the fields the reader checks.  A run's rows and a parsed
    trace's share alike."""

    config: "ScenarioConfig"
    rows: list[list]
    outcome: str  # one of OUTCOMES
    turns: int

    @property
    def quiescent(self) -> bool:
        return self.outcome == "quiescent"

    @property
    def events(self) -> list[Event]:
        """The rows as ``Event`` records, built afresh on each call: an
        access's payload is keyed object, op, args and result, any other
        event's payload is its row's.  A view for readers outside the
        package; nothing in ``bocast`` reads it."""
        return [
            Event(row[1], "object-access", dict(zip(_ACCESS_KEYS, row[2:])), row[0])
            if len(row) == 6 else Event(row[1], row[2], row[3], row[0])
            for row in self.rows
        ]


class Recorder:
    """Keeps events as format-3 rows in emission order; each row starts
    with ``turn``, which the scheduler advances after each step's own events.
    The shared objects write their accesses through ``emit``, the scheduler
    every other event through ``event``.  Each builds its row as one list
    display, which is allocated at its exact size."""

    def __init__(self):
        self.rows: list[list] = []
        self.turn = 0

    def emit(self, pid: int, object_id: str, op: str, args, result) -> None:
        """Record an object access."""
        self.rows.append([self.turn, pid, object_id, op, args, result])

    def event(self, pid: int, kind: str, payload: dict) -> None:
        """Record an event other than an object access."""
        self.rows.append([self.turn, pid, kind, payload])


# One encoder for every record.  Insertion order of keys is part of the
# format; never sort here.  ``_chunks(record, 0)`` gives the record's JSON
# text in pieces: it is the C encoder (CPython's ``_json``) that
# ``json.dumps(record, separators=(",", ":"), ensure_ascii=False)`` builds
# afresh on every call, built once.  Its arguments, by position:
_chunks = c_make_encoder(
    None,  # markers: no circular-reference check (records are trees)
    json.JSONEncoder().default,  # default: raise TypeError on other types
    encode_basestring,  # encoder: strings without ASCII escaping
    None,  # indent: none
    ":",  # key separator
    ",",  # item separator
    False,  # sort_keys: keep insertion order
    False,  # skipkeys: non-str keys raise
    True,  # allow_nan: as json.dumps
)

_ACCESS_KEYS = ("object", "op", "args", "result")
_PLAIN_KINDS = frozenset(EVENT_KINDS) - {"object-access"}
_ROWS_PER_JOIN = 256  # the rows whose records ``serialize_trace`` joins at once


@pauses_cyclic_gc
def serialize_trace(trace: Trace) -> str:
    """The trace file text.  Raises ValueError on a row it cannot write so
    that it reads back the same: a turn or pid that is not an int, an
    unknown kind, or other than 4 or 6 fields."""
    cfg_record = {"record": "config", "trace_format": TRACE_FORMAT}
    cfg_record.update(trace.config.to_json_dict())
    # The records are joined a block of rows at a time, so only one
    # block's chunks are alive beside the text made so far.
    text = ["".join(_chunks(cfg_record, 0)), "\n"]
    plain = _PLAIN_KINDS
    rows = trace.rows
    for start in range(0, len(rows), _ROWS_PER_JOIN):
        out = []
        extend, append = out.extend, out.append
        for index, row in enumerate(rows[start : start + _ROWS_PER_JOIN], start):
            size = len(row)
            if size == 4:
                kind = row[2]
                if type(kind) is not str or kind not in plain:
                    raise ValueError(f"cannot serialize event {index}: unknown kind {kind!r}")
            elif size != 6:
                raise ValueError(
                    f"cannot serialize event {index}: it has {size} fields, not 4 or 6"
                )
            if type(row[0]) is not int or type(row[1]) is not int:
                raise ValueError(
                    f"cannot serialize event {index} (turn={row[0]!r}, pid={row[1]!r}): "
                    "turn and pid must be ints"
                )
            extend(_chunks(row, 0))
            append("\n")
        text.append("".join(out))
    text.extend(_chunks({"record": "outcome", "outcome": trace.outcome, "turns": trace.turns}, 0))
    text.append("\n")
    return "".join(text)


def write_trace(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_trace(trace))


# --- the payload schema of the table above ------------------------------------

# An object name: MEM, or a family (group 1) and its round (group 2)
OBJECT_NAME = re.compile(r"MEM|(KSET|SNAP1|SNAP2)\[(0|[1-9][0-9]*)\]")
_STR = frozenset((str,))
_INT = frozenset((int,))
_STR_OR_NULL = frozenset((str, type(None)))
_LIST_OR_NULL = frozenset((list, type(None)))


class _Ids(dict):
    """The message ids found well formed so far, each mapped to the one
    string of it that the parsed rows share; a lookup of any other
    hashable value gives None."""

    __slots__ = ()

    def __missing__(self, value):
        if not is_msg_id(value):
            return None
        self[value] = value
        return value


def _is_view(value) -> bool:
    return type(value) is list and _STR.issuperset(map(type, value))


# Checks of an object access's row, by object family and op: each tells
# whether the row's args and result are as the schema says and, if so,
# makes each message id in them the one string of that id, in place.  A
# SNAP1 value or SNAP2 view member need not be an id: it becomes the
# string of an id found before it, the KSET result it was decided as in a
# stack trace, and stays as it is otherwise.  A snapshot's cells are left
# alone: ``parse_trace`` shares a snapshot's list whole, or none of it.


def _mem_write(row, _ids) -> bool:
    args = row[4]
    return type(args) is list and len(args) == 1 and row[5] is None


def _mem_snapshot(row, _ids) -> bool:
    return row[4] is None and type(row[5]) is list


def _kset_propose(row, ids) -> bool:
    args, result = row[4], row[5]
    if type(args) is not list or len(args) != 1:
        return False
    arg = args[0]
    if type(arg) is not str or type(result) is not str:
        return False
    mid, decided = ids[arg], ids[result]
    if mid is None or decided is None:
        return False
    args[0], row[5] = mid, decided
    return True


def _snap1_write(row, ids) -> bool:
    args = row[4]
    if type(args) is not list or len(args) != 1 or type(args[0]) is not str or row[5] is not None:
        return False
    args[0] = ids.get(args[0], args[0])
    return True


def _snap1_snapshot(row, _ids) -> bool:
    result = row[5]
    return row[4] is None and type(result) is list and _STR_OR_NULL.issuperset(map(type, result))


def _snap2_write(row, ids) -> bool:
    args = row[4]
    if type(args) is not list or len(args) != 1 or not _is_view(args[0]) or row[5] is not None:
        return False
    view = args[0]
    view[:] = map(ids.get, view, view)
    return True


def _snap2_snapshot(row, _ids) -> bool:
    result = row[5]
    return (
        row[4] is None
        and type(result) is list
        and _LIST_OR_NULL.issuperset(map(type, result))
        and _STR.issuperset(map(type, chain.from_iterable(filter(None, result))))
    )


def _by_name(table: dict) -> dict:
    """``table`` with each value paired with its key: a lookup gives the
    table's own string, which every row read through it then shares."""
    return {key: (key, value) for key, value in table.items()}


# family -> op -> (op, check)
_ACCESSES = {
    "MEM": _by_name({"write": _mem_write, "snapshot": _mem_snapshot}),
    "KSET": _by_name({"propose": _kset_propose}),
    "SNAP1": _by_name({"write": _snap1_write, "snapshot": _snap1_snapshot}),
    "SNAP2": _by_name({"write": _snap2_write, "snapshot": _snap2_snapshot}),
}


# The fields the checker reads of every other kind's payload, with their
# types: int, str, _ID or _IDS; kind -> (kind, fields).
_ID, _IDS = "a message id", "a list of message ids"
_PAYLOADS = _by_name({
    "invoke": None,  # by op, in _INVOKES
    "return": (),
    "decide": (("instance", int), ("value", str)),
    "deliver-set": (("round", int), ("set", _IDS)),
    "deliver-msg": (("msg", _ID),),
    "crash": (),
})
_INVOKES = {
    "kbo_broadcast": (("msg", _ID),),
    "ksa_propose": (("msg", _ID), ("instance", int), ("value", str)),
}
_TYPE_NAMES = {int: "an integer", str: "a string", _ID: _ID, _IDS: _IDS}


def _access_check(name, op, objects: dict, n: int, lineno: int):
    """``(name, ops, cells, op, check)`` of an access to object ``name``
    with ``op``: its entry in ``objects``, then the op as the rows share it
    and the check of its row.  ``objects`` caches ``(name, checks by op,
    cells)`` for each name seen: the name as the rows share it, and the
    cells of a snapshot object as written so far (None for a KSET[r]);
    MEM starts with n counts of 0, a SNAP1[r] or SNAP2[r] with n null
    cells."""
    try:
        name, ops, cells = objects[name]
    except (KeyError, TypeError):  # a new name, or no string at all
        m = OBJECT_NAME.fullmatch(name) if type(name) is str else None
        if m is None:
            raise TraceFormatError(f"line {lineno}: unknown object {name!r}") from None
        family = m.group(1)  # None for MEM
        ops = _ACCESSES[family or "MEM"]
        cells = None if family == "KSET" else [None if family else 0] * n
        objects[name] = name, ops, cells
    try:
        op, check = ops[op]
    except (KeyError, TypeError):  # no such op, or no string at all
        raise TraceFormatError(f"line {lineno}: {name} has no op {op!r}") from None
    return name, ops, cells, op, check


def _payload_error(kind: str, payload, ids: _Ids) -> str | None:
    """Why a payload of ``kind`` breaks the schema, or None.  Each message
    id in a field it checks becomes the one string of that id, in place; no
    other field is touched: a return's ``msg`` may be anything."""
    if type(payload) is not dict:
        return "an event payload must be a JSON object"
    fields = _PAYLOADS[kind][1]
    if fields is None:
        op = payload.get("op")
        fields = _INVOKES.get(op) if type(op) is str else None
        if fields is None:
            return f"an invoke needs an op of {', '.join(_INVOKES)}"
    for field, want in fields:
        value = payload.get(field)
        if type(value) is want:
            continue
        if want is _ID:
            if type(value) is str and (mid := ids[value]) is not None:
                payload[field] = mid
                continue
        elif want is _IDS and type(value) is list:
            mids = [ids[mid] if type(mid) is str else None for mid in value]
            if all(mids):  # no member is None: each is an id
                value[:] = mids
                continue
        article = "an" if kind == "invoke" else "a"
        return f"{article} {kind} needs {field!r} to be {_TYPE_NAMES[want]}"
    return None


# --- the reader -----------------------------------------------------------------

# The least length, in characters, of a block of lines that the reader
# decodes with one JSON call; a block ends at the first line end from there.
_BLOCK = 1 << 16
_SEPARATOR = ',"\\u0000",'  # each line end, in the text one block decodes as
_NUL = "\x00"  # the string that separator holds


def _decode_block(block: str, lines: int) -> list | None:
    """The records of ``block``, a text of ``lines`` lines, when each line
    is exactly one JSON value with JSON whitespace around it; None when
    not.

    The block is decoded as one JSON array with each ``"\\n"`` replaced by
    ``,"\\u0000",``.  If the array decodes, each inserted ``"`` opens a
    string: had it closed one, the ``\\`` after it would stand outside any
    string.  So each separator reads as a comma, the string NUL and a
    comma, outside any string, as did the raw ``"\\n"`` it replaced, which
    JSON allows in no string.  The only JSON text of that one-character
    string is ``"\\u0000"``, so when the block itself holds no such text,
    the array holds NUL exactly lines - 1 times, once per separator.  If
    those are its elements at odd positions and it has 2 * lines - 1
    elements, every separator sits at the array's top level and each line
    between two of them holds exactly one of its elements: the value
    ``json.loads`` gives for that line alone.  Any other block (a blank
    line, a record split over two lines or two records on one, a
    byte-order mark, nesting too deep, a NUL payload) gives None and is
    read one line at a time.
    """
    if '"\\u0000"' in block:
        return None
    try:
        values = json.loads("[" + block.replace("\n", _SEPARATOR) + "]")
    except (ValueError, RecursionError):
        return None
    if len(values) != 2 * lines - 1 or values[1::2].count(_NUL) != lines - 1:
        return None
    return values[::2]


def _decode_lines(block: str, lineno: int):
    """``(line number, record)`` of each line of ``block`` that is not
    blank, read one line at a time, the block's first line being line
    ``lineno`` + 1; TraceFormatError, naming the line, at a line that is
    not one JSON value or is nested too deeply.  Lazy: that error comes
    only once the caller has checked the records before it."""
    for lineno, line in enumerate(block.split("\n"), lineno + 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        except RecursionError:
            raise TraceFormatError(f"line {lineno}: JSON nested too deeply") from None
        yield lineno, record


@pauses_cyclic_gc
def parse_trace(text: str) -> Trace:
    """The trace in ``text``; TraceFormatError, naming the line, on
    anything format 3 does not allow.

    The text is cut into blocks of whole lines, each decoded by one JSON
    call when every line holds exactly one JSON value (``_decode_block``)
    and one line at a time otherwise (``_decode_lines``).  Either way a
    line gives the value ``json.loads`` gives for it alone, so the
    records, messages and line numbers are those of a line-by-line reader.
    """
    from .scenario import ConfigError, ScenarioConfig, reject_unknown_keys

    config = None
    n = 0
    rows: list[list] = []
    append = rows.append
    last_turn = 0
    outcome = None
    turns = 0
    ids = _Ids()
    # object name -> (name, its checks by op, cells), for the names seen; the
    # cells of a snapshot object as written so far, None for a KSET[r]: a
    # list that snapshot rows may hold, so a write replaces it
    objects: dict = {}
    payloads = _PAYLOADS
    find, size_of_text = text.find, len(text)
    # where the last block ends: before a final "\n", which ends a line
    # and starts none
    end_of_text = size_of_text - 1 if text.endswith("\n") else size_of_text
    read = 0  # the lines before the next block
    start = 0  # where the next block starts
    while start < size_of_text:
        stop = find("\n", start + _BLOCK)
        if stop < 0:
            stop = end_of_text
        block = text[start:stop]
        lines = block.count("\n") + 1
        records = _decode_block(block, lines)
        if records is None:
            numbered = _decode_lines(block, read)
        else:
            numbered = zip(range(read + 1, read + lines + 1), records)
        read += lines
        start = stop + 1
        for lineno, rec in numbered:
            if type(rec) is list:
                size = len(rec)
                if size == 6:
                    turn, pid, name, op, args, result = rec
                elif size == 4:
                    turn, pid, kind, payload = rec
                else:
                    raise TraceFormatError(f"line {lineno}: an event has 4 or 6 fields, not {size}")
                if type(turn) is not int or turn < last_turn:
                    raise TraceFormatError(
                        f"line {lineno}: an event turn must be an integer >= 0 that never decreases"
                    )
                if type(pid) is not int or not 0 < pid <= n:
                    if config is None:
                        raise TraceFormatError(f"line {lineno}: an event before the config record")
                    raise TraceFormatError(f"line {lineno}: pid {pid!r} is not in 1..{n}")
                if outcome is not None:
                    raise TraceFormatError(f"line {lineno}: an event after the outcome record")
                if size == 6:
                    try:
                        name, ops, cells = objects[name]
                        op, check = ops[op]
                    except (KeyError, TypeError):  # not seen yet, or no string
                        name, ops, cells, op, check = _access_check(name, op, objects, n, lineno)
                    # one object per name and per op, as in the simulator's rows
                    rec[2] = name
                    rec[3] = op
                    if op == "snapshot" and args is None and result == cells and (
                        # true and 1.0 equal counts but are not ints
                        name != "MEM" or (
                            _INT.issuperset(map(type, result)) and _INT.issuperset(map(type, cells))
                        )
                    ):  # the cells written so far, each checked at its write
                        rec[5] = cells
                    elif not check(rec, ids):
                        raise TraceFormatError(
                            f"line {lineno}: a {name} {op} with malformed args or result"
                        )
                    elif op == "snapshot" and len(result) != n:
                        raise TraceFormatError(
                            f"line {lineno}: a {name} snapshot holds {len(result)} cells, "
                            f"not n = {n}"
                        )
                    elif op == "write":  # new cells, as rows may hold the old
                        cells = cells[:]
                        cells[pid - 1] = args[0]
                        objects[name] = name, ops, cells
                else:
                    try:
                        rec[2] = payloads[kind][0]  # the one string of its kind
                    except (KeyError, TypeError):  # no such kind, or unhashable
                        raise TraceFormatError(
                            f"line {lineno}: unknown event kind {kind!r}"
                        ) from None
                    why = _payload_error(kind, payload, ids)
                    if why is not None:
                        raise TraceFormatError(f"line {lineno}: {why}")
                if turn == last_turn:  # one int per turn, as the simulator's rows
                    rec[0] = last_turn
                else:
                    last_turn = turn
                append(rec)
                continue
            if type(rec) is not dict:
                raise TraceFormatError(f"line {lineno}: a record must be a JSON array or object")
            record = rec.get("record")
            if outcome is not None:
                raise TraceFormatError(f"line {lineno}: a record after the outcome record")
            if record == "config":
                if config is not None:
                    raise TraceFormatError(f"line {lineno}: a second config record")
                fmt = rec.get("trace_format", 1)
                if type(fmt) is not int or fmt != TRACE_FORMAT:
                    raise TraceFormatError(
                        f"line {lineno}: trace format {fmt!r} is not supported; "
                        f"this reader reads format {TRACE_FORMAT} only (re-run the scenario)"
                    )
                try:
                    config = ScenarioConfig.from_json_dict(rec, CONFIG_RECORD_KEYS)
                except ConfigError as exc:
                    raise TraceFormatError(f"line {lineno}: {exc}") from exc
                n = config.n
            elif record == "outcome":
                try:
                    reject_unknown_keys(rec, OUTCOME_RECORD_KEYS, "outcome record")
                except ConfigError as exc:
                    raise TraceFormatError(f"line {lineno}: {exc}") from exc
                outcome = rec.get("outcome")
                if outcome not in OUTCOMES:
                    raise TraceFormatError(
                        f"line {lineno}: outcome {outcome!r} is not one of {', '.join(OUTCOMES)}"
                    )
                turns = rec.get("turns")
                if type(turns) is not int or turns < last_turn:
                    raise TraceFormatError(
                        f"line {lineno}: turns must be an integer >= 0 and >= the last event's turn"
                    )
            else:
                raise TraceFormatError(f"line {lineno}: unknown record kind {record!r}")
    if config is None:
        raise TraceFormatError("trace has no config record")
    if outcome is None:
        raise TraceFormatError("trace has no outcome record")
    return Trace(config, rows, outcome, turns)


def read_trace(path) -> Trace:
    """The trace in the file at ``path``, read as ``parse_trace`` reads its
    text: no line end is translated, so a ``"\\r"`` inside a record stays
    JSON whitespace."""
    from .scenario import read_utf8

    return parse_trace(read_utf8(path, TraceFormatError, translate=False))
