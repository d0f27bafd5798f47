"""The trace codec against an independent oracle.

``serialize_trace`` writes each event as a JSON array through one
prebuilt encoder.  The reference below writes each record with its own
``json.dumps``.  Both must give the same text for any trace the reader
accepts, with strings holding quotes, backslashes, control characters,
non-ASCII and the characters other line splitters treat as line ends
(U+2028, U+2029, U+0085), and ``parse_trace`` must read that text back to
the same trace, turns included.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from bocast.checker import check_all
from bocast.scenario import WorkItem
from bocast.sim import run_scenario
from bocast.trace import Event, Trace, TraceFormatError, parse_trace, serialize_trace

from _drivers import stack_config, trace_of_events

N = 4
CONFIG = stack_config(N, 2, 0, {1: (WorkItem(op="broadcast", payload="x"),)})


def reference_serialize(trace: Trace) -> str:
    def dumps(obj) -> str:
        return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)

    cfg = {"record": "config", "trace_format": 3}
    cfg.update(trace.config.to_json_dict())
    lines = [dumps(cfg)]
    for ev in trace.events:
        p = ev.payload
        if ev.kind == "object-access":
            lines.append(dumps([ev.turn, ev.pid, p["object"], p["op"], p["args"], p["result"]]))
        else:
            lines.append(dumps([ev.turn, ev.pid, ev.kind, p]))
    lines.append(dumps({"record": "outcome", "outcome": trace.outcome, "turns": trace.turns}))
    return "\n".join(lines) + "\n"


ODD = '"\\/\x00\x01\x08\x0b\x0c\x1f\t\r\n\x7f\x85\u2028\u2029é€\U0001f600 a'
texts = st.one_of(st.text(alphabet=st.sampled_from(ODD)), st.text(max_size=8))
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), texts
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(texts, inner, max_size=4)
    ),
    max_leaves=6,
)
ids = st.builds("{}:{}".format, st.integers(1, N), st.integers(0, 30))
views = st.lists(texts, max_size=3)


@st.composite
def payloads(draw, kind: str) -> dict:
    """A payload of ``kind`` that the reader accepts: the fields it
    checks, over any other fields."""
    payload = draw(st.dictionaries(texts, values, max_size=2))
    if kind == "invoke":
        if draw(st.booleans()):
            payload.update(op="kbo_broadcast", msg=draw(ids), payload=draw(values))
        else:
            payload.update(op="ksa_propose", msg=draw(ids), instance=draw(st.integers()),
                           value=draw(texts))
    elif kind == "decide":
        payload.update(instance=draw(st.integers()), value=draw(texts))
    elif kind == "deliver-set":
        payload.update(round=draw(st.integers()), set=draw(st.lists(ids, max_size=3)))
    elif kind == "deliver-msg":
        payload.update(msg=draw(ids), position=draw(st.integers(0)))
    return payload


@st.composite
def accesses(draw) -> dict:
    """An object access payload that the reader accepts."""
    family, op = draw(st.sampled_from((
        ("MEM", "write"), ("MEM", "snapshot"), ("KSET", "propose"), ("SNAP1", "write"),
        ("SNAP1", "snapshot"), ("SNAP2", "write"), ("SNAP2", "snapshot"),
    )))
    name = family if family == "MEM" else f"{family}[{draw(st.integers(0, 30))}]"
    args = result = None
    if op == "propose":
        args, result = [draw(ids)], draw(ids)
    else:
        cell = {"MEM": st.integers(0), "SNAP1": texts, "SNAP2": views}[family]
        if op == "write":
            args = [draw(cell)]
        else:
            cells = cell if family == "MEM" else st.none() | cell
            result = draw(st.lists(cells, min_size=N, max_size=N))
    return {"object": name, "op": op, "args": args, "result": result}


@st.composite
def events(draw) -> list[Event]:
    out = []
    turn = 0
    for _ in range(draw(st.integers(0, 6))):
        turn += draw(st.integers(0, 3))
        kind = draw(st.sampled_from(
            ("invoke", "return", "object-access", "deliver-set", "deliver-msg", "decide", "crash")
        ))
        payload = draw(accesses()) if kind == "object-access" else draw(payloads(kind))
        out.append(Event(draw(st.integers(1, N)), kind, payload, turn))
    return out


@given(events(), st.sampled_from(("quiescent", "budget-exhausted")), st.integers(0, 2**40))
@settings(max_examples=150, deadline=None)
def test_serialize_matches_the_per_record_reference_and_round_trips(evs, outcome, extra_turns):
    turns = (evs[-1].turn if evs else 0) + extra_turns
    trace = trace_of_events(CONFIG, evs, outcome, turns)
    text = serialize_trace(trace)
    assert text == reference_serialize(trace)
    back = parse_trace(text)
    assert back.rows == trace.rows
    assert back.events == evs
    assert (back.config, back.outcome, back.turns) == (CONFIG, outcome, turns)
    assert serialize_trace(back) == text


@pytest.mark.parametrize(
    "row",
    [
        [0, True, "invoke", {}],
        ["0", 1, "invoke", {}],
        [0, 1, "teleport", {}],
        [0, 1, "object-access", {}],
        [0, 1.0, "invoke", {}],
        [True, 1, "invoke", {}],
        [0, 1, "MEM", "write", [1]],
        [0, 1, "MEM", "write", [1], None, "x"],
        [0, True, "MEM", "write", [1], None],
    ],
    ids=[
        "bool-pid", "str-turn", "unknown-kind", "access-kind-in-a-4-field-row", "float-pid",
        "bool-turn", "access-without-result", "access-with-another-key", "access-with-bool-pid",
    ],
)
def test_serialize_rejects_what_it_cannot_write_as_valid_json(row):
    with pytest.raises(ValueError):
        serialize_trace(Trace(CONFIG, [row], "quiescent", 0))


def _two_event_lines() -> list[str]:
    rows = [[0, 1, "return", {}], [1, 2, "return", {}]]
    return serialize_trace(Trace(CONFIG, rows, "quiescent", 1)).splitlines()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:1] + lines, "line 2: a second config record"),
        (lambda lines: lines[1:2] + lines[:1] + lines[2:],
         "line 1: an event before the config record"),
        (lambda lines: lines[:1] + lines[2:3] + lines[1:2] + lines[3:],
         "line 3: an event turn must be an integer >= 0 that never decreases"),
        (lambda lines: lines[:1] + lines[3:] + lines[1:3],
         "line 3: an event after the outcome record"),
        (lambda lines: lines + lines[3:], "line 5: a record after the outcome record"),
    ],
    ids=["second-config", "event-before-config", "turn-order", "event-after-outcome",
         "second-outcome"],
)
def test_parse_rejects_records_out_of_place(edit, message):
    with pytest.raises(TraceFormatError, match=message):
        parse_trace("\n".join(edit(_two_event_lines())))


@pytest.mark.parametrize(
    "record, message",
    [
        ('[0,1,"MEM","write",[1]]', "an event has 4 or 6 fields, not 5"),
        ("[]", "an event has 4 or 6 fields, not 0"),
        ('[0,1,"object-access",{}]', "unknown event kind 'object-access'"),
        ('[0,1,"teleport",{}]', "unknown event kind 'teleport'"),
        ('[-1,1,"return",{}]', "an event turn must be an integer >= 0"),
        ('[0,1,"MEMO","write",[1],null]', "unknown object 'MEMO'"),
        ('[0,1,"SNAP1[01]","write",["a"],null]', "unknown object 'SNAP1\\[01\\]'"),
        ('[0,1,"MEM","propose",[1],null]', "MEM has no op 'propose'"),
        ('[0,1,"MEM","write",[1],"junk"]', "a MEM write with malformed"),
        ('[0,1,"MEM","write",[1,99],null]', "a MEM write with malformed"),
        ('[0,1,"MEM","snapshot",{"a":1},[0,0,0,0]]', "a MEM snapshot with malformed"),
        ('[0,1,"KSET[0]","propose",["1:0"],"01:0"]', "a KSET\\[0\\] propose with malformed"),
        ('[0,1,"SNAP2[0]","snapshot",null,[["a"],"b"]]', "a SNAP2\\[0\\] snapshot with malformed"),
        ('[0,1,"deliver-msg",{"msg":"1:00"}]', "a deliver-msg needs 'msg' to be a message id"),
        ('[0,1,"deliver-set",{"round":0,"set":["1:0",[]]}]',
         "a deliver-set needs 'set' to be a list of message ids"),
        ('[0,1,"decide",{"instance":true,"value":"a"}]', "a decide needs 'instance' to be an integer"),
        ('[0,1,"invoke",{"op":"gossip","msg":"1:0"}]', "an invoke needs an op of"),
    ],
)
def test_parse_rejects_malformed_events_naming_the_line(record, message):
    lines = _two_event_lines()
    lines.insert(2, record)
    with pytest.raises(TraceFormatError, match="line 3: " + message):
        parse_trace("\n".join(lines))


# A snapshot of a one-shot object that equals the cells written so far is
# read without a type check; any other snapshot is checked in full.  These
# place one after two writes to its object, on line 4.
_WRITES = {
    "SNAP1[0]": ['[0,1,"SNAP1[0]","write",["a"],null]', '[0,2,"SNAP1[0]","write",["b"],null]'],
    "SNAP2[0]": [
        '[0,1,"SNAP2[0]","write",[["a"]],null]', '[0,2,"SNAP2[0]","write",[["a","b"]],null]'
    ],
}


def _after_writes(name: str, record: str) -> str:
    config, *_events, outcome = _two_event_lines()
    return "\n".join([config, *_WRITES[name], record, outcome])


_MALFORMED = "snapshot with malformed args or result"


@pytest.mark.parametrize(
    "name, args, result, message",
    [
        ("SNAP1[0]", "null", '["a",1,null,null]', _MALFORMED),
        ("SNAP2[0]", "null", '[["a"],"a",null,null]', _MALFORMED),
        ("SNAP2[0]", "null", '[["a"],["a",1],null,null]', _MALFORMED),
        ("SNAP1[0]", "[]", '["a","b",null,null]', _MALFORMED),
        ("SNAP2[0]", '["x"]', '[["a"],["a","b"],null,null]', _MALFORMED),
        ("SNAP1[0]", "null", '["a","b",null,null,null]', "snapshot holds 5 cells, not n = 4"),
        ("SNAP2[0]", "null", '[["a"],["a","b"],null,null,null]',
         "snapshot holds 5 cells, not n = 4"),
    ],
    ids=[
        "snap1-int-cell", "snap2-str-cell", "snap2-int-member", "snap1-args-equal-cells",
        "snap2-args-equal-cells", "snap1-n-plus-1-cells", "snap2-n-plus-1-cells",
    ],
)
def test_a_snapshot_after_writes_is_checked_in_full_unless_it_equals_them(
    name, args, result, message
):
    text = _after_writes(name, f'[0,1,"{name}","snapshot",{args},{result}]')
    with pytest.raises(TraceFormatError) as exc:
        parse_trace(text)
    assert str(exc.value) == f"line 4: a {name} {message}"


def test_a_write_whose_result_equals_the_cells_is_refused():
    text = _after_writes("SNAP1[0]", '[0,3,"SNAP1[0]","write",null,["a","b",null,null]]')
    with pytest.raises(TraceFormatError) as exc:
        parse_trace(text)
    assert str(exc.value) == "line 4: a SNAP1[0] write with malformed args or result"


@pytest.mark.parametrize(
    "name, result",
    [("SNAP1[0]", '["a",null,null,null]'), ("SNAP2[0]", '[["a"],null,null,null]')],
    ids=["snap1", "snap2"],
)
def test_a_well_typed_snapshot_unequal_to_the_writes_is_read_and_fails_replay(name, result):
    text = _after_writes(name, f'[0,1,"{name}","snapshot",null,{result}]')
    trace = parse_trace(text)
    assert trace.rows[2][5] == json.loads(result)
    assert serialize_trace(trace) == text + "\n"
    (replay,) = (v for v in check_all(trace) if v.property == "snapshot.replay")
    assert replay.witness == {"object": name, "step": 2, "cell": 2}


def test_turns_below_the_last_event_turn_are_rejected():
    lines = _two_event_lines()
    lines[-1] = lines[-1].replace('"turns":1', '"turns":0')
    with pytest.raises(TraceFormatError, match="line 4: turns must be"):
        parse_trace("\n".join(lines))


def test_serialize_peaks_at_little_more_than_twice_its_text():
    # The records are joined a block of rows at a time, so beside the rows
    # serialize_trace holds the blocks' text, the text they join to and one
    # block's chunks: 2.05 times the text on a 0.5 MB trace, against 3.07
    # with every record's chunks alive until one final join.
    n = 10
    workload = {
        pid: tuple(WorkItem(op="broadcast", payload=f"m{pid}.{i}") for i in range(10))
        for pid in range(1, n + 1)
    }
    trace = run_scenario(stack_config(n, 3, 1, workload, step_budget=1_000_000))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = serialize_trace(trace)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(text) > 400_000
    assert peak <= 2.3 * len(text), peak / len(text)
