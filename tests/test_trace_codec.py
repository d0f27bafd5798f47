"""The trace codec against an independent oracle.

``serialize_trace`` writes each event line as a fixed header plus the
encoded payload.  The reference below is the writer it replaced: one
``json.dumps`` of the whole record per line.  Both must give the same
text for any payload, including strings with quotes, backslashes,
control characters, non-ASCII and the characters other line splitters
treat as line ends (U+2028, U+2029, U+0085), and ``parse_trace`` must
read that text back to the same trace.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from bocast.scenario import WorkItem
from bocast.trace import EVENT_KINDS, Event, Trace, TraceFormatError, parse_trace, serialize_trace

from _drivers import stack_config

N = 4
CONFIG = stack_config(N, 2, 0, {1: (WorkItem(op="broadcast", payload="x"),)})


def reference_serialize(trace: Trace) -> str:
    def dumps(obj) -> str:
        return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)

    cfg = {"record": "config", "trace_format": 2}
    cfg.update(trace.config.to_json_dict())
    lines = [dumps(cfg)]
    for ev in trace.events:
        lines.append(dumps({
            "record": "event", "step": ev.step, "pid": ev.pid, "kind": ev.kind,
            "payload": ev.payload,
        }))
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


@st.composite
def events(draw) -> list[Event]:
    out = []
    step = -1
    for _ in range(draw(st.integers(0, 6))):
        step += draw(st.integers(1, 3))
        kind = draw(st.sampled_from(EVENT_KINDS))
        payload = draw(st.dictionaries(texts, values, max_size=3))
        # what the reader requires of these two kinds
        if kind == "object-access":
            result = draw(st.lists(values, max_size=3))
            payload.update(object=draw(texts), op="snapshot", result=result)
        elif kind == "deliver-set":
            payload["set"] = draw(st.lists(texts, max_size=3))
        out.append(Event(step, draw(st.integers(1, N)), kind, payload))
    return out


@given(
    events(),
    st.sampled_from(("quiescent", "budget-exhausted")),
    st.integers(0, 2**40),
)
@settings(max_examples=100, deadline=None)
def test_serialize_matches_the_per_record_reference_and_round_trips(evs, outcome, turns):
    trace = Trace(CONFIG, evs, outcome, turns)
    text = serialize_trace(trace)
    assert text == reference_serialize(trace)
    back = parse_trace(text)
    assert back.events == evs
    assert (back.config, back.outcome, back.turns) == (CONFIG, outcome, turns)
    assert serialize_trace(back) == text


@pytest.mark.parametrize(
    "event",
    [
        Event(0, True, "invoke", {}),
        Event("0", 1, "invoke", {}),
        Event(0, 1, "teleport", {}),
        Event(0, 1.0, "invoke", {}),
    ],
    ids=["bool-pid", "str-step", "unknown-kind", "float-pid"],
)
def test_serialize_rejects_what_it_cannot_write_as_valid_json(event):
    with pytest.raises(ValueError):
        serialize_trace(Trace(CONFIG, [event], "quiescent", 0))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines: lines[:1] + lines, "line 2: a second config record"),
        (lambda lines: lines[1:2] + lines[:1] + lines[2:],
         "line 1: an event before the config record"),
        (lambda lines: lines[:1] + lines[2:3] + lines[1:2] + lines[3:],
         "line 3: event steps must strictly increase"),
    ],
    ids=["second-config", "event-before-config", "step-order"],
)
def test_parse_rejects_records_out_of_place(edit, message):
    events = [Event(0, 1, "invoke", {}), Event(1, 2, "return", {})]
    lines = serialize_trace(Trace(CONFIG, events, "quiescent", 0)).splitlines()
    with pytest.raises(TraceFormatError, match=message):
        parse_trace("\n".join(edit(lines)))
