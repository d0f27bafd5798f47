"""The block trace reader against a line-by-line reader.

``parse_trace`` decodes the text one block of whole lines per JSON call
and keeps the result only when it proves each line to be exactly one
JSON value; every other block is read one line at a time.
``reference_parse`` below splits the text at ``"\\n"`` and decodes each
line on its own.  Both must give the same rows, config, outcome and
turns, or the same ``TraceFormatError`` message naming the same line, on
any edit of the checked-in traces: blank lines, CRLF line ends, padding,
a record split over two lines, two records on one line, no final
newline, deep nesting, raw U+2028 or U+0085 inside strings, a NUL string
payload, an escaped NUL inside a longer string and a byte-order mark.
The edits are read with the reader's block size as it is and cut down to
a few characters, so that blocks of one line, of a few lines, and blocks
that end inside an edit are all read.  The schema checks of each record
are shared: what differs is only how the text is cut into records.
"""

from __future__ import annotations

import json
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bocast import trace as trace_module
from bocast.checker import check_all, serialize_verdicts
from bocast.cli import instantiate_template
from bocast.scenario import ConfigError, ScenarioConfig, WorkItem, load_scenario
from bocast.sim import run_scenario
from bocast.trace import (
    CONFIG_RECORD_KEYS, OUTCOMES, TRACE_FORMAT, Event, Trace, TraceFormatError, _PAYLOADS, _Ids,
    _access_check, _payload_error, parse_trace, serialize_trace,
)

from _drivers import sampled_stack_config, stack_config

EXAMPLE = Path("scenarios/examples/n3_k2_propose.scenario.json")
GOLDEN_TRACE = Path("scenarios/golden/width2_broadcast.trace")
TEMPLATE = Path("scenarios/templates/n5_k2_propose.template.json")


def reference_parse(text: str):
    """(config, rows, outcome, turns) of ``text``, one line at a time."""
    config = None
    n = 0
    rows = []
    last_turn = 0
    outcome = None
    turns = 0
    ids = _Ids()
    families: dict = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
        except RecursionError:
            raise TraceFormatError(f"line {lineno}: JSON nested too deeply") from None
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
                check = _access_check(name, op, families, n, lineno)[4]
                if not check(rec, ids):
                    raise TraceFormatError(
                        f"line {lineno}: a {name} {op} with malformed args or result"
                    )
                if op == "snapshot" and len(result) != n:
                    raise TraceFormatError(
                        f"line {lineno}: a {name} snapshot holds {len(result)} cells, not n = {n}"
                    )
            elif type(kind) is not str or kind not in _PAYLOADS:
                raise TraceFormatError(f"line {lineno}: unknown event kind {kind!r}")
            else:
                why = _payload_error(kind, payload, ids)
                if why is not None:
                    raise TraceFormatError(f"line {lineno}: {why}")
            last_turn = turn
            rows.append(rec)
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
            unknown = rec.keys() - {"record", "outcome", "turns"}
            if unknown:
                raise TraceFormatError(
                    f"line {lineno}: unknown outcome record field {min(unknown)!r}"
                )
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
    return config, rows, outcome, turns


def _read(reader, text: str):
    """What ``reader`` gives for ``text``: its result or its error message."""
    try:
        return "ok", reader(text)
    except TraceFormatError as exc:
        return "error", str(exc)


def _parsed(text: str):
    trace = parse_trace(text)
    return trace.config, trace.rows, trace.outcome, trace.turns


def assert_same_reading(text: str, block: int = trace_module._BLOCK) -> None:
    """``parse_trace``, reading ``block`` characters or more per block,
    reads ``text`` as ``reference_parse`` does."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trace_module, "_BLOCK", block)
        assert _read(_parsed, text) == _read(reference_parse, text)


def _example_text() -> str:
    return serialize_trace(run_scenario(load_scenario(EXAMPLE)))


BASES = {
    "example": _example_text(),
    "golden": GOLDEN_TRACE.read_text(encoding="utf-8"),
}

DEEP = "[" * 100_000 + "]" * 100_000


# --- edits of a trace's lines ---------------------------------------------------
# Each edit draws where it applies and changes the list of lines in place;
# the text is the lines joined by "\n", with a final "\n" unless an edit
# drops it.


def blank_line(draw, lines):
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", " ", "\t", "\r"))))


def crlf(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] += "\r"


def pad(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    before, after = draw(st.sampled_from((" ", ""))), draw(st.sampled_from((" ", "\t", "")))
    lines[i] = before + lines[i] + after


def split_record(draw, lines):
    i = draw(st.integers(0, len(lines) - 1))
    cut = draw(st.integers(0, len(lines[i])))
    lines[i : i + 1] = [lines[i][:cut], lines[i][cut:]]


def split_at_whitespace(draw, lines):
    """Split a line where JSON allows whitespace: after a comma or colon."""
    i = draw(st.integers(0, len(lines) - 1))
    cuts = [j + 1 for j, ch in enumerate(lines[i]) if ch in ",:"]
    if cuts:
        cut = draw(st.sampled_from(cuts))
        lines[i : i + 1] = [lines[i][:cut], lines[i][cut:]]


def join_records(draw, lines):
    if len(lines) > 1:
        i = draw(st.integers(0, len(lines) - 2))
        lines[i : i + 2] = [lines[i] + draw(st.sampled_from(("", " "))) + lines[i + 1]]


def deep_nesting(draw, lines):
    lines.insert(draw(st.integers(0, len(lines))), DEEP)


def raw_separator(draw, lines):
    """A raw U+2028 or U+0085 right inside a string of some line."""
    i = draw(st.integers(0, len(lines) - 1))
    quotes = [j + 1 for j, ch in enumerate(lines[i]) if ch == '"']
    if quotes:
        at = draw(st.sampled_from(quotes))
        lines[i] = lines[i][:at] + draw(st.sampled_from((" ", "\x85"))) + lines[i][at:]


STRING = re.compile(r'"(?:[^"\\]|\\.)*"')  # a JSON string, from its opening quote


def _strings(draw, lines):
    """(i, match) of a drawn JSON string of a drawn line, or None."""
    i = draw(st.integers(0, len(lines) - 1))
    found = list(STRING.finditer(lines[i]))
    return (i, draw(st.sampled_from(found))) if found else None


def nul_payload(draw, lines):
    """A string of some line replaced by the one-character NUL string."""
    found = _strings(draw, lines)
    if found:
        i, m = found
        lines[i] = lines[i][: m.start()] + '"\\u0000"' + lines[i][m.end() :]


def escaped_nul(draw, lines):
    """``\\"\\u0000\\"`` at the start of a string of some line, or
    ``\\"\\u0000`` at its end, where the string's closing quote makes the
    text ``"\\u0000"`` of the NUL string inside a longer string."""
    found = _strings(draw, lines)
    if found:
        i, m = found
        at, text = draw(st.sampled_from(((m.start() + 1, '\\"\\u0000\\"'), (m.end() - 1, '\\"\\u0000'))))
        lines[i] = lines[i][:at] + text + lines[i][at:]


def bom(draw, lines):
    """A byte-order mark at the start of some line."""
    i = draw(st.integers(0, len(lines) - 1))
    lines[i] = "\ufeff" + lines[i]


EDITS = {
    f.__name__: f
    for f in (
        blank_line, crlf, pad, split_record, split_at_whitespace, join_records, deep_nesting,
        raw_separator, nul_payload, escaped_nul, bom,
    )
}


# The checked-in traces fit in one block of the reader's size; cut down to
# a few characters, a block holds one line or a few, and edits fall on
# block ends.
BLOCK_SIZES = st.one_of(st.just(trace_module._BLOCK), st.integers(0, 8), st.integers(9, 400))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(BASES)),
    st.lists(st.sampled_from(sorted(EDITS)), max_size=4),
    st.booleans(),
    BLOCK_SIZES,
    st.data(),
)
def test_edited_traces_read_as_the_line_reader_reads_them(base, edits, final_newline, block, data):
    lines = BASES[base].split("\n")[:-1]
    for name in edits:
        EDITS[name](data.draw, lines)
    text = "\n".join(lines) + ("\n" if final_newline else "")
    assert_same_reading(text, block)


@pytest.mark.parametrize("name", sorted(EDITS))
@settings(max_examples=25, deadline=None)
@given(base=st.sampled_from(sorted(BASES)), block=BLOCK_SIZES, data=st.data())
def test_each_edit(name, base, block, data):
    lines = BASES[base].split("\n")[:-1]
    EDITS[name](data.draw, lines)
    assert_same_reading("\n".join(lines) + "\n", block)


@pytest.mark.parametrize("block", [0, 1, 50, 1000, trace_module._BLOCK])
@pytest.mark.parametrize("base", sorted(BASES))
def test_only_irregular_blocks_are_read_line_by_line(base, block, monkeypatch):
    read_by_line = []
    decode_lines = trace_module._decode_lines

    def spy(*args):
        read_by_line.append(args)
        return decode_lines(*args)

    monkeypatch.setattr(trace_module, "_BLOCK", block)
    monkeypatch.setattr(trace_module, "_decode_lines", spy)
    text = BASES[base]
    lines = text.split("\n")
    padded = "\n".join(f" {line}\t" if line else line for line in lines)
    for regular in (text, text[:-1], text.replace("\n", "\r\n"), padded):
        assert parse_trace(regular) == parse_trace(text)
    assert read_by_line == []
    # a blank line, an invoked value holding the text of the NUL string,
    # and the NUL string as an invoked value each send one block down the
    # line-by-line path, on each of the two reader calls
    value = re.compile(r'"(payload|value)":"[^"]*"')
    at = next(i for i, line in enumerate(lines) if '"invoke"' in line and value.search(line))
    for edited in (
        [*lines[:at], "", *lines[at:]],
        *(
            [*lines[:at], value.sub(new, lines[at], 1), *lines[at + 1 :]]
            for new in (r'"\1":"x\\"\\u0000"', r'"\1":"\\u0000"')
        ),
    ):
        read_by_line.clear()
        text = "\n".join(edited)
        assert parse_trace(text).rows
        assert_same_reading(text, block)
        assert len(read_by_line) == 2


@pytest.mark.parametrize("block", [0, 200, trace_module._BLOCK])
@pytest.mark.parametrize("base", sorted(BASES))
def test_a_split_record_beside_three_records_on_one_line(base, block):
    # A record cut at its first comma, the comma dropped, decodes in the
    # block's array with a separator inside it; three records on the next
    # line make up the element count.  Only the separators' places in the
    # array tell that block from one value per line.
    lines = BASES[base].split("\n")
    head, tail = lines[2].split(",", 1)
    edited = [*lines[:2], head, tail, ",".join(lines[3:6]), *lines[6:]]
    text = "\n".join(edited)
    message = "line 3: invalid JSON (Expecting ',' delimiter)"
    assert _read(reference_parse, text) == ("error", message)
    assert_same_reading(text, block)


@pytest.mark.parametrize("fmt", ["3.0", "3e0", "true"])
def test_a_trace_format_that_is_not_an_integer_is_refused(fmt):
    text = BASES["example"].replace('"trace_format":3,', f'"trace_format":{fmt},', 1)
    assert text != BASES["example"]
    message = (
        f"line 1: trace format {json.loads(fmt)!r} is not supported; "
        "this reader reads format 3 only (re-run the scenario)"
    )
    with pytest.raises(TraceFormatError) as exc:
        parse_trace(text)
    assert str(exc.value) == message
    assert _read(reference_parse, text) == ("error", message)


@pytest.mark.parametrize("base", sorted(BASES))
def test_crlf_throughout_reads_as_lf(base):
    text = BASES[base]
    crlf_text = text.replace("\n", "\r\n")
    assert _parsed(crlf_text) == _parsed(text) == reference_parse(crlf_text)


def test_a_record_split_at_json_whitespace_is_rejected_on_its_line():
    # JSON whitespace holds "\n", so a scanner walking the whole text reads
    # this record across the line end; it must be refused as the line
    # reader refuses its first half
    lines = BASES["example"].split("\n")
    assert '"deliver-set",{"round":0' in lines[20]
    lines[20] = lines[20].replace('"round":', '\n"round":', 1)
    text = "\n".join(lines)
    message = "line 21: invalid JSON (Expecting property name enclosed in double quotes)"
    with pytest.raises(TraceFormatError) as exc:
        parse_trace(text)
    assert str(exc.value) == message
    assert _read(reference_parse, text) == ("error", message)


@pytest.mark.parametrize("base", sorted(BASES))
def test_checked_in_traces_read_alike(base):
    assert_same_reading(BASES[base])
    assert serialize_trace(parse_trace(BASES[base])) == BASES[base]


# --- one representation ----------------------------------------------------------


def test_the_run_codec_and_checker_build_no_event(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("an Event was built")

    config = load_scenario(EXAMPLE)
    monkeypatch.setattr(Event, "__init__", refuse)
    trace = run_scenario(config)
    text = serialize_trace(trace)
    parsed = parse_trace(text)
    check_all(parsed)
    serialize_trace(parsed)
    with pytest.raises(AssertionError, match="an Event was built"):
        parsed.events


def test_events_is_a_fresh_view_of_the_rows():
    trace = parse_trace(BASES["example"])
    events = trace.events
    assert events is not trace.events and events == trace.events
    assert len(events) == len(trace.rows)
    for ev, row in zip(events, trace.rows):
        if len(row) == 6:
            assert (ev.kind, ev.payload) == (
                "object-access", dict(zip(("object", "op", "args", "result"), row[2:]))
            )
        else:
            assert (ev.kind, ev.payload) == (row[2], row[3])
        assert (ev.turn, ev.pid) == (row[0], row[1])
    events.clear()
    assert trace.events


# --- what the rows share --------------------------------------------------------


def shared_fields(row):
    """The values of ``row`` whose sharing the rows fix, in order: its turn,
    object name or kind and op, each message id in a field the reader
    checks (an invoke's or a deliver-msg's ``msg``, a deliver-set's
    members), and an access's args and result with their cells and a
    SNAP2 view's members.  Left out are a return's ``msg``, which the
    reader does not check, and ``value`` strings, which it checks as
    strings but does not share."""
    yield row[0]
    yield row[2]
    if len(row) == 4:
        kind, payload = row[2:]
        if kind in ("invoke", "deliver-msg"):
            yield payload["msg"]
        elif kind == "deliver-set":
            yield from payload["set"]
        return
    yield row[3]
    for value in row[4:]:  # args, result
        yield value
        if type(value) is list:  # write args, propose args, snapshot cells
            for cell in value:
                yield cell
                if type(cell) is list:  # a SNAP2 view
                    yield from cell


def assert_rows_share_alike(run_rows, parsed_rows) -> None:
    """Each row is a list of its own (``TraceIndex.step`` finds a row by
    identity), and two values of the run's rows are one object exactly when
    the matching values of the parsed rows are: ``shared_fields`` walks both
    in step."""
    assert parsed_rows == run_rows
    for rows in (run_rows, parsed_rows):
        assert len(set(map(id, rows))) == len(rows)
    to_parsed: dict = {}  # id of a run value -> the parsed value at its place
    to_run: dict = {}  # id of a parsed value -> the run value at its place
    for run_row, parsed_row in zip(run_rows, parsed_rows):
        for ran, parsed in zip(shared_fields(run_row), shared_fields(parsed_row)):
            assert to_parsed.setdefault(id(ran), parsed) is parsed, (run_row, ran)
            assert to_run.setdefault(id(parsed), ran) is ran, (parsed_row, parsed)


def assert_parsed_rows_share_as_the_run_does(trace) -> None:
    parsed = parse_trace(serialize_trace(trace))
    assert any(row[2].startswith("SNAP") for row in parsed.rows if len(row) == 6)
    assert_rows_share_alike(trace.rows, parsed.rows)
    # a row the simulator records takes no more memory than its own copy
    assert all(sys.getsizeof(row) == sys.getsizeof(list(row)) for row in trace.rows)


@pytest.mark.parametrize("path", sorted(map(str, Path("scenarios").glob("*/*.scenario.json"))))
def test_checked_in_stack_runs_read_back_sharing_the_written_cells(path):
    assert_parsed_rows_share_as_the_run_does(run_scenario(load_scenario(Path(path))))


def test_template_runs_read_back_sharing_the_written_cells():
    template = json.loads(TEMPLATE.read_text(encoding="utf-8"))
    turns = 0
    for seed_index in range(50):
        trace = run_scenario(instantiate_template(template, seed_index))
        assert_parsed_rows_share_as_the_run_does(trace)
        turns = max(turns, trace.turns)
    assert turns > 256  # so turns past the small ints CPython caches are shared too


@settings(max_examples=20, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(0, 2**32),
)
def test_sampled_runs_read_back_sharing_the_written_cells(nk, seed):
    assert_parsed_rows_share_as_the_run_does(run_scenario(sampled_stack_config(*nk, seed)))


def test_parsed_rows_take_little_more_memory_than_the_runs():
    # The parsed rows share what the run's rows share (above): each written
    # snapshot cell once, one list per snapshot object between its writes,
    # one string per message id and one object per object name, op, kind
    # and turn.  Each parsed row is still the list its line decodes to,
    # which the JSON decoder over-allocates where the simulator's rows are
    # at their exact size, so the run's rows take the least: 0.90 to 0.92
    # times the parsed rows on Python 3.10 to 3.13.  The parsed rows take
    # 0.44 to 0.47 times the same lines decoded one by one, sharing nothing.
    n = 10
    workload = {
        pid: tuple(WorkItem(op="broadcast", payload=f"m{pid}.{i}") for i in range(10))
        for pid in range(1, n + 1)
    }
    config = stack_config(n, 3, 1, workload, step_budget=1_000_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run_scenario(config)
        run_bytes = tracemalloc.get_traced_memory()[0] - before
        text = serialize_trace(trace)
        del trace
        before = tracemalloc.get_traced_memory()[0]
        parsed = parse_trace(text)
        parsed_bytes = tracemalloc.get_traced_memory()[0] - before
        lines = text.splitlines()[1:-1]  # the event lines
        before = tracemalloc.get_traced_memory()[0]
        fresh = [json.loads(line) for line in lines]
        fresh_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert parsed.quiescent and fresh == parsed.rows
    assert run_bytes <= parsed_bytes, run_bytes / parsed_bytes
    assert parsed_bytes <= 0.5 * fresh_bytes, parsed_bytes / fresh_bytes


def test_parsed_runs_share_equal_snapshots():
    # the sharing the contract above allows does happen: MEM, SNAP1 and
    # SNAP2 snapshots each share their object's cells with an earlier one
    template = json.loads(TEMPLATE.read_text(encoding="utf-8"))
    rows = parse_trace(serialize_trace(run_scenario(instantiate_template(template, 0)))).rows
    seen: set = set()
    shared: set = set()
    for row in rows:
        if len(row) == 6 and row[3] == "snapshot":
            if id(row[5]) in seen:
                shared.add(row[2].split("[")[0])
            seen.add(id(row[5]))
    assert shared == {"MEM", "SNAP1", "SNAP2"}


# --- what the reader shares, case by case -------------------------------------
# Each trace below runs under the example's config (n = 3).  It reads as the
# line reader reads it, writes back to its own text, and its verdicts are
# those of its lines decoded one by one into rows that share nothing.

CONFIG_LINE = BASES["example"].split("\n", 1)[0]


def read_events(*events: str) -> list:
    """The parsed rows of a trace of ``events``, checked as said above."""
    outcome = {"record": "outcome", "outcome": "quiescent", "turns": json.loads(events[-1])[0]}
    text = "\n".join([CONFIG_LINE, *events, json.dumps(outcome, separators=(",", ":"))]) + "\n"
    assert_same_reading(text)
    trace = parse_trace(text)
    assert serialize_trace(trace) == text
    fresh = Trace(trace.config, [json.loads(event) for event in events], trace.outcome, trace.turns)
    assert serialize_verdicts(check_all(trace)) == serialize_verdicts(check_all(fresh))
    return trace.rows


@pytest.mark.parametrize("msg", ["[1]", "{}", '"1:0"'])
def test_a_return_msg_is_read_as_it_is(msg):
    rows = read_events(
        f'[0,1,"return",{{"op":"kbo_broadcast","msg":{msg}}}]',
        '[1,1,"deliver-msg",{"msg":"1:0","position":0}]',
    )
    assert rows[0][3]["msg"] == json.loads(msg)
    # no field the reader does not check is shared, even one equal to an id
    assert rows[0][3]["msg"] is not rows[1][3]["msg"]


def test_an_unequal_or_forged_snapshot_is_checked_in_full_and_not_shared():
    rows = read_events(
        '[0,1,"MEM","write",[1],null]',
        '[1,2,"MEM","snapshot",null,[1,0,0]]',
        '[2,3,"MEM","snapshot",null,[1,0,0]]',
        '[3,1,"MEM","snapshot",null,[1.0,0,0]]',
        '[4,2,"MEM","snapshot",null,[true,0,0]]',
        '[5,3,"MEM","snapshot",null,[1,0,0]]',
        '[6,1,"SNAP1[0]","write",["1:0"],null]',
        '[7,1,"SNAP1[0]","snapshot",null,["1:0",null,null]]',
        '[8,2,"SNAP1[0]","snapshot",null,["1:0",null,null]]',
        '[9,3,"SNAP1[0]","snapshot",null,["1:1",null,null]]',
        '[10,3,"SNAP1[0]","snapshot",null,["1:0",null,null]]',
    )
    # snapshots equal to the cells written so far hold them, also after
    # one that is not
    assert rows[1][5] is rows[2][5] is rows[5][5]
    assert rows[7][5] is rows[8][5] is rows[10][5] and rows[7][5][0] is rows[6][4][0]
    # equal counts of other types, and an unequal SNAP1 snapshot, hold their own
    assert [type(cell) for cell in rows[3][5]] == [float, int, int]
    assert rows[4][5][0] is True
    results = [row[5] for row in rows if row[3] == "snapshot"]
    assert len(set(map(id, results))) == 5
    # a snapshot that is no JSON list of n counts or cells is still refused
    for forged, message in [
        ('[11,1,"MEM","snapshot",[],[1,0,0]]', "a MEM snapshot with malformed args or result"),
        ('[11,1,"MEM","snapshot",null,[1,0]]', "a MEM snapshot holds 2 cells, not n = 3"),
        ('[11,1,"SNAP1[0]","snapshot",null,["1:0",5,null]]',
         "a SNAP1[0] snapshot with malformed args or result"),
        # equal to MEM's cells, but of another object
        ('[11,1,"SNAP1[0]","snapshot",null,[1,0,0]]',
         "a SNAP1[0] snapshot with malformed args or result"),
    ]:
        text = "\n".join([CONFIG_LINE, '[0,1,"MEM","write",[1],null]',
                          '[1,2,"MEM","snapshot",null,[1,0,0]]',
                          '[6,1,"SNAP1[0]","write",["1:0"],null]', forged])
        with pytest.raises(TraceFormatError) as exc:
            parse_trace(text)
        assert str(exc.value) == f"line 5: {message}"
        assert _read(reference_parse, text) == ("error", str(exc.value))


def test_a_write_drops_the_shared_snapshot():
    rows = read_events(
        '[0,1,"MEM","write",[1],null]',
        '[1,2,"MEM","snapshot",null,[1,0,0]]',
        '[2,1,"MEM","write",[1],null]',
        '[3,2,"MEM","snapshot",null,[1,0,0]]',
        '[4,1,"SNAP1[0]","write",["1:0"],null]',
        '[5,1,"SNAP1[0]","snapshot",null,["1:0",null,null]]',
        '[6,1,"SNAP1[0]","write",["1:0"],null]',
        '[7,2,"SNAP1[0]","snapshot",null,["1:0",null,null]]',
    )
    assert rows[3][5] == rows[1][5] and rows[3][5] is not rows[1][5]
    assert rows[7][5] == rows[5][5] and rows[7][5] is not rows[5][5]


def test_a_mem_count_equal_to_an_earlier_one_across_writes_breaks_no_row():
    events = [
        '[0,1,"MEM","write",[1],null]',
        '[1,2,"MEM","snapshot",null,[1,0,0]]',
        '[2,3,"MEM","snapshot",null,[1,0,0]]',
        '[3,2,"MEM","write",[1],null]',
        '[4,1,"MEM","snapshot",null,[1,1,0]]',
        '[5,3,"MEM","write",[1],null]',
        '[6,3,"MEM","snapshot",null,[1,1,1]]',
        '[7,2,"MEM","snapshot",null,[1,0,0]]',
        '[8,1,"MEM","snapshot",null,[1,0,0]]',
    ]
    rows = read_events(*events)
    assert rows == [json.loads(event) for event in events]
    assert rows[2][5] is rows[1][5]
    # unequal to the counts written so far: each holds a list of its own
    assert rows[8][5] is not rows[7][5]
    assert rows[7][5] is not rows[1][5] and rows[8][5] is not rows[1][5]


@pytest.mark.parametrize("count", ["1.0", "true"])
def test_a_snapshot_equal_to_a_count_of_another_type_is_checked_in_full(count):
    # the written cell equals 1 but is no int, so the snapshot of ints keeps
    # its own list and reads back byte for byte
    rows = read_events(
        f'[0,1,"MEM","write",[{count}],null]',
        '[1,2,"MEM","snapshot",null,[1,0,0]]',
        '[2,3,"MEM","snapshot",null,[1,0,0]]',
    )
    assert rows[0][4] == [json.loads(count)] and type(rows[0][4][0]) is not int
    for row in rows[1:]:
        assert [type(cell) for cell in row[5]] == [int, int, int]
    assert rows[2][5] is not rows[1][5]

