"""The one-pass snapshot replay against a cell-by-cell reference walk.

``checker.replay`` decides, in one pass over a snapshot object's
accesses, where replay first breaks and whether the snapshots nest; the
``snapshot`` suite takes both of its verdicts and witnesses from that
pass and compares views only for a one-shot object not shown to nest.
``reference_snapshot`` below is an independent definition of the same
two verdicts: it walks each object cell by cell in dicts of canonical
cells and compares every pair of one-shot views.  Their verdict bytes
must agree.  The ``k2s`` suite skips the per-output view families of a
SNAP2 object that ``checker._growing_chain`` accepts, so its verdicts
must also be those of the per-output path with that skip turned off.
Both are checked on the verdict-pin mutants and their bases, on the
checked-in traces, and on forged traces of MEM and one K2S round (KSET,
SNAP1, SNAP2) whose forgeries are the cases the one pass must catch: a
cell written twice (also with a view that keeps the chain), a pid
outside 1..n, a missing or trailing extra cell, a boolean or float among
MEM counts, a MEM write that is not a count, an empty SNAP2 snapshot,
views that break the chain or leave the inputs.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from bocast import checker
from bocast.checker import TraceIndex, Verdict, check_all, serialize_verdicts
from bocast.cli import instantiate_template
from bocast.sim import run_scenario
from bocast.trace import Event, Trace, parse_trace

from _drivers import sampled_stack_config, stack_config, trace_of_events
from test_pins import base_traces, mutants


def _canon(cell):
    """A hashable copy of a cell: lists become tuples, at any depth."""
    return tuple(map(_canon, cell)) if isinstance(cell, list) else cell


def _is_count(value, expect: int) -> bool:
    return type(value) is int and value == expect  # not bool, not float


def _verdict(name: str, witness) -> Verdict:
    return Verdict(name, "pass") if witness is None else Verdict(name, "fail", witness)


def accesses_by_object(trace) -> dict[str, list]:
    """Object name -> the trace's rows of its accesses, in step order,
    grouped from ``trace.rows`` without the checker's index."""
    objects: dict[str, list] = {}
    for row in trace.rows:
        if len(row) == 6:
            objects.setdefault(row[2], []).append(row)
    return objects


def reference_snapshot(trace) -> list[Verdict]:
    """The two ``snapshot`` verdicts by definition.

    Cell i of an object is p_i's last write; a MEM cell reads 0 until
    written, and each MEM write must raise the writer's count by one.
    Every snapshot must show cells 1..n as written, no more and no fewer
    (a MEM cell as an int).  Replay of an object fails at its first access
    that breaks this, at the writer's cell for a write or a pid outside
    1..n, and at the first wrong, missing or extra cell for a snapshot;
    the walk stops replaying that object there.  The first failing object
    in name order gives the witness.  Containment compares every pair of
    snapshot views of each one-shot object, all of its snapshots counted.
    """
    n = trace.config.n
    objects: dict[str, list] = {}  # object name -> (step, pid, op, args, result) of each access
    for step, row in enumerate(trace.rows):
        if len(row) == 6:
            objects.setdefault(row[2], []).append((step, row[1], *row[3:]))
    containment = replay = None
    for object_id in sorted(objects):
        if not object_id.startswith(("MEM", "SNAP1[", "SNAP2[")):
            continue
        mem = object_id == "MEM"
        cells: dict[int, object] = {}
        views = []  # (step, pid, {(cell number, value)}) of each one-shot snapshot
        bad = None  # (step, cell) where replay breaks
        for step, pid, op, args, res in objects[object_id]:  # in step order
            if op == "snapshot" and not mem:
                view = frozenset((i, _canon(c)) for i, c in enumerate(res, 1) if c is not None)
                views.append((step, pid, view))
            if bad is not None:
                continue
            if not 1 <= pid <= n:
                bad = step, pid
            elif op == "write":
                value = _canon(args[0])
                if mem and not _is_count(value, cells.get(pid, 0) + 1):
                    bad = step, pid
                cells[pid] = value
            elif op == "snapshot":

                def wrong(i: int) -> bool:
                    if i > len(res) or i > n:  # missing or extra
                        return True
                    if mem:
                        return not _is_count(res[i - 1], cells.get(i, 0))
                    return _canon(res[i - 1]) != cells.get(i)

                cell = next((i for i in range(1, max(len(res), n) + 1) if wrong(i)), None)
                if cell is not None:
                    bad = step, cell
        if bad is not None and replay is None:
            replay = {"object": object_id, "step": bad[0], "cell": bad[1]}
        if containment is None:
            containment = next(
                (
                    {"object": object_id, "pids": [pid_a, pid_b], "steps": [step_a, step_b]}
                    for (step_a, pid_a, a), (step_b, pid_b, b) in combinations(views, 2)
                    if not (a <= b or b <= a)
                ),
                None,
            )
    return [_verdict("snapshot.containment", containment), _verdict("snapshot.replay", replay)]


def assert_matches_the_references(trace, name="") -> None:
    snapshot = serialize_verdicts(check_all(trace, ("snapshot",)))
    assert snapshot == serialize_verdicts(reference_snapshot(trace)), name
    k2s = serialize_verdicts(check_all(trace, ("k2s",)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(checker, "_growing_chain", lambda *args: None)
        assert k2s == serialize_verdicts(check_all(trace, ("k2s",))), name


def test_verdict_pin_mutants_and_their_bases():
    bases = base_traces()
    forged = list(mutants(bases))
    assert len(forged) == 106
    for name, trace in [*bases.items(), *forged]:
        assert_matches_the_references(trace, name)


@pytest.mark.parametrize("path", sorted(Path("scenarios").glob("*/*.trace")), ids=str)
def test_checked_in_traces(path):
    assert_matches_the_references(parse_trace(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("seed", range(3))
def test_honest_runs_take_the_fast_paths(seed):
    trace = run_scenario(sampled_stack_config(4, 2, seed))
    n, k = trace.config.n, trace.config.k
    objects = accesses_by_object(trace)
    rounds = sorted({int(name[name.index("[") + 1 : -1]) for name in objects if name != "MEM"})
    assert rounds
    assert checker.replay(n, objects["MEM"], mem=True) == (None, True)
    for r in rounds:
        inputs = {args[0] for _, _, _, _, args, _ in objects[f"KSET[{r}]"]}
        bound = min(k, len(inputs))
        assert checker.replay(n, objects[f"SNAP1[{r}]"], mem=False) == (None, True)
        snap2 = objects[f"SNAP2[{r}]"]
        assert checker.replay(n, snap2, mem=False) == (None, True)
        assert checker._growing_chain(snap2, inputs, bound)


def _golden_trace():
    return parse_trace(Path("scenarios/golden/width3_propose.trace").read_text(encoding="utf-8"))


def _fuzz_trace_with_crashes():
    template = json.loads(Path("scenarios/templates/n5_k2_propose.template.json").read_text())
    trace = run_scenario(instantiate_template(template, 0))
    assert TraceIndex(trace).faulty
    return trace


@pytest.mark.parametrize("make", [_golden_trace, _fuzz_trace_with_crashes], ids=["golden", "fuzz"])
def test_check_all_replays_each_snapshot_object_once(monkeypatch, make):
    # the snapshot and k2s suites share one replay of each object
    trace = make()
    replayed = Counter()
    real = checker.replay

    def counting(n, accesses, mem):
        replayed[accesses[0][2] if accesses else None] += 1
        return real(n, accesses, mem)

    monkeypatch.setattr(checker, "replay", counting)
    check_all(trace)
    objects = accesses_by_object(trace)
    snapshot_objects = [name for name in objects if name.startswith(("MEM", "SNAP1[", "SNAP2["))]
    assert any(name.startswith("SNAP2[") for name in snapshot_objects)
    assert replayed == Counter(snapshot_objects)


@pytest.mark.parametrize("value", ["x", [1], 1.0, True])
def test_a_mem_write_that_is_not_a_count_fails_replay_at_its_step(value):
    # p1 writes a non-count, then writes again: the pass stops at the first
    # write, so the second is never compared with it
    acc = [
        [1, "MEM", "write", [value], None],
        [1, "MEM", "snapshot", None, [1, 0]],
        [1, "MEM", "write", [2], None],
    ]
    verdicts = {v.property: v for v in check_all(as_trace(2, 1, acc), ("snapshot",))}
    assert verdicts["snapshot.replay"].witness == {"object": "MEM", "step": 0, "cell": 1}
    assert verdicts["snapshot.containment"].status == "pass"


# --- forged traces: MEM and one K2S round -----------------------------------------

# An access is [pid, object, op, args, result]; the n processes each run
# these phases in turn, in an interleaving hypothesis draws.
PHASES = (
    "mem-write", "mem-snapshot", "mem-write", "mem-snapshot",
    "propose", "snap1-write", "snap1-snapshot", "snap2-write", "snap2-snapshot",
)
OUTSIDER = "9:9"  # a message id no process proposes


@st.composite
def k2s_round(draw):
    """n, k and the accesses of a run whose snapshots all show the cells
    written before them; a SNAP2 write holds the view its writer's SNAP1
    snapshot gave or, drawn, a wild one (with an outsider, another
    proposer's value alone, or empty)."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    order = draw(st.permutations([pid for pid in range(1, n + 1) for _ in PHASES]))
    order = order[: draw(st.one_of(st.just(len(order)), st.integers(0, len(order))))]
    mem, snap1, snap2 = [0] * n, [None] * n, [None] * n
    proposed: list[str] = []
    phase = dict.fromkeys(range(1, n + 1), 0)
    decided, seen = {}, {}
    acc = []
    for pid in order:
        step = PHASES[phase[pid]]
        phase[pid] += 1
        if step == "mem-write":
            mem[pid - 1] += 1
            acc.append([pid, "MEM", "write", [mem[pid - 1]], None])
        elif step == "mem-snapshot":
            acc.append([pid, "MEM", "snapshot", None, list(mem)])
        elif step == "propose":
            value = f"{pid}:0"
            proposed.append(value)
            decided[pid] = draw(st.sampled_from(proposed))
            acc.append([pid, "KSET[0]", "propose", [value], decided[pid]])
        elif step == "snap1-write":
            snap1[pid - 1] = decided[pid]
            acc.append([pid, "SNAP1[0]", "write", [decided[pid]], None])
        elif step == "snap1-snapshot":
            seen[pid] = sorted({v for v in snap1 if v is not None})
            acc.append([pid, "SNAP1[0]", "snapshot", None, list(snap1)])
        elif step == "snap2-write":
            view = draw(st.sampled_from((
                seen[pid],
                sorted({*seen[pid], OUTSIDER}),
                [f"{draw(st.integers(1, n))}:0"],
                [],
            )))
            snap2[pid - 1] = view
            acc.append([pid, "SNAP2[0]", "write", [view], None])
        else:
            acc.append([pid, "SNAP2[0]", "snapshot", None, list(snap2)])
    return n, k, acc


def _where(acc, obj_prefix: str, op: str) -> list[int]:
    return [i for i, a in enumerate(acc) if a[1].startswith(obj_prefix) and a[2] == op]


def _show(acc, start: int, obj: str, pid: int, value) -> None:
    """Every snapshot of ``obj`` from ``start`` on shows ``value`` in pid's cell."""
    for a in acc[start:]:
        if a[1] == obj and a[2] == "snapshot":
            a[4] = [value if i == pid else cell for i, cell in enumerate(a[4], 1)]


def rewrite_same(draw, n, acc) -> bool:
    found = _where(acc, "SNAP", "write")
    if found:
        i = draw(st.sampled_from(found))
        acc.insert(i + 1, list(acc[i]))
    return bool(found)


def rewrite_new(draw, n, acc) -> bool:
    """A one-shot cell written again, with a value every later snapshot shows."""
    found = _where(acc, "SNAP", "write")
    if found:
        i = draw(st.sampled_from(found))
        pid, obj = acc[i][0], acc[i][1]
        value = OUTSIDER if obj.startswith("SNAP1") else [OUTSIDER]
        j = draw(st.integers(i + 1, len(acc)))
        acc.insert(j, [pid, obj, "write", [value], None])
        _show(acc, j + 1, obj, pid, value)
    return bool(found)


def rewrite_grown(draw, n, acc) -> bool:
    """A SNAP2 cell written again with its view plus one input, which
    every later snapshot shows: the written views may still form a chain,
    but snapshots before and after the rewrite need not nest."""
    inputs = sorted({a[3][0] for a in acc if a[1] == "KSET[0]"})
    found = [i for i in _where(acc, "SNAP2", "write") if 1 <= acc[i][0] <= n]
    if found and inputs:
        i = draw(st.sampled_from(found))
        pid = acc[i][0]
        view = acc[i][3][0]
        added = draw(st.sampled_from([v for v in inputs if v not in view] or inputs))
        view = sorted({*view, added})
        j = draw(st.integers(i + 1, len(acc)))
        acc.insert(j, [pid, "SNAP2[0]", "write", [view], None])
        _show(acc, j + 1, "SNAP2[0]", pid, view)
    return bool(found and inputs)


def pid_out_of_range(draw, n, acc) -> bool:
    if acc:
        acc[draw(st.integers(0, len(acc) - 1))][0] = draw(st.sampled_from((0, n + 1)))
    return bool(acc)


def trailing_null(draw, n, acc) -> bool:
    found = _where(acc, "", "snapshot")
    if found:
        a = acc[draw(st.sampled_from(found))]
        a[4] = [*a[4], None]
    return bool(found)


def missing_cell(draw, n, acc) -> bool:
    found = _where(acc, "", "snapshot")
    if found:
        a = acc[draw(st.sampled_from(found))]
        a[4] = a[4][:-1]
    return bool(found)


def mem_write_not_a_count(draw, n, acc) -> bool:
    found = _where(acc, "MEM", "write")
    if found:
        acc[draw(st.sampled_from(found))][3] = [draw(st.sampled_from(("x", [1], 1.0, True)))]
    return bool(found)


def non_int_count(draw, n, acc) -> bool:
    """A MEM snapshot cell that equals the count but is a bool or a float."""
    found = [
        (i, j)
        for i in _where(acc, "MEM", "snapshot")
        for j, c in enumerate(acc[i][4])
        if type(c) is int and c < 2
    ]
    if found:
        i, j = draw(st.sampled_from(found))
        cells = list(acc[i][4])
        cells[j] = draw(st.sampled_from((bool, float)))(cells[j])
        acc[i][4] = cells
    return bool(found)


def empty_snap2(draw, n, acc) -> bool:
    """A SNAP2 snapshot taken before any view was written."""
    writes = _where(acc, "SNAP2", "write")
    at = draw(st.integers(0, writes[0] if writes else len(acc)))
    acc.insert(at, [draw(st.integers(1, n)), "SNAP2[0]", "snapshot", None, [None] * n])
    return True


def _chain_break(draw, acc, writes):
    """(i, view): one of the SNAP2 writes at ``writes`` and a view drawn
    from the inputs that is incomparable with another written view; None
    when there is none."""
    inputs = {a[3][0] for a in acc if a[1] == "KSET[0]"}
    pairs = [
        (i, o)
        for i in writes
        for o in _where(acc, "SNAP2", "write")
        if o != i and acc[o][3][0] and inputs - set(acc[o][3][0])
    ]
    if not pairs:
        return None
    i, o = draw(st.sampled_from(pairs))
    other = acc[o][3][0]
    return i, sorted({*other[1:], draw(st.sampled_from(sorted(inputs - set(other))))})


def seen_chain_break(draw, n, acc) -> bool:
    """A SNAP2 write that some snapshot follows, and every later snapshot,
    hold a view that breaks the chain."""
    snapshots = _where(acc, "SNAP2", "snapshot")
    writes = [
        i for i in _where(acc, "SNAP2", "write")
        if 1 <= acc[i][0] <= n and snapshots and i < snapshots[-1]
    ]
    found = _chain_break(draw, acc, writes)
    if found:
        i, view = found
        acc[i][3] = [view]
        _show(acc, i + 1, "SNAP2[0]", acc[i][0], view)
    return bool(found)


def unseen_chain_break(draw, n, acc) -> bool:
    """A process's SNAP2 write moved after every SNAP2 access, its own
    snapshot dropped, with a view that breaks the chain."""
    writes = [i for i in _where(acc, "SNAP2", "write") if 1 <= acc[i][0] <= n]
    found = _chain_break(draw, acc, writes)
    if found:
        i, view = found
        pid = acc[i][0]
        _show(acc, i + 1, "SNAP2[0]", pid, None)
        acc[:] = [a for a in acc if not (a[0] == pid and a[1] == "SNAP2[0]")]
        acc.append([pid, "SNAP2[0]", "write", [view], None])
    return bool(found)


def view_outside_inputs(draw, n, acc) -> bool:
    """A SNAP2 view, and every later snapshot of it, gains the outsider."""
    found = [i for i in _where(acc, "SNAP2", "write") if 1 <= acc[i][0] <= n]
    if found:
        i = draw(st.sampled_from(found))
        view = sorted({*acc[i][3][0], OUTSIDER})
        acc[i][3] = [view]
        _show(acc, i + 1, "SNAP2[0]", acc[i][0], view)
    return bool(found)


FORGERIES = {
    f.__name__: f
    for f in (
        rewrite_same, rewrite_new, rewrite_grown, pid_out_of_range, trailing_null, missing_cell,
        mem_write_not_a_count, non_int_count, empty_snap2, unseen_chain_break,
        seen_chain_break, view_outside_inputs,
    )
}


def as_trace(n: int, k: int, acc) -> Trace:
    events = [
        Event(pid, "object-access", {"object": obj, "op": op, "args": args, "result": res}, turn)
        for turn, (pid, obj, op, args, res) in enumerate(acc)
    ]
    return trace_of_events(stack_config(n, k, 0, {}), events, turns=len(events))


@settings(max_examples=200, deadline=None)
@given(k2s_round(), st.lists(st.sampled_from(sorted(FORGERIES)), max_size=3), st.data())
def test_forged_rounds(run, forgeries, data):
    n, k, acc = run
    for name in forgeries:
        FORGERIES[name](data.draw, n, acc)
    assert_matches_the_references(as_trace(n, k, acc))


@pytest.mark.parametrize("name", sorted(FORGERIES))
@settings(max_examples=40, deadline=None)
@given(run=k2s_round(), data=st.data())
def test_each_forgery(name, run, data):
    n, k, acc = run
    assume(FORGERIES[name](data.draw, n, acc))
    assert_matches_the_references(as_trace(n, k, acc))


def test_a_snap2_cell_rewritten_within_the_chain_is_not_taken_as_nested():
    # the written views {1:0} and {1:0, 2:0} form a chain, but p1's output
    # holds only the first and p2's only the second
    acc = [
        [1, "KSET[0]", "propose", ["1:0"], "1:0"],
        [2, "KSET[0]", "propose", ["2:0"], "2:0"],
        [1, "SNAP2[0]", "write", [["1:0"]], None],
        [1, "SNAP2[0]", "snapshot", None, [["1:0"], None]],
        [1, "SNAP2[0]", "write", [["1:0", "2:0"]], None],
        [2, "SNAP2[0]", "snapshot", None, [["1:0", "2:0"], None]],
    ]
    trace = as_trace(2, 2, acc)
    verdicts = {v.property: v.witness for v in check_all(trace, ("k2s", "snapshot"))}
    assert verdicts["k2s.inter-inclusion"] == {"instance": 0, "pids": [1, 2]}
    containment = {"object": "SNAP2[0]", "pids": [1, 2], "steps": [3, 5]}
    assert verdicts["snapshot.containment"] == containment
    assert verdicts["snapshot.replay"] is None
    assert_matches_the_references(trace)
