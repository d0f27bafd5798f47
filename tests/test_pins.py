"""Pins of the behaviour contract, one table for every trace: each
checked-in trace, and each run of fuzz template seeds 0-49, is produced
once and must give what ``pins.json`` records.

Each trace has three digests:

- ``behaviour``: sha256 over one ``[pid, kind, payload]`` JSON line
  (keys sorted) per invoke, return, deliver-set, deliver-msg, decide and
  crash event; the digest the benchmark gate uses.  These were taken
  before MEM events became counts (trace format 2), which changed no
  behaviour;
- ``verdicts``: sha256 of ``serialize_verdicts(check_all(trace))``;
- ``trace``: sha256 of the serialized trace, which holds
  ``serialize_trace`` to every byte of trace format 3.  Only a run of
  the stack has one; a forged trace's bytes are its checked-in file.

Format 2 byte pins, taken with that format's per-record writer, are no
longer kept: ``parse_trace`` recovers a format-3 trace's config, rows,
outcome and turns exactly, and format 2 text is a function of those, so
equal format-3 bytes imply equal format-2 text.

The forged traces live under ``scenarios/forged/``.  Three of them were
each first the run of a scenario (or trace) that prescribed their
deliveries and are still pinned under that path (``FORGED``), because
they are also mutation bases: the hash of a mutant's name, made from its
base's key, picks the mutation's target.

The mutations forge what the checker exists to catch: a dropped
delivery, a duplicated event line, a forged deliver-set member, a bumped
MEM count, a blanked snapshot cell and a non-quiescent outcome.  Each one
edits the JSON records of a serialized trace and parses the result, so
every mutant is a trace ``bocast check`` accepts; an event's step is its
position, so the steps stay numbered from 0 without gaps.  The mutants
were first made from trace format 2 records, which numbered their steps
explicitly; on format 3 records they give the same digests.

The verdict digests were computed before ``kbo`` and ``kscd`` shared one
law core and ``snapshot`` read each object once, so they hold the checker
to the verdicts and witnesses of the one before it.  The six whose
``kbo.bounded`` fails (the width-3 antichain trace and five of its
mutants) were taken again when that witness dropped its always empty
``excluded`` list; with the list put back, their verdict bytes are the
earlier ones.
"""

from __future__ import annotations

import copy
import hashlib
import json
from pathlib import Path

import pytest

from bocast.checker import check_all, serialize_verdicts
from bocast.cli import instantiate_template
from bocast.scenario import load_scenario
from bocast.sim import run_scenario
from bocast.trace import parse_trace, read_trace, serialize_trace

PINS = json.loads((Path(__file__).parent / "pins.json").read_text(encoding="utf-8"))
TEMPLATE = Path("scenarios/templates/n5_k2_propose.template.json")
EXAMPLE = "scenarios/examples/n3_k2_propose.scenario.json"
BEHAVIOUR_KINDS = {"invoke", "return", "deliver-set", "deliver-msg", "decide", "crash"}
# pin key -> the forged trace pinned under it, where the two differ
FORGED = {
    "scenarios/golden/width2_profile.trace": "scenarios/forged/width2_profile.trace",
    "scenarios/negative/ordering_breach.scenario.json": "scenarios/forged/ordering_breach.trace",
    "scenarios/negative/width3_antichain.scenario.json": "scenarios/forged/width3_antichain.trace",
}
MUTATED_TEMPLATE_SEEDS = range(10)

# Properties the mutations as a whole must make fail.
MUST_FAIL = (
    "kbo.integrity",
    "kbo.termination-1",
    "kbo.termination-2",
    "kscd.validity",
    "kscd.integrity",
    "kscd.ordering",
    "kscd.termination-1",
    "kscd.termination-2",
    "snapshot.replay",
    "snapshot.containment",
)


def behaviour_digest(trace) -> str:
    h = hashlib.sha256()
    for ev in trace.events:
        if ev.kind in BEHAVIOUR_KINDS:
            h.update(json.dumps([ev.pid, ev.kind, ev.payload], sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()


def verdict_digest(trace) -> str:
    return hashlib.sha256(serialize_verdicts(check_all(trace)).encode()).hexdigest()


def trace_digest(trace) -> str:
    return hashlib.sha256(serialize_trace(trace).encode("utf-8")).hexdigest()


def checked_in_trace(key: str):
    """The trace pinned under ``key``: a forged trace as it is checked in,
    or the run of a checked-in scenario."""
    path = FORGED.get(key, key)
    if path.endswith(".trace"):
        return read_trace(path)
    return run_scenario(load_scenario(Path(path)))


def template_trace(seed_index: int):
    template = json.loads(TEMPLATE.read_text(encoding="utf-8"))
    return run_scenario(instantiate_template(template, seed_index))


def _pick(name: str, candidates: list):
    """A member of ``candidates`` chosen by the hash of ``name``."""
    return candidates[int(hashlib.sha256(name.encode()).hexdigest(), 16) % len(candidates)]


# An event record is [turn, pid, kind, payload] or, for an object access,
# [turn, pid, object, op, args, result].
PID, KIND, PAYLOAD = 1, 2, 3
OBJECT, OP, ARGS, RESULT = 2, 3, 4, 5


def _is_access(rec) -> bool:
    return len(rec) == 6


def _where(records, pred) -> list[int]:
    return [i for i, rec in enumerate(records) if type(rec) is list and pred(rec)]


def _kind(*kinds):
    return lambda rec: not _is_access(rec) and rec[KIND] in kinds


def _mem_access(op):
    return lambda rec: _is_access(rec) and rec[OBJECT] == "MEM" and rec[OP] == op


# Each mutation edits ``records`` in place and returns False when the
# trace has nothing it could edit.


def drop_deliver_msg(records, name) -> bool:
    found = _where(records, _kind("deliver-msg"))
    if found:
        del records[_pick(name, found)]
    return bool(found)


def drop_deliver_set(records, name) -> bool:
    found = _where(records, _kind("deliver-set"))
    if found:
        del records[_pick(name, found)]
    return bool(found)


def duplicate_line(records, name) -> bool:
    delivery, mem_write = _kind("deliver-msg", "deliver-set"), _mem_access("write")
    found = _where(records, lambda rec: delivery(rec) or mem_write(rec))
    if found:
        i = _pick(name, found)
        records.insert(i + 1, copy.deepcopy(records[i]))
    return bool(found)


def forge_never_broadcast_member(records, name) -> bool:
    found = _where(records, _kind("deliver-set"))
    if found:
        rec = records[_pick(name, found)]
        rec[PAYLOAD]["set"].append(f"{rec[PID]}:999")
    return bool(found)


def forge_earlier_member(records, name) -> bool:
    """Add to a deliver-set a message its process set-delivered before."""
    delivered: dict[int, list[str]] = {}
    found = []
    for i in _where(records, _kind("deliver-set")):
        rec = records[i]
        earlier = delivered.setdefault(rec[PID], [])
        if earlier:
            found.append((i, list(earlier)))
        earlier.extend(rec[PAYLOAD]["set"])
    if found:
        i, earlier = _pick(name, found)
        records[i][PAYLOAD]["set"].append(_pick(name + ":member", earlier))
    return bool(found)


def bump_mem(records, name) -> bool:
    found = _where(records, lambda rec: _mem_access("write")(rec) or _mem_access("snapshot")(rec))
    if found:
        rec = records[_pick(name, found)]
        cells = rec[ARGS] if rec[OP] == "write" else rec[RESULT]
        cells[_pick(name + ":cell", list(range(len(cells))))] += 1
    return bool(found)


def blank_snap_cell(records, name) -> bool:
    def one_shot_snapshot(rec):
        return (
            _is_access(rec)
            and rec[OBJECT].startswith(("SNAP1[", "SNAP2["))
            and rec[OP] == "snapshot"
        )

    found = [
        (i, j)
        for i in _where(records, one_shot_snapshot)
        for j, cell in enumerate(records[i][RESULT])
        if cell is not None
    ]
    if found:
        i, j = _pick(name, found)
        records[i][RESULT][j] = None
    return bool(found)


def not_quiescent(records, name) -> bool:
    records[-1]["outcome"] = "budget-exhausted"
    return True


MUTATIONS = {
    "drop-deliver-msg": drop_deliver_msg,
    "drop-deliver-set": drop_deliver_set,
    "duplicate-line": duplicate_line,
    "forge-never-broadcast-member": forge_never_broadcast_member,
    "forge-earlier-member": forge_earlier_member,
    "bump-mem": bump_mem,
    "blank-snap-cell": blank_snap_cell,
    "not-quiescent": not_quiescent,
}


def _bases(checked_in: dict, templates: list) -> dict:
    bases = {key: checked_in[key] for key in (*FORGED, EXAMPLE)}
    for i in MUTATED_TEMPLATE_SEEDS:
        bases[f"template-seed-{i}"] = templates[i]
    return bases


def base_traces() -> dict:
    """The traces that are pinned as they are and then mutated."""
    checked_in = {key: checked_in_trace(key) for key in (*FORGED, EXAMPLE)}
    return _bases(checked_in, [template_trace(i) for i in MUTATED_TEMPLATE_SEEDS])


def mutants(bases: dict):
    """(name, mutated trace) for every base and every mutation that applies."""
    for base, trace in bases.items():
        lines = serialize_trace(trace).splitlines()
        for kind, mutate in MUTATIONS.items():
            name = f"{base}:{kind}"
            records = [json.loads(line) for line in lines]
            if not mutate(records, name):
                continue
            text = "".join(json.dumps(rec, separators=(",", ":")) + "\n" for rec in records)
            yield name, parse_trace(text)


@pytest.fixture(scope="module")
def checked_in():
    return {key: checked_in_trace(key) for key in PINS["traces"]}


@pytest.fixture(scope="module")
def templates():
    return [template_trace(i) for i in range(len(PINS["fuzz_template_seeds_0_49"]["behaviour"]))]


@pytest.mark.parametrize("key", sorted(PINS["traces"]))
def test_checked_in_trace(checked_in, key):
    pins = PINS["traces"][key]
    trace = checked_in[key]
    if FORGED.get(key, key).endswith(".trace"):
        assert pins.keys() == {"behaviour", "verdicts"}
    else:
        assert trace_digest(trace) == pins["trace"]
    assert behaviour_digest(trace) == pins["behaviour"]
    assert verdict_digest(trace) == pins["verdicts"]


def test_fuzz_template_seed_behaviour(templates):
    pins = PINS["fuzz_template_seeds_0_49"]
    assert [trace_digest(t) for t in templates] == pins["trace"]
    assert [behaviour_digest(t) for t in templates] == pins["behaviour"]


def test_fuzz_template_seed_verdicts(templates):
    pins = PINS["fuzz_template_seeds_0_49"]
    assert [verdict_digest(t) for t in templates] == pins["verdicts"]


def test_mutant_verdicts_and_the_laws_they_break(checked_in, templates):
    got = {}
    failed = set()
    for name, trace in mutants(_bases(checked_in, templates)):
        verdicts = check_all(trace)
        got[name] = hashlib.sha256(serialize_verdicts(verdicts).encode()).hexdigest()
        failed.update(v.property for v in verdicts if v.failed)
    assert got == PINS["mutations"]
    assert set(MUST_FAIL) <= failed, sorted(set(MUST_FAIL) - failed)
