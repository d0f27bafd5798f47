"""Verdict pins: the verdict bytes of the checked-in traces, of 50 fuzz
template seeds and of seeded mutations of some of those traces must stay
as ``verdict_digests.json`` records them.  Each digest is the sha256 of
``serialize_verdicts(check_all(trace))``.

The mutations forge what the checker exists to catch: a dropped
delivery, a duplicated event line, a forged deliver-set member, a bumped
MEM count, a blanked snapshot cell and a non-quiescent outcome.  Each one
edits the JSON records of a serialized trace and parses the result, so
every mutant is a trace ``bocast check`` accepts; an event's step is its
position, so the steps stay numbered from 0 without gaps.  The target of
a mutation is picked by a hash of its name.  The mutants were first made
from trace format 2 records, which numbered their steps explicitly; on
format 3 records they give the same digests.

The digests were computed before ``kbo`` and ``kscd`` shared one law core
and ``snapshot`` read each object once, so they hold that checker to the
verdicts and witnesses of the one before it.  The six whose ``kbo.bounded``
fails (the width-3 antichain trace and five of its mutants) were taken
again when that witness dropped its always empty ``excluded`` list; with
the list put back, their verdict bytes are the earlier ones.

Three of the bases are forged traces, checked in under
``scenarios/forged/``.  Each was first the run of a scenario that
prescribed its deliveries, and each is still pinned under that
scenario's (or trace's) path: the hash of that key picks the targets of
its mutations.
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

PINS = json.loads((Path(__file__).parent / "verdict_digests.json").read_text(encoding="utf-8"))
TEMPLATE = Path("scenarios/templates/n5_k2_propose.template.json")
EXAMPLE = "scenarios/examples/n3_k2_propose.scenario.json"
# pin key -> the forged trace pinned under it
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


def verdict_digest(trace) -> str:
    return hashlib.sha256(serialize_verdicts(check_all(trace)).encode()).hexdigest()


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


def _template_trace(seed_index: int):
    template = json.loads(TEMPLATE.read_text(encoding="utf-8"))
    return run_scenario(instantiate_template(template, seed_index))


def base_traces() -> dict:
    """The traces that are pinned as they are and then mutated."""
    bases = {key: read_trace(path) for key, path in FORGED.items()}
    bases[EXAMPLE] = run_scenario(load_scenario(Path(EXAMPLE)))
    for i in MUTATED_TEMPLATE_SEEDS:
        bases[f"template-seed-{i}"] = _template_trace(i)
    return bases


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
def bases():
    return base_traces()


def test_checked_in_traces(bases):
    got = {name: verdict_digest(bases[name]) for name in (*FORGED, EXAMPLE)}
    assert got == PINS["traces"]


def test_fuzz_template_seed_verdicts():
    got = [verdict_digest(_template_trace(i)) for i in range(len(PINS["fuzz_template_seeds_0_49"]))]
    assert got == PINS["fuzz_template_seeds_0_49"]


def test_mutant_verdicts_and_the_laws_they_break(bases):
    got = {}
    failed = set()
    for name, trace in mutants(bases):
        verdicts = check_all(trace)
        got[name] = hashlib.sha256(serialize_verdicts(verdicts).encode()).hexdigest()
        failed.update(v.property for v in verdicts if v.failed)
    assert got == PINS["mutations"]
    assert set(MUST_FAIL) <= failed, sorted(set(MUST_FAIL) - failed)
