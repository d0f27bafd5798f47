"""``roundsync.window`` by bisection against the full scan it replaced.

``reference_roundsync`` is the scan the checker used before its windows
were cut from round-sorted sets by bisection: for every window it walks
every set of every process.  Both must give the same verdict and witness
on any trace, forged ones included, whose rounds repeat or go backwards.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from bocast.checker import TraceIndex, Verdict, _check_roundsync
from bocast.trace import Event, Trace

from _drivers import stack_config, trace_of_events
from test_pins import PINS, base_traces, mutants


def reference_roundsync(index: TraceIndex) -> list[Verdict]:
    name = "roundsync.window"
    if not index.quiescent:
        return [Verdict(name, "not-evaluated", {"reason": "liveness needs a quiescent trace"})]
    pids = index.nonfaulty
    if len(pids) < 2:
        return [Verdict(name, "pass")]

    sets_by_round = {pid: dict(index.set_seqs[pid]) for pid in pids}
    totals = {pid: sum(len(mids) for _, mids in index.set_seqs[pid]) for pid in pids}
    if len(set(totals.values())) != 1:
        witness = {"reason": "unequal final delivery counts", "totals": totals}
        return [Verdict(name, "fail", witness)]
    r_end = totals[pids[0]]

    participated = [set(sets_by_round[pid]) for pid in pids]
    common = sorted(set.intersection(*participated)) if participated else []
    checkpoints = set(common) | {r_end}

    def msgs_between(pid: int, lo: int, hi: int) -> frozenset:
        acc = set()
        for r, mids in index.set_seqs[pid]:
            if lo <= r < hi:
                acc.update(mids)
        return frozenset(acc)

    for r in common:
        if r >= r_end:
            continue
        found = None
        for r2 in range(r + 1, r + index.k + 1):
            if r2 not in checkpoints:
                continue
            cumulative = {msgs_between(pid, r, r2) for pid in pids}
            if len(cumulative) == 1:
                found = r2
                break
        if found is None:
            witness = {"round": r, "window": index.k, "reason": "no synchronization round"}
            return [Verdict(name, "fail", witness)]
    return [Verdict(name, "pass")]


def _same(index: TraceIndex) -> None:
    assert _check_roundsync(index) == reference_roundsync(index)


MIDS = [f"{s}:{i}" for s in range(1, 4) for i in range(3)]


@st.composite
def set_sequences(draw):
    """(n, k, crashed pids, per pid its (round, set) deliveries).  Every
    process delivers a partition of one message list, so the totals agree
    and the windows are compared; rounds are drawn freely, so they repeat
    and go backwards."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n))
    mids = draw(st.lists(st.sampled_from(MIDS), min_size=1, max_size=8))
    sequences = {}
    for pid in range(1, n + 1):
        order = draw(st.permutations(mids))
        cuts = sorted(draw(st.sets(st.integers(1, len(order) - 1), max_size=len(order) - 1))
                      if len(order) > 1 else set())
        bounds = [0, *cuts, len(order)]
        sets = [tuple(order[a:b]) for a, b in zip(bounds, bounds[1:])]
        rounds = draw(st.lists(st.integers(0, 6), min_size=len(sets), max_size=len(sets)))
        if draw(st.booleans()):  # sometimes a process delivers one set fewer
            sets, rounds = sets[:-1], rounds[:-1]
        sequences[pid] = list(zip(rounds, sets))
    crashed = draw(st.sets(st.integers(1, n), max_size=n - 1))
    return n, k, crashed, sequences


def _trace(n, k, crashed, sequences) -> Trace:
    events = []
    for pid in sorted(sequences):
        for r, mids in sequences[pid]:
            events.append(Event(pid, "deliver-set", {"round": r, "set": list(mids)}))
    for pid in sorted(crashed):
        events.append(Event(pid, "crash", {}))
    return trace_of_events(stack_config(n, k, 0, {}), events)


@settings(max_examples=400, deadline=None)
@given(set_sequences())
def test_bisection_matches_the_full_scan(case):
    _same(TraceIndex(_trace(*case)))


def test_repeated_and_out_of_order_rounds():
    seqs = {
        1: [(2, ("3:0",)), (0, ("2:0", "1:0")), (1, ("1:1",))],
        2: [(0, ("2:0", "1:0")), (1, ("1:1",)), (1, ("3:0",))],
        3: [(1, ("1:1", "3:0")), (0, ("1:0", "2:0"))],
    }
    for k in (1, 2, 3):
        index = TraceIndex(_trace(3, k, set(), seqs))
        _same(index)
    assert _check_roundsync(TraceIndex(_trace(3, 3, set(), seqs)))[0].status == "pass"
    assert _check_roundsync(TraceIndex(_trace(3, 1, set(), seqs)))[0].failed


def test_verdict_pin_traces_and_mutants():
    bases = base_traces()
    forged = list(mutants(bases))
    assert len(forged) == len(PINS["mutations"]) == 106
    for _name, trace in [*bases.items(), *forged]:
        _same(TraceIndex(trace))
