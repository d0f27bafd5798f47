import pytest
from hypothesis import example, given, settings, strategies as st

from bocast.checker import TraceIndex, any_failure, build_order, check_all
from bocast.kbo import unpack_order
from bocast.ksa import DecisionTable
from bocast.messages import MsgKeys, msg_key, sort_ids
from bocast.scenario import WorkItem, load_scenario
from bocast.sim import run_scenario
from bocast.trace import Event

from _drivers import (
    forged_trace, lists_an_extension, pairwise_less, propose_workload, stack_config, trace_of_events,
)

B = lambda payload: WorkItem(op="broadcast", payload=payload)
LOOKALIKE = "scenarios/examples/n2_k1_lookalike_payload.scenario.json"


def test_unpack_order_is_sender_then_index():
    assert unpack_order(["2:1", "10:0", "2:0"], msg_key) == ["2:0", "2:1", "10:0"]
    # keyed by a run's MsgKeys, as the simulator unpacks, the order is the
    # canonical sort's, on a first lookup of an id and on a later one alike
    keys = MsgKeys()
    for mids in (frozenset({"2:1", "10:0", "2:0"}), {"1:12", "1:2", "12:1", "2:11", "2:0"}):
        assert unpack_order(mids, keys.__getitem__) == sort_ids(mids)
        assert unpack_order(mids, keys.__getitem__) == sort_ids(mids)
    assert keys == {mid: msg_key(mid) for mid in keys}


class TestDecisionTable:
    def test_first_pair_per_instance_wins(self):
        t = DecisionTable()
        t.on_deliver(7, "a")
        t.on_deliver(7, "b")
        assert t.first == {7: "a"}

    def test_taken_instances_never_resurrect(self):
        # a later pair never replaces a taken value
        t = DecisionTable()
        t.on_deliver(3, "a")
        assert t.take(3) == "a"
        t.on_deliver(3, "b")
        assert t.take(3) == "a" and t.first == {3: "a"}

    def test_unproposed_instances_are_stored_harmlessly(self):
        t = DecisionTable()
        t.on_deliver(9, "z")
        assert t.ready(9)


def test_a_broadcast_that_looks_like_a_proposal_is_not_decided():
    # p1 broadcasts a payload shaped like p2's proposal pair; p2 decides
    # only what was proposed to its instance
    trace = run_scenario(load_scenario(LOOKALIKE))
    assert trace.quiescent
    assert not any_failure(check_all(trace))
    assert TraceIndex(trace).decides == [(2, 0, "v")]


def test_solo_proposer_decides_own_value():
    cfg = stack_config(1, 1, 0, propose_workload(1, {1: [0]}), schedule="round-robin")
    trace = run_scenario(cfg)
    idx = TraceIndex(trace)
    assert idx.decides == [(1, 0, "v1.0")]


def test_k1_is_consensus():
    for seed in range(8):
        cfg = stack_config(3, 1, seed, propose_workload(3, {1: [0], 2: [0], 3: [0]}))
        trace = run_scenario(cfg)
        assert trace.quiescent
        idx = TraceIndex(trace)
        decided = {v for _, nb, v in idx.decides if nb == 0}
        assert len(decided) == 1
        assert not any_failure(check_all(trace))


def test_k2_decisions_bounded_and_proposed():
    for seed in range(8):
        cfg = stack_config(3, 2, seed, propose_workload(3, {1: [0], 2: [0], 3: [0]}))
        trace = run_scenario(cfg)
        assert trace.quiescent
        idx = TraceIndex(trace)
        decided = {v for _, nb, v in idx.decides if nb == 0}
        assert 1 <= len(decided) <= 2
        assert decided <= {"v1.0", "v2.0", "v3.0"}


def test_different_set_partitions_do_not_violate_the_bound():
    # p1 gets the two messages in two singleton sets, p2 in one set;
    # canonical unpacking keeps the per-message orders compatible.
    steps = [(1, "x"), (2, "y"), (1, ("1:0",)), (2, ("1:0", "2:0")), (1, ("2:0",))]
    trace = forged_trace(2, 2, steps)
    idx = TraceIndex(trace)
    assert idx.msg_seqs[1] == idx.msg_seqs[2] == ["1:0", "2:0"]
    assert not any_failure(check_all(trace, suites=("kbo", "kscd")))


def test_mixed_broadcasts_and_proposals_share_the_stack():
    wl = {
        1: (B("note"), WorkItem(op="propose", instance=0, value="p1")),
        2: (WorkItem(op="propose", instance=0, value="p2"),),
    }
    for seed in range(5):
        cfg = stack_config(2, 2, seed, wl)
        trace = run_scenario(cfg)
        assert trace.quiescent
        idx = TraceIndex(trace)
        assert {nb for _, nb, _ in idx.decides} == {0}
        assert not any_failure(check_all(trace))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_k_plus_one_first_deliveries_break_both_bounds(k):
    # p1..p(k+1) each propose to instance 0, deliver their own proposal
    # first and the others after it in pid order; each decides what its
    # DecisionTable takes.  Any two proposals are delivered in both
    # orders, so all k + 1 are pairwise incomparable.
    n = k + 1
    value = {f"{pid}:0": f"v{pid}.0" for pid in range(1, n + 1)}
    mids = list(value)
    events = [
        Event(pid, "invoke", {"op": "ksa_propose", "msg": mid, "instance": 0, "value": value[mid]})
        for pid, mid in enumerate(mids, start=1)
    ]
    for pid, own in enumerate(mids, start=1):
        table = DecisionTable()
        for position, mid in enumerate([own] + [m for m in mids if m != own]):
            events.append(Event(pid, "deliver-set", {"round": position, "set": [mid]}))
            events.append(Event(pid, "deliver-msg", {"msg": mid, "position": position}))
            table.on_deliver(0, value[mid])
            if position == 0:
                decided = table.take(0)
                events.append(Event(pid, "decide", {"instance": 0, "value": decided}))
                events.append(Event(pid, "return", {"op": "ksa_propose", "instance": 0,
                                                    "value": decided}))
    config = stack_config(n, k, 0, propose_workload(n, {pid: [0] for pid in range(1, n + 1)}))
    trace = trace_of_events(config, events)
    assert sorted(v for _, _, v in TraceIndex(trace).decides) == sorted(value.values())
    failed = {v.property: v.witness for v in check_all(trace, ("kbo", "ksa")) if v.failed}
    assert failed == {
        "kbo.bounded": {"width": n, "antichain": mids},
        "ksa.agreement": {"instance": 0, "values": sorted(value.values()), "k": k},
    }


# --- the converse reduction: a bounded order bounds the decisions --------------


@st.composite
def chain_runs(draw):
    """(k, proposals per pid, chains, runs): pid p proposes ``p:i`` to
    instance i for i below its count; the proposals, in a random order,
    fall into up to four chains; each run is a pid's delivery sequence, a
    linear extension of the chains, with whether it crashed (then it
    delivered a prefix only) and whether it decides.  The trace's k is
    drawn apart from the number of chains, so the order's width may pass
    k: only then may kbo.bounded fail."""
    n = draw(st.integers(2, 4))
    counts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    counts[0] = max(counts[0], 1)
    mids = draw(st.permutations([f"{pid}:{i}" for pid, c in enumerate(counts, 1) for i in range(c)]))
    c = draw(st.integers(1, 4))
    chain_of = draw(st.lists(st.integers(0, c - 1), min_size=len(mids), max_size=len(mids)))
    chains = [[m for m, i in zip(mids, chain_of) if i == j] for j in range(c)]
    runs = []
    for _pid in range(n):
        heads = [list(chain) for chain in chains if chain]
        seq = []
        while heads:
            i = draw(st.integers(0, len(heads) - 1))
            seq.append(heads[i].pop(0))
            if not heads[i]:
                del heads[i]
        crashed = draw(st.booleans())
        if crashed:
            del seq[draw(st.integers(0, len(seq))):]
        runs.append((seq, crashed, not crashed or draw(st.booleans())))
    return draw(st.integers(1, 3)), counts, chains, runs


def trace_of_runs(k, counts, runs):
    """The trace of ``chain_runs``: each pid invokes its proposals, then
    delivers its sequence one message per set, deciding, through a
    ``DecisionTable``, each instance it proposed to once a proposal of
    that instance is delivered, and at last crashes if it crashed."""
    n = len(counts)
    proposal = {f"{pid}:{i}": (i, f"v{pid}.{i}") for pid, c in enumerate(counts, 1) for i in range(c)}
    events = [
        Event(int(mid.split(":")[0]), "invoke",
              {"op": "ksa_propose", "msg": mid, "instance": nb, "value": value})
        for mid, (nb, value) in proposal.items()
    ]
    for pid, (seq, crashed, decides) in enumerate(runs, 1):
        table = DecisionTable()
        waiting = set(range(counts[pid - 1])) if decides else set()
        for position, mid in enumerate(seq):
            events.append(Event(pid, "deliver-set", {"round": position, "set": [mid]}))
            events.append(Event(pid, "deliver-msg", {"msg": mid, "position": position}))
            table.on_deliver(*proposal[mid])
            for nb in sorted(nb for nb in waiting if table.ready(nb)):
                waiting.discard(nb)
                decided = {"instance": nb, "value": table.take(nb)}
                events.append(Event(pid, "decide", decided))
                events.append(Event(pid, "return", {"op": "ksa_propose", **decided}))
        if crashed:
            events.append(Event(pid, "crash", {}))
    config = stack_config(
        n, k, 0, propose_workload(n, {pid: list(range(c)) for pid, c in enumerate(counts, 1)}),
        crash_plan=[(pid, 0) for pid, run in enumerate(runs, 1) if run[1]],
    )
    return trace_of_events(config, events)


@given(chain_runs())
@example((1, [1, 1], [["1:0"], ["2:0"]], [(["1:0"], True, True), (["2:0", "1:0"], False, True)]))
@settings(max_examples=300, deadline=None)
def test_a_bounded_order_bounds_the_decisions(run):
    # The top layer decides the first proposal it delivers.  Processes
    # whose first delivered proposals differ order them pairwise in
    # opposite ways, so k + 1 distinct decisions are an antichain of k + 1.
    # The example is the decide-then-crash shape: p1 delivers 1:0, decides
    # and crashes; p2 delivers 2:0 first.
    k, counts, chains, runs = run
    trace = trace_of_runs(k, counts, runs)
    poset = build_order(trace)
    assert lists_an_extension(poset.elements, pairwise_less([seq for seq, _, _ in runs]))
    assert poset.width() <= sum(1 for chain in chains if chain)
    verdicts = {v.property: v for v in check_all(trace, ("kbo", "ksa"))}
    if verdicts["kbo.bounded"].status == "pass":
        assert verdicts["ksa.agreement"].status == "pass"
        assert verdicts["ksa.validity"].status == "pass"
