import pytest

from bocast.checker import TraceIndex, any_failure, check_all
from bocast.kbo import unpack_order
from bocast.ksa import DecisionTable
from bocast.scenario import WorkItem, load_scenario
from bocast.sim import run_scenario
from bocast.trace import Event

from _drivers import forged_trace, propose_workload, stack_config, trace_of_events

B = lambda payload: WorkItem(op="broadcast", payload=payload)
LOOKALIKE = "scenarios/examples/n2_k1_lookalike_payload.scenario.json"


def test_unpack_order_is_sender_then_index():
    assert unpack_order(["2:1", "10:0", "2:0"]) == ["2:0", "2:1", "10:0"]


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
        "kbo.bounded": {"width": n, "antichain": mids, "excluded": []},
        "ksa.agreement": {"instance": 0, "values": sorted(value.values()), "k": k},
    }
