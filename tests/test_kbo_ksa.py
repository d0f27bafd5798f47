from bocast.checker import TraceIndex, any_failure, check_all
from bocast.kbo import unpack_order
from bocast.ksa import DecisionTable
from bocast.scenario import WorkItem, load_scenario
from bocast.sim import run_scenario

from _drivers import forged_trace, propose_workload, stack_config

B = lambda payload: WorkItem(op="broadcast", payload=payload)
LOOKALIKE = "scenarios/examples/n2_k1_lookalike_payload.scenario.json"


def test_unpack_order_is_sender_then_index():
    assert unpack_order(["2:1", "10:0", "2:0"]) == ["2:0", "2:1", "10:0"]


class TestDecisionTable:
    def test_first_pair_per_instance_wins(self):
        t = DecisionTable()
        t.on_deliver(7, "a")
        t.on_deliver(7, "b")
        assert t.pending[7] == "a"

    def test_taken_instances_never_resurrect(self):
        t = DecisionTable()
        t.on_deliver(3, "a")
        assert t.take(3) == "a"
        t.on_deliver(3, "b")
        assert not t.ready(3)

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
