import json
import re
from pathlib import Path

import pytest

from bocast.checker import TraceIndex, any_failure, check_all
from bocast.cli import instantiate_template
from bocast.k2s import K2SInstance, RepeatedK2S
from bocast.kscd import BroadcastEngine, EngineInvariantError, MemCounts, unfold_views
from bocast.scenario import WorkItem
from bocast.sim import Simulation, run_scenario
from bocast.trace import Recorder

from _drivers import propose_workload, sampled_stack_config, stack_config

B = lambda payload: WorkItem(op="broadcast", payload=payload)
TEMPLATE = Path("scenarios/templates/n5_k2_propose.template.json")


class TestUnfoldViews:
    def test_chain_becomes_disjoint_increments(self):
        sets = {frozenset("a"), frozenset("ab"), frozenset("abc")}
        assert unfold_views(sets) == [frozenset("a"), frozenset("b"), frozenset("c")]

    def test_single_view(self):
        assert unfold_views({frozenset({"x", "y"})}) == [frozenset({"x", "y"})]

    def test_size_ties_rejected(self):
        with pytest.raises(EngineInvariantError, match=re.escape("['a'] and ['b'] tie")):
            unfold_views({frozenset("a"), frozenset("b")})

    def test_incomparable_views_rejected(self):
        # no two views tie, but the family is no chain
        with pytest.raises(EngineInvariantError, match=re.escape("['a'] and ['b', 'c'] are incomparable")):
            unfold_views({frozenset("a"), frozenset("bc"), frozenset("abc")})


def test_a_second_delivery_of_a_message_is_refused():
    emit = Recorder().emit
    engine = BroadcastEngine(1, MemCounts(2, emit), RepeatedK2S(2, 1, "first-1", 0, emit))
    engine._advance_prefixes({"1:0", "2:1"})  # 1:0 extends p1's prefix, 2:1 lies past p2's
    for again in ("1:0", "2:1"):
        with pytest.raises(EngineInvariantError, match=f"p1 re-delivery of {again} at round 0"):
            engine._advance_prefixes({again})
    engine._advance_prefixes({"2:0"})
    assert engine.prefix == [1, 2] and not engine.ahead


def test_solo_broadcast_delivers_own_message():
    cfg = stack_config(1, 1, 0, {1: (B("hello"),)}, schedule="round-robin")
    trace = run_scenario(cfg)
    assert trace.quiescent
    idx = TraceIndex(trace)
    assert idx.set_seqs[1] == [(0, ("1:0",))]
    assert not any_failure(check_all(trace))


def test_concurrent_broadcasts_all_delivered():
    for seed in range(10):
        cfg = stack_config(2, 2, seed, {1: (B("x"),), 2: (B("y"),)})
        trace = run_scenario(cfg)
        assert trace.quiescent
        idx = TraceIndex(trace)
        for pid in (1, 2):
            delivered = {m for _, mids in idx.set_seqs[pid] for m in mids}
            assert delivered == {"1:0", "2:0"}
        assert not any_failure(check_all(trace))


def test_crash_after_publish_still_delivers_everywhere():
    # p2 writes its message into MEM on turn 0 and crashes on turn 1,
    # before seeing any delivery; p1 must still deliver it.
    cfg = stack_config(
        2, 2, 0,
        {2: (B("orphan"),)},
        crash_plan=((2, 1),),
        schedule="scripted",
        script=((2, "main"),),
    )
    trace = run_scenario(cfg)
    assert trace.quiescent
    idx = TraceIndex(trace)
    assert idx.faulty == {2}
    assert {m for _, mids in idx.set_seqs[1] for m in mids} == {"2:0"}
    assert not any_failure(check_all(trace))


def test_survivor_of_n_minus_1_crashes_reaches_quiescence():
    wl = propose_workload(3, {1: [0, 1], 2: [0], 3: [0]})
    cfg = stack_config(3, 2, 5, wl, crash_plan=((2, 9), (3, 13)))
    trace = run_scenario(cfg)
    assert trace.quiescent
    idx = TraceIndex(trace)
    own = [inv["msg"] for inv in idx.invokes[1]]
    delivered_1 = {m for _, mids in idx.set_seqs[1] for m in mids}
    assert set(own) <= delivered_1
    assert not any_failure(check_all(trace))


def test_nested_round_outputs_give_prefix_refinement():
    # Scripted schedule where the round-0 K2S returns nested sets of
    # sizes 1 and 2: p1 sees only the full view and delivers both
    # messages at once; p2 sees the chain, delivers the small set, and
    # its queue holds exactly the difference, delivered next round.
    script = [
        (2, "main"), (2, "task"), (2, "task"),
        (1, "main"), (1, "task"), (1, "task"),
        (2, "task"), (2, "task"),
        (1, "task"), (1, "task"), (1, "task"), (1, "task"),
        (2, "task"), (2, "task"),
    ]
    cfg = stack_config(
        2, 2, 0, {1: (B("x"),), 2: (B("y"),)}, schedule="scripted", script=script
    )
    trace = run_scenario(cfg)
    assert trace.quiescent
    idx = TraceIndex(trace)
    sets_1 = [set(mids) for _, mids in idx.set_seqs[1]]
    sets_2 = [set(mids) for _, mids in idx.set_seqs[2]]
    assert sets_1 == [{"1:0", "2:0"}]
    assert sets_2 == [{"2:0"}, {"1:0"}]
    assert sets_2[0] < sets_1[0]
    assert sets_1[0] - sets_2[0] == sets_2[1]
    assert not any_failure(check_all(trace))


def test_rounds_strictly_increase_and_match_delivery_counts():
    for seed in (3, 17, 44):
        cfg = sampled_stack_config(4, 2, seed)
        trace = run_scenario(cfg)
        assert trace.quiescent
        idx = TraceIndex(trace)
        for pid in range(1, 5):
            count = 0
            rounds = []
            for round_no, mids in idx.set_seqs[pid]:
                assert round_no == count
                assert 1 <= len(mids) <= 2
                count += len(mids)
                rounds.append(round_no)
            assert rounds == sorted(set(rounds))


def test_the_engine_steps_the_round_of_its_delivery_count():
    # The engine looks its round's K2S object up once, when it proposes:
    # at every K2S step that object must still be the round of its
    # delivery count, never a stale one.
    template = json.loads(TEMPLATE.read_text(encoding="utf-8"))
    step = K2SInstance.step
    for seed in range(10):
        sim = Simulation(instantiate_template(template, seed))
        held = []

        def checked(inst, pid, value):
            engine = sim.procs[pid].engine
            held.append(engine.round is inst is sim.kss.instance(engine.delivered_count))
            return step(inst, pid, value)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(K2SInstance, "step", checked)
            trace = sim.run()
        k2s_rows = [row for row in trace.rows if len(row) == 6 and row[2] != "MEM"]
        assert held and all(held) and len(held) == len(k2s_rows), seed
