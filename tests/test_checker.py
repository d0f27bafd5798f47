import json

import pytest
from hypothesis import example, given, settings, strategies as st

from bocast.checker import (
    TraceIndex,
    Verdict,
    any_failure,
    build_order,
    check_all,
    first_crossing,
    first_incomparable,
    serialize_verdicts,
    set_positions,
    sets_cross,
)
from bocast.poset import BRUTE_FORCE_LIMIT, BoundViolation, Poset, PosetError, iter_bits
from bocast.scenario import WorkItem
from bocast.sim import run_scenario
from bocast.trace import Event, read_trace, serialize_trace

from _drivers import (
    brute_force_width, forged_trace, lists_an_extension, lt, naive_is_strict_order,
    pairwise_less, propose_workload, sampled_stack_config, stack_config, trace_of_deliveries,
    trace_of_events,
)

B = lambda payload: WorkItem(op="broadcast", payload=payload)

FORGED = "scenarios/forged/"


@pytest.fixture(scope="module")
def golden_trace():
    return read_trace(FORGED + "width2_profile.trace")


class TestBuildOrder:
    def test_golden_profile_width_and_channels(self, golden_trace):
        poset = build_order(golden_trace)
        index = TraceIndex(golden_trace)
        first_seen = dict.fromkeys(mid for seq in index.msg_seqs.values() for mid in seq)
        assert poset.elements == list(first_seen)
        assert [r + len(m) for r, m in index.set_seqs[1]] == [2, 3, 5, 6]
        assert [r + len(m) for r, m in index.set_seqs[2]] == [1, 2, 4, 5, 6]
        assert poset.width() == 2
        _, chains = poset.decompose_channels(2)
        assert len(chains) == 2
        for chain in chains:
            members = set(chain)
            for seq in index.msg_seqs.values():
                assert [m for m in seq if m in members] == chain
        with pytest.raises(BoundViolation) as exc:
            poset.decompose_channels(1)
        assert len(exc.value.antichain) == 2

    def test_identical_sequences_give_a_total_order(self):
        steps = [(1, "a"), (2, "b"), (1, ("1:0",)), (2, ("1:0",)), (1, ("2:0",)), (2, ("2:0",))]
        assert build_order(forged_trace(2, 2, steps)).width() == 1

    def test_fully_reversed_sequences_give_a_full_antichain(self):
        ids = ["1:0", "1:1", "2:0", "2:1"]
        steps = [(1, "a"), (1, "a2"), (2, "b"), (2, "b2")]
        steps += [(1, (mid,)) for mid in ids] + [(2, (mid,)) for mid in reversed(ids)]
        poset = build_order(forged_trace(2, 2, steps))
        assert poset.width() == 4
        assert poset.max_antichain() == ["1:0", "1:1", "2:0", "2:1"]

    @pytest.mark.parametrize("crashed_prefix", [["1:1", "1:0"], ["1:1"]], ids=["both", "prefix"])
    def test_a_crashed_prefix_constrains_the_order(self, crashed_prefix):
        # p2 delivers 1:1 (and perhaps 1:0 after it), then crashes; p1
        # delivers 1:0 then 1:1.  Either way p2 orders 1:1 before 1:0.
        steps = [(2, (mid,)) for mid in crashed_prefix] + [(2, None)]
        steps += [(1, "a"), (1, "a2"), (1, ("1:0",)), (1, ("1:1",))]
        trace = forged_trace(2, 2, steps)
        assert TraceIndex(trace).faulty == {2}
        poset = build_order(trace)
        assert poset.width() == 2
        assert poset.max_antichain() == ["1:0", "1:1"]

    def test_a_message_only_a_crashed_process_delivered_is_an_element(self):
        # p2 delivers 1:0 then 9:9 and crashes; p1 delivers only 1:0, so
        # both order 1:0 before 9:9
        steps = [(2, ("1:0",)), (2, ("9:9",)), (2, None), (1, "a"), (1, ("1:0",))]
        trace = forged_trace(2, 2, steps)
        assert TraceIndex(trace).faulty == {2}
        poset = build_order(trace)
        assert poset.elements == ["1:0", "9:9"]
        assert lt(poset, "1:0", "9:9")
        assert poset.width() == 1

    def test_duplicate_deliveries_deduplicated_and_flagged(self):
        steps = [(1, "a"), (1, "c"), (1, ("1:0",)), (1, ("1:0",)), (1, ("1:1",))]
        trace = forged_trace(1, 1, steps)
        poset = build_order(trace)
        assert poset.elements == ["1:0", "1:1"]
        assert lt(poset, "1:0", "1:1")
        assert poset.width() == 1
        verdicts = {v.property: v for v in check_all(trace, suites=("kbo",))}
        assert verdicts["kbo.integrity"].failed
        assert verdicts["kbo.integrity"].witness == {
            "pid": 1, "msg": "1:0", "positions": [0, 1],
        }


MIDS = [f"{pid}:{i}" for pid in (1, 2, 3) for i in range(4)]


@st.composite
def delivery_runs(draw, mids=MIDS, max_processes=4):
    """Per-process delivery sequences and the crashed pids.  A crashed
    process delivers a prefix of a drawn sequence, so some messages may
    be delivered by crashed processes only."""
    sequences = draw(st.lists(st.lists(st.sampled_from(mids), unique=True),
                              min_size=1, max_size=max_processes))
    crashed = {pid for pid in range(1, len(sequences) + 1) if draw(st.booleans())}
    sequences = [
        seq[: draw(st.integers(0, len(seq)))] if pid in crashed else seq
        for pid, seq in enumerate(sequences, start=1)
    ]
    return sequences, crashed


class TestBitsetOrder:
    @given(delivery_runs())
    @example(([["1:0", "2:0", "3:0"], []], set()))  # a process that delivered nothing
    @example(([["1:0", "2:0"], ["3:0", "2:0"]], {2}))  # 3:0 only a crashed process delivered
    @example(([["1:0", "2:0", "3:0"]], set()))  # a single process
    @example(([["1:0", "2:0", "3:0"], ["1:0", "2:0"]], {2}))  # a crashed prefix of another's
    @settings(max_examples=200, deadline=None)
    def test_build_order_matches_the_pairwise_definition(self, run):
        sequences, crashed = run
        trace = trace_of_deliveries(sequences, crashed)
        assert TraceIndex(trace).faulty == crashed
        poset = build_order(trace)
        expected = pairwise_less(sequences)
        assert poset.elements == list(dict.fromkeys(mid for seq in sequences for mid in seq))
        assert lists_an_extension(poset.elements, expected)
        got = {x: {poset.elements[i] for i in iter_bits(mask)} for x, mask in poset.less.items()}
        assert got == expected
        assert poset.width() == brute_force_width(poset)

    @given(delivery_runs(mids=[f"{pid}:{i}" for pid in range(1, 7) for i in range(6)],
                         max_processes=6))
    @settings(max_examples=200, deadline=None)
    def test_build_order_is_always_a_partial_order(self, run):
        # Poset takes the order as given, so its laws are checked here, by
        # the set definition, whatever the sequences
        poset = build_order(trace_of_deliveries(*run))
        less = {x: {poset.elements[i] for i in iter_bits(mask)} for x, mask in poset.less.items()}
        assert naive_is_strict_order(poset.elements, less)
        assert len(poset.min_chain_cover()) == poset.width() == len(poset.max_antichain())


@st.composite
def set_sequence_pairs(draw):
    """Two processes' set sequences: b independent of a, b a coarsening of
    a's sets with some messages dropped (no crossing), or such a
    coarsening with two messages of different sets swapped."""
    sets = st.lists(st.sampled_from(MIDS), min_size=1, max_size=3, unique=True)
    a = draw(st.lists(sets, max_size=6))
    mode = draw(st.sampled_from(["independent", "coarsened", "planted"]))
    if mode == "independent":
        return a, draw(st.lists(sets, max_size=6)), mode
    groups = {}
    for mid, i in set_positions(a).items():
        if draw(st.booleans()) or mode == "planted":
            groups.setdefault(i, []).append(mid)
    b = []
    for i in sorted(groups):
        if b and draw(st.booleans()):
            b[-1] += groups[i]
        else:
            b.append(groups[i])
    if mode == "planted" and len(b) >= 2:
        i = draw(st.integers(0, len(b) - 2))
        j = draw(st.integers(i + 1, len(b) - 1))
        x = draw(st.integers(0, len(b[i]) - 1))
        y = draw(st.integers(0, len(b[j]) - 1))
        b[i][x], b[j][y] = b[j][y], b[i][x]
    return a, b, mode


class TestCrossingSweep:
    @given(set_sequence_pairs())
    @settings(max_examples=400, deadline=None)
    def test_sweep_agrees_with_the_canonical_scan(self, pair):
        a, b, mode = pair
        pos_a, pos_b = set_positions(a), set_positions(b)
        crossed = sets_cross(pos_a, pos_b)
        assert crossed == (first_crossing(pos_a, pos_b) is not None)
        assert crossed == sets_cross(pos_b, pos_a)
        if mode == "coarsened":
            assert not crossed

    def test_planted_crossing_is_found(self):
        a = [("1:0",), ("1:1", "2:0"), ("2:1",)]
        b = [("1:0", "2:1"), ("2:0",), ("1:1",)]
        pos_a, pos_b = set_positions(a), set_positions(b)
        assert sets_cross(pos_a, pos_b)
        assert first_crossing(pos_a, pos_b) == ("1:1", "2:1")


class TestNegativeControls:
    def test_ordering_breach_witness(self):
        trace = read_trace(FORGED + "ordering_breach.trace")
        verdicts = {v.property: v for v in check_all(trace)}
        assert verdicts["kscd.ordering"].failed
        assert verdicts["kscd.ordering"].witness == {
            "msg_first": "1:0",
            "msg_later": "2:0",
            "pid": 1,
            "pid_reversed": 2,
        }
        # per-message width stays within 2: only the set rule is broken
        assert verdicts["kbo.bounded"].status == "pass"

    def test_width3_antichain_witness(self):
        trace = read_trace(FORGED + "width3_antichain.trace")
        verdicts = {v.property: v for v in check_all(trace)}
        assert verdicts["kbo.bounded"].failed
        assert verdicts["kbo.bounded"].witness["antichain"] == ["1:0", "2:0", "3:0"]
        assert verdicts["kbo.bounded"].witness["width"] == 3

    def test_decide_then_crash_fails_bounded_at_width_two(self):
        # p1 delivers 1:0, decides a and crashes; p2 delivers 2:0, decides
        # b, then delivers 1:0.  p1 delivered 1:0 and never 2:0, so it
        # orders 1:0 first, and p2 orders 2:0 first: the two decided
        # proposals form an antichain of width 2 > k.
        trace = read_trace(FORGED + "decide_then_crash.trace")
        failed = {v.property: v.witness for v in check_all(trace) if v.failed}
        assert failed == {
            "kbo.bounded": {"width": 2, "antichain": ["1:0", "2:0"]},
            "ksa.agreement": {"instance": 0, "values": ["a", "b"], "k": 1},
        }

    def test_a_large_cyclic_order_fails_bounded_with_an_antichain(self):
        # p1..p3 deliver 1:0, 2:0 and 3:0 in a cycle, each missing one of
        # them, then 1:3 ... 1:23 alike: each of the three lies above what
        # its one non-deliverer delivered, so none is comparable to the rest
        steps = [(1, f"m1.{i}") for i in range(24)] + [(2, "m2.0"), (3, "m3.0")]
        steps += [(1, ("1:0",)), (1, ("2:0",)), (2, ("2:0",)), (2, ("3:0",))]
        steps += [(3, ("3:0",)), (3, ("1:0",))]
        steps += [(pid, (f"1:{i}",)) for i in range(3, 24) for pid in (1, 2, 3)]
        trace = forged_trace(3, 2, steps, outcome="budget-exhausted")
        poset = build_order(trace)
        assert len(poset.elements) > BRUTE_FORCE_LIMIT
        verdicts = {v.property: v for v in check_all(trace, ("kbo",))}
        assert verdicts["kbo.bounded"].witness == {
            "width": 4, "antichain": ["1:0", "1:23", "2:0", "3:0"],
        }

    def test_a_small_cyclic_order_fails_bounded_at_k1(self):
        # p1 delivers 1:0 then 2:0, p2 2:0 then 3:0, p3 3:0 then 1:0: every
        # pair is ordered both ways, so no pair is ordered at all
        trace = read_trace(FORGED + "cyclic_k1.trace")
        poset = build_order(trace)
        assert poset.width() == 3 and not any(poset.less.values())
        verdicts = check_all(trace)
        assert {v.property: v.witness for v in verdicts if v.failed} == {
            "kbo.bounded": {"width": 3, "antichain": ["1:0", "2:0", "3:0"]},
        }
        assert [v.property for v in verdicts if v.status == "not-evaluated"] == [
            "kbo.termination-1", "kbo.termination-2", "kscd.termination-1",
            "kscd.termination-2", "k2s.termination", "ksa.termination", "roundsync.window",
        ]

    def test_an_internal_poset_error_is_raised_not_reported(self, golden_trace, monkeypatch):
        # a failed self-check of the width machinery is a bug of the
        # checker, not a property of the trace
        def broken(_poset):
            raise PosetError("internal: antichain size disagrees with width")

        monkeypatch.setattr(Poset, "max_antichain", broken)
        with pytest.raises(PosetError, match="internal"):
            check_all(golden_trace, ("kbo",))

    def test_unbroadcast_delivery_fails_validity(self):
        verdicts = {v.property: v for v in check_all(forged_trace(1, 1, [(1, ("9:9",))]))}
        assert verdicts["kbo.validity"].failed
        assert verdicts["kscd.validity"].failed

    def test_all_verdicts_emitted_despite_failures(self):
        trace = read_trace(FORGED + "width3_antichain.trace")
        verdicts = check_all(trace)
        names = [v.property for v in verdicts]
        assert len(names) == len(set(names)) == 25


class TestReplay:
    def test_tampered_snapshot_result_detected(self):
        trace = run_scenario(sampled_stack_config(3, 2, 2))
        events = list(trace.events)
        for i, ev in enumerate(events):
            if ev.kind == "object-access" and ev.payload["op"] == "snapshot" and ev.payload["object"] == "MEM":
                payload = json.loads(json.dumps(ev.payload))
                payload["result"][0] = ["77:0"]
                events[i] = Event(ev.pid, ev.kind, payload)
                break
        tampered = trace_of_events(trace.config, events, trace.outcome, trace.turns)
        verdicts = {v.property: v for v in check_all(tampered, suites=("snapshot",))}
        assert verdicts["snapshot.replay"].failed

    @staticmethod
    def forge_mem(trace, op, change):
        """The trace with the first MEM ``op`` event's payload changed, that
        event's step and the event."""
        events = list(trace.events)
        for i, ev in enumerate(events):
            if ev.kind == "object-access" and ev.payload["object"] == "MEM" and ev.payload["op"] == op:
                payload = json.loads(json.dumps(ev.payload))
                change(payload)
                events[i] = Event(ev.pid, ev.kind, payload)
                return trace_of_events(trace.config, events, trace.outcome, trace.turns), i, ev
        raise AssertionError(f"no MEM {op}")

    def test_skipped_mem_increment_detected(self):
        trace = run_scenario(sampled_stack_config(3, 2, 2))

        def skip(payload):
            payload["args"][0] += 1

        forged, step, ev = self.forge_mem(trace, "write", skip)
        verdicts = {v.property: v for v in check_all(forged, suites=("snapshot",))}
        assert verdicts["snapshot.replay"].witness == {"object": "MEM", "step": step, "cell": ev.pid}

    def test_mem_snapshot_disagreeing_with_writes_detected(self):
        trace = run_scenario(sampled_stack_config(3, 2, 2))

        def bump(payload):
            payload["result"][2] += 1

        forged, step, _ev = self.forge_mem(trace, "snapshot", bump)
        verdicts = {v.property: v for v in check_all(forged, suites=("snapshot",))}
        assert verdicts["snapshot.replay"].witness == {"object": "MEM", "step": step, "cell": 3}

    def test_clean_traces_replay_exactly(self):
        trace = run_scenario(sampled_stack_config(4, 3, 8))
        verdicts = {v.property: v for v in check_all(trace, suites=("snapshot",))}
        assert verdicts["snapshot.replay"].status == "pass"
        assert verdicts["snapshot.containment"].status == "pass"


def pairwise_incomparable(views):
    """The canonical containment scan: first pair in list order."""
    for i in range(len(views)):
        for j in range(i + 1, len(views)):
            if not (views[i] <= views[j] or views[j] <= views[i]):
                return i, j
    return None


view_families = st.lists(st.frozensets(st.integers(0, 5), max_size=6), max_size=8)


class TestContainment:
    @given(view_families)
    @settings(max_examples=300, deadline=None)
    def test_sorted_check_agrees_with_the_pairwise_scan(self, views):
        assert first_incomparable(views) == pairwise_incomparable(views)

    @given(st.lists(st.integers(0, 9), unique=True, min_size=2, max_size=10), st.data())
    @settings(max_examples=300, deadline=None)
    def test_chain_with_a_planted_incomparable_pair(self, universe, data):
        chain = [frozenset(universe[:i]) for i in range(len(universe) + 1)]
        # a view the same size as a chain member but with another element
        size = data.draw(st.integers(1, len(universe) - 1))
        planted = frozenset(universe[: size - 1]) | {universe[size]}
        views = data.draw(st.permutations(chain + [planted]))
        assert first_incomparable(views) == pairwise_incomparable(views) is not None


def failures(trace, suites) -> dict:
    """The failing verdicts of ``suites`` on ``trace``, as property -> witness."""
    return {v.property: v.witness for v in check_all(trace, suites) if v.failed}


class TestForgedFailures:
    """Failures no run of the stack makes, forged event by event."""

    def test_a_broadcast_that_never_returns_fails_termination_1(self):
        # p1 delivers its own message, and the run is quiescent, but its
        # broadcast has no return
        forged = forged_trace(1, 1, [(1, "x"), (1, ("1:0",))])
        events = [ev for ev in forged.events if ev.kind != "return"]
        trace = trace_of_events(forged.config, events, "quiescent", forged.turns)
        witness = {"pid": 1, "reason": "broadcast did not return"}
        assert failures(trace, ("kbo", "kscd")) == {
            "kbo.termination-1": witness, "kscd.termination-1": witness,
        }

    def test_a_kset_result_nobody_proposed_fails_oracle_validity(self):
        # p1 proposes 1:0 to KSET[0] and is answered 9:9
        access = {"object": "KSET[0]", "op": "propose", "args": ["1:0"], "result": "9:9"}
        trace = trace_of_events(stack_config(1, 1, 0, {}), [Event(1, "object-access", access)])
        assert failures(trace, ("ksa",)) == {"ksa.oracle-validity": {"instance": 0, "values": ["9:9"]}}

    def test_a_live_proposer_that_never_decides_fails_termination(self):
        # p1 proposes v1.0 to instance 0 and delivers it, but decides nothing
        invoke = {"op": "ksa_propose", "msg": "1:0", "instance": 0, "value": "v1.0"}
        events = [
            Event(1, "invoke", invoke, 0),
            Event(1, "deliver-set", {"round": 0, "set": ["1:0"]}, 1),
            Event(1, "deliver-msg", {"msg": "1:0", "position": 0}, 1),
        ]
        config = stack_config(1, 1, 0, propose_workload(1, {1: [0]}))
        trace = trace_of_events(config, events, "quiescent", 2)
        assert failures(trace, ("ksa",)) == {"ksa.termination": {"pid": 1, "instance": 0}}


class TestLiveness:
    def test_liveness_not_evaluated_on_budget_exhaustion(self):
        cfg = stack_config(3, 2, 1, propose_workload(3, {1: [0], 2: [0], 3: [0]}),
                           step_budget=12)
        trace = run_scenario(cfg)
        assert trace.outcome == "budget-exhausted"
        verdicts = {v.property: v for v in check_all(trace)}
        for name in (
            "kbo.termination-1",
            "kbo.termination-2",
            "kscd.termination-1",
            "kscd.termination-2",
            "k2s.termination",
            "ksa.termination",
            "roundsync.window",
        ):
            assert verdicts[name].status == "not-evaluated"
        assert not any_failure(verdicts.values())

    def test_roundsync_accepts_jump_to_final_round(self):
        # one process delivers both messages at once, the other one at a
        # time; cumulative deliveries only re-align at the final count
        script = [
            (2, "main"), (2, "task"), (2, "task"),
            (1, "main"), (1, "task"), (1, "task"),
            (2, "task"), (2, "task"),
            (1, "task"), (1, "task"), (1, "task"), (1, "task"),
            (2, "task"), (2, "task"),
        ]
        cfg = stack_config(2, 2, 0, {1: (B("x"),), 2: (B("y"),)},
                           schedule="scripted", script=script)
        trace = run_scenario(cfg)
        idx = TraceIndex(trace)
        assert [r for r, _ in idx.set_seqs[2]] == [0, 1]
        assert [r for r, _ in idx.set_seqs[1]] == [0]
        verdicts = {v.property: v for v in check_all(trace, suites=("roundsync",))}
        assert verdicts["roundsync.window"].status == "pass"


def test_verdict_serialization_is_stable():
    verdicts = [
        Verdict("kbo.bounded", "pass"),
        Verdict("kscd.ordering", "fail", {"pid": 1}),
        Verdict("ksa.termination", "not-evaluated", {"reason": "x"}),
    ]
    text = serialize_verdicts(verdicts)
    assert text == (
        '{"property":"kbo.bounded","pass":true,"witness":null}\n'
        '{"property":"kscd.ordering","pass":false,"witness":{"pid":1}}\n'
        '{"property":"ksa.termination","pass":null,"witness":{"reason":"x"}}\n'
    )


def test_report_round_trip_is_deterministic():
    trace = run_scenario(sampled_stack_config(4, 2, 77))
    text = serialize_trace(trace)
    first = serialize_verdicts(check_all(trace))
    second = serialize_verdicts(check_all(trace))
    assert first == second and text == serialize_trace(trace)
