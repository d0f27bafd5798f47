import json
from pathlib import Path

import pytest

from bocast.cli import instantiate_template
from bocast.k2s import K2SInstance, RepeatedK2S, canon_sets
from bocast.objects import ProtocolViolation
from bocast.scenario import ORACLE_POLICIES
from bocast.sim import run_scenario
from bocast.trace import OBJECT_NAME, Recorder

from _drivers import (
    STEPS_PER_PROPOSE,
    assert_k2s_properties,
    k2s_propose,
    repeated_k2s_propose,
    run_random_k2s_instance,
)

TEMPLATE = Path("scenarios/templates/n5_k2_propose.template.json")


def make_instance(n, k, seed=0, policy="first-k-adversarial", instance_no=0, recorder=None):
    return K2SInstance(n, k, policy, seed, instance_no, (recorder or Recorder()).emit)


def make_repeated(n, k, seed):
    return RepeatedK2S(n, k, "first-k-adversarial", seed, Recorder().emit)


def test_solo_proposer_gets_singleton_family():
    for k in (1, 2, 3):
        inst = make_instance(3, k)
        assert k2s_propose(inst, 1, "v") == frozenset({frozenset({"v"})})


def test_k1_collapses_to_one_decided_value():
    inst = make_instance(3, 1)
    outs = [k2s_propose(inst, pid, v) for pid, v in ((1, "a"), (2, "b"), (3, "c"))]
    for sets in outs:
        assert sets == frozenset({frozenset({"a"})})


def test_a_view_leaves_out_only_unwritten_cells():
    # "" is a value like any other; p3 never writes, so its cell stays None
    inst = make_instance(3, 3, policy="echo")
    assert k2s_propose(inst, 1, "") == {frozenset({""})}
    assert k2s_propose(inst, 2, "x") == {frozenset({""}), frozenset({"", "x"})}


def test_sequential_run_golden():
    # Three fully sequential proposers, k=2, adversarial oracle seed 1.
    # Derived by hand-stepping the five steps: the first proposer keeps
    # its own value; the draws for p2 and p3 (documented per-instance
    # stream) give b and a; views then grow {a} -> {a,b} and both later
    # processes see both views in the second snapshot.
    inst = make_instance(3, 2, seed=1)
    outs = {pid: k2s_propose(inst, pid, value) for pid, value in ((1, "a"), (2, "b"), (3, "c"))}
    assert inst.decided == {1: "a", 2: "b", 3: "a"}
    assert canon_sets(outs[1]) == [["a"]]
    assert canon_sets(outs[2]) == [["a"], ["a", "b"]]
    assert canon_sets(outs[3]) == [["a"], ["a", "b"]]
    assert_k2s_properties({1: "a", 2: "b", 3: "c"}, outs, k=2)


def test_one_proposal_writes_its_five_rows_in_order():
    # p1 proposes to round 3 after p2's whole proposal: each of p1's five
    # steps writes one row, with the shapes of the trace format's schema
    # table (the echo oracle decides each proposer's own value)
    recorder = Recorder()
    inst = make_instance(3, 2, policy="echo", instance_no=3, recorder=recorder)
    k2s_propose(inst, 2, "b")
    before = len(recorder.rows)
    results = []
    for done in range(STEPS_PER_PROPOSE):
        results.append(inst.step(1, "a"))
        assert len(recorder.rows) == before + done + 1
    assert recorder.rows[before:] == [
        [0, 1, "KSET[3]", "propose", ["a"], "a"],
        [0, 1, "SNAP1[3]", "write", ["a"], None],
        [0, 1, "SNAP1[3]", "snapshot", None, ["a", "b", None]],
        [0, 1, "SNAP2[3]", "write", [["a", "b"]], None],
        [0, 1, "SNAP2[3]", "snapshot", None, [["a", "b"], ["b"], None]],
    ]
    assert results[:4] == [None] * 4
    assert canon_sets(results[4]) == [["b"], ["a", "b"]]


def test_a_sixth_step_is_refused_and_writes_no_row():
    recorder = Recorder()
    inst = make_instance(2, 2, recorder=recorder)
    k2s_propose(inst, 1, "a")
    rows = len(recorder.rows)
    with pytest.raises(ProtocolViolation, match=r"SNAP2\[0\]: p1 took two one-shot snapshots"):
        inst.step(1, "a")
    assert len(recorder.rows) == rows == STEPS_PER_PROPOSE


def test_double_invocation_rejected():
    inst = make_instance(2, 2)
    k2s_propose(inst, 1, "a")
    with pytest.raises(ProtocolViolation):
        k2s_propose(inst, 1, "b")


class TestRepeated:
    def test_rounds_are_isolated(self):
        kss = make_repeated(2, 2, seed=0)
        out0 = repeated_k2s_propose(kss, 1, 0, "x")
        out5 = repeated_k2s_propose(kss, 1, 5, "y")
        assert out0 == frozenset({frozenset({"x"})})
        assert out5 == frozenset({frozenset({"y"})})
        assert kss.instance(0).snap1 is not kss.instance(5).snap1

    def test_same_round_outputs_nest_across_processes(self):
        kss = make_repeated(2, 2, seed=3)
        a = repeated_k2s_propose(kss, 1, 4, "x")
        b = repeated_k2s_propose(kss, 2, 4, "y")
        assert a <= b or b <= a

    def test_round_reuse_rejected(self):
        kss = make_repeated(2, 2, seed=0)
        repeated_k2s_propose(kss, 1, 3, "x")
        with pytest.raises(ProtocolViolation):
            kss.instance(3).step(1, "y")


@pytest.mark.parametrize("policy", ORACLE_POLICIES)
def test_each_process_proposes_to_rounds_in_increasing_order(policy):
    # No object refuses a proposal to a round below an earlier one: the
    # engine numbers its round by its delivery count, which every round
    # raises.  So in every stack trace each process's KSET[r] rows have
    # strictly increasing r.
    template = json.loads(TEMPLATE.read_text(encoding="utf-8"))
    template["oracle_policy"] = policy
    for seed in range(50):
        rounds: dict[int, list[int]] = {}
        for row in run_scenario(instantiate_template(template, seed)).rows:
            m = OBJECT_NAME.fullmatch(row[2]) if len(row) == 6 else None
            if m and m[1] == "KSET":
                rounds.setdefault(row[1], []).append(int(m[2]))
        assert rounds, seed
        for pid, seen in rounds.items():
            assert all(a < b for a, b in zip(seen, seen[1:])), (seed, pid, seen)


@pytest.mark.parametrize("seed", range(60))
def test_randomized_interleavings_satisfy_all_properties(seed):
    n = 2 + seed % 4
    k = 1 + seed % 3
    if k > n:
        k = n
    values, outputs = run_random_k2s_instance(seed, n, k)
    assert len(outputs) == n
    assert_k2s_properties(values, outputs, k)
