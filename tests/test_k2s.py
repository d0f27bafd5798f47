import pytest

from bocast.k2s import K2SInstance, RepeatedK2S, canon_sets
from bocast.objects import ProtocolViolation, SetAgreementOracle

from _drivers import assert_k2s_properties, k2s_propose, repeated_k2s_propose, run_random_k2s_instance


def make_instance(n, k, seed=0, policy="first-k-adversarial", instance_no=0):
    oracle = SetAgreementOracle(k=k, policy=policy, seed=seed)
    return K2SInstance(n, oracle, instance_no)


def test_solo_proposer_gets_singleton_family():
    for k in (1, 2, 3):
        inst = make_instance(3, k)
        assert k2s_propose(inst, 1, "v") == frozenset({frozenset({"v"})})


def test_k1_collapses_to_one_decided_value():
    inst = make_instance(3, 1)
    outs = [k2s_propose(inst, pid, v) for pid, v in ((1, "a"), (2, "b"), (3, "c"))]
    for sets in outs:
        assert sets == frozenset({frozenset({"a"})})


def test_sequential_run_golden():
    # Three fully sequential proposers, k=2, adversarial oracle seed 1.
    # Derived by hand-stepping the three phases: the first proposer keeps
    # its own value; the draws for p2 and p3 (documented per-instance
    # stream) give b and a; views then grow {a} -> {a,b} and both later
    # processes see both views in the second snapshot.
    inst = make_instance(3, 2, seed=1)
    decided = {}
    outs = {}
    for pid, value in ((1, "a"), (2, "b"), (3, "c")):
        decided[pid] = inst.phase_propose(pid, value)
        inst.phase_snap1_write(pid, decided[pid])
        inst.phase_snap2_write(pid, inst.phase_snap1_read(pid)[1])
        outs[pid] = inst.phase_snap2_read(pid)[1]
    assert decided == {1: "a", 2: "b", 3: "a"}
    assert canon_sets(outs[1]) == [["a"]]
    assert canon_sets(outs[2]) == [["a"], ["a", "b"]]
    assert canon_sets(outs[3]) == [["a"], ["a", "b"]]
    assert_k2s_properties({1: "a", 2: "b", 3: "c"}, outs, k=2)


def test_double_invocation_rejected():
    inst = make_instance(2, 2)
    k2s_propose(inst, 1, "a")
    with pytest.raises(ProtocolViolation):
        k2s_propose(inst, 1, "b")


class TestRepeated:
    def test_rounds_are_isolated(self):
        oracle = SetAgreementOracle(k=2, policy="first-k-adversarial", seed=0)
        kss = RepeatedK2S(2, oracle)
        out0 = repeated_k2s_propose(kss, 1, 0, "x")
        out5 = repeated_k2s_propose(kss, 1, 5, "y")
        assert out0 == frozenset({frozenset({"x"})})
        assert out5 == frozenset({frozenset({"y"})})
        assert kss.instance(0).snap1 is not kss.instance(5).snap1

    def test_same_round_outputs_nest_across_processes(self):
        oracle = SetAgreementOracle(k=2, policy="first-k-adversarial", seed=3)
        kss = RepeatedK2S(2, oracle)
        a = repeated_k2s_propose(kss, 1, 4, "x")
        b = repeated_k2s_propose(kss, 2, 4, "y")
        assert a <= b or b <= a

    def test_round_reuse_rejected(self):
        oracle = SetAgreementOracle(k=2, policy="first-k-adversarial", seed=0)
        kss = RepeatedK2S(2, oracle)
        repeated_k2s_propose(kss, 1, 3, "x")
        with pytest.raises(ProtocolViolation):
            kss.instance(3).phase_propose(1, "y")
        with pytest.raises(ProtocolViolation):
            kss.instance(1).phase_propose(1, "y")


@pytest.mark.parametrize("seed", range(60))
def test_randomized_interleavings_satisfy_all_properties(seed):
    n = 2 + seed % 4
    k = 1 + seed % 3
    if k > n:
        k = n
    values, outputs = run_random_k2s_instance(seed, n, k)
    assert len(outputs) == n
    assert_k2s_properties(values, outputs, k)
