import pytest

from bocast.objects import ProtocolViolation, SetAgreementOracle, SnapshotArray
from bocast.rng import derive
from bocast.trace import Recorder

from _drivers import one_shot_schedules, replay_one_shot


class TestMultiShot:
    def test_snapshot_before_writes_is_all_bottom(self):
        arr = SnapshotArray(3, "MEM", Recorder().emit)
        assert arr.snapshot(1) == (None, None, None)

    def test_write_then_snapshot_sees_own_value(self):
        arr = SnapshotArray(2, "MEM", Recorder().emit)
        arr.write(1, "x")
        assert arr.snapshot(1) == ("x", None)

    def test_overwrite_is_visible_to_later_snapshots(self):
        arr = SnapshotArray(2, "MEM", Recorder().emit)
        arr.write(1, "x")
        arr.write(1, "y")
        assert arr.snapshot(2) == ("y", None)

    def test_unknown_pid_rejected(self):
        arr = SnapshotArray(2, "MEM", Recorder().emit)
        with pytest.raises(ProtocolViolation):
            arr.write(3, "x")


class TestOneShot:
    def test_double_write_rejected(self):
        arr = SnapshotArray(2, "S", Recorder().emit, one_shot=True)
        arr.write(1, "a")
        with pytest.raises(ProtocolViolation):
            arr.write(1, "b")

    def test_snapshot_before_write_rejected(self):
        arr = SnapshotArray(2, "S", Recorder().emit, one_shot=True)
        with pytest.raises(ProtocolViolation):
            arr.snapshot(1)

    def test_second_snapshot_rejected(self):
        arr = SnapshotArray(2, "S", Recorder().emit, one_shot=True)
        arr.write(1, "a")
        arr.snapshot(1)
        with pytest.raises(ProtocolViolation):
            arr.snapshot(1)

    def test_sequential_views_nest_in_write_order(self):
        arr = SnapshotArray(3, "S", Recorder().emit, one_shot=True)
        sizes = []
        for pid in (1, 2, 3):
            arr.write(pid, f"v{pid}")
            snap = arr.snapshot(pid)
            sizes.append(sum(1 for v in snap if v is not None))
        assert sizes == [1, 2, 3]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_containment_exhaustive_over_all_interleavings(self, n):
        count = 0
        for schedule in one_shot_schedules(n):
            views = list(replay_one_shot(n, schedule).values())
            for i in range(len(views)):
                for j in range(i + 1, len(views)):
                    assert views[i] <= views[j] or views[j] <= views[i], schedule
            count += 1
        # multinomial (2n)! / 2^n interleavings
        import math

        assert count == math.factorial(2 * n) // 2**n


class TestOracle:
    def test_first_1_policy_everyone_gets_first_arrival(self):
        oracle = SetAgreementOracle(k=3, policy="first-1", seed=0, emit=Recorder().emit)
        assert oracle.propose(0, 1, "a") == "a"
        assert oracle.propose(0, 2, "b") == "a"
        assert oracle.propose(0, 3, "c") == "a"

    def test_echo_policy_returns_own_value(self):
        oracle = SetAgreementOracle(k=3, policy="echo", seed=0, emit=Recorder().emit)
        assert oracle.propose(0, 1, "a") == "a"
        assert oracle.propose(0, 2, "b") == "b"

    @pytest.mark.parametrize("seed", range(25))
    def test_adversarial_decisions_come_from_first_k_arrivals(self, seed):
        oracle = SetAgreementOracle(k=2, policy="first-k-adversarial", seed=seed, emit=Recorder().emit)
        decisions = [
            oracle.propose(0, pid, v) for pid, v in ((1, "a"), (2, "b"), (3, "c"))
        ]
        assert set(decisions) <= {"a", "b"}
        assert len(set(decisions)) <= 2

    def test_first_proposer_always_decides_its_own_value(self):
        for seed in range(10):
            oracle = SetAgreementOracle(k=2, policy="first-k-adversarial", seed=seed, emit=Recorder().emit)
            assert oracle.propose(0, 1, "z") == "z"

    def test_k1_adversarial_is_consensus(self):
        for seed in range(10):
            oracle = SetAgreementOracle(k=1, policy="first-k-adversarial", seed=seed, emit=Recorder().emit)
            decisions = {
                oracle.propose(0, pid, v) for pid, v in ((1, "a"), (2, "b"), (3, "c"))
            }
            assert decisions == {"a"}

    def test_permissive_policy_can_exceed_k(self):
        hit = False
        for seed in range(40):
            oracle = SetAgreementOracle(
                k=2, policy="first-k-plus-one-permissive", seed=seed, emit=Recorder().emit
            )
            decisions = {
                oracle.propose(0, pid, v)
                for pid, v in ((1, "a"), (2, "b"), (3, "c"), (4, "a"), (5, "b"))
            }
            assert decisions <= {"a", "b", "c"}
            if len(decisions) == 3:
                hit = True
        assert hit, "permissive oracle never produced k+1 distinct decisions"

    def test_instance_numbers_must_increase_per_process(self):
        oracle = SetAgreementOracle(k=1, policy="first-1", seed=0, emit=Recorder().emit)
        oracle.propose(3, 1, "a")
        with pytest.raises(ProtocolViolation):
            oracle.propose(3, 1, "b")
        with pytest.raises(ProtocolViolation):
            oracle.propose(2, 1, "b")
        oracle.propose(4, 1, "b")

    def test_instances_are_independent_and_lazy(self):
        oracle = SetAgreementOracle(k=1, policy="first-1", seed=derive(0, "t"), emit=Recorder().emit)
        assert oracle.propose(5, 1, "x") == "x"
        assert oracle.propose(0, 2, "y") == "y"
        assert sorted(oracle.instances) == [0, 5]
