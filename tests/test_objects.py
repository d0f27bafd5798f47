import pytest

from bocast.objects import ProtocolViolation, SetAgreementOracle, SnapshotArray
from bocast.trace import Recorder

from _drivers import one_shot_schedules, replay_one_shot


class TestMultiShot:
    def test_snapshot_before_writes_is_all_bottom(self):
        # a multi-shot cell is a count, and 0 counts no message
        arr = SnapshotArray(3, "MEM", Recorder().emit)
        assert arr.snapshot(1) == [0, 0, 0]

    def test_write_then_snapshot_sees_own_value(self):
        arr = SnapshotArray(2, "MEM", Recorder().emit)
        arr.write(1, "x")
        assert arr.snapshot(1) == ["x", 0]

    def test_overwrite_is_visible_to_later_snapshots(self):
        arr = SnapshotArray(2, "MEM", Recorder().emit)
        arr.write(1, "x")
        arr.write(1, "y")
        assert arr.snapshot(2) == ["y", 0]

    def test_unknown_pid_rejected(self):
        arr = SnapshotArray(2, "MEM", Recorder().emit)
        with pytest.raises(ProtocolViolation):
            arr.write(3, "x")

    @pytest.mark.parametrize("one_shot", [False, True])
    @pytest.mark.parametrize("pid", [0, 3])
    def test_unknown_pid_rejected_by_either_access_without_a_row(self, pid, one_shot):
        recorder = Recorder()
        arr = SnapshotArray(2, "SNAP1[0]", recorder.emit, one_shot=one_shot)
        for access in (lambda: arr.write(pid, "x"), lambda: arr.snapshot(pid)):
            with pytest.raises(ProtocolViolation, match=f"^SNAP1\\[0\\]: unknown process {pid}$"):
                access()
        assert recorder.rows == []


@pytest.mark.parametrize("one_shot", [False, True])
def test_a_snapshot_holds_the_cells_as_written_until_the_next_write(one_shot):
    recorder = Recorder()
    arr = SnapshotArray(3, "S", recorder.emit, one_shot=one_shot)
    empty = None if one_shot else 0
    arr.write(1, "a")
    before = arr.snapshot(1)
    arr.write(2, "b")
    arr.write(3, "c")
    after = arr.snapshot(2)
    # a write replaces the cells: a snapshot taken before it keeps its values
    assert before == ["a", empty, empty]
    # no write between two snapshots: one list, which their rows hold too
    again = arr.snapshot(3)
    assert again is after and after == ["a", "b", "c"]
    assert recorder.rows[-1][5] is recorder.rows[-2][5] is after


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


def kset(k, policy, seed=0, recorder=None):
    return SetAgreementOracle(k, policy, seed, "KSET[0]", (recorder or Recorder()).emit)


class TestOracle:
    def test_first_1_policy_everyone_gets_first_arrival(self):
        oracle = kset(3, "first-1")
        assert oracle.propose(1, "a") == "a"
        assert oracle.propose(2, "b") == "a"
        assert oracle.propose(3, "c") == "a"

    def test_echo_policy_returns_own_value(self):
        oracle = kset(3, "echo")
        assert oracle.propose(1, "a") == "a"
        assert oracle.propose(2, "b") == "b"

    @pytest.mark.parametrize("seed", range(25))
    def test_adversarial_decisions_come_from_first_k_arrivals(self, seed):
        oracle = kset(2, "first-k-adversarial", seed)
        decisions = [oracle.propose(pid, v) for pid, v in ((1, "a"), (2, "b"), (3, "c"))]
        assert set(decisions) <= {"a", "b"}
        assert len(set(decisions)) <= 2

    def test_first_proposer_always_decides_its_own_value(self):
        for seed in range(10):
            assert kset(2, "first-k-adversarial", seed).propose(1, "z") == "z"

    def test_k1_adversarial_is_consensus(self):
        for seed in range(10):
            oracle = kset(1, "first-k-adversarial", seed)
            decisions = {oracle.propose(pid, v) for pid, v in ((1, "a"), (2, "b"), (3, "c"))}
            assert decisions == {"a"}

    def test_permissive_policy_can_exceed_k(self):
        hit = False
        for seed in range(40):
            oracle = kset(2, "first-k-plus-one-permissive", seed)
            decisions = {
                oracle.propose(pid, v)
                for pid, v in ((1, "a"), (2, "b"), (3, "c"), (4, "a"), (5, "b"))
            }
            assert decisions <= {"a", "b", "c"}
            if len(decisions) == 3:
                hit = True
        assert hit, "permissive oracle never produced k+1 distinct decisions"

    def test_a_second_proposal_is_refused_and_writes_no_row(self):
        recorder = Recorder()
        oracle = kset(1, "first-1", recorder=recorder)
        assert oracle.propose(1, "a") == "a"
        with pytest.raises(ProtocolViolation, match=r"KSET\[0\]: p1 proposed twice"):
            oracle.propose(1, "b")
        assert recorder.rows == [[0, 1, "KSET[0]", "propose", ["a"], "a"]]
        assert oracle.propose(2, "b") == "a"
