"""The agreement-plus-two-snapshots object (K2S) and its repeated store.

One instance combines one k-set-agreement instance with two fresh
one-shot snapshot arrays.  A proposer runs three phases:

1. propose its value to the agreement instance and keep the decided value,
2. publish the decided value through the first snapshot and read back the
   set of values published so far (its view),
3. publish its view through the second snapshot and read back the family
   of views published so far (its output).

Because one-shot snapshot views are inclusion-related, every output is a
non-empty chain of non-empty views, bounded by min(k, number of distinct
inputs), nested within and across processes.

Each phase op is a separate scheduler step in the simulator, so other
processes interleave between them.
"""

from __future__ import annotations

from .objects import ProtocolViolation, SetAgreementOracle, SnapshotArray


def canon_view(view) -> list:
    """Canonic list form of a view (sorted by value)."""
    return sorted(view)


def canon_sets(sets) -> list:
    """Canonic list form of a family of views: by size, then content."""
    return sorted((canon_view(v) for v in sets), key=lambda v: (len(v), v))


class K2SInstance:
    def __init__(self, n: int, oracle: SetAgreementOracle, instance_no: int):
        self.oracle = oracle
        self.instance_no = instance_no
        self.snap1 = SnapshotArray(n, f"SNAP1[{instance_no}]", one_shot=True)
        self.snap2 = SnapshotArray(n, f"SNAP2[{instance_no}]", one_shot=True)
        # each SNAP2 cell's view in canonic list form, built once at its write
        self.snap2_lists: list[list | None] = [None] * n

    # --- phase operations (one shared-object op each) -------------------

    def phase_propose(self, pid: int, value: str) -> str:
        # a second invocation by pid is a second proposal to the oracle's
        # instance, which the oracle refuses
        return self.oracle.propose(self.instance_no, pid, value)

    def phase_snap1_write(self, pid: int, val: str) -> None:
        self.snap1.write(pid, val)

    def phase_snap1_read(self, pid: int) -> tuple[tuple, frozenset]:
        arr = self.snap1.snapshot(pid)  # the cells, and the view: the written ones
        return arr, frozenset(v for v in arr if v is not None)

    def phase_snap2_write(self, pid: int, view: frozenset) -> list:
        """Publish ``view``; returns its canonic list."""
        self.snap2.write(pid, view)
        listed = self.snap2_lists[pid - 1] = canon_view(view)
        return listed

    def phase_snap2_read(self, pid: int) -> tuple[list, frozenset]:
        """The cells as canonic lists (None where unwritten), and the
        family of views: the written ones."""
        arr = self.snap2.snapshot(pid)
        return list(self.snap2_lists), frozenset(v for v in arr if v is not None)


class RepeatedK2S:
    """Instances keyed by round number, created lazily on first use.

    Per-process round numbers must strictly increase; two snapshot objects
    are allocated fresh for every instance.
    """

    def __init__(self, n: int, oracle: SetAgreementOracle):
        self.n = n
        self.oracle = oracle
        self.instances: dict[int, K2SInstance] = {}
        self._last_round: dict[int, int] = {}

    def instance(self, round_no: int) -> K2SInstance:
        inst = self.instances.get(round_no)
        if inst is None:
            inst = K2SInstance(self.n, self.oracle, round_no)
            self.instances[round_no] = inst
        return inst

    def enter(self, pid: int, round_no: int) -> K2SInstance:
        """Start p's participation in a round, enforcing round monotonicity."""
        last = self._last_round.get(pid)
        if last is not None and round_no <= last:
            raise ProtocolViolation(
                f"repeated K2S: p{pid} entered round {round_no} after round {last}"
            )
        self._last_round[pid] = round_no
        return self.instance(round_no)
