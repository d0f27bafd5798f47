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

from .objects import SetAgreementOracle, SnapshotArray


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
        # SNAP2 cells hold views in canonic list form, as the trace writes them
        self.snap2 = SnapshotArray(n, f"SNAP2[{instance_no}]", one_shot=True)
        # the views written to SNAP2 so far, grown at each write: a
        # one-shot cell is written once, so no read need rebuild it
        self.family: frozenset = frozenset()

    # --- phase operations (one shared-object op each) -------------------

    def phase_propose(self, pid: int, value: str) -> str:
        # a second invocation by pid, or one to a round no later than its
        # last, is a proposal the oracle refuses
        return self.oracle.propose(self.instance_no, pid, value)

    def phase_snap1_write(self, pid: int, val: str) -> None:
        self.snap1.write(pid, val)

    def phase_snap1_read(self, pid: int) -> tuple[tuple, frozenset]:
        arr = self.snap1.snapshot(pid)  # the cells, and the view: the written ones
        return arr, frozenset(v for v in arr if v is not None)

    def phase_snap2_write(self, pid: int, view: frozenset) -> list:
        """Publish ``view``; returns its canonic list."""
        listed = canon_view(view)
        self.snap2.write(pid, listed)
        self.family = self.family | {view}
        return listed

    def phase_snap2_read(self, pid: int) -> tuple[list, frozenset]:
        """The cells as canonic lists (None where unwritten), and the
        family of views: the written ones."""
        return list(self.snap2.snapshot(pid)), self.family


class RepeatedK2S:
    """Instances keyed by round number, created lazily on first use.

    Two snapshot objects are allocated fresh for every instance.  Per-process
    round numbers must strictly increase: a round is entered by its
    agreement proposal, which the oracle refuses otherwise.
    """

    def __init__(self, n: int, oracle: SetAgreementOracle):
        self.n = n
        self.oracle = oracle
        self.instances: dict[int, K2SInstance] = {}

    def instance(self, round_no: int) -> K2SInstance:
        inst = self.instances.get(round_no)
        if inst is None:
            inst = K2SInstance(self.n, self.oracle, round_no)
            self.instances[round_no] = inst
        return inst
