"""The agreement-plus-two-snapshots object (K2S) and its repeated store.

The K2S object of round r is three fresh objects of that round, which
``K2SInstance`` builds: a k-set-agreement object KSET[r] and two one-shot
snapshot arrays SNAP1[r] and SNAP2[r].  A proposal runs five steps, each
one operation on one of those objects:

1. propose its value to KSET[r] and keep the decided value;
2. write the decided value to SNAP1[r];
3. snapshot SNAP1[r]: the values written so far are its view;
4. write its view to SNAP2[r];
5. snapshot SNAP2[r]: the views written so far are its output.

``K2SInstance.step`` runs a proposer's next step and keeps, per
proposer, what the later steps need: its step count, its decided value
and its view.  The simulator runs each step as one scheduler step, so
other processes interleave between them, and each object writes the
trace row of its own access.

Because one-shot snapshot views are inclusion-related, every output is a
non-empty chain of non-empty views, bounded by min(k, number of distinct
inputs), nested within and across processes.
"""

from __future__ import annotations

from functools import partial

from .objects import SetAgreementOracle, SnapshotArray
from .rng import derive

# what a SNAP1 view leaves out: the cells not written yet, and only them
# (a K2S value may be any string, "" too)
_EMPTY_CELL = frozenset((None,))


def canon_view(view) -> list:
    """Canonic list form of a view (sorted by value)."""
    return sorted(view)


def canon_sets(sets) -> list:
    """Canonic list form of a family of views: by size, then content."""
    return sorted((canon_view(v) for v in sets), key=lambda v: (len(v), v))


class K2SInstance:
    """The K2S object of round ``round_no``; ``step`` runs a proposer's
    next step.  KSET draws from ``derive(seed, "ksa", round_no)``."""

    def __init__(self, n: int, k: int, policy: str, seed: int, round_no: int, emit):
        self.kset = SetAgreementOracle(
            k, policy, derive(seed, "ksa", round_no), f"KSET[{round_no}]", emit
        )
        self.snap1 = SnapshotArray(n, f"SNAP1[{round_no}]", emit, one_shot=True)
        # SNAP2 cells hold views in canonic list form, as the trace writes them
        self.snap2 = SnapshotArray(n, f"SNAP2[{round_no}]", emit, one_shot=True)
        # the views written to SNAP2 so far, grown at each write: a
        # one-shot cell is written once, so no read need rebuild it
        self.family: frozenset = frozenset()
        # per proposer: the steps it has run (by pid, index 0 unused), its
        # decided value, its SNAP1 view
        self.steps = [0] * (n + 1)
        self.decided: dict[int, str] = {}
        self.views: dict[int, frozenset] = {}

    def step(self, pid: int, value: str) -> frozenset | None:
        """Run pid's next step of its proposal of ``value``; the family of
        views at the fifth step, else None.  The one-shot SNAP2 refuses a
        sixth, with ProtocolViolation."""
        done = self.steps[pid]
        self.steps[pid] = done + 1
        if done == 0:
            self.decided[pid] = self.kset.propose(pid, value)
        elif done == 1:
            self.snap1.write(pid, self.decided[pid])
        elif done == 2:
            self.views[pid] = frozenset(self.snap1.snapshot(pid)) - _EMPTY_CELL
        elif done == 3:
            view = self.views[pid]
            self.snap2.write(pid, canon_view(view))
            self.family = self.family | {view}
        else:
            self.snap2.snapshot(pid)
            return self.family
        return None


class RepeatedK2S:
    """The K2S objects by round number, each built on first use.

    A process enters round r only after every round below r: the engine
    numbers its round by its delivery count, which each round raises,
    since every delivered set is non-empty.  No object checks that order:
    each sees only its own round.
    """

    def __init__(self, n: int, k: int, policy: str, seed: int, emit):
        self.build = partial(K2SInstance, n, k, policy, seed, emit=emit)  # build(r): round r
        self.instances: dict[int, K2SInstance] = {}

    def instance(self, round_no: int) -> K2SInstance:
        inst = self.instances.get(round_no)
        if inst is None:
            inst = self.instances[round_no] = self.build(round_no)
        return inst
