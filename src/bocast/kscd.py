"""Per-process engine for bounded set broadcast.

Each process cooperates through a multi-shot snapshot array MEM and a
repeated K2S store.  In the paper, cell i of MEM holds the set of
messages p_i has broadcast so far.  p_i publishes its messages in index
order and cells only grow, so that set is always exactly
{i:0, ..., i:c-1}: here cell i holds the count c.  The engine has two
halves:

* the broadcast operation: publish the message in MEM (raise its count),
  snapshot MEM, and block until everything visible in that snapshot has
  been locally delivered;
* the background task: repeatedly pick a candidate message (head of the
  pending sequence if any, else the oldest undelivered message visible in
  MEM), run one K2S round numbered by the current delivery count, unfold
  the returned chain of views into a sequence of disjoint message sets,
  reconcile it with the pending sequence, and deliver the first set.

Determinism choices: whenever "some message" of a set is needed, the
minimum in canonical (sender, index) order is taken; any choice would be
correct, a fixed one makes runs reproducible.

Every shared-object operation is one scheduler step, so a K2S round
spreads over five steps (agreement, two writes, two snapshots) and other
processes interleave between them.
"""

from __future__ import annotations

from operator import ge

from .k2s import RepeatedK2S, canon_sets
from .messages import min_id, msg_key, sort_ids
from .objects import SnapshotArray
from .trace import Recorder


class EngineInvariantError(RuntimeError):
    """An internal invariant of the broadcast engine was violated."""


def unfold_views(sets) -> list[frozenset]:
    """Turn a chain of views into a sequence of disjoint non-empty sets.

    Repeatedly takes the non-empty set of minimal size and subtracts it
    from the rest.  Nested inputs guarantee the minimum is unique.  On a
    chain that is each view less the one before it, so one sort by size
    unfolds it; a family that is not a chain takes the loop, which names
    the ties it meets.
    """
    out: list[frozenset] = []
    below = frozenset()  # the largest view taken so far
    for view in sorted(sets, key=len):
        if below < view:
            out.append(view - below)
            below = view
        elif view != below:
            break
    else:
        return out
    work = list(sets)
    out = []
    while True:
        nonempty = [s for s in work if s]
        if not nonempty:
            return out
        min_size = min(len(s) for s in nonempty)
        mins = {s for s in nonempty if len(s) == min_size}
        if len(mins) != 1:
            raise EngineInvariantError(f"non-nested view family: ties among {canon_sets(mins)}")
        chosen = next(iter(mins))
        out.append(chosen)
        work = [s - chosen for s in work]


class MemCounts:
    """MEM, whose cell i counts the messages p_i has published, with the
    running total of its cells."""

    def __init__(self, n: int):
        self.array = SnapshotArray(n, "MEM", initial=0)
        self.total = 0


class BroadcastEngine:
    def __init__(self, pid: int, mem: MemCounts, kss: RepeatedK2S, recorder: Recorder):
        self.pid = pid
        self.mem = mem
        self.kss = kss
        self.recorder = recorder

        self.count = 0  # messages this process has published: its MEM cell
        self.delivered: set[str] = set()
        # prefix[s]: the first index of p_{s+1}'s messages not delivered
        # here; ahead: (s, index) delivered past that prefix (sets are not
        # delivered in index order)
        self.prefix = [0] * mem.array.n
        self.ahead: set[tuple[int, int]] = set()
        self.seq: list[frozenset] = []
        self.wait_for: tuple = ()  # MEM counts seen by the broadcast snapshot

        self.tstate = "idle"  # idle|kset|snap1w|snap1s|snap2w|snap2s
        self.prop: str | None = None
        self.round = -1
        self.val: str | None = None
        self.view: frozenset | None = None
        self._inst = None

    # --- broadcast operation steps --------------------------------------

    def broadcast_write(self) -> None:
        """Publish this process's next message: its MEM count goes up by one."""
        self.count += 1
        self.mem.array.write(self.pid, self.count)
        self.mem.total += 1
        self._obj_event("MEM", "write", [self.count], None)

    def broadcast_snapshot(self) -> None:
        self.wait_for = self.mem.array.snapshot(self.pid)
        self._obj_event("MEM", "snapshot", None, list(self.wait_for))

    def broadcast_wait_ok(self) -> bool:
        return all(map(ge, self.prefix, self.wait_for))

    # --- background task -------------------------------------------------

    def task_enabled(self) -> bool:
        if self.tstate != "idle":
            return True
        if self.seq:
            return True
        # Everything delivered here is in MEM and MEM only grows, so some
        # message visible in MEM is undelivered iff MEM holds more.
        return self.mem.total > len(self.delivered)

    def task_step(self) -> frozenset | None:
        """Run one task step; returns the delivered set when one is emitted."""
        if self.tstate == "idle":
            if not self.seq:
                arr = self.mem.array.snapshot(self.pid)
                self._obj_event("MEM", "snapshot", None, list(arr))
                # the oldest undelivered message of the first sender with one
                for s, (done, count) in enumerate(zip(self.prefix, arr)):
                    if done < count:
                        self.prop = f"{s + 1}:{done}"
                        self.tstate = "kset"
                        break
                return None
            self.prop = min_id(self.seq[0])
            return self._step_kset()
        if self.tstate == "kset":
            return self._step_kset()
        if self.tstate == "snap1w":
            self._inst.phase_snap1_write(self.pid, self.val)
            self._obj_event(self._inst.snap1.object_id, "write", [self.val], None)
            self.tstate = "snap1s"
            return None
        if self.tstate == "snap1s":
            arr, self.view = self._inst.phase_snap1_read(self.pid)
            self._obj_event(self._inst.snap1.object_id, "snapshot", None, list(arr))
            self.tstate = "snap2w"
            return None
        if self.tstate == "snap2w":
            listed = self._inst.phase_snap2_write(self.pid, self.view)
            self._obj_event(self._inst.snap2.object_id, "write", [listed], None)
            self.tstate = "snap2s"
            return None
        if self.tstate == "snap2s":
            return self._step_snap2_read()
        raise EngineInvariantError(f"unknown task state {self.tstate!r}")

    def _step_kset(self) -> None:
        self.round = len(self.delivered)
        self._inst = self.kss.enter(self.pid, self.round)
        self.val = self._inst.phase_propose(self.pid, self.prop)
        self._obj_event(f"KSET[{self.round}]", "propose", [self.prop], self.val)
        self.tstate = "snap1w"
        return None

    def _step_snap2_read(self) -> frozenset:
        cells, sets = self._inst.phase_snap2_read(self.pid)
        self._obj_event(self._inst.snap2.object_id, "snapshot", None, cells)

        new_seq = unfold_views(sets)
        fresh = set().union(*new_seq)
        self.seq = [kept for s in self.seq if (kept := s - fresh)]
        self.seq = new_seq + self.seq

        first = self.seq.pop(0)
        if first & self.delivered:
            raise EngineInvariantError(
                f"p{self.pid} re-delivery of {sort_ids(first & self.delivered)} at round {self.round}"
            )
        self.delivered |= first
        self._advance_prefixes(first)
        self.tstate = "idle"
        self.prop = None
        self._inst = None
        return first

    # --- helpers ----------------------------------------------------------

    def _advance_prefixes(self, mids) -> None:
        prefix, ahead = self.prefix, self.ahead
        for mid in mids:
            sender, index = msg_key(mid)
            s = sender - 1
            if index != prefix[s]:
                ahead.add((s, index))
                continue
            index += 1
            while (s, index) in ahead:
                ahead.remove((s, index))
                index += 1
            prefix[s] = index

    def _obj_event(self, object_id: str, op: str, args, result) -> None:
        self.recorder.emit(
            self.pid,
            "object-access",
            {"object": object_id, "op": op, "args": args, "result": result},
        )
