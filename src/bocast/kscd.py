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

The set of messages a process has delivered lives in one place: per
sender, the first index not yet delivered (``prefix``) and the indices
delivered past it (``ahead``).  A broadcast's wait compares ``prefix``
with the counts its MEM snapshot saw, and a re-delivery is caught where a
delivered set is recorded.  The engine keeps only the size of that set
beside it, which numbers the next K2S round.

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
from .messages import min_id, msg_key
from .objects import SnapshotArray
from .trace import Recorder


class EngineInvariantError(RuntimeError):
    """An internal invariant of the broadcast engine was violated."""


def unfold_views(sets) -> list[frozenset]:
    """Turn a chain of views into a sequence of disjoint non-empty sets:
    each view less the one before it, in order of size.

    Views of one-shot snapshots are nested, so the family is a chain
    (empty and repeated views add nothing).  A family that is not a chain
    raises, naming two views that tie or are incomparable.
    """
    out: list[frozenset] = []
    below = frozenset()  # the largest view taken so far
    for view in sorted(sets, key=len):
        if below < view:
            out.append(view - below)
            below = view
        elif view != below:
            raise EngineInvariantError(f"non-nested view family: {_unnested_pair(sets)}")
    return out


def _unnested_pair(sets) -> str:
    """The first two views of a family that is not a chain, in canonic
    order, of which the first is not in the second."""
    family = canon_sets(sets)
    a, b = next((a, b) for a, b in zip(family, family[1:]) if not set(a) <= set(b))
    return f"{a} and {b} {'tie' if len(a) == len(b) else 'are incomparable'}"


class MemCounts:
    """MEM, whose cell i counts the messages p_i has published, with the
    running total of its cells."""

    def __init__(self, n: int):
        self.array = SnapshotArray(n, "MEM", initial=0)
        self.total = 0

    def publish(self, pid: int) -> int:
        """Raise p's cell by one, for its next message; returns the new count."""
        count = self.array.cells[pid - 1] + 1
        self.array.write(pid, count)
        self.total += 1
        return count


class BroadcastEngine:
    def __init__(self, pid: int, mem: MemCounts, kss: RepeatedK2S, recorder: Recorder):
        self.pid = pid
        self.mem = mem
        self.kss = kss
        self.recorder = recorder

        # The messages delivered here: prefix[s] is the first index of
        # p_{s+1}'s messages not delivered, and ahead holds (s, index) of
        # those delivered past that prefix (sets are not delivered in index
        # order).  delivered_count is their number, the next round's.
        self.delivered_count = 0
        self.prefix = [0] * mem.array.n
        self.ahead: set[tuple[int, int]] = set()
        self.seq: list[frozenset] = []
        self.wait_for: tuple = ()  # MEM counts seen by the broadcast snapshot

        self.tstate = "idle"  # idle|kset|snap1w|snap1s|snap2w|snap2s
        self.prop: str | None = None
        self.val: str | None = None
        self.view: frozenset | None = None
        self._inst = None

    # --- broadcast operation steps --------------------------------------

    def broadcast_write(self) -> None:
        """Publish this process's next message: its MEM count goes up by one."""
        self._obj_event("MEM", "write", [self.mem.publish(self.pid)], None)

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
        return self.mem.total > self.delivered_count

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
        # the round is numbered by the delivery count
        self._inst = self.kss.instance(self.delivered_count)
        self.val = self._inst.phase_propose(self.pid, self.prop)
        self._obj_event(f"KSET[{self.delivered_count}]", "propose", [self.prop], self.val)
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
        self._advance_prefixes(first)
        self.delivered_count += len(first)
        self.tstate = "idle"
        self.prop = None
        self._inst = None
        return first

    # --- helpers ----------------------------------------------------------

    def _advance_prefixes(self, mids) -> None:
        """Record ``mids`` as delivered, none of which may be already."""
        prefix, ahead = self.prefix, self.ahead
        for mid in mids:
            sender, index = msg_key(mid)
            s = sender - 1
            if index != prefix[s]:
                if index < prefix[s] or (s, index) in ahead:
                    raise EngineInvariantError(
                        f"p{self.pid} re-delivery of {mid} at round {self.delivered_count}"
                    )
                ahead.add((s, index))
                continue
            index += 1
            while (s, index) in ahead:
                ahead.remove((s, index))
                index += 1
            prefix[s] = index

    def _obj_event(self, object_id: str, op: str, args, result) -> None:
        self.recorder.emit(self.pid, object_id, op, args, result)
