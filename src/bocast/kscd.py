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
correct, a fixed one makes runs reproducible.  Keys come from MEM's
``MsgKeys`` (``MemCounts.keys``), so the candidate choice, the delivery
bookkeeping and the per-message unpacking parse each id once per run.

Every shared-object operation is one scheduler step, and each object
writes the trace row of its own access.  A K2S round spreads over five
steps (agreement, two writes, two snapshots) with other processes
interleaved; the K2S instance runs them, keeping per process what the
later steps need.  So the engine holds only what it proposes in the
round numbered by its delivery count and that round's ``K2SInstance``,
looked up once when it proposes, not at each of the five steps; both
are None while it idles between rounds.
"""

from __future__ import annotations

from operator import ge

from .k2s import K2SInstance, RepeatedK2S, canon_sets
from .messages import MsgKeys
from .objects import SnapshotArray


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
    running total of its cells and the ids those counts name: ``ids[i - 1]``
    lists p_i's message ids in index order, each the one string of that id
    that the run's rows and the engines hold.  ``keys`` is the run's
    ``MsgKeys``: every id the engines and the unpacking look up is parsed
    into its canonical key once, there."""

    def __init__(self, n: int, emit):
        self.array = SnapshotArray(n, "MEM", emit)
        self.ids: list[list[str]] = [[] for _ in range(n)]
        self.keys = MsgKeys()
        self.total = 0

    def publish(self, pid: int, mid: str) -> None:
        """Raise p's cell by one, for its next message ``mid``."""
        self.ids[pid - 1].append(mid)
        self.array.write(pid, self.array.cells[pid - 1] + 1)
        self.total += 1


class BroadcastEngine:
    def __init__(self, pid: int, mem: MemCounts, kss: RepeatedK2S):
        self.pid = pid
        self.mem = mem
        self.kss = kss
        self.key = mem.keys.__getitem__  # an id's canonical key, parsed once per run

        # The messages delivered here: prefix[s] is the first index of
        # p_{s+1}'s messages not delivered, and ahead holds (s, index) of
        # those delivered past that prefix (sets are not delivered in index
        # order).  delivered_count is their number, the next round's.
        self.delivered_count = 0
        self.prefix = [0] * mem.array.n
        self.ahead: set[tuple[int, int]] = set()
        self.seq: list[frozenset] = []
        self.wait_for: list = []  # MEM counts seen by the broadcast snapshot

        self.prop: str | None = None  # proposed in round delivered_count; None while idle
        self.round: K2SInstance | None = None  # that round's object; None while idle

    # --- broadcast operation steps --------------------------------------

    def broadcast_write(self, mid: str) -> None:
        """Publish this process's next message ``mid``: its MEM count goes up
        by one."""
        self.mem.publish(self.pid, mid)

    def broadcast_snapshot(self) -> None:
        self.wait_for = self.mem.array.snapshot(self.pid)

    def broadcast_wait_ok(self) -> bool:
        return all(map(ge, self.prefix, self.wait_for))

    # --- background task -------------------------------------------------

    def task_enabled(self) -> bool:
        if self.prop is not None or self.seq:
            return True
        # Everything delivered here is in MEM and MEM only grows, so some
        # message visible in MEM is undelivered iff MEM holds more.
        return self.mem.total > self.delivered_count

    def task_step(self) -> frozenset | None:
        """Run one task step; returns the delivered set when one is emitted."""
        if self.prop is None:
            if self.seq:
                self._propose(min(self.seq[0], key=self.key))
            else:
                arr = self.mem.array.snapshot(self.pid)
                # the oldest undelivered message of the first sender with
                # one, which exists since the task is enabled
                for sent, done, count in zip(self.mem.ids, self.prefix, arr):
                    if done < count:
                        self._propose(sent[done])
                        break
                return None
        sets = self.round.step(self.pid, self.prop)
        if sets is None:
            return None

        new_seq = unfold_views(sets)
        fresh = set().union(*new_seq)
        self.seq = new_seq + [kept for s in self.seq if (kept := s - fresh)]
        first = self.seq.pop(0)
        self._advance_prefixes(first)
        self.delivered_count += len(first)
        self.prop = self.round = None
        return first

    # --- helpers ----------------------------------------------------------

    def _propose(self, value: str) -> None:
        """Propose ``value`` in the round numbered by the delivery count."""
        self.prop = value
        self.round = self.kss.instance(self.delivered_count)

    def _advance_prefixes(self, mids) -> None:
        """Record ``mids`` as delivered, none of which may be already."""
        prefix, ahead, keys = self.prefix, self.ahead, self.mem.keys
        for mid in mids:
            sender, index = keys[mid]
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
