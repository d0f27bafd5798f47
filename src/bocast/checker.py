"""Offline trace verification.

Rebuilds, from trace events alone, the per-process delivery orders, the
agreed partial order over every process (``build_order``), its width and
chain decomposition, and evaluates the property suites:

* ``kbo``      - per-message broadcast: validity, integrity, bounded
                 width, both termination properties.
* ``kscd``     - set delivery: validity, integrity, no-crossing ordering,
                 set size bound, both termination properties.
* ``k2s``      - the six properties of every agreement-plus-two-snapshots
                 instance, recomputed from object accesses.
* ``snapshot`` - one-shot view containment and replay linearizability of
                 every snapshot object.
* ``ksa``      - repeated agreement: validity/agreement/termination of the
                 top-level propose operations, and validity/agreement of
                 every oracle instance.
* ``roundsync`` - the round synchronization law of the stack: after any
                 round all non-faulty processes participate in, their
                 cumulative deliveries coincide again within k rounds.
                 This is a law of the protocol implementation, not of the
                 abstraction itself, yet it runs on every trace: one with
                 no object accesses, made by no stack, can fail it.

Liveness properties (terminations, round synchronization) are evaluated
only on quiescent traces and reported as not-evaluated otherwise.  All
verdicts are always emitted; a failing suite never short-circuits the
others.  Failing verdicts carry a minimal machine-readable witness.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, combinations
from operator import itemgetter
from time import perf_counter

from .messages import msg_key, sort_ids
from .poset import Poset, order_bitsets
from .trace import OBJECT_NAME, Trace, pauses_cyclic_gc


class CheckerError(ValueError):
    pass


@dataclass(frozen=True)
class Verdict:
    property: str
    status: str  # "pass" | "fail" | "not-evaluated"
    witness: dict | None = None

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def to_json_dict(self) -> dict:
        return {
            "property": self.property,
            "pass": True if self.status == "pass" else (False if self.status == "fail" else None),
            "witness": self.witness,
        }


def _ok(name: str) -> Verdict:
    return Verdict(name, "pass")


def _fail(name: str, witness: dict) -> Verdict:
    return Verdict(name, "fail", witness)


def _skip(name: str) -> Verdict:
    return Verdict(name, "not-evaluated", {"reason": "liveness needs a quiescent trace"})


class TraceIndex:
    """Per-process and per-object views of one trace.  ``objects`` maps
    each object name to the trace's own rows of its accesses, in step
    order, ``[turn, pid, object, op, args, result]``.  ``replayed`` keeps
    each snapshot object's replay, made the first time a suite asks."""

    def __init__(self, trace: Trace):
        cfg = trace.config
        self.rows = trace.rows
        self.n = cfg.n
        self.k = cfg.k
        self.quiescent = trace.quiescent
        pids = range(1, self.n + 1)

        self.faulty: set[int] = set()
        self.broadcasts: set[str] = set()  # the invoked message ids
        self.invokes: dict[int, list[dict]] = {pid: [] for pid in pids}
        self.returns: dict[int, list[dict]] = {pid: [] for pid in pids}
        self.decides: list[tuple[int, int, str]] = []  # (pid, instance, value)
        self.proposals: list[tuple[int, int, str]] = []  # (pid, instance, value)
        self.set_seqs: dict[int, list[tuple[int, tuple[str, ...]]]] = {pid: [] for pid in pids}
        self.msg_seqs: dict[int, list[str]] = {pid: [] for pid in pids}
        self.objects: dict[str, list] = {}
        self._replays: dict[str, tuple] = {}
        rounds: set[int] = set()

        objects, faulty, broadcasts = self.objects, self.faulty, self.broadcasts
        for row in trace.rows:
            if len(row) == 6:
                name = row[2]
                accesses = objects.get(name)
                if accesses is None:
                    accesses = objects[name] = []
                    m = OBJECT_NAME.fullmatch(name)
                    if m and m[2] is not None:
                        rounds.add(int(m[2]))
                accesses.append(row)
                continue
            _turn, pid, kind, payload = row
            if kind == "deliver-msg":
                self.msg_seqs[pid].append(payload["msg"])
            elif kind == "deliver-set":
                self.set_seqs[pid].append((payload["round"], tuple(payload["set"])))
            elif kind == "invoke":
                self.invokes[pid].append(payload)
                mid = payload.get("msg")
                if mid is not None:
                    broadcasts.add(mid)
                if payload.get("op") == "ksa_propose":
                    self.proposals.append((pid, payload["instance"], payload["value"]))
            elif kind == "return":
                self.returns[pid].append(payload)
            elif kind == "decide":
                self.decides.append((pid, payload["instance"], payload["value"]))
            elif kind == "crash":
                faulty.add(pid)

        self.nonfaulty = [pid for pid in pids if pid not in faulty]
        self.k2s_rounds = sorted(rounds)  # the r of every KSET[r], SNAP1[r] or SNAP2[r]

    def replayed(self, object_id: str) -> tuple[tuple[list, int] | None, bool]:
        """``replay`` of the snapshot object ``object_id`` (MEM, SNAP1[r]
        or SNAP2[r]; no accesses if the trace has none), made once: the
        ``snapshot`` and ``k2s`` suites share it."""
        result = self._replays.get(object_id)
        if result is None:
            accesses = self.objects.get(object_id, ())
            result = self._replays[object_id] = replay(self.n, accesses, object_id == "MEM")
        return result

    def step(self, row) -> int:
        """The step of ``row``, one of the trace's rows: its index in the
        trace, found by identity (each row is a list of its own, as the
        reader and the simulator build them).  O(M), so only a failing
        verdict's witness asks for it."""
        return next(step for step, other in enumerate(self.rows) if other is row)


def build_order(trace_or_index) -> Poset:
    """The agreed order of every process's deliveries, crashed or not,
    over every delivered message: m lies below m' iff every process that
    delivered m' delivered m before it.  ``poset.order_bitsets`` builds it
    as one AND per process of what that process puts at or after m.
    Duplicate deliveries are dropped (first occurrence wins), and only
    delivered messages are numbered, as ``order_bitsets`` requires; the
    integrity check reports duplicates separately.

    The elements are numbered in the order they first appear across the
    sequences, which is a linear extension of the agreed order: if
    m < m', the process where m' first appears delivered m before it, so
    m appears first."""
    index = trace_or_index if isinstance(trace_or_index, TraceIndex) else TraceIndex(trace_or_index)
    sequences = [list(dict.fromkeys(seq)) for seq in index.msg_seqs.values()]
    elements = list(dict.fromkeys(chain.from_iterable(sequences)))
    position = {mid: i for i, mid in enumerate(elements)}
    less = dict(zip(elements, order_bitsets(sequences, position)))
    return Poset(elements, less, key=msg_key)


def set_positions(sets) -> dict[str, int]:
    """Message id -> index of the set that delivered it (the last such set
    for a message delivered twice)."""
    return {mid: i for i, mids in enumerate(sets) for mid in mids}


def set_order(pos: dict[str, int]) -> list[tuple[str, int]]:
    """The (message id, set index) pairs of ``set_positions`` in set order."""
    return sorted(pos.items(), key=itemgetter(1))


def sets_cross(order_a: list[tuple[str, int]], pos_b: dict[str, int]) -> bool:
    """Whether two messages sit in distinct sets in opposite order at two
    processes, from a's ``set_order`` and b's ``set_positions``.

    One sweep over a's sets in order, keeping the largest set index at b
    among a's earlier sets: a message whose index at b is below it has
    crossed.  O(M): a's order is sorted once, not once per pair.
    """
    done = seen = -1  # max index at b over a's earlier sets / over all so far
    current = None
    for mid, ia in order_a:
        ib = pos_b.get(mid)
        if ib is None:
            continue
        if ia != current:
            current = ia
            done = seen
        if ib < done:
            return True
        if ib > seen:
            seen = ib
    return False


def first_crossing(pos_a: dict[str, int], pos_b: dict[str, int]) -> tuple[str, str] | None:
    """The canonical crossing witness: the first pair (m, m') of common
    messages, in message id order, that the two processes deliver in
    opposite set order, as (first at a, later at a).  O(M^2)."""
    common = sort_ids(set(pos_a) & set(pos_b))
    for i in range(len(common)):
        for j in range(i + 1, len(common)):
            m1, m2 = common[i], common[j]
            da = pos_a[m1] - pos_a[m2]
            db = pos_b[m1] - pos_b[m2]
            if da * db < 0:
                return (m1, m2) if da < 0 else (m2, m1)
    return None


# --- suites -------------------------------------------------------------------


def _verdict(name: str, witness: dict | None) -> Verdict:
    return _ok(name) if witness is None else _fail(name, witness)


def _delivery_laws(index: TraceIndex, seqs, unit_key: str, unit_of, not_delivered: str):
    """Validity, integrity, termination-1 and termination-2 witnesses (None
    where the law holds) over ``seqs``: per process, its delivered messages
    in delivery order, repeats kept.  The terminations are None on a trace
    that is not quiescent, where the caller reports them as not evaluated.

    A repeated delivery's witness lists, under ``unit_key``, the units
    ``unit_of(pid, i)`` of its two delivery positions i, and a broadcaster
    that never delivered its own message gets the reason ``not_delivered``.
    Each witness is the first in (process, position) order, or for
    termination-2 in message id order.
    """
    delivered = {pid: set(mids) for pid, mids in seqs.items()}
    validity = integrity = None
    for pid, mids in seqs.items():
        if validity is None and not delivered[pid] <= index.broadcasts:
            mid = next(mid for mid in mids if mid not in index.broadcasts)
            validity = {"pid": pid, "msg": mid}
        if integrity is None and len(delivered[pid]) != len(mids):
            first: dict[str, int] = {}
            for i, mid in enumerate(mids):
                if mid in first:
                    units = [unit_of(pid, first[mid]), unit_of(pid, i)]
                    integrity = {"pid": pid, "msg": mid, unit_key: units}
                    break
                first[mid] = i
    if not index.quiescent:
        return validity, integrity, None, None

    t1 = None
    for pid in index.nonfaulty:
        if len(index.returns[pid]) != len(index.invokes[pid]):
            t1 = {"pid": pid, "reason": "broadcast did not return"}
            break
        for inv in index.invokes[pid]:
            if inv["msg"] not in delivered[pid]:
                t1 = {"pid": pid, "msg": inv["msg"], "reason": not_delivered}
                break
        if t1:
            break

    t2 = None
    anywhere = set().union(*delivered.values())
    missing = {pid: anywhere - delivered[pid] for pid in index.nonfaulty}
    lost = set().union(*missing.values())
    if lost:
        mid = min(lost, key=msg_key)
        t2 = {"msg": mid, "pid": next(pid for pid in index.nonfaulty if mid in missing[pid])}
    return validity, integrity, t1, t2


def _termination_verdicts(index: TraceIndex, suite: str, t1, t2) -> list[Verdict]:
    names = (f"{suite}.termination-1", f"{suite}.termination-2")
    if not index.quiescent:
        return [_skip(name) for name in names]
    return [_verdict(names[0], t1), _verdict(names[1], t2)]


def _check_kbo(index: TraceIndex) -> list[Verdict]:
    validity, integrity, t1, t2 = _delivery_laws(
        index, index.msg_seqs, "positions", lambda _pid, i: i, "own message not delivered"
    )
    out = [_verdict("kbo.validity", validity), _verdict("kbo.integrity", integrity)]

    poset = build_order(index)
    # max_antichain checks its size against the width: a self-check on every trace
    width, antichain = poset.width(), poset.max_antichain()
    witness = None
    if width > index.k:
        witness = {"width": width, "antichain": antichain}
    out.append(_verdict("kbo.bounded", witness))

    out.extend(_termination_verdicts(index, "kbo", t1, t2))
    return out


def _check_kscd(index: TraceIndex) -> list[Verdict]:
    def set_number(pid: int, i: int) -> int:
        """The number of the set holding pid's i-th set-delivered message."""
        return bisect_right(list(accumulate(len(mids) for _, mids in index.set_seqs[pid])), i)

    members = {
        pid: list(chain.from_iterable(mids for _, mids in sets))
        for pid, sets in index.set_seqs.items()
    }
    validity, integrity, t1, t2 = _delivery_laws(
        index, members, "sets", set_number, "own message not set-delivered"
    )
    out = [_verdict("kscd.validity", validity), _verdict("kscd.integrity", integrity)]

    oversize = None
    for pid in range(1, index.n + 1):
        for round_no, mids in index.set_seqs[pid]:
            if len(mids) > index.k:
                oversize = {"pid": pid, "round": round_no, "set": list(mids)}
                break
        if oversize:
            break
    out.append(_verdict("kscd.bounded", oversize))

    # No-crossing rule between distinct sets; the witness is one
    # (m, m', pid, pid') tuple found in canonical scan order.  The sweep
    # finds the first crossing pair of processes; only that pair pays for
    # the canonical scan.
    setpos = {
        pid: set_positions(mids for _, mids in index.set_seqs[pid])
        for pid in range(1, index.n + 1)
    }
    order = {pid: set_order(pos) for pid, pos in setpos.items()}
    crossing = None
    for pa, pb in combinations(sorted(setpos), 2):
        if sets_cross(order[pa], setpos[pb]):
            first_a, later_a = first_crossing(setpos[pa], setpos[pb])
            crossing = {
                "msg_first": first_a,
                "msg_later": later_a,
                "pid": pa,
                "pid_reversed": pb,
            }
            break
    out.append(_verdict("kscd.ordering", crossing))

    out.extend(_termination_verdicts(index, "kscd", t1, t2))
    return out


def _growing_chain(accesses, inputs: set, bound: int) -> set[int] | None:
    """The pids that took a snapshot of a SNAP2 object whose snapshots
    nest (``replay``) and whose every output is known safe without
    looking at it, or None when that is not shown.

    As the snapshots nest, each output is the family of distinct views
    written before it, so the outputs are prefixes of one growing family
    and nest pairwise.  If moreover every written view lies in ``inputs``
    with a size in 1..``bound``, every snapshot sees 1..``bound`` distinct
    views and the written views form a chain, then every output passes
    validity, set size, view size and both inclusions.
    """
    views: set[frozenset] = set()  # the distinct views written so far
    pids = set()
    for _turn, pid, _name, op, args, _res in accesses:
        if op == "write":
            view = frozenset(args[0])
            if not (view <= inputs and 1 <= len(view) <= bound):
                return None
            views.add(view)
        elif op == "snapshot":
            if not 1 <= len(views) <= bound:
                return None
            pids.add(pid)
    if first_incomparable(list(views)) is not None:
        return None
    return pids


def _check_k2s(index: TraceIndex) -> list[Verdict]:
    out = []
    instances = index.k2s_rounds

    proposals: dict[int, dict[int, str]] = {}
    snapped: dict[int, set[int]] = {}  # the pids that took a SNAP2[r] snapshot
    validity = set_size = view_size = intra = inter = None
    for r in instances:
        proposals[r] = {}
        for _turn, pid, _name, op, args, _res in index.objects.get(f"KSET[{r}]", ()):
            if op == "propose":
                proposals[r][pid] = args[0]
        inputs = set(proposals[r].values())
        bound = min(index.k, len(inputs)) if inputs else 0
        name = f"SNAP2[{r}]"
        accesses = index.objects.get(name, ())
        pids = _growing_chain(accesses, inputs, bound) if index.replayed(name)[1] else None
        if pids is not None:
            snapped[r] = pids
            continue
        outputs: dict[int, frozenset] = {}
        for _turn, pid, _name, op, _args, res in accesses:
            if op == "snapshot":
                outputs[pid] = frozenset(frozenset(cell) for cell in res if cell is not None)
        snapped[r] = set(outputs)

        pids_out = sorted(outputs)
        for pid in pids_out:
            sets = outputs[pid]
            # by size, then content: the witnesses do not depend on set order
            views = sorted((len(view), sorted(view), view) for view in sets)
            for size, values, _view in views:
                bad = [v for v in values if v not in inputs]
                if bad and not validity:
                    validity = {"instance": r, "pid": pid, "values": bad}
                if not (1 <= size <= bound) and not view_size:
                    view_size = {"instance": r, "pid": pid, "view": values, "bound": bound}
            if not (1 <= len(sets) <= bound) and not set_size:
                set_size = {"instance": r, "pid": pid, "sets": len(sets), "bound": bound}
            for (_, low, a), (_, high, b) in zip(views, views[1:]):
                if not a <= b and not intra:
                    intra = {"instance": r, "pid": pid, "views": [low, high]}
        pair = None if inter else first_incomparable([outputs[pid] for pid in pids_out])
        if pair is not None:
            inter = {"instance": r, "pids": [pids_out[pair[0]], pids_out[pair[1]]]}

    out.append(_verdict("k2s.validity", validity))
    out.append(_verdict("k2s.set-size", set_size))
    out.append(_verdict("k2s.view-size", view_size))
    out.append(_verdict("k2s.intra-inclusion", intra))
    out.append(_verdict("k2s.inter-inclusion", inter))

    if not index.quiescent:
        out.append(_skip("k2s.termination"))
        return out
    term = None
    for r in instances:
        for pid in sorted(proposals[r]):
            if pid in index.faulty:
                continue
            if pid not in snapped[r]:
                term = {"instance": r, "pid": pid}
                break
        if term:
            break
    out.append(_verdict("k2s.termination", term))
    return out


def first_incomparable(views) -> tuple[int, int] | None:
    """The first pair (i, j), i < j in list order, of views neither of
    which contains the other; None when the views form a chain.

    Sorted by size, the views form a chain iff each is contained in the
    next, so the common case costs a sort and one pass.  Only a family
    that is not a chain pays for the pairwise scan that finds the
    canonical witness.
    """
    by_size = sorted(views, key=len)
    if all(a <= b for a, b in zip(by_size, by_size[1:])):
        return None
    for i in range(len(views)):
        for j in range(i + 1, len(views)):
            if not (views[i] <= views[j] or views[j] <= views[i]):
                return i, j
    raise AssertionError("a sorted family that is not a chain has an incomparable pair")


_INT = frozenset((int,))


def replay(n: int, accesses, mem: bool) -> tuple[tuple[list, int] | None, bool]:
    """Replay a snapshot object's accesses against one running list of
    its n cells: ``(bad, nested)``.

    The cells keep the raw written values, which have the JSON shape of
    the snapshot cells, so each snapshot costs one list comparison.  A
    one-shot cell (``SNAP1``, ``SNAP2``) starts empty (None); a MEM cell
    starts at 0 and each write raises it by one, an int.

    ``bad`` is (row, cell) of the first access that breaks replay, where
    the pass stops, or None.  It breaks on a pid outside 1..n (the cell is
    the pid), a MEM write that is not the next count (the writer's cell),
    and a snapshot that is not equal to the cells or, for MEM, holds other
    than ints (``true`` and ``1.0`` equal counts); the cell is then the
    first that differs, or the first missing or extra one.  ``nested`` is
    whether nothing broke replay and no one-shot cell was written twice:
    each snapshot then holds the cells written before it, so the
    snapshots nest.
    """
    cells = [0 if mem else None] * n
    rewritten = False
    for row in accesses:
        _turn, pid, _name, op, args, res = row
        if not 0 < pid <= n:
            return (row, pid), False
        if op == "write":
            value, i = args[0], pid - 1
            if mem:
                if type(value) is not int or value != cells[i] + 1:
                    return (row, pid), False
            elif cells[i] is not None:
                rewritten = True
            cells[i] = value
        elif op == "snapshot" and (res != cells or mem and not _INT.issuperset(map(type, res))):
            differ = (
                i for i, (got, want) in enumerate(zip(res, cells), 1)
                if got != want or mem and type(got) is not int
            )
            return (row, next(differ, min(len(res), n) + 1)), False
    return None, not rewritten


def _check_snapshot(index: TraceIndex) -> list[Verdict]:
    """Replay of every snapshot object and view containment of the
    one-shot ones, from one ``replay`` pass per object, shared with
    ``k2s``.  Only a one-shot object whose snapshots are not shown to
    nest has its snapshot views compared."""
    containment = broken = None
    for object_id in sorted(index.objects):
        if not object_id.startswith(("MEM", "SNAP1[", "SNAP2[")):
            continue
        accesses = index.objects[object_id]
        mem = object_id == "MEM"
        bad, nested = index.replayed(object_id)
        if bad is not None and broken is None:
            broken = {"object": object_id, "step": index.step(bad[0]), "cell": bad[1]}
        if mem or nested or containment is not None:
            continue
        snapshots = [row for row in accesses if row[3] == "snapshot"]
        # a view is the set of (cell number, value) of the written cells;
        # SNAP2 values are lists, hashed as tuples
        pair = first_incomparable([
            frozenset(
                (i, tuple(cell) if type(cell) is list else cell)
                for i, cell in enumerate(row[5], 1)
                if cell is not None
            )
            for row in snapshots
        ])
        if pair is not None:
            first, later = snapshots[pair[0]], snapshots[pair[1]]
            containment = {
                "object": object_id,
                "pids": [first[1], later[1]],
                "steps": [index.step(first), index.step(later)],
            }
    return [_verdict("snapshot.containment", containment), _verdict("snapshot.replay", broken)]


def _check_ksa(index: TraceIndex) -> list[Verdict]:
    out = []

    by_instance: dict[int, set[str]] = {}
    for _pid, nb, value in index.proposals:
        by_instance.setdefault(nb, set()).add(value)

    validity = None
    for pid, nb, value in index.decides:
        if value not in by_instance.get(nb, set()):
            validity = {"pid": pid, "instance": nb, "value": value}
            break
    out.append(_verdict("ksa.validity", validity))

    agreement = None
    decided: dict[int, set[str]] = {}
    for _pid, nb, value in index.decides:
        decided.setdefault(nb, set()).add(value)
    for nb in sorted(decided):
        if len(decided[nb]) > index.k:
            agreement = {"instance": nb, "values": sorted(decided[nb]), "k": index.k}
            break
    out.append(_verdict("ksa.agreement", agreement))

    oracle_validity = oracle_agreement = None
    for r in index.k2s_rounds:
        events = [row for row in index.objects.get(f"KSET[{r}]", ()) if row[3] == "propose"]
        proposed = {row[4][0] for row in events}
        decided_vals = {row[5] for row in events}
        bad = sorted(decided_vals - proposed)
        if bad and not oracle_validity:
            oracle_validity = {"instance": r, "values": bad}
        if len(decided_vals) > index.k and not oracle_agreement:
            oracle_agreement = {"instance": r, "values": sorted(decided_vals), "k": index.k}
    out.append(_verdict("ksa.oracle-validity", oracle_validity))
    out.append(_verdict("ksa.oracle-agreement", oracle_agreement))

    if not index.quiescent:
        out.append(_skip("ksa.termination"))
        return out
    term = None
    decided_by = {(pid, nb) for pid, nb, _ in index.decides}
    for pid, nb, _value in index.proposals:
        if pid in index.faulty:
            continue
        if (pid, nb) not in decided_by:
            term = {"pid": pid, "instance": nb}
            break
    out.append(_verdict("ksa.termination", term))
    return out


def _check_roundsync(index: TraceIndex) -> list[Verdict]:
    """After each checkpoint below ``r_end``, the non-faulty processes'
    deliveries must coincide again within k rounds: some later checkpoint
    at most k rounds on closes a window in which every process delivered
    one set of messages.  The checkpoints are the rounds in which every
    non-faulty process delivered a set, plus ``r_end``, the final delivery
    count (a number of messages, equal at every such process).  So a
    window can close at a round in which no process delivered; it then
    ends at the end of every process's sequence."""
    name = "roundsync.window"
    if not index.quiescent:
        return [_skip(name)]
    pids = index.nonfaulty
    if len(pids) < 2:
        return [_ok(name)]

    totals = {pid: sum(len(mids) for _, mids in index.set_seqs[pid]) for pid in pids}
    if len(set(totals.values())) != 1:
        return [_fail(name, {"reason": "unequal final delivery counts", "totals": totals})]
    r_end = totals[pids[0]]

    # Each process's sets sorted by round once and flattened into one
    # message list, with the offset in it of each checkpoint's first set:
    # the window from one checkpoint to a later one is then one slice.  Its
    # union does not depend on the order of the sets, so repeated or
    # out-of-order rounds give what a full scan of the sequence gives.
    common = set.intersection(*({r for r, _ in index.set_seqs[pid]} for pid in pids))
    checkpoints = sorted(common | {r_end})
    cuts = []  # per process: (messages in round order, offset of each checkpoint)
    for pid in pids:
        sets = sorted(index.set_seqs[pid], key=itemgetter(0))
        rounds = [r for r, _ in sets]
        starts = [0, *accumulate(len(mids) for _, mids in sets)]
        msgs = list(chain.from_iterable(mids for _, mids in sets))
        cuts.append((msgs, [starts[bisect_left(rounds, c)] for c in checkpoints]))

    def synchronized(lo: int, hi: int) -> bool:
        """Whether every process delivered one set of messages between
        checkpoints number lo and hi."""
        windows = (set(msgs[at[lo] : at[hi]]) for msgs, at in cuts)
        first = next(windows)
        return all(window == first for window in windows)

    # the checkpoints below r_end are the common rounds that open a window
    for lo, r in enumerate(checkpoints):
        if r >= r_end:
            break
        if not any(
            synchronized(lo, hi) for hi in range(lo + 1, bisect_right(checkpoints, r + index.k))
        ):
            return [
                _fail(
                    name,
                    {"round": r, "window": index.k, "reason": "no synchronization round"},
                )
            ]
    return [_ok(name)]


_SUITE_FUNCS = {
    "kbo": _check_kbo,
    "kscd": _check_kscd,
    "k2s": _check_k2s,
    "snapshot": _check_snapshot,
    "ksa": _check_ksa,
    "roundsync": _check_roundsync,
}
ALL_SUITES = tuple(_SUITE_FUNCS)


@pauses_cyclic_gc
def check_all(trace: Trace, suites=ALL_SUITES, timings: dict | None = None) -> list[Verdict]:
    """The verdicts of ``suites``, in that order.  ``timings``, if given,
    gets the wall seconds of building the index (``"index"``) and of each
    suite, in run order."""
    timings = {} if timings is None else timings
    start = perf_counter()
    index = TraceIndex(trace)
    timings["index"] = perf_counter() - start
    verdicts: list[Verdict] = []
    for suite in suites:
        fn = _SUITE_FUNCS.get(suite)
        if fn is None:
            raise CheckerError(f"unknown suite {suite!r}")
        start = perf_counter()
        verdicts.extend(fn(index))
        timings[suite] = perf_counter() - start
    return verdicts


def any_failure(verdicts) -> bool:
    return any(v.failed for v in verdicts)


def serialize_verdicts(verdicts) -> str:
    lines = [
        json.dumps(v.to_json_dict(), separators=(",", ":"), ensure_ascii=False)
        for v in verdicts
    ]
    return "\n".join(lines) + "\n"
