"""Offline trace verification.

Rebuilds, from trace events alone, the per-process delivery orders, the
agreed partial order (the intersection of the per-process orders), its
width and chain decomposition, and evaluates the property suites:

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
                 abstraction itself, so it only makes sense on stack
                 traces.

Liveness properties (terminations, round synchronization) are evaluated
only on quiescent traces and reported as not-evaluated otherwise.  All
verdicts are always emitted; a failing suite never short-circuits the
others.  Failing verdicts carry a minimal machine-readable witness.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import combinations
from operator import itemgetter

from .messages import msg_key, sort_ids
from .poset import Poset, PosetError, brute_force_antichain, order_bitsets
from .trace import Trace

ALL_SUITES = ("kbo", "kscd", "k2s", "snapshot", "ksa", "roundsync")

SCOPES = ("non-faulty-only", "all-pairs-delivered-by-both")


class CheckerError(ValueError):
    pass


@dataclass(frozen=True)
class Verdict:
    property: str
    status: str  # "pass" | "fail" | "not-evaluated"
    witness: dict | None = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

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
    """Per-process and per-object views of one trace."""

    def __init__(self, trace: Trace):
        self.trace = trace
        cfg = trace.config
        self.n = cfg.n
        self.k = cfg.k
        self.quiescent = trace.quiescent
        pids = range(1, self.n + 1)

        self.faulty: set[int] = set()
        self.broadcasts: dict[str, tuple[int, int]] = {}  # mid -> (pid, step)
        self.invokes: dict[int, list[dict]] = {pid: [] for pid in pids}
        self.returns: dict[int, list[dict]] = {pid: [] for pid in pids}
        self.decides: list[tuple[int, int, str]] = []  # (pid, instance, value)
        self.proposals: list[tuple[int, int, str]] = []  # (pid, instance, value)
        self.set_seqs: dict[int, list[tuple[int, tuple[str, ...]]]] = {pid: [] for pid in pids}
        self.msg_seqs: dict[int, list[str]] = {pid: [] for pid in pids}
        self.objects: dict[str, list] = {}

        for ev in trace.events:
            kind = ev.kind
            if kind == "crash":
                self.faulty.add(ev.pid)
            elif kind == "invoke":
                self.invokes[ev.pid].append(ev.payload)
                mid = ev.payload.get("msg")
                if mid is not None and mid not in self.broadcasts:
                    self.broadcasts[mid] = (ev.pid, ev.step)
                if ev.payload.get("op") == "ksa_propose":
                    self.proposals.append(
                        (ev.pid, ev.payload["instance"], ev.payload["value"])
                    )
            elif kind == "return":
                self.returns[ev.pid].append(ev.payload)
            elif kind == "decide":
                self.decides.append((ev.pid, ev.payload["instance"], ev.payload["value"]))
            elif kind == "deliver-set":
                self.set_seqs[ev.pid].append(
                    (ev.payload["round"], tuple(ev.payload["set"]))
                )
            elif kind == "deliver-msg":
                self.msg_seqs[ev.pid].append(ev.payload["msg"])
            elif kind == "object-access":
                self.objects.setdefault(ev.payload["object"], []).append(
                    (ev.step, ev.pid, ev.payload["op"], ev.payload["args"], ev.payload["result"])
                )

        self.nonfaulty = [pid for pid in pids if pid not in self.faulty]

    def k2s_instances(self) -> list[int]:
        rounds = set()
        for object_id in self.objects:
            m = re.fullmatch(r"(?:KSET|SNAP1|SNAP2)\[(\d+)\]", object_id)
            if m:
                rounds.add(int(m.group(1)))
        return sorted(rounds)


@dataclass
class DeliveryOrder:
    """Per-process delivery sequences restricted to a scope of processes.

    ``boundaries`` carries, per process, the cumulative positions at which
    the delivered sets end; together with ``sequences`` it preserves both
    the per-message order and the set structure."""

    sequences: dict[int, list[str]]
    boundaries: dict[int, list[int]]
    faulty: set[int]
    duplicates: list[tuple[int, str]]


def delivery_order(trace_or_index, scope: str = "non-faulty-only") -> DeliveryOrder:
    index = trace_or_index if isinstance(trace_or_index, TraceIndex) else TraceIndex(trace_or_index)
    if scope not in SCOPES:
        raise CheckerError(f"unknown scope {scope!r}")
    if scope == "non-faulty-only":
        pids = index.nonfaulty
    else:
        pids = list(range(1, index.n + 1))
    sequences = {}
    boundaries = {}
    duplicates = []
    for pid in pids:
        seen = set()
        seq = []
        for mid in index.msg_seqs[pid]:
            if mid in seen:
                duplicates.append((pid, mid))
                continue
            seen.add(mid)
            seq.append(mid)
        sequences[pid] = seq
        total = 0
        ends = []
        for _, mids in index.set_seqs[pid]:
            total += len(mids)
            ends.append(total)
        boundaries[pid] = ends
    return DeliveryOrder(
        sequences=sequences,
        boundaries=boundaries,
        faulty=set(index.faulty),
        duplicates=duplicates,
    )


@dataclass
class OrderResult:
    """The agreed order.  ``strict`` maps each element to the int bitset of
    the elements strictly above it, bit ``i`` standing for ``elements[i]``."""

    poset: Poset | None
    elements: list[str]
    strict: dict[str, int]
    excluded: list[str]
    order: DeliveryOrder
    valid: bool


def build_order(trace_or_index, scope: str = "non-faulty-only") -> OrderResult:
    """The agreed delivery order: m below m' iff every scoped process that
    delivered both delivered m first (and at least one did).

    Messages delivered by no scoped process are excluded and reported.
    Duplicate deliveries are dropped (first occurrence wins); the
    integrity check reports them separately.
    """
    index = trace_or_index if isinstance(trace_or_index, TraceIndex) else TraceIndex(trace_or_index)
    order = delivery_order(index, scope)
    elements = sort_ids({mid for seq in order.sequences.values() for mid in seq})
    position = {mid: i for i, mid in enumerate(elements)}
    less = dict(zip(elements, order_bitsets(order.sequences.values(), position)))
    delivered_anywhere = {
        mid for pid in range(1, index.n + 1) for mid in index.msg_seqs[pid]
    }
    excluded = sort_ids(delivered_anywhere - set(elements))
    try:
        poset = Poset(elements, less, key=msg_key)
        valid = True
    except PosetError:
        poset = None
        valid = False
    return OrderResult(
        poset=poset, elements=elements, strict=less, excluded=excluded, order=order, valid=valid
    )


def width_and_antichain(result: OrderResult) -> tuple[int, list[str]]:
    """Width of the agreed order with a maximum antichain witness.

    Falls back to exhaustive search when the raw relation is not
    transitive (possible on forged traces that break termination)."""
    if result.poset is not None:
        w = result.poset.width()
        return w, result.poset.max_antichain()
    strict = result.strict
    position = {mid: i for i, mid in enumerate(result.elements)}

    def comparable(x, y):
        return bool(strict[x] >> position[y] & 1 or strict[y] >> position[x] & 1)

    witness = brute_force_antichain(result.elements, comparable, key=msg_key)
    return len(witness), witness


def set_positions(sets) -> dict[str, int]:
    """Message id -> index of the set that delivered it (the last such set
    for a message delivered twice)."""
    return {mid: i for i, mids in enumerate(sets) for mid in mids}


def sets_cross(pos_a: dict[str, int], pos_b: dict[str, int]) -> bool:
    """Whether two messages sit in distinct sets in opposite order at two
    processes.

    One sweep over a's sets in order, keeping the largest set index at b
    among a's earlier sets: a message whose index at b is below it has
    crossed.  O(M log M) for the sort.
    """
    done = seen = -1  # max index at b over a's earlier sets / over all so far
    current = None
    for mid, ia in sorted(pos_a.items(), key=itemgetter(1)):
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


def _check_kbo(index: TraceIndex) -> list[Verdict]:
    out = []

    offender = None
    for pid in range(1, index.n + 1):
        for mid in index.msg_seqs[pid]:
            if mid not in index.broadcasts:
                offender = {"pid": pid, "msg": mid}
                break
        if offender:
            break
    out.append(_ok("kbo.validity") if not offender else _fail("kbo.validity", offender))

    dup = None
    for pid in range(1, index.n + 1):
        seen = {}
        for pos, mid in enumerate(index.msg_seqs[pid]):
            if mid in seen:
                dup = {"pid": pid, "msg": mid, "positions": [seen[mid], pos]}
                break
            seen[mid] = pos
        if dup:
            break
    out.append(_ok("kbo.integrity") if not dup else _fail("kbo.integrity", dup))

    result = build_order(index)
    try:
        width, antichain = width_and_antichain(result)
    except ValueError:
        # not a partial order and too large for exhaustive search: the
        # trace is already deeply broken, report conservatively
        out.append(
            _fail(
                "kbo.bounded",
                {"reason": "delivery relation is not a partial order", "width": None},
            )
        )
    else:
        witness = {"width": width, "antichain": antichain, "excluded": result.excluded}
        out.append(
            _ok("kbo.bounded") if width <= index.k else _fail("kbo.bounded", witness)
        )

    if not index.quiescent:
        out.append(_skip("kbo.termination-1"))
        out.append(_skip("kbo.termination-2"))
        return out

    delivered = {pid: set(index.msg_seqs[pid]) for pid in index.nonfaulty}
    t1 = None
    for pid in index.nonfaulty:
        if len(index.returns[pid]) != len(index.invokes[pid]):
            t1 = {"pid": pid, "reason": "broadcast did not return"}
            break
        for inv in index.invokes[pid]:
            if inv["msg"] not in delivered[pid]:
                t1 = {"pid": pid, "msg": inv["msg"], "reason": "own message not delivered"}
                break
        if t1:
            break
    out.append(_ok("kbo.termination-1") if not t1 else _fail("kbo.termination-1", t1))

    t2 = None
    delivered_anywhere = sort_ids(
        {mid for pid in range(1, index.n + 1) for mid in index.msg_seqs[pid]}
    )
    for mid in delivered_anywhere:
        for pid in index.nonfaulty:
            if mid not in delivered[pid]:
                t2 = {"msg": mid, "pid": pid}
                break
        if t2:
            break
    out.append(_ok("kbo.termination-2") if not t2 else _fail("kbo.termination-2", t2))
    return out


def _check_kscd(index: TraceIndex) -> list[Verdict]:
    out = []

    offender = None
    for pid in range(1, index.n + 1):
        for _, mids in index.set_seqs[pid]:
            for mid in mids:
                if mid not in index.broadcasts:
                    offender = {"pid": pid, "msg": mid}
                    break
            if offender:
                break
        if offender:
            break
    out.append(_ok("kscd.validity") if not offender else _fail("kscd.validity", offender))

    dup = None
    for pid in range(1, index.n + 1):
        seen = {}
        for setno, (_, mids) in enumerate(index.set_seqs[pid]):
            for mid in mids:
                if mid in seen:
                    dup = {"pid": pid, "msg": mid, "sets": [seen[mid], setno]}
                    break
                seen[mid] = setno
            if dup:
                break
        if dup:
            break
    out.append(_ok("kscd.integrity") if not dup else _fail("kscd.integrity", dup))

    oversize = None
    for pid in range(1, index.n + 1):
        for round_no, mids in index.set_seqs[pid]:
            if len(mids) > index.k:
                oversize = {"pid": pid, "round": round_no, "set": list(mids)}
                break
        if oversize:
            break
    out.append(_ok("kscd.bounded") if not oversize else _fail("kscd.bounded", oversize))

    # No-crossing rule between distinct sets; the witness is one
    # (m, m', pid, pid') tuple found in canonical scan order.  The sweep
    # finds the first crossing pair of processes; only that pair pays for
    # the canonical scan.
    setpos = {
        pid: set_positions(mids for _, mids in index.set_seqs[pid])
        for pid in range(1, index.n + 1)
    }
    crossing = None
    for pa, pb in combinations(sorted(setpos), 2):
        if sets_cross(setpos[pa], setpos[pb]):
            first_a, later_a = first_crossing(setpos[pa], setpos[pb])
            crossing = {
                "msg_first": first_a,
                "msg_later": later_a,
                "pid": pa,
                "pid_reversed": pb,
            }
            break
    out.append(_ok("kscd.ordering") if not crossing else _fail("kscd.ordering", crossing))

    if not index.quiescent:
        out.append(_skip("kscd.termination-1"))
        out.append(_skip("kscd.termination-2"))
        return out

    delivered = {
        pid: {mid for _, mids in index.set_seqs[pid] for mid in mids} for pid in index.nonfaulty
    }
    t1 = None
    for pid in index.nonfaulty:
        if len(index.returns[pid]) != len(index.invokes[pid]):
            t1 = {"pid": pid, "reason": "broadcast did not return"}
            break
        for inv in index.invokes[pid]:
            if inv["msg"] not in delivered[pid]:
                t1 = {"pid": pid, "msg": inv["msg"], "reason": "own message not set-delivered"}
                break
        if t1:
            break
    out.append(_ok("kscd.termination-1") if not t1 else _fail("kscd.termination-1", t1))

    t2 = None
    anywhere = sort_ids(
        {mid for pid in range(1, index.n + 1) for _, mids in index.set_seqs[pid] for mid in mids}
    )
    for mid in anywhere:
        for pid in index.nonfaulty:
            if mid not in delivered[pid]:
                t2 = {"msg": mid, "pid": pid}
                break
        if t2:
            break
    out.append(_ok("kscd.termination-2") if not t2 else _fail("kscd.termination-2", t2))
    return out


def _view_from_event(value):
    return frozenset(value) if value is not None else None


def _check_k2s(index: TraceIndex) -> list[Verdict]:
    out = []
    instances = index.k2s_instances()

    proposals: dict[int, dict[int, str]] = {}
    outputs: dict[int, dict[int, frozenset]] = {}
    for r in instances:
        proposals[r] = {}
        for _, pid, op, args, _res in index.objects.get(f"KSET[{r}]", ()):
            if op == "propose":
                proposals[r][pid] = args[0]
        outputs[r] = {}
        for _, pid, op, _args, res in index.objects.get(f"SNAP2[{r}]", ()):
            if op == "snapshot":
                outputs[r][pid] = frozenset(
                    _view_from_event(cell) for cell in res if cell is not None
                )

    def inputs_of(r: int) -> set:
        return set(proposals[r].values())

    validity = set_size = view_size = intra = inter = None
    for r in instances:
        inputs = inputs_of(r)
        bound = min(index.k, len(inputs)) if inputs else 0
        for pid in sorted(outputs[r]):
            sets = outputs[r][pid]
            for view in sets:
                bad = sorted(v for v in view if v not in inputs)
                if bad and not validity:
                    validity = {"instance": r, "pid": pid, "values": bad}
            if not (1 <= len(sets) <= bound) and not set_size:
                set_size = {"instance": r, "pid": pid, "sets": len(sets), "bound": bound}
            for view in sets:
                if not (1 <= len(view) <= bound) and not view_size:
                    view_size = {"instance": r, "pid": pid, "view": sorted(view), "bound": bound}
            views = sorted(sets, key=len)
            for i in range(len(views) - 1):
                if not views[i] <= views[i + 1] and not intra:
                    intra = {
                        "instance": r,
                        "pid": pid,
                        "views": [sorted(views[i]), sorted(views[i + 1])],
                    }
        pids_out = sorted(outputs[r])
        for i in range(len(pids_out)):
            for j in range(i + 1, len(pids_out)):
                si = outputs[r][pids_out[i]]
                sj = outputs[r][pids_out[j]]
                if not (si <= sj or sj <= si) and not inter:
                    inter = {"instance": r, "pids": [pids_out[i], pids_out[j]]}

    out.append(_ok("k2s.validity") if not validity else _fail("k2s.validity", validity))
    out.append(_ok("k2s.set-size") if not set_size else _fail("k2s.set-size", set_size))
    out.append(_ok("k2s.view-size") if not view_size else _fail("k2s.view-size", view_size))
    out.append(_ok("k2s.intra-inclusion") if not intra else _fail("k2s.intra-inclusion", intra))
    out.append(_ok("k2s.inter-inclusion") if not inter else _fail("k2s.inter-inclusion", inter))

    if not index.quiescent:
        out.append(_skip("k2s.termination"))
        return out
    term = None
    for r in instances:
        for pid in sorted(proposals[r]):
            if pid in index.faulty:
                continue
            if pid not in outputs[r]:
                term = {"instance": r, "pid": pid}
                break
        if term:
            break
    out.append(_ok("k2s.termination") if not term else _fail("k2s.termination", term))
    return out


def _canon_cell(value):
    if isinstance(value, list):
        return tuple(value) if not value or not isinstance(value[0], list) else tuple(
            tuple(v) for v in value
        )
    return value


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


def _is_count(value, expect: int) -> bool:
    return type(value) is int and value == expect  # not bool, not float


def _check_snapshot(index: TraceIndex) -> list[Verdict]:
    out = []

    containment = None
    for object_id in sorted(index.objects):
        if not object_id.startswith(("SNAP1[", "SNAP2[")):
            continue
        views = []
        for step, pid, op, _args, res in index.objects[object_id]:
            if op == "snapshot":
                entries = frozenset(
                    (i, _canon_cell(cell)) for i, cell in enumerate(res) if cell is not None
                )
                views.append((step, pid, entries))
        pair = first_incomparable([entries for _, _, entries in views])
        if pair is not None:
            i, j = pair
            containment = {
                "object": object_id,
                "pids": [views[i][1], views[j][1]],
                "steps": [views[i][0], views[j][0]],
            }
            break
    out.append(
        _ok("snapshot.containment")
        if not containment
        else _fail("snapshot.containment", containment)
    )

    # MEM cells are counts: an unwritten cell reads 0, and each write by p
    # must raise p's count by exactly one.
    replay = None
    for object_id in sorted(index.objects):
        if not object_id.startswith(("MEM", "SNAP1[", "SNAP2[")):
            continue
        mem = object_id == "MEM"
        cells: dict[int, object] = {}
        for step, pid, op, args, res in sorted(index.objects[object_id]):
            if op == "write":
                value = _canon_cell(args[0])
                if mem and not _is_count(value, cells.get(pid, 0) + 1):
                    replay = {"object": object_id, "step": step, "cell": pid}
                    break
                cells[pid] = value
            elif op == "snapshot":
                for i, cell in enumerate(res):
                    if mem:
                        ok = _is_count(cell, cells.get(i + 1, 0))
                    else:
                        expect = cells.get(i + 1)
                        ok = (_canon_cell(cell) if cell is not None else None) == expect
                    if not ok:
                        replay = {"object": object_id, "step": step, "cell": i + 1}
                        break
            if replay:
                break
        if replay:
            break
    out.append(_ok("snapshot.replay") if not replay else _fail("snapshot.replay", replay))
    return out


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
    out.append(_ok("ksa.validity") if not validity else _fail("ksa.validity", validity))

    agreement = None
    decided: dict[int, set[str]] = {}
    for _pid, nb, value in index.decides:
        decided.setdefault(nb, set()).add(value)
    for nb in sorted(decided):
        if len(decided[nb]) > index.k:
            agreement = {"instance": nb, "values": sorted(decided[nb]), "k": index.k}
            break
    out.append(_ok("ksa.agreement") if not agreement else _fail("ksa.agreement", agreement))

    oracle_validity = oracle_agreement = None
    for r in index.k2s_instances():
        events = [e for e in index.objects.get(f"KSET[{r}]", ()) if e[2] == "propose"]
        proposed = {args[0] for _, _, _, args, _ in events}
        decided_vals = {res for _, _, _, _, res in events}
        bad = sorted(decided_vals - proposed)
        if bad and not oracle_validity:
            oracle_validity = {"instance": r, "values": bad}
        if len(decided_vals) > index.k and not oracle_agreement:
            oracle_agreement = {"instance": r, "values": sorted(decided_vals), "k": index.k}
    out.append(
        _ok("ksa.oracle-validity")
        if not oracle_validity
        else _fail("ksa.oracle-validity", oracle_validity)
    )
    out.append(
        _ok("ksa.oracle-agreement")
        if not oracle_agreement
        else _fail("ksa.oracle-agreement", oracle_agreement)
    )

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
    out.append(_ok("ksa.termination") if not term else _fail("ksa.termination", term))
    return out


def _check_roundsync(index: TraceIndex) -> list[Verdict]:
    name = "roundsync.window"
    if not index.quiescent:
        return [_skip(name)]
    pids = index.nonfaulty
    if len(pids) < 2:
        return [_ok(name)]

    sets_by_round = {pid: dict(index.set_seqs[pid]) for pid in pids}
    totals = {pid: sum(len(mids) for _, mids in index.set_seqs[pid]) for pid in pids}
    if len(set(totals.values())) != 1:
        return [_fail(name, {"reason": "unequal final delivery counts", "totals": totals})]
    r_end = totals[pids[0]]

    participated = [set(sets_by_round[pid]) for pid in pids]
    common = sorted(set.intersection(*participated)) if participated else []
    checkpoints = set(common) | {r_end}

    def msgs_between(pid: int, lo: int, hi: int) -> frozenset:
        acc = set()
        for r, mids in index.set_seqs[pid]:
            if lo <= r < hi:
                acc.update(mids)
        return frozenset(acc)

    for r in common:
        if r >= r_end:
            continue
        found = None
        for r2 in range(r + 1, r + index.k + 1):
            if r2 not in checkpoints:
                continue
            cumulative = {msgs_between(pid, r, r2) for pid in pids}
            if len(cumulative) == 1:
                found = r2
                break
        if found is None:
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


def check_all(trace: Trace, suites=ALL_SUITES) -> list[Verdict]:
    index = TraceIndex(trace)
    verdicts: list[Verdict] = []
    for suite in suites:
        fn = _SUITE_FUNCS.get(suite)
        if fn is None:
            raise CheckerError(f"unknown suite {suite!r}")
        verdicts.extend(fn(index))
    return verdicts


def any_failure(verdicts) -> bool:
    return any(v.failed for v in verdicts)


def serialize_verdicts(verdicts) -> str:
    lines = [
        json.dumps(v.to_json_dict(), separators=(",", ":"), ensure_ascii=False)
        for v in verdicts
    ]
    return "\n".join(lines) + "\n"
