"""Shared drivers for randomized and exhaustive tests, and the helpers
only tests use: poset builders and queries, back-to-back K2S proposals,
scenario text, the width-k schedules, traces forged from event records
or delivery sequences, and the state key of a simulation."""

from __future__ import annotations

import json

from bocast.k2s import K2SInstance, RepeatedK2S
from bocast.kbo import unpack_order
from bocast.messages import sort_ids
from bocast.objects import SnapshotArray
from bocast.poset import Poset, PosetError, brute_force_antichain, order_bitsets
from bocast.rng import SplitMix64, derive
from bocast.scenario import ScenarioConfig, SchedulePolicy, WorkItem
from bocast.trace import Event, Recorder, Trace

STEPS_PER_PROPOSE = 5


def run_random_k2s_instance(seed: int, n: int, k: int):
    """Drive one K2S instance with a seeded random interleaving of its
    proposers' steps.

    Values may repeat across processes so the distinct-input bound gets
    exercised below n.  Returns (proposals, outputs) keyed by process.
    """
    rng = SplitMix64(seed)
    inst = K2SInstance(n, k, "first-k-adversarial", derive(seed, "oracle"), 0, Recorder().emit)
    values = {pid: f"v{1 + rng.randrange(n)}" for pid in range(1, n + 1)}

    outputs = {}
    remaining = {pid: STEPS_PER_PROPOSE for pid in range(1, n + 1)}
    for _ in range(n * STEPS_PER_PROPOSE):
        choices = sorted(remaining)
        pid = choices[rng.randrange(len(choices))]
        sets = inst.step(pid, values[pid])
        if sets is not None:
            outputs[pid] = sets
        remaining[pid] -= 1
        if remaining[pid] == 0:
            del remaining[pid]
    return values, outputs


def assert_k2s_properties(values: dict, outputs: dict, k: int) -> None:
    inputs = set(values.values())
    bound = min(k, len(inputs))
    for pid, sets in outputs.items():
        assert 1 <= len(sets) <= bound, (pid, len(sets), bound)
        for view in sets:
            assert 1 <= len(view) <= bound, (pid, sorted(view), bound)
            assert view <= inputs, (pid, sorted(view - inputs))
        chain = sorted(sets, key=len)
        for a, b in zip(chain, chain[1:]):
            assert a <= b, (pid, sorted(a), sorted(b))
    pids = sorted(outputs)
    for i, pa in enumerate(pids):
        for pb in pids[i + 1 :]:
            sa, sb = outputs[pa], outputs[pb]
            assert sa <= sb or sb <= sa, (pa, pb)


def one_shot_schedules(n: int):
    """All interleavings of n one-shot processes, each doing its write
    before its snapshot.  Yields pid sequences of length 2n where the
    first occurrence of a pid is its write and the second its snapshot."""

    def rec(progress):
        if all(phase == 2 for phase in progress.values()):
            yield []
            return
        for pid in sorted(progress):
            if progress[pid] == 2:
                continue
            progress[pid] += 1
            for rest in rec(progress):
                yield [pid] + rest
            progress[pid] -= 1

    yield from rec({pid: 0 for pid in range(1, n + 1)})


def replay_one_shot(n: int, schedule) -> dict[int, frozenset]:
    """Run one write/snapshot interleaving on a fresh one-shot array."""
    arr = SnapshotArray(n, "X", Recorder().emit, one_shot=True)
    seen = set()
    views = {}
    for pid in schedule:
        if pid not in seen:
            seen.add(pid)
            arr.write(pid, f"v{pid}")
        else:
            snap = arr.snapshot(pid)
            views[pid] = frozenset(
                (i + 1, v) for i, v in enumerate(snap) if v is not None
            )
    return views


def propose_workload(n: int, instances_per_pid: dict[int, list[int]]):
    return {
        pid: tuple(
            WorkItem(op="propose", instance=i, value=f"v{pid}.{i}") for i in insts
        )
        for pid, insts in instances_per_pid.items()
    }


def stack_config(
    n: int,
    k: int,
    seed: int,
    workload,
    crash_plan=(),
    schedule="seeded-random",
    oracle_policy="first-k-adversarial",
    step_budget=50_000,
    script=(),
) -> ScenarioConfig:
    policy = (
        SchedulePolicy("scripted", tuple(script))
        if schedule == "scripted"
        else SchedulePolicy(schedule)
    )
    return ScenarioConfig(
        n=n,
        k=k,
        seed=seed,
        schedule=policy,
        crash_plan=tuple(crash_plan),
        workload=workload,
        step_budget=step_budget,
        oracle_policy=oracle_policy,
    )


def width_k_scenario(k: int, variant: str = "broadcast", *, writers: int | None = None,
                     seed: int = 0, oracle_policy: str = "echo") -> ScenarioConfig:
    """A scripted schedule on which the stack reaches width ``writers``
    (k by default) with n = writers + 1.

    The writers p1..pw each broadcast, or propose v<p> to instance 0 in
    the ``propose`` variant; p(w+1), the reader, has no work.  The steps:

    1. for p = w..1, p publishes (main) and takes its MEM snapshot (task),
       so p sees and proposes p:0 in K2S round 0;
    2. the reader takes its MEM snapshot and proposes 1:0;
    3. pw..p1 each propose, write SNAP1 and read it: p's view is
       {p:0, ..., w:0};
    4. the reader runs its five K2S steps and delivers all w messages in
       one set, so in the order 1:0, ..., w:0;
    5. broadcast: pw..p1 each write SNAP2, then pw..p1 each read it; each
       sees every view and delivers w:0 first, then the others downwards.
       propose: p1..pw each write SNAP2 and read it in turn; p sees the
       views of p1..p and first delivers p:0, so decides v<p>.

    Round robin finishes the run.
    """
    w = k if writers is None else writers
    reader = w + 1
    down = range(w, 0, -1)
    script = [token for p in down for token in ((p, "main"), (p, "task"))]
    script.append((reader, "task"))
    script += [(p, "task") for p in down for _ in range(3)]
    script += [(reader, "task")] * 5
    if variant == "broadcast":
        script += [(p, "task") for p in down] * 2
        workload = {p: (WorkItem(op="broadcast", payload=f"m{p}"),) for p in range(1, reader)}
    elif variant == "propose":
        script += [(p, "task") for p in range(1, reader) for _ in range(2)]
        workload = {
            p: (WorkItem(op="propose", instance=0, value=f"v{p}"),) for p in range(1, reader)
        }
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return stack_config(reader, k, seed, workload, schedule="scripted", script=script,
                        oracle_policy=oracle_policy, step_budget=1_000)


def sampled_stack_config(n: int, k: int, seed: int, max_msgs=4, crash_turn_range=200,
                         oracle_policy="first-k-adversarial") -> ScenarioConfig:
    """One fuzzed scenario: sampled per-process propose workloads and a
    sampled crash plan covering 0..n-1 victims."""
    rng = SplitMix64(derive(seed, "scenario"))
    instances = {}
    for pid in range(1, n + 1):
        count = 1 + rng.randrange(max_msgs)
        instances[pid] = sorted(rng.sample(range(max_msgs + 2), count))
    ncrash = rng.randrange(n)
    victims = rng.sample(range(1, n + 1), ncrash)
    plan = tuple(sorted((pid, rng.randrange(crash_turn_range)) for pid in victims))
    return stack_config(
        n, k, derive(seed, "run"), propose_workload(n, instances), crash_plan=plan,
        oracle_policy=oracle_policy,
    )


def state_key(sim) -> tuple:
    """A hashable key of what decides a ``Simulation``'s future deliver
    and decide rows under the same further picks, and of the history
    that verdicts read beside it: each process's delivery sequence
    (``prefix`` and ``ahead`` hold only the delivered set).

    Per process: the workload position and main state, the engine
    (``prefix``, ``ahead``, ``seq``, ``wait_for``, ``prop``)
    and the ``DecisionTable``.  Shared: the MEM cells, who crashed, and
    per built round its ``K2SInstance`` (``steps``, ``decided``,
    ``views``, the SNAP cells and who wrote and snapped them, KSET's
    distinct values, its proposers and its RNG state).  It leaves out
    the turn, the starvation stamps, the schedule RNG and every other
    trace row.  A crash plan is timed, not state, so the key speaks for
    futures only once every planned crash has fired."""
    delivered = {pid: [] for pid in sim.procs}
    for row in sim.recorder.rows:
        if len(row) == 4 and row[2] == "deliver-msg":
            delivered[row[1]].append(row[3]["msg"])
    procs = tuple(
        (proc.widx, proc.state,
         tuple(e.prefix), frozenset(e.ahead), tuple(e.seq), tuple(e.wait_for), e.prop,
         tuple(sorted(proc.table.first.items())),
         tuple(delivered[pid]))
        for pid, proc in sorted(sim.procs.items())
        for e in (proc.engine,)
    )
    rounds = tuple(
        (r, tuple(inst.steps), tuple(sorted(inst.decided.items())),
         tuple(sorted(inst.views.items())), _cells_key(inst.snap1), _cells_key(inst.snap2),
         tuple(inst.kset.distinct), frozenset(inst.kset._proposed), inst.kset.rng._state)
        for r, inst in sorted(sim.kss.instances.items())
    )
    return procs, tuple(sim.mem.array.cells), frozenset(sim.crashed), rounds


def _cells_key(arr: SnapshotArray) -> tuple:
    """A one-shot array's cells (SNAP2's hold lists), writers and snappers."""
    cells = tuple(tuple(c) if isinstance(c, list) else c for c in arr.cells)
    return cells, frozenset(arr._wrote), frozenset(arr._snapped)


def trace_of_events(config: ScenarioConfig, events, outcome="quiescent", turns=0) -> Trace:
    """A trace whose rows are ``events`` (``Event`` records) written as
    format-3 rows: the inverse of ``Trace.events``."""
    rows = []
    for ev in events:
        if ev.kind == "object-access":
            p = ev.payload
            rows.append([ev.turn, ev.pid, p["object"], p["op"], p["args"], p["result"]])
        else:
            rows.append([ev.turn, ev.pid, ev.kind, ev.payload])
    return Trace(config, rows, outcome, turns)


def forged_trace(n: int, k: int, steps, outcome="quiescent") -> Trace:
    """A trace of deliveries written by hand, one step per turn, made
    through ``trace_of_events``.  A step is one of:

    * ``(pid, payload)``: pid broadcasts ``payload`` as its next message;
    * ``(pid, (id, ...))``: pid delivers that set, one deliver-set event
      and then a deliver-msg per member in ``unpack_order``, as a run does;
    * ``(pid, None)``: pid crashes.

    The config lists the broadcasts as workload and the crashes as plan."""
    events, crash_plan = [], []
    workload: dict[int, list] = {}
    delivered: dict[int, int] = {}
    for turn, (pid, step) in enumerate(steps):
        if step is None:
            events.append(Event(pid, "crash", {}, turn))
            crash_plan.append((pid, turn))
        elif isinstance(step, str):
            items = workload.setdefault(pid, [])
            mid = f"{pid}:{len(items)}"
            items.append(WorkItem(op="broadcast", payload=step))
            events.append(Event(pid, "invoke", {"op": "kbo_broadcast", "msg": mid, "payload": step}, turn))
            events.append(Event(pid, "return", {"op": "kbo_broadcast", "msg": mid}, turn))
        else:
            order = unpack_order(step)
            position = delivered.get(pid, 0)
            delivered[pid] = position + len(order)
            events.append(Event(pid, "deliver-set", {"round": position, "set": order}, turn))
            events += [
                Event(pid, "deliver-msg", {"msg": mid, "position": i}, turn)
                for i, mid in enumerate(order, position)
            ]
    config = stack_config(
        n, k, 0, {pid: tuple(items) for pid, items in workload.items()},
        crash_plan=crash_plan, schedule="round-robin", step_budget=max(1, len(steps)),
    )
    return trace_of_events(config, events, outcome, len(steps))


def trace_of_deliveries(sequences, crashed):
    """A trace where each pid delivers its sequence, then a crashed pid crashes."""
    events = []
    for pid, seq in enumerate(sequences, start=1):
        events += [Event(pid, "deliver-msg", {"msg": mid}) for mid in seq]
        if pid in crashed:
            events.append(Event(pid, "crash", {}))
    return trace_of_events(stack_config(len(sequences), 1, 0, {}), events)


def crossing_chains(seed: int, m: int, w: int, processes: int) -> list[list[str]]:
    """Per-process delivery sequences of w chains of m messages in all,
    each process delivering a seeded interleaving of the chains.  The ids
    are ``s:i`` for senders 1..processes, shuffled across the chains, so
    no chain follows a sender and key order is far from every extension.
    ``m`` is a multiple of ``processes``."""
    rng = SplitMix64(seed)
    per_sender = m // processes
    ids = shuffled((f"{s}:{i}" for s in range(1, processes + 1) for i in range(per_sender)), rng)
    chains = [ids[c::w] for c in range(w)]
    sequences = []
    for _ in range(processes):
        heads = [list(reversed(chain)) for chain in chains]
        seq = []
        while heads:
            i = rng.randrange(len(heads))
            seq.append(heads[i].pop())
            if not heads[i]:
                del heads[i]
        sequences.append(seq)
    return sequences


def dumps(config: ScenarioConfig) -> str:
    """The scenario file text of ``config``."""
    return json.dumps(config.to_json_dict(), indent=2, ensure_ascii=False) + "\n"


def shuffled(seq, rng: SplitMix64) -> list:
    """The items of ``seq`` in a Fisher-Yates shuffle drawn from ``rng``."""
    items = list(seq)
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]
    return items


# --- K2S proposals back to back ----------------------------------------------------


def k2s_propose(inst: K2SInstance, pid: int, value: str) -> frozenset:
    """Run the five steps of one proposal back to back; the family of views."""
    for _ in range(STEPS_PER_PROPOSE - 1):
        assert inst.step(pid, value) is None
    return inst.step(pid, value)


def repeated_k2s_propose(kss: RepeatedK2S, pid: int, round_no: int, value: str) -> frozenset:
    return k2s_propose(kss.instance(round_no), pid, value)


# --- posets: queries, builders, a brute-force width -------------------------------


def lt(poset: Poset, x, y) -> bool:
    return bool(poset.less[x] >> poset.elements.index(y) & 1)


def comparable(poset: Poset, x, y) -> bool:
    return x == y or lt(poset, x, y) or lt(poset, y, x)


def is_antichain(poset: Poset, xs) -> bool:
    """Whether ``xs`` are distinct and none lies above another."""
    pos = {x: i for i, x in enumerate(poset.elements)}
    xs = list(xs)
    members = sum(1 << pos[x] for x in set(xs))
    return members.bit_count() == len(xs) and not any(poset.less[x] & members for x in xs)


def is_chain(poset: Poset, xs) -> bool:
    pos = {x: i for i, x in enumerate(poset.elements)}
    xs = list(xs)
    return all(poset.less[x] >> pos[y] & 1 for x, y in zip(xs, xs[1:]))


def brute_force_width(poset: Poset) -> int:
    """Maximum antichain size by exhaustive subset search; <= 20 elements."""
    return len(brute_force_antichain(
        poset.elements, lambda x, y: comparable(poset, x, y), key=poset.key
    ))


def naive_is_strict_order(elements, less) -> bool:
    """Set-based definition: irreflexive, antisymmetric and transitive.
    ``less[x]`` is the set of elements strictly above x."""
    return all(
        x not in less[x]
        and all(x not in less[y] and less[y] <= less[x] for y in less[x])
        for x in elements
    )


def pairwise_less(sequences) -> dict[str, set]:
    """The agreed order by its definition, one pair at a time: a sequence
    orders x before y when it holds x before y, or holds x and not y; x
    lies below y iff some sequence orders x before y and none y before x."""
    positions = [{mid: i for i, mid in enumerate(seq)} for seq in sequences]
    elements = sort_ids({mid for seq in sequences for mid in seq})

    def orders(pos, x, y):
        return x in pos and (y not in pos or pos[x] < pos[y])

    return {
        x: {
            y for y in elements
            if any(orders(pos, x, y) for pos in positions)
            and not any(orders(pos, y, x) for pos in positions)
        }
        for x in elements
    }


def lists_an_extension(elements, less) -> bool:
    """Whether ``elements`` lists x before y whenever y is in ``less[x]``,
    the set of elements strictly above x: a linear extension."""
    position = {x: i for i, x in enumerate(elements)}
    return all(position[x] < position[y] for x, ys in less.items() for y in ys)


def from_edges(elements, edges, key=None) -> Poset:
    """Poset from cover/arbitrary forward edges; closes transitively.

    ``edges`` must be acyclic; cycles surface as PosetError.  The closure
    is taken in reverse topological order (Kahn 1962) as bitsets over the
    key order, with no recursion, so edge chains of any length work.
    """
    order = sorted(elements, key=key if key is not None else lambda x: x)
    index = {x: i for i, x in enumerate(order)}
    if len(index) != len(order):
        raise PosetError("duplicate elements")
    succ = {x: set() for x in order}
    for x, y in edges:
        if x not in index or y not in index:
            raise PosetError(f"edge ({x!r}, {y!r}) names an unknown element")
        succ[x].add(y)
    indegree = dict.fromkeys(order, 0)
    for ys in succ.values():
        for y in ys:
            indegree[y] += 1
    topo = [x for x in order if not indegree[x]]
    for x in topo:  # grows while it is walked
        for y in succ[x]:
            indegree[y] -= 1
            if not indegree[y]:
                topo.append(y)
    if len(topo) != len(order):
        stuck = next(x for x in order if indegree[x])
        raise PosetError(f"edges form a cycle; {stuck!r} lies on or after it")
    less = {}
    for x in reversed(topo):
        mask = 0
        for y in succ[x]:
            mask |= less[y] | 1 << index[y]
        less[x] = mask
    return Poset(order, less, key=key)


def intersect_orders(sequences, key=None) -> Poset:
    """Poset from the intersection of total orders over a common element set,
    numbered along ``sequences[0]``: a linear extension of the intersection,
    as ``checker.build_order`` numbers its elements."""
    if not sequences:
        return Poset([], {}, key=key)
    elements = list(sequences[0])
    index = {x: i for i, x in enumerate(elements)}
    less = dict(zip(elements, order_bitsets(sequences, index)))
    return Poset(elements, less, key=key)


def random_poset(seed: int, max_elems: int = 12) -> Poset:
    """Seeded random poset: either a closed random DAG or an intersection
    of a few random total orders (the delivery-order shape)."""
    rng = SplitMix64(seed)
    n = rng.randrange(max_elems + 1)
    elements = list(range(n))
    if rng.randrange(2) == 0:
        threshold = rng.randrange(101)
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.randrange(100) < threshold
        ]
        return from_edges(elements, edges)
    return intersect_orders([shuffled(elements, rng) for _ in range(1 + rng.randrange(4))])
