"""Shared drivers for randomized and exhaustive object-level tests."""

from __future__ import annotations

from bocast.k2s import K2SInstance
from bocast.objects import SetAgreementOracle, SnapshotArray
from bocast.rng import SplitMix64, derive
from bocast.scenario import ScenarioConfig, SchedulePolicy, WorkItem

PHASES_PER_PROPOSE = 5


def run_random_k2s_instance(seed: int, n: int, k: int):
    """Drive one K2S instance with a seeded random phase interleaving.

    Values may repeat across processes so the distinct-input bound gets
    exercised below n.  Returns (proposals, outputs) keyed by process.
    """
    rng = SplitMix64(seed)
    oracle = SetAgreementOracle(k=k, policy="first-k-adversarial", seed=derive(seed, "oracle"))
    inst = K2SInstance(n, k, oracle, 0)
    values = {pid: f"v{1 + rng.randrange(n)}" for pid in range(1, n + 1)}

    state = {pid: {"phase": 0} for pid in range(1, n + 1)}
    outputs = {}

    def step(pid: int) -> None:
        st = state[pid]
        if st["phase"] == 0:
            st["val"] = inst.phase_propose(pid, values[pid])
        elif st["phase"] == 1:
            inst.phase_snap1_write(pid, st["val"])
        elif st["phase"] == 2:
            st["view"] = inst.phase_snap1_read(pid)[1]
        elif st["phase"] == 3:
            inst.phase_snap2_write(pid, st["view"])
        else:
            outputs[pid] = inst.phase_snap2_read(pid)[1]
        st["phase"] += 1

    remaining = {pid: PHASES_PER_PROPOSE for pid in range(1, n + 1)}
    for _ in range(n * PHASES_PER_PROPOSE):
        choices = sorted(remaining)
        pid = choices[rng.randrange(len(choices))]
        step(pid)
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
    arr = SnapshotArray(n, "X", one_shot=True)
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
