"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from pathlib import Path

import pytest

from bocast.checker import TraceIndex, check_all, serialize_verdicts, build_order
from bocast.poset import BoundViolation
from bocast.rng import SplitMix64, derive
from bocast.scenario import ScenarioConfig, SchedulePolicy, WorkItem, load_scenario
from bocast.sim import run_scenario
from bocast.trace import read_trace, serialize_trace

from _drivers import (
    assert_k2s_properties,
    brute_force_width,
    one_shot_schedules,
    random_poset,
    replay_one_shot,
    run_random_k2s_instance,
    sampled_stack_config,
)

GOLDEN_DIR = Path("scenarios/golden")
GOLDEN_SCENARIOS = sorted(GOLDEN_DIR.glob("*.scenario.json"))
NEG_ORDERING = Path("scenarios/forged/ordering_breach.trace")
NEG_WIDTH3 = Path("scenarios/forged/width3_antichain.trace")

GRID = [(n, k) for n in (3, 5) for k in (1, 2, 3)]
SEEDS_PER_CELL = 200


def report(criterion: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] {criterion}: {status} ({elapsed:.2f}s / budget {budget:.0f}s){suffix}")
    assert ok, f"{criterion} failed{suffix}"
    assert elapsed < budget, f"{criterion} exceeded runtime budget: {elapsed:.2f}s"


@pytest.fixture(scope="module")
def batch():
    """The criterion-3 grid: 200 seeded scenarios per (n, k) cell."""
    t0 = time.perf_counter()
    runs = {}
    for n, k in GRID:
        cell = []
        for s in range(SEEDS_PER_CELL):
            cfg = sampled_stack_config(n, k, derive(1000, n, k, s))
            cell.append(run_scenario(cfg))
        runs[(n, k)] = cell
    return runs, time.perf_counter() - t0


def test_criterion_1_golden_replay():
    t0 = time.perf_counter()
    # every golden scenario reruns to its checked-in trace
    ok = len(GOLDEN_SCENARIOS) == 4 and all(
        serialize_trace(run_scenario(load_scenario(path)))
        == path.with_name(path.name.replace(".scenario.json", ".trace")).read_text(encoding="utf-8")
        for path in GOLDEN_SCENARIOS
    )
    trace = run_scenario(load_scenario(GOLDEN_DIR / "width2_broadcast.scenario.json"))
    index = TraceIndex(trace)
    label = {"1:0": "m1", "2:0": "m2"}
    sequences = {pid: [label[m] for m in index.msg_seqs[pid]] for pid in (1, 2, 3)}
    expected = {1: ["m2", "m1"], 2: ["m2", "m1"], 3: ["m1", "m2"]}
    ok = ok and trace.quiescent and sequences == expected
    poset = build_order(trace)
    ok = ok and poset.width() == 2
    assignment, chains = poset.decompose_channels(2)
    ok = ok and len(chains) == 2 and sorted(assignment) == sorted(label)
    for chain in chains:
        members = set(chain)
        for seq in index.msg_seqs.values():
            ok = ok and [m for m in seq if m in members] == chain
    try:
        poset.decompose_channels(1)
        ok = False
    except BoundViolation as exc:
        ok = ok and len(exc.antichain) == 2
    report("criterion-1 golden-replay", ok, time.perf_counter() - t0, 1.0)


def test_criterion_2_width_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for s in range(1000):
        poset = random_poset(derive(2000, s), max_elems=12)
        if poset.width() != brute_force_width(poset):
            mismatches += 1
    report(
        "criterion-2 width-oracle-equivalence",
        mismatches == 0,
        time.perf_counter() - t0,
        30.0,
        f"1000 posets, {mismatches} mismatches",
    )


def test_criterion_3_full_stack_width_bound(batch):
    runs, build_time = batch
    t0 = time.perf_counter()
    violations = 0
    non_quiescent = 0
    crash_sizes = {n: set() for n, _ in GRID}
    for (n, k), traces in runs.items():
        for trace in traces:
            crash_sizes[n].add(len(trace.config.crash_plan))
            if not trace.quiescent:
                non_quiescent += 1
                continue
            if build_order(trace).width() > k:
                violations += 1
    coverage_ok = all(crash_sizes[n] == set(range(n)) for n, _ in GRID)
    report(
        "criterion-3 full-stack-width-bound",
        violations == 0 and non_quiescent == 0 and coverage_ok,
        build_time + time.perf_counter() - t0,
        300.0,
        f"{len(GRID) * SEEDS_PER_CELL} runs, {violations} violations, "
        f"{non_quiescent} non-quiescent",
    )


def test_criterion_4_k1_total_order(batch):
    runs, _ = batch
    t0 = time.perf_counter()
    bad = 0
    total = 0
    for (n, k), traces in runs.items():
        if k != 1:
            continue
        for trace in traces:
            if not trace.quiescent:
                continue
            total += 1
            index = TraceIndex(trace)
            seqs = [index.msg_seqs[pid] for pid in index.nonfaulty]
            if any(seq != seqs[0] for seq in seqs[1:]):
                bad += 1
    report(
        "criterion-4 k1-total-order",
        bad == 0 and total == 2 * SEEDS_PER_CELL,
        time.perf_counter() - t0,
        300.0,
        f"{total} quiescent k=1 traces, {bad} divergent",
    )


def test_criterion_5_stack_agreement(batch):
    runs, _ = batch
    t0 = time.perf_counter()
    bad = 0
    instances = 0
    for (n, k), traces in runs.items():
        for trace in traces:
            if not trace.quiescent:
                continue
            index = TraceIndex(trace)
            proposed = {}
            proposers = []
            for pid, nb, value in index.proposals:
                proposed.setdefault(nb, set()).add(value)
                proposers.append((pid, nb))
            decided = {}
            decided_by = set()
            for pid, nb, value in index.decides:
                decided.setdefault(nb, set()).add(value)
                decided_by.add((pid, nb))
            instances += len(proposed)
            for nb, values in decided.items():
                if len(values) > k or not values <= proposed.get(nb, set()):
                    bad += 1
            for pid, nb in proposers:
                if pid not in index.faulty and (pid, nb) not in decided_by:
                    bad += 1
    report(
        "criterion-5 stack-agreement",
        bad == 0,
        time.perf_counter() - t0,
        300.0,
        f"{instances} instances checked, {bad} violations",
    )


def test_criterion_6_k2s_property_suite():
    t0 = time.perf_counter()
    bad = 0
    for s in range(1000):
        n = 2 + s % 4
        k = min(1 + s % 3, n)
        values, outputs = run_random_k2s_instance(derive(6000, s), n, k)
        try:
            assert_k2s_properties(values, outputs, k)
            assert len(outputs) == n
        except AssertionError:
            bad += 1
    contain_bad = 0
    schedules = 0
    for schedule in one_shot_schedules(3):
        schedules += 1
        views = list(replay_one_shot(3, schedule).values())
        for i in range(len(views)):
            for j in range(i + 1, len(views)):
                if not (views[i] <= views[j] or views[j] <= views[i]):
                    contain_bad += 1
    report(
        "criterion-6 k2s-property-suite",
        bad == 0 and contain_bad == 0 and schedules == 90,
        time.perf_counter() - t0,
        300.0,
        f"1000 instances, {schedules} containment interleavings",
    )


def test_criterion_7_set_delivery_suite(batch):
    runs, _ = batch
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for (n, k), traces in runs.items():
        for trace in traces:
            if not trace.quiescent:
                continue
            checked += 1
            for v in check_all(trace, suites=("kscd", "roundsync")):
                if v.failed:
                    bad.append((n, k, v.property))
    report(
        "criterion-7 set-delivery-suite",
        not bad,
        time.perf_counter() - t0,
        300.0,
        f"{checked} traces, {len(bad)} violations",
    )


def test_criterion_8_negative_controls():
    t0 = time.perf_counter()
    ok = True

    verdicts = {v.property: v for v in check_all(read_trace(NEG_ORDERING))}
    ordering = verdicts["kscd.ordering"]
    ok = ok and ordering.failed and ordering.witness == {
        "msg_first": "1:0", "msg_later": "2:0", "pid": 1, "pid_reversed": 2,
    }

    verdicts = {v.property: v for v in check_all(read_trace(NEG_WIDTH3))}
    bounded = verdicts["kbo.bounded"]
    ok = ok and bounded.failed and bounded.witness["antichain"] == ["1:0", "2:0", "3:0"]

    # Mutation: swap in the k+1-permissive oracle at k=2, n=5.  Seeded
    # schedules surface instance-level damage; the batch also contains an
    # adversarially scripted schedule on which the accumulated damage
    # reaches the decided-value count and the width bound.
    mutated = [
        sampled_stack_config(5, 2, derive(8000, s),
                             oracle_policy="first-k-plus-one-permissive")
        for s in range(60)
    ]
    mutated.append(adversarial_mutation_scenario())
    seeded_failures = 0
    hard_failures = 0
    for cfg in mutated:
        trace = run_scenario(cfg)
        failed = {v.property for v in check_all(trace) if v.failed}
        if failed:
            seeded_failures += 1
        if failed & {"ksa.agreement", "kbo.bounded"}:
            hard_failures += 1
    ok = ok and seeded_failures > 0 and hard_failures > 0
    report(
        "criterion-8 negative-controls",
        ok,
        time.perf_counter() - t0,
        300.0,
        f"{seeded_failures}/{len(mutated)} mutated traces flagged, "
        f"{hard_failures} with decided-count/width failures",
    )


def adversarial_mutation_scenario() -> ScenarioConfig:
    """Scripted schedule under which the permissive oracle's extra decided
    value surfaces as a width-3 antichain and three distinct decisions:
    the high-sender proposals are agreed and published in reverse
    canonical order, one process reads only the full view and delivers
    all three messages at once while the others deliver them one by one."""
    script = []
    script += [(5, "main"), (5, "task"), (5, "task")]
    script += [(4, "main"), (4, "task"), (4, "task")]
    script += [(3, "main"), (3, "task"), (3, "task")]
    script += [(1, "task"), (1, "task"), (2, "task"), (2, "task")]
    script += [(5, "task"), (5, "task")]
    script += [(4, "task"), (4, "task")]
    script += [(3, "task"), (3, "task")]
    script += [(1, "task"), (1, "task")]
    script += [(2, "task"), (2, "task")]
    script += [(1, "task"), (1, "task")]
    script += [(4, "task"), (4, "task")]
    script += [(5, "task"), (5, "task")]
    script += [(3, "task"), (3, "task")]
    script += [(2, "task"), (2, "task")]
    workload = {
        pid: (WorkItem(op="propose", instance=0, value=f"v{pid}"),)
        for pid in range(1, 6)
    }
    return ScenarioConfig(
        n=5, k=2, seed=0,
        schedule=SchedulePolicy("scripted", tuple(script)),
        crash_plan=(), workload=workload, step_budget=50_000,
        oracle_policy="first-k-plus-one-permissive",
    )


def test_criterion_9_determinism():
    t0 = time.perf_counter()
    scenarios = [load_scenario(path) for path in GOLDEN_SCENARIOS]
    rng = SplitMix64(derive(9000, "grid"))
    while len(scenarios) < 20:
        n = (3, 5)[rng.randrange(2)]
        k = min(1 + rng.randrange(3), n)
        scenarios.append(sampled_stack_config(n, k, rng.randrange(1 << 64)))
    mismatches = 0
    for cfg in scenarios:
        t1 = run_scenario(cfg)
        t2 = run_scenario(cfg)
        if serialize_trace(t1) != serialize_trace(t2):
            mismatches += 1
            continue
        if serialize_verdicts(check_all(t1)) != serialize_verdicts(check_all(t2)):
            mismatches += 1
    report(
        "criterion-9 determinism",
        mismatches == 0,
        time.perf_counter() - t0,
        300.0,
        f"20 scenarios re-run, {mismatches} mismatches",
    )
