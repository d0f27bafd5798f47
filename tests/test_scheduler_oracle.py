"""The incremental scheduler against a from-scratch oracle.

``PollingOracle`` re-derives at every turn which threads of which
processes are enabled, by polling every process with the MEM-as-id-sets
definitions (a task is enabled when some message visible in MEM is
undelivered; a broadcast wait ends when every message its snapshot saw is
delivered; a process's delivered ids are those of its deliver-msg events,
not the engine's own record), and which process the starvation rule must
force, from per-process stall counters updated every turn.  It asserts
that the simulator's incrementally kept token list and starvation stamps
agree, that ``oldest`` bounds every live stamp from below, that a forced
pick goes to the starved process, its task thread first (except while a
schedule script runs, which it does verbatim), that every round-robin
pick is the one a reference that scans the token list makes, that the
rows a step emits carry its turn t and are followed by exactly the
crashes the plan times at t + 1, which carry t + 1, and that the crashes
timed at turn 0 are all that construction emits.  The oracle hooks
``step`` alone, so any caller that steps tokens of its own is checked
the same way.  The simulator polls nobody after a task step that
delivers nothing; the oracle counts those turns, and its check at the
next pick is what shows that each skipped poll would have changed
nothing.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from bocast.scenario import SchedulePolicy, WorkItem, load_scenario
from bocast.sim import Simulation, run_scenario
from bocast.trace import serialize_trace

from _drivers import propose_workload, sampled_stack_config, stack_config

B = lambda payload: WorkItem(op="broadcast", payload=payload)


def mem_ids(counts) -> set[str]:
    """The message ids that MEM counts stand for."""
    return {f"{s}:{i}" for s, count in enumerate(counts, start=1) for i in range(count)}


def crashes_by_turn(config) -> dict[int, list[int]]:
    """The pids the crash plan fells at each turn, in plan order."""
    due: dict[int, list[int]] = {}
    for pid, turn in config.crash_plan:
        due.setdefault(turn, []).append(pid)
    return due


class PollingOracle(Simulation):
    def __init__(self, config):
        super().__init__(config)
        self.due = crashes_by_turn(config)
        crashes = [[0, pid, "crash", {}] for pid in self.due.get(0, ())]
        assert self.recorder.rows == crashes  # construction fires turn 0's crashes, no more
        self.events_checked = len(crashes)
        self.stall = {pid: 0 for pid in range(1, self.n + 1)}
        self.turns_checked = 0
        self.overrides = 0
        self.stale_bounds = 0  # turns on which _starving() looked at every stamp
        self.skipped_repolls = 0  # turns after which the simulator polled nobody
        self.scripted_past_starving = 0  # script turns that left a starving process waiting
        self.delivered = {pid: set() for pid in range(1, self.n + 1)}  # from deliver-msg events
        self.rr_picks = 0  # round-robin picks checked against the reference
        self.ref_rr_next = 1
        self.ref_last_thread = {pid: "task" for pid in range(1, self.n + 1)}

    def step(self, token):
        turn, start = self.turn, len(self.recorder.rows)
        super().step(token)
        assert self.turn == self.recorder.turn == turn + 1
        rows = self.recorder.rows[start:]
        crashes = [[turn + 1, pid, "crash", {}] for pid in self.due.get(turn + 1, ())]
        own = rows[: len(rows) - len(crashes)]
        assert rows[len(own):] == crashes, f"turn {turn}"
        assert [row[0] for row in own] == [turn] * len(own), f"turn {turn}"
        self.events_checked += len(rows)
        for row in own:
            if len(row) == 4 and row[2] == "deliver-msg":
                self.delivered[row[1]].add(row[3]["msg"])
        if token[1] == "task" and not any(len(row) == 4 and row[2] == "deliver-set" for row in own):
            self.skipped_repolls += 1

    def poll_all(self) -> list[tuple[int, str]]:
        tokens = []
        for pid in range(1, self.n + 1):
            if pid in self.crashed:
                continue
            proc = self.procs[pid]
            engine = proc.engine
            delivered = self.delivered[pid]
            if proc.state == "bwait":
                main = mem_ids(engine.wait_for) <= delivered
            else:
                main = proc.main_enabled()
            backlog = mem_ids(self.mem.array.cells) - delivered
            task = engine.prop is not None or bool(engine.seq) or bool(backlog)
            if main:
                tokens.append((pid, "main"))
            if task:
                tokens.append((pid, "task"))
        return tokens

    def _pick(self, tokens):
        assert tokens == self.poll_all(), f"token list out of date at turn {self.turn}"
        owners = sorted({pid for pid, _ in tokens})
        starving = [pid for pid in owners if self.stall[pid] >= self.fair_window]
        assert self.oldest <= min(s for s in self.since if s is not None), f"turn {self.turn}"
        self.stale_bounds += self.oldest <= self.turn - self.fair_window
        assert self._starving() == (starving[0] if starving else None), f"turn {self.turn}"
        scripted = self.script_pos < len(self.script)  # a script runs verbatim
        token = super()._pick(tokens)
        if scripted:
            self.scripted_past_starving += bool(starving)
        elif starving:
            mine = [t for t in tokens if t[0] == starving[0]]
            assert token == min(mine, key=lambda t: t[1] != "task"), f"turn {self.turn}"
        elif self.schedule_kind != "seeded-random":
            assert token == self.reference_round_robin(tokens), f"turn {self.turn}"
            self.rr_picks += 1
        for pid in self.stall:
            if pid == token[0] or pid not in owners:
                self.stall[pid] = 0
            else:
                self.stall[pid] += 1
        self.turns_checked += 1
        self.overrides += bool(starving) and not scripted
        return token

    def reference_round_robin(self, tokens):
        """From the next pid on, the first that owns a token; a pid owning
        both takes the thread it did not take last."""
        for off in range(self.n):
            pid = (self.ref_rr_next - 1 + off) % self.n + 1
            mine = [t for t in tokens if t[0] == pid]
            if mine:
                self.ref_rr_next = pid % self.n + 1
                if len(mine) == 2:
                    mine = [(pid, "main" if self.ref_last_thread[pid] == "task" else "task")]
                self.ref_last_thread[pid] = mine[0][1]
                return mine[0]
        raise AssertionError("no token")

    def run(self):
        trace = super().run()
        if trace.quiescent:
            assert self.poll_all() == []
        return trace


def checked_run(config) -> PollingOracle:
    sim = PollingOracle(config)
    trace = sim.run()
    assert sim.turns_checked == trace.turns
    assert sim.events_checked == len(trace.rows)
    assert serialize_trace(trace) == serialize_trace(run_scenario(config))
    return sim


def broadcasts(n: int, per_process: int):
    return {pid: tuple(B(f"m{pid}.{i}") for i in range(per_process)) for pid in range(1, n + 1)}


@pytest.mark.parametrize("seed", range(12))
def test_seeded_random_with_crashes_and_proposals(seed):
    assert checked_run(sampled_stack_config(5, 2, seed)).skipped_repolls > 0


def test_starvation_overrides_are_exercised():
    overrides = sum(checked_run(sampled_stack_config(5, 2, seed)).overrides for seed in range(12))
    overrides += checked_run(stack_config(6, 3, 1, broadcasts(6, 4))).overrides
    assert overrides > 0


@pytest.mark.parametrize("seed", range(4))
def test_round_robin_with_crashes_and_proposals(seed):
    cfg = sampled_stack_config(4, 2, 100 + seed)
    sim = checked_run(dataclasses.replace(cfg, schedule=SchedulePolicy("round-robin")))
    assert sim.rr_picks > 0
    assert sim.skipped_repolls > 0


@pytest.mark.parametrize("schedule", ["seeded-random", "round-robin"])
def test_wide_n20_k4(schedule):
    # n = 20, k = 4: a window of 80 turns over up to 40 tokens, so stamps
    # go stale often and some of them starve
    sim = checked_run(stack_config(20, 4, 3, broadcasts(20, 1), schedule=schedule))
    assert sim.stale_bounds > sim.overrides
    assert sim.skipped_repolls > 0
    if schedule == "seeded-random":
        assert sim.overrides > 0


def test_crashes_at_one_turn_fire_in_plan_order():
    cfg = stack_config(4, 2, 0, broadcasts(4, 2), crash_plan=((3, 5), (1, 5)))
    crashes = [ev for ev in run_scenario(cfg).events if ev.kind == "crash"]
    assert [(ev.pid, ev.turn) for ev in crashes] == [(3, 5), (1, 5)]
    checked_run(cfg)


@pytest.mark.parametrize("seed", range(4))
def test_broadcast_only_with_crashes(seed):
    cfg = stack_config(5, 3, seed, broadcasts(5, 3), crash_plan=((2, 10 + seed), (4, 40)))
    checked_run(cfg)


def test_scripted_schedule_prefix_then_fallback():
    script = (
        (2, "main"), (2, "task"), (2, "task"),
        (1, "main"), (1, "task"), (1, "task"),
        (2, "task"), (2, "task"),
    )
    cfg = stack_config(3, 2, 0, propose_workload(3, {1: [0, 1], 2: [0], 3: [1]}),
                       schedule="scripted", script=script, crash_plan=((3, 20),))
    checked_run(cfg)


def test_a_script_runs_verbatim_past_the_starvation_window():
    # p1 runs 12 turns while p2's main thread waits: the window is 4n = 8
    # turns, so the starvation rule would hand p2 turn 8, were it not a script
    script = (
        ((1, "main"),) * 2  # publish m0, snapshot MEM
        + ((1, "task"),) * 6  # one K2S round delivers 1:0
        + ((1, "main"),) * 3  # return, publish m1, snapshot MEM
        + ((1, "task"), (2, "main"))
    )
    cfg = stack_config(2, 1, 0, {1: (B("m0"), B("m1")), 2: (B("x"),)},
                       schedule="scripted", script=script)
    sim = checked_run(cfg)
    assert sim.scripted_past_starving > 0
    trace = run_scenario(cfg)
    turn_pids = sorted({(ev.turn, ev.pid) for ev in trace.events if ev.turn <= 12})
    assert turn_pids == [(t, 1) for t in range(12)] + [(12, 2)]


@pytest.mark.parametrize(
    "path",
    [
        "scenarios/golden/width2_broadcast.scenario.json",
        "scenarios/golden/width2_propose.scenario.json",
        "scenarios/golden/width3_broadcast.scenario.json",
        "scenarios/golden/width3_propose.scenario.json",
        "scenarios/examples/n3_k2_propose.scenario.json",
        "scenarios/examples/n2_k1_lookalike_payload.scenario.json",
    ],
)
def test_checked_in_scenarios(path):
    checked_run(load_scenario(Path(path)))
