"""Deterministic cooperative scheduler executing n process automata.

A run is a sequence of turns.  Each turn the scheduler picks one of the
enabled (process, thread) tokens according to the schedule policy and
hands it to ``step``, which owns the turn: it stamps the picked process
for the starvation rule, runs exactly one step of that thread, advances
the turn, re-polls what the step can have changed and fires the crashes
due at the new turn.  So crashes due at turn t fire at the end of step
t - 1, those due at turn 0 at construction, and ``tokens`` is always the
enabled list of the current turn: a caller that picks its own tokens
drives a run through ``step`` alone.  ``step`` refuses any token not in
``tokens`` (a disabled thread, an unknown thread name, a pid outside
1..n), so no caller can write a row no crash-stop run makes.
Every process runs the full stack on two threads: ``main`` runs the
workload operations (broadcast or propose, including their blocking
waits, modeled as enabled predicates) and ``task`` runs the background
delivery loop.  A delivered set is one deliver-set event, then one
deliver-msg event per member in ``kbo.unpack_order``, by the keys of
MEM's ``MsgKeys``; its round is the number of messages the process
delivered before it, which is also the number of its K2S round.  The
scheduler records these events and the invokes, returns, decides and
crashes through ``Recorder.event``; the shared objects record their own
accesses through ``Recorder.emit``.  Every event carries the turn that
emitted it; a crash carries the turn at which it fires.  Deliveries the
stack never makes are not simulated: a trace that holds them is written
by hand and only checked.

The enabled (pid, thread) tokens are one set, ``enabled``, kept up to
date, not polled.  A process waits in two places: a broadcast until it
has delivered everything its MEM snapshot saw, a propose until it
decides; its task idles only while MEM holds nothing it has not
delivered.  So only four steps can change its tokens: its own delivery
(a wait can end, the task can go idle), its own main step (its workload
moves on), a MEM write by anyone (an idle task can wake) and its crash
(both go off).  After a delivery or a main step ``step`` polls the
stepped process again, after a MEM write also every idle task, and a
crash polls its victim.  These polls come after the turn advances, so a
thread they enable is stamped with the next turn, the first at which it
can be picked.  A task step that delivers nothing (the MEM snapshot that
picks a candidate, the KSET propose, the SNAP1 write and snapshot, the
SNAP2 write) polls nobody: it leaves the task mid-round, so still
enabled, and changes neither MEM nor what any process has delivered, so
no token.  ``tokens`` is ``enabled`` sorted, so by pid, main before
task, as if all n processes were polled every turn.

Determinism: given equal configurations, runs produce byte-identical
traces.  All scheduling randomness comes from a SplitMix64 stream
derived from the scenario seed, and a starvation rule forces any
continuously enabled process to be scheduled at least once per window of
FAIRNESS_WINDOW_FACTOR * n turns, which also makes the seeded-random
policy fair in the hard sense.  A schedule script is the exception: it
runs verbatim, entry i at turn i, so the rule applies only once the
script is used up and round robin finishes the run.  The rule costs O(1)
on most turns: the scheduler keeps one lower bound on the turns from
which processes have waited, and looks at all n of them only once that
bound is a full window old.

The run halts as quiescent when no thread is enabled: every workload is
finished, no broadcast is mid-flight, every background loop is idle and
nothing undelivered remains visible in MEM.  Otherwise it halts at the
turn budget and the partial trace is reported as budget-exhausted.
"""

from __future__ import annotations

import math

from .kbo import unpack_order
from .kscd import BroadcastEngine, MemCounts
from .ksa import DecisionTable
from .k2s import RepeatedK2S
from .rng import SplitMix64, derive
from .scenario import ScenarioConfig
from .trace import Recorder, Trace, pauses_cyclic_gc

FAIRNESS_WINDOW_FACTOR = 4


class SimulationError(RuntimeError):
    pass


class _Process:
    """One process: its workload on the main thread and its broadcast
    engine on the task thread."""

    def __init__(self, pid, items, engine, recorder, proposals):
        self.pid = pid
        self.items = items
        self.recorder = recorder
        self.widx = 0  # items invoked; the current one, if any, is items[widx - 1]
        self.state = "idle"  # idle | bsnap | bwait | dwait
        self.engine = engine
        self.task_enabled = engine.task_enabled  # the task thread is the engine's loop
        # mid -> (instance, value) of every proposal, shared by all processes:
        # only these deliveries are decided on, whatever a broadcast carries
        self.proposals = proposals
        self.table = DecisionTable()

    def main_enabled(self) -> bool:
        if self.state == "idle":
            return self.widx < len(self.items)
        if self.state == "bwait":
            return self.engine.broadcast_wait_ok()
        if self.state == "dwait":
            return self.table.ready(self.items[self.widx - 1].instance)
        return True  # bsnap

    def main_step(self) -> bool:
        """Run one main-thread step; returns whether it wrote MEM."""
        event, pid = self.recorder.event, self.pid
        if self.state == "idle":
            # each item broadcasts one message, so the item's index is the
            # message's; its id is made here only, and MEM keeps it
            item = self.items[self.widx]
            mid = f"{pid}:{self.widx}"
            if item.op == "broadcast":
                event(pid, "invoke", {"op": "kbo_broadcast", "msg": mid, "payload": item.payload})
            else:
                event(pid, "invoke", {"op": "ksa_propose", "msg": mid,
                                      "instance": item.instance, "value": item.value})
                self.proposals[mid] = (item.instance, item.value)
            self.widx += 1
            self.engine.broadcast_write(mid)
            self.state = "bsnap"
            return True
        if self.state == "bsnap":
            self.engine.broadcast_snapshot()
            self.state = "bwait"
        elif self.state == "bwait":
            if self.items[self.widx - 1].op == "broadcast":
                mid = self.engine.mem.ids[pid - 1][self.widx - 1]
                event(pid, "return", {"op": "kbo_broadcast", "msg": mid})
                self.state = "idle"
            else:
                self.state = "dwait"
        elif self.state == "dwait":
            nb = self.items[self.widx - 1].instance
            x = self.table.take(nb)
            event(pid, "decide", {"instance": nb, "value": x})
            event(pid, "return", {"op": "ksa_propose", "instance": nb, "value": x})
            self.state = "idle"
        else:
            raise SimulationError(f"unknown main state {self.state!r}")
        return False

    def task_step(self) -> bool:
        """Run one step of the engine; returns whether it delivered a set.
        A delivered set is emitted as one deliver-set event, then its
        members one by one."""
        position = self.engine.delivered_count  # before the set is added
        delivered = self.engine.task_step()
        if delivered is None:
            return False
        event, pid = self.recorder.event, self.pid
        order = unpack_order(delivered, self.engine.key)
        event(pid, "deliver-set", {"round": position, "set": order})
        for position, mid in enumerate(order, position):
            event(pid, "deliver-msg", {"msg": mid, "position": position})
            proposal = self.proposals.get(mid)
            if proposal is not None:
                self.table.on_deliver(*proposal)
        return True


class Simulation:
    def __init__(self, config: ScenarioConfig):
        config.validate()
        self.config = config
        self.n = config.n
        self.recorder = Recorder()
        self.turn = 0
        self.crashed: set[int] = set()

        emit = self.recorder.emit
        self.mem = MemCounts(self.n, emit)
        self.kss = RepeatedK2S(
            self.n, config.k, config.oracle_policy, derive(config.seed, "oracle"), emit
        )
        proposals: dict[str, tuple[int, str]] = {}
        self.procs = {
            pid: _Process(
                pid,
                config.workload.get(pid, ()),
                BroadcastEngine(pid, self.mem, self.kss),
                self.recorder,
                proposals,
            )
            for pid in range(1, self.n + 1)
        }

        self.schedule_kind = config.schedule.kind
        self.sched_rng = SplitMix64(derive(config.seed, "schedule"))
        self.rr_next = 1
        self.last_thread = {pid: "task" for pid in range(1, self.n + 1)}
        self.script = config.schedule.script if self.schedule_kind == "scripted" else ()
        self.script_pos = 0
        self.fair_window = FAIRNESS_WINDOW_FACTOR * self.n
        # crash_turns[turn]: the pids the crash plan fells at turn, in plan order
        self.crash_turns: dict[int, list[int]] = {}
        for pid, at_turn in config.crash_plan:
            self.crash_turns.setdefault(at_turn, []).append(pid)

        # The enabled (pid, thread) tokens, and tokens = sorted(enabled).
        self.enabled: set[tuple[int, str]] = set()
        # Starvation: since[pid] is the turn from which pid has owned a
        # token without being picked (None when it owns none), and oldest
        # is a lower bound on the stamps in since: raising a stamp keeps
        # it one, and _set_since lowers it below a new stamp.
        self.since: list[int | None] = [None] * (self.n + 1)
        self.oldest: float = math.inf
        for pid in range(1, self.n + 1):
            self._refresh(pid)
        for pid in self.crash_turns.get(0, ()):
            self._crash(pid)
        self.tokens = sorted(self.enabled)

    # --- public ----------------------------------------------------------

    def run(self) -> Trace:
        budget = self.config.step_budget
        while self.tokens and self.turn < budget:
            self.step(self._pick(self.tokens))
        if self.tokens:
            outcome = "budget-exhausted"
        else:
            self._check_no_deadlock()
            outcome = "quiescent"
        return Trace(self.config, self.recorder.rows, outcome, self.turn)

    def step(self, token: tuple[int, str]) -> None:
        """Run one turn: one step of ``token``, taken from ``tokens``, then
        the polls of the threads that step can have changed (nobody's after
        a task step that delivered nothing; the stepped process's after a
        delivery or a main step; those and every idle task's after a MEM
        write) and the crashes due at the next turn.  A token not in
        ``tokens`` raises SimulationError and writes no row, whatever its
        type or length; so does one whose pid only equals an int (``True``,
        ``1.0``)."""
        try:
            known = token in self.enabled and type(token[0]) is int
        except TypeError:  # unhashable, so no token
            known = False
        if not known:
            raise SimulationError(self._refusal(token))
        pid, thread = token
        proc = self.procs[pid]
        # above every other stamp, so oldest stays a lower bound
        self.since[pid] = self.turn + 1
        if thread == "task":
            wrote, repoll = False, proc.task_step()
        else:
            wrote, repoll = proc.main_step(), True
        self.turn = turn = self.turn + 1
        self.recorder.turn = turn  # the turn of every later event, crashes too
        changed = repoll and self._refresh(pid)
        if wrote:  # a MEM write can enable idle tasks, and nothing else
            enabled = self.enabled
            for other in range(1, self.n + 1):
                if (other, "task") not in enabled and self._refresh(other):
                    changed = True
        for victim in self.crash_turns.get(turn, ()):
            changed = self._crash(victim) or changed
        if changed:
            self.tokens = sorted(self.enabled)

    def _refusal(self, token) -> str:
        if isinstance(token, tuple) and len(token) == 2 and type(token[0]) is int:
            return f"disabled thread {token[1]!r} of p{token[0]} at turn {self.turn}"
        return f"malformed token {token!r} at turn {self.turn}"

    # --- scheduling -------------------------------------------------------

    def _refresh(self, pid: int) -> bool:
        """Poll ``pid`` again from scratch; returns whether ``enabled``
        changed, in which case the caller sorts it into ``tokens`` again."""
        if pid in self.crashed:
            main = task = False
        else:
            proc = self.procs[pid]
            main, task = proc.main_enabled(), proc.task_enabled()
        enabled, mtok, ttok = self.enabled, (pid, "main"), (pid, "task")
        was_main, was_task = mtok in enabled, ttok in enabled
        if main == was_main and task == was_task:
            return False
        if (main or task) != (was_main or was_task):
            self._set_since(pid, self.turn if main or task else None)
        if main != was_main:
            (enabled.add if main else enabled.remove)(mtok)
        if task != was_task:
            (enabled.add if task else enabled.remove)(ttok)
        return True

    def _set_since(self, pid: int, turn: int | None) -> None:
        self.since[pid] = turn
        if turn is not None and turn < self.oldest:
            self.oldest = turn

    def _starving(self) -> int | None:
        """The lowest pid that has owned a token unpicked for a full window."""
        limit = self.turn - self.fair_window
        if self.oldest > limit:
            return None
        self.oldest = min((s for s in self.since if s is not None), default=math.inf)  # exact
        if self.oldest > limit:
            return None
        return next(pid for pid, s in enumerate(self.since) if s is not None and s <= limit)

    def _pick(self, tokens) -> tuple[int, str]:
        if self.script_pos < len(self.script):
            # a script runs verbatim, with no starvation override: step
            # refuses an entry that names a disabled thread
            self.script_pos += 1
            return self.script[self.script_pos - 1]
        # _starving() is None while oldest is under a window old; skip its frame
        starving = self._starving() if self.oldest <= self.turn - self.fair_window else None
        if starving is not None:  # it owns a token: its task's if any, else its main's
            return (starving, "task" if (starving, "task") in self.enabled else "main")
        if self.schedule_kind == "seeded-random":
            return tokens[self.sched_rng.randrange(len(tokens))]
        return self._round_robin()  # round-robin, or a scripted schedule past its script

    def _round_robin(self) -> tuple[int, str]:
        for off in range(self.n):
            pid = ((self.rr_next - 1 + off) % self.n) + 1
            main, task = (pid, "main") in self.enabled, (pid, "task") in self.enabled
            if not (main or task):
                continue
            self.rr_next = (pid % self.n) + 1
            if main and task:  # alternate between the two threads
                thread = "main" if self.last_thread[pid] == "task" else "task"
            else:
                thread = "main" if main else "task"
            self.last_thread[pid] = thread
            return (pid, thread)
        raise SimulationError("round-robin found no token")

    # --- stepping -----------------------------------------------------------

    def _crash(self, pid: int) -> bool:
        """Fell ``pid``; returns whether ``enabled`` changed."""
        self.crashed.add(pid)
        self.recorder.event(pid, "crash", {})
        return self._refresh(pid)

    def _check_no_deadlock(self) -> None:
        # called at quiescence, where enabled is empty: a live process
        # still waiting can never go on
        for pid, proc in self.procs.items():
            if pid not in self.crashed and proc.state in ("bwait", "dwait"):
                raise SimulationError(
                    f"deadlock: p{pid} blocked in {proc.state} with no enabled thread"
                )


@pauses_cyclic_gc
def run_scenario(config: ScenarioConfig) -> Trace:
    return Simulation(config).run()
