import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from bocast.cli import instantiate_template
from bocast.scenario import (
    MAX_PROCESSES,
    MAX_STEP_BUDGET,
    ConfigError,
    ScenarioConfig,
    WorkItem,
    load_scenario,
)
from bocast.sim import Simulation, SimulationError, run_scenario
from bocast.trace import TraceFormatError, parse_trace, serialize_trace

from _drivers import dumps, forged_trace, propose_workload, sampled_stack_config, stack_config

B = lambda payload: WorkItem(op="broadcast", payload=payload)


class TestDeterminism:
    def test_stack_runs_are_byte_identical(self):
        cfg = sampled_stack_config(5, 2, 123)
        assert serialize_trace(run_scenario(cfg)) == serialize_trace(run_scenario(cfg))


def test_single_process_reaches_quiescence():
    cfg = stack_config(1, 1, 0, {1: (B("solo"),)}, schedule="round-robin")
    trace = run_scenario(cfg)
    assert trace.quiescent
    kinds = [ev.kind for ev in trace.events]
    assert "deliver-set" in kinds and "return" in kinds


class TestCrashes:
    def test_crash_at_turn_zero_leaves_no_other_events(self):
        cfg = stack_config(2, 1, 0, {2: (B("x"),)}, crash_plan=((2, 0),))
        trace = run_scenario(cfg)
        p2_events = [ev for ev in trace.events if ev.pid == 2]
        assert [ev.kind for ev in p2_events] == ["crash"]
        assert trace.quiescent

    def test_duplicate_crash_plan_entry_rejected(self):
        with pytest.raises(ConfigError, match="more than once"):
            stack_config(2, 1, 0, {}, crash_plan=((1, 0), (1, 5))).validate()


def test_budget_exhaustion_reports_partial_trace():
    cfg = stack_config(3, 2, 1, propose_workload(3, {1: [0], 2: [0], 3: [0]}),
                       step_budget=10)
    trace = run_scenario(cfg)
    assert trace.outcome == "budget-exhausted"
    assert trace.turns == 10
    assert trace.events  # partial work was recorded


class TestCrashBoundaries:
    """A crash due at turn t fires at the end of step t - 1, so it is
    written whenever the run reaches turn t, whichever way it halts."""

    def config(self, **over):
        return stack_config(3, 2, 1, propose_workload(3, {1: [0], 2: [0], 3: [0]}), **over)

    def crash_rows(self, trace):
        return [(i, row) for i, row in enumerate(trace.rows) if row[2] == "crash"]

    def test_a_crash_due_at_the_budget_is_written_and_one_past_it_is_not(self):
        trace = run_scenario(self.config(step_budget=10, crash_plan=((2, 10), (3, 11))))
        assert (trace.outcome, trace.turns) == ("budget-exhausted", 10)
        assert [row for _, row in self.crash_rows(trace)] == [[10, 2, "crash", {}]]

    def test_a_crash_due_at_the_quiescent_turn_is_written_and_one_past_it_is_not(self):
        plain = run_scenario(self.config())
        assert (plain.outcome, plain.turns) == ("quiescent", 66)
        at = run_scenario(self.config(crash_plan=((1, 66),)))
        assert at.rows == plain.rows + [[66, 1, "crash", {}]]
        assert (at.outcome, at.turns) == ("quiescent", 66)
        past = run_scenario(self.config(crash_plan=((1, 67),)))
        assert past.rows == plain.rows
        assert (past.outcome, past.turns) == ("quiescent", 66)

    def test_a_crash_due_at_turn_zero_is_row_zero(self):
        trace = run_scenario(self.config(crash_plan=((2, 0),)))
        assert self.crash_rows(trace) == [(0, [0, 2, "crash", {}])]


class TestStepGate:
    """``step`` runs only a token in ``tokens``; any other raises and
    writes no row, so no caller can make a trace no crash-stop run makes."""

    def config(self, **over):
        return replace(load_scenario("scenarios/examples/n3_k2_propose.scenario.json"), **over)

    def test_an_idle_task_is_refused_at_construction(self):
        sim = Simulation(self.config())
        assert (1, "task") not in sim.tokens
        with pytest.raises(SimulationError, match="^disabled thread 'task' of p1 at turn 0$"):
            sim.step((1, "task"))
        assert sim.recorder.rows == [] and sim.turn == 0

    def test_a_crashed_main_thread_is_refused(self):
        sim = Simulation(self.config(crash_plan=((2, 0),)))
        assert sim.recorder.rows == [[0, 2, "crash", {}]]
        with pytest.raises(SimulationError, match="^disabled thread 'main' of p2 at turn 0$"):
            sim.step((2, "main"))
        assert sim.recorder.rows == [[0, 2, "crash", {}]] and sim.turn == 0

    MALFORMED = [(1, "bogus"), (0, "main"), (4, "task"), (-1, "main")]
    # an unhashable pair, tokens that are no (pid, thread) pair at all,
    # then pairs whose pid only equals an int
    ODD = [(1, ["task"]), [1, "task"], 5, (1, "main", 0), (1,),
           (1.0, "main"), (True, "main"), (True, "task")]

    def refused(self, sim, token):
        rows, turn, tokens = list(sim.recorder.rows), sim.turn, list(sim.tokens)
        if isinstance(token, tuple) and len(token) == 2 and type(token[0]) is int:
            message = f"disabled thread {token[1]!r} of p{token[0]} at turn {turn}"
        else:
            message = f"malformed token {token!r} at turn {turn}"
        with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
            sim.step(token)
        return sim.recorder.rows == rows and sim.turn == turn and sim.tokens == tokens

    @pytest.mark.parametrize("token", MALFORMED + ODD)
    def test_an_unknown_thread_or_pid_is_refused_at_construction(self, token):
        # every main thread is enabled here, p1's and p3's (index -1) too
        sim = Simulation(self.config())
        assert sim.tokens == [(1, "main"), (2, "main"), (3, "main")]
        assert self.refused(sim, token) and sim.recorder.rows == []

    @pytest.mark.parametrize("token", MALFORMED + [(3, "main"), (3, "task")] + ODD)
    def test_a_token_not_in_tokens_is_refused_mid_run(self, token):
        # p3 crashes at turn 2, and each token is tried at turn 5
        sim = Simulation(self.config(crash_plan=((3, 2),)))
        for _ in range(5):
            sim.step(sim.tokens[0])
        assert [2, 3, "crash", {}] in sim.recorder.rows
        # (True, "task") equals p1's enabled task token and is still refused
        assert token not in sim.tokens or token == (True, "task")
        assert self.refused(sim, token) and sim.turn == 5


class TestValidation:
    def base(self, **over):
        obj = {
            "version": 1,
            "n": 2,
            "k": 1,
            "seed": 0,
            "schedule_policy": "round-robin",
            "crash_plan": [],
            "workload": {"1": [{"op": "broadcast", "payload": "x"}]},
            "step_budget": 100,
            "oracle_policy": "first-k-adversarial",
        }
        obj.update(over)
        return obj

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError, match="1 <= k <= n"):
            ScenarioConfig.from_json_dict(self.base(k=0))
        with pytest.raises(ConfigError, match="1 <= k <= n"):
            ScenarioConfig.from_json_dict(self.base(k=3))

    def test_n_and_budget_bounds(self):
        with pytest.raises(ConfigError, match="n >= 1"):
            ScenarioConfig.from_json_dict(self.base(n=0))
        with pytest.raises(ConfigError, match="step_budget"):
            ScenarioConfig.from_json_dict(self.base(step_budget=0))

    def test_size_caps(self):
        assert MAX_PROCESSES >= 20 and MAX_STEP_BUDGET >= 1_000_000  # the benchmark's workloads
        ScenarioConfig.from_json_dict(self.base(n=MAX_PROCESSES, step_budget=MAX_STEP_BUDGET))
        with pytest.raises(ConfigError, match=f"n <= {MAX_PROCESSES}"):
            ScenarioConfig.from_json_dict(self.base(n=MAX_PROCESSES + 1))
        with pytest.raises(ConfigError, match=f"step_budget <= {MAX_STEP_BUDGET}"):
            ScenarioConfig.from_json_dict(self.base(step_budget=MAX_STEP_BUDGET + 1))

    def test_size_caps_admit_the_checked_in_scenarios(self):
        paths = sorted(Path("scenarios").glob("*/*.scenario.json"))
        templates = sorted(Path("scenarios").glob("templates/*.template.json"))
        assert paths and templates
        for path in paths:
            load_scenario(path)
        for path in templates:
            instantiate_template(json.loads(path.read_text(encoding="utf-8")), 0)

    def test_unknown_processes_rejected(self):
        with pytest.raises(ConfigError, match="unknown process"):
            ScenarioConfig.from_json_dict(
                self.base(workload={"9": [{"op": "broadcast", "payload": "x"}]})
            )
        with pytest.raises(ConfigError, match="unknown process"):
            ScenarioConfig.from_json_dict(self.base(crash_plan=[[9, 0]]))

    def test_unknown_policies_rejected(self):
        with pytest.raises(ConfigError, match="oracle_policy"):
            ScenarioConfig.from_json_dict(self.base(oracle_policy="nonsense"))
        with pytest.raises(ConfigError, match="schedule_policy"):
            ScenarioConfig.from_json_dict(self.base(schedule_policy="nonsense"))
        # a process has a main and a task thread, nothing else
        script = {"policy": "scripted", "script": [[1, "script"]]}
        with pytest.raises(ConfigError, match="unknown thread 'script'"):
            ScenarioConfig.from_json_dict(self.base(schedule_policy=script))

    def test_a_deliver_item_is_an_unknown_op(self):
        # a scenario cannot prescribe deliveries, with proposals or without
        for other in ([], [{"op": "propose", "instance": 0, "value": "v"}]):
            wl = {"1": [{"op": "deliver", "msgs": ["1:0"]}], "2": other}
            with pytest.raises(ConfigError, match="unknown workload op 'deliver'"):
                ScenarioConfig.from_json_dict(self.base(workload=wl))

    @pytest.mark.parametrize("mid", ["1:00", "01:0", " 1:0", "1_0:0", "1:0 ", "+1:0", "1", 5])
    def test_non_canonical_message_ids_rejected(self, mid):
        # no scenario names a message; a trace that delivers one is read
        # only if the id is canonical
        lines = serialize_trace(forged_trace(1, 1, [(1, "x"), (1, ("1:0",))])).splitlines()
        assert lines[3].startswith('[1,1,"deliver-set",')
        lines[3] = lines[3].replace('["1:0"]', json.dumps([mid]))
        with pytest.raises(TraceFormatError, match="line 4: "):
            parse_trace("\n".join(lines) + "\n")

    def test_propose_instances_must_increase(self):
        wl = {"1": [
            {"op": "propose", "instance": 2, "value": "a"},
            {"op": "propose", "instance": 1, "value": "b"},
        ]}
        with pytest.raises(ConfigError, match="strictly increase"):
            ScenarioConfig.from_json_dict(self.base(workload=wl))

    def test_json_round_trip(self, tmp_path):
        cfg = sampled_stack_config(4, 3, 7)
        path = tmp_path / "s.json"
        path.write_text(dumps(cfg), encoding="utf-8")
        assert load_scenario(path) == cfg


class TestTraceFormat:
    def test_round_trip(self):
        trace = run_scenario(sampled_stack_config(3, 2, 5))
        text = serialize_trace(trace)
        back = parse_trace(text)
        assert serialize_trace(back) == text

    def test_bad_json_line_reported_with_number(self):
        trace = run_scenario(stack_config(1, 1, 0, {1: (B("x"),)}))
        lines = serialize_trace(trace).splitlines()
        lines[2] = "{broken"
        with pytest.raises(TraceFormatError, match="line 3"):
            parse_trace("\n".join(lines))

    def test_missing_config_rejected(self):
        with pytest.raises(TraceFormatError, match="no config"):
            parse_trace('{"record":"outcome","outcome":"quiescent","turns":0}\n')

    def test_mem_events_carry_counts(self):
        trace = run_scenario(stack_config(2, 2, 0, {1: (B("x"), B("y")), 2: (B("z"),)}))
        writes = {}
        for ev in trace.events:
            if ev.kind == "object-access" and ev.payload["object"] == "MEM":
                if ev.payload["op"] == "write":
                    writes[ev.pid] = writes.get(ev.pid, 0) + 1
                    assert ev.payload["args"] == [writes[ev.pid]]
                else:
                    assert ev.payload["result"] == [writes.get(1, 0), writes.get(2, 0)]
        assert writes == {1: 2, 2: 1}

    @pytest.mark.parametrize("marker", ["", '"trace_format":1,', '"trace_format":2,'])
    def test_other_formats_rejected_on_line_1(self, marker):
        text = serialize_trace(run_scenario(stack_config(1, 1, 0, {1: (B("x"),)})))
        assert text.startswith('{"record":"config","trace_format":3,')
        with pytest.raises(TraceFormatError, match="line 1: trace format"):
            parse_trace(text.replace('"trace_format":3,', marker, 1))


class TestScheduling:
    def test_scripted_disabled_token_is_an_error(self):
        # p2 has no workload, so its main thread is never enabled
        cfg = stack_config(2, 1, 0, {1: (B("x"),)},
                           schedule="scripted", script=((2, "main"),))
        with pytest.raises(SimulationError, match="disabled thread 'main' of p2 at turn 0"):
            run_scenario(cfg)

    def test_script_entry_i_runs_at_turn_i(self):
        # p1 writes MEM, snapshots it, then waits to deliver its own message:
        # entry 2 names a blocked thread, refused at turn 2
        cfg = stack_config(2, 1, 0, {1: (B("x"),)},
                           schedule="scripted", script=((1, "main"),) * 3)
        with pytest.raises(SimulationError, match="disabled thread 'main' of p1 at turn 2"):
            run_scenario(cfg)

    def test_script_prefix_then_fallback_completes_the_run(self):
        cfg = stack_config(2, 2, 0, {1: (B("x"),), 2: (B("y"),)},
                           schedule="scripted",
                           script=((1, "main"), (2, "main"), (1, "task")))
        trace = run_scenario(cfg)
        assert trace.quiescent

    def test_starvation_override_picks_the_starved_process(self):
        sim = Simulation(stack_config(3, 1, 0, propose_workload(3, {1: [0], 2: [0], 3: [0]})))
        assert sim.tokens == [(1, "main"), (2, "main"), (3, "main")]
        # every process has owned its token since turn 0; p1 and p3 were
        # just picked, so only p2 has waited a full window
        sim.turn = sim.fair_window
        sim._set_since(1, sim.turn)
        sim._set_since(3, sim.turn)
        token = sim._pick(sim.tokens)
        assert token == (2, "main")
        sim.step(token)
        assert sim.since[2] == sim.turn  # stamped by step: its wait starts afresh
        assert sim._starving() is None

    def test_fairness_no_enabled_process_starves_under_seeded_random(self):
        picks = []

        class Logged(Simulation):
            def _pick(self, tokens):
                token = super()._pick(tokens)
                picks.append(({pid for pid, _ in tokens}, token[0]))
                return token

        for seed in (31, 77):
            picks.clear()
            sim = Logged(sampled_stack_config(5, 2, seed))
            assert sim.run().quiescent
            waiting = {pid: 0 for pid in range(1, 6)}
            for enabled, chosen in picks:
                for pid in range(1, 6):
                    if pid == chosen or pid not in enabled:
                        waiting[pid] = 0
                    else:
                        waiting[pid] += 1
                        # continuously enabled processes are scheduled within
                        # the forced window plus one lap of other overrides
                        assert waiting[pid] <= sim.fair_window + 5
