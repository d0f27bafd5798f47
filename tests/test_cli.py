import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import bocast
from bocast.checker import ALL_SUITES, check_all, serialize_verdicts
from bocast.cli import instantiate_template, main
from bocast.rng import SplitMix64
from bocast.scenario import ConfigError, ScenarioConfig, load_scenario
from bocast.sim import SimulationError, run_scenario
from bocast.trace import parse_trace, read_trace, serialize_trace, write_trace

from _drivers import forged_trace, shuffled

GOLDEN_DIR = Path("scenarios/golden")
GOLDEN_ENTRY = "width2_broadcast"
GOLDEN_SCENARIO = GOLDEN_DIR / f"{GOLDEN_ENTRY}.scenario.json"
GOLDEN_TRACE = GOLDEN_DIR / f"{GOLDEN_ENTRY}.trace"
FORGED_WIDTH3 = Path("scenarios/forged/width3_antichain.trace")
TEMPLATE = Path("scenarios/templates/n5_k2_propose.template.json")
EXAMPLE_SCENARIO = Path("scenarios/examples/n3_k2_propose.scenario.json")


def _bocast(*args: str, timeout: int = 120, **env: str) -> subprocess.CompletedProcess:
    """``python -m bocast *args`` in a child process that imports this
    checkout, with ``env`` added to its environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(bocast.__file__).resolve().parents[1]), **env)
    return subprocess.run(
        [sys.executable, "-m", "bocast", *args],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=timeout,
    )


def test_run_reproduces_the_checked_in_golden_trace(tmp_path, capsys):
    out = tmp_path / "t.trace"
    code = main(["run", "--scenario", str(GOLDEN_SCENARIO), "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == GOLDEN_TRACE.read_bytes()


def test_run_seed_override_changes_the_schedule(tmp_path):
    scen = Path("scenarios/templates/n5_k2_propose.template.json")
    obj = json.loads(scen.read_text())
    obj["crash_plan"] = []
    fixed = tmp_path / "s.json"
    fixed.write_text(json.dumps(obj))
    a, b, b2 = (tmp_path / name for name in ("a.trace", "b.trace", "b2.trace"))
    assert main(["run", "--scenario", str(fixed), "--out", str(a)]) == 0
    assert main(["run", "--scenario", str(fixed), "--seed", "7", "--out", str(b)]) == 0
    assert main(["run", "--scenario", str(fixed), "--seed", "7", "--out", str(b2)]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert b.read_bytes() == b2.read_bytes()


def test_run_rejects_invalid_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    obj = json.loads(GOLDEN_SCENARIO.read_text())
    obj["k"] = 0
    bad.write_text(json.dumps(obj))
    code = main(["run", "--scenario", str(bad)])
    assert code == 2
    assert "1 <= k <= n" in capsys.readouterr().err


# Fields of the two scenarios by key path: every number, a crash-plan
# entry, a propose instance and value, a script entry's pid and thread.
# (A broadcast payload may be any JSON value.)
SCRIPT_PID = ("schedule_policy", "script", 0, 0)
RETYPABLE = {
    EXAMPLE_SCENARIO: [
        ("n",), ("k",), ("seed",), ("step_budget",), ("version",), ("crash_plan", 0, 0),
        ("crash_plan", 0, 1), ("workload", "1", 0, "instance"), ("workload", "1", 0, "value"),
    ],
    GOLDEN_SCENARIO: [
        ("n",), ("k",), ("seed",), ("step_budget",), ("version",),
        SCRIPT_PID, ("schedule_policy", "script", 0, 1),
    ],
}
FIELDS = sorted({field for fields in RETYPABLE.values() for field in fields}, key=str)
RETYPED = st.one_of(
    st.integers(-2, 70), st.integers(), st.floats(allow_nan=False), st.booleans(),
    st.text(max_size=6), st.none(), st.lists(st.integers(0, 3), max_size=2),
)


def _retyped(scenario: Path, field: tuple, value) -> tuple[dict, object]:
    """The scenario object with ``field`` set to ``value``, and its old value."""
    obj = json.loads(scenario.read_text(encoding="utf-8"))
    slot = obj
    for key in field[:-1]:
        slot = slot[key]
    was, slot[field[-1]] = slot[field[-1]], value
    return obj, was


@pytest.mark.parametrize("scenario", RETYPABLE, ids=["example", "golden"])
@given(field=st.sampled_from(FIELDS), value=RETYPED)
@example(field=SCRIPT_PID, value=3)  # p3 has no work: its main thread is never enabled
@settings(max_examples=80, deadline=None)
def test_a_retyped_field_is_refused_or_round_trips(scenario, field, value):
    # a value of another type is refused, never coerced; one of the same
    # type is refused or runs to a trace that check reads back
    assume(field in RETYPABLE[scenario])
    obj, was = _retyped(scenario, field, value)
    try:
        config = ScenarioConfig.from_json_dict(obj)
    except ConfigError:
        return
    assert type(value) is type(was)
    try:
        trace = run_scenario(config)
    except SimulationError:
        # whether a script names a disabled thread only the run can tell:
        # a refusal if run exits exactly 2 with a message and no traceback
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.json"
            path.write_text(json.dumps(obj), encoding="utf-8")
            proc = _bocast("run", "--scenario", str(path), "--out", str(Path(tmp) / "t.trace"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: simulation error: ")
        assert "Traceback" not in proc.stderr
        return
    assert parse_trace(serialize_trace(trace)).config == config


PROPOSE_TYPES = "propose item of p1 needs an integer instance and a string value"


@pytest.mark.parametrize("field, value, message", [
    (("workload", "1", 0, "value"), 5, PROPOSE_TYPES),
    (("workload", "1", 0, "value"), None, PROPOSE_TYPES),
    (("workload", "1", 0, "instance"), "0", PROPOSE_TYPES),
    (("n",), 3.7, "n must be an integer, not float"),
    (("k",), True, "k must be an integer, not bool"),
], ids=["int-value", "null-value", "str-instance", "float-n", "bool-k"])
def test_run_refuses_what_check_would_refuse(tmp_path, capsys, field, value, message):
    # each of these once ran with exit 0, to a trace check refused or with
    # the number rounded
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(_retyped(EXAMPLE_SCENARIO, field, value)[0]))
    out = tmp_path / "t.trace"
    assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_run_budget_exhaustion_gets_distinct_status(tmp_path):
    obj = json.loads(GOLDEN_SCENARIO.read_text())
    obj["step_budget"] = 3
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(obj))
    out = tmp_path / "t.trace"
    assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 3
    assert "budget-exhausted" in out.read_text()


def test_check_passes_on_golden_trace(tmp_path, capsys):
    report = tmp_path / "report.jsonl"
    code = main([
        "check", "--trace", str(GOLDEN_TRACE),
        "--suites", "kbo,kscd,k2s,snapshot,ksa",
        "--report", str(report),
    ])
    assert code == 0
    lines = [json.loads(l) for l in report.read_text().splitlines()]
    assert all(rec["pass"] for rec in lines)


def test_check_fails_on_forged_trace(capsys):
    code = main(["check", "--trace", str(FORGED_WIDTH3)])
    assert code == 1
    out = capsys.readouterr().out
    rec = next(
        json.loads(l) for l in out.splitlines() if json.loads(l)["property"] == "kbo.bounded"
    )
    assert rec["pass"] is False
    assert rec["witness"]["antichain"] == ["1:0", "2:0", "3:0"]


@pytest.mark.parametrize("suites", [None, "roundsync,kscd"])
@pytest.mark.parametrize("path", [GOLDEN_TRACE, FORGED_WIDTH3], ids=lambda p: p.stem)
def test_check_timings_go_to_stderr_and_leave_stdout_and_exit_code_alone(capsys, path, suites):
    args = ["check", "--trace", str(path), *(["--suites", suites] if suites else [])]
    code = main(args)
    plain = capsys.readouterr()
    assert main([*args, "--timings"]) == code
    timed = capsys.readouterr()
    assert timed.out == plain.out
    assert plain.err == ""
    lines = timed.err.splitlines()
    assert all(re.fullmatch(r"[a-z0-9]+: \d+\.\d ms", line) for line in lines), lines
    stages = [line.split(":")[0] for line in lines]
    assert stages == ["read", "index", *(suites.split(",") if suites else ALL_SUITES)]


@pytest.mark.parametrize("path", sorted(Path("scenarios/forged").glob("*.trace")), ids=lambda p: p.stem)
def test_each_forged_trace_fails_check_and_decomposes(capsys, path):
    # the CLI prints check_all's verdicts, whose bytes pins.json pins
    assert main(["check", "--trace", str(path)]) == 1
    assert capsys.readouterr().out == serialize_verdicts(check_all(read_trace(path)))
    assert main(["decompose", "--trace", str(path)]) in (0, 1)
    assert capsys.readouterr().out.startswith("width ")


def test_check_rejects_corrupted_trace(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    lines = GOLDEN_TRACE.read_text().splitlines()
    lines[5] = "{nope"
    bad.write_text("\n".join(lines))
    assert main(["check", "--trace", str(bad)]) == 2
    assert "line 6" in capsys.readouterr().err


def test_decompose_prints_channels(capsys):
    code = main(["decompose", "--trace", str(GOLDEN_TRACE), "--k", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "width 2 within k=2" in out
    assert "channel[1]" in out and "channel[2]" in out


def test_decompose_reports_bound_violation(capsys):
    code = main(["decompose", "--trace", str(GOLDEN_TRACE), "--k", "1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "width 2 exceeds k=1" in out
    assert "antichain witness:" in out


@pytest.mark.parametrize("k", ["0", "-1"])
def test_decompose_refuses_a_bound_below_1(k):
    # exit 1 means a property failed; a bound no order can meet is a usage error
    proc = _bocast("decompose", "--trace", str(GOLDEN_TRACE), f"--k={k}")
    assert proc.returncode == 2, proc.stderr
    assert f"--k must be >= 1 (got {k})" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# The ids name the two scopes the order once had.  Under non-faulty-only
# every process is correct; under all-pairs-delivered-by-both p3 crashes
# after its deliveries, which still order the pairs it delivered, so the
# verdict is the same
@pytest.mark.parametrize("crash_p3", [False, True], ids=["non-faulty-only", "all-pairs-delivered-by-both"])
def test_decompose_of_a_large_cyclic_order_exits_1_without_a_traceback(tmp_path, crash_p3):
    # p1..p3 deliver 1:0, 2:0 and 3:0 in a cycle, then 1:3 ... 1:23 alike:
    # each of the three is missed by one process, so none is comparable
    # to another or to the chain 1:3 < ... < 1:23
    steps = [(1, f"m1.{i}") for i in range(24)] + [(2, "m2.0"), (3, "m3.0")]
    steps += [(1, ("1:0",)), (1, ("2:0",)), (2, ("2:0",)), (2, ("3:0",)), (3, ("3:0",)), (3, ("1:0",))]
    steps += [(pid, (f"1:{i}",)) for i in range(3, 24) for pid in (1, 2, 3)]
    if crash_p3:
        steps.append((3, None))
    path = tmp_path / "cycle.trace"
    write_trace(forged_trace(3, 2, steps, outcome="budget-exhausted"), path)
    proc = _bocast("decompose", "--trace", str(path))
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == "width 4 exceeds k=2\nantichain witness: 1:0 1:23 2:0 3:0\n"
    assert "Traceback" not in proc.stderr


def test_decompose_of_a_small_cyclic_order_reports_its_width(capsys):
    # p1 delivers 1:0 then 2:0, p2 2:0 then 3:0, p3 3:0 then 1:0: no pair
    # is ordered, so all three are an antichain
    assert main(["decompose", "--trace", "scenarios/forged/cyclic_k1.trace"]) == 1
    assert capsys.readouterr().out == "width 3 exceeds k=1\nantichain witness: 1:0 2:0 3:0\n"


def test_decompose_has_no_scope_option(capsys):
    # one order over every process serves both directions of the reduction
    assert main(["decompose", "--trace", str(GOLDEN_TRACE), "--scope", "non-faulty-only"]) == 2
    assert "unrecognized arguments: --scope" in capsys.readouterr().err


@pytest.fixture(scope="module")
def long_chain_trace(tmp_path_factory):
    """A k=1 trace whose agreed order is one 3000-message chain listed in
    random key order: both processes deliver every message in the same
    shuffled order."""
    per_process = 1500
    mids = shuffled([f"{pid}:{i}" for pid in (1, 2) for i in range(per_process)], SplitMix64(3))
    steps = [(pid, f"m{pid}.{i}") for i in range(per_process) for pid in (1, 2)]
    steps += [(pid, (mid,)) for mid in mids for pid in (1, 2)]
    trace = forged_trace(2, 1, steps)
    path = tmp_path_factory.mktemp("chain") / "chain3000.trace"
    write_trace(trace, path)
    return path


@pytest.mark.parametrize("verb", [["check", "--suites", "kbo"], ["decompose", "--k", "1"]])
def test_long_chain_needs_no_recursion(long_chain_trace, verb):
    proc = _bocast(verb[0], "--trace", str(long_chain_trace), *verb[1:], timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if verb[0] == "decompose":
        assert proc.stdout.startswith("width 1 within k=1; 1 channels")


def test_fuzz_200_seeds_all_pass(tmp_path, capsys):
    out_dir = tmp_path / "fuzz"
    code = main([
        "fuzz", "--template", str(TEMPLATE), "--seeds", "200", "--out", str(out_dir),
    ])
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["runs"] == 200
    assert summary["outcomes"]["quiescent"] == 200
    assert summary["failing_seed_indices"] == []
    assert summary["errors"] == []
    assert summary["properties"]["kbo.bounded"]["pass"] == 200
    # sampled crash plans: sizes recorded for every run
    assert sum(int(c) for c in summary["crash_plan_sizes"].values()) == 200
    assert not list(out_dir.glob("fail-*.trace"))
    # the summary bytes are pinned, like the verdicts in pins.json
    assert hashlib.sha256((out_dir / "summary.json").read_bytes()).hexdigest() == (
        "fc4fe5d9253370bb8169d36b0c821936f72150c5bddcb8e4f24419c3781b4af1"
    )


def test_fuzz_zero_seeds_is_an_empty_success(tmp_path):
    assert main(["fuzz", "--template", str(TEMPLATE), "--seeds", "0"]) == 0


@pytest.mark.parametrize("args, message", [
    (["--seeds", "1", "--suites", "bogus"], "unknown suite 'bogus'"),
    (["--seeds", "1", "--suites", "kbo,"], "unknown suite ''"),
    (["--seeds", "-1"], "--seeds must be >= 0"),
    (["--seeds", "3", "--suites", "kbo,kbo"], "suite 'kbo' is named twice"),
])
def test_fuzz_arguments_are_checked_before_any_run(tmp_path, args, message):
    out_dir = tmp_path / "fuzz"
    proc = _bocast("fuzz", "--template", str(TEMPLATE), "--out", str(out_dir), *args)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "" and not out_dir.exists()


def test_fuzz_rejects_a_template_that_is_not_an_object(tmp_path, capsys):
    template = tmp_path / "t.json"
    template.write_text("[1]", encoding="utf-8")
    assert main(["fuzz", "--template", str(template), "--seeds", "1"]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


def test_fuzz_rejects_an_out_path_that_is_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["fuzz", "--template", str(TEMPLATE), "--seeds", "1", "--out", str(taken)]) == 2
    assert "--out" in capsys.readouterr().err


def test_fuzz_exits_2_when_it_cannot_write_the_summary(tmp_path):
    # every seed has run by then: still an output error, exit 2, not a failed property
    out_dir = tmp_path / "fuzz"
    (out_dir / "summary.json").mkdir(parents=True)
    proc = _bocast("fuzz", "--template", str(TEMPLATE), "--seeds", "1", "--out", str(out_dir))
    assert proc.returncode == 2, proc.stderr
    assert f"error: --out: cannot write {out_dir / 'summary.json'}: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _edited_template(tmp_path, edit) -> Path:
    obj = json.loads(TEMPLATE.read_text(encoding="utf-8"))
    obj.update(edit)
    template = tmp_path / "t.json"
    template.write_text(json.dumps(obj), encoding="utf-8")
    return template


@pytest.mark.parametrize("edit", [
    pytest.param({"seed": "x"}, id="edit0"),
    pytest.param({"crash_plan": {"sample": 5}}, id="edit1"),
    pytest.param({"crash_plan": {"sample": {"turn_range": 5}}}, id="edit2"),
    pytest.param({"n": "a"}, id="edit4"),
    pytest.param({"n": 65}, id="edit5"),
])
def test_fuzz_reports_a_template_it_cannot_expand(tmp_path, capsys, edit):
    # no seed expands it: an input error, exit 2, not a failed property
    template = _edited_template(tmp_path, edit)
    out_dir = tmp_path / "fuzz"
    assert main(["fuzz", "--template", str(template), "--seeds", "3", "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert "template: no seed expands it; seed index 0: " in captured.err
    assert captured.out == "" and not out_dir.exists()


@pytest.mark.parametrize("sample, message", [
    ({"max_processes": 9}, "template: max_processes must satisfy 0 <= max_processes <= n (got 9"),
    ({"max_processes": -1}, "template: max_processes must satisfy 0 <= max_processes <= n (got -1"),
    ({"turn_range": [-5, 10]}, "template: turn_range must start at a turn >= 0 (got -5)"),
    ({"max_processses": 2}, "unknown crash_plan sample field 'max_processses'"),
], ids=["above-n", "negative", "negative-turn", "misspelled"])
def test_fuzz_refuses_a_crash_sample_before_any_run(tmp_path, capsys, sample, message):
    # 9 of 5 processes once ran, with only the seeds drawing at most 5 in
    # the summary and exit 1: now no seed is run, and the sample is named
    template = _edited_template(tmp_path, {"crash_plan": {"sample": sample}})
    out_dir = tmp_path / "fuzz"
    assert main(["fuzz", "--template", str(template), "--seeds", "3", "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert f"template: no seed expands it; seed index 0: {message}" in captured.err
    assert captured.out == "" and not out_dir.exists()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6), max_processes=st.integers(-2, 8),
    lo=st.integers(-3, 5), hi=st.integers(-3, 300), base=st.integers(0, 2**64 - 1),
)
def test_a_template_expands_for_every_seed_when_it_expands_for_seed_0(
    n, max_processes, lo, hi, base
):
    obj = json.loads(TEMPLATE.read_text(encoding="utf-8"))
    obj.update(n=n, k=1, seed=base, workload={})
    obj["crash_plan"] = {"sample": {"max_processes": max_processes, "turn_range": [lo, hi]}}

    def expands(index):
        try:
            instantiate_template(obj, index)
        except ConfigError:
            return False
        return True

    first = expands(0)
    assert first == (0 <= max_processes <= n and lo >= 0)
    assert all(expands(i) == first for i in range(1, 30))


@pytest.mark.parametrize("verb", [
    ["run", "--scenario", str(EXAMPLE_SCENARIO), "--out"],
    ["check", "--trace", str(GOLDEN_TRACE), "--report"],
])
def test_an_output_path_in_a_missing_directory_exits_2(tmp_path, verb):
    path = tmp_path / "missing" / "out"
    proc = _bocast(*verb, str(path))
    assert proc.returncode == 2, proc.stderr
    assert f"{verb[-1]}: cannot write {path}: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "" and not path.parent.exists()


def test_golden_verb_detects_tampering(tmp_path, capsys):
    assert main(["golden", "--dir", str(GOLDEN_DIR)]) == 0
    clone = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, clone)
    trace = clone / f"{GOLDEN_ENTRY}.trace"
    trace.write_text(trace.read_text().replace('"m2"', '"mX"'))
    assert main(["golden", "--dir", str(clone)]) == 1


def _write(suffix: str, data: bytes):
    def edit(clone):
        (clone / f"{GOLDEN_ENTRY}{suffix}").write_bytes(data)
    return edit


def _unlink(suffix: str):
    def edit(clone):
        (clone / f"{GOLDEN_ENTRY}{suffix}").unlink()
    return edit


@pytest.mark.parametrize(
    "suffix, edit",
    [
        pytest.param(".scenario.json", _unlink(".scenario.json"), id="scenario-missing"),
        pytest.param(".scenario.json", _write(".scenario.json", b"{}"), id="scenario-empty"),
        pytest.param(".trace", _unlink(".trace"), id="trace-missing"),
        pytest.param(".trace", _write(".trace", b"\xff\xfe"), id="trace-not-utf8"),
        pytest.param(".verdicts", _unlink(".verdicts"), id="verdicts-missing"),
        pytest.param(".verdicts", _write(".verdicts", b"\x80"), id="verdicts-not-utf8"),
    ],
)
def test_golden_input_errors_exit_2_naming_the_file(tmp_path, capsys, suffix, edit):
    clone = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, clone)
    edit(clone)
    assert main(["golden", "--dir", str(clone)]) == 2
    err = capsys.readouterr().err
    assert str(clone / f"{GOLDEN_ENTRY}{suffix}") in err
    assert "Traceback" not in err


def test_golden_names_the_line_of_a_byte_that_is_not_utf8(tmp_path, capsys):
    clone = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, clone)
    verdicts = clone / f"{GOLDEN_ENTRY}.verdicts"
    text = verdicts.read_bytes()
    verdicts.write_bytes(text + b"\x80\n")
    line = text.count(b"\n") + 1
    assert main(["golden", "--dir", str(clone)]) == 2
    assert f"{verdicts}: line {line}: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data, message",
    [
        pytest.param(b"\xff{}", "line 1: not UTF-8 (invalid start byte)", id="not-utf8"),
        pytest.param(b"{\n", "line 2: invalid JSON", id="not-json"),
        pytest.param(b"{}", "malformed scenario: 'n'", id="not-a-scenario"),
    ],
)
def test_golden_names_a_bad_scenario_once(tmp_path, capsys, data, message):
    clone = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, clone)
    scenario = clone / f"{GOLDEN_ENTRY}.scenario.json"
    scenario.write_bytes(data)
    assert main(["golden", "--dir", str(clone)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scenario}: {message}")
    assert err.count(str(scenario)) == 1


def _check_subprocess(path):
    return _bocast("check", "--trace", str(path))


def _assert_rejected(proc, lineno):
    assert proc.returncode == 2, proc.stderr
    assert f"line {lineno}:" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("fmt, key", [(1, ""), (2, '"trace_format":2,')], ids=["1", "2"])
def test_check_rejects_an_earlier_trace_format(tmp_path, fmt, key):
    # format 1 had no trace_format key; the version alone refuses format 2
    old = tmp_path / f"format{fmt}.trace"
    old.write_text(GOLDEN_TRACE.read_text().replace('"trace_format":3,', key, 1))
    proc = _check_subprocess(old)
    _assert_rejected(proc, 1)
    assert f"line 1: trace format {fmt} is not supported" in proc.stderr


def test_a_run_delivering_an_unbroadcast_id_checks_as_a_validity_failure(tmp_path):
    # The reader accepts an id whose sender is outside 1..n: it is not a
    # format error but a message nobody broadcast.
    out = tmp_path / "t.trace"
    write_trace(forged_trace(1, 1, [(1, ("9:9",))]), out)
    proc = _check_subprocess(out)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    verdicts = {rec["property"]: rec for rec in map(json.loads, proc.stdout.splitlines())}
    assert verdicts["kbo.validity"]["pass"] is False


def test_a_deliver_item_is_refused_by_run_and_in_a_trace_config(tmp_path):
    # a scenario cannot prescribe deliveries: a deliver item is an unknown op
    obj = json.loads(EXAMPLE_SCENARIO.read_text(encoding="utf-8"))
    obj["workload"]["1"].append({"op": "deliver", "msgs": ["1:0"]})
    scen = tmp_path / "deliver.scenario.json"
    scen.write_text(json.dumps(obj), encoding="utf-8")
    proc = _bocast("run", "--scenario", str(scen), "--out", str(tmp_path / "t.trace"))
    assert proc.returncode == 2, proc.stderr
    assert "unknown workload op 'deliver'" in proc.stderr
    assert "Traceback" not in proc.stderr
    lines = Path("scenarios/forged/ordering_breach.trace").read_text(encoding="utf-8").splitlines()
    config = json.loads(lines[0])
    config["workload"]["1"].append({"op": "deliver", "msgs": ["1:0"]})
    lines[0] = json.dumps(config)
    bad = tmp_path / "deliver.trace"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = _check_subprocess(bad)
    _assert_rejected(proc, 1)
    assert "unknown workload op 'deliver'" in proc.stderr


def _example_lines() -> list[str]:
    return serialize_trace(run_scenario(load_scenario(EXAMPLE_SCENARIO))).splitlines()


def test_check_rejects_deep_nesting_naming_the_line(tmp_path):
    lines = _example_lines()
    lines.insert(1, "[" * 100_000 + "]" * 100_000)
    bad = tmp_path / "deep.trace"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_rejected(_check_subprocess(bad), 2)


@pytest.mark.parametrize(
    "edit",
    [{"k": None}, {"n": "x"}, {"workload": "x"}, {"seed": 1e400}, {"n": 3.7}, {"k": True},
     {"workload": {"+1": [{"op": "broadcast", "payload": "x"}]}}],
    ids=["no-k", "str-n", "str-workload", "infinite-seed", "float-n", "bool-k",
         "signed-workload-key"],
)
def test_check_rejects_a_malformed_config_naming_line_1(tmp_path, edit):
    lines = _example_lines()
    config = json.loads(lines[0])
    for key, value in edit.items():
        if value is None:
            del config[key]
        else:
            config[key] = value
    lines[0] = json.dumps(config)
    bad = tmp_path / "config.trace"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _assert_rejected(_check_subprocess(bad), 1)


# Each verb's arguments up to the path of the file it reads.
READS = {
    "run": ["run", "--scenario"], "check": ["check", "--trace"],
    "decompose": ["decompose", "--trace"], "fuzz": ["fuzz", "--seeds", "1", "--template"],
}


def _assert_input_refused(proc, path, message):
    assert proc.returncode == 2, proc.stderr
    assert f"{path}: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("verb", sorted(READS))
@pytest.mark.parametrize("data, lineno", [(b"\xff\xfe{}", 1), (b'{"n":\r\n"\xc3(x"}', 2)],
                         ids=["utf16-bom", "line-2"])
def test_input_that_is_not_utf8_exits_2_naming_the_file_and_line(tmp_path, verb, data, lineno):
    bad = tmp_path / "latin.json"
    bad.write_bytes(data)
    proc = _bocast(*READS[verb], str(bad))
    _assert_input_refused(proc, bad, f"line {lineno}: not UTF-8")


@pytest.mark.parametrize("verb", ["run", "fuzz"])
def test_deep_nesting_in_a_scenario_or_template_exits_2(tmp_path, verb):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    proc = _bocast(*READS[verb], str(deep))
    _assert_input_refused(proc, deep, "JSON nested too deeply")


@pytest.mark.parametrize("key", ["01", " 2", "+1", "2 ", "1_0", "\u0661", "-1"])
def test_a_workload_key_that_is_not_a_canonical_pid_is_refused(key):
    obj = json.loads(EXAMPLE_SCENARIO.read_text(encoding="utf-8"))
    obj["workload"][key] = [{"op": "broadcast", "payload": "late"}]
    with pytest.raises(ConfigError, match="without sign, space or leading zero"):
        ScenarioConfig.from_json_dict(obj)


def test_aliased_workload_keys_exit_2(tmp_path):
    # "01" and " 2" used to replace the work items of p1 and p2
    obj = json.loads(EXAMPLE_SCENARIO.read_text(encoding="utf-8"))
    obj["workload"].update({"01": [{"op": "broadcast", "payload": "a"}],
                            " 2": [{"op": "broadcast", "payload": "b"}]})
    scen = tmp_path / "aliased.scenario.json"
    scen.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "aliased.trace"
    proc = _bocast("run", "--scenario", str(scen), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "workload key '01'" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def _first_access(lines, op):
    """Index of the first MEM access with this op."""
    return next(i for i, line in enumerate(lines) if f'"MEM","{op}"' in line)


def _insert_list_record(lines):
    lines.insert(2, "[1]")
    return 2


def _null_snapshot_result(lines):
    i = _first_access(lines, "snapshot")
    rec = json.loads(lines[i])
    rec[5] = None
    lines[i] = json.dumps(rec, separators=(",", ":"))
    return i


def _null_write_args(lines):
    i = _first_access(lines, "write")
    rec = json.loads(lines[i])
    rec[4] = None
    lines[i] = json.dumps(rec, separators=(",", ":"))
    return i


def _split_record(lines):
    # a line end where JSON allows whitespace still ends the record
    i = next(i for i, line in enumerate(lines) if '"deliver-set"' in line)
    head, tail = lines[i].split('"round":', 1)
    lines[i:i + 1] = [head, '"round":' + tail]
    return i


def _edit_first(marker, change):
    """An edit that applies ``change`` to the first record whose line
    holds ``marker``."""
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if marker in line)
        rec = json.loads(lines[i])
        change(rec)
        lines[i] = json.dumps(rec, separators=(",", ":"), ensure_ascii=False)
        return i
    edit.__name__ = f"_{change.__name__}"
    return edit


# The edits of an event record are by position: [turn, pid, kind,
# payload], or [turn, pid, object, op, args, result] for an access.


def drop_object(rec):
    del rec[2]


def junk_result(rec):
    rec[5] = "junk"


def null_set(rec):
    rec[3]["set"] = None


def pid_99(rec):
    rec[1] = 99


def str_turn(rec):
    rec[0] = str(rec[0])


def bool_pid(rec):
    rec[1] = True


def list_payload(rec):
    rec[3] = [rec[3]]


def weird_outcome(rec):
    rec["outcome"] = "weird"


def negative_turns(rec):
    rec["turns"] = -1


def no_turns(rec):
    del rec["turns"]


def extra_outcome_key(rec):
    rec["extra"] = 1


TURNS = "turns must be an integer >= 0 and >= the last event's turn"


@pytest.mark.parametrize(
    "edit, message",
    [
        pytest.param(edit, message, id=edit.__name__)
        for edit, message in [
            (_insert_list_record, "an event has 4 or 6 fields, not 1"),
            (_null_snapshot_result, "a MEM snapshot with malformed args or result"),
            (_null_write_args, "a MEM write with malformed args or result"),
            (_edit_first('"MEM","write"', junk_result), "a MEM write with malformed args or result"),
            (_edit_first('"MEM"', drop_object), "an event has 4 or 6 fields, not 5"),
            (_edit_first('"deliver-set"', null_set), "a deliver-set needs 'set' to be a list"),
            (_split_record, "invalid JSON"),
            (_edit_first('"invoke"', pid_99), "pid 99 is not in 1..3"),
            (_edit_first('"invoke"', str_turn), "an event turn must be an integer >= 0"),
            (_edit_first('"invoke"', bool_pid), "pid True is not in 1..3"),
            (_edit_first('"invoke"', list_payload), "an event payload must be a JSON object"),
            (_edit_first('"record":"outcome"', weird_outcome), "outcome 'weird' is not one of"),
            (_edit_first('"record":"outcome"', negative_turns), TURNS),
            (_edit_first('"record":"outcome"', no_turns), TURNS),
            (_edit_first('"record":"outcome"', extra_outcome_key),
             "unknown outcome record field 'extra'"),
        ]
    ],
)
def test_check_rejects_malformed_records_naming_the_line(tmp_path, edit, message):
    lines = _example_lines()
    lineno = edit(lines) + 1
    bad = tmp_path / "bad.trace"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = _check_subprocess(bad)
    _assert_rejected(proc, lineno)
    assert f"line {lineno}: {message}" in proc.stderr


def _edited_example(tmp_path, lineno: int, old: str, new: str) -> Path:
    """The example trace with ``old`` replaced by ``new`` on line ``lineno``."""
    lines = _example_lines()
    assert old in lines[lineno - 1]
    lines[lineno - 1] = lines[lineno - 1].replace(old, new)
    path = tmp_path / "edited.trace"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _verdicts(proc) -> dict:
    return {rec["property"]: rec for rec in map(json.loads, proc.stdout.splitlines())}


@pytest.mark.parametrize(
    "lineno, old, new",
    [
        (4, "[0,0,1]", "[]"),
        (8, "[0,1,1]", "[0,1]"),
        (18, '[null,null,"1:0"]', "[null,null]"),  # hides p3's own SNAP1 cell
        (4, "[0,0,1]", "[0,0,1,0]"),
        (20, '[null,null,["1:0"]]', '[null,null,["1:0"],null]'),
    ],
    ids=["mem-empty", "mem-short", "snap1-short", "mem-extra", "snap2-extra"],
)
def test_check_rejects_a_snapshot_of_other_than_n_cells(tmp_path, lineno, old, new):
    proc = _check_subprocess(_edited_example(tmp_path, lineno, old, new))
    _assert_rejected(proc, lineno)
    assert "cells, not n = 3" in proc.stderr


@pytest.mark.parametrize("value", ['"x"', "[1]"])
def test_a_mem_write_that_is_not_a_count_fails_replay(tmp_path, value):
    # line 10 is p1's first MEM write and line 80 its second
    assert '[57,1,"MEM","write",[2],null]' == _example_lines()[79]
    path = _edited_example(tmp_path, 10, '"MEM","write",[1]', f'"MEM","write",[{value}]')
    proc = _check_subprocess(path)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    replay = _verdicts(proc)["snapshot.replay"]
    assert replay["witness"] == {"object": "MEM", "step": 8, "cell": 1}


def test_a_snap1_cell_written_twice_fails_containment(tmp_path, capsys):
    # p3 writes 2:0 over its 1:0, and one later snapshot shows the new value
    lines = _example_lines()
    first = next(i for i, line in enumerate(lines) if '"SNAP1[0]","snapshot"' in line)
    lines.insert(first + 1, '[13,3,"SNAP1[0]","write",["2:0"],null]')
    path = tmp_path / "rewrite.trace"
    path.write_text("\n".join(lines).replace('["3:0","3:0","1:0"]', '["3:0","3:0","2:0"]') + "\n",
                    encoding="utf-8")
    assert main(["check", "--trace", str(path)]) == 1
    verdicts = map(json.loads, capsys.readouterr().out.splitlines())
    containment = next(rec for rec in verdicts if rec["property"] == "snapshot.containment")
    assert containment["witness"] == {"object": "SNAP1[0]", "pids": [3, 2], "steps": [16, 24]}


def test_k2s_witnesses_do_not_depend_on_the_hash_seed(tmp_path):
    # p2's SNAP2[0] output holds two views outside the inputs
    old, new = '[["1:0","3:0"],["1:0","3:0"],["1:0"]]', '[["1:0","8:8"],["1:0","8:8"],["7:7"]]'
    path = _edited_example(tmp_path, 29, old, new)
    procs = [_bocast("check", "--trace", str(path), PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert [proc.returncode for proc in procs] == [1, 1], procs[0].stderr
    assert procs[0].stdout == procs[1].stdout
    validity = _verdicts(procs[0])["k2s.validity"]
    assert validity["witness"] == {"instance": 0, "pid": 2, "values": ["7:7"]}


# --- payload fields: each deleted or retyped, one event shape at a time -------

ACCESS_POSITIONS = {"object": 2, "op": 3, "args": 4, "result": 5}
FIELD_EDITS = {
    "delete": None,
    "null": lambda value: None,
    "str": lambda value: "x",
    "float": lambda value: 1.5,
    "list": lambda value: [value],
    "object": lambda value: {"v": value},
}

# The edits that made `bocast check` exit 1 with a traceback before the
# reader checked the payload schema.
CRASHED_BEFORE_THE_SCHEMA = [
    ("KSET propose", "op", "delete"),
    ("KSET propose", "args", "list"),
    ("KSET propose", "result", "delete"),
    ("KSET propose", "result", "null"),
    ("KSET propose", "result", "float"),
    ("KSET propose", "result", "list"),
    ("KSET propose", "result", "object"),
    ("MEM snapshot", "op", "delete"),
    ("MEM snapshot", "args", "delete"),
    ("MEM write", "op", "delete"),
    ("MEM write", "result", "delete"),
    ("SNAP1 snapshot", "op", "delete"),
    ("SNAP1 snapshot", "args", "delete"),
    ("SNAP1 write", "op", "delete"),
    ("SNAP1 write", "result", "delete"),
    ("SNAP2 snapshot", "op", "delete"),
    ("SNAP2 snapshot", "args", "delete"),
    ("SNAP2 snapshot", "result", "list"),
    ("SNAP2 write", "op", "delete"),
    ("SNAP2 write", "result", "delete"),
    ("decide", "instance", "delete"),
    ("decide", "instance", "null"),
    ("decide", "instance", "str"),
    ("decide", "instance", "list"),
    ("decide", "instance", "object"),
    ("decide", "value", "delete"),
    ("decide", "value", "list"),
    ("decide", "value", "object"),
    ("deliver-msg", "msg", "delete"),
    ("deliver-msg", "msg", "null"),
    ("deliver-msg", "msg", "str"),
    ("deliver-msg", "msg", "float"),
    ("deliver-msg", "msg", "list"),
    ("deliver-msg", "msg", "object"),
    ("deliver-set", "round", "delete"),
    ("deliver-set", "set", "list"),
    ("invoke ksa_propose", "msg", "list"),
    ("invoke ksa_propose", "msg", "object"),
    ("invoke ksa_propose", "instance", "delete"),
    ("invoke ksa_propose", "instance", "list"),
    ("invoke ksa_propose", "instance", "object"),
    ("invoke ksa_propose", "value", "delete"),
    ("invoke ksa_propose", "value", "list"),
    ("invoke ksa_propose", "value", "object"),
]


def _shape(rec) -> str:
    """An event's kind, with an invoke's op, or an access's object family and op."""
    if len(rec) == 6:
        return f"{rec[2].split('[')[0]} {rec[3]}"
    return f"invoke {rec[3]['op']}" if rec[2] == "invoke" else rec[2]


def _fields(rec) -> list[str]:
    return list(ACCESS_POSITIONS) if len(rec) == 6 else list(rec[3])


def _edit_field(rec, field: str, edit: str) -> None:
    if len(rec) == 6:
        holder, key = rec, ACCESS_POSITIONS[field]
    else:
        holder, key = rec[3], field
    if edit == "delete":
        del holder[key]
    else:
        holder[key] = FIELD_EDITS[edit](holder[key])


@pytest.fixture(scope="module")
def example_shapes():
    """The example trace's lines and the line index of each event shape's
    first event."""
    lines = _example_lines()
    first = {}
    for i, line in enumerate(lines[1:-1], start=1):
        first.setdefault(_shape(json.loads(line)), i)
    return lines, first


def _check_edited(tmp_path, lines, i, field, edit):
    rec = json.loads(lines[i])
    _edit_field(rec, field, edit)
    edited = list(lines)
    edited[i] = json.dumps(rec, separators=(",", ":"), ensure_ascii=False)
    path = tmp_path / "edited.trace"
    path.write_text("\n".join(edited) + "\n", encoding="utf-8")
    return main(["check", "--trace", str(path)])


@pytest.mark.parametrize(
    "shape, field, edit", CRASHED_BEFORE_THE_SCHEMA, ids=lambda part: part.replace(" ", "-")
)
def test_payload_schema_rejects_the_former_crashes_naming_the_line(
    tmp_path, capsys, example_shapes, shape, field, edit
):
    lines, first = example_shapes
    i = first[shape]
    assert _check_edited(tmp_path, lines, i, field, edit) == 2
    captured = capsys.readouterr()
    assert f"line {i + 1}:" in captured.err
    assert captured.out == ""


def test_every_payload_field_edit_exits_0_1_or_2(tmp_path, capsys, example_shapes):
    """Every field of every event shape, deleted or retyped: the check
    ends with a verdict or an input error, never an exception."""
    lines, first = example_shapes
    assert len(first) == 13
    for i in first.values():
        for field in _fields(json.loads(lines[i])):
            for edit in FIELD_EDITS:
                code = _check_edited(tmp_path, lines, i, field, edit)
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (lines[i], field, edit)
                assert code != 2 or f"line {i + 1}:" in err, (lines[i], field, edit, err)


def test_line_separator_characters_in_values_round_trip(tmp_path):
    """U+2028, U+2029 and U+0085 are written raw (no ASCII escaping) and
    are not line ends, so a trace holding them reads back unchanged; so
    does the NUL string, written escaped."""
    odd = "a\u2028b\u2029c\u0085d"
    obj = json.loads(EXAMPLE_SCENARIO.read_text(encoding="utf-8"))
    obj["workload"]["1"][0]["value"] = "red" + odd
    obj["workload"]["3"][1]["payload"] = "note" + odd
    obj["workload"]["1"].append({"op": "broadcast", "payload": "\0"})
    scen = tmp_path / "odd.scenario.json"
    scen.write_text(json.dumps(obj), encoding="utf-8")
    out = tmp_path / "odd.trace"
    assert main(["run", "--scenario", str(scen), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "\u2028" in text and "\u2029" in text and "\u0085" in text
    assert '"payload":"\\u0000"' in text
    assert serialize_trace(parse_trace(text)) == text
    proc = _check_subprocess(out)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_suite_is_a_usage_error(capsys):
    for suites, message in [("kbo,bogus", "unknown suite 'bogus'"),
                            ("kbo,kbo", "suite 'kbo' is named twice")]:
        assert main(["check", "--trace", str(GOLDEN_TRACE), "--suites", suites]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 2


def test_golden_trace_file_is_current():
    # guards against editing the scenario without regenerating artifacts
    trace = run_scenario(load_scenario(GOLDEN_SCENARIO))
    assert serialize_trace(trace) == GOLDEN_TRACE.read_text()


# --- unknown fields -------------------------------------------------------------


def _scenario_with(tmp_path, edit) -> Path:
    obj = json.loads(EXAMPLE_SCENARIO.read_text(encoding="utf-8"))
    edit(obj)
    scen = tmp_path / "s.json"
    scen.write_text(json.dumps(obj), encoding="utf-8")
    return scen


@pytest.mark.parametrize("edit, message", [
    (lambda o: o.update(oracle_polcy="echo"), "unknown scenario field 'oracle_polcy'"),
    (lambda o: o["workload"]["1"][0].update(valeu="x"), "unknown propose item field 'valeu'"),
    (lambda o: o["workload"]["3"][1].update(instance=0), "unknown broadcast item field 'instance'"),
    (lambda o: o.update(schedule_policy={"policy": "scripted", "script": [], "seed": 1}),
     "unknown schedule_policy field 'seed'"),
], ids=["scenario", "propose-item", "broadcast-item", "script"])
def test_run_refuses_an_unknown_field_naming_it(tmp_path, edit, message):
    # "oracle_polcy" once ran the default oracle with exit 0
    out = tmp_path / "t.trace"
    proc = _bocast("run", "--scenario", str(_scenario_with(tmp_path, edit)), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert f"error: {message}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_fuzz_refuses_an_unknown_template_field(tmp_path, capsys):
    template = _edited_template(tmp_path, {"crash_plan": {"sample": {}, "every": 2}})
    assert main(["fuzz", "--template", str(template), "--seeds", "1"]) == 2
    assert "seed index 0: unknown crash_plan field 'every'" in capsys.readouterr().err
    template = _edited_template(tmp_path, {"stepbudget": 10})
    assert main(["fuzz", "--template", str(template), "--seeds", "1"]) == 2
    assert "seed index 0: unknown scenario field 'stepbudget'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["oracle_polcy", "records", "format"])
def test_check_refuses_an_unknown_config_record_field_on_line_1(tmp_path, key):
    # a config record may add "record" and "trace_format" to the scenario's fields, nothing else
    lines = _example_lines()
    config = json.loads(lines[0])
    config[key] = "echo"
    lines[0] = json.dumps(config)
    bad = tmp_path / "config.trace"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = _check_subprocess(bad)
    _assert_rejected(proc, 1)
    assert f"line 1: unknown scenario field {key!r}" in proc.stderr


# --- newlines in a trace file ---------------------------------------------------


def test_a_lone_cr_inside_a_record_checks_as_the_lf_trace(tmp_path):
    # "\r" is JSON whitespace and no line end: the file reads as parse_trace reads its text
    lines = _example_lines()
    assert lines[3].startswith("[")
    lines[3] = lines[3].replace(",", ",\r", 1)
    edited = tmp_path / "cr.trace"
    edited.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    plain = tmp_path / "lf.trace"
    plain.write_text("\n".join(_example_lines()) + "\n", encoding="utf-8")
    want = _check_subprocess(plain)
    proc = _check_subprocess(edited)
    assert proc.returncode == want.returncode == 0, proc.stderr
    assert proc.stdout == want.stdout
    text = edited.read_bytes().decode("utf-8")
    assert read_trace(edited).rows == parse_trace(text).rows


def test_crlf_line_ends_and_a_blank_line_check_as_the_lf_trace(tmp_path, capsys):
    lines = _example_lines()
    plain = tmp_path / "lf.trace"
    plain.write_text("\n".join(lines) + "\n", encoding="utf-8")
    crlf = tmp_path / "crlf.trace"
    crlf.write_bytes(("\r\n".join([lines[0], "", *lines[1:]]) + "\r\n").encode("utf-8"))
    assert main(["check", "--trace", str(plain)]) == 0
    want = capsys.readouterr().out
    assert main(["check", "--trace", str(crlf)]) == 0
    assert capsys.readouterr().out == want


def test_a_byte_that_is_not_utf8_is_named_on_its_line_counting_lf_only(tmp_path):
    data = "\n".join(_example_lines()).encode("utf-8")
    first, rest = data.split(b"\n", 1)
    bad = tmp_path / "bad.trace"
    bad.write_bytes(first + b"\r\r\n" + b"[0,\r1,\xff]\n" + rest)
    proc = _check_subprocess(bad)
    _assert_input_refused(proc, bad, "line 2: not UTF-8")


# --- error branches -------------------------------------------------------------


def string_payload(rec):
    rec[3] = "x"


def test_check_refuses_an_event_payload_that_is_not_an_object(tmp_path):
    lines = _example_lines()
    lineno = _edit_first('"deliver-msg"', string_payload)(lines) + 1
    bad = tmp_path / "payload.trace"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    proc = _check_subprocess(bad)
    _assert_rejected(proc, lineno)
    assert f"line {lineno}: an event payload must be a JSON object" in proc.stderr


@pytest.mark.parametrize("edit, message", [
    (lambda o: o.update(schedule_policy={"policy": "round-robin"}),
     "unrecognized schedule_policy {'policy': 'round-robin'}"),
    (lambda o: o.update(crash_plan=[[2, -1]]), "crash turn must be >= 0 (got -1 for p2)"),
    (lambda o: o.update(schedule_policy={"policy": "scripted", "script": [[1, "task"]]}),
     "simulation error: disabled thread 'task' of p1 at turn 0"),
], ids=["policy-object", "negative-crash-turn", "disabled-thread"])
def test_run_refuses_a_scenario_value_naming_it(tmp_path, capsys, edit, message):
    out = tmp_path / "t.trace"
    assert main(["run", "--scenario", str(_scenario_with(tmp_path, edit)), "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_golden_on_a_directory_without_entries_exits_2(tmp_path, capsys):
    assert main(["golden", "--dir", str(tmp_path)]) == 2
    assert f"error: no golden entries (*.scenario.json) under {tmp_path}" in capsys.readouterr().err


def test_golden_reports_an_edited_verdicts_file(tmp_path, capsys):
    clone = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, clone)
    verdicts = clone / f"{GOLDEN_ENTRY}.verdicts"
    verdicts.write_text(verdicts.read_text(encoding="utf-8").replace("true", "false", 1),
                        encoding="utf-8")
    assert main(["golden", "--dir", str(clone)]) == 1
    assert f"{GOLDEN_ENTRY}: VERDICT MISMATCH" in capsys.readouterr().out.splitlines()


def test_golden_reports_a_scenario_whose_run_fails(tmp_path, capsys):
    clone = tmp_path / "golden"
    shutil.copytree(GOLDEN_DIR, clone)
    scenario = clone / f"{GOLDEN_ENTRY}.scenario.json"
    obj = json.loads(scenario.read_text(encoding="utf-8"))
    obj["schedule_policy"] = {"policy": "scripted", "script": [[1, "task"]]}
    scenario.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["golden", "--dir", str(clone)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"{GOLDEN_ENTRY}: ERROR disabled thread 'task' of p1 at turn 0" in out
    assert sum(line.endswith(": ok") for line in out) == len(out) - 1


def _failing_template(tmp_path) -> Path:
    # the echo oracle with no crashes fails agreement at seed index 0
    return _edited_template(tmp_path, {"oracle_policy": "echo", "crash_plan": []})


def test_fuzz_exits_2_after_its_summary_when_a_trace_cannot_be_written(tmp_path):
    out_dir = tmp_path / "fuzz"
    (out_dir / "fail-00000.trace").mkdir(parents=True)
    proc = _bocast("fuzz", "--template", str(_failing_template(tmp_path)), "--seeds", "2",
                   "--out", str(out_dir))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    assert json.loads(proc.stdout) == summary
    assert summary["failing_seed_indices"][0] == 0
    assert [e["seed_index"] for e in summary["errors"]] == [0]
    assert summary["errors"][0]["error"].startswith("trace write failed: ")
    assert "error: the summary lists 1 of 2 seeds in errors" in proc.stderr


def test_fuzz_exits_1_for_failing_seeds_alone(tmp_path, capsys):
    out_dir = tmp_path / "fuzz"
    assert main(["fuzz", "--template", str(_failing_template(tmp_path)), "--seeds", "1",
                 "--out", str(out_dir)]) == 1
    assert (out_dir / "fail-00000.trace").is_file()
    assert json.loads(capsys.readouterr().out)["errors"] == []


@pytest.mark.parametrize("edit, code", [
    ({"oracle_policy": "first-1"}, 0),
    ({"oracle_policy": "first-k-plus-one-permissive"}, 0),
    ({"oracle_policy": "echo"}, 1),  # five distinct values and k = 2
    ({"schedule_policy": "round-robin"}, 0),
], ids=["first-1", "permissive", "echo", "round-robin"])
def test_fuzz_exits_by_the_verdicts_of_its_seeds(tmp_path, capsys, edit, code):
    template = _edited_template(tmp_path, edit)
    assert main(["fuzz", "--template", str(template), "--seeds", "20"]) == code
    summary = json.loads(capsys.readouterr().out)
    assert summary["errors"] == []
    assert bool(summary["failing_seed_indices"]) == (code == 1)


def test_fuzz_exits_2_after_its_summary_when_a_seed_cannot_run(tmp_path, capsys):
    template = _edited_template(
        tmp_path, {"schedule_policy": {"policy": "scripted", "script": [[1, "task"]]}}
    )
    assert main(["fuzz", "--template", str(template), "--seeds", "2"]) == 2
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary["errors"] == [
        {"seed_index": i, "error": "disabled thread 'task' of p1 at turn 0"} for i in range(2)
    ]
    assert "error: the summary lists 2 of 2 seeds in errors" in captured.err
