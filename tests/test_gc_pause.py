"""The cyclic collector pause of the bulk builders.

``run_scenario``, ``serialize_trace``, ``parse_trace`` and ``check_all``
run with the cyclic garbage collector paused (``trace.pauses_cyclic_gc``).
That is safe only while they build acyclic trees and leave no cyclic
garbage, which ``test_the_bulk_builders_leave_no_cyclic_garbage``
enforces.  Other tests pin the collector state on the way in, inside and
on the way out, also when a call raises, and that ``bocast run`` frees
the trace it made before any collection can walk it.
"""

from __future__ import annotations

import gc
import json
import re
import weakref
from pathlib import Path

import pytest

from bocast import cli
from bocast.checker import CheckerError, check_all
from bocast.cli import instantiate_template
from bocast.scenario import ScenarioConfig, WorkItem, load_scenario
from bocast.sim import SimulationError, run_scenario
from bocast.trace import Trace, TraceFormatError, parse_trace, serialize_trace

from _drivers import stack_config

SCENARIOS = sorted(Path("scenarios").glob("*/*.scenario.json"))
GOLDEN_TRACES = sorted(Path("scenarios/golden").glob("*.trace"))
TEMPLATE = Path("scenarios/templates/n5_k2_propose.template.json")
TEMPLATE_SEEDS = range(50)
EXAMPLE = Path("scenarios/examples/n3_k2_propose.scenario.json")


@pytest.fixture
def collector_state():
    """Restores the collector's state after the test, whatever it did."""
    enabled = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if enabled else gc.disable)()


def _configs():
    for path in SCENARIOS:
        yield str(path), load_scenario(path)
    template = json.loads(TEMPLATE.read_text(encoding="utf-8"))
    for i in TEMPLATE_SEEDS:
        yield f"template-seed-{i}", instantiate_template(template, i)


def test_the_bulk_builders_leave_no_cyclic_garbage(collector_state):
    assert len(SCENARIOS) >= 4 and GOLDEN_TRACES
    gc.disable()
    gc.collect()
    gc.freeze()  # what pytest holds already: each collect walks only what follows
    try:
        texts = [(str(path), path.read_text(encoding="utf-8")) for path in GOLDEN_TRACES]
        for name, config in _configs():
            gc.collect()
            trace = run_scenario(config)
            assert gc.collect() == 0, f"{name}: run_scenario left cyclic garbage"
            texts.append((name, serialize_trace(trace)))
            assert gc.collect() == 0, f"{name}: serialize_trace left cyclic garbage"
            del trace
        for name, text in texts:
            gc.collect()
            parsed = parse_trace(text)
            assert gc.collect() == 0, f"{name}: parse_trace left cyclic garbage"
            check_all(parsed)
            assert gc.collect() == 0, f"{name}: check_all left cyclic garbage"
    finally:
        gc.unfreeze()


# --- the collector state around each call ------------------------------------


def _example():
    config = load_scenario(EXAMPLE)
    text = serialize_trace(run_scenario(config))
    return config, text


def _calls():
    """name -> (call, the exception it raises or None)."""
    config, text = _example()
    lines = text.split("\n")
    malformed = "\n".join([lines[0], "[1]", *lines[1:]])
    deep = "\n".join([lines[0], "[" * 100_000 + "]" * 100_000, *lines[1:]])
    trace = parse_trace(text)
    bad_row = Trace(trace.config, [*trace.rows, [1]], trace.outcome, trace.turns)
    bad_script = stack_config(
        2, 1, 0, {1: (WorkItem(op="broadcast", payload="x"),)},
        schedule="scripted", script=((2, "main"),),
    )
    return {
        "run_scenario": (lambda: run_scenario(config), None),
        "run_scenario-bad-script": (lambda: run_scenario(bad_script), SimulationError),
        "serialize_trace": (lambda: serialize_trace(trace), None),
        "serialize_trace-bad-row": (lambda: serialize_trace(bad_row), ValueError),
        "parse_trace": (lambda: parse_trace(text), None),
        "parse_trace-malformed-line": (lambda: parse_trace(malformed), TraceFormatError),
        "parse_trace-deep-line": (lambda: parse_trace(deep), TraceFormatError),
        "check_all": (lambda: check_all(trace), None),
        "check_all-unknown-suite": (lambda: check_all(trace, ("kbo", "bogus")), CheckerError),
    }


CALLS = _calls()


@pytest.mark.parametrize("entry", [True, False], ids=["enabled-on-entry", "disabled-on-entry"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_the_collector_state_is_restored(name, entry, collector_state):
    call, raises = CALLS[name]
    (gc.enable if entry else gc.disable)()
    if raises is None:
        call()
    else:
        with pytest.raises(raises):
            call()
    assert gc.isenabled() is entry


class _ProbedText(str):
    def find(self, *args):  # parse_trace finds the end of each block of lines with it
        _seen.append(gc.isenabled())
        return super().find(*args)


class _ProbedConfig(ScenarioConfig):
    def validate(self):
        _seen.append(gc.isenabled())
        return super().validate()

    def to_json_dict(self):  # serialize_trace writes the config record with it
        _seen.append(gc.isenabled())
        return super().to_json_dict()


class _ProbedTrace(Trace):
    @property
    def quiescent(self):
        _seen.append(gc.isenabled())
        return super().quiescent


_seen: list[bool] = []


def test_the_collector_is_off_inside_each_call(collector_state):
    config, text = _example()
    fields = {name: getattr(config, name) for name in ScenarioConfig.__dataclass_fields__}
    parsed = parse_trace(text)
    probed = _ProbedConfig(**fields)
    probes = {
        "run_scenario": lambda: run_scenario(probed),
        "serialize_trace": lambda: serialize_trace(
            Trace(probed, parsed.rows, parsed.outcome, parsed.turns)
        ),
        "parse_trace": lambda: parse_trace(_ProbedText(text)),
        "check_all": lambda: check_all(
            _ProbedTrace(parsed.config, parsed.rows, parsed.outcome, parsed.turns)
        ),
    }
    gc.enable()
    for name, probe in probes.items():
        _seen.clear()
        probe()
        assert _seen and not any(_seen), name
        assert gc.isenabled(), name


@pytest.mark.parametrize("out", [True, False], ids=["out", "stdout"])
def test_bocast_run_frees_its_trace_before_any_collection(out, tmp_path, monkeypatch, collector_state):
    # A threshold of 1 starts a collection at the first container made
    # outside a paused call; none may start while the fresh trace is alive.
    held, alive = [], []

    def run(config):
        trace = run_scenario(config)
        held.append(weakref.ref(trace))
        return trace

    def started(phase, _info):
        if phase == "start" and held:
            alive.append(held[0]() is not None)

    monkeypatch.setattr(cli, "run_scenario", run)
    threshold = gc.get_threshold()
    argv = ["run", "--scenario", str(EXAMPLE)] + (["--out", str(tmp_path / "t.trace")] if out else [])
    gc.enable()
    gc.set_threshold(1)
    gc.callbacks.append(started)
    try:
        assert cli.main(argv) == 0
    finally:
        gc.callbacks.remove(started)
        gc.set_threshold(*threshold)
    assert held and held[0]() is None
    assert not any(alive)


def test_only_the_helper_touches_the_collector():
    src = Path(__file__).resolve().parents[1] / "src" / "bocast"
    importers = {
        path.name for path in src.glob("*.py")
        if re.search(r"^\s*(import gc\b|from gc import)", path.read_text(encoding="utf-8"), re.M)
    }
    assert importers == {"trace.py"}
    text = (src / "trace.py").read_text(encoding="utf-8")
    assert len(re.findall(r"\bgc\.(disable|enable)\(", text)) == 2


def test_bocast_fuzz_frees_each_trace_before_the_next_seed(tmp_path, monkeypatch):
    # At each seed's start, the last seed's trace (kept for a failing
    # seed's write_trace at most) and its verdicts are gone.
    held, alive = [], []

    def run(config):
        alive.append(any(ref() is not None for ref in held))
        trace = run_scenario(config)
        held.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(cli, "run_scenario", run)
    argv = ["fuzz", "--template", str(TEMPLATE), "--seeds", "5", "--out", str(tmp_path)]
    assert cli.main(argv) in (0, 1)
    assert len(held) == 5 and alive == [False] * 5
    assert all(ref() is None for ref in held)
