"""Behaviour pins: the invoke, return, deliver-set, deliver-msg, decide
and crash events of the checked-in scenarios and of 50 fuzz template
seeds, and the verdict bytes of the checked-in scenarios, must stay as
``behaviour_digests.json`` records them.  The digests were taken before
MEM events became counts (trace format 2), which changed no behaviour.
The digest is the one the benchmark gate uses: sha256 over one
``[pid, kind, payload]`` JSON line per behaviour event, keys sorted.

The sha256 of each of those runs' serialized trace is pinned twice.  The
format-2 pins (``trace``, ``fuzz_template_seed_traces_0_49``) were taken
with the per-record ``json.dumps`` writer of trace format 2, which
``_format2`` keeps: the events of today's runs must still give those
bytes.  The format-3 pins (``trace_format_3``,
``fuzz_template_seed_format_3_traces_0_49``) hold ``serialize_trace`` to
every byte of trace format 3.

Three entries are forged traces, checked in under ``scenarios/forged/``
and pinned under the path of the scenario that once prescribed their
deliveries.  Their behaviour and verdicts are pinned; their bytes are
the checked-in file, so no trace digest is.  The width-3 antichain
trace's verdict digest, the one ``verdict_digests.json`` pins too, was
taken again when the ``kbo.bounded`` witness dropped its always empty
``excluded`` list.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from bocast.checker import check_all, serialize_verdicts
from bocast.cli import instantiate_template
from bocast.scenario import load_scenario
from bocast.sim import run_scenario
from bocast.trace import read_trace, serialize_trace

from _format2 import format2_text

PINS = json.loads((Path(__file__).parent / "behaviour_digests.json").read_text(encoding="utf-8"))
TEMPLATE = Path("scenarios/templates/n5_k2_propose.template.json")
BEHAVIOUR_KINDS = {"invoke", "return", "deliver-set", "deliver-msg", "decide", "crash"}
# pin key -> the forged trace pinned under it
FORGED = {
    "scenarios/golden/width2_profile.scenario.json": "scenarios/forged/width2_profile.trace",
    "scenarios/negative/ordering_breach.scenario.json": "scenarios/forged/ordering_breach.trace",
    "scenarios/negative/width3_antichain.scenario.json": "scenarios/forged/width3_antichain.trace",
}


def behaviour_digest(events) -> str:
    h = hashlib.sha256()
    for ev in events:
        if ev.kind in BEHAVIOUR_KINDS:
            h.update(json.dumps([ev.pid, ev.kind, ev.payload], sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()


def trace_digest(trace) -> str:
    return hashlib.sha256(serialize_trace(trace).encode("utf-8")).hexdigest()


def format2_digest(trace) -> str:
    return hashlib.sha256(format2_text(trace).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("path", sorted(PINS["scenarios"]))
def test_checked_in_scenario_behaviour_and_verdicts(path):
    pins = PINS["scenarios"][path]
    if path in FORGED:
        trace = read_trace(FORGED[path])
        assert pins.keys() == {"behaviour", "verdicts"}
    else:
        trace = run_scenario(load_scenario(Path(path)))
        assert format2_digest(trace) == pins["trace"]
        assert trace_digest(trace) == pins["trace_format_3"]
    verdicts = serialize_verdicts(check_all(trace)).encode()
    assert behaviour_digest(trace.events) == pins["behaviour"]
    assert hashlib.sha256(verdicts).hexdigest() == pins["verdicts"]


def test_fuzz_template_seed_behaviour():
    template = json.loads(TEMPLATE.read_text(encoding="utf-8"))
    traces = [
        run_scenario(instantiate_template(template, i))
        for i in range(len(PINS["fuzz_template_seeds_0_49"]))
    ]
    assert [behaviour_digest(t.events) for t in traces] == PINS["fuzz_template_seeds_0_49"]
    assert [format2_digest(t) for t in traces] == PINS["fuzz_template_seed_traces_0_49"]
    assert [trace_digest(t) for t in traces] == PINS["fuzz_template_seed_format_3_traces_0_49"]
