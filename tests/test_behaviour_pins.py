"""Behaviour pins: the invoke, return, deliver-set, deliver-msg, decide
and crash events of the checked-in scenarios and of 50 fuzz template
seeds, and the verdict bytes of the checked-in scenarios, must stay as
``behaviour_digests.json`` records them.  The digests were taken before
MEM events became counts (trace format 2), which changed no behaviour.
The digest is the one the benchmark gate uses: sha256 over one
``[pid, kind, payload]`` JSON line per behaviour event, keys sorted.
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

PINS = json.loads((Path(__file__).parent / "behaviour_digests.json").read_text(encoding="utf-8"))
TEMPLATE = Path("scenarios/templates/n5_k2_propose.template.json")
BEHAVIOUR_KINDS = {"invoke", "return", "deliver-set", "deliver-msg", "decide", "crash"}


def behaviour_digest(events) -> str:
    h = hashlib.sha256()
    for ev in events:
        if ev.kind in BEHAVIOUR_KINDS:
            h.update(json.dumps([ev.pid, ev.kind, ev.payload], sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("path", sorted(PINS["scenarios"]))
def test_checked_in_scenario_behaviour_and_verdicts(path):
    trace = run_scenario(load_scenario(Path(path)))
    verdicts = serialize_verdicts(check_all(trace)).encode()
    assert behaviour_digest(trace.events) == PINS["scenarios"][path]["behaviour"]
    assert hashlib.sha256(verdicts).hexdigest() == PINS["scenarios"][path]["verdicts"]


def test_fuzz_template_seed_behaviour():
    template = json.loads(TEMPLATE.read_text(encoding="utf-8"))
    got = [
        behaviour_digest(run_scenario(instantiate_template(template, i)).events)
        for i in range(len(PINS["fuzz_template_seeds_0_49"]))
    ]
    assert got == PINS["fuzz_template_seeds_0_49"]
