"""The trace format 2 writer, kept as a reference.

Format 2 wrote each event as an object holding its step, pid, kind and
payload, one ``json.dumps`` per record.  Format 3 writes the same events
positionally, so serializing a run with this writer must still give the
bytes that the format-2 pins record: that shows the events themselves
did not change.
"""

from __future__ import annotations

import json


def format2_text(trace) -> str:
    def dumps(obj) -> str:
        return json.dumps(obj, separators=(",", ":"), ensure_ascii=False)

    cfg = {"record": "config", "trace_format": 2}
    cfg.update(trace.config.to_json_dict())
    lines = [dumps(cfg)]
    for step, ev in enumerate(trace.events):
        lines.append(dumps({
            "record": "event", "step": step, "pid": ev.pid, "kind": ev.kind,
            "payload": ev.payload,
        }))
    lines.append(dumps({"record": "outcome", "outcome": trace.outcome, "turns": trace.turns}))
    return "\n".join(lines) + "\n"
