"""Per-layer tracing for the benchmark, done entirely from outside the program.

``Tracer.install`` wraps every public function and method of the bocast
modules (names without a leading underscore, plus ``__init__``) and
rebinds each wrapped function in every bocast module that imported it by
name, so calls such as ``sort_ids`` from ``sim`` or ``Poset`` from
``checker`` are counted too.  ``Tracer.uninstall`` restores the originals.

Each wrapped call keeps, per function, a call count, its inclusive time,
its self time (inclusive time minus the time of wrapped calls made inside
it) and its entry time (inclusive time of the calls made from outside the
function's own module).  A module's self time is the sum over its
functions, so time in private helpers lands in the public function that
called them.  Calls at coarse boundaries (``SPAN_FUNCTIONS``) and the
benchmark's own stages are also kept as spans (id, name, request, start,
end, parent span id) in memory and written out by ``write``.  A few calls
also feed observers that count work a bare call count cannot show (ids
sorted, MEM versus one-shot snapshot accesses, idle task snapshots, the
posets the checker builds).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

MODULES = (
    "sim",
    "kscd",
    "messages",
    "objects",
    "k2s",
    "kbo",
    "ksa",
    "rng",
    "trace",
    "poset",
    "checker",
    "scenario",
    "cli",
)

SPAN_FUNCTIONS = frozenset(
    {
        "sim.run_scenario",
        "trace.serialize_trace",
        "trace.parse_trace",
        "checker.check_all",
        "checker.TraceIndex.__init__",
        "checker.build_order",
        "checker.width_and_antichain",
        "poset.Poset.__init__",
        "poset.Poset.width",
        "poset.Poset.max_antichain",
        "poset.Poset.decompose_channels",
        "scenario.ScenarioConfig.from_json_dict",
        "cli.instantiate_template",
    }
)

# stats slots
CALLS, TOTAL, SELF, ENTRY = range(4)

# Counts the observers keep, named as the benchmark reports them.
OBSERVED_COUNTS = (
    "kscd.empty_mem_snapshots",
    "messages.ids_sorted",
    "objects.mem_write_calls",
    "objects.mem_snapshot_calls",
    "objects.oneshot_calls",
    "poset.elements",
    "poset.relations",
    "poset.width",
)


def _public_callables(module):
    """(owner, attribute, function, key, is_static) for a module's public API."""
    short = module.__name__.rsplit(".", 1)[-1]
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, obj, f"{short}.{name}", False
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, val in sorted(vars(obj).items()):
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(val, staticmethod):
                    yield obj, attr, val.__func__, f"{short}.{name}.{attr}", True
                elif inspect.isfunction(val):
                    yield obj, attr, val, f"{short}.{name}.{attr}", False


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # frames: [key, child_time, module]
        self.span_stack: list[int] = []
        self.patches: list[tuple[object, str, object]] = []
        self.wrappers: list = []
        self.request = None  # index of the scenario being run, tagged on spans
        self.spans: list[tuple] = []
        self.next_span = 0
        self.reset()

    # --- per-pass state -------------------------------------------------

    def reset(self) -> None:
        """Start a fresh set of counters (spans are kept for the whole run)."""
        self.stats: dict[str, list] = {}
        self.counts = dict.fromkeys(OBSERVED_COUNTS, 0)
        self.posets: list = []
        self._task_mem_snapshot = False
        for wrapper in self.wrappers:
            wrapper.stats = self._slot(wrapper.key)

    def _slot(self, key: str) -> list:
        return self.stats.setdefault(key, [0, 0.0, 0.0, 0.0])

    # --- installing -------------------------------------------------------

    def install(self, api) -> None:
        package = api.__name__
        everyone = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        for short in MODULES:
            module = sys.modules[f"{package}.{short}"]
            for owner, attr, fn, key, is_static in list(_public_callables(module)):
                wrapper = self._wrap(key, fn)
                self.wrappers.append(wrapper)
                if inspect.isclass(owner):
                    self._patch(owner, attr, staticmethod(wrapper) if is_static else wrapper)
                    continue
                for other in everyone:
                    for bound, val in list(vars(other).items()):
                        if val is fn:
                            self._patch(other, bound, wrapper)

    def uninstall(self) -> None:
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)
        self.wrappers = []

    def _patch(self, owner, attr, value) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, key: str, fn):
        stack = self.stack
        clock = time.perf_counter
        module = key.split(".", 1)[0]
        observer = _OBSERVERS.get(key)
        span = key in SPAN_FUNCTIONS
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0.0, module]
            stack.append(frame)
            if span:
                span_id = tracer._open_span()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                st = wrapper.stats
                st[CALLS] += 1
                st[TOTAL] += dur
                st[SELF] += dur - frame[1]
                if parent is None:
                    st[ENTRY] += dur
                else:
                    parent[1] += dur
                    if parent[2] != module:
                        st[ENTRY] += dur
                if span:
                    tracer._close_span(span_id, key, start, end)
            if observer is not None:
                observer(tracer, args, result)
            return result

        wrapper.key = key
        wrapper.stats = self._slot(key)
        return wrapper

    # --- spans ------------------------------------------------------------

    def _open_span(self) -> int:
        self.next_span += 1
        self.span_stack.append(self.next_span)
        return self.next_span

    def _close_span(self, span_id: int, name: str, start: float, end: float) -> None:
        self.span_stack.pop()
        parent = self.span_stack[-1] if self.span_stack else None
        self.spans.append((span_id, name, self.request, start, end, parent))

    @contextmanager
    def stage(self, name: str):
        """A span of the benchmark itself; its time is attributed to no module."""
        frame = [f"bench.{name}", 0.0, "bench"]
        parent = self.stack[-1] if self.stack else None
        self.stack.append(frame)
        span_id = self._open_span()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            if parent is not None:
                parent[1] += end - start
            self._close_span(span_id, frame[0], start, end)

    # --- reading --------------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0])[CALLS]

    def total(self, key: str, slot: int = TOTAL) -> float:
        return self.stats.get(key, [0, 0.0, 0.0, 0.0])[slot]

    def module_self(self) -> dict[str, float]:
        out = {name: 0.0 for name in MODULES}
        for key, st in self.stats.items():
            out[key.split(".", 1)[0]] += st[SELF]
        return out

    def write(self, path) -> None:
        functions = {
            key: {"calls": st[CALLS], "total_s": st[TOTAL], "self_s": st[SELF], "entry_s": st[ENTRY]}
            for key, st in sorted(self.stats.items())
            if st[CALLS]
        }
        spans = [
            {"id": s[0], "name": s[1], "request": s[2], "start": s[3], "end": s[4], "parent": s[5]}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": functions, "spans": spans}, fh)


# --- observers: work a call count alone does not show --------------------------


def _snapshot_array_write(tracer, args, _result):
    mem = getattr(args[0], "object_id", None) == "MEM"
    tracer.counts["objects.mem_write_calls" if mem else "objects.oneshot_calls"] += 1


def _snapshot_array_snapshot(tracer, args, _result):
    if getattr(args[0], "object_id", None) != "MEM":
        tracer.counts["objects.oneshot_calls"] += 1
        return
    tracer.counts["objects.mem_snapshot_calls"] += 1
    if tracer.stack and tracer.stack[-1][0] == "kscd.BroadcastEngine.task_step":
        tracer._task_mem_snapshot = True


def _task_step(tracer, args, result):
    # A background step that snapshotted MEM, delivered nothing and stayed
    # idle found no backlog: the snapshot was wasted.
    if tracer._task_mem_snapshot and result is None and getattr(args[0], "tstate", None) == "idle":
        tracer.counts["kscd.empty_mem_snapshots"] += 1
    tracer._task_mem_snapshot = False


def _sort_ids(tracer, _args, result):
    tracer.counts["messages.ids_sorted"] += len(result)


def _poset_init(tracer, args, _result):
    poset = args[0]
    tracer.posets.append(poset)
    tracer.counts["poset.elements"] += len(poset.elements)
    tracer.counts["poset.relations"] += sum(
        v.bit_count() if isinstance(v, int) else len(v) for v in poset.less.values()
    )


def _poset_width(tracer, _args, result):
    tracer.counts["poset.width"] = max(tracer.counts["poset.width"], result)


_OBSERVERS = {
    "objects.SnapshotArray.write": _snapshot_array_write,
    "objects.SnapshotArray.snapshot": _snapshot_array_snapshot,
    "kscd.BroadcastEngine.task_step": _task_step,
    "messages.sort_ids": _sort_ids,
    "poset.Poset.__init__": _poset_init,
    "poset.Poset.width": _poset_width,
}
