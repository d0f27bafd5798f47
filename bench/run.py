"""Scenario-to-verdict benchmark of bocast.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run builds its scenarios from --seed, then times the path a user of the
command line pays for: ``run_scenario`` and ``serialize_trace`` (what
``bocast run`` costs), then ``parse_trace`` and ``check_all`` over every
suite (what ``bocast check`` costs).  One pass runs every scenario of the
workload once; passes repeat for as long as another one still fits in
--seconds (at least one), and times are reported as medians over passes,
in reference seconds (see "machine speed" below).

Every scenario is checked: it must end quiescent with no failing or
unevaluated verdict, and each repeat must give the same trace bytes and
the same digest of the invoke/return/deliver-set/deliver-msg/decide/crash
events as the first pass.  After the timed passes an untimed verify pass
runs every scenario once more, compares its trace bytes and checks that
the trace round-trips through parse and serialize unchanged.  The first
pass's digests must also equal those baseline.json records for the seed,
if it records any.  A scenario that raises or misses any check is counted
in ``failed``.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1
prints the per-layer metrics instead: one untraced pass gives the
reference traces, the per-suite checker times and the work counts read
from the traces, then passes with every public bocast function wrapped
(see layers.py) give self times and call counts.  The traced traces must
be byte-identical to the untraced ones and the counts must repeat exactly
from pass to pass.  Spans are written to .bench_out/ at the end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it
repeat each metric for a reader.  The program is imported from the
``src`` directory next to this one and from nowhere else.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import itertools
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TEMPLATE = ROOT / "scenarios" / "templates" / "n5_k2_propose.template.json"
BASELINE = Path(__file__).resolve().parent / "baseline.json"
OUT_DIR = ROOT / ".bench_out"

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers  # noqa: E402

# Stack-mode workloads: broadcast-only, seeded-random schedule, the
# first-k-adversarial oracle, no crashes.  The fuzz workload expands
# ``scenarios`` seeded scenarios from the fuzz template, the way
# ``bocast fuzz`` does.
WORKLOADS = {
    "wide-n20-k4": {"n": 20, "k": 4, "per_process": 20},
    "deep-n5-k1": {"n": 5, "k": 1, "per_process": 160},
    "fuzz-n5-k2": {"template": TEMPLATE, "scenarios": 1000},
}

STEP_BUDGET = 1_000_000
SETUP_REPEATS = 7
BEHAVIOUR_KINDS = frozenset({"invoke", "return", "deliver-set", "deliver-msg", "decide", "crash"})

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "check_s": "s",
    "scenarios_per_s": "1/s",
    "scenario_p50_ms": "ms",
    "scenario_p95_ms": "ms",
    "trace_mb": "MB",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure, bad arguments)."""


# --- machine speed ------------------------------------------------------------
#
# The benchmark runs on shared machines whose speed changes many times a
# second (a busy sibling hardware thread slows a core by a third or more)
# and whose busy share drifts over minutes, which no number of repeats
# averages out.  So while timed work runs, a SIGALRM handler times a fixed
# pure-Python kernel that does not touch the program, every PROBE_INTERVAL_S,
# and every time is reported in reference seconds:
#     (measured seconds - time spent in probes) * PROBE_REF_S / mean probe time
# i.e. seconds on an interpreter that runs the kernel in PROBE_REF_S.  The
# mean is over the probes taken during the timed stage itself, or over the
# nearest MIN_SAMPLES probes when the stage held fewer (a fuzz scenario
# lasts about half a probe interval).  A change to the program moves these
# exactly as it moves wall time; a slower or faster machine moves program
# and probe alike, so it mostly cancels.  Each run also prints the same
# figures in wall seconds; bench/README.md gives the spreads of both.

PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 4e-5


def _kernel() -> int:
    # Small-int arithmetic only: it allocates nothing, so its speed does not
    # depend on the state of the program's heap.
    x = 1
    for _ in itertools.repeat(None, 800):
        x = (x * 5 + 1) & 127
    return x


class Speed:
    """Probes machine speed while open; gives reference-seconds factors."""

    MIN_SAMPLES = 25

    def __init__(self):
        self.stamps: list[float] = []  # clock() at each probe
        self.samples: list[float] = []  # kernel time of each probe
        self.block_start = 0
        self.overhead = 0.0
        self.factors: list[float] = []

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def _probe(self, _signum=None, _frame=None) -> None:
        # The first kernel run refills the caches the program evicted; only
        # the second is a sample, so the probe sees the machine, not the
        # program's cache footprint.
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        _kernel()
        t2 = time.perf_counter()
        self.stamps.append(t0 - self.overhead)
        self.samples.append(t2 - t1)
        self.overhead += t2 - t0

    def clock(self) -> float:
        """perf_counter without the time spent in probes."""
        return time.perf_counter() - self.overhead

    @staticmethod
    def _factor(samples) -> float:
        cap = 3 * statistics.median(samples)  # a probe descheduled by the OS is not speed
        return PROBE_REF_S / statistics.fmean(min(t, cap) for t in samples)

    def factor(self) -> float:
        """Factor for the block of work since the previous call."""
        while len(self.samples) - self.block_start < 5:  # a block of a few intervals or less
            self._probe()
        f = self._factor(self.samples[self.block_start:])
        self.block_start = len(self.samples)
        self.factors.append(f)
        return f

    def factor_around(self, start: float, end: float) -> float:
        """Factor from the probes taken between two clock() readings, widened
        to the nearest MIN_SAMPLES probes when the stage held fewer."""
        lo = bisect.bisect_left(self.stamps, start)
        hi = bisect.bisect_right(self.stamps, end)
        while hi - lo < self.MIN_SAMPLES and (lo > 0 or hi < len(self.stamps)):
            lo, hi = max(0, lo - 1), min(len(self.stamps), hi + 1)
        return self._factor(self.samples[lo:hi])


# --- set-up -------------------------------------------------------------------


def import_bocast():
    """Import bocast afresh from SRC, dropping any copy imported before."""
    if not (SRC / "bocast" / "__init__.py").is_file():
        raise BenchError(f"no bocast package under {SRC}")
    for name in [m for m in sys.modules if m == "bocast" or m.startswith("bocast.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bocast
    import bocast.cli  # noqa: F401  (instantiate_template)

    if SRC.resolve() not in Path(bocast.__file__).resolve().parents:
        raise BenchError(f"bocast was imported from {bocast.__file__}, not from {SRC}")
    return bocast


def stack_scenario(n: int, k: int, per_process: int, seed: int) -> dict:
    return {
        "n": n,
        "k": k,
        "seed": seed,
        "schedule_policy": "seeded-random",
        "crash_plan": [],
        "workload": {
            str(pid): [{"op": "broadcast", "payload": f"m{pid}.{i}"} for i in range(per_process)]
            for pid in range(1, n + 1)
        },
        "step_budget": STEP_BUDGET,
        "oracle_policy": "first-k-adversarial",
    }


def make_configs(api, spec: dict, seed: int) -> list:
    """The workload's scenarios, validated, as the program receives them."""
    if "template" in spec:
        if not spec["template"].is_file():
            raise BenchError(f"fuzz template {spec['template']} is missing")
        template = json.loads(spec["template"].read_text(encoding="utf-8"))
        template["seed"] = seed
        return [api.cli.instantiate_template(template, i) for i in range(spec["scenarios"])]
    obj = stack_scenario(spec["n"], spec["k"], spec["per_process"], seed)
    return [api.ScenarioConfig.from_json_dict(obj)]


def setup(spec: dict, seed: int, clock):
    """Import plus scenario generation; everything before the first timed call."""
    start = clock()
    api = import_bocast()
    configs = make_configs(api, spec, seed)
    return clock() - start, api, configs


# --- one scenario ---------------------------------------------------------------


def behaviour_digest(events) -> str:
    """sha256 of the events the behaviour contract fixes, in trace order."""
    h = hashlib.sha256()
    for ev in events:
        if ev.kind in BEHAVIOUR_KINDS:
            h.update(json.dumps([ev.pid, ev.kind, ev.payload], sort_keys=True).encode())
            h.update(b"\n")
    return h.hexdigest()


class Outcome:
    """Times and checks of one scenario run."""

    def __init__(self):
        self.sim_s = self.serialize_s = self.check_s = 0.0
        self.raw = (0.0, 0.0, 0.0)
        self.bytes = 0
        self.sha = self.digest = None
        self.problems: list[str] = []
        self.stamps = None
        self.trace = self.text = self.verdicts = None

    @property
    def run_s(self) -> float:
        return self.sim_s + self.serialize_s

    def scale(self, speed: Speed) -> None:
        """To reference seconds, each stage by the probes taken around it."""
        if self.stamps is None:
            return
        self.raw = (self.sim_s, self.serialize_s, self.check_s)
        t0, t1, t2, t3, t4 = self.stamps
        self.sim_s *= speed.factor_around(t0, t1)
        self.serialize_s *= speed.factor_around(t1, t2)
        self.check_s *= speed.factor_around(t3, t4)


def text_sha(text: str) -> tuple[int, str]:
    """UTF-8 size and sha256 of a trace, encoded a slice at a time so that no
    second full copy of the trace is made."""
    h = hashlib.sha256()
    size = 0
    for i in range(0, len(text), 1 << 20):
        chunk = text[i : i + (1 << 20)].encode("utf-8")
        size += len(chunk)
        h.update(chunk)
    return size, h.hexdigest()


def run_one(api, config, reference: Outcome | None, clock, tracer=None, keep=False) -> Outcome:
    """Time scenario -> trace -> text -> parsed trace -> verdicts, then check it."""
    out = Outcome()
    try:
        with _stage(tracer, "run"):
            t0 = clock()
            trace = api.run_scenario(config)
            t1 = clock()
            text = api.serialize_trace(trace)
            t2 = clock()
        outcome, turns = trace.outcome, trace.turns
        del trace  # `bocast check` starts from the text alone
        with _stage(tracer, "check"):
            t3 = clock()
            parsed = api.parse_trace(text)
            verdicts = api.check_all(parsed)
            t4 = clock()
    except Exception as exc:  # a failed operation is counted, not fatal
        out.problems.append(f"raised {type(exc).__name__}: {exc}")
        return out
    out.sim_s, out.serialize_s, out.check_s = t1 - t0, t2 - t1, t4 - t3
    out.stamps = (t0, t1, t2, t3, t4)
    if outcome != "quiescent":
        out.problems.append(f"outcome {outcome} after {turns} turns")
    bad = [f"{v.property}={v.status}" for v in verdicts if v.status != "pass"]
    if bad:
        out.problems.append("verdicts " + ", ".join(bad))
    out.digest = behaviour_digest(parsed.events)
    if keep:
        out.trace, out.text, out.verdicts = parsed, text, verdicts
    del parsed, verdicts
    out.bytes, out.sha = text_sha(text)
    if reference is not None:
        if out.sha != reference.sha:
            out.problems.append("trace bytes differ from the first pass")
        if out.digest != reference.digest:
            out.problems.append("behaviour digest differs from the first pass")
    return out


def verify_pass(api, configs, references) -> None:
    """Untimed: run every scenario again and check that its trace has the first
    pass's bytes (so its events and behaviour digest too) and that it
    round-trips through parse and serialize.  A miss counts against the first
    pass's scenario.  It runs after peak RSS is read, because the round trip
    holds more copies of a trace than the program does."""
    for config, ref in zip(configs, references):
        if ref.sha is None:
            continue
        try:
            text = api.serialize_trace(api.run_scenario(config))
            if text_sha(text)[1] != ref.sha:
                ref.problems.append("trace bytes differ on a repeat")
            if api.serialize_trace(api.parse_trace(text)) != text:
                ref.problems.append("serialize(parse(trace)) differs from the trace")
        except Exception as exc:
            ref.problems.append(f"repeat raised {type(exc).__name__}: {exc}")


def _stage(tracer, name):
    return contextlib.nullcontext() if tracer is None else tracer.stage(name)


def freeze_heap() -> None:
    """Keep the set-up's objects (modules, the workload's configs) out of every
    later collection: a CLI process holds one config, not a thousand."""
    gc.collect()
    gc.freeze()


def run_pass(api, configs, references, speed: Speed, inspect=None) -> list[Outcome]:
    """Every scenario once, times scaled to reference seconds.

    ``inspect``, if given, sees each outcome with its parsed trace, text and
    verdicts, which are dropped afterwards.
    """
    outcomes = []
    for i, config in enumerate(configs):
        ref = references[i] if references else None
        o = run_one(api, config, ref, speed.clock, keep=inspect is not None)
        if o.trace is not None:
            inspect(o)
            o.trace = o.text = o.verdicts = None
        outcomes.append(o)
    speed.factor()  # the pass's own factor, printed; it also makes sure the pass was probed
    for o in outcomes:
        o.scale(speed)
    return outcomes


# --- end-to-end run -----------------------------------------------------------------


def end_to_end(spec: dict, seed: int, seconds: float, speed: Speed):
    setups = []
    for _ in range(SETUP_REPEATS):
        took, api, configs = setup(spec, seed, speed.clock)
        setups.append(took)
    setup_raw = statistics.median(setups)
    setup_s = setup_raw * speed.factor()
    freeze_heap()

    started = time.perf_counter()
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(api, configs, passes[0] if passes else None, speed))
        took = time.perf_counter() - t0
        if time.perf_counter() + took > started + seconds:
            break
    peak_rss = peak_rss_mb()
    verify_pass(api, configs, passes[0])

    metrics = stage_metrics(passes, len(configs), lambda o: (o.sim_s, o.serialize_s, o.check_s))
    metrics["setup_s"] = setup_s
    metrics["trace_mb"] = sum(o.bytes for o in passes[0]) / 1e6
    metrics["peak_rss_mb"] = peak_rss
    # The same figures in wall seconds, so that what the probe does to the
    # spread between runs can be checked (sweep.py reports both).
    raw = stage_metrics(passes, len(configs), lambda o: o.raw)
    raw["setup_s"] = setup_raw
    notes = {
        "passes": len(passes),
        "scenarios_per_pass": len(configs),
        "latency_samples": sum(len(p) for p in passes),
        "run_s_per_pass": [round(sum(o.run_s for o in p), 4) for p in passes],
        "check_s_per_pass": [round(sum(o.check_s for o in p), 4) for p in passes],
        "speed_factors": [round(f, 4) for f in speed.factors],
        "wall": json.dumps(raw),
    }
    return with_units(metrics, END_TO_END_UNITS), passes, notes


def stage_metrics(passes, scenarios: int, stages) -> dict:
    """Run, check and latency figures from each outcome's (sim, serialize, check) times."""
    run_s = statistics.median(sum(sum(stages(o)[:2]) for o in p) for p in passes)
    check_s = statistics.median(sum(stages(o)[2] for o in p) for p in passes)
    latencies_ms = sorted(sum(stages(o)) * 1e3 for p in passes for o in p if not o.problems) or [0.0]
    return {
        "run_s": run_s,
        "check_s": check_s,
        "scenarios_per_s": scenarios / (run_s + check_s),
        "scenario_p50_ms": statistics.median(latencies_ms),
        "scenario_p95_ms": percentile(latencies_ms, 0.95),
    }


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def pass_digests(outcomes) -> dict:
    """The combined trace sha256 and behaviour digest of one pass."""
    sha, digest = hashlib.sha256(), hashlib.sha256()
    for o in outcomes:
        sha.update(str(o.sha).encode())
        digest.update(str(o.digest).encode())
    return {"trace_sha": sha.hexdigest(), "behaviour_digest": digest.hexdigest()}


def recorded_digests(workload: str, seed: int) -> dict | None:
    """The digests BASELINE records for this workload and seed, if any."""
    if not BASELINE.is_file():
        return None
    recorded = json.loads(BASELINE.read_text(encoding="utf-8"))
    return recorded.get("workloads", {}).get(workload, {}).get("digests", {}).get(str(seed))


def compare_digests(first_pass, expected: dict) -> list[str]:
    """Hold the first pass to the recorded digests.

    A behaviour digest other than the recorded one breaks the behaviour
    contract; it is not known which scenario changed, so every scenario of
    the pass counts as failed.  Other trace bytes alone are reported, not
    failed: a new trace format (ROADMAP: trace format v2) changes them
    while the behaviour holds.
    """
    got = pass_digests(first_pass)
    notes = []
    if got["behaviour_digest"] != expected["behaviour_digest"]:
        notes.append(f"behaviour digest differs from {BASELINE.name}")
        for o in first_pass:
            o.problems.append(notes[-1])
    if got["trace_sha"] != expected["trace_sha"]:
        notes.append(f"trace bytes differ from {BASELINE.name}")
    return notes


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# --- traced run -------------------------------------------------------------------

PER_LAYER_UNITS = {
    "sim.self_s": "s",
    "sim.turns": "count",
    "sim.turns_per_s": "1/s",
    "kscd.self_s": "s",
    "kscd.task_enabled_calls": "count",
    "kscd.task_steps": "count",
    "kscd.sets_delivered": "count",
    "kscd.deliver_ratio": "ratio",
    "kscd.empty_mem_snapshots": "count",
    "kscd.set_size_mean": "count",
    "messages.self_s": "s",
    "messages.sort_ids_calls": "count",
    "messages.ids_sorted": "count",
    "messages.min_id_calls": "count",
    "objects.self_s": "s",
    "objects.mem_write_calls": "count",
    "objects.mem_snapshot_calls": "count",
    "objects.oneshot_calls": "count",
    "objects.oracle_propose_calls": "count",
    "objects.oracle_distinct_max": "count",
    "k2s.self_s": "s",
    "k2s.instances": "count",
    "k2s.rounds_per_set": "ratio",
    "k2s.views_per_output_mean": "count",
    "kbo.self_s": "s",
    "kbo.unpack_calls": "count",
    "ksa.self_s": "s",
    "ksa.on_deliver_calls": "count",
    "ksa.decides": "count",
    "rng.self_s": "s",
    "trace.self_s": "s",
    "trace.emit_calls": "count",
    "trace.serialize_s": "s",
    "trace.parse_s": "s",
    "trace.bytes_per_event": "B",
    "trace.mem_byte_share": "ratio",
    "trace.snap_byte_share": "ratio",
    "poset.self_s": "s",
    "poset.build_s": "s",
    "poset.width_s": "s",
    "poset.antichain_s": "s",
    "poset.decompose_s": "s",
    "poset.elements": "count",
    "poset.relations": "count",
    "poset.width": "count",
    "checker.self_s": "s",
    "checker.index_s": "s",
    "checker.build_order_s": "s",
    "checker.kbo_s": "s",
    "checker.kscd_s": "s",
    "checker.k2s_s": "s",
    "checker.snapshot_s": "s",
    "checker.ksa_s": "s",
    "checker.roundsync_s": "s",
    "checker.verdicts_failed": "count",
    "checker.verdicts_not_evaluated": "count",
    "scenario.self_s": "s",
    "scenario.validate_s": "s",
    "cli.instantiate_s": "s",
    "tracing.run_overhead": "ratio",
    "tracing.check_overhead": "ratio",
}

# Call counts taken straight from the wrappers: metric -> wrapped function.
CALL_COUNTS = {
    "kscd.task_enabled_calls": "kscd.BroadcastEngine.task_enabled",
    "kscd.task_steps": "kscd.BroadcastEngine.task_step",
    "messages.sort_ids_calls": "messages.sort_ids",
    "messages.min_id_calls": "messages.min_id",
    "objects.oracle_propose_calls": "objects.SetAgreementOracle.propose",
    "kbo.unpack_calls": "kbo.unpack_order",
    "ksa.on_deliver_calls": "ksa.DecisionTable.on_deliver",
    "trace.emit_calls": "trace.Recorder.emit",
}

# Counts a pass must repeat exactly.
EXACT = (*CALL_COUNTS, *layers.OBSERVED_COUNTS)


TRACE_COUNTS = (
    "turns", "events", "bytes", "mem_bytes", "snap_bytes", "sets", "set_members",
    "instances", "rounds", "outputs", "views", "decides", "distinct_max",
    "failed", "not_evaluated",
)


def add_trace_counts(c: dict, o: Outcome) -> None:
    """Work counts read from one trace itself (pure functions of its events)."""
    trace = o.trace
    c["turns"] += trace.turns
    c["events"] += len(trace.events)
    lines = o.text.splitlines(keepends=True)
    c["bytes"] += sum(len(line.encode("utf-8")) for line in lines)
    decided: dict[str, set] = {}
    for ev, line in zip(trace.events, lines[1:]):
        if ev.kind == "deliver-set":
            c["sets"] += 1
            c["set_members"] += len(ev.payload["set"])
        elif ev.kind == "decide":
            c["decides"] += 1
        elif ev.kind == "object-access":
            obj = ev.payload["object"]
            size = len(line.encode("utf-8"))
            if obj == "MEM":
                c["mem_bytes"] += size
            elif obj.startswith(("SNAP1[", "SNAP2[")):
                c["snap_bytes"] += size
            if obj.startswith("KSET[") and ev.payload["op"] == "propose":
                c["rounds"] += 1
                decided.setdefault(obj, set()).add(ev.payload["result"])
            if obj.startswith("SNAP2[") and ev.payload["op"] == "snapshot":
                c["outputs"] += 1
                c["views"] += len({json.dumps(v) for v in ev.payload["result"] if v is not None})
    c["instances"] += len(decided)
    c["distinct_max"] = max([c["distinct_max"], *map(len, decided.values())])
    c["failed"] += sum(v.status == "fail" for v in o.verdicts)
    c["not_evaluated"] += sum(v.status == "not-evaluated" for v in o.verdicts)


def add_suite_times(times: dict, api, trace, clock) -> None:
    """Per-suite checker time through the public check_all.

    Each suite's time is check_all(trace, (suite,)) minus a check_all(trace, ())
    taken just before it, which builds the TraceIndex and runs no suite.
    """
    api.check_all(trace, ())  # warm-up: the first index build pays first-touch costs
    for suite in api.ALL_SUITES:
        gc.collect()
        t0 = clock()
        api.check_all(trace, ())
        t1 = clock()
        gc.collect()
        t2 = clock()
        api.check_all(trace, (suite,))
        t3 = clock()
        times["index"] += (t1 - t0) / len(api.ALL_SUITES)
        times[suite] += (t3 - t2) - (t1 - t0)


def traced_pass(api, tracer, configs, references, speed: Speed) -> tuple[list[Outcome], dict]:
    """One pass with tracing on; also decomposes each agreed order into channels."""
    tracer.reset()
    tracer.install(api)
    try:
        outcomes = []
        for i, config in enumerate(configs):
            tracer.request = i
            tracer.posets.clear()
            outcomes.append(run_one(api, config, references[i], speed.clock, tracer))
            with tracer.stage("decompose"):
                for poset in list(tracer.posets):
                    try:
                        poset.decompose_channels(config.k)
                    except ValueError as exc:
                        outcomes[-1].problems.append(f"decompose raised {exc}")
    finally:
        tracer.uninstall()
    factor = speed.factor()
    for o in outcomes:
        o.scale(speed)
    return outcomes, tracer_snapshot(tracer, factor)


def tracer_snapshot(tracer, factor: float) -> dict:
    """The tracer's counts and times, times scaled by ``factor``."""
    snap = {name: tracer.calls(key) for name, key in CALL_COUNTS.items()}
    snap.update(tracer.counts)
    for module, self_s in tracer.module_self().items():
        snap[f"{module}.self_s"] = self_s
    entry = layers.ENTRY
    snap.update(
        {
            "trace.serialize_s": tracer.total("trace.serialize_trace"),
            "trace.parse_s": tracer.total("trace.parse_trace"),
            "poset.build_s": tracer.total("poset.Poset.__init__", entry),
            "poset.width_s": tracer.total("poset.Poset.width", entry),
            "poset.antichain_s": tracer.total("poset.Poset.max_antichain", entry),
            "poset.decompose_s": tracer.total("poset.Poset.decompose_channels", entry),
            "checker.build_order_s": tracer.total("checker.build_order"),
            "scenario.validate_s": tracer.total("scenario.ScenarioConfig.validate"),
            "cli.instantiate_s": tracer.total("cli.instantiate_template"),
        }
    )
    return {name: v * factor if name.endswith("_s") else v for name, v in snap.items()}


def per_layer(spec: dict, seed: int, seconds: float, workload: str, speed: Speed):
    started = time.perf_counter()
    tracer = layers.Tracer()
    api = import_bocast()
    speed.factor()  # start the first block here
    tracer.install(api)
    try:
        with tracer.stage("setup"):
            configs = make_configs(api, spec, seed)
    finally:
        tracer.uninstall()
    setup_snap = tracer_snapshot(tracer, speed.factor())
    freeze_heap()

    c = dict.fromkeys(TRACE_COUNTS, 0)
    suites = dict.fromkeys(("index", *api.ALL_SUITES), 0.0)

    def inspect(o: Outcome) -> None:
        if api.serialize_trace(o.trace) != o.text:
            o.problems.append("serialize(parse(trace)) differs from the trace")
        add_trace_counts(c, o)
        add_suite_times(suites, api, o.trace, speed.clock)

    references = run_pass(api, configs, None, speed, inspect)
    suites = {name: t * speed.factors[-1] for name, t in suites.items()}

    traced, snaps = [], []
    while True:
        t0 = time.perf_counter()
        outcomes, snap = traced_pass(api, tracer, configs, references, speed)
        traced.append(outcomes)
        snaps.append(snap)
        # Two traced passes at least, so that the exact counts are compared.
        if len(traced) >= 2 and time.perf_counter() + (time.perf_counter() - t0) > started + seconds:
            break

    problems = []
    for n, snap in enumerate(snaps[1:], start=2):
        moved = [name for name in EXACT if snap[name] != snaps[0][name]]
        if moved:
            problems.append(f"traced pass {n}: counts changed: {', '.join(moved)}")

    def med(name):
        return statistics.median(s[name] for s in snaps)

    values = {name: med(name) for name in snaps[0] if name in PER_LAYER_UNITS}
    values.update({name: snaps[0][name] for name in EXACT})
    values.update(
        {
            "scenario.validate_s": setup_snap["scenario.validate_s"] + med("scenario.validate_s"),
            "cli.instantiate_s": setup_snap["cli.instantiate_s"],
            "sim.turns": c["turns"],
            "sim.turns_per_s": c["turns"] / sum(o.sim_s for o in references),
            "kscd.sets_delivered": c["sets"],
            "kscd.deliver_ratio": c["sets"] / max(1, values["kscd.task_steps"]),
            "kscd.set_size_mean": c["set_members"] / max(1, c["sets"]),
            "objects.oracle_distinct_max": c["distinct_max"],
            "k2s.instances": c["instances"],
            "k2s.rounds_per_set": c["rounds"] / max(1, c["sets"]),
            "k2s.views_per_output_mean": c["views"] / max(1, c["outputs"]),
            "ksa.decides": c["decides"],
            "trace.bytes_per_event": c["bytes"] / max(1, c["events"]),
            "trace.mem_byte_share": c["mem_bytes"] / c["bytes"],
            "trace.snap_byte_share": c["snap_bytes"] / c["bytes"],
            "checker.index_s": suites["index"],
            "checker.verdicts_failed": c["failed"],
            "checker.verdicts_not_evaluated": c["not_evaluated"],
            "tracing.run_overhead": statistics.median(sum(o.run_s for o in p) for p in traced)
            / sum(o.run_s for o in references),
            "tracing.check_overhead": statistics.median(sum(o.check_s for o in p) for p in traced)
            / sum(o.check_s for o in references),
        }
    )
    for suite in api.ALL_SUITES:
        values[f"checker.{suite}_s"] = suites[suite]

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.json")
    notes = {
        "traced_passes": len(traced),
        "speed_factors": [round(f, 4) for f in speed.factors],
        "harness_problems": problems,
    }
    return with_units(values, PER_LAYER_UNITS), [references, *traced], notes


# --- entry point ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must fit in 64 bits")
    return args


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict | None = None) -> dict:
    """Run one workload and return the result object the last output line carries.

    ``spec`` replaces the workload's scenarios (the self-test shrinks them);
    the digests recorded in BASELINE are then not compared.
    """
    expected = None if spec else recorded_digests(workload, seed)
    spec = spec or WORKLOADS[workload]
    with Speed() as speed:
        if trace:
            metrics, passes, notes = per_layer(spec, seed, seconds, workload, speed)
            harness_problems = notes["harness_problems"]
        else:
            metrics, passes, notes = end_to_end(spec, seed, seconds, speed)
            harness_problems = []
    notes.update(pass_digests(passes[0]))
    if expected is None:
        notes["baseline"] = "no digests recorded for this workload and seed"
    else:
        notes["baseline"] = compare_digests(passes[0], expected) or "digests match"
    outcomes = [o for p in passes for o in p]
    failed = [o for o in outcomes if o.problems]
    return {
        "correct": not failed and not harness_problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
        "_notes": notes,
        "_problems": harness_problems + sorted({p for o in failed for p in o.problems}),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for problem in result.pop("_problems"):
        print(f"FAILED: {problem}")
    for name, value in result.pop("_notes").items():
        print(f"# {name}: {value}")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    # Not a metric of BENCHMARK.json: it is 0 on a healthy run, so it cannot
    # carry a relative bound; `failed` and `attempted` carry it in the result.
    print(f"{args.workload} failed_share {result['failed'] / result['attempted']:.6g} ratio")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
