"""Command-line front end.

Verbs: run a scenario, fuzz seeded variants of a template, check a trace
against the property suites, decompose a trace's delivery order into
total-order channels, and replay the checked-in golden examples.

Exit statuses: 0 success (pass / quiescent), 1 a failed property or a
golden mismatch and nothing else, 2 usage, input or output error, 3
budget-exhausted run.  ``main`` alone turns a ConfigError,
TraceFormatError, CheckerError or OSError into ``error: <message>`` and
exit 2; a verb catches an error itself only to add context to it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .checker import (
    ALL_SUITES,
    CheckerError,
    any_failure,
    build_order,
    check_all,
    serialize_verdicts,
)
from .poset import BoundViolation
from .rng import derive
from .scenario import (
    MAX_PROCESSES,
    ConfigError,
    ScenarioConfig,
    load_json,
    load_scenario,
    read_utf8,
    reject_unknown_keys,
    require_int,
)
from .sim import SimulationError, run_scenario
from .trace import TraceFormatError, read_trace, serialize_trace, write_trace

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _fail_usage(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = ScenarioConfig.from_json_dict({**config.to_json_dict(), "seed": args.seed})
    try:
        trace = run_scenario(config)
    except SimulationError as exc:
        return _fail_usage(f"simulation error: {exc}")
    text = serialize_trace(trace)
    summary = f"run: {trace.outcome} after {trace.turns} turns, {len(trace.rows)} events"
    code = EXIT_OK if trace.quiescent else EXIT_BUDGET
    # Freed here by reference counting, the trace is never walked by the
    # collection that the next allocation of a container starts.
    del trace
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail_usage(f"--out: cannot write {args.out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)
    return code


def _suites(arg: str | None) -> tuple[str, ...]:
    """The suites a ``--suites`` comma list names (all when it is not
    given); CheckerError on a name that is not a suite or is named twice."""
    if not arg:
        return ALL_SUITES
    suites = tuple(arg.split(","))
    for i, suite in enumerate(suites):
        if suite not in ALL_SUITES:
            raise CheckerError(f"unknown suite {suite!r}; the suites are {','.join(ALL_SUITES)}")
        if suite in suites[:i]:
            raise CheckerError(f"suite {suite!r} is named twice")
    return suites


def cmd_check(args) -> int:
    suites = _suites(args.suites)
    trace = read_trace(args.trace)
    verdicts = check_all(trace, suites)
    # Freed now, the trace lowers the collector's allocation count again;
    # kept, it is walked once by the collection the report's first
    # allocation starts (0.1 s on a 60,000-event trace).
    del trace
    report = serialize_verdicts(verdicts)
    if args.report:
        try:
            Path(args.report).write_text(report, encoding="utf-8")
        except OSError as exc:
            return _fail_usage(f"--report: cannot write {args.report}: {exc.strerror or exc}")
    sys.stdout.write(report)
    return EXIT_FAIL if any_failure(verdicts) else EXIT_OK


def cmd_decompose(args) -> int:
    if args.k is not None and args.k < 1:
        return _fail_usage(f"--k must be >= 1 (got {args.k})")
    trace = read_trace(args.trace)
    poset = build_order(trace)
    k = args.k if args.k is not None else trace.config.k
    try:
        _assignment, chains = poset.decompose_channels(k)
    except BoundViolation as exc:
        print(f"width {len(exc.antichain)} exceeds k={k}")
        print(f"antichain witness: {' '.join(exc.antichain)}")
        return EXIT_FAIL
    print(f"width {poset.width()} within k={k}; {len(chains)} channels")
    for ch_no, chain in enumerate(chains, start=1):
        print(f"channel[{ch_no}] = {' '.join(chain)}")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    if args.seeds < 0:
        return _fail_usage(f"--seeds must be >= 0 (got {args.seeds})")
    suites = _suites(args.suites)
    try:
        template = load_json(args.template)
    except (OSError, ConfigError) as exc:
        return _fail_usage(f"template: {exc}")
    if not isinstance(template, dict):
        return _fail_usage("template: a fuzz template must be a JSON object")
    # A template expands for every seed exactly when it does for seed 0.
    try:
        instantiate_template(template, 0)
    except ConfigError as exc:
        return _fail_usage(f"template: no seed expands it; seed index 0: {exc}")
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            return _fail_usage(f"--out: {exc}")

    counts: dict[str, dict[str, int]] = {}
    outcomes = {"quiescent": 0, "budget-exhausted": 0}
    crash_counts: dict[int, int] = {}
    failing_seeds = []
    errors = []

    for i in range(args.seeds):
        try:
            trace = run_scenario(instantiate_template(template, i))
        except SimulationError as exc:
            errors.append({"seed_index": i, "error": str(exc)})
            continue
        outcomes[trace.outcome] += 1
        ncrash = len(trace.config.crash_plan)
        crash_counts[ncrash] = crash_counts.get(ncrash, 0) + 1
        verdicts = check_all(trace, suites)
        for v in verdicts:
            slot = counts.setdefault(v.property, {"pass": 0, "fail": 0, "not-evaluated": 0})
            slot[v.status] += 1
        if any_failure(verdicts):
            failing_seeds.append(i)
            if out_dir:
                try:
                    write_trace(trace, out_dir / f"fail-{i:05d}.trace")
                except OSError as exc:
                    errors.append({"seed_index": i, "error": f"trace write failed: {exc}"})
        # Freed here, the trace is never walked by a collection the next seed starts.
        del trace, verdicts

    summary = {
        "runs": args.seeds,
        "outcomes": outcomes,
        "crash_plan_sizes": {str(n): c for n, c in sorted(crash_counts.items())},
        "properties": {name: counts[name] for name in sorted(counts)},
        "failing_seed_indices": failing_seeds,
        "errors": errors,
    }
    text = json.dumps(summary, indent=2, ensure_ascii=False) + "\n"
    if out_dir:
        path = out_dir / "summary.json"
        try:
            path.write_text(text, encoding="utf-8")
        except OSError as exc:
            return _fail_usage(f"--out: cannot write {path}: {exc.strerror or exc}")
    sys.stdout.write(text)
    if errors:
        return _fail_usage(f"the summary lists {len(errors)} of {args.seeds} seeds in errors")
    return EXIT_FAIL if failing_seeds else EXIT_OK


_PLAN_KEYS = frozenset(("sample",))
_SAMPLE_KEYS = frozenset(("max_processes", "turn_range"))


def instantiate_template(template: dict, index: int) -> ScenarioConfig:
    """Expand one seeded scenario from a fuzz template.

    The template is a scenario object where ``seed`` is a base value and
    ``crash_plan`` may be {"sample": {"max_processes": M, "turn_range": [a, b]}}
    to draw a per-seed crash plan of 0..M processes, each crashing at a
    turn of a..b-1 (at a when b <= a).  With 0 <= M <= n and a >= 0 every
    drawn plan is valid, so a template expands for every index exactly
    when it expands for index 0.
    """
    from .rng import SplitMix64

    try:
        obj = dict(template)
        base_seed = require_int(obj.get("seed", 0), "seed")
        seed = derive(base_seed, "fuzz", index)
        obj["seed"] = seed
        plan = obj.get("crash_plan", [])
        if isinstance(plan, dict):
            reject_unknown_keys(plan, _PLAN_KEYS, "crash_plan")
            sample = plan.get("sample", {})
            reject_unknown_keys(sample, _SAMPLE_KEYS, "crash_plan sample")
            n = require_int(obj["n"], "n")
            if not 1 <= n <= MAX_PROCESSES:  # before the sample lists 1..n
                raise ConfigError(f"template: n must satisfy 1 <= n <= {MAX_PROCESSES}")
            max_procs = require_int(sample.get("max_processes", n - 1), "max_processes")
            if not 0 <= max_procs <= n:
                raise ConfigError(f"template: max_processes must satisfy 0 <= max_processes <= n "
                                  f"(got {max_procs}, n={n})")
            lo, hi = sample.get("turn_range", [0, 200])
            lo, hi = require_int(lo, "turn_range"), require_int(hi, "turn_range")
            if lo < 0:
                raise ConfigError(f"template: turn_range must start at a turn >= 0 (got {lo})")
            rng = SplitMix64(derive(seed, "crash-plan"))
            count = rng.randrange(max_procs + 1)
            victims = rng.sample(range(1, n + 1), count)
            obj["crash_plan"] = sorted((pid, lo + rng.randrange(max(1, hi - lo))) for pid in victims)
    except ConfigError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed template: {exc!r}") from exc
    return ScenarioConfig.from_json_dict(obj)


GOLDEN_FILES = (".scenario.json", ".trace", ".verdicts")


def cmd_golden(args) -> int:
    """Rerun each entry named by any of its ``GOLDEN_FILES`` in the directory."""
    gold_dir = Path(args.dir)
    names = sorted(
        {path.name[: -len(suffix)] for suffix in GOLDEN_FILES for path in gold_dir.glob(f"*{suffix}")}
    )
    if not names:
        return _fail_usage(f"no golden entries (*.scenario.json) under {gold_dir}")
    failures = 0
    for name in names:
        scenario_path, trace_path, verdicts_path = (gold_dir / (name + sfx) for sfx in GOLDEN_FILES)
        scenario = load_json(scenario_path)  # its errors name the path
        try:
            config = ScenarioConfig.from_json_dict(scenario)
        except ConfigError as exc:
            raise ConfigError(f"{scenario_path}: {exc}") from exc
        want, want_v = read_utf8(trace_path, ConfigError), read_utf8(verdicts_path, ConfigError)
        try:
            trace = run_scenario(config)
        except SimulationError as exc:
            print(f"{name}: ERROR {exc}")
            failures += 1
            continue
        if serialize_trace(trace) != want:
            print(f"{name}: TRACE MISMATCH")
            failures += 1
            continue
        if serialize_verdicts(check_all(trace)) != want_v:
            print(f"{name}: VERDICT MISMATCH")
            failures += 1
            continue
        print(f"{name}: ok")
    return EXIT_FAIL if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bocast",
        description="deterministic broadcast-stack simulator and trace checker",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="run one scenario and write its trace")
    p.add_argument("--scenario", required=True)
    p.add_argument("--seed", type=int, help="override the scenario's seed")
    p.add_argument("--out", help="trace output path (default stdout)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("check", help="evaluate property suites over a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--suites", help=f"comma list from {','.join(ALL_SUITES)} (default all)")
    p.add_argument("--report", help="also write the verdict records to this path")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("decompose", help="decompose a trace's delivery order into channels")
    p.add_argument("--trace", required=True)
    p.add_argument("--k", type=int, help="channel bound, at least 1 (default: the trace's k)")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("fuzz", help="run seeded variants of a template scenario")
    p.add_argument("--template", required=True)
    p.add_argument("--seeds", type=int, required=True)
    p.add_argument("--out", help="directory for summary and failing traces")
    p.add_argument("--suites")
    p.set_defaults(fn=cmd_fuzz)

    p = sub.add_parser("golden", help="re-run golden scenarios and compare byte-for-byte")
    p.add_argument("--dir", default="scenarios/golden")
    p.set_defaults(fn=cmd_golden)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConfigError, TraceFormatError, CheckerError, OSError) as exc:
        return _fail_usage(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
