"""Fast self-test of the benchmark harness at tiny sizes.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json, shrunk, once untraced and twice
traced with the same seed.  It checks that:

- every run is correct, with nothing failed;
- every end-to-end and per-layer metric is emitted with its unit;
- the exact counts repeat from run to run, and from one traced pass to the
  next within a run;
- the correctness gate catches a repeat with other trace bytes and a
  behaviour digest other than the recorded one, and does not fail a run
  whose trace bytes alone differ from the recorded ones;
- run.py exits non-zero without a result in a directory that holds only
  BENCHMARK.json and the benchmark.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

TINY = {
    "wide-n20-k4": {"n": 4, "k": 2, "per_process": 3},
    "deep-n5-k1": {"n": 3, "k": 1, "per_process": 6},
    "fuzz-n5-k2": {"template": run.TEMPLATE, "scenarios": 3},
}
SEED = 7


def check_result(result: dict, declared: list[dict], label: str, errors: list[str]) -> None:
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} failed={result['failed']} "
                      f"attempted={result['attempted']} {result['_problems']}")
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        errors.append(f"{label}: metrics {sorted(set(metrics) ^ set(names))} emitted or declared alone")
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            errors.append(f"{label}: {m['name']} unit {got['unit']!r}, declared {m['unit']!r}")
        if not isinstance(got["value"], (int, float)) or not math.isfinite(got["value"]):
            errors.append(f"{label}: {m['name']} value {got['value']!r}")


def exact(result: dict, declared: list[dict]) -> dict:
    metrics = result["metrics"]
    return {m["name"]: metrics[m["name"]]["value"] for m in declared if m["unit"] == "count" and m["name"] in metrics}


def gate_catches_misses(errors: list[str]) -> None:
    api = run.import_bocast()
    configs = run.make_configs(api, TINY["wide-n20-k4"], SEED)

    def one_pass(references=None):
        refs = references or [None] * len(configs)
        return [run.run_one(api, c, r, time.perf_counter) for c, r in zip(configs, refs)]

    first = one_pass()
    recorded = run.pass_digests(first)
    if run.compare_digests(first, recorded) or any(o.problems for o in first):
        errors.append("gate: a run does not match its own digests")

    first[0].sha = "0" * 64
    second = one_pass(first)
    if "trace bytes differ from the first pass" not in second[0].problems:
        errors.append("gate: a timed repeat with other trace bytes was not failed")
    run.verify_pass(api, configs, first)
    if "trace bytes differ on a repeat" not in first[0].problems:
        errors.append("gate: an untimed repeat with other trace bytes was not failed")

    again = one_pass()
    notes = run.compare_digests(again, dict(recorded, trace_sha="0" * 64))
    if not notes or any(o.problems for o in again):
        errors.append("gate: other trace bytes with the recorded behaviour were not noted, or failed")
    run.compare_digests(again, dict(recorded, behaviour_digest="0" * 64))
    if not all(o.problems for o in again):
        errors.append("gate: a behaviour digest other than the recorded one was not failed")


def bare_directory_fails(errors: list[str]) -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fuzz-n5-k2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    errors: list[str] = []
    if sorted(w["name"] for w in bench["workloads"]) != sorted(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for w in bench["workloads"]:
        name = w["name"]
        spec = TINY[name]
        e2e = [run.measure(name, SEED, 0, False, spec) for _ in range(2)]
        for result in e2e:
            check_result(result, bench["end_to_end"], f"{name} --trace 0", errors)
        if e2e[0]["metrics"]["trace_mb"] != e2e[1]["metrics"]["trace_mb"]:
            errors.append(f"{name}: trace_mb differs between runs")
        traced = [run.measure(name, SEED, 0, True, spec) for _ in range(2)]
        for result in traced:
            check_result(result, bench["per_layer"], f"{name} --trace 1", errors)
        first, second = (exact(r, bench["per_layer"]) for r in traced)
        moved = sorted(k for k in first if first[k] != second[k])
        if moved:
            errors.append(f"{name}: counts differ between traced runs: {moved}")
        print(f"{name}: {len(first)} exact counts repeat", flush=True)
    gate_catches_misses(errors)
    bare_directory_fails(errors)
    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
