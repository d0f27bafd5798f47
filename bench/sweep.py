"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/sweep.py --seeds 1-10 [--workload NAME ...] [--seconds S] [--out FILE]

For every workload (default: all in BENCHMARK.json) it runs
``bench/run.py`` once per seed, one run at a time, and reports per metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median.  A
spread above a third of the metric's bound is flagged.  --out writes the
summary, with the Python version and CPU count, as JSON, together with
each seed's combined trace sha256 and behaviour digest, which run.py then
holds later runs of that seed to.  For the end-to-end metrics it also
reports the median and spread of the same figures in plain wall seconds,
beside the reference seconds the metrics use.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result object of one run, and its ``# name: value`` notes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    notes = dict(line[2:].split(": ", 1) for line in lines if line.startswith("# "))
    return json.loads(lines[-1]), notes


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    metrics = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    summary = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": parse_seeds(args.seeds),
        "workloads": {},
    }
    for workload in workloads:
        results, digests, walls = [], {}, []
        for seed in summary["seeds"]:
            result, notes = run_once(workload, seed, args.seconds, args.trace)
            results.append(result)
            digests[str(seed)] = {key: notes[key] for key in ("trace_sha", "behaviour_digest")}
            if "wall" in notes:
                walls.append(json.loads(notes["wall"]))
            print(f"{workload} seed {seed}: correct={results[-1]['correct']} "
                  f"failed={results[-1]['failed']}/{results[-1]['attempted']}", flush=True)
        rows = {}
        for name in bounds:
            row = summarise([r["metrics"][name]["value"] for r in results])
            row["unit"] = results[0]["metrics"][name]["unit"]
            rows[name] = row
            bound = bounds[name]
            flag = "  SPREAD > bound/3" if bound and row["spread"] > bound / 3 and name != "setup_s" else ""
            print(f"  {name:28s} median {row['median']:.6g} {row['unit']}  "
                  f"q1 {row['q1']:.6g}  q3 {row['q3']:.6g}  spread {row['spread']:.3f}{flag}", flush=True)
        wall = {}
        for name in walls[0] if walls else ():
            row = summarise([w[name] for w in walls])
            wall[name] = {"median": row["median"], "spread": row["spread"]}
            print(f"  {name:28s} wall seconds: median {row['median']:.6g}  spread {row['spread']:.3f}", flush=True)
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": rows,
            "digests": digests,
            "wall": wall,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if all(w["correct"] for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
