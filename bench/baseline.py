"""Repeat the benchmark over seeds and record its spread and baseline.

    python3 bench/baseline.py

Runs every workload of BENCHMARK.json once per seed 1..10 with tracing off
and once with tracing on, as BENCHMARK.json's command does, and writes to
bench/baseline.json per metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, plus the
traced run's per-layer metrics and the machine and versions.  Next to the
nominal wall_s and setup_s (bench/clock.py) it keeps the same summary of
the raw wall-clock medians each run prints, so the two can be compared.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
OUT = BENCH / "baseline.json"


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{cmd} exited {done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    result["run_s"] = time.perf_counter() - t0
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import run

    out = {"env": run.environment(), "run_seconds": spec["run_seconds"],
           "seeds": list(SEEDS), "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in out["seeds"]:
            results.append(run_once(spec, name, seed, 0))
            print(f"{name} seed {seed}: {results[-1]['run_s']:.1f} s "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in results[-1]["metrics"].items()),
                  flush=True)
        row = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results),
               "run_s": summarize([r["run_s"] for r in results]),
               "end_to_end": {}}
        for m in spec["end_to_end"]:
            row["end_to_end"][m["name"]] = summarize(
                [r["metrics"][m["name"]]["value"] for r in results])
        row["raw"] = {}
        for metric in ("wall_s", "setup_s"):
            prefix = f"raw {metric} = "
            row["raw"][metric] = summarize([float(line[len(prefix):].split()[0])
                                            for r in results for line in r["report"]
                                            if line.startswith(prefix)])
        row["report"] = results[0]["report"]
        traced = run_once(spec, name, out["seeds"][0], 1)
        row["traced_run_s"] = traced["run_s"]
        row["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        row["traced_correct"] = traced["correct"]
        out["workloads"][name] = row
        for m in spec["end_to_end"]:
            s = row["end_to_end"][m["name"]]
            bound = m["bound"]
            flag = "ok" if s["spread"] < bound / 3 else ("WIDE" if s["spread"] < bound else "OVER")
            print(f"  {name} {m['name']}: median {s['median']:.5g} spread {s['spread']:.4f} "
                  f"(bound {bound}) {flag}", flush=True)
        for metric, s in row["raw"].items():
            print(f"  {name} raw {metric}: median {s['median']:.5g} spread {s['spread']:.4f}",
                  flush=True)
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
