"""Self-test of the benchmark harness at depth <= 6: python3 bench/selftest.py

For every workload at the small size it checks that
  * an untraced and a traced run each report correct and emit exactly the
    metrics BENCHMARK.json names for that mode;
  * with one reference value corrupted, the run reports a failed operation
    and correct = false.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work" / "selftest"


def run(workload: str, trace: int, reference: Path | None = None) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--small"]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n"
                             f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def corrupt(reference: dict, workload: str) -> str:
    """Perturb one value the small run checks; return its key."""
    section = reference["workloads"][workload]
    for key, value in section.items():
        if "-d6-" in key and isinstance(value, list) and value[1]:
            value[1] *= 1.0 + 1e-9
            return key
        if key.endswith("|pde|0"):      # a sweep value, [passed, gain, ...]
            value[1] *= 1.0 + 1e-9
            return key
    raise AssertionError(f"no depth-6 reference value for {workload}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    reference = json.loads((BENCH / "reference.json").read_text())
    WORK.mkdir(parents=True, exist_ok=True)
    problems = []
    try:
        for w in spec["workloads"]:
            name = w["name"]
            for trace in (0, 1):
                res = run(name, trace)
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append(f"{name} trace={trace}: not correct: {res}")
                if set(res["metrics"]) != names[trace]:
                    problems.append(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(res['metrics']) ^ names[trace])}")
            bad = json.loads(json.dumps(reference))
            key = corrupt(bad, name)
            path = WORK / f"reference-{name}.json"
            path.write_text(json.dumps(bad))
            res = run(name, 0, path)
            if res["correct"] or res["failed"] < 1:
                problems.append(f"{name}: corrupted reference value {key!r} not reported")
            print(f"{name}: {len(problems)} problems so far", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            WORK.parent.rmdir()
        except OSError:
            pass
    for p in problems:
        print("PROBLEM", p)
    print("selftest " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
