"""Record the benchmark oracle: python3 bench/record_reference.py

Runs one pass of every workload, full size and the small self-test size,
and writes the verdicts and values they produce to bench/reference.json.
Run it only on a commit whose outputs are trusted; later commits are
checked against what it wrote.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    out = {"recorded_at": run.git_sha(), "rel_tol": workloads.REL_TOL, "workloads": {}}
    work = ROOT / ".bench_work" / "record"
    for name, cls in workloads.WORKLOADS.items():
        ref = out["workloads"].setdefault(name, {})
        for small in (True, False):
            work.mkdir(parents=True, exist_ok=True)
            try:
                wl = cls(0, small, work)
                records = wl.run_pass()
                for key, value in wl.reference(records).items():
                    if isinstance(value, dict):
                        ref.setdefault(key, {}).update(value)
                    else:
                        ref[key] = value
            finally:
                shutil.rmtree(work)
            print(f"{name} small={small}: {len(records)} operations", flush=True)
    path = BENCH / "reference.json"
    path.write_text(json.dumps(out, indent=0, sort_keys=True, allow_nan=False) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
