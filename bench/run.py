"""dyadembed benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen): corpus-shallow,
deep-tree, pointwise, cli-workers2.  A run builds the workload's inputs from
the seed, runs one untimed warm-up, repeats whole passes over the inputs
until S seconds have gone by (at least one pass), checks every output
against bench/reference.json, and prints a report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json:

    setup_s      median of 5 fresh processes that import the package and
                 build the workload's inputs (corpus, manifest, psi)
    wall_s       median pass time
    work_per_s   work of one pass / wall_s: certificates (corpus-shallow,
                 cli-workers2), certificate tree nodes (deep-tree) or
                 pointwise checks (pointwise)
    peak_rss_mb  peak resident set of the workload's process; for
                 cli-workers2, of the largest CLI process or pool worker

Passes of the in-process workloads and the set-up processes are timed with
bench/clock.py, which scales wall time by an interleaved calibration loop so
that the host's speed swings cancel; raw wall times are printed in the
report.  The cli-workers2 passes, whose pool workers would compete with the
calibration, are timed with plain perf_counter.  With --trace 1 one
untraced pass is followed by one pass under the tracer of
bench/tracing.py, and the metrics are the per-layer ones.  Known defects
(the parametric Psi family, the bare NaN in certificates_buc-classic.json)
are probed untimed and reported in `error_frac` and in the report, not as
failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("corpus-shallow", "deep-tree", "pointwise", "cli-workers2")
SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # used by the set-up timing and by bench/selftest.py
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--reference", default=str(BENCH / "reference.json"),
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (no git metadata in this checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git": git_sha(),
            "machine": platform.machine()}


def measure_setup(args, clock) -> tuple[list[float], list[float]]:
    """Nominal and raw wall times of fresh processes that import the package
    and build this workload's inputs (corpus, manifest, psi), then exit."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        cmd.append("--small")
    times, raw = [], []
    clock.start()
    try:
        with clock.alongside():
            for _ in range(SETUP_REPEATS):
                t0, r0 = clock.now(), time.perf_counter()
                done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                                      stderr=subprocess.PIPE, text=True, timeout=120)
                times.append(clock.now() - t0)
                raw.append(time.perf_counter() - r0)
                if done.returncode != 0:
                    raise RuntimeError(f"set-up process failed: {done.stderr.strip()[-500:]}")
    finally:
        clock.stop()
    return times, raw


def peak_rss_mb(in_process: bool) -> float:
    """Peak resident set of the process that runs the workload: this one, or
    for a subprocess workload the largest of the processes it has waited
    for (CLI parents and, through them, their pool workers)."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_passes(wl, seconds: float):
    """Whole passes until `seconds` have gone by (at least one); returns the
    records and, per pass, nominal and raw wall seconds."""
    passes, walls, raw = [], [], []
    wl.warm_up()
    start = time.perf_counter()
    while True:
        t0, r0 = wl.now(), time.perf_counter()
        passes.append(wl.run_pass())
        walls.append(wl.now() - t0)
        raw.append(time.perf_counter() - r0)
        if time.perf_counter() - start >= seconds:
            return passes, walls, raw


def traced_pass(wl, wall_untraced: float) -> tuple[list, dict]:
    import tracing
    import workloads

    tracer = tracing.Tracer(wl.now)
    tracing.install(tracer)
    t0 = wl.now()
    records = wl.run_pass(traced=True)
    wall = wl.now() - t0
    parts = [tracer.snapshot()]
    if (wl.workdir / "trace").is_dir():
        parts += tracing.load_dumps(wl.workdir / "trace")
    m = tracing.layer_metrics(tracing.merge(parts))
    m.update(workloads.input_properties(wl.weights))
    nodes = sum(workloads.tree_nodes(w) for w in wl.weights)
    m["distribution.builds_per_node"] = m["distribution.build_count"] / nodes
    m["cli.bytes_written"] = getattr(wl, "pass_bytes", 0)
    m["cli.nonstrict_json_files"] = getattr(wl, "pass_nonstrict", 0)
    m["trace.overhead_frac"] = wall / wall_untraced - 1.0
    m["verifiers.depth_exponent.d-embed"] = 0.0
    m["verifiers.depth_exponent.embed"] = 0.0
    return records, m


def report_metrics(wl, passes, walls) -> list[tuple[str, float, str, str]]:
    """Every end-to-end metric that applies to this workload, for the report."""
    records = [r for recs in passes for r in recs]
    total = sum(walls)
    work = sum(r["work"] for r in records)
    rows = [("wall_s", statistics.median(walls), "s", f"median of {len(walls)} passes")]
    if wl.name == "pointwise":
        rows.append(("checks_per_s", work / total, "1/s",
                     f"{work // len(passes)} checks per pass, completing families only"))
        return rows
    certs = records
    nodes = sum(r["nodes"] for r in certs)
    rows.append(("certs_per_s", len(certs) / total, "1/s",
                 f"{len(certs) // len(passes)} certificates per pass"))
    rows.append(("nodes_per_s", nodes / total, "1/s",
                 f"{nodes // len(passes)} certificate nodes per pass"))
    if wl.name != "cli-workers2":
        lat = [1e3 * r["s"] for r in certs]
        rows.append(("cert_p50_ms", statistics.median(lat), "ms", f"n={len(lat)}"))
        if len(lat) * 0.1 >= 10:
            p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
            rows.append(("cert_p90_ms", p90, "ms", f"n={len(lat)}, {len(lat) // 10} beyond"))
    return rows


def run(args, workdir: Path) -> int:
    import workloads
    from clock import NominalClock

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(Path(args.reference).read_text())["workloads"][args.workload]
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.small, workdir)
    own_setup = time.perf_counter() - t0

    clock = NominalClock()
    if wl.in_process:
        clock.start()
        wl.now = clock.now
    try:
        passes, walls, raw_walls = run_passes(wl, args.seconds if not args.trace else 0.0)
        rss = peak_rss_mb(wl.in_process)
        all_passes = list(passes)
        if args.trace:
            traced, layer = traced_pass(wl, statistics.median(walls))
            layer.update(wl.extra_metrics(passes))
            all_passes.append(traced)
    finally:
        clock.stop()
    defects = wl.known_defects()
    broken = []
    for recs in all_passes:
        broken += wl.check(recs, reference)
    records = [r for recs in all_passes for r in recs]
    failures = [r for r in records if not r["ok"]]
    attempted, failed = len(records), len(failures)
    defect_failures = [d for d in defects if d["failed"]]
    error_frac = (failed + len(defect_failures)) / (attempted + len(defects))

    env = environment()
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  own set-up {own_setup:.3f} s")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if wl.in_process:
        print(f"clock nominal seconds; raw wall per pass "
              f"{', '.join(f'{w:.3f}' for w in raw_walls)} s; {len(clock.calibrations)} "
              f"calibrations, median {1e3 * statistics.median(clock.calibrations):.3f} ms")
    else:
        print(f"clock raw wall seconds (the work runs in CLI processes); wall per pass "
              f"{', '.join(f'{w:.3f}' for w in raw_walls)} s")
    for name, value, unit, note in report_metrics(wl, passes, walls):
        print(f"metric {name} = {value:.6g} {unit}  ({note})")
    print(f"metric error_frac = {error_frac:.6g}  "
          f"({failed + len(defect_failures)} failed of {attempted + len(defects)}, "
          f"known defects included)")
    for d in defects:
        state = "FAILED" if d["failed"] else "ok"
        print(f"known-defect {d['what']}: {state}" + (f" -- {d['why']}" if d["failed"] else ""))
    for r in failures[:10]:
        print(f"failure {r['key']}: {r['why']}")
    for msg in broken[:10]:
        print(f"invariant {msg}")
    correct = failed == 0 and not broken
    print(f"oracle {'pass' if correct else 'FAIL'}: {attempted - failed}/{attempted} "
          f"operations match the reference")

    if args.trace:
        values, wanted = layer, spec["per_layer"]
        values["error_frac"] = error_frac
        for m in wanted:
            print(f"layer {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    else:
        setups, raw_setups = measure_setup(args, clock)
        values, wanted = {"setup_s": statistics.median(setups),
                          "wall_s": statistics.median(walls),
                          "work_per_s": sum(r["work"] for r in passes[0]) / statistics.median(walls),
                          "peak_rss_mb": rss}, spec["end_to_end"]
        print(f"metric setup_s = {values['setup_s']:.6g} s  (median of {len(setups)} fresh "
              f"processes: import, inputs, psi)")
        # raw medians, kept next to the nominal ones in bench/baseline.json
        print(f"raw wall_s = {statistics.median(raw_walls):.6g} s")
        print(f"raw setup_s = {statistics.median(raw_setups):.6g} s")
        print(f"metric work_per_s = {values['work_per_s']:.6g} 1/s  ({wl.unit} per second)")
        print(f"metric peak_rss_mb = {rss:.6g} MB  "
              f"({'this process' if wl.in_process else 'largest CLI process or pool worker'})")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dyadembed" / "__init__.py").is_file():
        print(f"no dyadembed sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_only:
            import workloads

            workloads.WORKLOADS[args.workload](args.seed, args.small, workdir)
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
