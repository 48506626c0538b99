"""Command-line driver: corpus generation, theorem verification, psi tables.

Outputs are byte-stable: JSON is dumped with sorted keys and default float
repr, CSV columns are fixed, and the rows of the k - 1 forked workers and of
the parent are merged in task order, so runs with 1 and k workers produce
identical files.

Exit codes: 0 all verdicts pass, 2 any certificate failure, 3 configuration
or usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Tolerances
from .corpus import (
    gen_carleson_sequence,
    gen_test_function,
    load_corpus,
    write_corpus,
)
from .orlicz import (ConstructionError, normalized_psi, psi_closed_form, psi_from_phi,
                     young_function)
from .bellman import build_profile, check_t_convexity, kernel_of
from .verifiers import (
    failure_demo,
    verify_buckley_classic,
    verify_d_embed,
    verify_embed,
    verify_embed2,
    verify_fd_embed,
    verify_folk,
)

THEOREMS = ("buc-classic", "folk", "d-embed", "fd-embed", "embed", "embed2",
            "bump-embed", "failure-demo", "bellman-checks")
# theorems whose inequalities hold only for a normalized Psi (the m-profile)
NORMALIZED_THEOREMS = ("embed2", "bump-embed", "bellman-checks")
# theorems that read --depth; the others run on the corpus weights' own depths
DEPTH_THEOREMS = ("failure-demo", "bellman-checks")
SEQUENCE_KINDS = ("root-only", "level-uniform", "random", "stopping-time")
FUNCTION_KINDS = (("constant", 0), ("haar", 0), ("random-bounded", 11),
                  ("random-bounded", 12), ("w-normalized", 13))


@dataclass(frozen=True)
class RunConfig:
    psi_family: str = "log-bump"
    alpha: float = 2.0
    clamp_s0: float | None = None
    normalize: bool = True
    depth: int = 12
    seed: int = 0
    tol_ineq: float = 1e-9
    tol_identity: float = 1e-12

    def tolerances(self) -> Tolerances:
        return Tolerances(self.tol_ineq, self.tol_identity)

    def psi(self):
        """The configured Psi, built once per process: a run has one
        setting, so every task shares it and forked workers inherit the
        parent's."""
        return _psi(self.psi_family, self.alpha, self.clamp_s0, self.normalize)


@functools.lru_cache(maxsize=1)
def _psi(family: str, alpha: float, clamp_s0: float | None, normalize: bool):
    if family == "parametric":
        if clamp_s0 is not None:
            raise ConstructionError("--clamp-s0 applies to the closed-form "
                                    "families only, not to parametric")
        psi = psi_from_phi(young_function("log-bump", alpha))
        return normalized_psi(psi) if normalize else psi
    return psi_closed_form(alpha, family, clamp_s0=clamp_s0, normalize=normalize)


def _default_out() -> str:
    return os.environ.get("DYADEMBED_OUT", "runs")


# ---------------------------------------------------------------------------
# tasks and the forked workers that run them
# ---------------------------------------------------------------------------

def _run_task(task) -> list[dict]:
    """Every certificate row of one weight, in output order.

    A task is (theorem, config, corpus entry, weight), the weight loaded and
    hash-checked by the parent before it forks.  One task per weight lets
    all of its certificates share one tree of the weight and Psi (the arrays
    that every test function reads, and its sort when the tree keeps its
    levels), in whichever process runs it and at any depth."""
    theorem, cfg, entry, w = task
    psi, tol, label = cfg.psi(), cfg.tolerances(), entry.spec.label
    sequences = ((k, gen_carleson_sequence(k, w.depth, cfg.seed)) for k in SEQUENCE_KINDS)
    functions = ((k, gen_test_function(k, w.depth, s, weight=w)) for k, s in FUNCTION_KINDS)
    if theorem == "buc-classic":
        certs = [(verify_buckley_classic(w), label)]
    elif theorem == "folk":
        certs = [(verify_folk(w, seq, assert_rhi_bound=entry.is_ainfty, tol=tol),
                  f"{label}|{kind}") for kind, seq in sequences]
    elif theorem == "d-embed":
        certs = [(verify_d_embed(w, psi, tol=tol), label)]
    elif theorem == "fd-embed":
        # one d-embed certificate serves all five test functions
        d_cert = verify_d_embed(w, psi, tol=tol)
        certs = [(verify_fd_embed(w, f, psi, tol=tol, d_cert=d_cert), f"{label}|{kind}")
                 for kind, f in functions]
    elif theorem == "embed":
        certs = [(verify_embed(w, seq, psi, tol=tol), f"{label}|{kind}")
                 for kind, seq in sequences]
    elif theorem in ("embed2", "bump-embed"):
        seq = gen_carleson_sequence("random", w.depth, cfg.seed)
        certs = [(verify_embed2(w, f, seq, psi, tol=tol), f"{label}|random|{kind}")
                 for kind, f in functions]
    else:
        raise ValueError(f"unknown worker theorem {theorem}")
    return [{**cert.to_dict(), "weight": row_label, "depth": w.depth}
            for cert, row_label in certs]


# The forked section of `_run_tasks` as a context that does nothing:
# bench/tracing.py subclasses and replaces this name to time it as `cli.pool_s`.
ProcessPoolExecutor = contextlib.nullcontext


def _run_tasks(tasks: list, workers: int) -> list[list[dict]]:
    """`_run_task` of every task, in task order, run by this process and
    `workers - 1` children forked from it, which inherit `tasks`, the
    cached Psi and any kernel built for it, so nothing is pickled to them.

    The tasks are dealt at fork time: in the order largest depth first,
    ties in task order, process r of the k runs every k-th task from the
    r-th on, and this process share 0, in task order (with one worker,
    every task, and no child is forked).  Each child sends its (index,
    rows) pairs, or the type and message of the error that stopped it, as
    one pickle on a pipe of its own, and leaves by os._exit.  Every child
    is reaped, and killed first unless all rows came back."""
    order = sorted(range(len(tasks)), key=lambda i: -tasks[i][3].depth)
    results = {}        # child pid -> read end of its result pipe
    rows = None
    try:
        with ProcessPoolExecutor():
            for r in range(1, workers):
                result_r, result_w = os.pipe()
                if (pid := os.fork()) == 0:
                    _child(tasks, order[r::workers], result_w)
                os.close(result_w)
                results[pid] = open(result_r, "rb")
            merged = {i: _run_task(tasks[i]) for i in sorted(order[::workers])}
            for pid, fh in results.items():
                data = fh.read()
                if not data:
                    raise RuntimeError(f"worker process {pid} ended without its rows")
                done, error = pickle.loads(data)
                if error:
                    exc_type, message = error
                    raise exc_type(message)
                merged.update(done)
            rows = [merged[i] for i in range(len(tasks))]
    finally:
        for fh in results.values():
            fh.close()
        for pid in results:
            if rows is None:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return rows


def _child(tasks, share: list, result_w: int) -> None:
    """A forked child's whole life: run the tasks of its share, send back
    their rows or the error that stopped it, exit without returning."""
    try:
        try:
            result = ([(i, _run_task(tasks[i])) for i in share], None)
        except BaseException as exc:
            result = (None, (type(exc), str(exc)))
        with open(result_w, "wb") as fh:
            pickle.dump(result, fh)
    finally:
        os._exit(0)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_corpus(args) -> int:
    out = Path(args.out or _default_out()) / "corpus"
    try:
        manifest = write_corpus(out)
    except (OSError, ValueError) as exc:
        print(f"corpus generation failed: {exc}", file=sys.stderr)
        return 3
    print(f"wrote corpus manifest {manifest}")
    return 0


def cmd_verify(args) -> int:
    if args.theorem not in THEOREMS:
        print(f"unknown theorem id {args.theorem!r}; choose from {THEOREMS}",
              file=sys.stderr)
        return 3
    for flag, value in (("--tolerance-ineq", args.tolerance_ineq),
                        ("--tolerance-identity", args.tolerance_identity)):
        if not (math.isfinite(value) and value >= 0.0):
            print(f"{flag} must be finite and >= 0, got {value}", file=sys.stderr)
            return 3
    for flag, value, least in (("--seed", args.seed, 0), ("--workers", args.workers, 1)):
        if value < least:
            print(f"{flag} must be >= {least}, got {value}", file=sys.stderr)
            return 3
    if args.workers > 1 and not hasattr(os, "fork"):
        print("--workers above 1 needs os.fork, which this platform lacks",
              file=sys.stderr)
        return 3
    if args.depth is not None and args.theorem not in DEPTH_THEOREMS:
        print(f"--depth applies to {' and '.join(DEPTH_THEOREMS)} only; {args.theorem} "
              f"runs on the corpus weights at their own depths", file=sys.stderr)
        return 3
    depth = RunConfig.depth if args.depth is None else args.depth
    if args.theorem == "bellman-checks" and depth < 3:
        print(f"bellman-checks needs --depth >= 3 (its sweep draws trees of "
              f"depth 3..min(8, depth)), got {depth}", file=sys.stderr)
        return 3
    cfg = RunConfig(
        psi_family=args.psi_family, alpha=args.alpha, clamp_s0=args.clamp_s0,
        normalize=not args.no_normalize, depth=depth, seed=args.seed,
        tol_ineq=args.tolerance_ineq, tol_identity=args.tolerance_identity)
    out_dir = Path(args.out or _default_out())
    if not _write(out_dir):
        return 3
    try:
        psi = cfg.psi()
    except ConstructionError as exc:
        print(f"psi construction failed: {exc}", file=sys.stderr)
        return 3
    if args.theorem in NORMALIZED_THEOREMS and not kernel_of(psi).is_normalized:
        print(f"{args.theorem} requires a normalized Psi (int_0^1 ds/phi <= 1 and "
              f"phi(s) >= s); drop --no-normalize", file=sys.stderr)
        return 3

    if args.theorem == "failure-demo":
        try:
            demo = failure_demo(cfg.depth, psi, cfg.tolerances())
        except ValueError as exc:
            print(f"failure demo not run: {exc}", file=sys.stderr)
            return 3
        report = {
            "depths": list(demo.depths),
            "classical_ratios": list(demo.classical_ratios),
            "d_embed_ratios": list(demo.d_embed_ratios),
            "classical_growth": demo.classical_growth,
            "d_embed_change": demo.d_embed_change,
            "verdict": "pass" if demo.passed else "fail",
        }
        if not _write(out_dir / "failure_demo.json", _json_text(report)):
            return 3
        print(json.dumps(report, sort_keys=True, indent=1))
        return 0 if demo.passed else 2

    if args.theorem == "bellman-checks":
        kernel = kernel_of(psi)
        profile = build_profile(psi)
        conv = check_t_convexity(psi, kernel=kernel)
        sweep = _pointwise_sweep(psi, kernel, cfg)
        ok = conv.passed and sweep["violations"] == 0
        report = {
            "bprime_1": kernel.C,
            "b_1": float(kernel.B(1.0)),
            "profile_points": int(profile.grid.size),
            "t_convexity": {"passed": conv.passed, **conv.detail,
                            "failures": [list(f) for f in conv.detail["failures"]]},
            "pointwise_sweep": sweep,
            "verdict": "pass" if ok else "fail",
        }
        if not _write(out_dir / "bellman_checks.json", _json_text(report)):
            return 3
        print(json.dumps({k: report[k] for k in ("bprime_1", "b_1", "verdict")},
                         sort_keys=True))
        return 0 if ok else 2

    manifest = Path(args.corpus or str(Path(_default_out()) / "corpus" / "manifest.json"))
    if not manifest.exists():
        print(f"corpus manifest not found: {manifest} (run gen-corpus first)",
              file=sys.stderr)
        return 3
    try:
        entries = load_corpus(manifest)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        print(f"corpus manifest {manifest} is malformed: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    tasks = [(args.theorem, cfg, entry, w) for entry, w in entries]
    rows = _run_tasks(tasks, min(args.workers, len(tasks)))
    results = [r for task_rows in rows for r in task_rows]

    cert_path = out_dir / f"certificates_{args.theorem}.json"
    csv_path = out_dir / f"summary_{args.theorem}.csv"
    table = [[r["weight"], r["depth"], repr(r["lhs"]), repr(r["rhs_base"]), repr(r["ratio"]),
             r["verdict"]] for r in results]
    if not (_write(cert_path, _json_text(results))
            and _write(csv_path, _csv_text(["id", "depth", "lhs", "rhs", "ratio", "verdict"],
                                           table))):
        return 3
    n_fail = sum(1 for r in results if r["verdict"] != "pass")
    print(f"{args.theorem}: {len(results) - n_fail}/{len(results)} certificates pass; "
          f"wrote {cert_path} and {csv_path}")
    return 0 if n_fail == 0 else 2


def _pointwise_sweep(psi, kernel, cfg: RunConfig) -> dict:
    """Random-node sweep of the pair / n-point / paraproduct inequalities
    over 400 trials."""
    from .bellman import (check_main_ineq_npoint, check_main_ineq_pair,
                          check_paraproduct_step, check_pde_step)
    from .corpus import CorpusSpec, gen_test_function, gen_weight
    from .intervals import DyadicInterval

    rng = np.random.default_rng(cfg.seed)
    counts = {"pde": 0, "pair": 0, "npoint": 0, "paraproduct": 0}
    violations = 0
    for trial in range(400):
        depth = int(rng.integers(3, min(8, cfg.depth) + 1))
        w = gen_weight(CorpusSpec("random-martingale", depth, (0.7,), trial + 1))
        f = gen_test_function("random-bounded", depth, trial)
        fw = f.product(w)
        lev = int(rng.integers(0, depth))
        idx = int(rng.integers(0, 2 ** lev))
        node = DyadicInterval(lev, idx)
        d_i = w.distribution(node)
        d_m, d_p = w.distribution(node.minus), w.distribution(node.plus)
        res = check_pde_step(w, node, psi, kernel, (d_i, d_m, d_p))
        counts["pde"] += 1
        violations += not res.passed
        rep = check_main_ineq_pair(psi, fw.average(node.minus), d_m,
                                   fw.average(node.plus), d_p, d_i, kernel)
        counts["pair"] += 1
        violations += not rep.passed
        if lev + 2 <= depth:
            kids = [DyadicInterval(lev + 2, (idx << 2) + k) for k in range(4)]
            rep = check_main_ineq_npoint(
                psi, [fw.average(c) for c in kids],
                [w.distribution(c) for c in kids], [0.25] * 4, d_i, kernel)
            counts["npoint"] += 1
            violations += not rep.passed
        mk = rng.uniform(0, 0.4, 2)
        a = float(rng.uniform(0, 0.5))
        rep = check_paraproduct_step(
            psi, fw.average(node), d_i, a + 0.5 * float(mk.sum()),
            [fw.average(node.minus), fw.average(node.plus)], [d_m, d_p],
            list(mk), [0.5, 0.5], a, kernel)
        counts["paraproduct"] += 1
        violations += not rep.passed
    return {"violations": violations, **counts}


def cmd_psi_table(args) -> int:
    cfg = RunConfig(psi_family=args.psi_family, alpha=args.alpha, clamp_s0=args.clamp_s0,
                    normalize=not args.no_normalize)
    try:
        psi = cfg.psi()
        psi.validate()
    except ConstructionError as exc:
        print(f"psi not admissible: {exc}", file=sys.stderr)
        return 3
    kernel = kernel_of(psi)
    out_dir = Path(args.out or _default_out())
    if not _write(out_dir):
        return 3
    path = out_dir / f"psi_table_{cfg.psi_family}_a{cfg.alpha:g}.csv"
    s = np.geomspace(1e-12, 1.0, 1000)
    psis = np.asarray(psi.psi(s))
    phis = np.asarray(psi.phi(s))
    bprime = np.asarray(kernel.G(s))
    bvals = np.asarray(kernel.B(s))
    mvals = bvals if kernel.is_normalized else np.full_like(bvals, float("nan"))
    rows = [[repr(float(v)) for v in row] for row in zip(s, psis, phis, bprime, bvals, mvals)]
    if not _write(path, _csv_text(["s", "psi", "phi", "bprime", "b", "m"], rows)):
        return 3
    print(f"wrote {path}")
    return 0


def _write(path: Path, text: str | None = None) -> bool:
    """Create the directory path (text None) or write text to the file path;
    False, after a one-line message, when that fails (a file named as the
    directory, a directory named as the file, no permission)."""
    try:
        if text is None:
            path.mkdir(parents=True, exist_ok=True)
        else:
            path.write_text(text, newline="")
    except OSError as exc:
        print(f"cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def _csv_text(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_psi_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--psi-family", default="log-bump",
                   choices=("log-bump", "loglog-bump", "parametric"))
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--clamp-s0", type=float, default=None,
                   help="clamp point of the closed-form Psi (default: auto)")
    p.add_argument("--no-normalize", action="store_true")
    p.add_argument("--out", default="")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Exit 3, a configuration error, not argparse's 2, a certificate failure."""
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dyadembed",
        description="Certified Carleson-type embeddings on dyadic step weights")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-corpus", help="write the default 50-weight corpus")
    g.add_argument("--out", default="")
    g.set_defaults(func=cmd_gen_corpus)

    v = sub.add_parser("verify", help="run one theorem verifier over the corpus")
    v.add_argument("--theorem", required=True)
    v.add_argument("--corpus", default="", help="path to corpus manifest.json")
    v.add_argument("--workers", type=int, default=1)
    v.add_argument("--depth", type=int, default=None,
                   help="spike depth of failure-demo, tree depth bound of "
                        "bellman-checks (default 12); no other theorem takes it")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tolerance-ineq", type=float, default=1e-9)
    v.add_argument("--tolerance-identity", type=float, default=1e-12)
    _add_psi_flags(v)
    v.set_defaults(func=cmd_verify)

    t = sub.add_parser("psi-table", help="CSV of (s, psi, phi, B', B, m)")
    _add_psi_flags(t)
    t.set_defaults(func=cmd_psi_table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
