"""The benchmark's four workloads: inputs, one timed pass, and the oracle.

Every workload is built from one seed in one process and runs closed loop
(each operation starts when the previous one has finished).  The seed fixes
the order of the operations; the inputs themselves (corpus weights, generator
weights and the `pointwise` sweep instances) are the fixed ones that
`reference.json` was recorded on, so every output can be checked against it.

An operation ("op") is one certificate, one pointwise check, or one CLI
certificate row.  `run_pass` returns one record per op:
    {"key", "ok", "why", "s", "nodes", "work", ...}
where `ok`/`why` is the oracle verdict after `check`.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from dyadembed import bellman, cli, corpus, orlicz, verifiers
from dyadembed.config import DEFAULT_TOL
from dyadembed.intervals import DyadicInterval

from tracing import depth_exponent

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REL_TOL = 1e-12
SHALLOW_DEPTH = 8
SMALL_DEPTH = 6


def close(a: float, b: float) -> bool:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def failure_cause(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({Path(frame.filename).name}:{frame.lineno})"


def check_certs(records: list[dict], ref: dict) -> None:
    """Verdict must match; lhs and rhs_base within REL_TOL relative."""
    for r in records:
        if "error" in r:
            r["ok"], r["why"] = False, r["error"]
            continue
        want = ref.get(r["key"])
        if want is None:
            r["ok"], r["why"] = False, "no reference value"
        elif r["verdict"] != want[0]:
            r["ok"], r["why"] = False, f"verdict {r['verdict']} != reference {want[0]}"
        elif not (close(r["lhs"], want[1]) and close(r["rhs"], want[2])):
            r["ok"], r["why"] = False, (f"lhs/rhs {r['lhs']!r}/{r['rhs']!r} != reference "
                                        f"{want[1]!r}/{want[2]!r}")
        else:
            r["ok"], r["why"] = True, ""


def cert_reference(records: list[dict]) -> dict:
    return {r["key"]: [r["verdict"], r["lhs"], r["rhs"]] for r in records}


def tree_nodes(w) -> int:
    return 2 ** (w.depth + 1) - 1


def input_properties(weights) -> dict:
    """Computed from the weight values alone: share of internal nodes whose
    cell block is constant, and mean distinct positive values per node."""
    const = internal = pieces = nodes = 0
    for w in weights:
        for lev in range(w.depth + 1):
            blocks = np.sort(w.values.reshape(2 ** lev, -1), axis=1)
            new_value = np.diff(blocks, axis=1) != 0
            distinct = 1 + new_value.sum(axis=1) - (blocks[:, 0] <= 0)
            pieces += int(distinct.sum())
            nodes += blocks.shape[0]
            if lev < w.depth:
                const += int((~new_value.any(axis=1)).sum())
                internal += blocks.shape[0]
    return {"verifiers.const_subtree_share": const / internal if internal else 0.0,
            "distribution.mean_pieces": pieces / nodes if nodes else 0.0}


class Workload:
    name = ""
    unit = ""        # what work_per_s counts
    in_process = True

    def __init__(self, seed: int, small: bool, workdir: Path) -> None:
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.weights: list = []
        self.now = time.perf_counter     # the benchmark swaps in its nominal clock

    def timed(self, key: str, fn, *args, **kwargs) -> tuple[dict, object]:
        """Run one op; a failed op is recorded with its cause, the run goes on."""
        t0 = self.now()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            return {"key": key, "error": failure_cause(exc), "nodes": 0,
                    "s": self.now() - t0, "work": 1}, None
        return {"key": key, "s": self.now() - t0, "work": 1}, out

    def timed_cert(self, key: str, fn, *args, **kwargs) -> tuple[dict, object]:
        rec, cert = self.timed(key, fn, *args, **kwargs)
        if cert is not None:
            rec.update({"verdict": "pass" if cert.passed else "fail", "lhs": cert.lhs,
                        "rhs": cert.rhs_base, "nodes": cert.node_count})
        return rec, cert

    def run_pass(self, traced: bool = False) -> list[dict]:
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed work before the first pass, where a cold start would skew it."""

    def check(self, records: list[dict], ref: dict) -> list[str]:
        """Mark every record ok/not ok; return failed invariant messages."""
        check_certs(records, ref)
        return []

    def reference(self, records: list[dict]) -> dict:
        return cert_reference(records)

    def known_defects(self) -> list[dict]:
        """Probes of documented defects, run untimed: [{"what", "failed", "why"}]."""
        return []

    def extra_metrics(self, passes) -> dict:
        return {}


class CorpusShallow(Workload):
    """Every depth <= 8 weight of the default corpus with the CLI's task mix."""

    name = "corpus-shallow"
    unit = "certificates"

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        top = SMALL_DEPTH if small else SHALLOW_DEPTH
        self.psi = orlicz.psi_closed_form(2.0)
        self.items = []
        for spec in corpus.default_corpus_specs():
            if spec.depth > top:
                continue
            w = corpus.gen_weight(spec)
            self.weights.append(w)
            seqs = {k: corpus.gen_carleson_sequence(k, w.depth, 0) for k in cli.SEQUENCE_KINDS}
            funcs = {f"{k}:{s}": corpus.gen_test_function(k, w.depth, s, weight=w)
                     for k, s in cli.FUNCTION_KINDS}
            tasks = [("buc-classic", "")]
            tasks += [("folk", k) for k in seqs]
            tasks += [("embed", k) for k in seqs]
            tasks += [("fd-embed", k) for k in funcs]
            tasks += [("embed2", k) for k in funcs]
            order = self.rng.permutation(len(tasks))
            self.items.append((spec, w, seqs, funcs, [tasks[i] for i in order]))
        self.items = [self.items[i] for i in self.rng.permutation(len(self.items))]

    def run_pass(self, traced=False):
        out = []
        psi = self.psi
        for spec, w, seqs, funcs, tasks in self.items:
            label = spec.label
            rec, d_cert = self.timed_cert(f"{label}|d-embed|", verifiers.verify_d_embed, w, psi)
            out.append(rec)
            for theorem, variant in tasks:
                key = f"{label}|{theorem}|{variant}"
                if theorem == "buc-classic":
                    rec, _ = self.timed_cert(key, verifiers.verify_buckley_classic, w)
                elif theorem == "folk":
                    rec, _ = self.timed_cert(key, verifiers.verify_folk, w, seqs[variant],
                                             assert_rhi_bound=spec.kind in corpus.AINFTY_KINDS)
                elif theorem == "embed":
                    rec, _ = self.timed_cert(key, verifiers.verify_embed, w, seqs[variant], psi)
                elif theorem == "fd-embed":
                    # a library sweep reuses the weight's d-embed certificate
                    rec, _ = self.timed_cert(key, verifiers.verify_fd_embed, w,
                                             funcs[variant], psi, d_cert=d_cert)
                else:
                    rec, _ = self.timed_cert(key, verifiers.verify_embed2, w,
                                             funcs[variant], seqs["random"], psi)
                out.append(rec)
        return out

    def check(self, records, ref):
        check_certs(records, ref)
        by_key = {r["key"]: r for r in records}
        broken = []
        for spec, *_ in self.items:
            e2 = by_key.get(f"{spec.label}|embed2|constant:0", {})
            em = by_key.get(f"{spec.label}|embed|random", {})
            if "lhs" in e2 and "lhs" in em and e2["lhs"] != em["lhs"]:
                broken.append(f"{spec.label}: embed2(f=1).lhs {e2['lhs']!r} != "
                              f"embed.lhs {em['lhs']!r}")
                e2["ok"], e2["why"] = False, "embed2(f=1) != embed bit for bit"
        return broken


class DeepTree(Workload):
    """Depth-14 trees: distinct values everywhere, almost all constant, and a
    spike; the martingale at depths 10 and 12 gives the depth exponent."""

    name = "deep-tree"
    unit = "tree nodes"

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        self.depths = (4, 5, 6) if small else (10, 12, 14)
        top = self.depths[-1]
        self.psi = orlicz.psi_closed_form(2.0)
        self.tasks = []
        for d in self.depths:
            spec = corpus.CorpusSpec("random-martingale", d, (0.3,), 1)
            w = corpus.gen_weight(spec)
            seq = corpus.gen_carleson_sequence("random", d, 0)
            self.tasks.append((f"{spec.label}|d-embed", "verify_d_embed", (w,)))
            self.tasks.append((f"{spec.label}|embed", "verify_embed", (w, seq)))
            self.weights.append(w)
        for spec in (corpus.CorpusSpec("lacunary", top, (0.25,)), corpus.CorpusSpec("spike", top)):
            w = corpus.gen_weight(spec)
            self.tasks.append((f"{spec.label}|d-embed", "verify_d_embed", (w,)))
            self.weights.append(w)
        self.spike_label = f"{corpus.CorpusSpec('spike', top).label}|d-embed"
        self.tasks = [self.tasks[i] for i in self.rng.permutation(len(self.tasks))]

    def run_pass(self, traced=False):
        out = []
        for key, fn_name, args in self.tasks:
            # looked up at call time so a traced pass calls the wrapper
            rec, _ = self.timed_cert(key, getattr(verifiers, fn_name), *args, self.psi)
            rec["work"] = rec["nodes"]
            out.append(rec)
        return out

    def check(self, records, ref):
        check_certs(records, ref)
        top = self.depths[-1]
        closed = verifiers.spike_d_embed_closed_form(top, self.psi)
        broken = []
        for r in records:
            if r["key"] == self.spike_label and "lhs" in r:
                if abs(r["lhs"] - closed) > DEFAULT_TOL.slack(closed):
                    broken.append(f"spike d{top} d-embed {r['lhs']!r} != closed form {closed!r}")
                    r["ok"], r["why"] = False, "spike closed form mismatch"
        return broken

    def extra_metrics(self, passes):
        exps = {}
        for theorem in ("d-embed", "embed"):
            secs = []
            for d in self.depths:
                key = f"{corpus.CorpusSpec('random-martingale', d, (0.3,), 1).label}|{theorem}"
                secs.append(float(np.median([r["s"] for recs in passes for r in recs
                                             if r["key"] == key])))
            nodes = [2 ** d - 1 for d in self.depths]
            exps[f"verifiers.depth_exponent.{theorem}"] = depth_exponent(nodes, secs)
        return exps


FAMILIES = (("log-bump", 2.0), ("loglog-bump", 2.0))
PROFILE_SAMPLES = slice(0, None, 125)
SWEEP_SEED = 0          # the sweep instances are fixed; the run's seed orders them


class Pointwise(Workload):
    """Profiles, the T-convexity grid and a pde/pair/n-point/paraproduct sweep
    over fixed random instances, in seeded order, for an `expn`-backed and a
    panel-backed Psi; no tree walk."""

    name = "pointwise"
    unit = "pointwise checks"

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        self.psis = [(f"{fam}[{a:g}]", orlicz.psi_closed_form(a, fam)) for fam, a in FAMILIES]
        self.grid = 10 if small else 50
        trials = 20 if small else 400
        rng = np.random.default_rng(SWEEP_SEED)
        self.instances = []
        for _ in range(trials):
            depth = int(rng.integers(3, 9))
            w = corpus.gen_weight(corpus.CorpusSpec("random-martingale", depth, (0.7,),
                                                    int(rng.integers(1, 2 ** 31))))
            f = corpus.gen_test_function("random-bounded", depth, int(rng.integers(0, 2 ** 31)))
            fw = f.product(w)
            lev = int(rng.integers(0, depth))
            node = DyadicInterval(lev, int(rng.integers(0, 2 ** lev)))
            inst = {"w": w, "node": node,
                    "d": [w.distribution(node), w.distribution(node.minus),
                          w.distribution(node.plus)],
                    "f": [fw.average(node), fw.average(node.minus), fw.average(node.plus)],
                    "mk": [float(v) for v in rng.uniform(0, 0.4, 2)],
                    "a": float(rng.uniform(0, 0.5))}
            if lev + 2 <= depth:
                kids = [DyadicInterval(lev + 2, (node.index << 2) + k) for k in range(4)]
                inst["kids_f"] = [fw.average(c) for c in kids]
                inst["kids_d"] = [w.distribution(c) for c in kids]
            self.instances.append(inst)
            self.weights.append(w)
        self.order = [int(t) for t in self.rng.permutation(trials)]

    def run_pass(self, traced=False):
        out = []
        lin = np.linspace(0.02, 0.98, self.grid)
        grid_a = np.linspace(1.02, 1.98, self.grid)
        for fam, psi in self.psis:
            kernel = bellman.BellmanKernel(psi)
            rec, prof = self.timed(f"{fam}|profile", bellman.build_profile, psi)
            if prof is not None:
                rec["samples"] = [float(v) for v in prof.B[PROFILE_SAMPLES]] + [prof.C]
            out.append(rec)
            rec, rep = self.timed(f"{fam}|t-convexity", bellman.check_t_convexity,
                                  psi, grid_a, lin, kernel=kernel)
            if rep is not None:
                rec["work"] = rep.detail["checked"]
                rec["tconv"] = [bool(rep.passed), rep.detail["checked"], rep.detail["excluded"]]
            out.append(rec)
            for t in self.order:
                out.extend(self._sweep(fam, psi, kernel, t, self.instances[t]))
        return out

    def _sweep(self, fam, psi, kernel, t, inst):
        d_i, d_m, d_p = inst["d"]
        f_i, f_m, f_p = inst["f"]
        w, node, mk, a = inst["w"], inst["node"], inst["mk"], inst["a"]
        calls = [("pde", lambda: bellman.check_pde_step(w, node, psi, kernel, (d_i, d_m, d_p))),
                 ("pair", lambda: bellman.check_main_ineq_pair(psi, f_m, d_m, f_p, d_p,
                                                               d_i, kernel))]
        if "kids_f" in inst:
            calls.append(("npoint", lambda: bellman.check_main_ineq_npoint(
                psi, inst["kids_f"], inst["kids_d"], [0.25] * 4, d_i, kernel)))
        calls.append(("paraproduct", lambda: bellman.check_paraproduct_step(
            psi, f_i, d_i, a + 0.5 * (mk[0] + mk[1]), [f_m, f_p], [d_m, d_p], mk,
            [0.5, 0.5], a, kernel)))
        out = []
        for kind, fn in calls:
            rec, rep = self.timed(f"{fam}|{kind}|{t}", fn)
            if rep is not None:
                values = ([rep.gain, rep.stage1, rep.stage2] if kind == "pde"
                          else [rep.lhs, rep.rhs])
                if "n_psi" in rep.detail:
                    values.append(rep.detail["n_psi"])
                rec["sweep"] = [bool(rep.passed)] + [float(v) for v in values]
            out.append(rec)
        return out

    def check(self, records, ref):
        for r in records:
            fam, kind = r["key"].split("|")[:2]
            want = ref.get(r["key"] if "sweep" in r else f"{fam}|{kind}")
            if "error" in r:
                r["ok"], r["why"] = False, r["error"]
            elif want is None:
                r["ok"], r["why"] = False, "no reference value"
            elif kind == "profile":
                ok = len(r["samples"]) == len(want) and all(map(close, r["samples"], want))
                r["ok"], r["why"] = ok, "" if ok else "profile values differ from reference"
            elif kind == "t-convexity":
                ok = r["tconv"] == want[str(self.grid)]
                r["ok"], r["why"] = ok, "" if ok else f"t-convexity {r['tconv']} != {want}"
            else:
                # [passed, gain, stage1, stage2 | lhs, rhs, (n_psi)]
                got = r["sweep"]
                ok = (got[0] == want[0] and len(got) == len(want)
                      and all(map(close, got[1:], want[1:])))
                r["ok"], r["why"] = ok, "" if ok else f"{kind} {got} != reference {want}"
        return []

    def reference(self, records):
        ref = {}
        for r in records:
            fam, kind = r["key"].split("|")[:2]
            if kind == "profile":
                ref[f"{fam}|profile"] = r["samples"]
            elif kind == "t-convexity":
                ref.setdefault(f"{fam}|t-convexity", {})[str(self.grid)] = r["tconv"]
            else:
                ref[r["key"]] = r["sweep"]
        return ref

    def known_defects(self):
        # the CLI advertises --psi-family parametric; it cannot build a kernel
        try:
            psi = orlicz.psi_from_phi(orlicz.young_function("log-bump", 2.0))
            bellman.build_profile(psi)
        except Exception as exc:  # reported as a known defect, not an abort
            return [{"what": "parametric family profile", "failed": True,
                     "why": failure_cause(exc)}]
        return [{"what": "parametric family profile", "failed": False, "why": ""}]


CLI_THEOREMS = ("d-embed", "fd-embed", "buc-classic")
KNOWN_NONSTRICT = {"certificates_buc-classic.json": "bare NaN constant (report-only certificate)"}


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


class CliWorkers2(Workload):
    """`dyadembed verify --workers 2` as a subprocess on the depth <= 8 manifest."""

    name = "cli-workers2"
    unit = "certificates"
    in_process = False
    workers = 2

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        top = SMALL_DEPTH if small else SHALLOW_DEPTH
        specs = [s for s in corpus.default_corpus_specs() if s.depth <= top]
        self.weights = [corpus.gen_weight(s) for s in specs]
        self.manifest = corpus.write_corpus(workdir / "corpus", specs)
        self.expected = {"d-embed": len(specs), "buc-classic": len(specs),
                         "fd-embed": len(specs) * len(cli.FUNCTION_KINDS)}
        self.order = [CLI_THEOREMS[i] for i in self.rng.permutation(len(CLI_THEOREMS))]
        self.defects: list[dict] = []
        self.pass_bytes = self.pass_nonstrict = 0

    def warm_up(self):
        # the first CLI process of a run is markedly slower than later ones
        run_process(self._command(False) + ["verify", "--theorem", "buc-classic", "--corpus",
                                            str(self.manifest), "--out",
                                            str(self.workdir / "warm-up")], self._env())

    def _env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        return env

    def _command(self, traced: bool) -> list[str]:
        if traced:
            return [sys.executable, str(BENCH / "cli_trace.py"), str(self.workdir / "trace")]
        return [sys.executable, "-m", "dyadembed.cli"]

    def run_pass(self, traced=False):
        out_dir = self.workdir / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        self.pass_bytes = self.pass_nonstrict = 0
        if traced:
            (self.workdir / "trace").mkdir(exist_ok=True)
        env = self._env()
        records = []
        for theorem in self.order:
            cmd = self._command(traced) + [
                "verify", "--theorem", theorem, "--corpus", str(self.manifest),
                "--out", str(out_dir), "--workers", str(self.workers)]
            t0 = self.now()
            code, err = run_process(cmd, env)
            dt = self.now() - t0
            records.extend(self._rows(theorem, out_dir, code, err, dt))
        return records

    def _rows(self, theorem, out_dir, code, err, seconds):
        n = self.expected[theorem]
        path = out_dir / f"certificates_{theorem}.json"
        csv_path = out_dir / f"summary_{theorem}.csv"
        if code != 0 or not path.exists():
            why = f"exit code {code}: {err.strip()[-300:]}"
            return [{"key": f"{theorem}|#{i}", "error": why, "s": seconds / n, "work": 1,
                     "nodes": 0} for i in range(n)]
        text = path.read_text()
        self.pass_bytes += len(text.encode()) + (csv_path.stat().st_size
                                                 if csv_path.exists() else 0)
        strict_error = ""
        try:
            rows = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            strict_error = str(exc)
            self.pass_nonstrict += 1
            rows = json.loads(text)
        known = path.name in KNOWN_NONSTRICT
        if known:
            self.defects.append({"what": f"strict JSON {path.name}",
                                 "failed": bool(strict_error),
                                 "why": f"{strict_error}: {KNOWN_NONSTRICT[path.name]}"
                                 if strict_error else ""})
        seen: dict = {}
        out = []
        for row in rows:
            label = row["weight"]
            seen[label] = seen.get(label, -1) + 1
            out.append({"key": f"{theorem}|{label}#{seen[label]}", "verdict": row["verdict"],
                        "lhs": row["lhs"], "rhs": row["rhs_base"],
                        "nodes": row["node_count"], "s": seconds / n, "work": 1})
        if strict_error and not known:
            for r in out:
                r["error"] = f"{path.name} is not strict JSON: {strict_error}"
        out += [{"key": f"{theorem}|missing#{i}", "error": "certificate missing from output",
                 "s": 0.0, "work": 1, "nodes": 0} for i in range(n - len(out))]
        return out

    def known_defects(self):
        return self.defects


def run_process(cmd: list[str], env: dict, timeout: float = 120.0) -> tuple[int, str]:
    """Run a command in its own process group; on timeout the whole group,
    pool workers included, is killed and reaped."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        return -9, f"timed out after {timeout} s"
    return proc.returncode, err


WORKLOADS = {cls.name: cls for cls in (CorpusShallow, DeepTree, Pointwise, CliWorkers2)}
