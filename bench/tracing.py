"""Per-layer tracing for the benchmark, installed from outside the package.

`install` replaces the public functions of the eight layer modules and the
public methods of their classes with wrappers that record a span around
each call.  Nothing under src/ is edited: the wrappers are patched
into every dyadembed module namespace that holds the original function, so
`from .bellman import check_pde_step` style imports see them too.

Spans are aggregated as they close (count, inclusive time, self time); a
span's self time is its duration minus the time of the spans directly
inside it.  Process-pool workers forked by the CLI reset the inherited state
and dump their own aggregate to a file when they exit; `merge` adds those
dumps to the parent's.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("weights", "distribution", "orlicz", "bellman", "carleson",
          "verifiers", "corpus", "cli")
THEOREM_SPANS = {
    "verifiers.verify_buckley_classic": "buc-classic",
    "verifiers.verify_folk": "folk",
    "verifiers.verify_d_embed": "d-embed",
    "verifiers.verify_embed": "embed",
    "verifiers.verify_fd_embed": "fd-embed",
    "verifiers.verify_embed2": "embed2",
}
THEOREMS = tuple(THEOREM_SPANS.values())
BACKENDS = ("expn", "panel")
KERNEL_EVALS = ("G", "H", "B", "T")


def kernel_backend(psi) -> str:
    """Which evaluator serves H for this Psi: `expn` closed form, GL `panel`
    grid, or the `parametric` bisection family."""
    if psi.mode == "parametric":
        return "parametric"
    a = psi.alpha
    if psi.mode == "clamped-log" and abs(a - round(a)) < 1e-12 and round(a) >= 2:
        return "expn"
    return "panel"


def weight_key(w) -> str:
    return f"{w.depth}:" + hashlib.sha1(np.ascontiguousarray(w.values).tobytes()).hexdigest()


class Tracer:
    def __init__(self, clock=time.perf_counter, dump_dir: Path | None = None) -> None:
        """`dump_dir`: where forked pool workers and `dump()` write their
        aggregates; None keeps everything in this process."""
        self.clock = clock
        self.dump_dir = dump_dir
        self.stack: list = []          # open spans: [name, theorem, child_seconds]
        self.spans: dict = {}          # name -> [count, inclusive_s, self_s]
        self.theorem_self: Counter = Counter()
        self.counts: Counter = Counter()
        self.keys: dict = {}

    def reset(self) -> None:
        self.stack.clear()
        self.spans.clear()
        self.theorem_self.clear()
        self.counts.clear()
        self.keys.clear()

    def add_key(self, kind: str, key: str) -> None:
        self.keys.setdefault(kind, set()).add(key)

    # -- spans -----------------------------------------------------------

    def span(self, name: str, fn, before=None):
        layer = name.split(".", 1)[0]
        own_theorem = THEOREM_SPANS.get(name)
        stack = self.stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                # hook time is tracing overhead: kept out of every self time
                t_hook = clock()
                before(self, *args, **kwargs)
                if stack:
                    stack[-1][2] += clock() - t_hook
            frame = [name, own_theorem or (stack[-1][1] if stack else None), 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                own = dt - frame[2]
                st = self.spans.get(name)
                if st is None:
                    st = self.spans[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dt
                st[2] += own
                if layer == "verifiers" and frame[1] is not None:
                    self.theorem_self[frame[1]] += own
                if stack:
                    stack[-1][2] += dt
        return wrapper

    def kernel_eval(self, name: str, fn):
        """Span for BellmanKernel.G/H/B/T that also counts, for outermost
        evaluations only, calls, array points and time per backend."""
        inner = self.span("bellman.kernel." + name, fn)
        stack = self.stack
        counts = self.counts
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(kernel, *args):
            if stack and stack[-1][0].startswith("bellman.kernel."):
                return inner(kernel, *args)
            t0 = clock()
            out = inner(kernel, *args)
            dt = clock() - t0
            points = int(np.size(args[-1]))
            backend = kernel_backend(kernel.psi)
            counts["eval_calls"] += 1
            counts["eval_points"] += points
            counts["eval_points." + backend] += points
            counts["eval_s." + backend] += dt
            return out
        return wrapper

    # -- worker processes --------------------------------------------------

    def dump(self) -> None:
        if self.dump_dir is None:
            return
        path = self.dump_dir / f"trace-{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot()))

    def snapshot(self) -> dict:
        return {"spans": self.spans, "theorem_self": dict(self.theorem_self),
                "counts": dict(self.counts),
                "keys": {k: sorted(v) for k, v in self.keys.items()}}


def _after_fork_in_worker(tracer: Tracer) -> None:
    # multiprocessing clears its finalizer registry in a new child before it
    # runs the after-fork hooks, so the exit dump is registered here
    import multiprocessing.util as mpu

    tracer.reset()
    mpu.Finalize(tracer, tracer.dump, exitpriority=100)


# -- hooks that count where the work happens ----------------------------------

def _on_fd_embed(tracer, w, *args, **kwargs):
    tracer.add_key("fd_weights", weight_key(w))


def _on_d_embed(tracer, *args, **kwargs):
    if any(frame[0] == "verifiers.verify_fd_embed" for frame in tracer.stack):
        tracer.counts["d_embed_in_fd"] += 1


def _count_loads(tracer, manifest_path, indices) -> None:
    path = Path(manifest_path)
    entries = json.loads(path.read_text())["entries"]
    indices = range(len(entries)) if indices is None else indices
    tracer.counts["corpus_loads"] += len(indices)
    tracer.counts["corpus_bytes"] += path.stat().st_size + sum(
        (path.parent / entries[i]["file"]).stat().st_size for i in indices)
    for i in range(len(entries)):
        tracer.add_key("corpus_entries", f"{path.resolve()}#{i}")


def _on_load_corpus(tracer, manifest_path, *args, **kwargs):
    _count_loads(tracer, manifest_path, None)


def _on_load_corpus_entry(tracer, manifest_path, index, *args, **kwargs):
    _count_loads(tracer, manifest_path, [index])


def _on_cmd_verify(tracer, *args, **kwargs):
    tracer.counts["verify_runs"] += 1


HOOKS = {
    "verifiers.verify_fd_embed": _on_fd_embed,
    "verifiers.verify_d_embed": _on_d_embed,
    "corpus.load_corpus": _on_load_corpus,
    "corpus.load_corpus_entry": _on_load_corpus_entry,
    "cli.cmd_verify": _on_cmd_verify,
}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of the layer modules, in every namespace that
    holds them, and the public methods of the modules' classes."""
    mods = {layer: importlib.import_module("dyadembed." + layer) for layer in LAYERS}
    replace = {}
    for layer, mod in mods.items():
        for attr, fn in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)):
                continue
            name = f"{layer}.{attr}"
            replace[fn] = tracer.span(name, fn, HOOKS.get(name))
    # the process-pool task entry point is the CLI's per-task work
    cli = mods["cli"]
    replace[cli._run_task] = tracer.span("cli.run_task", cli._run_task)
    for modname, mod in list(sys.modules.items()):
        if modname != "dyadembed" and not modname.startswith("dyadembed."):
            continue
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in replace:
                setattr(mod, attr, replace[val])

    kernel_cls = mods["bellman"].BellmanKernel
    for layer, mod in mods.items():
        for cname, cls in vars(mod).items():
            if (cname.startswith("_") or not inspect.isclass(cls)
                    or cls.__module__ != mod.__name__):
                continue
            for attr, fn in list(vars(cls).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or (cls is kernel_cls and attr in KERNEL_EVALS)):
                    continue
                setattr(cls, attr, tracer.span(f"{layer}.{cname}.{attr}", fn))
    dist_cls = mods["distribution"].DistributionFunction
    build = dist_cls.__dict__["from_values"].__func__
    dist_cls.from_values = classmethod(tracer.span("distribution.build", build))
    for ev in KERNEL_EVALS:
        setattr(kernel_cls, ev, tracer.kernel_eval(ev, getattr(kernel_cls, ev)))

    class TracedPool(cli.ProcessPoolExecutor):
        """Pool whose lifetime in the parent is the `pool` span, so waiting
        for workers is not counted as CLI self time."""

        def __enter__(self):
            tracer.stack.append(["pool.lifetime", None, 0.0])
            self._t0 = tracer.clock()
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                dt = tracer.clock() - self._t0
                tracer.stack.pop()
                tracer.counts["pool_s"] += dt
                if tracer.stack:
                    tracer.stack[-1][2] += dt

    cli.ProcessPoolExecutor = TracedPool
    if tracer.dump_dir is not None:
        import multiprocessing.util as mpu

        mpu.register_after_fork(tracer, _after_fork_in_worker)


# -- aggregation -----------------------------------------------------------------

def merge(parts: list[dict]) -> dict:
    out = {"spans": {}, "theorem_self": Counter(), "counts": Counter(), "keys": {}}
    for part in parts:
        for name, (n, incl, own) in part["spans"].items():
            st = out["spans"].setdefault(name, [0, 0.0, 0.0])
            st[0] += n
            st[1] += incl
            st[2] += own
        out["theorem_self"].update(part["theorem_self"])
        out["counts"].update(part["counts"])
        for kind, keys in part["keys"].items():
            out["keys"].setdefault(kind, set()).update(keys)
    return out


def load_dumps(dump_dir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(dump_dir.glob("trace-*.json"))]


def layer_metrics(data: dict) -> dict:
    """Per-layer metrics that come from spans and counters alone."""
    spans, counts = data["spans"], data["counts"]

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def layer_self(layer):
        return sum(v[2] for k, v in spans.items() if k.split(".", 1)[0] == layer)

    steps = ("check_pde_step", "check_embed_step", "check_paraproduct_step")
    m = {
        "distribution.build_count": calls("distribution.build"),
        "distribution.build_s": incl("distribution.build"),
        "bellman.eval_calls": counts["eval_calls"],
        "bellman.eval_points": counts["eval_points"],
        "bellman.points_per_eval": (counts["eval_points"] / counts["eval_calls"]
                                    if counts["eval_calls"] else 0.0),
        "bellman.pde_step_s": incl("bellman.check_pde_step"),
        "bellman.embed_step_s": incl("bellman.check_embed_step"),
        "bellman.paraproduct_step_s": incl("bellman.check_paraproduct_step"),
        "bellman.step_count": sum(calls("bellman." + s) for s in steps),
        "orlicz.n_psi_count": calls("orlicz.n_psi"),
        "orlicz.n_psi_s": incl("orlicz.n_psi"),
        "carleson.haar_split_count": calls("carleson.weighted_haar_decompose"),
        "carleson.haar_split_s": incl("carleson.weighted_haar_decompose"),
        "corpus.load_count": counts["corpus_loads"],
        "corpus.load_s": incl("corpus.load_corpus") + incl("corpus.load_corpus_entry"),
        "corpus.bytes_read": counts["corpus_bytes"],
        "cli.pool_s": counts["pool_s"],
    }
    for backend in BACKENDS:
        secs = counts["eval_s." + backend]
        m["bellman.eval_pts_per_s." + backend] = (
            counts["eval_points." + backend] / secs if secs else 0.0)
    for layer in LAYERS:
        m[layer + ".self_s"] = layer_self(layer)
    for theorem in THEOREMS:
        m["verifiers.self_s." + theorem] = data["theorem_self"].get(theorem, 0.0)
    fd_weights = len(data["keys"].get("fd_weights", ()))
    m["verifiers.d_embed_per_fd_cert"] = (counts["d_embed_in_fd"] / fd_weights
                                          if fd_weights else 0.0)
    runs, entries = counts["verify_runs"], len(data["keys"].get("corpus_entries", ()))
    m["corpus.loads_per_entry"] = (counts["corpus_loads"] / (runs * entries)
                                   if runs and entries else 0.0)
    return m


def depth_exponent(node_counts, seconds) -> float:
    """Least-squares slope of log(time) against log(internal node count)."""
    x = np.log(np.asarray(node_counts, dtype=np.float64))
    y = np.log(np.asarray(seconds, dtype=np.float64))
    if x.size < 2 or not np.all(np.isfinite(y)):
        return math.nan
    return float(np.polyfit(x, y, 1)[0])
