"""Deterministic test-weight corpus and Muckenhoupt-class diagnostics.

Every generator is a pure function of (kind, parameters, seed): regenerating
a spec yields bit-identical values, and the corpus manifest records a
content hash per weight and one over its entries, so a saved corpus can be
trusted byte for byte.

Weight kinds
    constant            w = c
    power-like          exact cell averages of x^(-a), a in (0, 1)
    random-martingale   multiplicative cascade, per-level multipliers
                        1 +- delta (inside the Muckenhoupt class for small
                        delta)
    spike               2^depth on the leftmost cell, zero elsewhere
    lacunary            cascade with multipliers (2 - eps, eps) along the
                        leftmost branch (outside the class)
    two-level-gap       plateau plus one extreme cell (feeds the
                        bump-functional gap example)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .carleson import CarlesonSequence
from .intervals import ROOT, DyadicInterval
from .weights import DyadicWeight, StepFunction


@dataclass(frozen=True)
class CorpusSpec:
    kind: str
    depth: int
    params: tuple = ()
    seed: int = 0

    @property
    def label(self) -> str:
        p = ",".join(f"{v:g}" if isinstance(v, float) else str(v) for v in self.params)
        return f"{self.kind}[{p}]-d{self.depth}-s{self.seed}"


def gen_weight(spec: CorpusSpec) -> DyadicWeight:
    """Instantiate one corpus weight; pure in (kind, params, seed)."""
    n = 2 ** spec.depth
    kind = spec.kind
    if kind == "constant":
        (c,) = spec.params
        if c <= 0:
            raise ValueError("constant weight needs c > 0")
        return DyadicWeight(spec.depth, np.full(n, float(c)))
    if kind == "power-like":
        (a,) = spec.params
        if not 0 < a < 1:
            raise ValueError("power-like exponent must be in (0, 1)")
        edges = np.arange(n + 1) / n
        prim = edges ** (1.0 - a) / (1.0 - a)
        return DyadicWeight(spec.depth, np.diff(prim) * n)
    if kind == "random-martingale":
        (delta,) = spec.params
        if not 0 <= delta < 1:
            raise ValueError("martingale delta must be in [0, 1)")
        rng = np.random.default_rng(spec.seed)
        vals = np.array([1.0])
        for _ in range(spec.depth):
            x = rng.uniform(-delta, delta, vals.size)
            vals = np.stack([vals * (1 + x), vals * (1 - x)], axis=1).ravel()
        return DyadicWeight(spec.depth, vals)
    if kind == "spike":
        vals = np.zeros(n)
        vals[0] = float(n)
        return DyadicWeight(spec.depth, vals)
    if kind == "lacunary":
        (eps,) = spec.params
        if not 0 < eps < 1:
            raise ValueError("lacunary eps must be in (0, 1)")
        vals = np.ones(n)
        level_val = 1.0
        for lev in range(spec.depth):
            half = n >> (lev + 1)
            vals[half : 2 * half] = level_val * eps
            level_val *= 2.0 - eps
            vals[:half] = level_val
        return DyadicWeight(spec.depth, vals)
    if kind == "two-level-gap":
        (plateau,) = spec.params
        vals = np.full(n, float(plateau))
        vals[0] = float(n)
        return DyadicWeight(spec.depth, vals)
    raise ValueError(f"unknown weight kind {kind!r}")


def gen_carleson_sequence(kind: str, depth: int, seed: int = 0) -> CarlesonSequence:
    """Normalized Carleson sequences (norm exactly the computed one, scaled to 1)."""
    if kind == "root-only":
        seq = CarlesonSequence.from_entries(depth, [(0, 0, 1.0)])
    elif kind == "level-uniform":
        seq = CarlesonSequence(depth, [np.ones(2 ** lev) for lev in range(depth + 1)])
    elif kind == "random":
        rng = np.random.default_rng(seed)
        seq = CarlesonSequence(depth, [rng.uniform(0, 1, 2 ** lev)
                                       for lev in range(depth + 1)])
    elif kind == "stopping-time":
        # the chain of intervals containing 0: mass concentrates on one spine
        seq = CarlesonSequence.from_entries(
            depth, [(lev, 0, 1.0) for lev in range(depth + 1)])
    else:
        raise ValueError(f"unknown sequence kind {kind!r}")
    normalized, _ = seq.normalized()
    return normalized


def gen_test_function(kind: str, depth: int, seed: int = 0,
                      weight: DyadicWeight | None = None) -> StepFunction:
    """Deterministic test functions f with exactly computable int f^2 w."""
    n = 2 ** depth
    if kind == "constant":
        return StepFunction(depth, np.ones(n))
    if kind == "haar":
        # one Haar oscillation on the left half of the root
        vals = np.zeros(n)
        vals[: n // 4] = 1.0
        vals[n // 4 : n // 2] = -1.0
        return StepFunction(depth, vals)
    if kind == "random-bounded":
        rng = np.random.default_rng(seed)
        return StepFunction(depth, rng.uniform(-1.0, 1.0, n))
    if kind == "w-normalized":
        if weight is None:
            raise ValueError("w-normalized functions need the weight")
        rng = np.random.default_rng(seed)
        f = StepFunction(depth, rng.uniform(-1.0, 1.0, n))
        norm2 = f.squared().product(weight).integral(ROOT)
        if norm2 <= 0:
            return f
        return StepFunction(depth, f.values / np.sqrt(norm2))
    raise ValueError(f"unknown function kind {kind!r}")


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def estimate_ainfty(w: DyadicWeight) -> float:
    """sup_I <w>_I exp(-<log w>_I) over the tree; +inf when w has zeros."""
    if np.any(w.values == 0):
        return float("inf")
    logw = StepFunction(w.depth, np.log(w.values))
    worst = 0.0
    for lev in range(w.depth + 1):
        avg = w.level_averages(lev)
        lavg = logw.level_averages(lev)
        worst = max(worst, float(np.max(avg * np.exp(-lavg))))
    return worst


def check_rhi(w: DyadicWeight, j: DyadicInterval = ROOT) -> float:
    """Reverse-Holder constant sup_{I in J} <w>_I / <sqrt(w)>_I^2 (>= 1),
    one pass over the heap averages of the nodes under J."""
    w = w.restrict(j)
    avg = w.heap_averages()
    ravg = DyadicWeight(w.depth, np.sqrt(w.values), allow_zero=True).heap_averages()
    pos = ravg > 0
    return float(np.max(avg[pos] / ravg[pos] ** 2, initial=1.0))


# ---------------------------------------------------------------------------
# the default corpus
# ---------------------------------------------------------------------------

AINFTY_KINDS = ("constant", "power-like", "random-martingale")


def default_corpus_specs() -> list[CorpusSpec]:
    """The 50-weight verification corpus (mixed classes, depths 6..12)."""
    specs: list[CorpusSpec] = []
    for depth in (6, 12):
        for c in (1.0, 0.5):
            specs.append(CorpusSpec("constant", depth, (c,)))
    for delta in (0.05, 0.1, 0.3):
        for depth in (6, 8, 10, 12):
            for seed in (1, 2):
                specs.append(CorpusSpec("random-martingale", depth, (delta,), seed))
    for depth in (6, 8, 10, 12):
        specs.append(CorpusSpec("random-martingale", depth, (0.1,), 3))
    for depth in range(6, 13):
        specs.append(CorpusSpec("spike", depth))
    for eps in (0.25, 0.5):
        for depth in (6, 8, 10, 12):
            specs.append(CorpusSpec("lacunary", depth, (eps,)))
    for depth in (10, 11, 12):
        specs.append(CorpusSpec("two-level-gap", depth, (1.0,)))
    # trim/verify the advertised size
    assert len(specs) == 50, len(specs)
    return specs


@dataclass(frozen=True)
class CorpusEntry:
    spec: CorpusSpec
    path: str
    sha256: str

    @property
    def is_ainfty(self) -> bool:
        return self.spec.kind in AINFTY_KINDS


def _hash_weight(w: DyadicWeight) -> str:
    return hashlib.sha256(w.to_json().encode()).hexdigest()


def write_corpus(out_dir: str | Path,
                 specs: list[CorpusSpec] | None = None) -> Path:
    """Generate weights, write one JSON file each plus a manifest; returns
    the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    specs = default_corpus_specs() if specs is None else specs
    if not specs:
        raise ValueError("empty corpus spec list")
    entries = []
    for k, spec in enumerate(specs):
        w = gen_weight(spec)
        name = f"w{k:03d}_{spec.kind}_d{spec.depth}.json"
        w.save(out / name)
        entries.append({
            "kind": spec.kind,
            "depth": spec.depth,
            "params": list(spec.params),
            "seed": spec.seed,
            "file": name,
            "sha256": _hash_weight(w),
        })
    manifest = {"entries": entries, "manifest_sha256": _entries_sha256(entries)}
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=1) + "\n")
    return path


def _entries_sha256(entries) -> str:
    return hashlib.sha256(json.dumps(entries, sort_keys=True).encode()).hexdigest()


def _manifest_entries(path: Path) -> list:
    """The entries of a manifest, checked against its recorded hash: an
    entry edited after writing (its kind, depth or parameters) is refused."""
    manifest = json.loads(path.read_text())
    entries = manifest["entries"]
    if _entries_sha256(entries) != manifest["manifest_sha256"]:
        raise ValueError(f"manifest hash mismatch for {path}")
    return entries


def _load_entry(base: Path, e: dict) -> tuple[CorpusEntry, DyadicWeight]:
    w = DyadicWeight.load(base / e["file"])
    h = _hash_weight(w)
    if h != e["sha256"]:
        raise ValueError(f"corpus hash mismatch for {e['file']}")
    if e["depth"] != w.depth:
        raise ValueError(f"manifest depth {e['depth']} of {e['file']} is not "
                         f"its weight's depth {w.depth}")
    spec = CorpusSpec(e["kind"], e["depth"], tuple(e["params"]), e["seed"])
    return CorpusEntry(spec, e["file"], h), w


def load_corpus(manifest_path: str | Path) -> list[tuple[CorpusEntry, DyadicWeight]]:
    """Load a corpus, verifying the manifest hash and every content hash."""
    path = Path(manifest_path)
    return [_load_entry(path.parent, e) for e in _manifest_entries(path)]


def corpus_weights(specs: list[CorpusSpec] | None = None):
    """In-memory corpus: (entry, weight) pairs without touching disk."""
    specs = default_corpus_specs() if specs is None else specs
    out = []
    for spec in specs:
        w = gen_weight(spec)
        out.append((CorpusEntry(spec, "", _hash_weight(w)), w))
    return out
