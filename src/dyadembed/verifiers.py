"""Theorem verifiers: Bellman induction over the dyadic tree plus one
certificate per embedding statement.

Every bounded certificate runs over one walk (`_walk`): the nodes under a
root J, level by level with the index ascending, each with its distribution
function and its two children's.  Nodes on which the weight vanishes
identically are skipped; they carry no term and no inequality.  Each node
check supplies its own left-side term, the gains telescope, and the
verifier emits a Certificate with an explicit constant.  `d-embed` and
`embed` accumulate through `bellman_induction`; `embed2` and `fd-embed`
are one loop each over the same walk.

Certificate constants (derived, documented in the module docstrings of
`bellman`):

    differential embedding        sum |I| (D w)^2 / n_psi  <= 16 B'(1) w(J)
    embedding with a sequence     sum |I| a_I <w>^2/n_psi  <= 4 C w(J),  C = B'(1)
    f-differential embedding      <= (8/Psi(1) + 128 B'(1)) int f^2 w
    bump embedding (paraproduct)  <= 16 int f^2 w

The classical Buckley ratio is reported without a verdict: off the
Muckenhoupt class it grows without bound (spike family: exactly 4 depth),
which is the failure the bounded certificates above repair.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bellman import (
    BellmanKernel,
    PDE_FINAL_FACTOR,
    EMBED_STEP_FACTOR,
    PARAPRODUCT_CONSTANT,
    check_embed_step,
    check_paraproduct_step,
    check_pde_step,
)
from .carleson import (
    CarlesonSequence,
    carleson_norm,
    weighted_haar_decompose,
)
from .config import DEFAULT_TOL, Tolerances
from .distribution import DistributionFunction
from .intervals import ROOT, DyadicInterval
from .orlicz import PsiFunction
from .weights import DyadicWeight, StepFunction


@dataclass(frozen=True)
class Certificate:
    theorem: str
    root: tuple[int, int]
    lhs: float
    rhs_base: float
    constant: float
    passed: bool
    ratio: float
    node_count: int = 0
    failures: tuple = ()
    breakdown: dict = field(default_factory=dict)
    per_node: tuple = ()

    def to_dict(self) -> dict:
        """Plain-JSON form; a non-finite float (the report-only constants,
        the fd-embed fields when d-embed fails) is written as null."""
        return _strict_json({
            "theorem": self.theorem,
            "root": self.root,
            "lhs": self.lhs,
            "rhs_base": self.rhs_base,
            "constant": self.constant,
            "ratio": self.ratio,
            "verdict": "pass" if self.passed else "fail",
            "node_count": self.node_count,
            "failures": self.failures,
            "breakdown": self.breakdown,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _strict_json(x):
    """x with every non-finite float replaced by None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _strict_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict_json(v) for v in x]
    return x


def _walk(w: DyadicWeight, j: DyadicInterval, phantom: bool = False):
    """Yield (node, d_I, children) for every node under j on which w is not
    identically zero, level by level with the index ascending.

    children is (d_minus, d_plus).  Finest-level nodes have no children and
    are yielded, with children None, only when phantom is set.  Only the
    current level's distributions and the next level's are held.
    """
    def level(lev: int):
        width = 2 ** (lev - j.level)
        cells = 2 ** (w.depth - lev)
        first = j.index * width
        return first, [DistributionFunction.from_values(w.values[k * cells:(k + 1) * cells])
                       for k in range(first, first + width)]

    first, current = level(j.level)
    for lev in range(j.level, w.depth):
        next_first, below = level(lev + 1)
        for k, d_i in enumerate(current):
            if not d_i.is_zero:
                yield DyadicInterval(lev, first + k), d_i, (below[2 * k], below[2 * k + 1])
        first, current = next_first, below
    if phantom:
        for k, d_i in enumerate(current):
            if not d_i.is_zero:
                yield DyadicInterval(w.depth, first + k), d_i, None


def bellman_induction(w: DyadicWeight, j: DyadicInterval, step_check,
                      constant: float, rhs_base: float, theorem: str,
                      breakdown: dict, phantom: bool = False,
                      keep_ledger: bool = False,
                      tol: Tolerances = DEFAULT_TOL) -> Certificate:
    """Telescope per-node gains over the walk under j.

    step_check(node, d_I, children) -> (StepGain, term).  The telescoping
    identity sum |I| gain_I = +-(leaf potential - root potential) is
    bookkeeping; the certificate asserts

        lhs := sum |I| * term_I  <=  constant * rhs_base

    where each verifier derives term_I from its own stage2.  Any failed node
    inequality fails the certificate with the node recorded.
    """
    lhs = 0.0
    gain_total = 0.0
    failures = []
    ledger = []
    count = 0
    for node, d_i, children in _walk(w, j, phantom):
        res, term = step_check(node, d_i, children)
        count += 1
        length = node.length
        lhs += length * term
        gain_total += length * res.gain
        if not res.passed:
            failures.append((node.level, node.index, res.gain, res.stage1, res.stage2))
        if keep_ledger:
            ledger.append((node.level, node.index, term, res.gain))
    bound = constant * rhs_base
    global_ok = lhs <= bound + tol.slack(bound, lhs)
    passed = global_ok and not failures
    return Certificate(theorem, (j.level, j.index), lhs, rhs_base, constant,
                       passed, lhs / rhs_base if rhs_base > 0 else 0.0,
                       node_count=count, failures=tuple(failures),
                       breakdown={**breakdown, "telescoped_gain": gain_total},
                       per_node=tuple(ledger))


# ---------------------------------------------------------------------------
# classical ratios (no verdict; they fail off the Muckenhoupt class)
# ---------------------------------------------------------------------------

def verify_buckley_classic(w: DyadicWeight, j: DyadicInterval = ROOT,
                           tol: Tolerances = DEFAULT_TOL) -> Certificate:
    """Classical ratio sum (Delta_I w)^2/<w>_I |I| over w(J); reported only."""
    lhs = 0.0
    count = 0
    for lev in range(j.level, w.depth):
        width = 2 ** (lev - j.level)
        a, b = j.index * width, (j.index + 1) * width
        parent = w.level_averages(lev)[a:b]
        child = w.level_averages(lev + 1)[2 * a : 2 * b]
        dw = child[1::2] - child[0::2]
        pos = parent > 0
        lhs += float(np.sum(dw[pos] ** 2 / parent[pos])) * 2.0 ** (-lev)
        count += int(np.sum(pos))
    base = w.mass(j)
    ratio = lhs / base if base > 0 else 0.0
    return Certificate("buckley-classic", (j.level, j.index), lhs, base,
                       float("nan"), True, ratio, node_count=count,
                       breakdown={"assertion": "none (report only)"})


def verify_folk(w: DyadicWeight, seq: CarlesonSequence,
                j: DyadicInterval = ROOT, assert_rhi_bound: bool = False,
                tol: Tolerances = DEFAULT_TOL) -> Certificate:
    """Ratio sum <w>_I alpha_I |I| / w(J) for a normalized sequence.

    With assert_rhi_bound the certificate additionally checks the bound
    4 * C_rhi obtained by writing <w>_I <= C_rhi <sqrt(w)>_I^2 and applying
    the unweighted Carleson embedding to sqrt(w); off the Muckenhoupt class
    C_rhi is unbounded and the check is informational.
    """
    from .corpus import check_rhi  # local import, corpus builds on this module

    seqn, norm = seq.normalized() if carleson_norm(seq) > 1 + 1e-12 else (seq, 1.0)
    lhs = 0.0
    count = 0
    for lev in range(j.level, w.depth + 1):
        width = 2 ** (lev - j.level)
        a, b = j.index * width, (j.index + 1) * width
        avg = w.level_averages(lev)[a:b]
        lhs += float(np.dot(avg, seqn.levels[lev][a:b])) * 2.0 ** (-lev)
        count += avg.size
    base = w.mass(j)
    ratio = lhs / base if base > 0 else 0.0
    breakdown = {"normalization": norm}
    passed = True
    constant = float("nan")
    if assert_rhi_bound:
        c_rhi = check_rhi(w, j)
        constant = 4.0 * c_rhi
        passed = lhs <= constant * base + tol.slack(constant * base)
        breakdown["c_rhi"] = c_rhi
    return Certificate("folk", (j.level, j.index), lhs, base, constant,
                       passed, ratio, node_count=count, breakdown=breakdown)


# ---------------------------------------------------------------------------
# the bounded certificates
# ---------------------------------------------------------------------------

def verify_d_embed(w: DyadicWeight, psi: PsiFunction, j: DyadicInterval = ROOT,
                   keep_ledger: bool = False,
                   tol: Tolerances = DEFAULT_TOL) -> Certificate:
    """Differential embedding: sum |I| (Delta_I w)^2 / n_psi(N_I) <= 16 B'(1) w(J).

    Per node the full two-stage chain of check_pde_step is asserted; the
    telescoped potential is bounded by B(1) <= B'(1) at the leaves.
    """
    kernel = BellmanKernel(psi)

    def step(node: DyadicInterval, d_i, children):
        res = check_pde_step(w, node, psi, kernel, (d_i, *children), tol)
        # certificate lhs counts (Delta_I w)^2 / n_psi = stage2 / final factor
        return res, res.stage2 / PDE_FINAL_FACTOR

    return bellman_induction(w, j, step, constant=16.0 * kernel.C,
                             rhs_base=w.mass(j), theorem="d-embed",
                             breakdown={"leaf_bound": kernel.C},
                             keep_ledger=keep_ledger, tol=tol)


def verify_embed(w: DyadicWeight, seq: CarlesonSequence, psi: PsiFunction,
                 j: DyadicInterval = ROOT, keep_ledger: bool = False,
                 tol: Tolerances = DEFAULT_TOL) -> Certificate:
    """Embedding with a Carleson sequence:

    sum_{I in J} |I| alpha_I <w>_I^2 / n_psi(N_I) <= 4 C w(J),
    C = int_0^1 ds/phi, the sum running over every level including the
    finest one.  Finest-level terms telescope through a phantom generation
    of identical children (the concavity gain there is a pure shift in the
    accumulator variable), so the constant is unchanged.  The sequence is
    normalized to Carleson norm 1 if needed (recorded).
    """
    kernel = BellmanKernel(psi)
    norm = carleson_norm(seq)
    normalization = 1.0
    if norm > 1.0 + 1e-12:
        seq, normalization = seq.normalized()
    acc = seq.accumulators

    def step(node: DyadicInterval, d_i, children):
        lev, idx = node.level, node.index
        alpha_i = float(seq.levels[lev][idx])
        a_par = float(acc[lev][idx])
        if children is None:
            # phantom generation below the finest level: identical
            # children carrying the remaining accumulator mass (zero)
            children = (d_i, d_i)
            a_m = a_p = a_par - alpha_i
        else:
            a_m = float(acc[lev + 1][2 * idx])
            a_p = float(acc[lev + 1][2 * idx + 1])
        res = check_embed_step(w, node, psi, alpha_i, a_par, a_m, a_p,
                               kernel, (d_i, *children), tol)
        # lhs term a_I <w>_I^2 / n_psi = stage2 / step factor
        return res, res.stage2 / EMBED_STEP_FACTOR

    return bellman_induction(w, j, step, constant=4.0 * kernel.C,
                             rhs_base=w.mass(j), theorem="embed",
                             breakdown={"normalization": normalization,
                                        "leaf_bound": kernel.C},
                             phantom=True, keep_ledger=keep_ledger, tol=tol)


def verify_embed2(w: DyadicWeight, f: StepFunction, seq: CarlesonSequence,
                  psi: PsiFunction, j: DyadicInterval = ROOT,
                  spot_check_derivative: bool = False,
                  tol: Tolerances = DEFAULT_TOL) -> Certificate:
    """Bump embedding (paraproduct boundedness):

    sum |I| a_I <fw>_I^2 / n_psi(N_I^w) <= 16 int_J f^2 w

    via Bellman induction on B~(f, N, M) = (f)^2 / u(N, M) with the
    Carleson accumulators as the M variable.  Each node asserts the
    paraproduct step inequality with constant 1/16; leaves are bounded by
    Cauchy-Schwarz <fw>^2/<w> <= <f^2 w>.  The lhs term of a node is its
    step's right side over the constant, so f == 1 reproduces verify_embed's
    lhs bit for bit.
    """
    kernel = BellmanKernel(psi)
    norm = carleson_norm(seq)
    normalization = 1.0
    if norm > 1.0 + 1e-12:
        seq, normalization = seq.normalized()
    fw = f.product(w)
    f2w = f.squared().product(w)
    acc = seq.accumulators

    lhs = 0.0
    failures = []
    count = 0
    for node, d_i, children in _walk(w, j, phantom=True):
        lev, idx = node.level, node.index
        count += 1
        a_i = float(seq.levels[lev][idx])
        m_i = float(acc[lev][idx])
        f_i = fw.average(node)
        if children is None:
            # phantom generation: the finest-level sequence mass enters
            # as a pure shift of the accumulator variable
            kids_f = [f_i]
            kids_d = [d_i]
            kids_m = [m_i - a_i]
            alphas = [1.0]
        else:
            kids_f = [fw.average(node.minus), fw.average(node.plus)]
            kids_d = list(children)
            kids_m = [float(acc[lev + 1][2 * idx]), float(acc[lev + 1][2 * idx + 1])]
            alphas = [0.5, 0.5]
        rep = check_paraproduct_step(
            psi, f_i, d_i, m_i, kids_f, kids_d, kids_m, alphas, a_i,
            kernel, spot_check_derivative, tol)
        lhs += node.length * (rep.rhs / PARAPRODUCT_CONSTANT)
        if not rep.passed:
            failures.append((lev, idx, rep.lhs, rep.rhs))
    base = f2w.integral(j)
    constant = 1.0 / PARAPRODUCT_CONSTANT
    bound = constant * base
    passed = (lhs <= bound + tol.slack(bound, lhs)) and not failures
    return Certificate("embed2", (j.level, j.index), lhs, base, constant,
                       passed, lhs / base if base > 0 else 0.0,
                       node_count=count, failures=tuple(failures),
                       breakdown={"normalization": normalization,
                                  "leaf_bound": "cauchy-schwarz"})


def verify_fd_embed(w: DyadicWeight, f: StepFunction, psi: PsiFunction,
                    j: DyadicInterval = ROOT,
                    tol: Tolerances = DEFAULT_TOL,
                    d_cert: Certificate | None = None) -> Certificate:
    """f-differential embedding:

    sum |I| (Delta_I(fw))^2 / n_psi(N_I) <= C_fd int_J f^2 w,
    C_fd = 8/Psi(1) + 128 B'(1).

    The left side splits through the weighted Haar decomposition into a
    Haar sum (bounded via |alpha_I| <= sqrt<w>_I, n_psi >= Psi(1) <w>, and
    the Parseval inequality), a drift sum (bounded by the differential
    embedding certificate feeding the weighted Carleson embedding, factor
    4 * 16 B'(1)), and their cross sum (Cauchy-Schwarz).  The report
    itemizes all three plus the budgets actually attained.
    """
    kernel = BellmanKernel(psi)
    psi_min = psi.min_psi
    fw = f.product(w)
    f2w = f.squared().product(w)
    # upfront: the drift sequence beta_I = (Delta_I w)^2 / n_psi must be
    # w-Carleson with the differential embedding constant at every prefix
    # (pass a precomputed certificate when sweeping many f over one w)
    if d_cert is None:
        d_cert = verify_d_embed(w, psi, j, tol=tol)
    if not d_cert.passed:
        return Certificate("fd-embed", (j.level, j.index), float("nan"),
                           float("nan"), float("nan"), False, float("nan"),
                           breakdown={"reason": "differential embedding failed"})

    lhs = 0.0
    s_haar = 0.0
    s_drift = 0.0
    s_cross = 0.0
    parseval = 0.0
    failures = []
    count = 0
    max_alpha_excess = -float("inf")
    for node, d_i, _ in _walk(w, j):
        count += 1
        split = weighted_haar_decompose(w, f, node, tol, fw=fw)
        n_val = kernel.n_of(d_i)
        full = 2.0 * split.half_difference          # Delta_I(fw)
        haar = 2.0 * split.haar_term
        drift = 2.0 * split.drift_term
        err = abs(full - (haar + drift))
        if err > tol.identity * max(1.0, abs(full)) * 10:
            failures.append((node.level, node.index, "identity", err))
        if split.alpha > np.sqrt(w.average(node)) * (1 + 1e-12):
            failures.append((node.level, node.index, "alpha-bound", split.alpha))
        max_alpha_excess = max(max_alpha_excess,
                               split.alpha - float(np.sqrt(w.average(node))))
        length = node.length
        lhs += length * full * full / n_val
        s_haar += length * haar * haar / n_val
        s_drift += length * drift * drift / n_val
        s_cross += 2.0 * length * haar * drift / n_val
        if not split.degenerate:
            parseval += split.inner_product ** 2

    base = f2w.integral(j)
    constant = 8.0 / psi_min + 128.0 * kernel.C
    bound = constant * base
    # component budgets from the assembly
    haar_budget = (4.0 / psi_min) * base
    drift_budget = 4.0 * (16.0 * kernel.C) * base
    if s_haar > haar_budget + tol.slack(haar_budget):
        failures.append((j.level, j.index, "haar-sum budget", s_haar))
    if s_drift > drift_budget + tol.slack(drift_budget):
        failures.append((j.level, j.index, "drift-sum budget", s_drift))
    if parseval > base + tol.slack(base):
        failures.append((j.level, j.index, "parseval", parseval))
    passed = (lhs <= bound + tol.slack(bound, lhs)) and not failures
    return Certificate("fd-embed", (j.level, j.index), lhs, base, constant,
                       passed, lhs / base if base > 0 else 0.0,
                       node_count=count, failures=tuple(failures),
                       breakdown={
                           "haar_sum": s_haar,
                           "drift_sum": s_drift,
                           "cross_sum": s_cross,
                           "haar_budget": haar_budget,
                           "drift_budget": drift_budget,
                           "parseval_sum": parseval,
                           "parseval_budget": base,
                           "max_alpha_excess": max_alpha_excess,
                           "d_embed_ratio": d_cert.ratio,
                       })


# ---------------------------------------------------------------------------
# the failure demonstration
# ---------------------------------------------------------------------------

def spike_weight(depth: int) -> DyadicWeight:
    """Unit-mass spike: 2^depth on the leftmost cell, zero elsewhere."""
    values = np.zeros(2 ** depth)
    values[0] = 2.0 ** depth
    return DyadicWeight(depth, values)


def spike_d_embed_closed_form(depth: int, psi: PsiFunction) -> float:
    """Exact spike-certificate left side: sum_{j=1}^depth 4 / Psi(2^-j)."""
    js = np.arange(1, depth + 1, dtype=np.float64)
    return float(np.sum(4.0 / psi.psi(2.0 ** -js)))


@dataclass(frozen=True)
class FailureDemo:
    depths: tuple[int, ...]
    classical_ratios: tuple[float, ...]
    d_embed_ratios: tuple[float, ...]
    classical_growth: float
    d_embed_change: float
    passed: bool


def failure_demo(depth_lo: int = 6, depth_hi: int = 12,
                 psi: PsiFunction | None = None,
                 tol: Tolerances = DEFAULT_TOL) -> FailureDemo:
    """Spike-family contrast between the classical and bounded ratios.

    Classical Buckley ratio is exactly 4*depth (each spine node contributes
    4); the bounded certificate's ratio is a partial sum of a convergent
    series, so it stabilizes: growth factor >= 1.8 for the classical ratio
    from depth_lo to depth_hi versus a change <= 16% for the new one
    (7.3% between depths 8 and 12 for the clamped alpha = 2 family).
    """
    from .orlicz import psi_closed_form

    if depth_lo < 6:
        raise ValueError("depth_lo must be >= 6")
    if depth_hi < depth_lo:
        raise ValueError(f"depth_hi = {depth_hi} is below depth_lo = {depth_lo}")
    psi = psi or psi_closed_form(2.0)
    depths = tuple(range(depth_lo, depth_hi + 1))
    classical = []
    bounded = []
    for d in depths:
        w = spike_weight(d)
        classical.append(verify_buckley_classic(w).ratio)
        cert = verify_d_embed(w, psi)
        if not cert.passed:
            raise AssertionError(f"differential certificate failed at depth {d}")
        closed = spike_d_embed_closed_form(d, psi)
        if abs(cert.lhs - closed) > tol.slack(closed):
            raise AssertionError(
                f"spike closed form mismatch at depth {d}: {cert.lhs} vs {closed}")
        bounded.append(cert.ratio)
    growth = classical[-1] / classical[0]
    change = abs(bounded[-1] - bounded[0]) / bounded[0]
    passed = growth >= 1.8 and change <= 0.16
    return FailureDemo(depths, tuple(classical), tuple(bounded),
                       growth, change, passed)
