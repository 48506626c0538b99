"""Carleson sequences and the two classical embedding lemmas.

A Carleson sequence assigns alpha_I >= 0 to every dyadic interval down to a
depth; its Carleson norm is the best C in

    sum_{I subset J} alpha_I |I| <= C |J|   for all dyadic J,

computable by one bottom-up pass.  The module also houses the weighted Haar
decomposition used by the differential embedding verifier.

Haar convention.  All decompositions here use martingale (half) differences
D_I g := (<g>_{I+} - <g>_{I-}) / 2, under which the weighted split

    D_I(fw) = alpha_I (f, h_I^w)_{L2(w)} / sqrt|I| + (<fw>_I/<w>_I) D_I w

holds with the w-normalized Haar function h_I^w and |alpha_I| <= sqrt<w>_I
(equality iff the child averages agree).  With full differences the same
bound would fail by a factor 2 at equal children.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .intervals import ROOT, DyadicInterval
from .weights import DyadicWeight, StepFunction


class CarlesonSequence:
    """Nonnegative alpha_I on all intervals of levels 0..depth."""

    def __init__(self, depth: int, levels) -> None:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if len(levels) != depth + 1:
            raise ValueError(f"need {depth + 1} level arrays")
        arrs = []
        for lev, a in enumerate(levels):
            a = np.array(a, dtype=np.float64)
            if a.shape != (2 ** lev,):
                raise ValueError(f"level {lev} must have {2 ** lev} entries")
            if np.any(a < 0):
                raise ValueError("alpha values must be >= 0")
            a.flags.writeable = False
            arrs.append(a)
        self.depth = depth
        self.levels = tuple(arrs)

    @classmethod
    def zeros(cls, depth: int) -> "CarlesonSequence":
        return cls(depth, [np.zeros(2 ** lev) for lev in range(depth + 1)])

    @classmethod
    def from_entries(cls, depth: int, entries) -> "CarlesonSequence":
        """entries: iterable of (level, index, value); omitted entries are 0."""
        levels = [np.zeros(2 ** lev) for lev in range(depth + 1)]
        for lev, idx, val in entries:
            levels[int(lev)][int(idx)] = val
        return cls(depth, levels)

    def alpha(self, i: DyadicInterval) -> float:
        if i.level > self.depth:
            return 0.0
        return float(self.levels[i.level][i.index])

    @cached_property
    def prefix_sums(self) -> tuple[np.ndarray, ...]:
        """S[l][i] = sum over I' inside (l, i) of alpha_{I'} |I'|."""
        sums = [self.levels[self.depth] * 2.0 ** (-self.depth)]
        for lev in range(self.depth - 1, -1, -1):
            below = sums[-1]
            sums.append(self.levels[lev] * 2.0 ** (-lev) + below[0::2] + below[1::2])
        return tuple(reversed(sums))

    @cached_property
    def accumulators(self) -> tuple[np.ndarray, ...]:
        """A_I = |I|^-1 sum_{I' subset I} alpha_{I'} |I'| per level."""
        return tuple(s * 2.0 ** lev for lev, s in enumerate(self.prefix_sums))

    def restrict(self, j: DyadicInterval) -> "CarlesonSequence":
        """alpha on the intervals inside j, rescaled to [0, 1): self at the
        root.  Every accumulator keeps its bits."""
        if j == ROOT:
            return self
        return CarlesonSequence(self.depth - j.level,
                                [self.levels[lev][slice(*j.cell_range(lev))]
                                 for lev in range(j.level, self.depth + 1)])

    def scaled(self, c: float) -> "CarlesonSequence":
        return CarlesonSequence(self.depth, [a * c for a in self.levels])

    def normalized(self) -> tuple["CarlesonSequence", float]:
        """Scale to Carleson norm exactly the computed norm's reciprocal."""
        norm = carleson_norm(self)
        if norm == 0:
            raise ValueError("cannot normalize the zero sequence")
        return self.scaled(1.0 / norm), norm

    @cached_property
    def norm_capped(self) -> tuple["CarlesonSequence", float]:
        """(sequence, factor) that a certificate reads: normalized() if the
        Carleson norm exceeds 1, else (self, 1.0)."""
        if carleson_norm(self) > 1.0 + 1e-12:
            return self.normalized()
        return self, 1.0


def carleson_norm(seq: CarlesonSequence) -> float:
    """Best C in the Carleson condition; max of the per-node accumulators."""
    return max(float(a.max()) for a in seq.accumulators)


def carleson_norm_bruteforce(seq: CarlesonSequence) -> float:
    """Direct max over all J of |J|^-1 sum_{I subset J} alpha_I |I| (test oracle)."""
    best = 0.0
    for jl in range(seq.depth + 1):
        for ji in range(2 ** jl):
            total = 0.0
            for il in range(jl, seq.depth + 1):
                w = 2 ** (il - jl)
                total += float(np.sum(seq.levels[il][ji * w : (ji + 1) * w])) * 2.0 ** (-il)
            best = max(best, total * 2.0 ** jl)
    return best


def w_carleson_constant(seq: CarlesonSequence, w: DyadicWeight) -> float:
    """Best C0 in sum_{I' subset I} beta_{I'} |I'| <= C0 w(I), zero w skipped."""
    if seq.depth != w.depth:
        raise ValueError("depth mismatch")
    best = 0.0
    for lev in range(seq.depth + 1):
        masses = w.level_integrals(lev)
        pref = seq.prefix_sums[lev]
        pos = masses > 0
        if np.any(pos):
            best = max(best, float(np.max(pref[pos] / masses[pos])))
        if np.any(~pos & (pref > 0)):
            return float("inf")
    return best


@dataclass(frozen=True)
class CheckReport:
    name: str
    lhs: float
    rhs: float
    passed: bool
    ratio: float = float("nan")
    flags: tuple[str, ...] = ()
    detail: dict = field(default_factory=dict)


def carleson_embedding_check(
    seq: CarlesonSequence,
    f: StepFunction,
    j: DyadicInterval,
    c0: float | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> CheckReport:
    """Classical Carleson embedding: sum <f>_I^2 alpha_I |I| <= 4 C0 int_J f^2."""
    if seq.depth != f.depth:
        raise ValueError("depth mismatch")
    if c0 is None:
        c0 = carleson_norm(seq)
    lhs = 0.0
    for lev in range(j.level, seq.depth + 1):
        a, b = j.cell_range(lev)
        avg = f.level_averages(lev)[a:b]
        lhs += float(np.dot(avg * avg, seq.levels[lev][a:b])) * 2.0 ** (-lev)
    rhs = 4.0 * c0 * f.squared().integral(j)
    passed = lhs <= rhs + tol.slack(rhs)
    return CheckReport("carleson-embedding", lhs, rhs, passed,
                       ratio=lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else float("inf")))


def weighted_carleson_embedding_check(
    w: DyadicWeight,
    beta: CarlesonSequence,
    f: StepFunction,
    j: DyadicInterval,
    c0: float | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> CheckReport:
    """Weighted Carleson embedding.

    Requires the w-Carleson condition sum_{I' subset I} beta_{I'}|I'| <= C0 w(I);
    then sum (<fw>_I/<w>_I)^2 beta_I |I| <= 4 C0 int_J f^2 w.  Intervals where
    w vanishes identically are skipped.
    """
    if not (w.depth == beta.depth == f.depth):
        raise ValueError("depth mismatch")
    measured = w_carleson_constant(beta, w)
    if c0 is None:
        c0 = measured
    if measured > c0 * (1.0 + 1e-12):
        return CheckReport("weighted-carleson-embedding", float("nan"), float("nan"),
                           False, flags=("w-carleson precondition failed",),
                           detail={"measured_c0": measured, "claimed_c0": c0})
    fw = f.product(w)
    lhs = 0.0
    for lev in range(j.level, w.depth + 1):
        a, b = j.cell_range(lev)
        wa = w.level_averages(lev)[a:b]
        fa = fw.level_averages(lev)[a:b]
        bl = beta.levels[lev][a:b]
        pos = wa > 0
        if np.any(pos):
            r = fa[pos] / wa[pos]
            lhs += float(np.dot(r * r, bl[pos])) * 2.0 ** (-lev)
    rhs = 4.0 * c0 * f.squared().product(w).integral(j)
    passed = lhs <= rhs + tol.slack(rhs)
    return CheckReport("weighted-carleson-embedding", lhs, rhs, passed,
                       ratio=lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else float("inf")),
                       detail={"measured_c0": measured})


@dataclass(frozen=True)
class HaarSplit:
    """Martingale-difference split of fw at one interval.

    half_difference = alpha * (f, h^w)_w / sqrt|I| + drift_term, where
    half_difference = D_I(fw) and drift_term = (<fw>_I / <w>_I) D_I(w).
    """
    alpha: float
    haar_term: float
    drift_term: float
    inner_product: float      # (f, h_I^w)_{L2(w)}
    half_difference: float    # D_I(fw)
    degenerate: bool          # a child carries no w-mass; haar part absent
    identity_error: float


def weighted_haar_decompose(
    w: DyadicWeight,
    f: StepFunction,
    i: DyadicInterval,
    tol: Tolerances = DEFAULT_TOL,
    fw: StepFunction | None = None,
) -> HaarSplit:
    """Split D_I(fw) into the w-Haar part and the drift part.

    h_I^w is supported on I, constant on each child, orthogonal to constants
    in L2(w) and unit-normalized there.  alpha depends only on w:
    alpha^2 = 2pq/(p+q) with p, q the child averages of w, so
    |alpha| <= sqrt<w>_I always.  Pass a precomputed fw when decomposing at
    many nodes of one pair.
    """
    if w.depth != f.depth:
        raise ValueError("depth mismatch")
    if w.is_zero_on(i):
        raise ValueError("w vanishes identically on the interval")
    if fw is None:
        fw = f.product(w)
    p = w.average(i.plus)
    q = w.average(i.minus)
    x = fw.average(i.plus)
    y = fw.average(i.minus)
    half_diff = 0.5 * (x - y)
    rho = fw.average(i) / w.average(i)
    drift = rho * 0.5 * (p - q)
    if p == 0.0 or q == 0.0:
        # no two-sided mass: the w-Haar function degenerates; all of the
        # jump is drift (exact: rho = x/p or y/q in this case)
        return HaarSplit(0.0, 0.0, drift, 0.0, half_diff, True,
                         abs(half_diff - drift))
    length = i.length
    mass_p = p * length / 2.0
    mass_q = q * length / 2.0
    kappa = np.sqrt(mass_p * mass_q / (mass_p + mass_q))
    inner = kappa * (x / p - y / q)
    alpha = np.sqrt(2.0 * p * q / (p + q))
    haar_term = alpha * inner / np.sqrt(length)
    err = abs(half_diff - (haar_term + drift))
    scale = max(1.0, abs(half_diff))
    if err > tol.identity * scale * 10:
        raise AssertionError(f"haar split identity failed: error {err}")
    if alpha > np.sqrt(w.average(i)) * (1.0 + 1e-12):
        raise AssertionError("haar coefficient bound violated")
    return HaarSplit(float(alpha), float(haar_term), float(drift),
                     float(inner), float(half_diff), False, float(err))
