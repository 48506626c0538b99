"""Exact distribution functions of dyadic step weights.

For a weight w on an interval I the normalized distribution function is

    N(t) = |I|^-1 * |{x in I : w(x) > t}|,

a right-continuous, nonincreasing step function.  With cell values
v_1 < ... < v_M (the distinct positive values), N is constant on each piece
[p_{j-1}, p_j) (p_0 = 0) and zero beyond p_M.  Survival fractions are exact:
integer cell counts divided by a power of two.

Every t-integral of a composition g(N(t)) is the finite sum
sum_j (p_j - p_{j-1}) * g(N_j); no quadrature enters in the t variable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DistributionFunction:
    thresholds: np.ndarray        # ascending positive piece endpoints p_1..p_M
    survival: np.ndarray          # N value on [p_{j-1}, p_j)
    strict: bool = True           # survival strictly decreasing (true for real weights)

    def __post_init__(self) -> None:
        t = np.asarray(self.thresholds, dtype=np.float64)
        s = np.asarray(self.survival, dtype=np.float64)
        if t.shape != s.shape:
            raise ValueError("thresholds and survival must have equal length")
        if t.size:
            if np.any(t <= 0) or np.any(np.diff(t) <= 0):
                raise ValueError("thresholds must be positive and strictly increasing")
            if np.any(s <= 0) or np.any(s > 1.0):
                raise ValueError("survival values must lie in (0, 1]")
            d = np.diff(s)
            if self.strict and np.any(d >= 0):
                raise ValueError("survival must be strictly decreasing")
            if not self.strict and np.any(d > 0):
                raise ValueError("survival must be nonincreasing")
        t.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "thresholds", t)
        object.__setattr__(self, "survival", s)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_values(cls, values: np.ndarray) -> "DistributionFunction":
        vals = np.asarray(values, dtype=np.float64)
        n = vals.size
        pos = np.unique(vals[vals > 0])
        if pos.size == 0:
            return cls.zero()
        svals = np.sort(vals)
        count_ge = n - np.searchsorted(svals, pos, side="left")
        return cls(pos, count_ge / n)

    @classmethod
    def zero(cls) -> "DistributionFunction":
        return cls(np.empty(0), np.empty(0))

    # -- basic queries ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.thresholds.size == 0

    @property
    def piece_lengths(self) -> np.ndarray:
        """Lengths p_j - p_{j-1} of the pieces carrying survival[j]."""
        if self.is_zero:
            return np.empty(0)
        return np.diff(np.concatenate([[0.0], self.thresholds]))

    def value_at(self, t) -> np.ndarray:
        """N(t), vectorized, right-continuous."""
        t = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.thresholds, t, side="right")
        ext = np.concatenate([self.survival, [0.0]]) if self.survival.size else np.array([0.0])
        return ext[np.minimum(idx, ext.size - 1)]

    # -- integrals ---------------------------------------------------------------

    def layer_cake(self) -> float:
        """Integral of N over [0, inf) = average of the weight over I."""
        if self.is_zero:
            return 0.0
        return float(np.dot(self.piece_lengths, self.survival))

    def step_integral(self, g) -> float:
        """Integral of g(N(t)) dt for vectorized g with g(0) = 0."""
        if self.is_zero:
            return 0.0
        return float(np.dot(self.piece_lengths, g(self.survival)))

    def scaled_argument(self, c: float) -> "DistributionFunction":
        """Distribution of c*w: N_{cw}(t) = N_w(t/c)."""
        if c <= 0:
            raise ValueError("scale must be positive")
        if self.is_zero:
            return self
        return DistributionFunction(self.thresholds * c, self.survival, strict=self.strict)


def merged_pieces(d1: DistributionFunction, d2: DistributionFunction):
    """Common refinement of two step distributions.

    Returns (lengths, n1, n2): piece lengths of the union threshold grid
    covering [0, max threshold), and both survival values on each piece.
    """
    ts = np.union1d(d1.thresholds, d2.thresholds)
    if ts.size == 0:
        return np.empty(0), np.empty(0), np.empty(0)
    left = np.concatenate([[0.0], ts[:-1]])
    lengths = np.diff(np.concatenate([[0.0], ts]))
    return lengths, d1.value_at(left), d2.value_at(left)


def mix(dists: list[DistributionFunction], alphas: np.ndarray) -> DistributionFunction:
    """Pointwise convex combination sum_k alpha_k N_k as a step distribution."""
    alphas = np.asarray(alphas, dtype=np.float64)
    if len(dists) != alphas.size:
        raise ValueError("length mismatch")
    ts = np.empty(0)
    for d in dists:
        ts = np.union1d(ts, d.thresholds)
    if ts.size == 0:
        return DistributionFunction.zero()
    left = np.concatenate([[0.0], ts[:-1]])
    sv = np.zeros_like(ts)
    for a, d in zip(alphas, dists):
        sv = sv + a * d.value_at(left)
    keep = sv > 0
    return DistributionFunction(ts[keep], sv[keep], strict=False)
