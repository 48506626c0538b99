"""Step functions and weights on the dyadic grid of [0, 1).

A StepFunction at depth d is constant on each of the 2^d finest dyadic
cells.  All interval sums are taken with a balanced pairwise (halving)
reduction, which makes the martingale identity

    <g>_I = (<g>_{I-} + <g>_{I+}) / 2

hold bit-for-bit in floating point (dividing by a power of two is exact),
and makes every reduction independent of worker count.
"""

from __future__ import annotations

import json
from functools import cached_property
from pathlib import Path

import numpy as np

from .distribution import DistributionFunction
from .intervals import ROOT, DyadicInterval


def finite(values: np.ndarray) -> np.ndarray:
    """values, if every one is finite; ValueError otherwise."""
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    return values


def level_sums(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The pairwise sums of the 2^d cell values over every dyadic interval,
    level by level, root first: sums[l][i] is the sum over (l, i), its two
    halves' sums added."""
    sums = [values]
    while sums[-1].size > 1:
        sums.append(sums[-1][0::2] + sums[-1][1::2])
    return tuple(reversed(sums))


def heap_averages(sums: tuple[np.ndarray, ...]) -> np.ndarray:
    """The averages of every interval in heap order, level-major with the
    index ascending ((l, i) at 2^l - 1 + i), from its level_sums."""
    depth = len(sums) - 1
    levels = np.arange(depth + 1)
    divisors = np.repeat(np.ldexp(1.0, depth - levels), 2 ** levels)
    return np.concatenate(sums) / divisors


class StepFunction:
    """Real-valued dyadic step function (signed values allowed)."""

    def __init__(self, depth: int, values) -> None:
        if depth < 0:
            raise ValueError("depth must be >= 0")
        vals = np.array(values, dtype=np.float64)
        if vals.shape != (2 ** depth,):
            raise ValueError(f"expected {2 ** depth} values, got shape {vals.shape}")
        finite(vals)
        vals.flags.writeable = False
        self.depth = depth
        self.values = vals

    # -- cached per-level reductions -------------------------------------

    @cached_property
    def _level_sums(self) -> tuple[np.ndarray, ...]:
        """_level_sums[l][i] = pairwise sum of cell values inside (l, i)."""
        return level_sums(self.values)

    # -- interval queries --------------------------------------------------

    def _check(self, i: DyadicInterval, strict: bool = False) -> None:
        if i.level > self.depth - (1 if strict else 0):
            kind = "children below depth" if strict else "level deeper than depth"
            raise ValueError(f"{kind}: interval level {i.level}, depth {self.depth}")

    def cell_sum(self, i: DyadicInterval) -> float:
        self._check(i)
        return float(self._level_sums[i.level][i.index])

    def average(self, i: DyadicInterval) -> float:
        """Mean value over i; exact pairwise reduction."""
        self._check(i)
        return self.cell_sum(i) / 2 ** (self.depth - i.level)

    def integral(self, i: DyadicInterval) -> float:
        """Integral over i (Lebesgue measure)."""
        return self.cell_sum(i) * 2.0 ** (-self.depth)

    def haar_difference(self, i: DyadicInterval) -> float:
        """<g>_{I+} - <g>_{I-}."""
        self._check(i, strict=True)
        return self.average(i.plus) - self.average(i.minus)

    def is_zero_on(self, i: DyadicInterval) -> bool:
        """Every cell of i is 0.0 or -0.0."""
        self._check(i)
        return not self.cells(i).any()

    def level_averages(self, level: int) -> np.ndarray:
        """Averages of all intervals at a level, as one array."""
        if level > self.depth:
            raise ValueError("level deeper than depth")
        return self._level_sums[level] / 2 ** (self.depth - level)

    def heap_averages(self) -> np.ndarray:
        """The averages of every interval in heap order, level-major with
        the index ascending ((l, i) at 2^l - 1 + i), bit for bit those of
        level_averages."""
        return heap_averages(self._level_sums)

    def level_integrals(self, level: int) -> np.ndarray:
        return self._level_sums[level] * 2.0 ** (-self.depth)

    # -- algebra -----------------------------------------------------------

    def product(self, other: "StepFunction") -> "StepFunction":
        if other.depth != self.depth:
            raise ValueError("depth mismatch")
        return StepFunction(self.depth, self.values * other.values)

    def squared(self) -> "StepFunction":
        return StepFunction(self.depth, self.values * self.values)

    def scaled(self, c: float) -> "StepFunction":
        return type(self)(self.depth, self.values * c)

    def cells(self, i: DyadicInterval) -> np.ndarray:
        a, b = i.cell_range(self.depth)
        return self.values[a:b]

    def restrict(self, j: DyadicInterval) -> "StepFunction":
        """The function on j, rescaled to [0, 1): self at the root.  Every
        average keeps its bits; a subinterval's label and length do not."""
        if j == ROOT:
            return self
        return StepFunction(self.depth - j.level, self.cells(j))


class DyadicWeight(StepFunction):
    """Nonnegative dyadic step function (the weight w)."""

    def __init__(self, depth: int, values, allow_zero: bool = False) -> None:
        super().__init__(depth, values)
        if np.any(self.values < 0):
            raise ValueError("weight values must be >= 0")
        if not allow_zero and not np.any(self.values > 0):
            raise ValueError("weight is identically zero (pass allow_zero=True to permit)")

    def mass(self, i: DyadicInterval) -> float:
        """w(I) = integral of w over I."""
        return self.integral(i)

    def distribution(self, i: DyadicInterval) -> DistributionFunction:
        """Normalized distribution function N_I(t) = |I|^-1 |{x in I : w(x) > t}|."""
        self._check(i)
        return DistributionFunction.from_values(self.cells(i))

    def restrict(self, j: DyadicInterval) -> "DyadicWeight":
        if j == ROOT:
            return self
        return DyadicWeight(self.depth - j.level, self.cells(j), allow_zero=True)

    def scaled(self, c: float) -> "DyadicWeight":
        if c < 0:
            raise ValueError("weight scale must be >= 0")
        return DyadicWeight(self.depth, self.values * c, allow_zero=True)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"depth": self.depth, "values": [float(v) for v in self.values]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "DyadicWeight":
        obj = json.loads(text)
        return cls(int(obj["depth"]), obj["values"], allow_zero=True)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "DyadicWeight":
        return cls.from_json(Path(path).read_text())
