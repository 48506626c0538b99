"""Central numeric tolerances.

Every inequality check in the package takes its slack from one place so a
run is reproducible from its configuration alone.  The inequality slack is
applied as `ineq_slack * max(1, |scale|)`: a pure absolute 1e-9 would
misfire on certificates whose sides are orders of magnitude above 1, where
double rounding alone exceeds it.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    ineq_slack: float = 1e-9      # per-node and global inequality slack
    identity: float = 1e-12       # exact identities (decompositions, telescoping inputs)

    def slack(self, *scales: float) -> float:
        m = 1.0
        for s in scales:
            m = max(m, abs(s))
        return self.ineq_slack * m


DEFAULT_TOL = Tolerances()
