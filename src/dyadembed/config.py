"""Central numeric tolerances.

Every inequality check reads its slack from a Tolerances, so a run is
reproducible from its configuration alone.  `verifiers` decides each of its
inequalities `big >= small` through `_holds`, within `ineq_slack * max(1,
|big|, |small|)`, scaled by both sides; the per-node references of
`bellman` write that rule with `Tolerances.slack(big, small)`
(`bellman_potential`, `carleson` and `orlicz` scale by their bound alone).
A pure absolute 1e-9 would misfire on sides far above 1, where double
rounding alone exceeds it.
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
