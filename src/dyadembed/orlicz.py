"""Young functions, Luxemburg norms, and the bump functional on distributions.

Two function families drive everything:

* Phi, a Young function (convex, increasing, Phi(0)=0) with integrable
  1/Phi at infinity; realized globally as t*(log(e+t))^alpha or
  t*log(e+t)*(loglog)^alpha so convexity holds on all of [0, inf).
* Psi, decreasing on (0,1] with s*Psi(s) increasing and 1/(s Psi)
  integrable at 0.  Closed forms are clamped to a constant on [s0, 1]
  (s0 chosen where the monotonicity of s*Psi switches) and may carry a
  normalization multiplier k >= 1 enforcing int_0^1 ds/phi <= 1 and
  phi(s) >= s, where phi(s) = s*Psi(s).

The bump functional of a distribution N is n_psi = int N(t) Psi(N(t)) dt
= int phi(N(t)) dt, an exact step sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import DEFAULT_TOL, Tolerances
from .carleson import CheckReport
from .distribution import DistributionFunction
from .intervals import ROOT, DyadicInterval
from .weights import DyadicWeight


class ConstructionError(ValueError):
    """A function family could not be built with the requested parameters."""


def _bisect(f, target, lo, hi) -> np.ndarray:
    """Smallest x in (lo, hi] with f(x) >= target, elementwise over target.

    f is nondecreasing and vectorized; the bracket ends are positive floats
    or arrays broadcastable to target with f(lo) < target <= f(hi), and f
    may overflow to inf.  The bisection runs on the int64 bit patterns of the
    positive floats, which are ordered as the floats are, so each step
    halves the bit-pattern gap between the ends (bisection in log x), and a
    gap of g closes to adjacent floats in ceil(log2 g) <= 63 steps; each
    element's hi then stays, whatever the other elements' gaps.
    """
    target = np.asarray(target, dtype=np.float64)
    lo_b = np.full(target.shape, lo, dtype=np.float64).view(np.int64)
    hi_b = np.full(target.shape, hi, dtype=np.float64).view(np.int64)
    steps = int(np.max(hi_b - lo_b, initial=1) - 1).bit_length()
    with np.errstate(over="ignore"):
        for _ in range(steps):
            mid = lo_b + (hi_b - lo_b) // 2
            below = f(mid.view(np.float64)) < target
            lo_b = np.where(below, mid, lo_b)
            hi_b = np.where(below | (mid == lo_b), hi_b, mid)
    return hi_b.view(np.float64)


# ---------------------------------------------------------------------------
# Young functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class YoungFunction:
    """Evaluable Phi with derivative; family-tagged for closed-form tails."""

    family: str
    alpha: float
    t_min: float = 2.0 * math.e

    def __post_init__(self):
        if self.family not in ("log-bump", "loglog-bump"):
            raise ConstructionError(f"unknown Young family {self.family!r}")
        if not math.isfinite(self.alpha):
            raise ConstructionError(f"alpha must be finite, got {self.alpha}")
        if self.alpha <= 1:
            raise ConstructionError("alpha must exceed 1 for an integrable 1/Phi tail")

    def phi(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.family == "log-bump":
            return t * np.log(np.e + t) ** self.alpha
        u = np.log(np.e + t)
        return t * u * np.log(np.e + u) ** self.alpha

    def dphi(self, t):
        t = np.asarray(t, dtype=np.float64)
        if self.family == "log-bump":
            u = np.log(np.e + t)
            return u ** self.alpha + self.alpha * t * u ** (self.alpha - 1) / (np.e + t)
        u = np.log(np.e + t)
        v = np.log(np.e + u)
        du = 1.0 / (np.e + t)
        dv = du / (np.e + u)
        return u * v ** self.alpha + t * du * v ** self.alpha \
            + self.alpha * t * u * v ** (self.alpha - 1) * dv

    def phi_inverse(self, y: float) -> float:
        """Solve Phi(t) = y, y > 0."""
        if y <= 0:
            raise ValueError("phi_inverse needs a positive argument")
        return float(_bisect(self.phi, y, 1e-300, y))   # Phi(t) >= t

    def phi_dphi_inverse(self, y):
        """t >= t_min with Phi(t) Phi'(t) = y, elementwise: the parametric
        map t(s) at s = 1/y.  A y at or below Phi Phi'(t_min) gives t_min, to
        within a float."""
        # Phi(t) >= t and Phi'(t) >= 1, so the root lies below y
        return _bisect(lambda t: self.phi(t) * self.dphi(t), y, self.t_min,
                       np.maximum(y, self.t_min))

    def tail_integral(self, t0: float | None = None) -> float:
        """A closed form below int_{t0}^inf dt/Phi(t), t0 = t_min by default:
        int dt/((e+t) ln^a(e+t)) for log-bump and int dt/((e+t)(e+u)
        ln^a(e+u)), u = ln(e+t), for loglog-bump, whose integrands are 1/Phi
        times t/(e+t) and t u/((e+t)(e+u)).  Against 30-digit quadrature,
        log-bump is exact to rounding at the t0 = 2.7e19 of the parametric
        kernel's tail and 10.3% low at t_min; loglog-bump is 1.0% low at its
        t0 = 2.2e20 and 27% low at t_min."""
        t0 = self.t_min if t0 is None else t0
        a = self.alpha
        if self.family == "log-bump":
            # x = ln(e+t), dx = dt/(e+t): int_{x0}^inf dx/x^a
            x0 = math.log(math.e + t0)
            return x0 ** (1 - a) / (a - 1)
        x0 = math.log(math.e + t0)
        y0 = math.log(math.e + x0)
        return y0 ** (1 - a) / (a - 1)


def young_function(family: str, alpha: float) -> YoungFunction:
    yf = YoungFunction(family, alpha)
    # grid admissibility: Phi' >= 0 and nondecreasing for t >= t_min
    t = np.geomspace(yf.t_min, 1e12, 1000)
    with np.errstate(over="ignore", invalid="ignore"):
        d = yf.dphi(t)
    if not np.all(np.isfinite(d)):
        raise ConstructionError(f"alpha = {alpha:g} is too large for {family}: Phi' "
                                f"overflows a float on t in [{yf.t_min:.6g}, 1e12]")
    if np.any(d < 0) or np.any(np.diff(d) < -1e-9 * np.abs(d[:-1])):
        raise ConstructionError(f"Phi' not admissible for {family}(alpha={alpha})")
    return yf


# ---------------------------------------------------------------------------
# Psi functions
# ---------------------------------------------------------------------------

def _loglog_clamp_knot(alpha: float) -> float:
    """Smallest x with e^{-x} x (ln x)^alpha nonincreasing in x: (x-1)ln x = alpha."""
    # (x-1) ln x >= x-1 for x >= e, so the root lies below alpha + e
    return float(_bisect(lambda x: (x - 1.0) * np.log(x), alpha, 1.0, alpha + math.e))


@dataclass(frozen=True)
class PsiFunction:
    """Decreasing Psi on (0,1] with s*Psi(s) increasing.

    mode 'clamped-log':     Psi = k * max(ln(1/s), alpha-knot)^alpha pieces
    mode 'clamped-loglog':  Psi = k * x (ln x)^alpha at x = ln(1/s), clamped
    mode 'parametric':      Psi(s) = Phi'(t) at s = 1/(Phi(t) Phi'(t))
    """

    mode: str
    alpha: float
    k: float = 1.0                      # normalization multiplier, >= 1
    s0: float = 1.0                     # clamp point (constant on [s0, 1])
    clamp_value: float = 0.0            # raw Psi value on the clamp
    phi_source: Optional[YoungFunction] = None

    # -- evaluation -------------------------------------------------------

    def psi_raw(self, s):
        s = np.asarray(s, dtype=np.float64)
        if self.mode == "clamped-log":
            with np.errstate(divide="ignore"):
                x = np.log(1.0 / s)
            return np.where(s <= self.s0, x ** self.alpha, self.clamp_value)
        if self.mode == "clamped-loglog":
            with np.errstate(divide="ignore"):
                x = np.log(1.0 / s)
            xs = np.maximum(x, 1.0 + 1e-12)
            val = xs * np.log(xs) ** self.alpha
            return np.where(s <= self.s0, val, self.clamp_value)
        # parametric: the map t(s) is solved below the clamp knot only
        src = self.phi_source
        out = np.full(s.shape, self.clamp_value)
        below = s < self.s0
        with np.errstate(divide="ignore"):
            out[below] = src.dphi(src.phi_dphi_inverse(1.0 / s[below]))
        return out

    def psi(self, s):
        return self.k * self.psi_raw(s)

    def phi(self, s):
        """phi(s) = s * Psi(s), increasing companion."""
        return np.asarray(s, dtype=np.float64) * self.psi(s)

    @property
    def min_psi(self) -> float:
        """Psi(1), the minimum of Psi on (0, 1]."""
        return float(self.psi(1.0))

    # -- admissibility ------------------------------------------------------

    def validate(self) -> None:
        """Grid check on 1200 points: Psi decreasing, s*Psi increasing, up to
        1e-12 slack."""
        s = np.geomspace(1e-14, 1.0, 1200)
        ps = self.psi(s)
        slack = DEFAULT_TOL.identity * np.maximum(1.0, np.abs(ps[1:]))
        if np.any(np.diff(ps) > slack):
            raise ConstructionError("Psi is not nonincreasing on the sample grid")
        ph = s * ps
        slack = DEFAULT_TOL.identity * np.maximum(1.0, np.abs(ph[1:]))
        if np.any(np.diff(ph) < -slack):
            raise ConstructionError("s*Psi(s) is not nondecreasing on the sample grid")
        # s phi'(s) <= phi(s) (equality on linear clamp pieces), sampled away
        # from the clamp knot; secant slope, so allow a discretization margin
        mid = np.sqrt(s[1:] * s[:-1])
        dphi = np.diff(ph) / np.diff(s)
        keep = np.abs(np.log(mid / self.s0)) > 0.05
        phi_mid = np.asarray(self.phi(mid))
        bad = keep & (mid * dphi > phi_mid * (1 + 1e-3) + 1e-12)
        if np.any(bad):
            raise ConstructionError("s*phi'(s) <= phi(s) fails on the sample grid")

    def inverse_phi_integral(self) -> float:
        """int_0^1 ds/(s Psi(s)) for closed families; exact per-piece forms."""
        a, k = self.alpha, self.k
        if self.mode == "clamped-log":
            x0 = math.log(1.0 / self.s0)
            below = x0 ** (1 - a) / (a - 1)
            above = x0 / self.clamp_value
            return (below + above) / k
        raise NotImplementedError("closed form only for the clamped log family")


def _clamp_value(family: str, alpha: float, base: float, scale: float = 1.0) -> float:
    """scale * base ** alpha, the raw Psi on the clamp of a closed-form
    family; a ConstructionError where that is not a finite float."""
    try:
        value = scale * base ** alpha
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ConstructionError(f"alpha = {alpha:g} is too large for {family}: Psi on its "
                                f"clamp overflows a float")
    return value


def psi_closed_form(alpha: float, family: str = "log-bump",
                    clamp_s0: float | None = None,
                    normalize: bool = True) -> PsiFunction:
    """Closed-form Psi families: (ln 1/s)^alpha and ln(1/s)(lnln 1/s)^alpha.

    The clamp keeps s*Psi(s) increasing: constant value on [s0, 1] with s0
    at the monotonicity knot (ln(1/s0) = alpha for the log family).  Raises
    for a non-finite alpha and for alpha <= 1, where 1/(s Psi) is not
    integrable at 0, for a clamp_s0 that is not finite and positive or
    lies beyond the knot, and for an alpha so large that the clamp point
    underflows to 0 or the clamp value overflows.
    """
    if not math.isfinite(alpha):
        raise ConstructionError(f"alpha must be finite, got {alpha}")
    if clamp_s0 is not None and not (math.isfinite(clamp_s0) and clamp_s0 > 0):
        raise ConstructionError(f"clamp_s0 must be finite and positive, got {clamp_s0}")
    if alpha <= 1:
        raise ConstructionError("alpha must exceed 1 (integrability of 1/(s Psi))")
    if family == "log-bump":
        s0 = math.exp(-alpha) if clamp_s0 is None else clamp_s0
        if clamp_s0 is not None and clamp_s0 > math.exp(-alpha) + 1e-15:
            raise ConstructionError("clamp_s0 beyond the monotonicity knot")
        if s0 == 0.0:
            raise ConstructionError(f"alpha = {alpha:g} is too large for {family}: the "
                                    f"clamp point exp(-alpha) underflows to 0")
        clamp_value = _clamp_value(family, alpha, math.log(1.0 / s0))
        mode = "clamped-log"
    elif family == "loglog-bump":
        knot = _loglog_clamp_knot(alpha)
        x0 = knot if clamp_s0 is None else math.log(1.0 / clamp_s0)
        if x0 < knot - 1e-12:
            raise ConstructionError("clamp_s0 beyond the monotonicity knot")
        s0 = math.exp(-x0)
        clamp_value = _clamp_value(family, alpha, math.log(x0), x0)
        mode = "clamped-loglog"
    else:
        raise ConstructionError(f"unknown Psi family {family!r}")
    psi = PsiFunction(mode, alpha, 1.0, s0, clamp_value)
    if normalize:
        psi = normalized_psi(psi)
    psi.validate()
    return psi


def normalized_psi(psi: PsiFunction) -> PsiFunction:
    """Multiply Psi by k = max(1, int_0^1 ds/phi, 1/Psi(1)).

    Scaling up preserves both constraints: int_0^1 ds/phi_k <= 1 and
    phi_k(s) >= s.  k = 1 already works for the log family with alpha >= 2.
    """
    from .bellman import kernel_of  # local import to avoid a cycle

    base = replace(psi, k=1.0)
    g1 = kernel_of(base).G(1.0)
    k = max(1.0, float(g1), 1.0 / base.min_psi)
    return replace(psi, k=k)


def psi_from_phi(phi: YoungFunction) -> PsiFunction:
    """Parametric Psi: Psi(s) = Phi'(t) where s = 1/(Phi(t) Phi'(t)).

    For s above s(t_min) the value clamps to the constant Phi'(t_min).
    Requires Phi*Phi' finite and strictly increasing beyond t_min (checked
    on a grid; violations are reported with the offending range).  Not
    normalized: pass the result to normalized_psi for the m-profile
    inequalities.
    """
    t_grid = np.geomspace(phi.t_min, 1e14, 400)
    with np.errstate(over="ignore", invalid="ignore"):
        g = phi.phi(t_grid) * phi.dphi(t_grid)
    if not np.all(np.isfinite(g)):
        raise ConstructionError(f"alpha = {phi.alpha:g} is too large: Phi*Phi' overflows a "
                                f"float on t in [{phi.t_min:.6g}, 1e14]")
    bad = np.diff(g) <= 0
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ConstructionError(
            f"Phi*Phi' not strictly increasing on t in [{t_grid[i]:.6g}, {t_grid[i + 1]:.6g}]")
    s_min_clamp = 1.0 / float(g[0])  # s at t_min
    clamp_value = float(phi.dphi(phi.t_min))
    return PsiFunction("parametric", phi.alpha, 1.0, s_min_clamp, clamp_value,
                       phi_source=phi)


# ---------------------------------------------------------------------------
# Norms and functionals
# ---------------------------------------------------------------------------

def luxemburg_norm(phi: YoungFunction, w: DyadicWeight, i: DyadicInterval) -> float:
    """Luxemburg norm inf{lam > 0 : |I|^-1 int_I Phi(w/lam) <= 1}.

    The modular integral is an exact finite sum over the distinct values of
    w on I and nonincreasing in lam, so the infimum is the smallest lam with
    -modular(lam) >= -1.  Returns 0 for w == 0 on I.
    """
    dist = w.distribution(i)
    if dist.is_zero:
        return 0.0
    vals = dist.thresholds
    fracs = np.concatenate([dist.survival, [0.0]])
    weights = dist.survival - fracs[1:]          # measure fraction at each value
    return float(_bisect(lambda lam: -np.dot(weights, phi.phi(vals / lam)),
                         -1.0, 1e-300, 1e300))


def n_psi(psi: PsiFunction, dist: DistributionFunction) -> float:
    """Bump functional int N(t) Psi(N(t)) dt = int phi(N(t)) dt, exact step sum.

    Zero distribution returns 0; callers observing the skip rule must not
    divide by it.
    """
    if dist.is_zero:
        return 0.0
    return dist.step_integral(psi.phi)


def check_orlicz_lower_bound(phi: YoungFunction, psi: PsiFunction,
                             w: DyadicWeight, i: DyadicInterval,
                             budget: float,
                             tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Lower-bound lemma: n_psi(N_I) <= budget * ||w||_{L_Phi(I)}.

    The budget is a measured per-family constant (frozen in the tests), not
    a claimed sharp constant.
    """
    dist = w.distribution(i)
    if dist.is_zero:
        return CheckReport("orlicz-lower-bound", 0.0, 0.0, True,
                           flags=("zero weight",))
    lhs = n_psi(psi, dist)
    norm = luxemburg_norm(phi, w, i)
    rhs = budget * norm
    return CheckReport("orlicz-lower-bound", lhs, rhs, lhs <= rhs + tol.slack(rhs),
                       ratio=lhs / norm, detail={"luxemburg": norm})


# Frozen measured budget for the matched pair (clamped log Psi, log-bump Phi),
# alpha = 2: worst observed ratio 3.36 over randomized shapes and the default
# corpus; 4.0 leaves margin without hiding regressions.
ORLICZ_BUDGET_LOG2 = 4.0


@dataclass(frozen=True)
class GapResult:
    weight: DyadicWeight
    ratio: float
    n_psi_value: float
    luxemburg_value: float
    tuned: bool


def gap_example(psi: PsiFunction, phi: YoungFunction, depth: int,
                plateau: float = 1.0) -> GapResult:
    """Weight whose bump functional sits far below its Orlicz norm.

    Construction: moderate plateau plus one extreme cell of height 2^depth.
    The gap opens when Phi carries a stronger bump than Psi requires
    (Psi(s) <= C Phi'(t) still holds at s = 1/(Phi Phi'), so the pair is
    admissible for the lower-bound lemma); for the parametric-matched pair
    the ratio is bounded below near 1 and no construction can reach 0.1.
    """
    if depth < 8:
        raise ValueError("gap construction needs depth >= 8")
    values = np.full(2 ** depth, plateau)
    values[0] = 2.0 ** depth
    w = DyadicWeight(depth, values)
    dist = w.distribution(ROOT)
    num = n_psi(psi, dist)
    den = luxemburg_norm(phi, w, ROOT)
    ratio = num / den
    return GapResult(w, ratio, num, den, tuned=ratio <= 0.1)
