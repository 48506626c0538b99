"""Bellman functions and the pointwise inequalities behind the certificates.

For an admissible Psi with phi(s) = s*Psi(s) and U = 1/phi, the kernel
quantities are

    G(s) = int_0^s  d sigma / phi(sigma)        (= B'(s))
    H(s) = int_0^s  d sigma / Psi(sigma)        (= int_0^s sigma U)
    B(s) = s G(s) - H(s)                        (B(0)=B'(0)=0, B'' = U)

All three have elementary or special-function closed forms for the clamped
log family: for integer alpha, H(s) = x^(1-alpha) E_alpha(x) with
x = log(1/s), and the exponential integral E_n comes from the package's own
table of x e^x E_n(x) (per-octave polynomials built once per n from the
continued fraction).  Other families fall back to a Gauss-Legendre panel
grid in x = log(1/s), with panel edges pinned to the clamp knot so each
panel integrand is smooth, and its node terms summed in one fixed order, so
every kernel value is a function of its point alone, whatever array holds
it.  G, H and B evaluate any input in blocks of 2^14 points, so their
temporaries do not grow with the input (see _KERNEL_BLOCK).  Nothing in
the package loads scipy.  The normalization multiplier k of
Psi is folded in: G, H, B all scale by 1/k, so m(s) (the profile with
int_0^1 1/phi <= 1) is simply B of a normalized Psi.

Derived inequality constants used throughout (each follows from phi
increasing, Psi decreasing, and the divisor range only):

    midpoint gain of B      >= 1/4 int U(N) (dN)^2 dt      (dN = half-difference)
                            >= (Delta_I w)^2 / (16 n_psi)   (Cauchy-Schwarz)
    -dT/da (a in [1,2])     >= N^2 / (4 phi(N))
    pair inequality          : constant 1/20
    n-point inequality       : constant 1/80
    paraproduct inequality   : constant 1/16
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache
from typing import Sequence

import numpy as np

from .carleson import CheckReport
from .config import DEFAULT_TOL, Tolerances
from .distribution import DistributionFunction, merged_pieces, mix
from .intervals import DyadicInterval
from .orlicz import ConstructionError, PsiFunction, n_psi
from .weights import DyadicWeight

PDE_STAGE1_FACTOR = 0.25       # midpoint finite-difference constant for nonincreasing U
PDE_FINAL_FACTOR = 1.0 / 16.0  # after Cauchy-Schwarz with half-differences
EMBED_STEP_FACTOR = 0.25       # from divisor^2 <= 4 and phi increasing
PAIR_CONSTANT = 1.0 / 20.0     # c/4 with c = 1/5 from 2/(8n+u) >= 1/(5n)
NPOINT_CONSTANT = 1.0 / 80.0   # c/16 with the same c
PARAPRODUCT_CONSTANT = 1.0 / 16.0


# ---------------------------------------------------------------------------
# E_n(x) for integer n >= 2 and x >= 1: the clamped log family's H
# ---------------------------------------------------------------------------

# f(x) = x e^x E_n(x) lies between x/(x+n) and x/(x+n-1) and is analytic away
# from x = 0, so on every octave [2^e, 2^(e+1)) it is a polynomial of degree 7
# on 32 equal pieces to within rounding; above the table (x >= 64 n) the
# asymptotic series sum_k (-1)^k (n)_k / x^k is exact to rounding.
_EN_PIECES = 32
_EN_DEGREE = 7
_EN_CF_LEVELS = 128       # converged to rounding for x >= 1 and every n >= 2
_EN_SERIES_TERMS = 12     # last term below 1e-18 where the series takes over
_EN_SMALL = 16            # arrays up to this size take the per-point path


def _expn_scaled_cf(n: int, x: np.ndarray) -> np.ndarray:
    """x e^x E_n(x) from the continued fraction of DLMF 8.19.17 (the one
    cephes' expn runs forward), evaluated backward from a fixed depth:
    every partial numerator and denominator is positive, so the backward
    recurrence damps rounding instead of accumulating it."""
    d = x
    for j in range(_EN_CF_LEVELS, -1, -1):
        d = x + (n + j) / (1.0 + (j + 1) / d)
    return x / d


class _ExpnTable:
    """x e^x E_n(x) on [1, inf] for one integer n >= 2.

    Rows are the pieces of the octaves [1, 2), [2, 4), ... below `top`,
    each a polynomial in t in [-1, 1] (highest power first) interpolating
    the continued fraction at Chebyshev points.  Short arrays are evaluated
    point by point in Python floats with the same IEEE operations as the
    array path, so both give the same bits.
    """

    def __init__(self, n: int) -> None:
        pieces, degree = _EN_PIECES, _EN_DEGREE
        octaves = max(10, n.bit_length() + 6)   # top >= 64 n
        self.top = 2.0 ** octaves
        nodes = np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))
        start = np.repeat(2.0 ** np.arange(octaves), pieces)
        half = start / (2 * pieces)
        mid = start + half * (2 * np.tile(np.arange(pieces), octaves) + 1)
        values = _expn_scaled_cf(n, mid[:, None] + half[:, None] * nodes)
        self.coef = np.linalg.solve(np.vander(nodes), values.T).T
        self.rows = self.coef.tolist()
        series = [1.0]
        for k in range(1, _EN_SERIES_TERMS + 1):
            series.append(-series[-1] * (n + k - 1))
        self.series = series[::-1]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if x.size <= _EN_SMALL:
            return np.array([self._point(v) for v in x.tolist()])
        far = x >= self.top
        if not far.any():
            return self._table(x)
        out = np.empty_like(x)
        out[far] = self._series(1.0 / x[far])
        out[~far] = self._table(x[~far])
        return out

    def _series(self, y):
        acc = self.series[0]
        for c in self.series[1:]:
            acc = acc * y + c
        return acc

    def _table(self, x: np.ndarray) -> np.ndarray:
        if x.size and not x.min() >= 1.0:
            raise ValueError("E_n is tabulated for x >= 1 only")
        m, e = np.frexp(x)                   # x = m 2^e, m in [1/2, 1)
        u = (2.0 * m - 1.0) * _EN_PIECES     # position in the octave, in pieces
        p = np.floor(u)
        t = 2.0 * (u - p) - 1.0
        c = self.coef[(e - 1) * _EN_PIECES + p.astype(np.intp)]
        acc = c[:, 0]
        for k in range(1, _EN_DEGREE + 1):
            acc = acc * t + c[:, k]
        return acc

    def _point(self, x: float) -> float:
        if x >= self.top:
            return self._series(1.0 / x)
        if not x >= 1.0:
            raise ValueError("E_n is tabulated for x >= 1 only")
        m, e = math.frexp(x)
        u = (2.0 * m - 1.0) * _EN_PIECES
        p = math.floor(u)
        t = 2.0 * (u - p) - 1.0
        c = self.rows[(e - 1) * _EN_PIECES + p]
        acc = c[0]
        for ck in c[1:]:
            acc = acc * t + ck
        return acc


@cache
def _expn_table(n: int) -> _ExpnTable:
    return _ExpnTable(n)


def _expn(n: int, x: np.ndarray) -> np.ndarray:
    """Exponential integral E_n(x) = int_1^inf e^(-xt) t^(-n) dt, elementwise
    over a 1-d float64 array, for integer n >= 2 and x >= 1 (E_n(inf) = 0);
    raises ValueError for x < 1 or nan."""
    return _expn_table(n)(x) * np.exp(-x) / x


# ---------------------------------------------------------------------------
# quadrature backend for families without special-function closed forms
# ---------------------------------------------------------------------------

# x in [0, _PANEL_X] cut into _PANELS equal panels and at the clamp knot, each
# with the _GL_ORDER-point rule; _PanelGrid._integral's sum is written for 12
_PANEL_X = 60.0
_PANELS = 1200
_GL_ORDER = 12


class _PanelGrid:
    """Cumulative tail integrals of g over x in [0, _PANEL_X] with GL panels.

    tail(x) = int_x^X g(y) dy with X = _PANEL_X; the knot is a panel edge,
    so g only needs to be smooth on each side of it.
    """

    def __init__(self, g, knot: float) -> None:
        self.g = g
        self.edges = np.union1d(np.linspace(0.0, _PANEL_X, _PANELS + 1), [min(knot, _PANEL_X)])
        # imported here so that closed-form kernels do not load numpy.polynomial
        from numpy.polynomial.legendre import leggauss

        self._nodes, self._weights = (v[:, None] for v in leggauss(_GL_ORDER))
        panels = self._integral(self.edges[:-1], self.edges[1:])
        self.suffix = np.append(np.cumsum(panels[::-1])[::-1], 0.0)

    def _integral(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """int_a^b g, elementwise over 1-d a and b: the weighted g at the 12
        nodes of each interval (nodes-major) summed by one fixed elementwise
        tree, so a value depends on its interval alone, not on its array."""
        half = 0.5 * (b - a)
        v = self.g(0.5 * (a + b) + half * self._nodes) * self._weights
        v = v[:6] + v[6:]
        v = v[:3] + v[3:]
        return half * (v[0] + v[1] + v[2])

    def tail(self, x) -> np.ndarray:
        """tail at every point of x, in x's shape."""
        x = np.asarray(x, dtype=np.float64)
        xc = np.clip(x.ravel(), 0.0, self.edges[-1])
        idx = np.minimum(np.searchsorted(self.edges, xc, side="right"), self.edges.size - 1)
        return (self._integral(xc, self.edges[idx]) + self.suffix[idx]).reshape(x.shape)


# ---------------------------------------------------------------------------
# kernel: G, H, B for one Psi
# ---------------------------------------------------------------------------

# G, H and B evaluate any input in blocks of this many points, sized for the
# cache: a raw closed form holds a few arrays of a block's size, and H below
# the clamp knot several more (a table row of 8 coefficients per point, or
# 12 quadrature nodes).  Each value is a function of its point, so the
# blocks do not change a bit.
_KERNEL_BLOCK = 2 ** 14


def _in_blocks(fn, s) -> np.ndarray | float:
    """fn, an elementwise function of an array, over s: at once up to
    _KERNEL_BLOCK points, else in blocks of that many points of s raveled;
    a float for a scalar s."""
    arr = np.atleast_1d(np.asarray(s, dtype=np.float64))
    if arr.size <= _KERNEL_BLOCK:
        out = fn(arr)
    else:
        flat, out = arr.ravel(), np.empty(arr.size)
        for a in range(0, flat.size, _KERNEL_BLOCK):
            out[a:a + _KERNEL_BLOCK] = fn(flat[a:a + _KERNEL_BLOCK])
        out = out.reshape(arr.shape)
    return out if np.ndim(s) else float(out[0])


class BellmanKernel:
    """Vectorized G, H, B, T for a PsiFunction (normalization included)."""

    def __init__(self, psi: PsiFunction) -> None:
        self.psi = psi
        self._x0 = math.log(1.0 / psi.s0) if psi.s0 < 1.0 else 0.0
        a = psi.alpha
        self._integer_log = (psi.mode == "clamped-log"
                             and abs(a - round(a)) < 1e-12 and round(a) >= 2)
        self._n = int(round(a))

    # raw pieces (without the 1/k factor) ---------------------------------

    def _G_raw(self, s: np.ndarray) -> np.ndarray:
        """Raw G for s > 0.  Each closed form is built from chains of
        operations on unnamed arrays, whose buffers numpy reuses when they
        are large, so that at most three arrays of s's size (a block) are
        held."""
        psi = self.psi
        a, x0 = psi.alpha, self._x0
        if psi.mode in ("clamped-log", "clamped-loglog"):
            with np.errstate(divide="ignore"):
                x = np.maximum(np.log(1.0 / s), x0)
            g0 = x0
            if psi.mode == "clamped-loglog":
                x = np.log(x)
                g0 = math.log(x0)
            below = x ** (1.0 - a) / (a - 1.0)
            del x
            g0 = g0 ** (1.0 - a) / (a - 1.0)
            above = g0 + np.log(np.maximum(s, psi.s0) / psi.s0) / psi.clamp_value
            np.copyto(above, below, where=s <= psi.s0)
            return above
        with np.errstate(divide="ignore"):
            x = np.log(1.0 / s)
        # parametric: panel grid on x-space plus an analytic-tail estimate
        return self._G_grid.tail(np.minimum(x, _PANEL_X - 1.0)) + self._param_G_tail

    def _H_raw(self, s: np.ndarray) -> np.ndarray:
        """Raw H for s > 0: linear from _h0 on [s0, inf), the integral below."""
        psi = self.psi
        out = self._h0 + (np.maximum(s, psi.s0) - psi.s0) / psi.clamp_value
        below = s < psi.s0
        if below.any():
            out[below] = self._H_below(np.maximum(np.log(1.0 / s[below]), self._x0))
        return out

    def _H_below(self, x: np.ndarray) -> np.ndarray:
        """Raw H at x = log(1/s) >= x0, where Psi is unclamped."""
        if self._integer_log:
            return x ** (1.0 - self.psi.alpha) * _expn(self._n, x)
        return self._H_grid.tail(x)

    @cached_property
    def _h0(self) -> float:
        """Raw H at the clamp knot, where its linear piece above s0 starts."""
        return float(self._H_below(np.array([self._x0]))[0])

    @cached_property
    def _H_grid(self) -> _PanelGrid:
        return _PanelGrid(lambda y: np.exp(-y) / self.psi.psi_raw(np.exp(-y)), self._x0)

    @cached_property
    def _G_grid(self) -> _PanelGrid:
        return _PanelGrid(lambda y: 1.0 / self.psi.psi_raw(np.exp(-y)), self._x0)

    @cached_property
    def _param_G_tail(self) -> float:
        """Raw G's part beyond x = _PANEL_X, by the parametric identity: with
        y = log(Phi Phi'), int 1/Psi dy = int (1/Phi + Phi''/Phi'^2) dt,
        whose second part telescopes to 1/Phi'.  Table-grade accuracy."""
        src = self.psi.phi_source
        t_x = float(src.phi_dphi_inverse(math.exp(_PANEL_X)))
        return src.tail_integral(t_x) + 1.0 / float(src.dphi(t_x))

    # public evaluators ---------------------------------------------------------

    def G(self, s) -> np.ndarray | float:
        """B'(s) = int_0^s d sigma / phi(sigma)."""
        return _in_blocks(self._G_block, s)

    def H(self, s) -> np.ndarray | float:
        return _in_blocks(self._H_block, s)

    def B(self, s) -> np.ndarray | float:
        """Convex potential with B(0) = B'(0) = 0 and B'' = 1/phi."""
        return _in_blocks(self._B_block, s)

    def _G_block(self, s: np.ndarray) -> np.ndarray:
        return np.where(s > 0, self._G_raw(np.maximum(s, 1e-300)) / self.psi.k, 0.0)

    def _H_block(self, s: np.ndarray) -> np.ndarray:
        return np.where(s > 0, self._H_raw(np.maximum(s, 1e-300)) / self.psi.k, 0.0)

    def _B_block(self, s: np.ndarray) -> np.ndarray:
        """s G_raw(s) / k - H_raw(s) / k, one chain of operations on unnamed
        arrays (see _G_raw), zeroed in place where s <= 0, so that at most
        four block-sized arrays are held."""
        pos = np.maximum(s, 1e-300)
        out = pos * self._G_raw(pos) / self.psi.k - self._H_raw(pos) / self.psi.k
        np.copyto(out, 0.0, where=~(s > 0))
        return out

    def U(self, s) -> np.ndarray | float:
        return 1.0 / self.psi.phi(s)

    @cached_property
    def C(self) -> float:
        """int_0^1 ds/phi = B'(1); the leaf-bound constant."""
        return float(self.G(1.0))

    @cached_property
    def min_psi(self) -> float:
        """Psi(1), the minimum of Psi on (0, 1]."""
        return self.psi.min_psi

    @cached_property
    def is_normalized(self) -> bool:
        """m-profile requirements: C <= 1 and phi(s) >= s."""
        return self.C <= 1.0 + 1e-12 and self.min_psi >= 1.0 - 1e-12

    # the two-variable auxiliary function -----------------------------------

    def T(self, divisor: float, s) -> np.ndarray | float:
        """T(divisor, s) = s * G(s / divisor), divisor in [1, 2] (embed: A+1,
        paraproduct: M+1)."""
        if divisor < 1.0 - 1e-9:
            raise ValueError("divisor below 1")
        arr = np.atleast_1d(np.asarray(s, dtype=np.float64))
        out = arr * np.atleast_1d(self.G(arr / divisor))
        return out if np.ndim(s) else float(out[0])

    def dT_ddivisor(self, divisor: float, s) -> np.ndarray | float:
        """Analytic partial: dT/d(divisor) = -s^2 / (divisor^2 phi(s/divisor))."""
        arr = np.atleast_1d(np.asarray(s, dtype=np.float64))
        out = -(arr * arr) / (divisor * divisor * self.psi.phi(arr / divisor))
        return out if np.ndim(s) else float(out[0])

    # distribution-level integrals ------------------------------------------

    def script_B(self, dist: DistributionFunction) -> float:
        """int B(N(t)) dt, exact step sum."""
        return dist.step_integral(self.B)

    def script_T(self, divisor: float, dist: DistributionFunction) -> float:
        return dist.step_integral(lambda s: self.T(divisor, s))

    def n_of(self, dist: DistributionFunction) -> float:
        return n_psi(self.psi, dist)

    def u_of(self, dist: DistributionFunction) -> float:
        """u(N) = int (2N - m(N)) dt, m = B; requires a normalized Psi."""
        if dist.is_zero:
            return 0.0
        return dist.step_integral(lambda s: 2.0 * s - self.B(s))

    def u_of_m(self, dist: DistributionFunction, m_budget: float) -> float:
        """u(N, M) = 2 w(N) - int T(M+1, N(t)) dt, M in [0, 1]."""
        if not -1e-9 <= m_budget <= 1.0 + 1e-9:
            raise ValueError(f"M = {m_budget} outside [0, 1]")
        if dist.is_zero:
            return 0.0
        return dist.step_integral(lambda s: 2.0 * s - self.T(m_budget + 1.0, s))


@lru_cache(maxsize=1)
def kernel_of(psi: PsiFunction) -> BellmanKernel:
    """The BellmanKernel of psi, the one place a kernel is built: the kernel
    of the most recent Psi (matched by equality) is kept, so its C and its
    tables are evaluated once per Psi in a process, and a forked worker
    inherits its parent's.  The kernel is not cached on psi itself, which
    must stay picklable (a panel grid holds lambdas)."""
    return BellmanKernel(psi)


def scalar_bellman(f: float, u: float) -> float:
    """B(f, u) = f^2/u with the perspective-function closure B(0, 0) = 0."""
    if u > 0:
        return f * f / u
    if f == 0.0:
        return 0.0
    raise ValueError("f^2/u undefined: u <= 0 with f != 0")


# ---------------------------------------------------------------------------
# profiles (grid values, used for tables and profile checks)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BellmanProfile:
    grid: np.ndarray
    B: np.ndarray
    Bprime: np.ndarray
    kind: str                     # "B" or "m"
    C: float                      # B'(1)


def build_profile(psi: PsiFunction, kind: str = "B") -> BellmanProfile:
    """Tabulate B (or m) on a log-spaced grid of 2000 points with validation.

    Checks: endpoint limits, convexity of the grid values, B <= B'(1) s,
    and a finite-difference match B'' = 1/phi at interior points away from
    the clamp knot (tolerance 1e-8).  For kind="m" the Psi must be
    normalized and m' <= 1, m(s) <= s are verified.
    """
    kernel = kernel_of(psi)
    if kind == "m" and not kernel.is_normalized:
        raise ConstructionError("m-profile requires a normalized Psi")
    s = np.geomspace(1e-16, 1.0, 2000)
    Bv = np.asarray(kernel.B(s))
    Gv = np.asarray(kernel.G(s))
    C = kernel.C
    if not (Bv[0] >= 0 and Bv[0] < 1e-12):
        raise ConstructionError(f"B(0+) limit violated: {Bv[0]}")
    if np.any(np.diff(Bv) < -1e-15):
        raise ConstructionError("B not nondecreasing on the grid")
    if np.any(Bv > C * s + 1e-10):
        raise ConstructionError("B(s) <= B'(1) s violated on the grid")
    # chord convexity on consecutive grid triples
    x1, x2, x3 = s[:-2], s[1:-1], s[2:]
    lam = (x2 - x1) / (x3 - x1)
    chord = (1 - lam) * Bv[:-2] + lam * Bv[2:]
    if np.any(Bv[1:-1] > chord + 1e-10):
        raise ConstructionError("grid convexity of B violated")
    # FD second derivative vs 1/phi at interior points (splice excluded);
    # h balances Richardson truncation (h^4) against rounding (eps/h^2).
    # Panel-backed kernels carry an absolute error floor ~1e-17, so their
    # meaningful probe range starts higher than the closed-form one.
    s_lo = 1e-8 if kernel._integer_log else 1e-3
    probe = s[(s > s_lo) & (s < 0.9)][::50]
    probe = probe[np.abs(np.log(probe / psi.s0)) > 0.02]
    for sv in probe:
        h = 2e-3 * sv
        d1 = (float(kernel.B(sv + h)) - 2 * float(kernel.B(sv)) + float(kernel.B(sv - h))) / h**2
        h2 = h / 2
        d2 = (float(kernel.B(sv + h2)) - 2 * float(kernel.B(sv)) + float(kernel.B(sv - h2))) / h2**2
        richardson = (4 * d2 - d1) / 3.0
        target = float(kernel.U(sv))
        if abs(richardson - target) > 1e-8 * max(1.0, abs(target)):
            raise ConstructionError(
                f"B'' mismatch at s={sv:.6g}: fd {richardson:.12g} vs 1/phi {target:.12g}")
    if kind == "m":
        if np.any(Gv > 1.0 + 1e-10):
            raise ConstructionError("m'(s) <= 1 violated")
        if np.any(Bv > s + 1e-10):
            raise ConstructionError("m(s) <= s violated")
    return BellmanProfile(s, Bv, Gv, kind, C)


# ---------------------------------------------------------------------------
# per-node checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepGain:
    gain: float
    stage1: float
    stage2: float
    passed: bool
    flags: tuple[str, ...] = ()
    detail: dict = field(default_factory=dict)


def bellman_potential(w: DyadicWeight, i: DyadicInterval, psi: PsiFunction,
                      kernel: BellmanKernel | None = None,
                      tol: Tolerances = DEFAULT_TOL) -> float:
    """Script-B potential int_0^inf B(N_I(t)) dt; asserts <= B'(1) <w>_I."""
    kernel = kernel or kernel_of(psi)
    dist = w.distribution(i)
    if dist.is_zero:
        return 0.0
    val = kernel.script_B(dist)
    bound = kernel.C * w.average(i)
    if val > bound + tol.slack(bound):
        raise AssertionError(f"script-B leaf bound violated: {val} > {bound}")
    return val


def check_pde_step(w: DyadicWeight, i: DyadicInterval, psi: PsiFunction,
                   kernel: BellmanKernel | None = None,
                   dists: tuple | None = None,
                   tol: Tolerances = DEFAULT_TOL) -> StepGain:
    """Midpoint gain of the B-potential at one node with its two-stage bound.

    gain   = (scriptB(I-) + scriptB(I+))/2 - scriptB(I)
    stage1 = 1/4 int U(N_I) (dN)^2 dt,  dN = (N_{I+} - N_{I-})/2
    stage2 = (Delta_I w)^2 / (16 n_psi(N_I))

    gain >= stage1 holds for any nonincreasing U (one-sided tent bound);
    stage1 >= stage2 is Cauchy-Schwarz plus int dN dt = Delta_I w / 2.
    """
    kernel = kernel or kernel_of(psi)
    if dists is None:
        d_i = w.distribution(i)
        d_m = w.distribution(i.minus)
        d_p = w.distribution(i.plus)
    else:
        d_i, d_m, d_p = dists
    if d_i.is_zero:
        raise ValueError("w vanishes identically on the interval")
    flags = []
    if d_m.is_zero or d_p.is_zero:
        flags.append("zero child")
    gain = 0.5 * (kernel.script_B(d_m) + kernel.script_B(d_p)) - kernel.script_B(d_i)
    dt, nl, nr = merged_pieces(d_m, d_p)
    nm = 0.5 * (nl + nr)
    dn = 0.5 * (nr - nl)
    mask = nm > 0
    stage1 = PDE_STAGE1_FACTOR * float(
        np.dot(dt[mask], dn[mask] ** 2 / psi.phi(nm[mask])))
    dw = w.haar_difference(i)
    n_val = kernel.n_of(d_i)
    stage2 = PDE_FINAL_FACTOR * dw * dw / n_val
    ok = (gain >= stage1 - tol.slack(gain, stage1)
          and stage1 >= stage2 - tol.slack(stage1, stage2))
    return StepGain(gain, stage1, stage2, ok, tuple(flags),
                    {"haar_difference": dw, "n_psi": n_val})


def check_embed_step(w: DyadicWeight, i: DyadicInterval, psi: PsiFunction,
                     alpha_i: float, acc_parent: float, acc_minus: float,
                     acc_plus: float,
                     kernel: BellmanKernel | None = None,
                     dists: tuple | None = None,
                     tol: Tolerances = DEFAULT_TOL) -> StepGain:
    """Concavity gain of B(A, N) = C N - T(A+1, N) at one node.

    gain   = (T(A_- + 1, I-) + T(A_+ + 1, I+))/2 - T(A_I + 1, I)
    stage1 = 1/4 alpha_I int N^2/phi(N) dt
    stage2 = 1/4 alpha_I <w>_I^2 / n_psi(N_I)

    Requires the normalized Carleson accumulator A_I <= 1.  The first bound
    combines joint convexity of T with -dT/d(divisor) >= N^2/(4 phi(N)); the
    second is Cauchy-Schwarz.
    """
    kernel = kernel or kernel_of(psi)
    if acc_parent > 1.0 + 1e-9:
        raise ValueError(f"Carleson accumulator {acc_parent} exceeds 1; normalize first")
    if dists is None:
        d_i = w.distribution(i)
        d_m = w.distribution(i.minus)
        d_p = w.distribution(i.plus)
    else:
        d_i, d_m, d_p = dists
    if d_i.is_zero:
        raise ValueError("w vanishes identically on the interval")
    flags = []
    if d_m.is_zero or d_p.is_zero:
        flags.append("zero child")
    gain = (0.5 * (kernel.script_T(acc_minus + 1.0, d_m)
                   + kernel.script_T(acc_plus + 1.0, d_p))
            - kernel.script_T(acc_parent + 1.0, d_i))
    stage1 = EMBED_STEP_FACTOR * alpha_i * d_i.step_integral(
        lambda s: s * s / psi.phi(s))
    avg = w.average(i)
    n_val = kernel.n_of(d_i)
    stage2 = EMBED_STEP_FACTOR * alpha_i * avg * avg / n_val
    ok = (gain >= stage1 - tol.slack(gain, stage1)
          and stage1 >= stage2 - tol.slack(stage1, stage2))
    return StepGain(gain, stage1, stage2, ok, tuple(flags),
                    {"average": avg, "n_psi": n_val, "alpha": alpha_i})


# offsets of the T stencil in units of (ha, hn): the centre, (a +- ha, n),
# (a, n +- hn) and the four corners (a +- ha, n +- hn)
_T_STENCIL = np.array([[0, 1, -1, 0, 0, 1, 1, -1, -1],
                       [0, 0, 0, 1, -1, 1, -1, 1, -1]], dtype=np.float64)
_T_CHECKS = ("psd", "monge-ampere", "slope-bound", "slope-fd")


def _scalar_squares(v: np.ndarray) -> np.ndarray:
    """v**2 rounded as libm pow rounds a scalar power, as a per-point pass
    computes it; numpy's array square is v*v and can differ in the last bit."""
    return np.array([x ** 2 for x in v.tolist()])


def check_t_convexity(psi: PsiFunction,
                      grid_divisor: np.ndarray | None = None,
                      grid_n: np.ndarray | None = None,
                      kernel: BellmanKernel | None = None) -> CheckReport:
    """Grid check of T's convexity, Monge-Ampere degeneracy, and slope bound.

    On a divisor x N grid (divisor = A+1 in [1,2]):
      (a) the central-difference Hessian of T is PSD up to 1e-6 * scale;
      (b) |T_aa T_nn - T_an^2| <= 1e-5 * scale^2 (T is linear on rays n = c a);
      (c) -dT/d(divisor) >= N^2 / (4 phi(N)) via the analytic formula;
      (d) analytic dT/d(divisor) matches finite differences to 1e-6 relative.
    Points whose inner argument n/divisor falls in a small log-neighborhood
    of the clamp knot are excluded and counted.  The 9-point stencils of all
    kept points are one kernel evaluation; failures are listed point by
    point (divisor outer, N inner), checks in the order above.
    """
    kernel = kernel or kernel_of(psi)
    if grid_divisor is None:
        grid_divisor = np.linspace(1.02, 1.98, 50)
    if grid_n is None:
        grid_n = np.linspace(0.02, 0.98, 50)
    checked, excluded, failures = _t_convexity_grid(psi, kernel, grid_divisor, grid_n)
    return CheckReport("t-convexity", float(len(failures)), 0.0, not failures,
                       detail={"checked": checked, "excluded": excluded,
                               "failures": failures[:20]})


def _t_convexity_grid(psi: PsiFunction, kernel: BellmanKernel,
                      grid_divisor, grid_n) -> tuple[int, int, list]:
    """(checked, excluded, every failure) of check_t_convexity's grid."""
    grid_divisor = np.asarray(grid_divisor, dtype=np.float64)
    grid_n = np.asarray(grid_n, dtype=np.float64)
    h_rel = 1e-4
    ia, jn = [], []
    for i, a in enumerate(grid_divisor):
        for j, n in enumerate(grid_n):
            if not (abs(math.log(n / a / psi.s0)) < 0.02
                    or abs(math.log(min(n, 1.0) / psi.s0)) < 0.02):
                ia.append(i)
                jn.append(j)
    checked = len(ia)
    excluded = grid_divisor.size * grid_n.size - checked
    a, n = grid_divisor[ia], grid_n[jn]
    ha, hn = h_rel * a, h_rel * n
    da = a + _T_STENCIL[0][:, None] * ha
    dn = n + _T_STENCIL[1][:, None] * hn
    if np.any(da < 1.0 - 1e-9):
        raise ValueError("divisor below 1")
    t0, tap, tam, tnp, tnm, tpp, tpm, tmp, tmm = (
        dn * kernel.G((dn / da).ravel()).reshape(dn.shape))
    taa = (tap - 2 * t0 + tam) / _scalar_squares(h_rel * grid_divisor)[ia]
    tnn = (tnp - 2 * t0 + tnm) / _scalar_squares(h_rel * grid_n)[jn]
    tan = (tpp - tpm - tmp + tmm) / (4 * ha * hn)
    scale = np.abs(taa) + np.abs(tnn) + np.abs(tan) + 1e-30
    tr = taa + tnn
    det = taa * tnn - tan * tan
    eig_min = 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4 * det, 0.0)))
    slope = kernel.dT_ddivisor(a, n)
    # phi(N) once per grid value and on scalars, so its power rounds as above
    bound = n * n / (4.0 * np.array([float(psi.phi(v)) for v in grid_n])[jn])
    fd_slope = (tap - tam) / (2 * ha)
    values = (eig_min, det, -slope - bound, fd_slope - slope)
    failed = np.stack([eig_min < -1e-6 * scale,
                       np.abs(det) > 1e-5 * scale * scale,
                       -slope < bound * (1 - 1e-9),
                       np.abs(fd_slope - slope) > 1e-6 * np.maximum(np.abs(slope), 1e-12)],
                      axis=1)
    failures = [(_T_CHECKS[c], float(a[p]), float(n[p]), float(values[c][p]))
                for p, c in zip(*np.nonzero(failed))]
    return checked, excluded, failures


# ---------------------------------------------------------------------------
# main inequalities of the scalar Bellman function f^2/u
# ---------------------------------------------------------------------------

def _require_normalized(kernel: BellmanKernel) -> None:
    if not kernel.is_normalized:
        raise ValueError("this inequality requires a normalized Psi "
                         "(int 1/phi <= 1 and phi(s) >= s)")


def check_main_ineq_pair(psi: PsiFunction, f1: float, d1: DistributionFunction,
                         f2: float, d2: DistributionFunction,
                         d_mid: DistributionFunction | None = None,
                         kernel: BellmanKernel | None = None,
                         tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Pair convexity gain of f^2/u(N) with constant 1/20.

    (B(f1,u(N1)) + B(f2,u(N2)))/2 - B(f,u(N)) >= (1/20) (f1-f)^2 / n_psi(N)
    for f = (f1+f2)/2, N = (N1+N2)/2.
    """
    kernel = kernel or kernel_of(psi)
    _require_normalized(kernel)
    if d_mid is None:
        d_mid = mix([d1, d2], np.array([0.5, 0.5]))
    fm = 0.5 * (f1 + f2)
    u1, u2, um = kernel.u_of(d1), kernel.u_of(d2), kernel.u_of(d_mid)
    if (u1 <= 0 and f1 != 0) or (u2 <= 0 and f2 != 0):
        raise ValueError("invalid input: u <= 0 with a nonzero f")
    lhs = 0.5 * (scalar_bellman(f1, u1) + scalar_bellman(f2, u2)) \
        - scalar_bellman(fm, um)
    if d_mid.is_zero:
        return CheckReport("main-ineq-pair", lhs, 0.0, lhs >= -tol.slack(lhs),
                           flags=("degenerate",))
    n_val = kernel.n_of(d_mid)
    rhs = PAIR_CONSTANT * (f1 - fm) ** 2 / n_val
    return CheckReport("main-ineq-pair", lhs, rhs,
                       lhs >= rhs - tol.slack(lhs, rhs),
                       ratio=lhs / rhs if rhs > 0 else float("inf"),
                       detail={"n_psi": n_val, "u_mid": um})


def check_main_ineq_npoint(psi: PsiFunction, fs: Sequence[float],
                           dists: Sequence[DistributionFunction],
                           alphas: Sequence[float],
                           d_mix: DistributionFunction | None = None,
                           kernel: BellmanKernel | None = None,
                           tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """n-point convexity gain with constant 1/80.

    -B(f, u(N)) + sum_k alpha_k B(f_k, u(N_k))
        >= (1/80) (sum_k alpha_k |f_k - f|)^2 / n_psi(N)
    under f = sum alpha_k f_k, N = sum alpha_k N_k, sum alpha_k = 1.
    """
    kernel = kernel or kernel_of(psi)
    _require_normalized(kernel)
    alphas = np.asarray(alphas, dtype=np.float64)
    if abs(float(alphas.sum()) - 1.0) > tol.identity:
        raise ValueError("alphas must sum to 1")
    if np.any(alphas < 0):
        raise ValueError("alphas must be nonnegative")
    fbar = float(np.dot(alphas, np.asarray(fs, dtype=np.float64)))
    if d_mix is None:
        d_mix = mix(list(dists), alphas)
    um = kernel.u_of(d_mix)
    lhs = -scalar_bellman(fbar, um)
    for a, f, d in zip(alphas, fs, dists):
        lhs += a * scalar_bellman(f, kernel.u_of(d))
    if d_mix.is_zero:
        return CheckReport("main-ineq-npoint", lhs, 0.0, lhs >= -tol.slack(lhs),
                           flags=("degenerate",))
    n_val = kernel.n_of(d_mix)
    spread = float(np.dot(alphas, np.abs(np.asarray(fs) - fbar)))
    rhs = NPOINT_CONSTANT * spread * spread / n_val
    return CheckReport("main-ineq-npoint", lhs, rhs,
                       lhs >= rhs - tol.slack(lhs, rhs),
                       ratio=lhs / rhs if rhs > 0 else float("inf"),
                       detail={"n_psi": n_val})


def check_paraproduct_step(psi: PsiFunction,
                           f: float, dist: DistributionFunction, m_budget: float,
                           fs: Sequence[float],
                           dists: Sequence[DistributionFunction],
                           m_budgets: Sequence[float],
                           alphas: Sequence[float], a: float,
                           kernel: BellmanKernel | None = None,
                           spot_check_derivative: bool = False,
                           tol: Tolerances = DEFAULT_TOL) -> CheckReport:
    """Paraproduct step inequality with constant 1/16.

    With B~(f, N, M) = f^2 / u(N, M), u(N, M) = 2 w(N) - int T(M+1, N) dt:
    -B~(X) + sum_k alpha_k B~(X_k) >= (1/16) a f^2 / n_psi(N)
    under f = sum alpha_k f_k, N = sum alpha_k N_k, M = a + sum alpha_k M_k.
    """
    kernel = kernel or kernel_of(psi)
    _require_normalized(kernel)
    alphas = np.asarray(alphas, dtype=np.float64)
    if abs(float(alphas.sum()) - 1.0) > tol.identity:
        raise ValueError("alphas must sum to 1")
    if a < 0:
        raise ValueError("a must be >= 0")
    if not -1e-9 <= m_budget <= 1.0 + 1e-9:
        raise ValueError(f"M = {m_budget} outside [0, 1]")
    fsum = float(np.dot(alphas, np.asarray(fs, dtype=np.float64)))
    if abs(fsum - f) > tol.identity * max(1.0, abs(f)):
        raise ValueError("f inconsistent with sum alpha_k f_k")
    msum = a + float(np.dot(alphas, np.asarray(m_budgets, dtype=np.float64)))
    if abs(msum - m_budget) > tol.identity * max(1.0, abs(m_budget)):
        raise ValueError("M inconsistent with a + sum alpha_k M_k")
    lhs = -scalar_bellman(f, kernel.u_of_m(dist, m_budget))
    for al, fk, dk, mk in zip(alphas, fs, dists, m_budgets):
        lhs += al * scalar_bellman(fk, kernel.u_of_m(dk, mk))
    if dist.is_zero:
        return CheckReport("paraproduct-step", lhs, 0.0, lhs >= -tol.slack(lhs),
                           flags=("degenerate",))
    n_val = kernel.n_of(dist)
    rhs = PARAPRODUCT_CONSTANT * a * f * f / n_val
    detail = {"n_psi": n_val}
    flags = []
    if spot_check_derivative and 1e-4 < m_budget < 1.0 - 1e-4:
        h = 1e-5
        bp = scalar_bellman(f, kernel.u_of_m(dist, m_budget + h))
        bm = scalar_bellman(f, kernel.u_of_m(dist, m_budget - h))
        slope = -(bp - bm) / (2 * h)
        target = PARAPRODUCT_CONSTANT * f * f / n_val
        detail["dB_dM"] = slope
        detail["dB_dM_bound"] = target
        if slope < target * (1 - 1e-6) - 1e-12:
            flags.append("derivative bound failed")
    passed = lhs >= rhs - tol.slack(lhs, rhs) and "derivative bound failed" not in flags
    return CheckReport("paraproduct-step", lhs, rhs, passed,
                       ratio=lhs / rhs if rhs > 0 else float("inf"),
                       flags=tuple(flags), detail=detail)
