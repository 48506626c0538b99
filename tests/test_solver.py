"""The shared monotone root-finder against scipy's bracketing solver.

`orlicz._bisect` serves every solve in the package: Phi^{-1}, the parametric
map t(s) of Phi Phi' = 1/s (for Psi and for the G-grid tail at x = 60), the
loglog clamp knot and the Luxemburg norm.  Each must agree with
`scipy.optimize.elementwise.find_root`, run to its tightest x tolerance, to
1e-14 relative.  scipy.optimize is imported here only, never in the package.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadembed import (
    ROOT,
    DyadicWeight,
    luxemburg_norm,
    psi_from_phi,
    young_function,
)
from dyadembed.orlicz import _bisect, _loglog_clamp_knot

find_root = pytest.importorskip("scipy.optimize.elementwise").find_root

REL = 1e-14
FAMILIES = ("log-bump", "loglog-bump")


def oracle(f, target, lo, hi):
    """Root of f(x) = target in [lo, hi] by Chandrupatla, x tolerance only."""
    lo, hi, target = np.broadcast_arrays(lo, hi, target)
    res = find_root(lambda x, y: f(x) - y, (lo, hi), args=(target,),
                    tolerances=dict(xatol=0.0, fatol=0.0, frtol=0.0))
    assert np.all(res.success)
    return res.x


def assert_rel(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert np.all(np.abs(got - want) <= REL * np.abs(want)), (got, want)


# ---------------------------------------------------------------------------
# random monotone functions
# ---------------------------------------------------------------------------

@st.composite
def monotone(draw):
    """x -> sum_k c_k x^p_k + b log(1 + x): increasing on (0, inf)."""
    n = draw(st.integers(1, 3))
    c = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    p = np.array(draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n)))
    b = draw(st.floats(0.0, 5.0))
    return lambda x: (c * np.asarray(x)[..., None] ** p).sum(-1) + b * np.log1p(x)


@settings(max_examples=60, deadline=None)
@given(monotone(), st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=8))
def test_random_monotone_functions(f, log_roots):
    target = f(10.0 ** np.array(log_roots))
    lo, hi = 1e-6, 1e6
    assert_rel(_bisect(f, target, lo, hi), oracle(f, target, lo, hi))


def test_result_is_the_left_end_of_the_level_set():
    # a step function: every x >= 2 solves f(x) >= 1; the solver returns 2
    f = lambda x: (np.asarray(x) >= 2.0).astype(float)
    assert float(_bisect(f, 1.0, 1e-300, 1e300)) == 2.0
    assert _bisect(f, np.ones((2, 3)), 1.0, 8.0).shape == (2, 3)


# ---------------------------------------------------------------------------
# the former call sites
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FAMILIES), st.floats(1.2, 6.0),
       st.lists(st.floats(1e-3, 60.0), min_size=1, max_size=8))
def test_phi_dphi_inverse(family, alpha, log_y):
    # Phi Phi' = y above its value at t_min; Phi(t) Phi'(t) >= t brackets the
    # root by y
    phi = young_function(family, alpha)
    f = lambda t: phi.phi(t) * phi.dphi(t)
    y = f(phi.t_min) * np.exp(np.array(log_y))
    assert_rel(phi.phi_dphi_inverse(y), oracle(f, y, phi.t_min, y))


@pytest.mark.parametrize("family", FAMILIES)
def test_phi_dphi_inverse_at_the_grid_tail(family):
    # the G grid's analytic tail starts where Phi Phi' = e^60
    phi = young_function(family, 2.0)
    y = math.exp(60.0)
    f = lambda t: phi.phi(t) * phi.dphi(t)
    assert_rel(phi.phi_dphi_inverse(y), oracle(f, y, phi.t_min, y))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FAMILIES), st.floats(1.2, 6.0),
       st.lists(st.floats(1e-3, 60.0), min_size=1, max_size=8))
def test_parametric_psi(family, alpha, log_s0_over_s):
    # Psi(s) = Phi'(t(s)) below the clamp point s0 = s(t_min)
    phi = young_function(family, alpha)
    psi = psi_from_phi(phi)
    s = psi.s0 * np.exp(-np.array(log_s0_over_s))
    f = lambda t: phi.phi(t) * phi.dphi(t)
    t = oracle(f, 1.0 / s, phi.t_min, 1.0 / s)
    assert_rel(psi.psi_raw(s), phi.dphi(t))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FAMILIES), st.floats(1.2, 6.0), st.floats(-30.0, 30.0))
def test_phi_inverse(family, alpha, log_y):
    # Phi(t) >= t, so [0, y] brackets Phi(t) = y
    phi = young_function(family, alpha)
    y = math.exp(log_y)
    assert_rel(phi.phi_inverse(y), oracle(phi.phi, y, 0.0, y))


@settings(max_examples=40, deadline=None)
@given(st.floats(1.01, 50.0))
def test_loglog_clamp_knot(alpha):
    # (x - 1) ln x >= x - 1 for x >= e, so the root lies below alpha + e
    f = lambda x: (x - 1.0) * np.log(x)
    assert_rel(_loglog_clamp_knot(alpha), oracle(f, alpha, 1.0, alpha + math.e))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FAMILIES), st.floats(1.2, 6.0), st.integers(1, 6),
       st.integers(0, 1000))
def test_luxemburg_norm(family, alpha, depth, seed):
    # modular(lam) decreases from > 1 at <w>/Phi^{-1}(1) / 2 (Jensen) to
    # < 1 at 2 max(w)/Phi^{-1}(1)
    phi = young_function(family, alpha)
    rng = np.random.default_rng(seed)
    values = rng.choice([0.0, 1.0], 2 ** depth, p=[0.3, 0.7]) * 10.0 ** rng.uniform(-3, 3, 2 ** depth)
    values[0] = 1.0
    w = DyadicWeight(depth, values)
    dist = w.distribution(ROOT)
    vals = dist.thresholds
    mass = dist.survival - np.append(dist.survival[1:], 0.0)
    modular = lambda lam: phi.phi(vals / np.asarray(lam)[..., None]) @ mass
    c = phi.phi_inverse(1.0)
    lo, hi = 0.5 * w.average(ROOT) / c, 2.0 * vals[-1] / c
    assert_rel(luxemburg_norm(phi, w, ROOT), oracle(lambda lam: -modular(lam), -1.0, lo, hi))
