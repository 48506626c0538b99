import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadembed import (
    ORLICZ_BUDGET_LOG2,
    ROOT,
    ConstructionError,
    CorpusSpec,
    DyadicInterval,
    DyadicWeight,
    check_orlicz_lower_bound,
    corpus_weights,
    gap_example,
    gen_weight,
    luxemburg_norm,
    n_psi,
    psi_closed_form,
    psi_from_phi,
    young_function,
)
from dyadembed.bellman import _PANEL_X
from dyadembed.orlicz import _loglog_clamp_knot


@pytest.fixture(scope="module")
def psi2():
    return psi_closed_form(2.0)


@pytest.fixture(scope="module")
def phi2():
    return young_function("log-bump", 2.0)


# ---------------------------------------------------------------------------
# closed-form Psi families
# ---------------------------------------------------------------------------

def test_psi_alpha2_values(psi2):
    assert psi2.psi(1.0) == 4.0
    assert psi2.psi(math.exp(-4.0)) == pytest.approx(16.0, rel=1e-14)
    assert psi2.psi(math.exp(-2.0)) == pytest.approx(4.0, rel=1e-14)
    assert psi2.k == 1.0  # alpha = 2 needs no normalization scaling


def test_psi_alpha_le_one_rejected():
    with pytest.raises(ConstructionError):
        psi_closed_form(1.0)
    with pytest.raises(ConstructionError):
        psi_closed_form(0.5)


def test_psi_inverse_phi_integral_alpha2(psi2):
    # int_0^1 ds/(s Psi) = 1 exactly, half from each piece; quadrature check
    # in x = log(1/s) with the analytic 1/x tail beyond the truncation
    assert psi2.inverse_phi_integral() == pytest.approx(1.0, abs=1e-14)
    X = 60.0
    xs = np.linspace(0, X, 2_000_001)
    vals = 1.0 / psi2.psi(np.exp(-xs))
    trapz = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    quad = trapz(vals, xs) + 1.0 / X
    assert quad == pytest.approx(1.0, abs=1e-8)


def test_psi_splice_slopes(psi2):
    # s*Psi one-sided slopes at the clamp point are both >= 0
    s0 = psi2.s0
    h = 1e-7
    left = (psi2.phi(s0) - psi2.phi(s0 - h)) / h
    right = (psi2.phi(s0 + h) - psi2.phi(s0)) / h
    assert left >= -1e-9 and right >= -1e-9


def test_psi_monotonicity_grid(psi2):
    s = np.geomspace(1e-13, 1.0, 1500)
    ps = psi2.psi(s)
    assert np.all(np.diff(ps) <= 1e-12)
    ph = s * ps
    assert np.all(np.diff(ph) >= -1e-15)


def test_loglog_clamp_knot_pinned():
    # the loglog-bump certificates at alpha = 2 depend on this value bit for bit
    assert _loglog_clamp_knot(2.0) == 2.886631697760879


def test_loglog_family_admissible():
    psi = psi_closed_form(2.0, family="loglog-bump")
    psi.validate()
    s = np.geomspace(1e-12, 1.0, 500)
    assert np.all(np.diff(psi.psi(s)) <= 1e-12)


@settings(max_examples=150, deadline=None)
@given(st.floats(1e-12, 1.0), st.floats(1e-12, 1.0))
def test_conc1_inequality(s1, s2):
    # midpoint of s*Psi dominates half of either side value
    psi = _PSI_CACHE
    mid = 0.5 * (s1 + s2)
    lhs = mid * float(psi.psi(mid))
    assert lhs >= 0.5 * s1 * float(psi.psi(s1)) * (1 - 1e-12)
    assert lhs >= 0.5 * s2 * float(psi.psi(s2)) * (1 - 1e-12)


_PSI_CACHE = psi_closed_form(2.0)


# ---------------------------------------------------------------------------
# Luxemburg norm
# ---------------------------------------------------------------------------

def test_luxemburg_constant_weight(phi2):
    w = DyadicWeight(4, np.full(16, 3.0))
    expected = 3.0 / phi2.phi_inverse(1.0)
    assert luxemburg_norm(phi2, w, ROOT) == pytest.approx(expected, rel=1e-9)


def test_luxemburg_homogeneity(phi2):
    w = gen_weight(CorpusSpec("random-martingale", 6, (0.4,), 7))
    a = luxemburg_norm(phi2, w.scaled(2.0), ROOT)
    b = luxemburg_norm(phi2, w, ROOT)
    assert a == pytest.approx(2.0 * b, rel=1e-9)


def test_luxemburg_zero_weight(phi2):
    w = DyadicWeight(2, [0.0, 0.0, 1.0, 0.0])
    assert luxemburg_norm(phi2, w, DyadicInterval(1, 0)) == 0.0


def test_luxemburg_spike_vs_dense_oracle(phi2):
    vals = np.zeros(256)
    vals[0] = 2.0 ** 8
    w = DyadicWeight(8, vals)
    got = luxemburg_norm(phi2, w, ROOT)

    # independent fine-grid bisection on the scalar modular equation
    def modular(lam):
        return (1 / 256.0) * float(phi2.phi(256.0 / lam))

    lams = np.geomspace(1e-3, 1e3, 2_000_000)
    vals_mod = (1 / 256.0) * np.asarray(phi2.phi(256.0 / lams))
    idx = int(np.searchsorted(-vals_mod, -1.0))
    oracle = lams[idx]
    assert got == pytest.approx(oracle, rel=1e-5)
    assert modular(got * (1 + 1e-8)) <= 1.0 + 1e-12


def test_luxemburg_dominates_l1(phi2):
    c_phi = 1.0 / phi2.phi_inverse(1.0)
    for entry, w in corpus_weights()[:12]:
        norm = luxemburg_norm(phi2, w, ROOT)
        assert norm >= c_phi * w.average(ROOT) * (1 - 1e-9)


# ---------------------------------------------------------------------------
# parametric construction
# ---------------------------------------------------------------------------

def test_parametric_roundtrip(phi2):
    psi = psi_from_phi(phi2)
    for t in (10.0, 100.0, 1e4, 1e8):
        s = 1.0 / (float(phi2.phi(t)) * float(phi2.dphi(t)))
        assert float(psi.psi(s)) == pytest.approx(float(phi2.dphi(t)), rel=1e-9)


def test_parametric_matches_closed_form_within_factor(phi2, psi2):
    # parametric Psi for t ln^2(e+t) is comparable to (ln 1/s)^2; measured
    # worst factor 4.06 at s = 1e-12 (the loglog correction), budget 4.5
    psi_p = psi_from_phi(phi2)
    for s in np.geomspace(1e-12, psi_p.s0 * 0.5, 40):
        ratio = float(psi_p.psi(s)) / float(psi2.psi(s))
        assert 1 / 4.5 <= ratio <= 4.5


def test_parametric_loglog_comparable():
    phi = young_function("loglog-bump", 2.0)
    psi_p = psi_from_phi(phi)
    psi_c = psi_closed_form(2.0, family="loglog-bump")
    for s in np.geomspace(1e-12, min(psi_p.s0, psi_c.s0) * 0.5, 20):
        ratio = float(psi_p.psi(s)) / float(psi_c.psi(s))
        assert 0.1 <= ratio <= 10.0


def test_parametric_clamp_region(phi2):
    psi = psi_from_phi(phi2)
    assert float(psi.psi(psi.s0 * 2)) == float(psi.psi(1.0))


# ---------------------------------------------------------------------------
# the bump functional
# ---------------------------------------------------------------------------

def test_n_psi_constant_weight(psi2):
    w = DyadicWeight(3, np.ones(8))
    assert n_psi(psi2, w.distribution(ROOT)) == pytest.approx(4.0, rel=1e-14)
    wc = DyadicWeight(3, np.full(8, 2.5))
    assert n_psi(psi2, wc.distribution(ROOT)) == pytest.approx(2.5 * 4.0, rel=1e-14)


def test_n_psi_spike_closed_form(psi2):
    n = 10
    vals = np.zeros(2 ** n)
    vals[0] = 2.0 ** n
    w = DyadicWeight(n, vals)
    for k in (0, 2, 5):
        d = w.distribution(DyadicInterval(k, 0))
        expected = 2.0 ** k * float(psi2.psi(2.0 ** (k - n)))
        assert n_psi(psi2, d) == pytest.approx(expected, rel=1e-13)


def test_n_psi_zero_distribution(psi2):
    w = DyadicWeight(2, [0.0, 0.0, 1.0, 1.0])
    assert n_psi(psi2, w.distribution(DyadicInterval(1, 0))) == 0.0


def test_n_psi_midpoint_doubling(psi2):
    # n(N_I) >= n(N_child)/2 at every node: consequence of the midpoint bound
    w = gen_weight(CorpusSpec("random-martingale", 7, (0.5,), 21))
    for lev in range(7):
        for idx in range(0, 2 ** lev, max(1, 2 ** lev // 4)):
            i = DyadicInterval(lev, idx)
            parent = n_psi(psi2, w.distribution(i))
            for child in i.children():
                assert parent >= 0.5 * n_psi(psi2, w.distribution(child)) * (1 - 1e-12)


# ---------------------------------------------------------------------------
# lower-bound lemma and the gap
# ---------------------------------------------------------------------------

def test_lower_bound_constant_weight(phi2, psi2):
    w = DyadicWeight(4, np.ones(16))
    rep = check_orlicz_lower_bound(phi2, psi2, w, ROOT, ORLICZ_BUDGET_LOG2)
    assert rep.passed
    assert rep.ratio == pytest.approx(4.0 * phi2.phi_inverse(1.0), rel=1e-6)


def test_lower_bound_scale_invariant(phi2, psi2):
    w = gen_weight(CorpusSpec("random-martingale", 6, (0.3,), 9))
    r1 = check_orlicz_lower_bound(phi2, psi2, w, ROOT, ORLICZ_BUDGET_LOG2).ratio
    r2 = check_orlicz_lower_bound(phi2, psi2, w.scaled(2.0), ROOT, ORLICZ_BUDGET_LOG2).ratio
    assert r1 == pytest.approx(r2, rel=1e-8)


def test_lower_bound_corpus_budget(phi2, psi2):
    worst = 0.0
    for entry, w in corpus_weights():
        rep = check_orlicz_lower_bound(phi2, psi2, w, ROOT, ORLICZ_BUDGET_LOG2)
        assert rep.passed, entry.spec.label
        worst = max(worst, rep.ratio)
    assert worst <= ORLICZ_BUDGET_LOG2


def test_gap_example_decreasing_in_depth(psi2):
    phi10 = young_function("log-bump", 10.0)
    ratios = [gap_example(psi2, phi10, d).ratio for d in (10, 12, 14)]
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[1] <= 0.1


def test_gap_plateau_control(psi2):
    # plateau-only weight: ratio bounded below by a positive constant
    phi10 = young_function("log-bump", 10.0)
    w = DyadicWeight(10, np.ones(2 ** 10))
    ratio = n_psi(psi2, w.distribution(ROOT)) / luxemburg_norm(phi10, w, ROOT)
    assert ratio > 1.0


def test_gap_spike_only_vanishes(psi2):
    phi10 = young_function("log-bump", 10.0)
    prev = float("inf")
    for d in (10, 12, 14):
        vals = np.zeros(2 ** d)
        vals[0] = 2.0 ** d
        w = DyadicWeight(d, vals)
        ratio = n_psi(psi2, w.distribution(ROOT)) / luxemburg_norm(phi10, w, ROOT)
        assert ratio < prev
        prev = ratio
    assert prev < 0.05


def test_gap_pair_satisfies_lemma_hypothesis(psi2):
    # Psi(s) <= C Phi'(t) at s = 1/(Phi Phi') for the mismatched gap pair
    phi10 = young_function("log-bump", 10.0)
    for t in np.geomspace(10, 1e10, 50):
        s = 1.0 / (float(phi10.phi(t)) * float(phi10.dphi(t)))
        assert float(psi2.psi(s)) <= 1.0 * float(phi10.dphi(t))


def test_young_function_tail_finite():
    for fam, alpha in (("log-bump", 2.0), ("log-bump", 3.0), ("loglog-bump", 2.0)):
        yf = young_function(fam, alpha)
        assert yf.tail_integral() < float("inf")
    with pytest.raises(ConstructionError):
        young_function("log-bump", 1.0)


def test_log_bump_tail_integral_at_the_parametric_tail():
    # the parametric kernel reads tail_integral at the t with Phi Phi' =
    # exp(_PANEL_X), 2.7e19 for alpha = 2.  There the log-bump closed form
    # equals int_t^inf dt/Phi to rounding: with x = ln(e+t), dt/Phi is
    # x^-a (1 + e/t) dx, integrated by 30-digit quadrature
    yf = young_function("log-bump", 2.0)
    t0 = float(yf.phi_dphi_inverse(math.exp(_PANEL_X)))
    assert 2.7e19 < t0 < 2.8e19
    with mp.workdps(30):
        e = mp.e
        x0 = mp.log(e + mp.mpf(t0))
        exact = mp.quad(lambda x: x ** -2 * (1 + e / (mp.exp(x) - e)),
                        [x0, x0 + 1, x0 + 10, x0 + 100, mp.inf])
    assert abs(yf.tail_integral(t0) - float(exact)) <= 1e-15 * float(exact)
