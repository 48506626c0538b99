import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from dyadembed import (
    ROOT,
    BellmanKernel,
    CorpusSpec,
    DyadicInterval,
    DyadicWeight,
    bellman_potential,
    build_profile,
    check_embed_step,
    check_main_ineq_npoint,
    check_main_ineq_pair,
    check_paraproduct_step,
    check_pde_step,
    check_t_convexity,
    gen_carleson_sequence,
    gen_test_function,
    gen_weight,
    mix,
    n_psi,
    normalized_psi,
    psi_closed_form,
    psi_from_phi,
    scalar_bellman,
    spike_weight,
    young_function,
)
from dyadembed import bellman
from dyadembed.orlicz import ConstructionError


@pytest.fixture(scope="module")
def psi2():
    return psi_closed_form(2.0)


@pytest.fixture(scope="module")
def kernel2(psi2):
    return BellmanKernel(psi2)


def mp_B(psi, s, dps=40, X=500):
    """High-precision oracle for B(s) = int_0^s (s - t)/phi(t) dt.

    Integrates in x = log(1/t) to a large finite cutoff and adds the
    elementary tail of int dx/Psi (the dropped e^-x part is < e^-X).
    """
    mp.mp.dps = dps
    sm = mp.mpf(s)
    a = mp.mpf(psi.alpha)
    x0 = mp.log(1 / mp.mpf(psi.s0))
    xs = mp.log(1 / sm)
    if psi.mode == "clamped-log":
        psi_x = lambda x: (x ** a if x >= x0 else mp.mpf(psi.clamp_value))
        tail = X ** (1 - a) / (a - 1)
    else:
        psi_x = lambda x: (x * mp.log(x) ** a if x >= x0 else mp.mpf(psi.clamp_value))
        tail = mp.log(X) ** (1 - a) / (a - 1)
    f = lambda x: (sm - mp.e ** (-x)) / psi_x(x)
    pts = sorted({float(xs), float(x0), float(X)})
    pts = [mp.mpf(p) for p in pts if p >= float(xs)]
    return float((mp.quad(f, pts) + sm * tail) / mp.mpf(psi.k))


# ---------------------------------------------------------------------------
# kernel closed forms
# ---------------------------------------------------------------------------

def test_bprime_one_is_one(kernel2):
    assert kernel2.C == pytest.approx(1.0, abs=1e-15)


def test_B_against_mpmath(psi2, kernel2):
    for s in (0.01, 0.1, 0.3, 0.9, 1.0):
        assert float(kernel2.B(s)) == pytest.approx(mp_B(psi2, s), rel=1e-12)


def test_B_noninteger_alpha_against_mpmath():
    psi = psi_closed_form(2.5)
    kernel = BellmanKernel(psi)
    for s in (0.02, 0.2, 0.8):
        assert float(kernel.B(s)) == pytest.approx(mp_B(psi, s), rel=1e-9)


def test_B_loglog_against_mpmath():
    psi = psi_closed_form(2.0, family="loglog-bump")
    kernel = BellmanKernel(psi)
    for s in (0.01, 0.3):
        assert float(kernel.B(s)) == pytest.approx(mp_B(psi, s), rel=1e-9)


def test_H_loglog_against_mpmath():
    # the panel-backed H below the clamp knot, int_x^inf e^-y / (y ln(y)^a)
    # dy at x = log(1/s), and its linear piece above, against 40 digits
    mp.mp.dps = 40
    psi = psi_closed_form(2.0, family="loglog-bump")
    kernel = BellmanKernel(psi)
    s0, a = psi.s0, mp.mpf(psi.alpha)
    s = np.concatenate([np.geomspace(2.0 ** -30, 1.0, 17), [s0, np.nextafter(s0, 0.0), 0.5]])

    def below(x):
        return mp.quad(lambda y: mp.exp(-y) / (y * mp.log(y) ** a),
                       [x, x + 1, x + 8, x + 40, mp.inf])

    h0 = below(mp.log(1 / mp.mpf(s0)))
    ref = [(below(mp.log(1 / mp.mpf(v))) if v < s0
            else h0 + (mp.mpf(v) - mp.mpf(s0)) / mp.mpf(psi.clamp_value)) / mp.mpf(psi.k)
           for v in s]
    got = kernel.H(s)
    for v, want, g in zip(s, ref, got):
        assert float(g) == pytest.approx(float(want), rel=4e-15), v


_FAMILIES = {
    "log-bump": psi_closed_form(2.0),
    "loglog-bump": psi_closed_form(2.0, "loglog-bump"),
    "parametric": normalized_psi(psi_from_phi(young_function("log-bump", 2.0))),
}


@pytest.mark.parametrize("family", _FAMILIES)
def test_kernel_value_depends_on_its_point_alone(family):
    # G, H and B give each of many points the bits it has alone inside
    # arrays of 1 to 2^17 points (2^12 for the slower parametric kernel), at
    # the start, in the middle and in the trailing rows; a 2-d input gets
    # the values of its raveled points
    psi = _FAMILIES[family]
    kernel = BellmanKernel(psi)
    rng = np.random.default_rng(5)
    top, count = (12, 100) if family == "parametric" else (17, 1000)
    probes = np.concatenate([[psi.s0, np.nextafter(psi.s0, 0.0), 0.5 * psi.s0, 1.0, 0.0],
                             np.exp(-rng.uniform(0.0, 40.0, count))])
    for name in "GHB":
        fn = getattr(kernel, name)
        alone = np.array([fn(np.array([p]))[0] for p in probes]).view(np.int64)
        for n in 2 ** np.arange(top + 1):
            fill = np.exp(-rng.uniform(0.0, 40.0, n))
            chunk = min(n, probes.size)
            places = sorted({0, (n - chunk) // 2, n - chunk})
            # one array holds all three places once they do not overlap
            for group in [places] if n >= 3 * chunk else [[at] for at in places]:
                x = fill.copy()
                for at in group:
                    x[at:at + chunk] = probes[:chunk]
                got = fn(x).view(np.int64)
                for at in group:
                    assert np.array_equal(got[at:at + chunk], alone[:chunk]), (name, n, at)
        grid = probes[:21].reshape(3, 7)
        assert np.array_equal(fn(grid).view(np.int64),
                              fn(grid.ravel()).reshape(grid.shape).view(np.int64))


def _en_points() -> np.ndarray:
    """x in [2, 745]: a log grid, the slow-convergence range near 2, the
    integers, and the table's octave and piece edges with their neighbours."""
    rng = np.random.default_rng(7)
    edges = np.array([2.0 ** e * (1 + j / 32) for e in range(1, 10) for j in range(0, 32, 5)])
    return np.concatenate([np.geomspace(2.0, 745.0, 61), rng.uniform(2.0, 8.0, 20),
                           np.arange(2.0, 8.0), edges, np.nextafter(edges, 0.0),
                           [745.0]])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 17])
def test_expn_against_mpmath(n):
    # E_n relative to 3e-15 wherever it is a normal float, within two
    # subnormal spacings beyond (x > 708); the tabulated x e^x E_n(x) to
    # 3e-15 on [2, 745] and on the asymptotic-series range above the table
    mp.mp.dps = 50
    x = _en_points()
    got = bellman._expn(n, x)
    ref = np.array([float(mp.expint(n, mp.mpf(v))) for v in x])
    normal = ref >= np.finfo(float).tiny
    assert normal.sum() > 100 and (~normal).any()
    rel = np.abs(got[normal] - ref[normal]) / ref[normal]
    assert rel.max() <= 3e-15
    assert np.all(np.abs(got[~normal] - ref[~normal]) <= 1e-323)
    xs = np.concatenate([x, [1023.9, 1024.0, 1500.0, 4096.0, 1e6, 1e300]])
    scaled = bellman._expn_table(n)(xs)
    ref = np.array([float(mp.mpf(v) * mp.exp(mp.mpf(v)) * mp.expint(n, mp.mpf(v)))
                    for v in xs])
    assert (np.abs(scaled - ref) / ref).max() <= 3e-15
    assert np.all(bellman._expn(n, np.array([np.inf])) == 0.0)
    assert np.all(bellman._expn(n, np.full(40, np.inf)) == 0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_expn_against_scipy(n):
    expn = pytest.importorskip("scipy.special").expn
    x = _en_points()
    x = x[x <= 700.0]   # scipy's expn returns 0 beyond x = 709.78
    ref = expn(n, x)
    assert (np.abs(bellman._expn(n, x) - ref) / ref).max() <= 4e-15


def test_expn_short_arrays_bit_equal_to_long():
    # arrays up to _EN_SMALL points are evaluated point by point in Python
    # floats; every size around the cutoff gives the bits of one long array
    rng = np.random.default_rng(11)
    top = bellman._expn_table(2).top
    x = np.concatenate([rng.uniform(2.0, 8.0, 60), np.geomspace(2.0, 3 * top, 60),
                        [np.inf, top, np.nextafter(top, 0.0)]])
    rng.shuffle(x)
    assert x.size > bellman._EN_SMALL
    for n in (2, 3):
        whole = bellman._expn(n, x)
        for size in range(bellman._EN_SMALL - 2, bellman._EN_SMALL + 3):
            parts = np.concatenate([bellman._expn(n, x[i:i + size])
                                    for i in range(0, x.size, size)])
            assert np.array_equal(parts, whole)
        assert bellman._expn(n, x[:0]).shape == (0,)


def test_expn_rejects_x_below_one():
    for x in ([0.5], [np.nan], [-5.0], [2.0] * 40 + [0.5], [2.0] * 40 + [np.nan],
              [2.0] * 40 + [-5.0]):
        with pytest.raises(ValueError):
            bellman._expn(2, np.array(x))


@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_H_at_knot_below_and_zero(alpha):
    # H = x^(1-alpha) E_alpha(x) / k, x = log(1/s), up to the knot s0; the
    # linear piece above starts from the same value, and H(0) = 0
    mp.mp.dps = 50
    psi = psi_closed_form(alpha)
    kernel = BellmanKernel(psi)
    s0 = psi.s0
    below = np.nextafter(s0, 0.0)
    for s in (s0, below, 0.5 * s0):
        x = mp.log(1 / mp.mpf(s))
        ref = x ** (1 - int(alpha)) * mp.expint(int(alpha), x) / mp.mpf(psi.k)
        assert float(kernel.H(s)) == pytest.approx(float(ref), rel=3e-15)
    assert float(kernel.H(below)) <= float(kernel.H(s0))
    assert kernel.H(0.0) == 0.0
    h0 = kernel._h0
    assert np.array_equal(kernel.H(np.array([0.0, s0, 1.0])),
                          [0.0, h0 / psi.k, (h0 + (1.0 - s0) / psi.clamp_value) / psi.k])


def test_B_endpoint_limits(kernel2):
    assert float(kernel2.B(1e-15)) < 1e-13
    assert float(kernel2.G(1e-15)) < 0.05  # 1/log(1/s) -> 0


# block-sized arrays that B holds beside its output: 20.8 measured for
# log-bump, 93.7 for loglog-bump, whose H below the clamp knot evaluates a
# 12-node panel rule at every point
_B_TEMPORARY_BLOCKS = {"log-bump": 24, "loglog-bump": 100}


@pytest.mark.parametrize("family", ["log-bump", "loglog-bump"])
def test_B_on_a_whole_grid_holds_few_temporaries(family, monkeypatch):
    # B on the survival grid of a depth-20 tree, as d-embed evaluates it:
    # the kernel runs in blocks of _KERNEL_BLOCK points, so beside its
    # output it holds the temporaries of one block, whatever the grid: 1.33
    # and 2.46 times the output here, where one evaluation of the whole
    # grid held 4.0 times it
    kernel = BellmanKernel(psi_closed_form(2.0, family))
    m = 2 ** 20
    grid = (m - np.arange(m)) / m
    sample = grid[::997]
    want = kernel.B(sample)     # builds the kernel's tables
    tracemalloc.start()
    try:
        out = kernel.B(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + _B_TEMPORARY_BLOCKS[family] * 8 * bellman._KERNEL_BLOCK
    # the blocks give the bits of one evaluation of the whole grid, and any
    # shape the values of its points
    monkeypatch.setattr(bellman, "_KERNEL_BLOCK", 2 ** 30)
    assert np.array_equal(out.view(np.int64), kernel.B(grid).view(np.int64))
    assert np.array_equal(kernel.B(np.stack((sample, sample[::-1]))), [want, want[::-1]])


def test_B_convexity_chords(kernel2):
    rng = np.random.default_rng(0)
    s = np.sort(rng.uniform(1e-6, 1.0, (10_000, 3)), axis=1)
    b = np.asarray(kernel2.B(s.ravel())).reshape(s.shape)
    lam = (s[:, 1] - s[:, 0]) / (s[:, 2] - s[:, 0])
    chord = (1 - lam) * b[:, 0] + lam * b[:, 2]
    assert np.all(b[:, 1] <= chord + 1e-12)


def test_second_derivative_matches_U(kernel2):
    for s in (1e-6, 1e-3, 0.05, 0.4, 0.9):
        if abs(math.log(s / kernel2.psi.s0)) < 0.05:
            continue
        h = 2e-3 * s
        d1 = (float(kernel2.B(s + h)) - 2 * float(kernel2.B(s))
              + float(kernel2.B(s - h))) / h ** 2
        h2 = h / 2
        d2 = (float(kernel2.B(s + h2)) - 2 * float(kernel2.B(s))
              + float(kernel2.B(s - h2))) / h2 ** 2
        rich = (4 * d2 - d1) / 3
        assert rich == pytest.approx(float(kernel2.U(s)), rel=1e-8)


def test_profile_builds_and_m_invariants(psi2):
    prof = build_profile(psi2)
    assert prof.C == pytest.approx(1.0)
    mprof = build_profile(psi2, "m")
    assert np.all(mprof.Bprime <= 1.0 + 1e-10)
    assert np.all(mprof.B <= mprof.grid + 1e-10)
    # the tabulated values are B on the grid: an independent mpmath
    # evaluation at a few grid points in [0.01, 1]
    for i in (1750, 1900, prof.grid.size - 1):
        assert prof.B[i] == pytest.approx(mp_B(psi2, prof.grid[i]), rel=1e-12)


def test_m_profile_requires_normalized():
    psi = psi_closed_form(2.0, normalize=False)
    # alpha = 2 is already normalized, so force a failure with alpha = 1.5 raw
    psi_raw = psi_closed_form(1.5, normalize=False)
    with pytest.raises(ConstructionError):
        build_profile(psi_raw, "m")
    build_profile(psi_closed_form(1.5), "m")  # normalized version works


# ---------------------------------------------------------------------------
# script-B potential
# ---------------------------------------------------------------------------

def test_potential_constant_weight(psi2, kernel2):
    w = DyadicWeight(3, np.ones(8))
    assert bellman_potential(w, ROOT, psi2) == pytest.approx(float(kernel2.B(1.0)))
    wc = DyadicWeight(3, np.full(8, 2.0))
    assert bellman_potential(wc, ROOT, psi2) == pytest.approx(2 * float(kernel2.B(1.0)))


def test_potential_spike(psi2, kernel2):
    n = 8
    w = spike_weight(n)
    for k in (0, 3):
        val = bellman_potential(w, DyadicInterval(k, 0), psi2)
        assert val == pytest.approx(2.0 ** n * float(kernel2.B(2.0 ** (k - n))), rel=1e-12)


# ---------------------------------------------------------------------------
# pde step
# ---------------------------------------------------------------------------

def test_pde_step_symmetric_children(psi2):
    w = DyadicWeight(3, [2, 1, 1, 2, 2, 1, 1, 2.0])
    res = check_pde_step(w, ROOT, psi2)
    assert res.passed
    assert res.gain >= -1e-12
    assert res.stage2 == 0.0  # haar difference vanishes


def test_pde_step_two_cell_closed_form(psi2, kernel2):
    # w = 2 on the left half: both bound stages equal 1/16 for alpha = 2
    w = DyadicWeight(1, [2.0, 0.0])
    res = check_pde_step(w, ROOT, psi2)
    assert res.passed
    assert res.stage1 == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert res.stage2 == pytest.approx(1.0 / 16.0, rel=1e-12)
    expected_gain = float(kernel2.B(1.0)) - 2 * float(kernel2.B(0.5))
    assert res.gain == pytest.approx(expected_gain, rel=1e-12)
    assert "zero child" in res.flags


def test_pde_step_corpus_sweep(psi2):
    kernel = BellmanKernel(psi2)
    rng = np.random.default_rng(10)
    checked = 0
    for trial in range(25):
        depth = int(rng.integers(3, 9))
        kind = ["random-martingale", "spike", "lacunary"][trial % 3]
        params = {"random-martingale": (0.7,), "spike": (), "lacunary": (0.3,)}[kind]
        w = gen_weight(CorpusSpec(kind, depth, params, trial))
        for lev in range(depth):
            for idx in range(2 ** lev):
                i = DyadicInterval(lev, idx)
                if w.is_zero_on(i):
                    continue
                res = check_pde_step(w, i, psi2, kernel)
                assert res.passed, (kind, depth, lev, idx)
                checked += 1
    assert checked > 1000


# ---------------------------------------------------------------------------
# T function
# ---------------------------------------------------------------------------

def test_T_vanishes_at_zero(kernel2):
    for a in (1.0, 1.5, 2.0):
        assert float(kernel2.T(a, 1e-300)) == pytest.approx(0.0, abs=1e-250)


def test_T_bounded_by_CN(kernel2):
    for a in (1.0, 1.3, 2.0):
        for n in (0.1, 0.5, 1.0):
            assert 0.0 <= float(kernel2.T(a, n)) <= kernel2.C * n + 1e-15


def test_T_slope_lower_bound(psi2, kernel2):
    # -dT/d(divisor) >= N^2/(4 phi(N)) across the embed range
    for a in (1.0, 1.5, 2.0):
        for n in (0.1, 0.5, 0.9):
            lhs = -float(kernel2.dT_ddivisor(a, n))
            rhs = n * n / (4 * float(psi2.phi(n)))
            assert lhs >= rhs * (1 - 1e-12)


def test_t_convexity_grid(psi2):
    rep = check_t_convexity(psi2)
    assert rep.passed, rep.detail["failures"]
    assert rep.detail["checked"] >= 2000


def test_t_convexity_loglog():
    rep = check_t_convexity(psi_closed_form(2.0, family="loglog-bump"))
    assert rep.passed, rep.detail["failures"]


def _t_convexity_loop(psi, grid_divisor, grid_n, kernel):
    """Per-point T-convexity pass: the oracle of the whole-grid pass."""
    h_rel = 1e-4
    excluded = 0
    checked = 0
    failures = []
    for a in grid_divisor:
        for n in grid_n:
            u_in = n / a
            if abs(math.log(u_in / psi.s0)) < 0.02 or abs(math.log(min(n, 1.0) / psi.s0)) < 0.02:
                excluded += 1
                continue
            ha = h_rel * a
            hn = h_rel * n
            T = lambda aa, nn: float(kernel.T(aa, nn))
            t0 = T(a, n)
            taa = (T(a + ha, n) - 2 * t0 + T(a - ha, n)) / ha**2
            tnn = (T(a, n + hn) - 2 * t0 + T(a, n - hn)) / hn**2
            tan = (T(a + ha, n + hn) - T(a + ha, n - hn)
                   - T(a - ha, n + hn) + T(a - ha, n - hn)) / (4 * ha * hn)
            checked += 1
            scale = abs(taa) + abs(tnn) + abs(tan) + 1e-30
            tr = taa + tnn
            det = taa * tnn - tan * tan
            eig_min = 0.5 * (tr - math.sqrt(max(tr * tr - 4 * det, 0.0)))
            if eig_min < -1e-6 * scale:
                failures.append(("psd", a, n, eig_min))
            if abs(det) > 1e-5 * scale * scale:
                failures.append(("monge-ampere", a, n, det))
            slope = float(kernel.dT_ddivisor(a, n))
            bound = n * n / (4.0 * float(psi.phi(n)))
            if -slope < bound * (1 - 1e-9):
                failures.append(("slope-bound", a, n, -slope - bound))
            fd_slope = (T(a + ha, n) - T(a - ha, n)) / (2 * ha)
            if abs(fd_slope - slope) > 1e-6 * max(abs(slope), 1e-12):
                failures.append(("slope-fd", a, n, fd_slope - slope))
    return checked, excluded, failures


class _WavyKernel(BellmanKernel):
    """G with a small ripple and a too-shallow analytic slope, so that every
    T-convexity check kind fails somewhere."""

    def G(self, s):
        return super().G(s) + 1e-3 * np.sin(40.0 * np.asarray(s))

    def dT_ddivisor(self, divisor, s):
        return 0.3 * super().dT_ddivisor(divisor, s)


@pytest.mark.parametrize("family", ["log-bump", "loglog-bump"])
@pytest.mark.parametrize("case", ["default", "knot", "wavy"])
def test_t_convexity_matches_scalar_loop(family, case):
    from dyadembed.bellman import _t_convexity_grid

    psi = psi_closed_form(2.0, family=family)
    kernel = BellmanKernel(psi)
    grid_a = np.linspace(1.02, 1.98, 50)
    grid_n = np.linspace(0.02, 0.98, 50)
    if case == "knot":  # n and n/divisor sweep through the clamp knot s0
        grid_a = np.linspace(1.01, 1.99, 13)
        grid_n = psi.s0 * np.geomspace(0.5, 4.0, 40)
    elif case == "wavy":
        # grid values where a scalar power (libm pow) and numpy's array square
        # round differently: (1e-4 * divisor)**2 at index 3 of 17 points,
        # (1e-4 * n)**2 at index 20 of 52 and log-bump phi(n) at index 4 of 158
        kernel = _WavyKernel(psi)
        grid_a = np.linspace(1.02, 1.98, 17)
        grid_n = np.append(np.linspace(0.02, 0.98, 52), np.linspace(0.02, 0.98, 158)[4])
    checked, excluded, failures = _t_convexity_loop(psi, grid_a, grid_n, kernel)
    rep = check_t_convexity(psi, grid_a, grid_n, kernel=kernel)
    assert _t_convexity_grid(psi, kernel, grid_a, grid_n) == (checked, excluded, failures)
    assert rep.passed == (not failures)
    assert rep.lhs == len(failures)
    assert rep.detail == {"checked": checked, "excluded": excluded,
                          "failures": failures[:20]}
    assert all(type(v) is float for f in rep.detail["failures"] for v in f[1:])
    if case == "default":
        assert not failures
    if case == "knot":
        assert excluded > 0
    if case == "wavy":
        assert {f[0] for f in failures} == {"psd", "monge-ampere", "slope-bound",
                                            "slope-fd"}
        assert len(failures) > 20


# ---------------------------------------------------------------------------
# u functionals
# ---------------------------------------------------------------------------

def test_u_of_unit_weight(kernel2):
    w = DyadicWeight(3, np.ones(8))
    d = w.distribution(ROOT)
    val = kernel2.u_of(d)
    assert val == pytest.approx(2.0 - float(kernel2.B(1.0)))
    assert 1.0 <= val <= 2.0


def test_u_of_m_monotone_nondecreasing(kernel2):
    w = gen_weight(CorpusSpec("random-martingale", 6, (0.4,), 3))
    d = w.distribution(ROOT)
    vals = [kernel2.u_of_m(d, m) for m in np.linspace(0, 1, 11)]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    wv = d.layer_cake()
    assert all(wv - 1e-12 <= v <= 2 * wv + 1e-12 for v in vals)


def test_u_between_w_and_2w(kernel2):
    for trial in range(10):
        w = gen_weight(CorpusSpec("random-martingale", 5, (0.6,), trial))
        d = w.distribution(ROOT)
        wv = d.layer_cake()
        val = kernel2.u_of(d)
        assert wv - 1e-12 <= val <= 2 * wv + 1e-12


# ---------------------------------------------------------------------------
# scalar Bellman inequalities
# ---------------------------------------------------------------------------

def test_scalar_bellman_perspective():
    assert scalar_bellman(0.0, 0.0) == 0.0
    assert scalar_bellman(2.0, 4.0) == 1.0
    with pytest.raises(ValueError):
        scalar_bellman(1.0, 0.0)


def test_pair_trivial_equal_inputs(psi2):
    w = gen_weight(CorpusSpec("random-martingale", 5, (0.3,), 4))
    d = w.distribution(ROOT)
    rep = check_main_ineq_pair(psi2, 0.7, d, 0.7, d, d)
    assert rep.passed
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.rhs == 0.0


def test_pair_equal_distributions_f_convexity(psi2):
    # N1 = N2: the gain is the exact quadratic (df)^2/u and u <= 2n
    w = gen_weight(CorpusSpec("random-martingale", 5, (0.3,), 6))
    d = w.distribution(ROOT)
    f1, f2 = 1.4, -0.6
    rep = check_main_ineq_pair(psi2, f1, d, f2, d, d)
    assert rep.passed
    kernel = BellmanKernel(psi2)
    u = kernel.u_of(d)
    df = 0.5 * (f1 - f2)
    assert rep.lhs == pytest.approx(df * df / u, rel=1e-12)
    assert u <= 2 * kernel.n_of(d) + 1e-12


def test_pair_sibling_sweep(psi2):
    kernel = BellmanKernel(psi2)
    rng = np.random.default_rng(20)
    checked = 0
    for trial in range(12):
        depth = int(rng.integers(3, 8))
        w = gen_weight(CorpusSpec("random-martingale", depth, (0.8,), trial + 50))
        f = gen_test_function("random-bounded", depth, trial)
        fw = f.product(w)
        for lev in range(depth):
            for idx in range(2 ** lev):
                i = DyadicInterval(lev, idx)
                rep = check_main_ineq_pair(
                    psi2, fw.average(i.minus), w.distribution(i.minus),
                    fw.average(i.plus), w.distribution(i.plus),
                    w.distribution(i), kernel)
                assert rep.passed, (trial, lev, idx)
                checked += 1
    assert checked > 400


def test_npoint_all_equal(psi2):
    w = gen_weight(CorpusSpec("random-martingale", 4, (0.2,), 1))
    d = w.distribution(ROOT)
    rep = check_main_ineq_npoint(psi2, [1.0] * 4, [d] * 4, [0.25] * 4, d)
    assert rep.passed
    assert rep.rhs == 0.0
    assert rep.lhs >= -1e-13


def test_npoint_two_points_consistent_with_pair(psi2):
    w = gen_weight(CorpusSpec("random-martingale", 5, (0.5,), 9))
    dm, dp = w.distribution(DyadicInterval(1, 0)), w.distribution(DyadicInterval(1, 1))
    droot = w.distribution(ROOT)
    pair = check_main_ineq_pair(psi2, 0.9, dm, 0.1, dp, droot)
    npt = check_main_ineq_npoint(psi2, [0.9, 0.1], [dm, dp], [0.5, 0.5], droot)
    assert npt.lhs == pytest.approx(pair.lhs, rel=1e-12)
    # 1/80 is four times weaker than 1/20 on the same data
    assert npt.rhs == pytest.approx(pair.rhs / 4.0, rel=1e-12)


def test_npoint_generations(psi2):
    kernel = BellmanKernel(psi2)
    rng = np.random.default_rng(30)
    checked = 0
    for trial in range(8):
        depth = int(rng.integers(4, 8))
        w = gen_weight(CorpusSpec("random-martingale", depth, (0.7,), trial + 80))
        f = gen_test_function("random-bounded", depth, trial)
        fw = f.product(w)
        for gen in (2, 3, 4):
            for lev in range(depth - gen + 1):
                for idx in range(2 ** lev):
                    i = DyadicInterval(lev, idx)
                    kids = [DyadicInterval(lev + gen, (idx << gen) + k)
                            for k in range(2 ** gen)]
                    rep = check_main_ineq_npoint(
                        psi2, [fw.average(c) for c in kids],
                        [w.distribution(c) for c in kids],
                        [2.0 ** -gen] * 2 ** gen, w.distribution(i), kernel)
                    assert rep.passed, (trial, gen, lev, idx)
                    checked += 1
    assert checked > 250


def test_paraproduct_a_zero_pure_convexity(psi2):
    w = gen_weight(CorpusSpec("random-martingale", 5, (0.4,), 2))
    dm, dp = w.distribution(DyadicInterval(1, 0)), w.distribution(DyadicInterval(1, 1))
    droot = w.distribution(ROOT)
    rep = check_paraproduct_step(psi2, 0.5, droot, 0.4, [0.2, 0.8], [dm, dp],
                                 [0.5, 0.3], [0.5, 0.5], 0.0)
    assert rep.passed
    assert rep.rhs == 0.0
    assert rep.lhs >= -1e-12


def test_paraproduct_f_zero(psi2):
    w = gen_weight(CorpusSpec("random-martingale", 5, (0.4,), 2))
    dm, dp = w.distribution(DyadicInterval(1, 0)), w.distribution(DyadicInterval(1, 1))
    droot = w.distribution(ROOT)
    rep = check_paraproduct_step(psi2, 0.0, droot, 0.5, [1.0, -1.0], [dm, dp],
                                 [0.2, 0.2], [0.5, 0.5], 0.3)
    assert rep.passed and rep.rhs == 0.0


def test_paraproduct_random_instances(psi2):
    kernel = BellmanKernel(psi2)
    rng = np.random.default_rng(40)
    for trial in range(200):
        depth = int(rng.integers(3, 7))
        w = gen_weight(CorpusSpec("random-martingale", depth, (0.6,), trial + 7))
        f = gen_test_function("random-bounded", depth, trial)
        fw = f.product(w)
        i = DyadicInterval(0, 0)
        mk = rng.uniform(0, 0.4, 2)
        a = float(rng.uniform(0, 0.5))
        rep = check_paraproduct_step(
            psi2, fw.average(i), w.distribution(i), a + 0.5 * (mk[0] + mk[1]),
            [fw.average(i.minus), fw.average(i.plus)],
            [w.distribution(i.minus), w.distribution(i.plus)],
            list(mk), [0.5, 0.5], a, kernel,
            spot_check_derivative=(trial % 20 == 0))
        assert rep.passed, trial


def test_paraproduct_input_validation(psi2):
    w = gen_weight(CorpusSpec("constant", 3, (1.0,)))
    d = w.distribution(ROOT)
    with pytest.raises(ValueError):
        check_paraproduct_step(psi2, 1.0, d, 1.5, [1.0, 1.0], [d, d],
                               [0.75, 0.75], [0.5, 0.5], 0.75)
    with pytest.raises(ValueError):
        check_paraproduct_step(psi2, 1.0, d, 0.5, [1.0, 1.0], [d, d],
                               [0.2, 0.2], [0.6, 0.5], 0.3)


# ---------------------------------------------------------------------------
# embed step
# ---------------------------------------------------------------------------

def test_embed_step_root_only_unit_weight(psi2, kernel2):
    # alpha at the root, w == 1: gain = T(1,1) - T(2,1) in divisor form
    w = DyadicWeight(4, np.ones(16))
    res = check_embed_step(w, ROOT, psi2, alpha_i=1.0, acc_parent=1.0,
                           acc_minus=0.0, acc_plus=0.0)
    assert res.passed
    expected = float(kernel2.T(1.0, 1.0)) - float(kernel2.T(2.0, 1.0))
    assert res.gain == pytest.approx(expected, rel=1e-12)
    assert res.stage2 == pytest.approx(0.25 / float(psi2.psi(1.0)), rel=1e-12)


def test_embed_step_zero_alpha(psi2):
    w = gen_weight(CorpusSpec("random-martingale", 4, (0.3,), 5))
    res = check_embed_step(w, ROOT, psi2, alpha_i=0.0, acc_parent=0.5,
                           acc_minus=0.5, acc_plus=0.5)
    assert res.passed
    assert res.stage2 == 0.0


def test_embed_step_rejects_unnormalized(psi2):
    w = gen_weight(CorpusSpec("constant", 3, (1.0,)))
    with pytest.raises(ValueError):
        check_embed_step(w, ROOT, psi2, 1.0, acc_parent=1.5,
                         acc_minus=0.2, acc_plus=0.2)


def test_scalar_bellman_hessian_psd_10k():
    # finite-difference Hessian of f^2/u is PSD for u > 0
    rng = np.random.default_rng(99)
    fs = rng.uniform(-5, 5, 10_000)
    us = rng.uniform(0.05, 10, 10_000)
    hf = 1e-4 * np.maximum(1.0, np.abs(fs))
    hu = 1e-4 * us
    B = lambda f, u: f * f / u
    bff = (B(fs + hf, us) - 2 * B(fs, us) + B(fs - hf, us)) / hf ** 2
    buu = (B(fs, us + hu) - 2 * B(fs, us) + B(fs, us - hu)) / hu ** 2
    bfu = (B(fs + hf, us + hu) - B(fs + hf, us - hu)
           - B(fs - hf, us + hu) + B(fs - hf, us - hu)) / (4 * hf * hu)
    scale = np.abs(bff) + np.abs(buu) + np.abs(bfu) + 1e-30
    tr = bff + buu
    det = bff * buu - bfu * bfu
    eig_min = 0.5 * (tr - np.sqrt(np.maximum(tr * tr - 4 * det, 0.0)))
    assert np.all(eig_min >= -1e-6 * scale)
