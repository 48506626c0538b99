import numpy as np
import pytest

from dyadembed import (
    DEFAULT_TOL,
    ROOT,
    BellmanKernel,
    CarlesonSequence,
    CorpusSpec,
    DyadicInterval,
    DyadicWeight,
    StepFunction,
    carleson_norm,
    corpus_weights,
    failure_demo,
    gen_carleson_sequence,
    gen_test_function,
    gen_weight,
    normalized_psi,
    psi_closed_form,
    psi_from_phi,
    spike_d_embed_closed_form,
    spike_weight,
    verify_buckley_classic,
    verify_d_embed,
    verify_embed,
    verify_embed2,
    verify_fd_embed,
    verify_folk,
    young_function,
)
from dyadembed import verifiers
from dyadembed.verifiers import FAILURE_DEMO_MAX_DEPTH, _embed_checks, _pde_checks


@pytest.fixture(scope="module")
def psi2():
    return psi_closed_form(2.0)


def _ledger(checks):
    """(level, index, term, gain) of every checked node, in heap order."""
    return tuple(zip(checks.level.tolist(), checks.index.tolist(), checks.term.tolist(),
                     checks.gain.tolist()))


# ---------------------------------------------------------------------------
# classical ratios
# ---------------------------------------------------------------------------

def test_buckley_constant_zero():
    w = DyadicWeight(5, np.ones(32))
    assert verify_buckley_classic(w).ratio == 0.0


def test_buckley_spike_exactly_4n():
    for n in (4, 6, 9, 12):
        cert = verify_buckley_classic(spike_weight(n))
        assert cert.ratio == pytest.approx(4.0 * n, abs=1e-9)


def test_buckley_martingale_bounded_across_seeds():
    ratios = [verify_buckley_classic(
        gen_weight(CorpusSpec("random-martingale", 12, (0.1,), s))).ratio
        for s in range(1, 6)]
    assert max(ratios) < 1.0  # small-delta cascades stay way below the blow-up


def test_folk_root_only_ratio_one():
    w = gen_weight(CorpusSpec("random-martingale", 6, (0.2,), 3))
    seq = gen_carleson_sequence("root-only", 6)
    cert = verify_folk(w, seq)
    assert cert.ratio == pytest.approx(1.0, rel=1e-12)


def test_folk_unit_weight_bounded_by_one():
    w = DyadicWeight(8, np.ones(256))
    for kind in ("root-only", "level-uniform", "random", "stopping-time"):
        cert = verify_folk(w, gen_carleson_sequence(kind, 8, seed=2))
        assert cert.ratio <= 1.0 + 1e-9


def test_folk_spike_growth_with_spine_sequence():
    ratios = []
    for d in (6, 9, 12):
        cert = verify_folk(spike_weight(d), gen_carleson_sequence("stopping-time", d))
        ratios.append(cert.ratio)
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[-1] == pytest.approx((12 + 1) / 2, rel=0.02)


def test_folk_rhi_assertion_on_ainfty():
    w = gen_weight(CorpusSpec("random-martingale", 8, (0.3,), 5))
    cert = verify_folk(w, gen_carleson_sequence("random", 8, seed=1),
                       assert_rhi_bound=True)
    assert cert.passed
    assert cert.breakdown["c_rhi"] >= 1.0


# ---------------------------------------------------------------------------
# differential embedding
# ---------------------------------------------------------------------------

def test_d_embed_constant_weight_zero_lhs(psi2):
    cert = verify_d_embed(DyadicWeight(6, np.ones(64)), psi2)
    assert cert.passed
    assert cert.lhs == 0.0


def test_d_embed_spike_closed_form(psi2):
    for n in (6, 9, 12):
        cert = verify_d_embed(spike_weight(n), psi2)
        assert cert.passed
        assert cert.lhs == pytest.approx(spike_d_embed_closed_form(n, psi2), rel=1e-12)
        assert cert.constant == pytest.approx(16.0)


def test_d_embed_telescoping_ledger(psi2):
    w = gen_weight(CorpusSpec("random-martingale", 6, (0.5,), 4))
    cert = verify_d_embed(w, psi2)
    assert cert.passed
    ledger = _ledger(_pde_checks(verifiers._tree(w, psi2), DEFAULT_TOL))
    kernel = BellmanKernel(psi2)
    # pure bookkeeping: sum |I| gain = leaf potential - root potential
    leaves = sum(
        DyadicInterval(6, k).length * kernel.script_B(w.distribution(DyadicInterval(6, k)))
        for k in range(64))
    root_pot = kernel.script_B(w.distribution(ROOT))
    assert cert.breakdown["telescoped_gain"] == pytest.approx(leaves - root_pot, rel=1e-9)
    # ledger terms add up to the certificate lhs
    total = sum(2.0 ** -lev * term for lev, idx, term, gain in ledger)
    assert total == pytest.approx(cert.lhs, rel=1e-12)


def test_d_embed_subtree_decomposition(psi2):
    # for every bounded certificate: lhs over J = sum of children lhs + root
    # term, and every nonzero node is counted once.  The spike's right half
    # vanishes, so its subtree contributes no term and no node.
    kernel = BellmanKernel(psi2)
    seq, _ = gen_carleson_sequence("random", 7, 9).normalized()
    assert carleson_norm(seq) <= 1.0 + 1e-12  # no renormalization per subtree
    f = gen_test_function("random-bounded", 7, 5)
    for w in (gen_weight(CorpusSpec("lacunary", 7, (0.3,))), spike_weight(7)):
        n_root = kernel.n_of(w.distribution(ROOT))
        fw = f.product(w)
        a_root = float(seq.levels[0][0])
        cases = {
            "d-embed": (lambda j: verify_d_embed(w, psi2, j),
                        w.haar_difference(ROOT) ** 2 / n_root),
            "embed": (lambda j: verify_embed(w, seq, psi2, j),
                      a_root * w.average(ROOT) ** 2 / n_root),
            "embed2": (lambda j: verify_embed2(w, f, seq, psi2, j),
                       a_root * fw.average(ROOT) ** 2 / n_root),
            "fd-embed": (lambda j: verify_fd_embed(w, f, psi2, j),
                         fw.haar_difference(ROOT) ** 2 / n_root),
        }
        for theorem, (verify, root_term) in cases.items():
            full = verify(ROOT)
            left = verify(DyadicInterval(1, 0))
            right = verify(DyadicInterval(1, 1))
            assert full.passed and left.passed and right.passed, theorem
            assert full.lhs == pytest.approx(left.lhs + right.lhs + root_term,
                                             rel=1e-11), theorem
            assert full.node_count == left.node_count + right.node_count + 1, theorem


def test_d_embed_depth2_manual(psi2):
    # handmade depth-2 weight, ledger equals the hand-computed sums
    w = DyadicWeight(2, [4.0, 2.0, 1.0, 1.0])
    cert = verify_d_embed(w, psi2)
    assert cert.passed
    ledger = _ledger(_pde_checks(verifiers._tree(w, psi2), DEFAULT_TOL))
    kernel = BellmanKernel(psi2)
    expect = {}
    for lev, idx in [(0, 0), (1, 0), (1, 1)]:
        i = DyadicInterval(lev, idx)
        expect[(lev, idx)] = w.haar_difference(i) ** 2 / kernel.n_of(w.distribution(i))
    got = {(lev, idx): term for lev, idx, term, gain in ledger}
    for key in expect:
        assert got[key] == pytest.approx(expect[key], rel=1e-12)


# ---------------------------------------------------------------------------
# embedding with sequences
# ---------------------------------------------------------------------------

def test_embed_zero_sequence(psi2):
    w = gen_weight(CorpusSpec("random-martingale", 5, (0.2,), 1))
    cert = verify_embed(w, CarlesonSequence.zeros(5), psi2)
    assert cert.passed and cert.lhs == 0.0


def test_embed_root_only_unit_weight(psi2):
    w = DyadicWeight(6, np.ones(64))
    cert = verify_embed(w, gen_carleson_sequence("root-only", 6), psi2)
    assert cert.passed
    assert cert.lhs == pytest.approx(1.0 / float(psi2.psi(1.0)), rel=1e-12)
    assert cert.constant == pytest.approx(4.0)


def test_embed_internal_normalization_recorded(psi2):
    w = gen_weight(CorpusSpec("random-martingale", 5, (0.2,), 7))
    seq = CarlesonSequence(5, [np.full(2 ** l, 2.0) for l in range(6)])
    cert = verify_embed(w, seq, psi2)
    assert cert.passed
    assert cert.breakdown["normalization"] > 1.0


def test_embed_corpus_smoke(psi2):
    for kind, depth in (("spike", 8), ("lacunary", 8), ("random-martingale", 8)):
        params = {"spike": (), "lacunary": (0.4,), "random-martingale": (0.6,)}[kind]
        w = gen_weight(CorpusSpec(kind, depth, params, 2))
        for skind in ("level-uniform", "random", "stopping-time"):
            cert = verify_embed(w, gen_carleson_sequence(skind, depth, 3), psi2)
            assert cert.passed, (kind, skind)


def test_embed_telescoping_ledger(psi2):
    w = gen_weight(CorpusSpec("random-martingale", 6, (0.5,), 4))
    seq, _ = gen_carleson_sequence("random", 6, 3).normalized()
    cert = verify_embed(w, seq, psi2)
    assert cert.passed and cert.breakdown["normalization"] == 1.0
    ledger = _ledger(_embed_checks(verifiers._tree(w, psi2), seq, DEFAULT_TOL))
    kernel = BellmanKernel(psi2)
    # one entry per node of every level, the finest (phantom) one included
    assert len(ledger) == cert.node_count == 2 ** 7 - 1
    for lev, idx, term, gain in ledger:
        i = DyadicInterval(lev, idx)
        expect = seq.levels[lev][idx] * w.average(i) ** 2 / kernel.n_of(w.distribution(i))
        assert term == pytest.approx(expect, rel=1e-12)
    # ledger terms add up to the certificate lhs
    total = sum(2.0 ** -lev * term for lev, idx, term, gain in ledger)
    assert total == pytest.approx(cert.lhs, rel=1e-12)


# ---------------------------------------------------------------------------
# f-differential embedding
# ---------------------------------------------------------------------------

def test_fd_embed_constant_f_reduces_to_d_embed(psi2):
    w = gen_weight(CorpusSpec("random-martingale", 7, (0.4,), 11))
    f = StepFunction(7, np.ones(128))
    fd = verify_fd_embed(w, f, psi2)
    de = verify_d_embed(w, psi2)
    assert fd.passed
    assert fd.lhs == pytest.approx(de.lhs, rel=1e-12)
    assert fd.breakdown["haar_sum"] == pytest.approx(0.0, abs=1e-20)


def test_fd_embed_sign_pattern_unit_weight(psi2):
    # w = 1, f = +-1 on the halves: only the root contributes, by hand
    w = DyadicWeight(2, np.ones(4))
    f = StepFunction(2, [1.0, 1.0, -1.0, -1.0])
    cert = verify_fd_embed(w, f, psi2)
    assert cert.passed
    assert cert.lhs == pytest.approx(4.0 / float(psi2.psi(1.0)), rel=1e-12)
    assert cert.breakdown["drift_sum"] == pytest.approx(0.0, abs=1e-20)
    assert cert.rhs_base == pytest.approx(1.0)


def test_fd_embed_breakdown_identity(psi2):
    w = gen_weight(CorpusSpec("lacunary", 7, (0.25,)))
    f = gen_test_function("random-bounded", 7, 5)
    cert = verify_fd_embed(w, f, psi2)
    assert cert.passed
    b = cert.breakdown
    assert cert.lhs == pytest.approx(
        b["haar_sum"] + b["drift_sum"] + b["cross_sum"], rel=1e-11)
    assert b["parseval_sum"] <= b["parseval_budget"] * (1 + 1e-12)
    assert b["max_alpha_excess"] <= 1e-12


def test_fd_embed_constant_value(psi2):
    w = gen_weight(CorpusSpec("random-martingale", 6, (0.3,), 13))
    f = gen_test_function("w-normalized", 6, 17, weight=w)
    cert = verify_fd_embed(w, f, psi2)
    assert cert.passed
    assert cert.constant == pytest.approx(8.0 / 4.0 + 128.0)


# ---------------------------------------------------------------------------
# bump embedding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("w_values, f_values", [
    ([1e200, 1.0], [1e200, 1.0]),       # f w overflows
    ([1e-300, 1.0], [1e200, 1.0]),      # f w is finite, f^2 overflows
], ids=["fw", "f2"])
def test_overflowing_products_are_rejected(psi2, w_values, f_values):
    # f w or f^2 w beyond the float range: fd-embed and embed2 raise the
    # error of a step function with a cell that is not finite
    w, f = DyadicWeight(1, w_values), StepFunction(1, f_values)
    seq = gen_carleson_sequence("random", 1, 0)
    with pytest.raises(ValueError, match="^values must be finite$"):
        verify_fd_embed(w, f, psi2)
    with pytest.raises(ValueError, match="^values must be finite$"):
        verify_embed2(w, f, seq, psi2)


def test_embed2_zero_f(psi2):
    w = gen_weight(CorpusSpec("random-martingale", 5, (0.3,), 3))
    f = StepFunction(5, np.zeros(32))
    cert = verify_embed2(w, f, gen_carleson_sequence("random", 5, 1), psi2)
    assert cert.passed and cert.lhs == 0.0


def test_embed2_f_one_matches_embed_bitwise(psi2):
    w = gen_weight(CorpusSpec("lacunary", 6, (0.5,)))
    seq = gen_carleson_sequence("random", 6, 9)
    f = StepFunction(6, np.ones(64))
    e2 = verify_embed2(w, f, seq, psi2)
    e1 = verify_embed(w, seq, psi2)
    assert e2.passed and e1.passed
    assert e2.lhs == e1.lhs  # identical floats via the shared summation path


def test_embed2_corpus_smoke(psi2):
    for kind in ("spike", "random-martingale", "two-level-gap"):
        params = {"spike": (), "random-martingale": (0.5,), "two-level-gap": (1.0,)}[kind]
        w = gen_weight(CorpusSpec(kind, 7, params, 21))
        f = gen_test_function("random-bounded", 7, 31)
        cert = verify_embed2(w, f, gen_carleson_sequence("random", 7, 5), psi2)
        assert cert.passed, kind
        assert cert.constant == 16.0


def test_parametric_psi_certificates_corpus():
    # Psi(s) = Phi'(t) at s = 1/(Phi Phi') for Phi = t log^2(e+t), normalized:
    # all four bounded certificates hold on every corpus weight of depth <= 8
    psi = normalized_psi(psi_from_phi(young_function("log-bump", 2.0)))
    assert BellmanKernel(psi).is_normalized
    swept = 0
    for entry, w in corpus_weights():
        if w.depth > 8:
            continue
        f = gen_test_function("random-bounded", w.depth, 11)
        seq = gen_carleson_sequence("random", w.depth, 0)
        d_cert = verify_d_embed(w, psi)
        for cert in (d_cert, verify_embed(w, seq, psi), verify_embed2(w, f, seq, psi),
                     verify_fd_embed(w, f, psi, d_cert=d_cert)):
            assert cert.passed, (entry.spec.label, cert.theorem)
        swept += 1
    assert swept == 23


# ---------------------------------------------------------------------------
# failure demonstration
# ---------------------------------------------------------------------------

def test_failure_demo_values(psi2):
    demo = failure_demo(12, psi2)
    assert demo.passed
    assert demo.classical_ratios[0] == pytest.approx(24.0, abs=1e-9)
    assert demo.classical_ratios[-1] == pytest.approx(48.0, abs=1e-9)
    assert demo.classical_growth == pytest.approx(2.0, rel=1e-12)
    # clamp-corrected closed form: 4.00968 -> 4.62233, a 15.28% change
    assert demo.d_embed_ratios[0] == pytest.approx(4.00967738277097, rel=1e-10)
    assert demo.d_embed_ratios[-1] == pytest.approx(4.622330419802743, rel=1e-10)
    assert demo.d_embed_change == pytest.approx(0.152794, abs=1e-4)
    # the convergent tail keeps the change within 16% for this family
    assert demo.d_embed_change <= 0.16


def test_failure_demo_depth_guard():
    with pytest.raises(ValueError, match="below the lowest depth 6"):
        failure_demo(5)
    with pytest.raises(ValueError, match="exceeds the ceiling 24"):
        failure_demo(FAILURE_DEMO_MAX_DEPTH + 1)


def test_certificate_json_stable(psi2):
    w = spike_weight(6)
    cert = verify_d_embed(w, psi2)
    text1 = cert.to_json()
    text2 = verify_d_embed(w, psi2).to_json()
    assert text1 == text2
    assert '"verdict": "pass"' in text1
