import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dyadembed import (
    ROOT,
    CarlesonSequence,
    DyadicInterval,
    DyadicWeight,
    StepFunction,
    carleson_embedding_check,
    carleson_norm,
    carleson_norm_bruteforce,
    gen_carleson_sequence,
    gen_test_function,
    gen_weight,
    CorpusSpec,
    w_carleson_constant,
    weighted_carleson_embedding_check,
    weighted_haar_decompose,
)


def test_norm_root_only():
    seq = CarlesonSequence.from_entries(4, [(0, 0, 1.0)])
    assert carleson_norm(seq) == 1.0


def test_norm_zero():
    assert carleson_norm(CarlesonSequence.zeros(5)) == 0.0


def test_norm_geometric_pattern_closed_form():
    # alpha_I = 4^{-level} gives norm sum_{k<=d} 4^{-k}; alpha_I = 2^{-level}
    # gives 2 - 2^{-d}; both must match the brute-force oracle
    d = 6
    seq4 = CarlesonSequence(d, [np.full(2 ** l, 4.0 ** -l) for l in range(d + 1)])
    expected4 = sum(4.0 ** -k for k in range(d + 1))
    assert carleson_norm(seq4) == pytest.approx(expected4, rel=1e-14)
    assert carleson_norm(seq4) == pytest.approx(carleson_norm_bruteforce(seq4), rel=1e-14)

    seq2 = CarlesonSequence(d, [np.full(2 ** l, 2.0 ** -l) for l in range(d + 1)])
    assert carleson_norm(seq2) == pytest.approx(2.0 - 2.0 ** -d, rel=1e-14)
    assert carleson_norm(seq2) == pytest.approx(carleson_norm_bruteforce(seq2), rel=1e-14)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 5), st.integers(0, 10 ** 6))
def test_norm_matches_bruteforce_random(depth, seed):
    rng = np.random.default_rng(seed)
    seq = CarlesonSequence(depth, [rng.uniform(0, 1, 2 ** l) for l in range(depth + 1)])
    assert carleson_norm(seq) == pytest.approx(carleson_norm_bruteforce(seq), rel=1e-12)


def test_accumulators_levels():
    seq = CarlesonSequence.from_entries(2, [(0, 0, 1.0), (2, 3, 4.0)])
    acc = seq.accumulators
    assert acc[0][0] == pytest.approx(1.0 + 4.0 * 0.25)
    assert acc[2][3] == 4.0
    assert acc[1][0] == 0.0


def test_normalization_exact():
    seq = gen_carleson_sequence("random", 7, seed=3)
    assert carleson_norm(seq) == pytest.approx(1.0, abs=1e-12)


def test_level_uniform_normalization_factor():
    d = 9
    raw = CarlesonSequence(d, [np.ones(2 ** l) for l in range(d + 1)])
    assert carleson_norm(raw) == pytest.approx(d + 1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# classical embeddings with brute-force cross-check
# ---------------------------------------------------------------------------

def brute_embedding_sum(seq, f, j):
    total = 0.0
    for lev in range(j.level, seq.depth + 1):
        width = 2 ** (lev - j.level)
        for idx in range(j.index * width, (j.index + 1) * width):
            i = DyadicInterval(lev, idx)
            total += f.average(i) ** 2 * seq.alpha(i) * i.length
    return total


def test_embedding_trivial_cases():
    f0 = StepFunction(3, np.zeros(8))
    seq = CarlesonSequence.from_entries(3, [(0, 0, 1.0)])
    rep = carleson_embedding_check(seq, f0, ROOT, c0=1.0)
    assert rep.passed and rep.lhs == 0.0

    f1 = StepFunction(3, np.ones(8))
    rep = carleson_embedding_check(seq, f1, ROOT, c0=1.0)
    assert rep.passed
    assert rep.lhs == 1.0
    assert rep.rhs == 4.0


def test_embedding_randomized_vs_bruteforce():
    rng = np.random.default_rng(42)
    for trial in range(40):
        depth = int(rng.integers(2, 7))
        seq = CarlesonSequence(depth, [rng.uniform(0, 1, 2 ** l)
                                       for l in range(depth + 1)])
        seq, _ = seq.normalized()
        f = StepFunction(depth, rng.uniform(-2, 2, 2 ** depth))
        rep = carleson_embedding_check(seq, f, ROOT, c0=1.0)
        assert rep.passed
        assert rep.lhs == pytest.approx(brute_embedding_sum(seq, f, ROOT), rel=1e-12)
        assert rep.ratio <= 4.0 + 1e-9


def test_weighted_embedding_f_equals_one():
    w = gen_weight(CorpusSpec("random-martingale", 5, (0.3,), 2))
    beta = gen_carleson_sequence("random", 5, seed=4)
    f = StepFunction(5, np.ones(32))
    rep = weighted_carleson_embedding_check(w, beta, f, ROOT)
    assert rep.passed
    # lhs = sum beta_I |I| when f == 1
    direct = sum(beta.levels[l].sum() * 2.0 ** -l for l in range(6))
    assert rep.lhs == pytest.approx(direct, rel=1e-12)


def test_weighted_embedding_precondition_failure_reported():
    # beta too heavy for a weight vanishing where beta lives
    w = DyadicWeight(2, [0.0, 0.0, 1.0, 1.0], allow_zero=False)
    beta = CarlesonSequence.from_entries(2, [(2, 0, 1.0)])
    f = StepFunction(2, np.ones(4))
    rep = weighted_carleson_embedding_check(w, beta, f, ROOT, c0=1.0)
    assert not rep.passed
    assert "w-carleson precondition failed" in rep.flags


def test_weighted_embedding_randomized():
    rng = np.random.default_rng(1)
    for trial in range(30):
        depth = int(rng.integers(2, 7))
        w = gen_weight(CorpusSpec("random-martingale", depth, (0.5,), trial + 1))
        beta = CarlesonSequence(depth, [rng.uniform(0, 1, 2 ** l)
                                        for l in range(depth + 1)])
        f = StepFunction(depth, rng.uniform(-1, 1, 2 ** depth))
        c0 = w_carleson_constant(beta, w)
        rep = weighted_carleson_embedding_check(w, beta, f, ROOT, c0=c0)
        assert rep.passed


# ---------------------------------------------------------------------------
# weighted Haar decomposition
# ---------------------------------------------------------------------------

def test_haar_split_constant_f():
    # f == 1: haar term vanishes and the drift carries the whole half-jump
    w = gen_weight(CorpusSpec("random-martingale", 6, (0.4,), 8))
    f = StepFunction(6, np.ones(64))
    for lev in range(6):
        for idx in range(0, 2 ** lev, max(1, 2 ** lev // 3)):
            i = DyadicInterval(lev, idx)
            split = weighted_haar_decompose(w, f, i)
            assert split.haar_term == pytest.approx(0.0, abs=1e-13)
            assert split.drift_term == pytest.approx(0.5 * w.haar_difference(i), rel=1e-12)


def test_haar_split_unit_weight():
    # w == 1: alpha = 1 and the haar term is the half-difference of f
    w = DyadicWeight(5, np.ones(32))
    rng = np.random.default_rng(12)
    f = StepFunction(5, rng.uniform(-1, 1, 32))
    for lev in range(5):
        i = DyadicInterval(lev, 0)
        split = weighted_haar_decompose(w, f, i)
        assert split.alpha == pytest.approx(1.0, rel=1e-14)
        assert split.drift_term == 0.0
        assert split.haar_term == pytest.approx(0.5 * f.haar_difference(i), rel=1e-12)


def test_haar_split_identity_and_bound_random():
    rng = np.random.default_rng(77)
    for trial in range(20):
        depth = int(rng.integers(2, 7))
        w = gen_weight(CorpusSpec("random-martingale", depth, (0.6,), trial))
        f = StepFunction(depth, rng.uniform(-2, 2, 2 ** depth))
        fw = f.product(w)
        for lev in range(depth):
            for idx in range(2 ** lev):
                i = DyadicInterval(lev, idx)
                split = weighted_haar_decompose(w, f, i, fw=fw)
                assert split.identity_error <= 1e-12 * max(1.0, abs(split.half_difference))
                assert split.alpha <= np.sqrt(w.average(i)) * (1 + 1e-12)


def test_haar_split_degenerate_child():
    w = DyadicWeight(2, [2.0, 2.0, 0.0, 0.0])
    f = StepFunction(2, [1.0, -1.0, 3.0, 3.0])
    split = weighted_haar_decompose(w, f, ROOT)
    assert split.degenerate
    assert split.haar_term == 0.0
    assert split.half_difference == pytest.approx(split.drift_term, rel=1e-12)


def test_haar_parseval_identity():
    # sum of squared inner products = ||f||^2_w - mean term, exactly
    rng = np.random.default_rng(5)
    w = gen_weight(CorpusSpec("random-martingale", 6, (0.5,), 3))
    f = StepFunction(6, rng.uniform(-1, 1, 64))
    fw = f.product(w)
    total = 0.0
    for lev in range(6):
        for idx in range(2 ** lev):
            split = weighted_haar_decompose(w, f, DyadicInterval(lev, idx), fw=fw)
            if not split.degenerate:
                total += split.inner_product ** 2
    f2w = f.squared().product(w).integral(ROOT)
    mean_term = fw.integral(ROOT) ** 2 / w.mass(ROOT)
    assert total == pytest.approx(f2w - mean_term, rel=1e-10)


@settings(max_examples=80, deadline=None)
@given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
def test_haar_alpha_bound_algebra(p, q):
    # 2pq/(p+q) <= (p+q)/2 for all nonnegative child averages
    assert 2 * p * q / (p + q) <= 0.5 * (p + q) * (1 + 1e-12)


def test_norm_matches_bruteforce_depth_10():
    rng = np.random.default_rng(101)
    seq = CarlesonSequence(10, [rng.uniform(0, 1, 2 ** l) for l in range(11)])
    assert carleson_norm(seq) == pytest.approx(carleson_norm_bruteforce(seq), rel=1e-12)
