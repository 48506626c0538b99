import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dyadembed import (
    ROOT,
    CorpusSpec,
    DyadicInterval,
    DyadicWeight,
    check_rhi,
    corpus_weights,
    default_corpus_specs,
    estimate_ainfty,
    gen_carleson_sequence,
    gen_test_function,
    gen_weight,
    load_corpus,
    psi_closed_form,
    verify_buckley_classic,
    verify_d_embed,
    write_corpus,
)


def test_generators_deterministic():
    for spec in (CorpusSpec("random-martingale", 8, (0.2,), 5),
                 CorpusSpec("lacunary", 7, (0.3,)),
                 CorpusSpec("power-like", 6, (0.5,))):
        a = gen_weight(spec)
        b = gen_weight(spec)
        assert np.array_equal(a.values, b.values)


def test_martingale_mass_preserved():
    w = gen_weight(CorpusSpec("random-martingale", 10, (0.3,), 9))
    assert w.average(ROOT) == pytest.approx(1.0, rel=1e-12)


def test_martingale_delta_zero_constant():
    w = gen_weight(CorpusSpec("random-martingale", 6, (0.0,), 1))
    assert np.all(w.values == 1.0)


def test_spike_mass_and_averages():
    w = gen_weight(CorpusSpec("spike", 9))
    assert w.mass(ROOT) == 1.0
    for k in range(10):
        assert w.average(DyadicInterval(k, 0)) == 2.0 ** k


def test_lacunary_martingale_and_growth():
    w = gen_weight(CorpusSpec("lacunary", 8, (0.25,)))
    assert w.average(ROOT) == pytest.approx(1.0, rel=1e-12)
    assert w.values[0] == pytest.approx(1.75 ** 8, rel=1e-12)
    # martingale structure holds everywhere
    for lev in range(8):
        i = DyadicInterval(lev, 0)
        assert w.average(i) == pytest.approx(
            0.5 * (w.average(i.minus) + w.average(i.plus)), rel=1e-13)


def test_power_like_exact_cell_averages():
    a = 0.5
    w = gen_weight(CorpusSpec("power-like", 5, (a,)))
    # cell average of x^-1/2 on [j/32,(j+1)/32) is 2(sqrt(b)-sqrt(a))*32
    j = 7
    lo, hi = j / 32, (j + 1) / 32
    assert w.values[j] == pytest.approx(2 * (np.sqrt(hi) - np.sqrt(lo)) * 32, rel=1e-12)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        gen_weight(CorpusSpec("constant", 4, (0.0,)))
    with pytest.raises(ValueError):
        gen_weight(CorpusSpec("power-like", 4, (1.5,)))
    with pytest.raises(ValueError):
        gen_weight(CorpusSpec("nonsense", 4))


def test_default_corpus_is_50_and_diverse():
    specs = default_corpus_specs()
    assert len(specs) == 50
    kinds = {s.kind for s in specs}
    assert kinds == {"constant", "random-martingale", "spike", "lacunary",
                     "two-level-gap"}
    assert {s.depth for s in specs} <= set(range(6, 13))


def test_corpus_roundtrip_and_hashes(tmp_path):
    manifest = write_corpus(tmp_path, default_corpus_specs()[:8])
    entries = load_corpus(manifest)
    assert len(entries) == 8
    assert np.array_equal(entries[3][1].values, gen_weight(default_corpus_specs()[3]).values)
    # regenerating gives the same manifest hash
    manifest2 = write_corpus(tmp_path / "again", default_corpus_specs()[:8])
    h1 = json.loads(manifest.read_text())["manifest_sha256"]
    h2 = json.loads(manifest2.read_text())["manifest_sha256"]
    assert h1 == h2


def test_corpus_tamper_detected(tmp_path):
    manifest = write_corpus(tmp_path, default_corpus_specs()[:2])
    data = json.loads(manifest.read_text())
    target = tmp_path / data["entries"][0]["file"]
    obj = json.loads(target.read_text())
    obj["values"][0] = obj["values"][0] + 1.0
    target.write_text(json.dumps(obj))
    with pytest.raises(ValueError):
        load_corpus(manifest)


def test_empty_corpus_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_corpus(tmp_path, [])


# ---------------------------------------------------------------------------
# sequences and functions
# ---------------------------------------------------------------------------

def test_sequences_normalized():
    from dyadembed import carleson_norm
    for kind in ("root-only", "level-uniform", "random", "stopping-time"):
        seq = gen_carleson_sequence(kind, 7, seed=4)
        assert carleson_norm(seq) == pytest.approx(1.0, abs=1e-12)


def test_test_functions_deterministic():
    a = gen_test_function("random-bounded", 7, 3)
    b = gen_test_function("random-bounded", 7, 3)
    assert np.array_equal(a.values, b.values)
    w = gen_weight(CorpusSpec("random-martingale", 7, (0.3,), 2))
    f = gen_test_function("w-normalized", 7, 5, weight=w)
    assert f.squared().product(w).integral(ROOT) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_ainfty_constant_is_one():
    w = gen_weight(CorpusSpec("constant", 6, (3.0,)))
    assert estimate_ainfty(w) == pytest.approx(1.0, rel=1e-12)


def test_ainfty_martingale_small():
    w = gen_weight(CorpusSpec("random-martingale", 10, (0.1,), 4))
    val = estimate_ainfty(w)
    assert 1.0 <= val < 2.0


def test_ainfty_spike_infinite():
    assert estimate_ainfty(gen_weight(CorpusSpec("spike", 8))) == float("inf")


def test_rhi_constant_weight():
    assert check_rhi(gen_weight(CorpusSpec("constant", 5, (2.0,)))) == 1.0


def test_rhi_spike_is_2_to_n():
    for n in (6, 10):
        assert check_rhi(gen_weight(CorpusSpec("spike", n))) == pytest.approx(2.0 ** n)


def test_rhi_martingale_bounded_in_depth():
    worst = 0.0
    for depth in (6, 8, 10):
        for seed in (1, 2, 3):
            w = gen_weight(CorpusSpec("random-martingale", depth, (0.1,), seed))
            worst = max(worst, check_rhi(w))
    assert worst < 1.1


def _rhi_by_level(w, j):
    """check_rhi as a loop over the levels of the subtree under j."""
    sq = DyadicWeight(w.depth, np.sqrt(w.values), allow_zero=True)
    worst = 1.0
    for lev in range(j.level, w.depth + 1):
        width = 2 ** (lev - j.level)
        a, b = j.index * width, (j.index + 1) * width
        avg = w.level_averages(lev)[a:b]
        ravg = sq.level_averages(lev)[a:b]
        pos = ravg > 0
        if np.any(pos):
            worst = max(worst, float(np.max(avg[pos] / ravg[pos] ** 2)))
    return worst


def _roots(depth):
    """ROOT, and a node of every level below it down to the finest."""
    return [ROOT] + [DyadicInterval(lev, (2 ** lev - 1) * (lev % 2))
                     for lev in range(1, depth + 1)]


def test_rhi_one_pass_matches_the_level_loop_on_the_corpus():
    for spec in default_corpus_specs():
        w = gen_weight(spec)
        for j in _roots(w.depth):
            assert check_rhi(w, j).hex() == _rhi_by_level(w, j).hex(), (spec.label, j)


@st.composite
def _weights_with_zeros(draw):
    """Weights with zeros, ties and a 1e-100 .. 1e100 dynamic range, and a
    root anywhere in the tree."""
    depth = draw(st.integers(0, 6))
    mantissa = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
    scale = st.sampled_from([1e-100, 1.0, 1e100])
    cells = draw(st.lists(st.tuples(mantissa, scale), min_size=2 ** depth,
                          max_size=2 ** depth))
    values = np.array([m * s for m, s in cells])
    assume(values.max() > 0)
    level = draw(st.integers(0, depth))
    return DyadicWeight(depth, values), DyadicInterval(level, draw(st.integers(0, 2 ** level - 1)))


@settings(max_examples=80, deadline=None)
@given(_weights_with_zeros())
def test_rhi_one_pass_matches_the_level_loop(case):
    w, j = case
    assert check_rhi(w, j).hex() == _rhi_by_level(w, j).hex()


def test_lacunary_rhi_grows():
    vals = [check_rhi(gen_weight(CorpusSpec("lacunary", d, (0.25,)))) for d in (6, 9, 12)]
    assert vals[0] < vals[1] < vals[2]


# ---------------------------------------------------------------------------
# smoke property: certificates shrink as the cascade flattens
# ---------------------------------------------------------------------------

def test_martingale_lhs_decreases_with_delta():
    psi = psi_closed_form(2.0)
    lhs = {}
    for delta in (0.1, 0.01):
        w = gen_weight(CorpusSpec("random-martingale", 8, (delta,), 6))
        lhs[delta] = verify_d_embed(w, psi).lhs
    assert lhs[0.01] < lhs[0.1]


def test_buckley_ratio_scales_with_ainfty_class():
    flat = verify_buckley_classic(
        gen_weight(CorpusSpec("random-martingale", 10, (0.05,), 1))).ratio
    rough = verify_buckley_classic(
        gen_weight(CorpusSpec("lacunary", 10, (0.25,)))).ratio
    assert flat < rough
