import numpy as np
import pytest

from dyadembed import ROOT, DyadicInterval, DyadicWeight, StepFunction


def spine(level):
    return DyadicInterval(level, 0)


def test_average_constant():
    w = DyadicWeight(4, np.ones(16))
    assert w.average(ROOT) == 1.0
    assert w.average(DyadicInterval(4, 7)) == 1.0


def test_average_two_cell():
    w = DyadicWeight(1, [2.0, 0.0], allow_zero=False)
    assert w.average(ROOT) == 1.0


def test_average_spike_spine():
    # direct sum oracle: spike 2^8 on one cell of 256, level-3 spine interval
    vals = np.zeros(256)
    vals[0] = 2.0 ** 8
    w = DyadicWeight(8, vals)
    expected = vals[: 2 ** 5].sum() / 2 ** 5
    assert w.average(spine(3)) == expected == 8.0


def test_average_depth_error():
    w = DyadicWeight(2, np.ones(4))
    with pytest.raises(ValueError):
        w.average(DyadicInterval(3, 0))


def test_haar_difference_constant_zero():
    w = DyadicWeight(5, np.full(32, 3.7))
    for lev in range(5):
        for idx in range(2 ** lev):
            assert w.haar_difference(DyadicInterval(lev, idx)) == 0.0


def test_haar_difference_two_cell():
    w = DyadicWeight(1, [2.0, 0.0])
    assert w.haar_difference(ROOT) == -2.0


def test_haar_difference_spike_sign_and_size():
    vals = np.zeros(2 ** 6)
    vals[0] = 2.0 ** 6
    w = DyadicWeight(6, vals)
    for k in range(6):
        # spike sits in the left child of every spine interval
        assert w.haar_difference(spine(k)) == -(2.0 ** (k + 1))


def test_haar_leaf_error():
    w = DyadicWeight(2, np.ones(4))
    with pytest.raises(ValueError):
        w.haar_difference(DyadicInterval(2, 0))


def test_martingale_identity_bitwise():
    rng = np.random.default_rng(7)
    w = DyadicWeight(9, rng.uniform(0, 5, 2 ** 9))
    for lev in range(9):
        for idx in range(2 ** lev):
            i = DyadicInterval(lev, idx)
            assert w.average(i) == 0.5 * (w.average(i.minus) + w.average(i.plus))


def test_level_averages_consistency():
    rng = np.random.default_rng(5)
    w = DyadicWeight(6, rng.uniform(0, 1, 64))
    for lev in (0, 3, 6):
        la = w.level_averages(lev)
        for idx in (0, 2 ** lev - 1):
            assert la[idx] == w.average(DyadicInterval(lev, idx))


def test_is_zero_on():
    # a cell of -0.0 counts as zero, beside 0.0 or alone
    for zero in (0.0, -0.0):
        vals = np.full(8, zero)
        vals[2] = -0.0
        vals[5] = 1.0
        w = DyadicWeight(3, vals)
        assert w.is_zero_on(DyadicInterval(1, 0))
        assert w.is_zero_on(DyadicInterval(3, 2))
        assert not w.is_zero_on(DyadicInterval(1, 1))
        assert not w.is_zero_on(ROOT)


def test_nonnegativity_enforced():
    with pytest.raises(ValueError):
        DyadicWeight(1, [1.0, -0.5])
    with pytest.raises(ValueError):
        DyadicWeight(1, [0.0, 0.0])
    DyadicWeight(1, [0.0, 0.0], allow_zero=True)


def test_product_and_square():
    f = StepFunction(2, [1.0, -1.0, 2.0, 0.5])
    w = DyadicWeight(2, [1.0, 2.0, 0.0, 4.0])
    fw = f.product(w)
    assert list(fw.values) == [1.0, -2.0, 0.0, 2.0]
    assert f.squared().values[1] == 1.0


def test_json_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    w = DyadicWeight(5, rng.uniform(0, 3, 32))
    path = tmp_path / "w.json"
    w.save(path)
    back = DyadicWeight.load(path)
    assert back.depth == w.depth
    assert np.array_equal(back.values, w.values)


def test_values_immutable():
    w = DyadicWeight(2, np.ones(4))
    with pytest.raises(ValueError):
        w.values[0] = 2.0
