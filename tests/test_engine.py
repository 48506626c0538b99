"""The level-batched certificate engine against independent oracles.

* The per-node path: every node's term, stage1, stage2 and verdict from the
  engine (`verifiers._pde_checks`, `_embed_checks`, `_paraproduct_checks`
  and `_haar_split`, each one pass over a tree's node arrays) must match
  the per-node checks of `bellman` and `carleson`, evaluated on
  `w.distribution(node)`, on whole trees of depth <= 8, under subtree
  roots, and on a depth-14 tree too deep to keep its sorted levels.
  The per-node t-integrals run over the distinct values of a node, the
  engine's over its sorted cell block with zero-length pieces for ties and
  zero cells, so the two agree up to the order of at most 2^8 positive
  terms: 1e-13 relative, and 1e-13 * max(1, potential) absolute for a gain,
  which is a difference of potentials.
* Exact invariants: the spike closed form at depth 18, zero gain between
  equal children, a running sum that adds node by node in heap order, and
  bit-identical ratios and verdicts under w -> 2^k w.
* Reflection x -> 1 - x: Haar differences flip sign exactly, verdicts are
  unchanged, and each lhs moves only by the reordering of its sum.
* One kernel call per certificate: on a kept tree `embed` and the first
  `embed2` of a sequence evaluate G once, later `embed2` of it never, and
  a streamed tree once a level; `embed2` names the first budget M outside
  [0, 1] in level order.  One kernel is built per Psi, whatever the
  weights and their depths.
* The current tree and the arrays it keeps: every way into them (other f,
  other or equal sequences, another weight in between, a subtree root)
  gives the certificates of a run that drops the tree before every
  certificate, and of runs on trees that split their levels again at every
  walk, warm and cold, bit for bit; the tree of the most recent (w, Psi) is
  current whatever its depth, and keeps nothing of an earlier weight and a
  bounded number of bytes a node.
* The top-down sort: every level split from the one above, with each
  constant row expanded back to its dense form, equals a stable sort of
  that level on its own, bit for bit; a constant row's one-value sum equals
  the sum of its dense form, and the level sums equal their row-wise forms.
* A certificate under a root J reads the tree of w on J: the node checks
  (level, index, term, gain) and the failed nodes of `d-embed` and `embed`
  under J are the ROOT tree's entries of the nodes under J, bit for bit, on
  a kept tree and on a streamed one; every sort reads J's cells alone, and
  J's tree is kept or streamed by its own depth.
* Row sums add left to right: `_row_integral` on every shape up to 2^15
  cells equals a Python-float loop bit for bit, on data where a pairwise
  sum differs.  The int32 half difference equals its row form, on a
  streamed tree too, and stays exact at m = 2^24.
"""

import functools
import gc
import math
import operator
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dyadembed import (
    DEFAULT_TOL,
    ROOT,
    BellmanKernel,
    CarlesonSequence,
    CorpusSpec,
    DyadicInterval,
    DyadicWeight,
    StepFunction,
    Tolerances,
    check_embed_step,
    check_paraproduct_step,
    check_pde_step,
    gen_carleson_sequence,
    gen_test_function,
    gen_weight,
    n_psi,
    normalized_psi,
    psi_closed_form,
    psi_from_phi,
    spike_d_embed_closed_form,
    spike_weight,
    verify_d_embed,
    verify_embed,
    verify_embed2,
    verify_fd_embed,
    verify_folk,
    weighted_haar_decompose,
    young_function,
)
from dyadembed.cli import FUNCTION_KINDS, SEQUENCE_KINDS
from dyadembed.bellman import (
    EMBED_STEP_FACTOR,
    PARAPRODUCT_CONSTANT,
    PDE_FINAL_FACTOR,
    kernel_of,
    scalar_bellman,
)
from dyadembed import verifiers
from dyadembed.verifiers import (
    _embed_checks,
    _haar_split,
    _paraproduct_checks,
    _pde_checks,
)

PSI = psi_closed_form(2.0)
KERNEL = BellmanKernel(PSI)
REL = 1e-13
# negative slack: every node whose margin is below 1e-3 fails, so the two
# paths must agree on a nonempty failure set, not only on "all pass"
STRICT = Tolerances(ineq_slack=-1e-3)

ORACLE_WEIGHTS = [
    CorpusSpec("spike", 8),
    CorpusSpec("lacunary", 8, (0.25,)),
    CorpusSpec("two-level-gap", 7, (1.0,)),
    CorpusSpec("constant", 6, (3.0,)),
    CorpusSpec("random-martingale", 8, (0.6,), 3),
]


def _rel(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b))


def _live_nodes(w, top, j=ROOT):
    """(level, index) of the live nodes of the subtree under j down to level
    top, level-major with the index ascending."""
    return [(lev, k) for lev in range(j.level, top + 1)
            for k in range(j.index << (lev - j.level), (j.index + 1) << (lev - j.level))
            if not w.is_zero_on(DyadicInterval(lev, k))]


def _compare_checks(w, checks, oracle, top, j=ROOT, sample=None):
    """Engine LevelChecks against oracle(node) -> (term, gain, bounds,
    passed, potential), node by node: the checks list the live nodes of the
    subtree under j down to level top.  sample(node), when given, picks the
    nodes handed to the oracle.  Returns the number of nodes."""
    level, index = checks.level.tolist(), checks.index.tolist()
    assert list(zip(level, index)) == _live_nodes(w, top, j)
    fields = (checks.term, checks.gain, checks.passed, *checks.bounds)
    for r, node in enumerate(zip(level, index)):
        if sample is not None and not sample(node):
            continue
        term, gain, bounds, passed, potential = oracle(DyadicInterval(*node))
        got_term, got_gain, got_passed, *got_bounds = (float(v[r]) for v in fields)
        assert _rel(got_term, term), node
        assert abs(got_gain - gain) <= REL * max(1.0, abs(potential)), node
        for got, want in zip(got_bounds, bounds):
            assert _rel(got, want), node
        assert bool(got_passed) == passed, node
    return len(level)


def _assert_failures(cert, checks):
    """The certificate's failed nodes are the checks that did not pass."""
    failed = {(lev, idx) for lev, idx, *_ in cert.failures}
    assert failed == set(zip(checks.level[~checks.passed].tolist(),
                             checks.index[~checks.passed].tolist()))


def _pde_oracle(w, tol):
    """check_pde_step of a node."""

    def oracle(node):
        res = check_pde_step(w, node, PSI, KERNEL, tol=tol)
        return (res.stage2 / PDE_FINAL_FACTOR, res.gain, (res.stage1, res.stage2),
                res.passed, KERNEL.script_B(w.distribution(node)))

    return oracle


def _compare_pde(w, j, tol, sample=None):
    checks = _pde_checks(verifiers._tree(w, PSI, j), tol)
    count = _compare_checks(w, checks, _pde_oracle(w, tol), w.depth - 1, j, sample)
    cert = verify_d_embed(w, PSI, j, tol=tol)
    assert cert.node_count == count
    _assert_failures(cert, checks)
    return cert


@pytest.mark.parametrize("spec", ORACLE_WEIGHTS, ids=lambda s: s.label)
@pytest.mark.parametrize("tol", [DEFAULT_TOL, STRICT], ids=["default", "strict"])
def test_pde_levels_match_per_node(spec, tol):
    cert = _compare_pde(gen_weight(spec), ROOT, tol)
    if tol is DEFAULT_TOL:
        assert cert.passed and cert.failures == ()


def _embed_oracle(w, seq, tol):
    """check_embed_step of a node; seq is normalized."""
    acc = seq.accumulators

    def oracle(node):
        lev, idx = node.level, node.index
        alpha, a_par = float(seq.levels[lev][idx]), float(acc[lev][idx])
        d_i = w.distribution(node)
        if lev == w.depth:   # the phantom generation
            dists, a_m = (d_i, d_i, d_i), a_par - alpha
            a_p = a_m
        else:
            dists = (d_i, w.distribution(node.minus), w.distribution(node.plus))
            a_m, a_p = float(acc[lev + 1][2 * idx]), float(acc[lev + 1][2 * idx + 1])
        res = check_embed_step(w, node, PSI, alpha, a_par, a_m, a_p, KERNEL, dists, tol)
        return (res.stage2 / EMBED_STEP_FACTOR, res.gain, (res.stage1, res.stage2),
                res.passed, KERNEL.script_T(a_par + 1.0, d_i))

    return oracle


def _compare_embed(w, j, tol, sample=None):
    seq, _ = gen_carleson_sequence("random", w.depth, 4).normalized()
    checks = _embed_checks(verifiers._tree(w, PSI, j), seq, tol)
    count = _compare_checks(w, checks, _embed_oracle(w, seq, tol), w.depth, j, sample)
    cert = verify_embed(w, seq, PSI, j, tol=tol)
    assert cert.node_count == count
    _assert_failures(cert, checks)
    return cert


@pytest.mark.parametrize("spec", ORACLE_WEIGHTS, ids=lambda s: s.label)
@pytest.mark.parametrize("tol", [DEFAULT_TOL, STRICT], ids=["default", "strict"])
def test_embed_levels_match_per_node(spec, tol):
    _compare_embed(gen_weight(spec), ROOT, tol)


def _paraproduct_oracle(w, f, seq, tol):
    """check_paraproduct_step of a node, with the spot check of the
    derivative; seq is normalized."""
    fw = f.product(w)
    acc = seq.accumulators

    def oracle(node):
        lev, idx = node.level, node.index
        a, m_i = float(seq.levels[lev][idx]), float(acc[lev][idx])
        f_i, d_i = fw.average(node), w.distribution(node)
        if lev == w.depth:   # the phantom generation
            kids = ([f_i], [d_i], [m_i - a], [1.0])
        else:
            kids = ([fw.average(node.minus), fw.average(node.plus)],
                    [w.distribution(node.minus), w.distribution(node.plus)],
                    [float(acc[lev + 1][2 * idx]), float(acc[lev + 1][2 * idx + 1])],
                    [0.5, 0.5])
        rep = check_paraproduct_step(PSI, f_i, d_i, m_i, *kids, a, KERNEL,
                                     spot_check_derivative=True, tol=tol)
        potential = scalar_bellman(f_i, KERNEL.u_of_m(d_i, m_i))
        return (rep.rhs / PARAPRODUCT_CONSTANT, rep.lhs, (rep.rhs,), rep.passed, potential)

    return oracle


def _compare_paraproduct(w, j, tol, sample=None):
    f = gen_test_function("random-bounded", w.depth, 7)
    seq, _ = gen_carleson_sequence("random", w.depth, 5).normalized()
    checks = _paraproduct_checks(verifiers._tree(w, PSI, j), f, seq, tol)
    count = _compare_checks(w, checks, _paraproduct_oracle(w, f, seq, tol), w.depth, j, sample)
    cert = verify_embed2(w, f, seq, PSI, j, tol=tol)
    assert cert.node_count == count
    _assert_failures(cert, checks)
    return cert


@pytest.mark.parametrize("spec", ORACLE_WEIGHTS, ids=lambda s: s.label)
@pytest.mark.parametrize("tol", [DEFAULT_TOL, STRICT], ids=["default", "strict"])
def test_paraproduct_levels_match_per_node(spec, tol):
    _compare_paraproduct(gen_weight(spec), ROOT, tol)


def _compare_haar(w, j, sample=None):
    """_haar_split of the subtree under j against weighted_haar_decompose and
    n_psi of each node (of the nodes sample picks, when given), and the
    fd-embed certificate's node count."""
    f = gen_test_function("random-bounded", w.depth, 8)
    fw = f.product(w)
    tree = verifiers._tree(w, PSI, j)
    hw = tree.haar
    above = tree.live_above
    full, haar, drift, inner = _haar_split(tree, hw, above, fw.values)
    nodes = list(zip(above.level.tolist(), above.index.tolist()))
    assert nodes == _live_nodes(w, w.depth - 1, j)
    for r, node in enumerate(nodes):
        if sample is not None and not sample(node):
            continue
        node = DyadicInterval(*node)
        split = weighted_haar_decompose(w, f, node, fw=fw)
        n_val = n_psi(PSI, w.distribution(node))
        want_full = 2.0 * split.half_difference
        assert _rel(float(hw.n_psi[r]), n_val), node
        assert float(full[r]) == want_full, node
        assert _rel(float(full[r] ** 2 / hw.n_psi[r]), want_full * want_full / n_val), node
        assert float(drift[r]) == 2.0 * split.drift_term, node
        assert float(haar[r]) == 2.0 * split.haar_term, node
        assert float(inner[r]) == split.inner_product, node
        assert float(hw.alpha[r]) == split.alpha, node
    cert = verify_fd_embed(w, f, PSI, j)
    assert cert.passed and cert.failures == ()
    assert cert.node_count == len(nodes)


@pytest.mark.parametrize("spec", ORACLE_WEIGHTS, ids=lambda s: s.label)
def test_haar_levels_match_per_node(spec):
    _compare_haar(gen_weight(spec), ROOT)


SUBTREE_ROOTS = [DyadicInterval(1, 1), DyadicInterval(2, 2)]


def _root_id(j):
    return f"root{j.level}-{j.index}"


@pytest.mark.parametrize("spec", ORACLE_WEIGHTS, ids=lambda s: s.label)
@pytest.mark.parametrize("tol", [DEFAULT_TOL, STRICT], ids=["default", "strict"])
@pytest.mark.parametrize("j", SUBTREE_ROOTS, ids=_root_id)
def test_node_pass_under_subtree_roots_matches_per_node(j, tol, spec):
    w = gen_weight(spec)
    for compare in (_compare_pde, _compare_embed, _compare_paraproduct):
        compare(w, j, tol)
    if tol is DEFAULT_TOL:
        _compare_haar(w, j)


def _sampled(node):
    """Every node of levels 0..5, and about one in 97 below: a fixed pick
    that keeps the per-node oracle of a depth-14 tree to a few hundred
    nodes."""
    lev, idx = node
    return lev <= 5 or (idx * 2654435761 + lev) % 97 == 0


@pytest.mark.parametrize("tol", [DEFAULT_TOL, STRICT], ids=["default", "strict"])
@pytest.mark.parametrize("j", [ROOT] + SUBTREE_ROOTS, ids=_root_id)
def test_node_pass_past_the_slot_matches_per_node(j, tol, monkeypatch):
    # a depth-14 tree is above the bound of kept levels: its levels are
    # sorted and integrated one at a time, then checked in one pass; like
    # any tree it is current.  The tree under a subtree root is kept, so
    # there the bound is set to 0 to stream it
    w = gen_weight(CorpusSpec("random-martingale", 14, (0.6,), 3))
    if j != ROOT:
        monkeypatch.setattr(verifiers, "_SLOT_BYTES", 0)
    _clear_tree()
    for compare in (_compare_pde, _compare_embed, _compare_paraproduct):
        cert = compare(w, j, tol, _sampled)
        assert verifiers._current.whole is w and verifiers._current.j == j
        assert verifiers._current.sorted is None
        if tol is STRICT:
            assert cert.failures, cert.theorem
    if tol is DEFAULT_TOL:
        _compare_haar(w, j, _sampled)


def _assert_spike_closed_form(depth):
    cert = verify_d_embed(spike_weight(depth), PSI)
    assert cert.passed and cert.node_count == depth
    assert cert.lhs == pytest.approx(spike_d_embed_closed_form(depth, PSI), rel=1e-12)


def test_spike_closed_form_depth_18():
    _assert_spike_closed_form(18)


def test_spike_closed_form_depth_20():
    _assert_spike_closed_form(20)


def test_equal_children_have_zero_gain():
    # every node of levels 0..2 has two equal children with 64 distinct
    # values; at this scale a rounding difference between their potentials
    # would exceed the slack and fail the certificate
    block = np.random.default_rng(1).uniform(1.0, 2.0, 64)
    w = DyadicWeight(9, np.tile(block, 8) * 1e100)
    checks = _pde_checks(verifiers._tree(w, PSI), DEFAULT_TOL)
    assert checks.level[:7].tolist() == [0, 1, 1, 2, 2, 2, 2]    # heap positions 0..6
    assert np.all(checks.gain[:7] == 0.0) and np.all(checks.bounds[0][:7] == 0.0)
    assert verify_d_embed(w, PSI).passed


def _loop_total(terms) -> float:
    """The node-by-node running total of terms, from 0.0."""
    total = 0.0
    for t in np.asarray(terms).tolist():
        total += t
    return total


def _walk_total(terms: np.ndarray) -> float:
    """_walk_totals of one row, passed as a sequence of 1-D arrays."""
    (total,) = verifiers._walk_totals((terms,))
    return total


def test_node_sum_adds_in_walk_order():
    # a depth-14 tree's levels in heap order, with wide exponents so that
    # any other order of the additions rounds differently: _walk_totals
    # equals the node-by-node running total
    rng = np.random.default_rng(3)
    levels = [rng.uniform(-1.0, 1.0, 2 ** lev) * 10.0 ** rng.integers(-8, 9, 2 ** lev)
              for lev in range(15)]
    total = _walk_total(np.concatenate(levels))
    assert total == _loop_total(np.concatenate(levels))
    assert total != math.fsum(np.concatenate(levels))
    # a walk starts from +0.0: no terms, or terms that are all -0.0, sum to +0.0
    for terms in (np.empty(0), np.full(5, -0.0), np.array([-0.0, 0.0, -0.0])):
        total = _walk_total(terms)
        assert total == 0.0 and math.copysign(1.0, total) == 1.0
        assert math.copysign(1.0, _loop_total(terms)) == 1.0
    assert math.copysign(1.0, _walk_total(np.array([-0.0, -1e-300]))) == -1.0


# ---------------------------------------------------------------------------
# metamorphic: power-of-two scaling is exact
# ---------------------------------------------------------------------------

@st.composite
def weights(draw):
    """Weights with zeros, ties and a 1e-100 .. 1e100 dynamic range."""
    depth = draw(st.integers(1, 5))
    mantissa = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0])
    scale = st.sampled_from([1e-100, 1.0, 1e100])
    cells = draw(st.lists(st.tuples(mantissa, scale), min_size=2 ** depth,
                          max_size=2 ** depth))
    values = np.array([m * s for m, s in cells])
    assume(values.max() > 0)
    return DyadicWeight(depth, values)


def _certificates(w, f, seq):
    d_cert = verify_d_embed(w, PSI)
    return [d_cert, verify_embed(w, seq, PSI), verify_embed2(w, f, seq, PSI),
            verify_fd_embed(w, f, PSI, d_cert=d_cert)]


def _same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


@settings(max_examples=40, deadline=None)
@given(weights(), st.integers(0, 1000))
def test_power_of_two_scaling_is_exact(w, seed):
    # n_psi is 1-homogeneous and the batched path scales every sum exactly,
    # so each ratio and verdict is bit for bit unchanged
    f = gen_test_function("random-bounded", w.depth, seed)
    seq = gen_carleson_sequence("random", w.depth, seed)
    base = _certificates(w, f, seq)
    for k in range(-3, 4):
        scaled = DyadicWeight(w.depth, w.values * 2.0 ** k)
        for want, got in zip(base, _certificates(scaled, f, seq)):
            assert _same_float(got.ratio, want.ratio), (want.theorem, k)
            assert got.passed == want.passed, (want.theorem, k)


# ---------------------------------------------------------------------------
# metamorphic: reflection x -> 1 - x
# ---------------------------------------------------------------------------

def _haar_differences(g, lev):
    kids = g.level_averages(lev + 1)
    return kids[1::2] - kids[0::2]


@settings(max_examples=40, deadline=None)
@given(weights(), st.integers(0, 1000))
def test_reflection(w, seed):
    # a node's mirror has the same cells in reverse order: the same sorted
    # block, the same averages (a + b == b + a) and the negated difference.
    # So every per-node term is bit for bit the same and only the order of
    # the level sums changes; for n nonnegative terms each order is within
    # (n - 1) u of the exact sum, u = 2^-53, and the two within 2 n u
    f = gen_test_function("random-bounded", w.depth, seed)
    seq = gen_carleson_sequence("random", w.depth, seed)
    rw = DyadicWeight(w.depth, w.values[::-1], allow_zero=True)
    rf = StepFunction(w.depth, f.values[::-1])
    rseq = CarlesonSequence(w.depth, [a[::-1] for a in seq.levels])
    for lev in range(w.depth):
        for g, rg in ((w, rw), (f.product(w), rf.product(rw))):
            assert np.array_equal(_haar_differences(rg, lev),
                                  -_haar_differences(g, lev)[::-1])
    rel = 2 * 2 ** (w.depth + 1) * 2.0 ** -53
    for want, got in zip(_certificates(w, f, seq), _certificates(rw, rf, rseq)):
        assert got.passed == want.passed, want.theorem
        assert (_same_float(got.lhs, want.lhs)
                or abs(got.lhs - want.lhs) <= rel * abs(want.lhs)), want.theorem


# ---------------------------------------------------------------------------
# the tree of (w, psi): the current one and the arrays it keeps
# ---------------------------------------------------------------------------

LOGLOG = psi_closed_form(2.0, "loglog-bump")
SLOT_WEIGHTS = [CorpusSpec("spike", 7), CorpusSpec("lacunary", 8, (0.25,)),
                CorpusSpec("random-martingale", 8, (0.6,), 3)]


def _clear_tree():
    verifiers._current = None


def _one_f(w):
    return (gen_test_function("random-bounded", w.depth, 3),)


def _one_seq(w):
    return (gen_carleson_sequence("random", w.depth, 2),)


def _five_f(w):
    """The CLI's five test functions of w."""
    return tuple(gen_test_function(k, w.depth, s, weight=w) for k, s in FUNCTION_KINDS)


def _ledger(checks):
    """(level, index, term, gain) of every checked node, in heap order."""
    return tuple(zip(checks.level.tolist(), checks.index.tolist(), checks.term.tolist(),
                     checks.gain.tolist()))


def _bounded_runs(weights, psi, j=ROOT, ledger=False, tol=DEFAULT_TOL, before=None,
                  fs=_one_f, seqs=_one_seq):
    """The bounded certificates of each weight in turn under root j: d-embed,
    embed and folk for every sequence of seqs(w), embed2 for every f of
    fs(w) and every sequence, and fd-embed for every f.  Each is reduced to
    the repr of (theorem, lhs, ratio, breakdown, failures): repr writes
    every float exactly.  With ledger, d-embed and embed are followed by
    the repr of their node checks' _ledger.  before() runs ahead of each
    one."""
    runs = []
    for w in weights:
        f_list, seq_list = fs(w), seqs(w)
        runs.append(lambda w=w: verify_d_embed(w, psi, j, tol=tol))
        if ledger:
            runs.append(lambda w=w: _pde_checks(verifiers._tree(w, psi, j), tol))
        for seq in seq_list:
            runs.append(lambda w=w, seq=seq: verify_embed(w, seq, psi, j, tol=tol))
            if ledger:
                runs.append(lambda w=w, seq=seq: _embed_checks(verifiers._tree(w, psi, j),
                                                               seq.norm_capped[0], tol))
            runs.append(lambda w=w, seq=seq: verify_folk(w, seq, j, tol=tol))
            runs += [lambda w=w, f=f, seq=seq: verify_embed2(w, f, seq, psi, j, tol=tol)
                     for f in f_list]
        runs += [lambda w=w, f=f: verify_fd_embed(w, f, psi, j, tol=tol) for f in f_list]
    out = []
    for run in runs:
        if before is not None:
            before()
        c = run()
        if isinstance(c, verifiers.LevelChecks):
            out.append(repr(_ledger(c)))
        else:
            out.append(repr((c.theorem, c.lhs, c.ratio, c.breakdown, c.failures)))
    return out


def _equal_copy(seq):
    return CarlesonSequence(seq.depth, seq.levels)


def _seqs_above_one(w):
    """A sequence of norm 3 twice, then an equal copy of it."""
    scaled = _one_seq(w)[0].scaled(3.0)
    return scaled, scaled, _equal_copy(scaled)


def _seqs_a_b_a(w):
    """Two sequences in turn, then a third that is normalized first."""
    a, b = _one_seq(w)[0], gen_carleson_sequence("stopping-time", w.depth)
    return a, b, a, b, a.scaled(3.0)


SLOT_CASES = {
    # name: (run kwargs, the weights to run from w); the current tree is
    # first the one of w under PSI, made by d-embed
    "same-w-same-psi": ({"psi": PSI}, lambda w: [w]),
    "same-w-other-psi": ({"psi": LOGLOG}, lambda w: [w]),
    "subtree-left": ({"psi": PSI, "j": DyadicInterval(2, 0)}, lambda w: [w]),
    "subtree-right": ({"psi": PSI, "j": DyadicInterval(1, 1), "fs": _five_f},
                      lambda w: [w]),
    "keep-ledger": ({"psi": PSI, "ledger": True}, lambda w: [w]),
    "equal-values-new-object": ({"psi": PSI}, lambda w: [DyadicWeight(w.depth, w.values.copy())]),
    # the arrays the tree keeps of one (w, seq), read by every f
    "five-f-one-seq": ({"psi": PSI, "fs": _five_f}, lambda w: [w]),
    # a sequence object with the values of the one before it
    "equal-seq-new-object": ({"psi": PSI, "seqs": lambda w: (_one_seq(w)[0],
                                                            _equal_copy(_one_seq(w)[0]))},
                             lambda w: [w]),
    "seq-norm-above-one": ({"psi": PSI, "seqs": _seqs_above_one}, lambda w: [w]),
    "seq-a-b-a": ({"psi": PSI, "seqs": _seqs_a_b_a}, lambda w: [w]),
    # weight A, then another weight B, then A again
    "weights-a-b-a": ({"psi": PSI, "fs": _five_f},
                      lambda w: [w, gen_weight(CorpusSpec("two-level-gap", 7, (1.0,))), w]),
}


@pytest.mark.parametrize("spec", SLOT_WEIGHTS, ids=lambda s: s.label)
@pytest.mark.parametrize("tol", [DEFAULT_TOL, STRICT], ids=["default", "strict"])
@pytest.mark.parametrize("case", SLOT_CASES)
def test_slot_entries_match_cold_runs(case, tol, spec, monkeypatch):
    # warm runs on the current tree, cold runs that drop it before every
    # certificate, and the same two on trees that split their levels again
    # at every walk agree bit for bit.  A warm streamed run reads the arrays
    # its tree kept; a cold one computes every array itself
    kwargs, weights = SLOT_CASES[case]
    w = gen_weight(spec)
    _clear_tree()
    verify_d_embed(w, PSI)
    assert verifiers._current.whole is w and verifiers._current.psi is PSI
    targets = weights(w)
    j = kwargs.get("j", ROOT)
    warm = _bounded_runs(targets, tol=tol, **kwargs)
    assert verifiers._current.whole is targets[-1] and verifiers._current.psi is kwargs["psi"]
    assert verifiers._current.j == j
    cold = _bounded_runs(targets, tol=tol, before=_clear_tree, **kwargs)
    monkeypatch.setattr(verifiers, "_SLOT_BYTES", 0)   # sort level by level
    _clear_tree()
    streamed = _bounded_runs(targets, tol=tol, **kwargs)
    tree = verifiers._current
    assert tree.whole is targets[-1] and tree.psi is kwargs["psi"] and tree.j == j
    assert tree.sorted is None
    del tree
    streamed_cold = _bounded_runs(targets, tol=tol, before=_clear_tree, **kwargs)
    assert warm == cold
    assert warm == streamed
    assert warm == streamed_cold
    if kwargs["psi"] is not PSI:
        # the check can tell the two Psi apart
        assert warm != _bounded_runs(targets, PSI, tol=tol)


def test_store_is_read_by_every_f_of_a_sequence(monkeypatch):
    # five embed2 and five fd-embed certificates of one (w, seq): one walk
    # computes each array the tree keeps, the Haar w-part is computed once
    # and the sequence normalized once, and every other certificate reads
    # them.  Then five embed2 of (w, seq) under a subtree root: one walk of
    # its tree computes its n_psi and u, and the sequence stays normalized
    w = gen_weight(CorpusSpec("random-martingale", 8, (0.6,), 3))
    seq = _one_seq(w)[0].scaled(3.0)
    _clear_tree()
    made = []
    node_arrays, haar_weight = verifiers._node_arrays, verifiers._haar_weight
    normalized = CarlesonSequence.normalized

    def counting(tree, *args, **kwargs):
        before = set(tree.nodes)
        out = node_arrays(tree, *args, **kwargs)
        made.extend(set(tree.nodes) - before)
        return out

    monkeypatch.setattr(verifiers, "_node_arrays", counting)
    monkeypatch.setattr(verifiers, "_haar_weight",
                        lambda tree: made.append("haar") or haar_weight(tree))
    monkeypatch.setattr(CarlesonSequence, "normalized",
                        lambda seq: made.append("normalized") or normalized(seq))
    for f in _five_f(w):
        verify_embed2(w, f, seq, PSI)
        verify_fd_embed(w, f, PSI)
    assert sorted(made) == ["haar", "n_psi", "normalized", "u", "u_phantom"]
    made.clear()
    for f in _five_f(w):
        verify_embed2(w, f, seq, PSI, DyadicInterval(1, 1))
    assert sorted(made) == ["n_psi", "u", "u_phantom"]


def test_per_tree_work_is_done_once(monkeypatch):
    # the CLI's certificates of one depth-8 weight (d-embed, embed under
    # its 4 sequences, fd-embed and embed2 of its 5 test functions): w's
    # heap averages are computed once, the live labels once (those above
    # the finest level are a prefix of them), the points of T once, and no
    # step function is built for f w or f^2 w; each embed makes one kernel
    # call.  A streamed depth-14 tree keeps no labels, so each of three
    # fd-embed certificates reads them once, after the one read of its
    # w-part
    w = gen_weight(CorpusSpec("random-martingale", 8, (0.6,), 3))
    seqs = [gen_carleson_sequence(k, w.depth, 0) for k in SEQUENCE_KINDS]
    fs = _five_f(w)
    _clear_tree()
    made = []

    def counting(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: made.append(name) or fn(*a, **k))

    for owner, name in ((StepFunction, "heap_averages"), (StepFunction, "__init__"),
                        (verifiers, "_labels"), (verifiers, "_layout")):
        counting(owner, name)
    calls = _count_kernel_calls(monkeypatch)
    d_cert = verify_d_embed(w, PSI)
    for seq in seqs:
        calls.update(G=0)
        verify_embed(w, seq, PSI)
        assert calls["G"] == 1
    for f in fs:
        verify_fd_embed(w, f, PSI, d_cert=d_cert)
        verify_embed2(w, f, seqs[2], PSI)
    assert verifiers._current.whole is w and verifiers._current.sorted is not None
    assert sorted(made) == ["_labels", "_layout", "heap_averages"]
    deep = gen_weight(CorpusSpec("random-martingale", 14, (0.3,), 1))
    fs = _five_f(deep)[:3]
    d_cert = verify_d_embed(deep, PSI)
    made.clear()
    for f in fs:
        verify_fd_embed(deep, f, PSI, d_cert=d_cert)
    assert verifiers._current.whole is deep and verifiers._current.sorted is None
    assert sorted(made) == ["_labels"] * 4 + ["heap_averages"]


def test_stacked_totals_match_walk_total():
    # fd-embed's five totals, summed along the rows of one stacked array,
    # are bit for bit the running total of each row from 0.0: wide
    # exponents, a row of -0.0 (+0.0 after a walk from 0.0), a row ending
    # in -0.0, and no terms at all
    rng = np.random.default_rng(11)
    rows = rng.uniform(-1.0, 1.0, (5, 300)) * 10.0 ** rng.integers(-8, 9, (5, 300))
    rows[1] = -0.0
    rows[3, 1:] = -0.0
    for stack in (rows, rows[:, :1], np.empty((5, 0))):
        want = [_loop_total(r) for r in stack]
        got = verifiers._walk_totals(stack)
        assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
        assert all(type(t) is float for t in got)
    assert math.copysign(1.0, verifiers._walk_totals(rows)[1]) == 1.0


def test_kernel_is_built_once_per_psi(monkeypatch):
    # the bounded certificates on two streamed depth-14 trees, first after
    # no tree at all, then on three corpus weights, under one psi: every
    # tree reads the kernel of its psi from kernel_of, whatever its depth,
    # so C and the kernel's tables are evaluated once.  The cache is
    # cleared first, or an equal psi left by an earlier test would be met
    psi = normalized_psi(psi_from_phi(young_function("log-bump", 2.0)))
    built = []
    init = BellmanKernel.__init__

    def counting(self, p):
        built.append(p)
        init(self, p)

    monkeypatch.setattr(BellmanKernel, "__init__", counting)
    _clear_tree()
    kernel_of.cache_clear()
    deep = [CorpusSpec("random-martingale", 14, (0.3,), 1), CorpusSpec("lacunary", 14, (0.25,))]
    for spec in deep + SLOT_WEIGHTS:
        w = gen_weight(spec)
        seq, f = _one_seq(w)[0], _one_f(w)[0]
        for cert in (verify_d_embed(w, psi), verify_embed(w, seq, psi),
                     verify_embed2(w, f, seq, psi), verify_fd_embed(w, f, psi)):
            assert cert.passed, (spec.label, cert.theorem)
    assert verifiers._current.whole is w
    assert [p is psi for p in built] == [True]


def test_deep_fd_embed_sorts_the_weight_once(monkeypatch):
    # fd-embed without d_cert on a tree too deep to keep its levels: its own
    # d-embed and its Haar w-part read one tree, and the Haar w-part reads
    # live and n_psi from it, so the weight is sorted once
    w = gen_weight(CorpusSpec("random-martingale", 14, (0.3,), 1))
    sorts = []
    sorted_levels = verifiers._sorted_levels
    monkeypatch.setattr(verifiers, "_sorted_levels",
                        lambda w, phi: sorts.append(w) or sorted_levels(w, phi))
    _clear_tree()
    assert verify_fd_embed(w, _one_f(w)[0], PSI).passed
    assert len(sorts) == 1 and sorts[0] is w
    assert verifiers._current.whole is w and verifiers._current.sorted is None


def _count_kernel_calls(monkeypatch):
    """Counters of BellmanKernel.G calls and of the raw G blocks they
    evaluate (_G_raw), from now on."""
    calls = {"G": 0, "_G_raw": 0}
    for name in calls:
        fn = getattr(BellmanKernel, name)

        def counted(self, s, fn=fn, name=name):
            calls[name] += 1
            return fn(self, s)

        monkeypatch.setattr(BellmanKernel, name, counted)
    return calls


def test_one_kernel_call_per_certificate(monkeypatch):
    # on a kept tree, embed evaluates script-T at every level and its
    # phantom in one kernel call, and embed2 its u and phantom u in one;
    # later embed2 of the sequence read u from the tree.  A streamed tree
    # makes one call per level: a depth-14 martingale has 2^14 dense points
    # a level, one raw block, and its finest level the 2^14 points of pot
    # and of the phantom, two blocks
    w = gen_weight(CorpusSpec("random-martingale", 8, (0.3,), 1))
    seq = _one_seq(w)[0]
    _clear_tree()
    kernel = verifiers._tree(w, PSI).kernel
    assert kernel.C > 0 and kernel.is_normalized      # the kernel's own G(1)
    calls = _count_kernel_calls(monkeypatch)
    verify_embed(w, seq, PSI)
    assert calls == {"G": 1, "_G_raw": 1}
    for count, f in zip((1, 0, 0, 0, 0), _five_f(w)):
        calls.update(G=0, _G_raw=0)
        verify_embed2(w, f, seq, PSI)
        assert calls == {"G": count, "_G_raw": count}
    deep = gen_weight(CorpusSpec("random-martingale", 14, (0.3,), 1))
    calls.update(G=0, _G_raw=0)
    verify_embed(deep, _one_seq(deep)[0], PSI)
    assert verifiers._current.whole is deep and verifiers._current.kernel is kernel
    assert calls == {"G": 15, "_G_raw": 16}


@pytest.mark.parametrize("slot_bytes", [verifiers._SLOT_BYTES, 0], ids=["slot", "unslotted"])
def test_u_budget_error_names_the_first_node_in_level_order(slot_bytes, monkeypatch):
    # budgets M above 1 on levels 2 and 3 (1.5 at (2, 0), 2.0 at (3, 5)):
    # embed2's checks reject the sequence with the first such M in level
    # order, on a kept tree and on a streamed one
    w = gen_weight(CorpusSpec("random-martingale", 6, (0.6,), 3))
    seq = CarlesonSequence.from_entries(6, [(2, 0, 1.5), (3, 5, 2.0)])
    m_all = np.concatenate(seq.accumulators)
    assert m_all[m_all > 1.0 + 1e-9].tolist() == [1.5, 2.0]
    monkeypatch.setattr(verifiers, "_SLOT_BYTES", slot_bytes)
    _clear_tree()
    tree = verifiers._tree(w, PSI)
    assert (tree.sorted is None) == (slot_bytes == 0)
    with pytest.raises(ValueError, match=r"^M = 1\.5 outside \[0, 1\]$"):
        _paraproduct_checks(tree, _one_f(w)[0], seq, DEFAULT_TOL)


def test_store_under_a_subtree_root_with_a_panel_kernel(monkeypatch):
    # the parametric G is a panel sum: embed2 under (1, 1) reads the u that
    # the tree keeps for the whole tree, and gets the bits of the u that a
    # streamed tree keeps, and of the u that a streamed tree dropped before
    # every certificate computes itself
    psi = normalized_psi(psi_from_phi(young_function("log-bump", 2.0)))
    w = gen_weight(CorpusSpec("random-martingale", 7, (0.6,), 3))
    seq = _one_seq(w)[0]

    def runs(before=None):
        certs = []
        for j in (DyadicInterval(1, 1), ROOT):
            for f in _five_f(w):
                if before is not None:
                    before()
                c = verify_embed2(w, f, seq, psi, j)
                certs.append(repr((c.root, c.lhs, c.ratio, c.breakdown, c.failures)))
        return certs

    _clear_tree()
    warm = runs()
    cold = runs(before=_clear_tree)
    monkeypatch.setattr(verifiers, "_SLOT_BYTES", 0)
    _clear_tree()
    streamed = runs()
    assert verifiers._current.whole is w and verifiers._current.sorted is None
    streamed_cold = runs(before=_clear_tree)
    assert warm == cold == streamed == streamed_cold


def _tree_bytes(tree):
    """(cells, total): the bytes of the tree's dense cells (piece lengths
    and child labels), and of every array of the sort, phi and n_psi."""
    cells = sum(lv.pieces.nbytes + lv.plus.nbytes for lv in tree.sorted)
    per_row = sum(lv.const.nbytes + lv.live.nbytes + lv.value.nbytes
                  + (0 if lv.dense is None else lv.dense.nbytes) for lv in tree.sorted)
    return cells, cells + per_row + tree.phi.nbytes + tree.nodes["n_psi"].nbytes


def _store_bytes(tree):
    """The bytes of every array the tree keeps beside its sort, live and
    n_psi: int N^2/phi, u, the phantom u and the Haar w-part."""
    arrays = [a for name, a in tree.nodes.items() if name not in ("live", "n_psi")]
    return sum(a.nbytes for a in arrays + list(vars(tree).get("haar", ())))


def test_slot_holds_one_weight_within_its_bound(monkeypatch):
    _clear_tree()
    first = spike_weight(6)
    verify_d_embed(first, PSI)
    gone = weakref.ref(first)
    w13 = spike_weight(13)
    verify_d_embed(w13, PSI)
    del first
    gc.collect()
    assert gone() is None                   # replaced whole: one weight at a time
    tree = verifiers._current
    assert tree.whole is w13 and len(tree.sorted) == 14
    # the spike's levels 0..12 hold one dense row each, of 2^(13 - l)
    # cells; every other row is constant
    assert _tree_bytes(tree)[0] == 9 * (2 ** 14 - 2)
    # a depth-14 tree is above the bound: it is sorted level by level, and
    # like any other tree it replaces the current one, which is dropped
    # before the new tree is built
    gone, old = weakref.ref(w13), weakref.ref(tree)
    del w13, tree
    dropped = []

    class Tree(verifiers._Tree):
        def __init__(self, *args):
            dropped.append(old() is None)
            super().__init__(*args)

    monkeypatch.setattr(verifiers, "_Tree", Tree)
    deep = spike_weight(14)
    cert = verify_d_embed(deep, PSI)
    assert cert.passed and cert.node_count == 14
    assert dropped == [True]
    gc.collect()
    assert gone() is None
    tree = verifiers._current
    assert tree.whole is deep and tree.sorted is None
    assert sorted(tree.nodes) == ["live", "n_psi"]


def test_store_keeps_nothing_of_the_previous_weight():
    # after a certificate of another weight under another Psi, no weight,
    # sequence, test function, Psi or kernel of the first one is reachable
    psi = psi_closed_form(2.0)
    w = gen_weight(CorpusSpec("random-martingale", 8, (0.6,), 3))
    f = _one_f(w)[0]
    seq = _one_seq(w)[0].scaled(3.0)
    _clear_tree()
    certs = _bounded_runs([w], psi, fs=lambda w: (f,), seqs=lambda w: (seq,))
    normalized, _ = seq.norm_capped
    kernel = verifiers._current.kernel
    assert normalized is not seq and verifiers._current.seq is normalized and len(certs) == 5
    refs = [weakref.ref(x) for x in (w, f, seq, normalized, psi, kernel)]
    del w, f, seq, normalized, psi, kernel
    other = gen_weight(CorpusSpec("lacunary", 8, (0.25,)))
    assert verify_fd_embed(other, _one_f(other)[0], LOGLOG).passed
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


@pytest.mark.parametrize("make", [
    spike_weight, lambda d: gen_weight(CorpusSpec("random-martingale", d, (0.6,), 3)),
], ids=["spike", "random-martingale"])
def test_store_bytes_per_row(make):
    # the deepest tree that is kept, with every array it keeps filled and
    # more sequences than it keeps.  Per node row: int N^2/phi and u 8
    # bytes each, the phantom u 8 bytes a finest node, and the Haar w-part
    # 66 bytes a node above the finest (an int64 heap position, an int8
    # level, 7 float64 arrays and a bool mask)
    depth = 13
    w = make(depth)
    _clear_tree()
    seqs = [gen_carleson_sequence("random", depth, s).scaled(3.0) for s in range(6)]
    for seq in seqs:
        verify_embed(w, seq, PSI)
        verify_embed2(w, _one_f(w)[0], seq, PSI)
    verify_fd_embed(w, _one_f(w)[0], PSI)
    tree = verifiers._current
    assert tree.whole is w and tree.seq is seqs[-1].norm_capped[0]
    rows = 2 ** (depth + 1) - 1
    bound = 16 * rows + 8 * 2 ** depth + 66 * (2 ** depth - 1)
    assert 0 < _store_bytes(tree) <= bound
    assert bound <= 53 * rows


def _half_constant(depth):
    """A martingale of the given depth with its left half zero: every level
    below the root holds constant and dense rows side by side."""
    w = gen_weight(CorpusSpec("random-martingale", depth, (0.6,), 3))
    values = w.values.copy()
    values[:values.size // 2] = 0.0
    return DyadicWeight(depth, values, allow_zero=True)


@pytest.mark.parametrize("make", [
    spike_weight, _half_constant,
    lambda d: gen_weight(CorpusSpec("random-martingale", d, (0.6,), 3)),
], ids=["spike", "half-constant", "random-martingale"])
def test_slot_bytes_stay_within_the_dense_form(make):
    # the deepest tree that is kept: its dense cells fit in _SLOT_BYTES,
    # and every other array adds at most 18 bytes a row and 8 a finest cell
    depth = 13
    assert (depth + 1) * 2 ** depth * 9 <= verifiers._SLOT_BYTES
    _clear_tree()
    verify_d_embed(make(depth), PSI)
    cells, total = _tree_bytes(verifiers._current)
    assert cells <= (depth + 1) * 2 ** depth * 9
    assert total <= (depth + 1) * 2 ** depth * 9 + 18 * (2 ** (depth + 1) - 1) + 8 * 2 ** depth


# ---------------------------------------------------------------------------
# the top-down sort against a stable sort of every level
# ---------------------------------------------------------------------------

def _sorted_level(w, lev):
    """The oracle: (pieces, plus, live) of the nodes of level lev, each
    node's block stable-sorted on its own."""
    m = 2 ** (w.depth - lev)
    blocks = w.values.reshape(2 ** lev, m)
    order = np.argsort(blocks, axis=1, kind="stable")
    cells = np.take_along_axis(blocks, order, axis=1)
    return np.diff(cells, axis=1, prepend=0.0), order >= m // 2, cells[:, -1] > 0


def _dense_form(lv, m):
    """(pieces, plus, live) of every row of the level, each constant row
    expanded back: pieces [v, 0, ..., 0] and the stable order's labels, left
    half first."""
    width = lv.live.size
    dense = np.arange(width) if lv.dense is None else lv.dense
    pieces, plus = np.zeros((width, m)), np.zeros((width, m), dtype=bool)
    pieces[dense], plus[dense] = lv.pieces, lv.plus
    pieces[lv.const, 0], plus[lv.const] = lv.value, np.arange(m) >= m // 2
    return pieces, plus, lv.live


def _bits(a):
    return a.view(np.int64) if a.dtype == np.float64 else a


def _engine_levels(w):
    """The tree's sorted levels under PSI, as _Tree sorts them."""
    return list(verifiers._sorted_levels(w, PSI.phi(verifiers._top_grid(w))))


def _assert_levels_match_oracle(w):
    levels = _engine_levels(w)
    assert len(levels) == w.depth + 1
    phi = PSI.phi(verifiers._top_grid(w))
    for lev, lv in enumerate(levels):
        width, m = 2 ** lev, 2 ** (w.depth - lev)
        # the level's survival grid (m - k)/m, and phi on it
        assert np.array_equal(lv.grid, (m - np.arange(m)) / m), lev
        assert np.array_equal(_bits(lv.phi), _bits(phi[::width])), lev
        # constant rows: those whose cells are equal bit for bit
        blocks = w.values.reshape(width, m)
        same = np.all(_bits(blocks) == _bits(blocks[:, :1]), axis=1)
        assert np.array_equal(lv.const, same), lev
        if lv.dense is None:
            assert not same.any() and lv.pieces.shape == (width, m), lev
        else:
            assert np.array_equal(lv.dense, np.flatnonzero(~same)), lev
        for a, b in zip(_dense_form(lv, m), _sorted_level(w, lev)):
            assert a.dtype == b.dtype and np.array_equal(_bits(a), _bits(b)), lev


@st.composite
def sort_cases(draw):
    """A weight of depth 0..10 with zeros of both signs, ties and a 1e-100
    .. 1e100 dynamic range, built from tiled constant blocks of 2^k cells
    and all-zero subtrees of 1 .. 2^depth cells."""
    depth = draw(st.integers(0, 10))
    value = st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0]).flatmap(
        lambda m: st.sampled_from([m * 1e-100, m, m * 1e100]))
    pool = draw(st.lists(value, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = 2 ** draw(st.integers(0, depth))
    cells = np.repeat(rng.choice(pool, 2 ** depth // block), block)
    for _ in range(draw(st.integers(0, 3))):
        size = 2 ** draw(st.integers(0, depth))
        start = size * draw(st.integers(0, 2 ** depth // size - 1))
        cells[start:start + size] = draw(st.sampled_from([0.0, -0.0]))
    return DyadicWeight(depth, cells, allow_zero=True)


@settings(max_examples=80, deadline=None)
@given(sort_cases())
def test_sorted_levels_match_a_sort_of_every_level(w):
    _assert_levels_match_oracle(w)


def test_sorted_levels_match_the_oracle_below_the_slot():
    w = gen_weight(CorpusSpec("random-martingale", 16, (0.6,), 3))
    assert (w.depth + 1) * 2 ** w.depth * 9 > verifiers._SLOT_BYTES
    _assert_levels_match_oracle(w)


def test_mixed_signed_zeros_stay_dense():
    # the node (1, 0) sorts to [0.0, -0.0, 0.0, 0.0]: its first and last
    # cells agree, but it is not constant bit for bit, so it stays dense
    # and its piece lengths keep the -0.0 of the cell
    w = DyadicWeight(3, np.array([0.0, -0.0, 0.0, 0.0, 1.0, 1.0, 2.0, 2.0]),
                     allow_zero=True)
    levels = _engine_levels(w)
    assert not levels[1].const.any() and levels[1].dense is None
    assert levels[2].const.tolist() == [False, True, True, True]
    assert levels[2].dense.tolist() == [0]
    assert np.signbit(levels[2].pieces).tolist() == [[False, True]]
    assert np.signbit(levels[3].value).tolist() == [False, True] + [False] * 6
    _assert_levels_match_oracle(w)


# ---------------------------------------------------------------------------
# a certificate under a root J reads the tree of w on J
# ---------------------------------------------------------------------------

@st.composite
def rooted_weights(draw):
    """A weight of sort_cases of depth >= 1 and a root J below the tree's
    root, down to the finest level."""
    w = draw(sort_cases())
    assume(w.depth >= 1)
    level = draw(st.integers(1, w.depth))
    return w, DyadicInterval(level, draw(st.integers(0, 2 ** level - 1)))


def _under(j, entries):
    """The entries (level, index, ...) of the nodes of the subtree under j."""
    return tuple(e for e in entries if e[0] >= j.level and e[1] >> (e[0] - j.level) == j.index)


@pytest.mark.parametrize("slot_bytes", [verifiers._SLOT_BYTES, 0], ids=["slot", "unslotted"])
@settings(max_examples=30, deadline=None)
@given(case=rooted_weights(), seed=st.integers(0, 1000))
def test_a_root_only_selects_nodes(slot_bytes, case, seed):
    # d-embed and embed under J: every node check (level, index, term,
    # gain) and every failed node is the ROOT tree's entry of that node,
    # bit for bit
    w, j = case
    seq = gen_carleson_sequence("random", w.depth, seed)
    kept = verifiers._SLOT_BYTES
    verifiers._SLOT_BYTES = slot_bytes
    _clear_tree()
    try:
        for tol in (DEFAULT_TOL, STRICT):
            for checks, verify in (
                    (lambda j: _pde_checks(verifiers._tree(w, PSI, j), tol),
                     lambda j: verify_d_embed(w, PSI, j, tol=tol)),
                    (lambda j: _embed_checks(verifiers._tree(w, PSI, j), seq.norm_capped[0], tol),
                     lambda j: verify_embed(w, seq, PSI, j, tol=tol))):
                whole, part = checks(ROOT), checks(j)
                assert repr(_ledger(part)) == repr(_under(j, _ledger(whole)))
                whole, part = verify(ROOT), verify(j)
                assert repr(part.failures) == repr(_under(j, whole.failures))
        assert verifiers._current.whole is w and verifiers._current.j == j
        assert (verifiers._current.sorted is None) == (slot_bytes == 0)
    finally:
        verifiers._SLOT_BYTES = kept


@pytest.mark.parametrize("slot_bytes", [verifiers._SLOT_BYTES, 0], ids=["slot", "unslotted"])
def test_a_subtree_root_sorts_only_its_cells(slot_bytes, monkeypatch):
    # the four bounded certificates under J read the tree of w on J: every
    # weight that is sorted, once on a kept tree and once a walk on a
    # streamed one, holds J's 2^(depth - J.level) cells
    w = gen_weight(CorpusSpec("random-martingale", 8, (0.6,), 3))
    j = DyadicInterval(3, 5)
    f, seq = _one_f(w)[0], _one_seq(w)[0]
    sizes = []
    sorted_levels = verifiers._sorted_levels
    monkeypatch.setattr(verifiers, "_sorted_levels",
                        lambda w, phi: sizes.append(w.values.size) or sorted_levels(w, phi))
    monkeypatch.setattr(verifiers, "_SLOT_BYTES", slot_bytes)
    _clear_tree()
    for cert in (verify_d_embed(w, PSI, j), verify_embed(w, seq, PSI, j),
                 verify_embed2(w, f, seq, PSI, j), verify_fd_embed(w, f, PSI, j)):
        assert cert.passed and cert.root == (3, 5), cert.theorem
    assert sizes and set(sizes) == {2 ** (w.depth - j.level)}
    assert len(sizes) == 1 or not slot_bytes


def test_a_kept_subtree_of_a_streamed_weight_sorts_once(monkeypatch):
    # the tree under (1, 1) of a depth-14 weight has depth 13, whose dense
    # form fits _SLOT_BYTES: it keeps its sorted levels, so the four bounded
    # certificates under (1, 1) sort its 8192 cells once
    w = gen_weight(CorpusSpec("random-martingale", 14, (0.6,), 3))
    j = DyadicInterval(1, 1)
    f, seq = _one_f(w)[0], _one_seq(w)[0]
    sizes = []
    sorted_levels = verifiers._sorted_levels
    monkeypatch.setattr(verifiers, "_sorted_levels",
                        lambda w, phi: sizes.append(w.values.size) or sorted_levels(w, phi))
    _clear_tree()
    for cert in (verify_d_embed(w, PSI, j), verify_embed(w, seq, PSI, j),
                 verify_embed2(w, f, seq, PSI, j), verify_fd_embed(w, f, PSI, j)):
        assert cert.passed and cert.root == (1, 1), cert.theorem
    assert sizes == [2 ** 13]
    assert verifiers._current.sorted is not None


@pytest.mark.parametrize("m", [1, 2, 3, 64])
@pytest.mark.parametrize("v", [0.0, -0.0, 1e-300, 1e300])
def test_constant_row_sum_is_its_dense_sum(v, m):
    # a constant row's sum v g(1) (+ 0.0 for its zero pieces) against the
    # left-to-right sum of its dense form [v, 0, ..., 0] times g, bit for
    # bit, for finite positive g from 1e-300 to 1e300 (overflow, underflow)
    rng = np.random.default_rng(m)
    dense = np.zeros(m)
    dense[0] = v
    # integral reads neither the grid nor phi
    rows = verifiers._Level(None, None, np.empty((0, m)), np.empty((0, m), dtype=bool),
                            np.empty(0, dtype=np.intp), np.array([True]), np.array([v]),
                            np.array([v > 0]))
    # the same constant row after a dense one, as on a level of both kinds
    pieces = rng.uniform(0.0, 1.0, (1, m))
    mixed = verifiers._Level(None, None, pieces, np.zeros((1, m), dtype=bool), np.array([0]),
                             np.array([False, True]), np.array([v]), np.array([True, v > 0]))
    for _ in range(20):
        g = rng.uniform(0.5, 2.0, m) * 10.0 ** rng.integers(-300, 301, m)
        with np.errstate(over="ignore"):
            want = np.array([np.cumsum(pieces[0] * g)[-1], np.cumsum(dense * g)[-1]])
            got = [rows.integral(g), rows.integral(g[None][:0], g[:1]),
                   mixed.integral(g), mixed.integral(g[None], g[:1])]
        for sums in got:
            assert np.array_equal(_bits(sums), _bits(want[-sums.size:]))
    want = want[-1]
    if np.signbit(v) and m > 1:
        # the bare product keeps the sign the zero pieces take away
        assert np.signbit(v * g[0]) and not np.signbit(want)


def _left_to_right(rows):
    """The oracle: each row's Python-float sum, first entry first."""
    return np.array([functools.reduce(operator.add, row) for row in rows.tolist()])


def test_row_sums_run_left_to_right():
    # every shape 2^a x 2^b up to 2^15 cells, g on the grid and one g per
    # row, against the left-to-right oracle bit for bit.  Mixed magnitudes
    # from 1e-300 to 1e300 make a pairwise sum differ; a row of -0.0
    # products sums to -0.0
    rng = np.random.default_rng(18)
    scale = lambda shape: 10.0 ** rng.choice([-300, -150, -16, 0, 16, 150], shape)
    pairwise_differs = 0
    for a in range(16):
        for b in range(16 - a):
            width, m = 2 ** a, 2 ** b
            pieces = rng.uniform(0.0, 1.0, (width, m)) * scale((width, m))
            pieces[rng.uniform(size=(width, m)) < 0.1] = -0.0
            pieces[width // 2] = -0.0
            on_grid = rng.uniform(0.5, 2.0, m) * scale(m)
            per_row = rng.uniform(0.5, 2.0, (width, m)) * scale((width, m))
            for g in (on_grid, per_row):
                want = _left_to_right(pieces * g)
                got = verifiers._row_integral(pieces, g)
                assert np.array_equal(_bits(got), _bits(want)), (width, m, g.ndim)
                pairwise_differs += not np.array_equal(_bits(np.sum(pieces * g, axis=1)),
                                                       _bits(want))
    assert pairwise_differs > 50


HALF_DIFFERENCE_WEIGHTS = ORACLE_WEIGHTS + [CorpusSpec("random-martingale", 14, (0.6,), 3)]


@pytest.mark.parametrize("spec", HALF_DIFFERENCE_WEIGHTS, ids=lambda s: s.label)
def test_half_difference_matches_its_row_form(spec):
    w = gen_weight(spec)
    tree = verifiers._tree(w, PSI)
    assert (tree.sorted is None) == (w.depth == 14)
    for lev, lv in enumerate(tree.levels()):
        if lev == w.depth:
            break
        m = lv.grid.size
        plus_above = np.cumsum(lv.plus[:, ::-1], axis=1)[:, ::-1]
        want = (2 * plus_above - (m - np.arange(m))) / m
        got = lv.half_difference()
        assert got.dtype == want.dtype and np.array_equal(_bits(got), _bits(want)), lev


@pytest.mark.parametrize("right_first", [False, True])
def test_half_difference_is_exact_up_to_the_deepest_demo(right_first):
    # one row of m = 2^24 cells (failure-demo --depth 24), its left-child
    # cells all below or all above the right ones: the int32 prefix sum
    # reaches m/2 in size, and the half difference is +-min(k, m - k)/m
    m = 2 ** 24
    plus = np.zeros((1, m), dtype=bool)
    plus[0, m // 2:] = True
    if right_first:
        plus = ~plus
    level = verifiers._Level(np.broadcast_to(0.0, (m,)), None, np.empty((1, m)), plus, None,
                             np.zeros(1, dtype=bool), np.empty(0), np.ones(1, dtype=bool))
    got = level.half_difference()[0]
    k = np.arange(0, m, 4093)
    want = np.minimum(k, m - k) / m
    assert np.array_equal(got[k], -want if right_first else want)
    assert got[m // 2] == (-0.5 if right_first else 0.5)
