"""Theorem verifiers: Bellman induction over the dyadic tree plus one
certificate per embedding statement.

Every bounded certificate runs on one level-batched engine.  Level l of the
tree is the (2^l, m) matrix of sorted cell blocks, m = 2^(depth - l): row r
holds the values of w on the node (l, r) in ascending order, s_0 <= ... <=
s_{m-1}.  On the piece [s_{k-1}, s_k) (s_{-1} = 0) the node's normalized
distribution function is exactly N_I(t) = (m - k)/m, a survival grid that
every node of the level shares.  So every t-integral int g(N_I(t)) dt is a
row sum of piece lengths times g on the grid, and n_psi, script-B,
int N^2/phi, T(A+1, .) and u(N, M) are array passes over a level; no
per-node distribution object is built.  Ties and zero cells are pieces of
length zero.  Row sums run left to right, so those pieces add exact zeros:
two equal children have bitwise equal potentials, and their parent's gain
is exactly zero.  numpy sums a contiguous axis pairwise, so a row is never
reduced along its own axis: a level of few dense rows takes prefix sums,
any other reduces a C-ordered copy of its transposed products over the
outer axis, one row of it at a time (_row_integral).

A node's potential (script-B, script-T or f^2/u) is computed once, on its
own level, and its parent reads it there.  A node on which w is constant,
bit for bit, is held as its one value v: its sorted block is [v, ..., v],
so each of its integrals is v g(1), and its descendants inherit v without
a cell being read.  Dense array work runs only on the other rows, so a
spike or a lacunary weight costs O(2^depth) in all, not per level.  Every
tree is sorted once, top down: the root's block is stable-sorted and each
level below is a linear split of the non-constant rows of the one above.
A certificate reads the tree of its (w, Psi, J), a _Tree: the kernel of
Psi, phi on the finest grid and, when their dense form would fit in 1 MiB
(every tree of depth <= 13), the sorted levels.  A deeper tree is split
again, one level at a time, by each walk that reads its levels, and only
two adjacent levels are held at once.  Beside the sort the tree holds the
node arrays that do not depend on the test function f, each one array
over every node, whatever the depth: every node's live flag and n_psi,
embed's int N^2/phi, fd-embed's weighted-Haar w-part above the finest
level, and embed2's u(N, M) at every node's own budget and at the finest
level's phantom budget, for the most recent sequence.  The first
certificate that lacks one computes it in its own walk, as one more array,
and the tree keeps it, so each certificate of the weight computes only its
f-dependent part.  Every kernel value is a function of its point alone
(see `bellman`), so a later certificate reads the bits it would have
computed.  These arrays take 16 bytes a node, 8 a finest node and 66 a
node above the finest.  A kept tree also holds, computed once, what each
of its certificates would otherwise recompute (_Tree.memo): w's averages
in heap order (8 bytes a node), the live nodes' positions, labels and
|I| (25 bytes a live node, once: those above the finest level are a
prefix of them), and the layout of the points at which T is read
(12 bytes a point: a point per dense cell of each level, one per
constant row, and one per finest node for the phantom generation, at
most (d + 2) 2^d).  A streamed tree holds none of these: each
certificate computes them.  The tree of a depth-13 random martingale,
with every array filled, holds 4.1 MB, 2.0 MB of it in the memo.

Lifetimes, one rule for every depth: the tree of the most recent (w, Psi,
J) is the current one, matched by the identity of w and Psi, which it
holds, and the equality of J (_tree).  A tree of another (w, Psi, J)
replaces it whole, and the old tree is dropped before the new one is
built, so one tree is held at a time.  The depth of the tree, that of w
on J, decides only whether its sorted levels and its memo are kept, or
split again and recomputed by each walk.
The kernel of Psi is built in one place, bellman.kernel_of, which keeps
the kernel of the most recent Psi: one kernel per Psi in a process, so
its C and tables are evaluated once, and a forked worker inherits its
parent's.  A sequence's normalized copy lives on the sequence
(CarlesonSequence.norm_capped).

The Carleson-Buckley condition holds for every dyadic J, and a certificate
under J is the root certificate of w on J: its tree works on
w.restrict(J), the 2^(depth - J.level) cells of J, and the checks restrict
f and the sequence to J.  A restriction keeps every average, accumulator
and sorted block bit for bit; only labels and lengths are relative, so
every label (_labels) and every |I| is taken back to the whole tree.  What
needs the sorted rows (n_psi, the potentials script-B and script-T, the
stage-1 integral of the half difference, int N^2/phi, u) is integrated
level by level, or read from the tree, into arrays over its nodes in heap
order, level-major with the index ascending, so the node at k has its
children at 2k + 1 and 2k + 2 (_node_arrays).  The walk holds a kept
tree's levels at once and a streamed tree's one at a time, and every
T(A+1, N) = N G(N/(A+1)) of the levels it holds (embed's script-T,
embed2's u, each at every node and at the finest level's phantom) is one
kernel call (_T).  A kept tree evaluates it over its layout, a flat,
level-major array of its points, each with the int32 heap row of its
budget A: one gather, one divide, one kernel call and one product per
certificate.  A streamed tree divides each level's grid by its rows'
budgets and makes one call per level.  Every step after that is elementwise and runs once
over the nodes: the gains, the stage bounds, the weighted Haar split with
its identity and alpha-bound checks, the f/M consistency checks and the
verdicts.  Each elementwise step takes the same inputs as it would a level
at a time, and every sum over nodes is a running sum in heap order, so the
values are bit for bit those of a node-by-node walk.

Skip rule: nodes on which w vanishes identically carry no term and no
inequality.  They are computed with the rest of their level, then dropped,
and not counted.  Failed nodes are reported level-major with the index
ascending, as plain Python numbers.  Four functions decide every bounded
certificate: _gain, the midpoint gain 0.5 (pot(I-) + pot(I+)) - pot(I);
_chain, each node's chain gain >= bounds[0] >= bounds[1] ...; _holds, the
one rule big >= small - ineq_slack max(1, |big|, |small|) of every link
and of every global bound, budget and Parseval check; and _certificate,
the verdict, ratio and Certificate of d-embed, embed and embed2 (through
bellman_induction) and of fd-embed.  The per-node functions of `bellman`
and `carleson` (check_pde_step, check_embed_step, check_paraproduct_step,
weighted_haar_decompose) compute the same quantities one node at a time.

Certificate constants (derived, documented in the module docstrings of
`bellman`):

    differential embedding        sum |I| (D w)^2 / n_psi  <= 16 B'(1) w(J)
    embedding with a sequence     sum |I| a_I <w>^2/n_psi  <= 4 C w(J),  C = B'(1)
    f-differential embedding      <= (8/Psi(1) + 128 B'(1)) int f^2 w
    bump embedding (paraproduct)  <= 16 int f^2 w

The classical Buckley ratio is reported without a verdict: off the
Muckenhoupt class it grows without bound (spike family: exactly 4 depth),
which is the failure the bounded certificates above repair.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bellman import (
    EMBED_STEP_FACTOR,
    PARAPRODUCT_CONSTANT,
    PDE_FINAL_FACTOR,
    PDE_STAGE1_FACTOR,
    _require_normalized,
    kernel_of,
)
from .carleson import CarlesonSequence
from .config import DEFAULT_TOL, Tolerances
from .corpus import CorpusSpec, check_rhi, gen_weight
from .intervals import ROOT, DyadicInterval
from .orlicz import PsiFunction
from .weights import DyadicWeight, StepFunction, finite, heap_averages, level_sums


@dataclass(frozen=True)
class Certificate:
    theorem: str
    root: tuple[int, int]
    lhs: float
    rhs_base: float
    constant: float
    passed: bool
    ratio: float
    node_count: int = 0
    failures: tuple = ()
    breakdown: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Plain-JSON form; a non-finite float (the report-only constants,
        the fd-embed fields when d-embed fails) is written as null."""
        return _strict_json({
            "theorem": self.theorem,
            "root": self.root,
            "lhs": self.lhs,
            "rhs_base": self.rhs_base,
            "constant": self.constant,
            "ratio": self.ratio,
            "verdict": "pass" if self.passed else "fail",
            "node_count": self.node_count,
            "failures": self.failures,
            "breakdown": self.breakdown,
        })

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _strict_json(x):
    """x with every non-finite float replaced by None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _strict_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict_json(v) for v in x]
    return x


# ---------------------------------------------------------------------------
# the level engine
# ---------------------------------------------------------------------------

class _Level(NamedTuple):
    """One level of the tree: the shared grid, phi on it and the sorted cell
    blocks of its rows.  A row on which w is constant, bit for bit, is held
    as its one value v; its sorted block is [v, ..., v] and its piece
    lengths [v, 0, ..., 0].  Every other row is held dense."""

    grid: np.ndarray            # (m,) survival values (m - k)/m
    phi: np.ndarray             # (m,) phi on the grid
    pieces: np.ndarray          # (D, m) piece lengths s_k - s_{k-1} of the dense rows
    plus: np.ndarray            # (D, m) the sorted cell lies in the right child
    dense: np.ndarray | None    # (D,) the row of each dense row; None: no row is constant
    const: np.ndarray           # (W,) the row is constant
    value: np.ndarray           # (C,) w on each constant row, in row order
    live: np.ndarray            # (W,) w is not identically zero on the row

    def integral(self, g: np.ndarray, at_one=None) -> np.ndarray:
        """int g(N_I(t)) dt of every row, for g sampled on the grid: (m,)
        for every row, or (D, m) for the dense rows with at_one its value at
        N = 1 on the constant rows.  A constant row's dense sum is v g(1)
        followed by the products 0 g(N) of its zero pieces: the engine's
        integrands are finite and positive below N = 1, so those add up to
        +0.0 and change only a v g(1) of -0.0."""
        if self.dense is None:
            return _row_integral(self.pieces, g)
        ones = self.value * (g[0] if at_one is None else at_one)
        if self.pieces.shape[1] > 1:
            ones += 0.0
        if not self.dense.size:
            return ones
        out = np.empty(self.live.size)
        out[self.dense] = _row_integral(self.pieces, g)
        out[self.const] = ones
        return out

    def n_psi(self) -> np.ndarray:
        return self.integral(self.phi)

    def of(self, nodes: np.ndarray) -> np.ndarray:
        """The rows' entries of an array over the nodes of the tree in heap
        order, where a level of width W starts at W - 1."""
        width = self.live.size
        return nodes[width - 1:2 * width - 1]

    def half_difference(self) -> np.ndarray:
        """(N_{I+} - N_{I-})/2 on every piece of the dense rows of a level
        above the finest, exact: m times it is the sum of +1 per right-child
        cell and -1 per left-child cell at or above each sorted position.
        Every row holds m/2 of each, so that suffix sum is minus the sum
        before the position, and one int32 prefix sum over the whole level
        (|it| <= m/2) restarts at each row boundary.  On a constant row it
        is 0 at N = 1."""
        signs = self.plus.ravel().view(np.int8) * 2 - 1
        above = signs - np.cumsum(signs, dtype=np.int32)
        return (above / self.grid.size).reshape(self.plus.shape)


def _labels(pos: np.ndarray, j: DyadicInterval):
    """(level, index) in the whole tree of the nodes at the positions pos of
    the tree under j in its heap order; the level is an int8."""
    below = np.frexp(pos + 1.0)[1] - 1      # floor(log2(pos + 1)), exact
    width = np.left_shift(1, below, dtype=np.int64)
    return (below + j.level).astype(np.int8), j.index * width + (pos + 1 - width)


def _row_integral(pieces: np.ndarray, g: np.ndarray) -> np.ndarray:
    """int g(N_I(t)) dt of every row of pieces, for g sampled on the grid:
    one (m,) array for the level or one (W, m) row per node.  Summed left to
    right, so zero-length pieces add exact zeros.  numpy sums a contiguous
    axis pairwise, so a row is never reduced along its own axis: from 16
    rows on, the products are copied to a C-ordered (m, W) array (an extra
    temporary) and reduced over its outer axis, one row of it at a time,
    from -0.0, which adds nothing even to a -0.0; fewer rows are faster
    with prefix sums, which overwrite the products."""
    buf = pieces * g
    if buf.shape[0] >= 16:
        return np.add.reduce(np.ascontiguousarray(buf.T), axis=0, initial=-0.0)
    np.cumsum(buf, axis=1, out=buf)
    return buf[:, -1].copy()


def _top_grid(w: DyadicWeight) -> np.ndarray:
    """The survival grid of the root's level.  Every grid below it is a
    slice, grid[::2^l], so a kernel is evaluated on it once per tree."""
    m = 2 ** w.depth
    return (m - np.arange(m)) / m


def _constant_rows(w: DyadicWeight) -> list:
    """For every level of the tree, root first, the mask of the nodes on
    which w is constant, bit for bit (so a node mixing 0.0 and -0.0 is not),
    or None for a level with none.  A node is constant when both children
    are and their values agree, so the masks are built from the finest
    level up and stop below the first level without a constant node."""
    bits = w.values.view(np.int64)
    same = [np.ones(bits.size, dtype=bool)]
    while bits.size > 1:
        up = (bits[0::2] == bits[1::2]) & same[-1][0::2] & same[-1][1::2]
        if not up.any():
            break
        bits = bits[0::2]
        same.append(up)
    return [None] * (w.depth + 1 - len(same)) + same[::-1]


def _sorted_levels(w: DyadicWeight, phi: np.ndarray):
    """The _Level of every level of the tree, root first, for phi on the
    finest grid.  The root's block is stable-sorted once; a row's
    sorted cells split, in order, into the sorted cells of its two children,
    so each level below is a linear split of the one above and ties stay in
    cell order, as a stable sort of the level would leave them.  A row that
    is constant leaves the split, and its value is read from the cells.
    order holds cell positions (int32 halves the memory)."""
    m = 2 ** w.depth
    grid, block = _top_grid(w), w.values
    order = np.argsort(block, kind="stable").astype(np.int32).reshape(1, m)
    dense = None
    for width_log, const in enumerate(_constant_rows(w)):
        width = 2 ** width_log
        if const is None:
            const = np.zeros(width, dtype=bool)
        else:
            keep = ~const if dense is None else ~const[dense]
            if not keep.all():
                order = order[keep]
                dense = np.flatnonzero(keep) if dense is None else dense[keep]
        cells = block.take(order.ravel())
        pieces = np.empty_like(cells)
        np.subtract(cells[1:], cells[:-1], out=pieces[1:])
        pieces[::m] = cells[::m]
        value = block[::m][const]
        if dense is None:
            live = cells[m - 1::m] > 0
        else:
            live = np.empty(width, dtype=bool)
            live[dense] = cells[m - 1::m] > 0
            live[const] = value > 0
        del cells
        plus = (order & (m - 1)) >= m // 2
        yield _Level(grid[::width], phi[::width], pieces.reshape(order.shape), plus, dense,
                     const, value, live)
        if m == 1:
            return
        count, m = order.shape[0], m // 2
        split = np.empty((2 * count, m), dtype=np.int32)
        flat, right = order.ravel(), plus.ravel()
        split[0::2] = np.compress(~right, flat).reshape(count, m)
        split[1::2] = np.compress(right, flat).reshape(count, m)
        order = split
        if dense is not None:
            dense = np.stack((2 * dense, 2 * dense + 1), axis=1).ravel()


# The dense form of a tree's sorted levels is (d + 1) 2^d cells of 9 bytes
# (a float64 piece length and a bool child label).  A tree whose dense
# form fits in this many bytes (depth <= 13) keeps its sorted levels.  Its
# collapsed levels hold no more cells than the dense form; each row adds at
# most 18 bytes (its live and constant flags, its value or dense row
# number, and its n_psi) and phi 8 bytes a finest cell.  A kept tree's memo
# adds at most 12 (d + 2) 2^d bytes for the layout of T's points (1.5 MB
# at depth 13), 8 a node for w's averages and 25 a live node for the live
# labels.
_SLOT_BYTES = 2 ** 20

# the node arrays a tree keeps once a walk has computed them: those of
# (w, psi) alone, and u of the tree's sequence (_SEQ_ARRAYS)
_SEQ_ARRAYS = ("u", "u_phantom")
_KEPT = ("live", "n_psi", "n2_phi") + _SEQ_ARRAYS


class _Tree:
    """The dyadic tree of (whole, psi) under j and the work its certificates
    share: w is whole.restrict(j), which every walk reads, kernel is
    kernel_of(psi), phi is psi.phi on the finest grid, and sorted is the
    _Level of every level, root first, or None when the dense form of w
    does not fit _SLOT_BYTES: its walks split the levels again one at a
    time.  nodes holds the arrays of _KEPT over every node in heap order
    that a walk on the tree has computed, whatever its depth, those of
    _SEQ_ARRAYS for the sequence seq; each kept level's live flags are a
    view of nodes["live"].  memo holds what a kept tree computes once for
    all its certificates (avgs, live_above, live_nodes, layout)."""

    def __init__(self, whole: DyadicWeight, psi: PsiFunction, j: DyadicInterval) -> None:
        self.whole, self.j, self.psi, self.kernel = whole, j, psi, kernel_of(psi)
        self.w = w = whole.restrict(j)
        self.phi = psi.phi(_top_grid(w))
        self.sorted, self.nodes, self.seq, self.memo = None, {}, None, {}
        if (w.depth + 1) * 2 ** w.depth * 9 <= _SLOT_BYTES:
            levels = tuple(_sorted_levels(w, self.phi))
            live = self.nodes["live"] = np.concatenate([lv.live for lv in levels])
            self.sorted = tuple(lv._replace(live=live[2 ** lev - 1:2 ** (lev + 1) - 1])
                                for lev, lv in enumerate(levels))

    def levels(self):
        """Every level of the tree, root first: the kept ones, or each split
        from the one above when it is reached."""
        return self.sorted or _sorted_levels(self.w, self.phi)

    def use_seq(self, seq: CarlesonSequence) -> None:
        """Make seq, unrestricted, the sequence whose arrays the tree keeps."""
        if self.seq is not seq:
            self.seq = seq
            for name in _SEQ_ARRAYS:
                self.nodes.pop(name, None)

    @cached_property
    def haar(self) -> _HaarWeight:
        return _haar_weight(self)

    @property
    def avgs(self) -> np.ndarray:
        """w's averages over every node in heap order (heap_averages)."""
        return self._kept("avgs", self.w.heap_averages)

    @property
    def live_nodes(self) -> _Live:
        """Every live node."""
        return self._kept("live_nodes", self._live)

    @property
    def live_above(self) -> _Live:
        """The live nodes above the finest level: a prefix of live_nodes,
        whose arrays it views."""
        def make():
            live = self.live_nodes
            count = np.searchsorted(live.pos, 2 ** self.w.depth - 1)
            return _Live(*(a[:count] for a in live))
        return self._kept("live_above", make)

    @property
    def layout(self) -> tuple:
        """The _layout of a kept tree's levels."""
        return self._kept("layout", lambda: _layout(self.sorted))

    def _kept(self, name: str, make):
        """make(): computed once and kept in self.memo on a kept tree, and
        by every call on a streamed one, which holds no more than its node
        arrays."""
        if self.sorted is None:
            return make()
        if name not in self.memo:
            self.memo[name] = make()
        return self.memo[name]

    def _live(self) -> _Live:
        """The live nodes, from the live flags of _node_arrays."""
        pos = np.flatnonzero(_node_arrays(self)["live"])
        level, index = _labels(pos, self.j)
        return _Live(pos, level, index, np.ldexp(1.0, -level))


class _Live(NamedTuple):
    """The live nodes of a tree, or of its levels above the finest, in heap
    order."""

    pos: np.ndarray         # positions in the tree's heap order
    level: np.ndarray       # levels in the whole tree (int8)
    index: np.ndarray       # indices in the whole tree
    length: np.ndarray      # |I|


# The tree of the most recent (w, psi, j).
_current = None


def _tree(w: DyadicWeight, psi: PsiFunction, j: DyadicInterval = ROOT) -> _Tree:
    """The tree of (w, psi) under j: the current one if it holds w, psi and
    j, or else a new one, which becomes current whatever its depth; the old
    tree is dropped before the new one is built.  Every tree reads the
    kernel of its psi from kernel_of, which builds one per Psi in a
    process, and a kept tree holds its live labels once (25 bytes a live
    node)."""
    global _current
    if _current is not None and _current.whole is w and _current.psi is psi and _current.j == j:
        return _current
    _current = None
    _current = _Tree(w, psi, j)
    return _current


def _node_arrays(tree: _Tree, script=None, **per_level) -> dict:
    """live and n_psi of every node of the tree and fn(level) for each fn of
    per_level.  With script = (form, (name, phantom), budgets), also
    form(level, *T) for name on every level and for phantom on the finest
    level, with T the _T of A + 1 for the budgets A of its nodes: budgets
    holds one a node in heap order, then one a node of the finest level
    for its phantom generation.  One walk writes each per-level array level
    by level into one array over the nodes in heap order.  The walk holds a
    kept tree's levels at once, or a streamed tree's one at a time, and
    evaluates the T of every level it holds in one kernel call (_T).  An array of _KEPT is read from tree.nodes: the walk
    computes one that the tree lacks, and the tree keeps it."""
    form, names, budgets = script or (None, (), None)
    per_level = {"live": lambda lv: lv.live, "n_psi": _Level.n_psi, **per_level}
    out = {name: tree.nodes[name] for name in (*per_level, *names) if name in tree.nodes}
    walk = {name: fn for name, fn in per_level.items() if name not in out}
    scripted = names and names[0] not in out
    if walk or scripted:
        size = 2 ** (tree.w.depth + 1) - 1

        def put(name, lv, part):
            if name not in out:
                out[name] = np.empty(size, dtype=part.dtype)
            lv.of(out[name])[:] = part

        levels = tree.levels()
        for held in [levels] if tree.sorted is not None else ((lv,) for lv in levels):
            for lv in held:
                for name, fn in walk.items():
                    put(name, lv, fn(lv))
            if scripted:
                t, at = _T(tree, held, budgets), 0
                for lv, phantom in _parts(held):
                    dense, ones = lv.pieces.size, lv.value.size
                    part = form(lv, t[at:at + dense].reshape(lv.pieces.shape),
                                t[at + dense:at + dense + ones])
                    at += dense + ones
                    if phantom:
                        out[names[1]] = part
                    else:
                        put(names[0], lv, part)
                del t    # freed before a streamed walk splits the next level
        tree.nodes.update((name, out[name]) for name in _KEPT if name in out)
    return out


def _holds(big, small, tol: Tolerances):
    """big >= small within ineq_slack * max(1, |big|, |small|), elementwise
    over arrays or on two floats."""
    return big >= small - tol.ineq_slack * np.maximum(np.maximum(abs(big), abs(small)), 1.0)


def _gain(pot: np.ndarray, phantom: np.ndarray | None = None) -> np.ndarray:
    """0.5 (pot(I-) + pot(I+)) - pot(I) for pot over a tree's nodes in heap
    order: at every node above the finest level, or at every node, given the
    potential of the finest level's phantom children."""
    pair = pot[1::2] + pot[2::2]
    if phantom is None:
        return 0.5 * pair - pot[:pair.size]
    return 0.5 * np.concatenate((pair, phantom + phantom)) - pot


def _bump_term(alpha: np.ndarray, avg: np.ndarray, n_psi: np.ndarray) -> np.ndarray:
    """alpha <g>^2 / n_psi: the lhs term of both embed (g = w) and embed2
    (g = fw), so embed2 with f == 1 reproduces embed's lhs bit for bit."""
    with np.errstate(divide="ignore", invalid="ignore"):   # n_psi = 0 off the live rows
        return alpha * avg * avg / n_psi


def _parts(levels):
    """(level, phantom) for each part of the points at which a certificate
    reads T(A + 1, N) on levels, in order: every level, then the finest
    level once more, for its phantom generation, if levels end with it.  A
    part is its level's dense rows, each row's grid in turn, then N = 1 once
    for each constant row: the two arguments of _Level.integral."""
    parts = [(lv, False) for lv in levels]
    if levels[-1].grid.size == 1:
        parts.append((levels[-1], True))
    return parts


def _layout(levels) -> tuple:
    """(N, row): every point of the _parts of a kept tree's levels, with the
    entry of the budgets A that it reads, an int32: a node's budget is at its
    heap position, and a phantom budget after all nodes, at 2^(depth + 1) -
    1 plus its index."""
    parts = _parts(levels)
    size = 2 * levels[-1].live.size - 1
    grid = np.empty(sum(lv.pieces.size + lv.value.size for lv, _ in parts))
    rows = np.empty(grid.size, dtype=np.int32)
    at = 0
    for lv, phantom in parts:
        dense, ones = lv.pieces.size, lv.value.size
        first = size if phantom else lv.live.size - 1
        row = np.arange(lv.live.size) if lv.dense is None else lv.dense
        grid[at:at + dense].reshape(lv.pieces.shape)[:] = lv.grid
        rows[at:at + dense].reshape(lv.pieces.shape)[:] = (row + first)[:, None]
        grid[at + dense:at + dense + ones] = 1.0
        rows[at + dense:at + dense + ones] = np.flatnonzero(lv.const) + first
        at += dense + ones
    return grid, rows


def _T(tree: _Tree, held, budgets: np.ndarray) -> np.ndarray:
    """T(A + 1, N) = N G(N / (A + 1)) at every point of the _parts of the
    levels held, A the budgets it reads (as in _layout), in one kernel call.
    A kept tree reads its _layout: one gather, one divide, one kernel call
    and one product.  A streamed level divides each dense row's grid by its
    row's budget, part by part, and multiplies the kernel's values by their
    N in place."""
    if tree.sorted is not None:
        grid, rows = tree.layout
        x = (budgets + 1.0)[rows]
        t = tree.kernel.G(np.divide(grid, x, out=x))
        return np.multiply(t, grid, out=t)
    parts = _parts(held)
    x, at = np.empty(sum(lv.pieces.size + lv.value.size for lv, _ in parts)), 0
    for lv, phantom in parts:
        divisor = (budgets[2 * lv.live.size - 1:] if phantom else lv.of(budgets)) + 1.0
        dense, ones = lv.pieces.size, lv.value.size
        np.divide(lv.grid, (divisor if lv.dense is None else divisor[lv.dense])[:, None],
                  out=x[at:at + dense].reshape(lv.pieces.shape))
        np.divide(1.0, divisor[lv.const], out=x[at + dense:at + dense + ones])
        at += dense + ones
    t = tree.kernel.G(x)
    del x
    at = 0
    for lv, _ in parts:
        dense = t[at:at + lv.pieces.size].reshape(lv.pieces.shape)
        np.multiply(dense, lv.grid, out=dense)
        at += lv.pieces.size + lv.value.size
    return t


class LevelChecks(NamedTuple):
    """The checked nodes of the subtree under a root J: the live ones, in
    heap order (level-major with the index ascending)."""

    level: np.ndarray       # node levels (int8)
    index: np.ndarray       # node indices
    length: np.ndarray      # |I|
    term: np.ndarray        # certificate lhs term of each node
    gain: np.ndarray        # left side of each node inequality
    bounds: tuple           # what the gain must dominate: (stage1, stage2) or (rhs,)
    passed: np.ndarray


def _chain(live: _Live, term, gain, bounds: tuple, tol: Tolerances) -> LevelChecks:
    """The LevelChecks of the live nodes of arrays over a tree's nodes in
    heap order: a node passes when gain >= bounds[0] >= bounds[1] ... holds
    link by link (_holds)."""
    passed = _holds(gain, bounds[0], tol)
    for big, small in zip(bounds, bounds[1:]):
        passed &= _holds(big, small, tol)
    pos = live.pos
    return LevelChecks(live.level, live.index, live.length, term[pos], gain[pos],
                       tuple(b[pos] for b in bounds), passed[pos])


def _walk_totals(rows) -> list:
    """The sum of each row of rows (a 2-D array, or equal-length 1-D arrays,
    copied into one) with its terms added one at a time, in order, from
    0.0: one running sum along the rows, since 0.0 + t is t for every t but
    -0.0, plus 0.0, which turns the -0.0 of an all-(-0.0) sum into the +0.0
    a start from 0.0 gives."""
    rows = np.asarray(rows)
    if not rows.shape[1]:
        return [0.0] * rows.shape[0]
    return (np.cumsum(rows, axis=1)[:, -1] + 0.0).tolist()


def bellman_induction(checks: LevelChecks, j: DyadicInterval,
                      constant: float, rhs_base: float, theorem: str,
                      breakdown: dict, tol: Tolerances = DEFAULT_TOL) -> Certificate:
    """Reduce the node checks of the subtree under j.

    The telescoping identity sum |I| gain_I = +-(leaf potential - root
    potential) is bookkeeping; the certificate asserts

        lhs := sum |I| * term_I  <=  constant * rhs_base

    summed node by node in heap order, and fails if any node inequality
    failed, each such node recorded as (level, index, gain, *bounds).  The
    per-node record is checks itself.
    """
    lhs, telescoped = _walk_totals((checks.length * checks.term,
                                    checks.length * checks.gain))
    bad = ~checks.passed
    failures = zip(checks.level[bad].tolist(), checks.index[bad].tolist(),
                   checks.gain[bad].tolist(), *(b[bad].tolist() for b in checks.bounds))
    return _certificate(theorem, j, lhs, rhs_base, constant, checks.index.size, failures,
                        {**breakdown, "telescoped_gain": telescoped}, tol)


def _certificate(theorem: str, j: DyadicInterval, lhs: float, base: float, constant: float,
                 count: int, failures, breakdown: dict, tol: Tolerances) -> Certificate:
    """The Certificate of a bounded theorem under j: it passes when lhs <=
    constant * base holds (_holds) and no failure was recorded; its ratio
    is lhs / base, or 0.0 when base is not positive."""
    failures = tuple(failures)
    passed = bool(_holds(constant * base, lhs, tol)) and not failures
    return Certificate(theorem, (j.level, j.index), lhs, base, constant, passed,
                       lhs / base if base > 0 else 0.0, node_count=count,
                       failures=failures, breakdown=breakdown)


# ---------------------------------------------------------------------------
# classical ratios (no verdict; they fail off the Muckenhoupt class)
# ---------------------------------------------------------------------------

def verify_buckley_classic(w: DyadicWeight, j: DyadicInterval = ROOT) -> Certificate:
    """Classical ratio sum (Delta_I w)^2/<w>_I |I| over w(J); reported only."""
    lhs = 0.0
    count = 0
    for lev in range(j.level, w.depth):
        a, b = j.cell_range(lev)
        parent = w.level_averages(lev)[a:b]
        child = w.level_averages(lev + 1)[2 * a : 2 * b]
        dw = child[1::2] - child[0::2]
        pos = parent > 0
        lhs += float(np.sum(dw[pos] ** 2 / parent[pos])) * 2.0 ** (-lev)
        count += int(np.sum(pos))
    base = w.mass(j)
    ratio = lhs / base if base > 0 else 0.0
    return Certificate("buc-classic", (j.level, j.index), lhs, base,
                       float("nan"), True, ratio, node_count=count,
                       breakdown={"assertion": "none (report only)"})


def verify_folk(w: DyadicWeight, seq: CarlesonSequence,
                j: DyadicInterval = ROOT, assert_rhi_bound: bool = False,
                tol: Tolerances = DEFAULT_TOL) -> Certificate:
    """Ratio sum <w>_I alpha_I |I| / w(J) for a normalized sequence.

    With assert_rhi_bound the certificate additionally checks the bound
    4 * C_rhi obtained by writing <w>_I <= C_rhi <sqrt(w)>_I^2 and applying
    the unweighted Carleson embedding to sqrt(w); off the Muckenhoupt class
    C_rhi is unbounded and the check is informational.
    """
    seqn, norm = seq.norm_capped
    lhs = 0.0
    count = 0
    for lev in range(j.level, w.depth + 1):
        a, b = j.cell_range(lev)
        avg = w.level_averages(lev)[a:b]
        lhs += float(np.dot(avg, seqn.levels[lev][a:b])) * 2.0 ** (-lev)
        count += avg.size
    base = w.mass(j)
    ratio = lhs / base if base > 0 else 0.0
    breakdown = {"normalization": norm}
    passed = True
    constant = float("nan")
    if assert_rhi_bound:
        c_rhi = check_rhi(w, j)
        constant = 4.0 * c_rhi
        passed = bool(_holds(constant * base, lhs, tol))
        breakdown["c_rhi"] = c_rhi
    return Certificate("folk", (j.level, j.index), lhs, base, constant,
                       passed, ratio, node_count=count, breakdown=breakdown)


# ---------------------------------------------------------------------------
# the bounded certificates
# ---------------------------------------------------------------------------

def _pde_checks(tree: _Tree, tol: Tolerances) -> LevelChecks:
    """check_pde_step at every node of the tree above the finest level: one
    pass over its node arrays in heap order, after the row integrals of
    script-B and of stage1."""
    w = tree.w
    b_top = tree.kernel.B(_top_grid(w))
    nodes = _node_arrays(
        tree,
        pot=lambda lv: lv.integral(b_top[::b_top.size // lv.grid.size]),
        # h = 0 at N = 1 on a constant row: its two children are equal.
        # Every row of the finest level is one, so its unread entries are
        # one product a node
        stage1=lambda lv: lv.integral(lv.half_difference() ** 2 / lv.phi, 0.0))
    del b_top
    pot = nodes.pop("pot")
    gain = _gain(pot)
    above = gain.size
    del pot
    stage1 = PDE_STAGE1_FACTOR * nodes.pop("stage1")[:above]
    avgs = tree.avgs
    dw = avgs[2::2] - avgs[1::2]
    del avgs
    with np.errstate(divide="ignore", invalid="ignore"):   # n_psi = 0 off the live rows
        stage2 = PDE_FINAL_FACTOR * dw * dw / nodes["n_psi"][:above]
    # certificate lhs counts (Delta_I w)^2 / n_psi = stage2 / final factor
    return _chain(tree.live_above, stage2 / PDE_FINAL_FACTOR, gain, (stage1, stage2), tol)


def _embed_checks(tree: _Tree, seq: CarlesonSequence, tol: Tolerances) -> LevelChecks:
    """check_embed_step at every node of the tree, the finest level through
    a phantom generation: one pass over its node arrays in heap order, after
    the row integrals of script-T and int N^2/phi."""
    w, seq = tree.w, seq.restrict(tree.j)
    m, alpha = np.concatenate(seq.accumulators), np.concatenate(seq.levels)
    cells = slice(2 ** w.depth - 1, None)     # the finest level's nodes
    nodes = _node_arrays(
        tree,
        # script-T at every node, and through a phantom generation below the
        # finest level: identical children carrying the remaining
        # accumulator mass (zero)
        script=(_Level.integral, ("pot", "phantom"),
                np.concatenate((m, m[cells] - alpha[cells]))),
        # int N^2/phi depends on (w, psi) alone: the tree keeps it
        n2_phi=lambda lv: lv.integral(lv.grid * lv.grid / lv.phi))
    over = nodes["live"] & (m > 1.0 + 1e-9)
    if over.any():
        raise ValueError(f"Carleson accumulator {m[over][0]} exceeds 1; normalize first")
    del m
    pot, phantom = nodes.pop("pot"), nodes.pop("phantom")
    gain = _gain(pot, phantom)
    del pot, phantom
    stage1 = EMBED_STEP_FACTOR * alpha * nodes.pop("n2_phi")
    # the lhs term a_I <w>_I^2 / n_psi is stage2 over the step factor
    term = _bump_term(alpha, tree.avgs, nodes["n_psi"])
    del alpha
    return _chain(tree.live_nodes, term, gain, (stage1, EMBED_STEP_FACTOR * term), tol)


def _paraproduct_checks(tree: _Tree, f: StepFunction, seq: CarlesonSequence,
                        tol: Tolerances) -> LevelChecks:
    """check_paraproduct_step at every node of the tree, the finest level
    through a phantom generation: one pass over its node arrays in heap
    order, after the row integrals of u."""
    w = tree.w
    tree.use_seq(seq)
    seq = seq.restrict(tree.j)
    m, a = np.concatenate(seq.accumulators), np.concatenate(seq.levels)
    f_i = heap_averages(level_sums(_times(f.cells(tree.j), w.values)))
    above = f_i.size // 2     # the nodes above the finest level

    def bellman(u_i, fv):
        """B~(f, N_I, M) = f^2 / u(N_I, M)."""
        if np.any((u_i <= 0) & (fv != 0)):
            raise ValueError("f^2/u undefined: u <= 0 with f != 0")
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(u_i > 0, fv * fv / u_i, 0.0)

    # u(N_I, M) = int (2N - T(M+1, N)) dt at each node's own budget M and
    # the finest level's phantom M - a; it depends on (w, seq, psi) alone:
    # the tree keeps it, and every f of the sequence reads it there
    cells = slice(2 ** w.depth - 1, None)     # the finest level's nodes
    phantom = m[cells] - a[cells]
    # the first budget outside [0, 1] in level order
    for m_budget in (m, phantom):
        out = (m_budget < -1e-9) | (m_budget > 1.0 + 1e-9)
        if out.any():
            raise ValueError(f"M = {m_budget[out][0]} outside [0, 1]")
    nodes = _node_arrays(
        tree,
        (lambda lv, t, t_at_one: lv.integral(2.0 * lv.grid - t, 2.0 - t_at_one),
         ("u", "u_phantom"), np.concatenate((m, phantom))))

    # phantom generation: the finest-level sequence mass enters as a pure
    # shift of the accumulator variable
    lhs = _gain(bellman(nodes["u"], f_i), bellman(nodes["u_phantom"], f_i[above:]))
    f_sum = np.concatenate((0.5 * f_i[1::2] + 0.5 * f_i[2::2], f_i[above:]))
    m_sum = a + np.concatenate((0.5 * m[1::2] + 0.5 * m[2::2], m[above:] - a[above:]))
    live = nodes["live"]
    if np.any(live & (np.abs(f_sum - f_i) > tol.identity * np.maximum(1.0, np.abs(f_i)))):
        raise ValueError("f inconsistent with sum alpha_k f_k")
    if np.any(live & (np.abs(m_sum - m) > tol.identity * np.maximum(1.0, np.abs(m)))):
        raise ValueError("M inconsistent with a + sum alpha_k M_k")
    # the lhs term a_I <fw>_I^2 / n_psi is the step's right side over its constant
    term = _bump_term(a, f_i, nodes["n_psi"])
    return _chain(tree.live_nodes, term, lhs, (PARAPRODUCT_CONSTANT * term,), tol)


def verify_d_embed(w: DyadicWeight, psi: PsiFunction, j: DyadicInterval = ROOT,
                   tol: Tolerances = DEFAULT_TOL) -> Certificate:
    """Differential embedding: sum |I| (Delta_I w)^2 / n_psi(N_I) <= 16 B'(1) w(J).

    Per node the full two-stage chain of check_pde_step is asserted; the
    telescoped potential is bounded by B(1) <= B'(1) at the leaves.
    """
    tree = _tree(w, psi, j)
    kernel = tree.kernel
    return bellman_induction(_pde_checks(tree, tol), j,
                             constant=16.0 * kernel.C, rhs_base=w.mass(j),
                             theorem="d-embed", breakdown={"leaf_bound": kernel.C}, tol=tol)


def verify_embed(w: DyadicWeight, seq: CarlesonSequence, psi: PsiFunction,
                 j: DyadicInterval = ROOT, tol: Tolerances = DEFAULT_TOL) -> Certificate:
    """Embedding with a Carleson sequence:

    sum_{I in J} |I| alpha_I <w>_I^2 / n_psi(N_I) <= 4 C w(J),
    C = int_0^1 ds/phi, the sum running over every level including the
    finest one.  Finest-level terms telescope through a phantom generation
    of identical children (the concavity gain there is a pure shift in the
    accumulator variable), so the constant is unchanged.  The sequence is
    normalized to Carleson norm 1 if needed (recorded).
    """
    tree = _tree(w, psi, j)
    kernel = tree.kernel
    seq, normalization = seq.norm_capped
    return bellman_induction(_embed_checks(tree, seq, tol), j,
                             constant=4.0 * kernel.C, rhs_base=w.mass(j),
                             theorem="embed",
                             breakdown={"normalization": normalization,
                                        "leaf_bound": kernel.C}, tol=tol)


def verify_embed2(w: DyadicWeight, f: StepFunction, seq: CarlesonSequence,
                  psi: PsiFunction, j: DyadicInterval = ROOT,
                  tol: Tolerances = DEFAULT_TOL) -> Certificate:
    """Bump embedding (paraproduct boundedness):

    sum |I| a_I <fw>_I^2 / n_psi(N_I^w) <= 16 int_J f^2 w

    via Bellman induction on B~(f, N, M) = (f)^2 / u(N, M) with the
    Carleson accumulators as the M variable.  Each node asserts the
    paraproduct step inequality with constant 1/16; leaves are bounded by
    Cauchy-Schwarz <fw>^2/<w> <= <f^2 w>.  The lhs term of a node is its
    step's right side over the constant, so f == 1 reproduces verify_embed's
    lhs bit for bit.  The derivative bound in M behind the step is checked
    by check_paraproduct_step(spot_check_derivative=True), not here.
    """
    tree = _tree(w, psi, j)
    _require_normalized(tree.kernel)
    seq, normalization = seq.norm_capped
    checks = _paraproduct_checks(tree, f, seq, tol)
    return bellman_induction(checks, j, constant=1.0 / PARAPRODUCT_CONSTANT,
                             rhs_base=_integral(_times(f.values * f.values, w.values), j),
                             theorem="embed2",
                             breakdown={"normalization": normalization,
                                        "leaf_bound": "cauchy-schwarz"},
                             tol=tol)


class _HaarWeight(NamedTuple):
    """The w-part of the weighted Haar split at the live nodes of a tree
    above the finest level (live_above), in heap order: what every f of
    the weight shares."""

    p: np.ndarray           # <w>_{I+}
    q: np.ndarray           # <w>_{I-}
    avg: np.ndarray         # <w>_I
    two_sided: np.ndarray   # both children carry w-mass
    kappa: np.ndarray
    alpha: np.ndarray
    root_avg: np.ndarray    # sqrt(<w>_I)
    n_psi: np.ndarray


def _haar_weight(tree: _Tree) -> _HaarWeight:
    n_psi = _node_arrays(tree)["n_psi"]
    heap, _, _, length = tree.live_above
    avgs = tree.avgs
    q, p, avg = avgs[2 * heap + 1], avgs[2 * heap + 2], avgs[heap]
    two_sided = (p != 0.0) & (q != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        mass_p, mass_q = p * length / 2.0, q * length / 2.0
        kappa = np.sqrt(mass_p * mass_q / (mass_p + mass_q))
        alpha = np.where(two_sided, np.sqrt(2.0 * p * q / (p + q)), 0.0)
    return _HaarWeight(p, q, avg, two_sided, kappa, alpha, np.sqrt(avg), n_psi[heap])


def _times(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The cells g w, with the ValueError of StepFunction.product on a depth
    mismatch or a product that is not finite."""
    if g.size != w.size:
        raise ValueError("depth mismatch")
    return finite(g * w)


def _integral(cells: np.ndarray, j: DyadicInterval) -> float:
    """int_J of the step function with these cells, bit for bit
    StepFunction.integral: the pairwise sum over J's cells times |cell|."""
    depth = cells.size.bit_length() - 1
    start, stop = j.cell_range(depth)
    return float(level_sums(cells[start:stop])[0][0]) * 2.0 ** (-depth)


def _haar_split(tree: _Tree, hw: _HaarWeight, above: _Live, fw: np.ndarray):
    """weighted_haar_decompose of f w, whose cells over the whole tree are
    fw, at the nodes above = tree.live_above, in full (not half)
    differences: (full, haar, drift, inner) with hw = tree.haar the w-part,
    full = Delta_I(fw) = haar + drift up to rounding, haar the w-Haar part
    and inner = (f, h_I^w)_{L2(w)}, both 0 where a child carries no w-mass,
    and drift = (<fw>_I / <w>_I) Delta_I w."""
    start, stop = tree.j.cell_range(tree.whole.depth)
    avgs = heap_averages(level_sums(fw[start:stop]))
    y, x = avgs[2 * above.pos + 1], avgs[2 * above.pos + 2]
    drift = avgs[above.pos] / hw.avg * 0.5 * (hw.p - hw.q)
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.where(hw.two_sided, hw.kappa * (x / hw.p - y / hw.q), 0.0)
    haar = hw.alpha * inner / np.sqrt(above.length)
    return 2.0 * (0.5 * (x - y)), 2.0 * haar, 2.0 * drift, inner


def verify_fd_embed(w: DyadicWeight, f: StepFunction, psi: PsiFunction,
                    j: DyadicInterval = ROOT,
                    tol: Tolerances = DEFAULT_TOL,
                    d_cert: Certificate | None = None) -> Certificate:
    """f-differential embedding:

    sum |I| (Delta_I(fw))^2 / n_psi(N_I) <= C_fd int_J f^2 w,
    C_fd = 8/Psi(1) + 128 B'(1).

    The left side splits through the weighted Haar decomposition into a
    Haar sum (bounded via |alpha_I| <= sqrt<w>_I, n_psi >= Psi(1) <w>, and
    the Parseval inequality), a drift sum (bounded by the differential
    embedding certificate feeding the weighted Carleson embedding, factor
    4 * 16 B'(1)), and their cross sum (Cauchy-Schwarz).  The report
    itemizes all three plus the budgets actually attained.
    """
    fw = _times(f.values, w.values)
    base = _integral(_times(f.values * f.values, w.values), j)
    # upfront: the drift sequence beta_I = (Delta_I w)^2 / n_psi must be
    # w-Carleson with the differential embedding constant at every prefix
    # (pass a precomputed certificate when sweeping many f over one w)
    if d_cert is None:
        d_cert = verify_d_embed(w, psi, j, tol=tol)
    if not d_cert.passed:
        return Certificate("fd-embed", (j.level, j.index), float("nan"),
                           float("nan"), float("nan"), False, float("nan"),
                           breakdown={"reason": "differential embedding failed"})

    tree = _tree(w, psi, j)
    kernel = tree.kernel
    psi_min = kernel.min_psi
    hw = tree.haar
    above = tree.live_above
    full, haar, drift, inner = _haar_split(tree, hw, above, fw)
    err = np.abs(full - (haar + drift))
    identity = err > tol.identity * np.maximum(1.0, np.abs(full)) * 10
    bound = hw.alpha > hw.root_avg * (1 + 1e-12)
    # per failed node, level-major with the index ascending: the identity
    # failure first, then the alpha bound
    failed = sorted(
        [(k, 0, "identity", e) for k, e in zip(np.flatnonzero(identity).tolist(),
                                               err[identity].tolist())]
        + [(k, 1, "alpha-bound", a) for k, a in zip(np.flatnonzero(bound).tolist(),
                                                    hw.alpha[bound].tolist())])
    ks = [k for k, *_ in failed]
    failures = [(lev, i, kind, v) for lev, i, (*_, kind, v)
                in zip(above.level[ks].tolist(), above.index[ks].tolist(), failed)]
    max_alpha_excess = float(np.max(hw.alpha - hw.root_avg, initial=-np.inf))
    length = above.length
    lhs, s_haar, s_drift, s_cross, parseval = _walk_totals((
        length * full * full / hw.n_psi,
        length * haar * haar / hw.n_psi,
        length * drift * drift / hw.n_psi,
        2.0 * length * haar * drift / hw.n_psi,
        inner ** 2))

    # component budgets from the assembly
    haar_budget = (4.0 / psi_min) * base
    drift_budget = 4.0 * (16.0 * kernel.C) * base
    for kind, total, budget in (("haar-sum budget", s_haar, haar_budget),
                                ("drift-sum budget", s_drift, drift_budget),
                                ("parseval", parseval, base)):
        if not _holds(budget, total, tol):
            failures.append((j.level, j.index, kind, total))
    return _certificate("fd-embed", j, lhs, base, 8.0 / psi_min + 128.0 * kernel.C,
                        above.pos.size, failures, {
                            "haar_sum": s_haar,
                            "drift_sum": s_drift,
                            "cross_sum": s_cross,
                            "haar_budget": haar_budget,
                            "drift_budget": drift_budget,
                            "parseval_sum": parseval,
                            "parseval_budget": base,
                            "max_alpha_excess": max_alpha_excess,
                            "d_embed_ratio": d_cert.ratio,
                        }, tol)


# ---------------------------------------------------------------------------
# the failure demonstration
# ---------------------------------------------------------------------------

def spike_weight(depth: int) -> DyadicWeight:
    """Unit-mass spike: 2^depth on the leftmost cell, zero elsewhere."""
    return gen_weight(CorpusSpec("spike", depth))


def spike_d_embed_closed_form(depth: int, psi: PsiFunction) -> float:
    """Exact spike-certificate left side: sum_{j=1}^depth 4 / Psi(2^-j)."""
    js = np.arange(1, depth + 1, dtype=np.float64)
    return float(np.sum(4.0 / psi.psi(2.0 ** -js)))


# the deepest spike the demo builds: its weight alone is 2^24 float64 cells
# (128 MB), and a deeper request fails before anything is allocated
FAILURE_DEMO_MAX_DEPTH = 24


@dataclass(frozen=True)
class FailureDemo:
    depths: tuple[int, ...]
    classical_ratios: tuple[float, ...]
    d_embed_ratios: tuple[float, ...]
    classical_growth: float
    d_embed_change: float
    passed: bool


def failure_demo(depth_hi: int = 12, psi: PsiFunction | None = None,
                 tol: Tolerances = DEFAULT_TOL) -> FailureDemo:
    """Spike-family contrast between the classical and bounded ratios.

    Classical Buckley ratio is exactly 4*depth (each spine node contributes
    4); the bounded certificate's ratio is a partial sum of a convergent
    series, so it stabilizes.  The demo passes when the classical ratio
    grows by a factor >= 1.8 over depths 6..depth_hi and every d-embed
    certificate of the series passes, whatever the Psi family.  The
    relative change of the bounded ratio is reported, not judged: its size
    depends on the family (15.3% over depths 6..12 for the clamped alpha = 2
    log family).  depth_hi is at most FAILURE_DEMO_MAX_DEPTH.
    """
    from .orlicz import psi_closed_form

    if depth_hi < 6:
        raise ValueError(f"depth_hi = {depth_hi} is below the lowest depth 6")
    if depth_hi > FAILURE_DEMO_MAX_DEPTH:
        raise ValueError(f"depth_hi = {depth_hi} exceeds the ceiling "
                         f"{FAILURE_DEMO_MAX_DEPTH}: a spike of depth d has 2^d cells")
    psi = psi or psi_closed_form(2.0)
    depths = tuple(range(6, depth_hi + 1))
    classical = []
    bounded = []
    certs_pass = True
    for d in depths:
        w = spike_weight(d)
        classical.append(verify_buckley_classic(w).ratio)
        cert = verify_d_embed(w, psi)
        certs_pass = certs_pass and cert.passed
        closed = spike_d_embed_closed_form(d, psi)
        if abs(cert.lhs - closed) > tol.slack(closed):
            raise AssertionError(
                f"spike closed form mismatch at depth {d}: {cert.lhs} vs {closed}")
        bounded.append(cert.ratio)
    growth = classical[-1] / classical[0]
    change = abs(bounded[-1] - bounded[0]) / bounded[0]
    passed = growth >= 1.8 and certs_pass
    return FailureDemo(depths, tuple(classical), tuple(bounded),
                       growth, change, passed)
