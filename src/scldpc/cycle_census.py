"""Counting 6-cycles (and 4-cycles) in coupled protographs and their lifts.

A 6-cycle is an unordered set of three rows plus an injective assignment of
pairwise-shared columns: column c12 carries 1s in rows r1 and r2, c13 in r1
and r3, c23 in r2 and r3, with the three columns distinct.  Three all-ones
rows over three columns therefore contain 6 cycles, the Hamiltonian cycles
of K_{3,3}.

Any 0/1 matrix, dense or as ColumnLists, is counted directly from its
row-pair overlaps, without listing a cycle; only each column's rows are
read.  With A[i,j] the number of columns rows i and j share and
t the number of columns covering all three rows of a triple, the triple
carries abc - t(a+b+c) + 2t cycles, where a, b, c are its three pairwise
overlaps (inclusion-exclusion on the three ways two of its columns can
coincide; cf. Halford and Chugg, IEEE T-IT 52(1), 2006).  Summed over all
row triples this is a weighted triangle sum over the overlap graph, minus
per-column corrections, each triangle closed by one gather from a table
of its lowest row's overlaps; a 4-cycle is a row pair with two shared columns.

Counts in the coupled protograph decompose by the replica where a cycle's
leftmost column sits and by its span k (number of consecutive replicas its
columns touch).  The count of span-k cycles starting in a replica does not
depend on the replica, so the total is sum_k (L-k+1) * F1[k], and F1[k] is
a polynomial in the column-overlap parameters of the partition.  Both come
from one weight on 6-cycle shapes: a shape gives the components of a
cycle's three columns at their two rows, which alone decide whether the
cycle closes and its span.  Contracting the weight with the pair overlaps,
less the same inclusion-exclusion over coinciding columns as above, gives
the count for any gamma and memory m (`ShapeCount`).

Lifting replaces each protograph 1 by a p x p circulant sigma**f.  A
protograph cycle walks cells (h1,l1),(h1,l2),(h2,l2),(h2,l3),(h3,l3),
(h3,l1); it yields p lifted cycles when its alternating power sum
f(h1,l1) - f(h1,l2) + f(h2,l2) - f(h2,l3) + f(h3,l3) - f(h3,l1) is 0 mod p
and none otherwise; such a cycle is called active.  The power of any
coupled-matrix cell depends only on its row residue mod gamma and column
residue mod kappa, so activity can be decided inside one window.  The
starter cycles of that window come from one join per residue triple (or
pair, for 4-cycles) of the columns sharing their row at each residue, and
are held as (span, rows, cols) arrays, so every alternating power sum is
one gather and the per-span counts one bincount.  Brute-force cycle
listings, which check these, live with the test oracles.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .code_model import (CirculantBlockCode, ColumnLists, SCCodeSpec,
                         as_column_lists, window)
from .overlaps import PatternCounts, cover_matrix, overlaps_from_partition

# ---------------------------------------------------------------------------
# direct counts of an arbitrary matrix from its row-pair overlaps

# wedges (pairs of overlap-graph edges meeting at a row) scored per pass of
# the triangle sum; bounds its memory, and its table to about 4x, at any size
_WEDGE_CHUNK = 1 << 15


def _row_pair_overlaps(ones: ColumnLists):
    """Nonzero row-pair overlaps of a 0/1 matrix, from each column's row pairs.

    Returns (keys, overlap, excess): the pairs i < j sharing a column as
    sorted keys i * rows + j, the number of columns each pair shares, and
    the sum of (degree - 2) over those columns.
    """
    n_rows, n_cols = ones.shape
    rows = ones.rows  # ordered by column, rows ascending
    degree = np.bincount(ones.cols, minlength=n_cols)
    starts = np.concatenate(([0], np.cumsum(degree)))
    keys, excess = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    # columns of one degree pair up together
    for d in np.flatnonzero(np.bincount(degree)[2:]) + 2:
        first = starts[:-1][degree == d]
        block = rows[first[:, None] + np.arange(d)]
        a, b = np.triu_indices(d, 1)
        pairs = (block[:, a] * n_rows + block[:, b]).ravel()
        keys.append(pairs)
        excess.append(np.full(len(pairs), d - 2, dtype=np.int64))
    keys, inverse, overlap = np.unique(np.concatenate(keys), return_inverse=True,
                                       return_counts=True)
    excess = np.bincount(inverse, weights=np.concatenate(excess),
                         minlength=len(keys))
    return keys.astype(np.int64), overlap.astype(np.int64), excess.astype(np.int64)


def count_cycles6(h) -> int:
    """Number of 6-cycles of a 0/1 matrix or its ColumnLists, from its
    row-pair overlaps.

    N6 = sum over triangles {i,j,k} of the overlap graph of A_ij A_ik A_jk
         - sum over columns of (d-2) * (sum of A over the column's row pairs)
         + 2 * sum over columns of C(d, 3),
    with d a column's degree.  Each overlap-graph edge is oriented from its
    lower row to its higher one (Chiba and Nishizeki, SIAM J. Comput. 14(1),
    1985), so each triangle i < j < k is seen once, at j: an arm (i, j) and
    each later edge (j, k) make a wedge, which (i, k) closes.  A chunk of at
    most _WEDGE_CHUNK wedges tables the overlaps of its arms' rows i by row
    and ranked neighbour, so each wedge closes with one gather; it takes
    the most rows i (at least one) whose table fits 4 * _WEDGE_CHUNK.
    """
    ones = as_column_lists(h)
    n_rows = ones.shape[0]
    keys, overlap, excess = _row_pair_overlaps(ones)
    if np.any(keys[1:] <= keys[:-1]):
        raise RuntimeError("row-pair keys are not strictly increasing")
    # sorted keys i * rows + j with i < j list each row's later neighbours
    # as one ascending segment, edges ptr[i]:ptr[i + 1]
    lo, nbr = np.divmod(keys, max(n_rows, 1))
    later = np.bincount(lo, minlength=n_rows)
    ptr = np.concatenate(([0], np.cumsum(later)))
    # an arm (i, j) pairs with each later edge (j, k) of its neighbour; its
    # wedges cum[e]:cum[e + 1] take the edges from ptr[j] on
    arm_wedges = later[nbr]
    cum = np.concatenate(([0], np.cumsum(arm_wedges)))
    second_from = ptr[nbr] - cum[:-1]
    stamp = np.zeros(n_rows, dtype=np.int64)
    table = np.zeros(max(4 * _WEDGE_CHUNK, later.max(initial=0) + 1), np.int64)
    triangles = 0
    e0 = 0
    while e0 < len(nbr):
        i0 = int(lo[e0])
        stop = int(np.searchsorted(cum, cum[e0] + _WEDGE_CHUNK, side="right")) - 1
        e1 = max(stop, e0 + 1)  # a single arm longer than the chunk runs alone
        # its table, rows x (their later edges + 1), must fit 4 * _WEDGE_CHUNK;
        # if not, the chunk ends with the most rows from i0 that fit (one at least)
        rows = int(lo[e1 - 1]) - i0 + 1
        if rows * (ptr[i0 + rows] - ptr[i0] + 1) > 4 * _WEDGE_CHUNK:
            rows = bisect.bisect_right(range(1, n_rows - i0 + 1), 4 * _WEDGE_CHUNK,
                                       key=lambda r: r * int(ptr[i0 + r] - ptr[i0] + 1))
            e1 = max(min(stop, int(ptr[i0 + max(rows, 1)])), e0 + 1)
        # the chunk's rows i hold every closing edge (i, k): rank their later
        # neighbours 1.. (0: none; a repeat keeps its last), table (i, rank)
        b0, b1 = int(ptr[i0]), int(ptr[lo[e1 - 1] + 1])
        width, block = b1 - b0 + 1, nbr[b0:b1]
        stamp[block] = np.arange(1, width)
        cell = (lo[b0:b1] - i0) * width + stamp[block]
        table[cell] = overlap[b0:b1]
        wedges = arm_wedges[e0:e1]
        second = np.arange(cum[e0], cum[e1]) + np.repeat(second_from[e0:e1], wedges)
        close = table[np.repeat((lo[e0:e1] - i0) * width, wedges) + stamp[nbr[second]]]
        triangles += int((np.repeat(overlap[e0:e1], wedges) * overlap[second]
                          * close).sum())
        table[cell] = 0
        stamp[block] = 0
        e0 = e1
    # a degree-d column has C(d,2) pairs of excess d-2, so excess sums to
    # 3 * sum C(d,3)
    excess_sum = int(excess.sum())
    n6 = triangles + 2 * (excess_sum // 3) - int((overlap * excess).sum())
    if n6 < 0:
        raise RuntimeError(f"negative 6-cycle count {n6}")
    if excess_sum % 3:
        raise RuntimeError(f"column excess sum {excess_sum} is not a multiple of 3")
    return n6


def count_cycles4(h) -> int:
    """Number of 4-cycles of a 0/1 matrix or its ColumnLists: C(A_ij, 2)
    summed over the row-pair overlaps."""
    _, overlap, _ = _row_pair_overlaps(as_column_lists(h))
    return int((overlap * (overlap - 1)).sum()) // 2


# ---------------------------------------------------------------------------
# closed-form protograph census: one weight on 6-cycle shapes


def shape_spans(m: int) -> np.ndarray:
    """Span of every 6-cycle shape, 0 for a shape that does not close.

    A 6-cycle of the coupled protograph has rows of distinct residues
    j1 < j2 < j3 and columns c12 (rows j1, j2), c13 (j1, j3), c23 (j2, j3).
    A column enters only through its components at its two rows, so a shape
    is u = (x1, x2), v = (y1, y3), w = (z2, z3), each pair flattened to
    a*(m+1) + b.  With c12 in replica 0, c13 sits in s13 = x1 - y1 and c23
    in s23 = x2 - z2; the walk closes iff s13 + y3 - s23 == z3, and the span
    is max(0, s13, s23) - min(0, s13, s23) + 1.  Returns a
    ((m+1)**2, (m+1)**2, (m+1)**2) array indexed [u, v, w].
    """
    q = np.arange(m + 1)
    x1, x2, y1, y3, z2, z3 = np.meshgrid(q, q, q, q, q, q, indexing="ij",
                                         sparse=True)
    s13, s23 = x1 - y1, x2 - z2
    span = (np.maximum(np.maximum(s13, s23), 0)
            - np.minimum(np.minimum(s13, s23), 0) + 1)
    side = (m + 1) ** 2
    return np.where(s13 + y3 - s23 == z3, span, 0).reshape(side, side, side)


def shape_weight(m: int, L: int) -> np.ndarray:
    """Placements of each shape among L replicas: max(L - span + 1, 0) for a
    closed shape, else 0."""
    span = shape_spans(m)
    return np.where(span > 0, np.maximum(L - span + 1, 0), 0)


def shape_row_sets(gamma: int, m: int):
    """Row sets of the stacked component matrix whose overlaps a shape count
    reads: per residue triple j1 < j2 < j3, the pair (j1, j2) over every u,
    (j1, j3) over every v, (j2, j3) over every w, then the triple over
    every (x1, x2, x3), components row-major."""
    comps = range(m + 1)
    sets = []
    for js in itertools.combinations(range(gamma), 3):
        for a, b in ((0, 1), (0, 2), (1, 2)):
            sets += [(x * gamma + js[a], y * gamma + js[b])
                     for x, y in itertools.product(comps, repeat=2)]
        sets += [tuple(x * gamma + j for x, j in zip(xs, js))
                 for xs in itertools.product(comps, repeat=3)]
    return sets


_SHAPE_ROWS = 1024  # pattern-count rows ShapeCount contracts at a time


class ShapeCount:
    """6-cycles under one weight on shapes, from pattern counts.

    Each residue triple's overlaps are one block of shape_row_sets, linear
    in the pattern counts (`cover_matrix`).  Pair overlaps N12[u], N13[v],
    N23[w] count the base columns that can sit at each position, so
    sum K[u,v,w] N12[u] N13[v] N23[w] counts column triples with repeats.
    Two columns coincide when they share a replica and a base column, which
    then covers all three rows with components x; inclusion-exclusion (as
    in count_cycles6) subtracts each coinciding pair, the triple overlap
    N123[x] against the third pair count, and adds back twice the triples
    where all three coincide.

    The contraction runs in float64, on BLAS, _SHAPE_ROWS count rows at a
    time, each chunk converted on its own, so its temporaries stay bounded
    whatever the batch size.  With kappa the largest absolute row sum of
    the counts, every overlap is at most kappa and every partial sum of a
    triple at most kappa (kappa+1) (kappa+2) times the largest weight, so
    below 2**53 over all triples the float64 result is exact; a batch
    whose rows could pass it raises ValueError before any chunk runs.
    """

    def __init__(self, weight: np.ndarray):
        side = weight.shape[0]
        comps = math.isqrt(side)
        x1, x2, x3 = np.unravel_index(np.arange(comps ** 3), (comps,) * 3)
        u, v, w = x1 * comps + x2, x1 * comps + x3, x2 * comps + x3
        self.side, self.width = side, 3 * side + comps ** 3
        self.max_weight = int(np.abs(weight).max(initial=0))
        weight = weight.astype(np.float64)
        # transposed: products keep the batch rows on the last, contiguous axis
        self.pairs = weight.reshape(side * side, side).T
        # by triple components x: c12 = c13, c12 = c23, c13 = c23
        self.coincide = np.concatenate(
            [weight[u, v, :], weight[u, :, w], weight[:, v, w].T], axis=1).T
        self.diagonal = weight[u, v, w]

    def __call__(self, cover: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """int64 count for each pattern-count row of `counts`, summed over
        the residue triples; `cover` is the cover matrix of shape_row_sets."""
        side, triples = self.side, len(cover) // self.width
        counts = np.asarray(counts)
        kappa = int(np.abs(counts).sum(axis=1).max(initial=0))
        if triples * kappa * (kappa + 1) * (kappa + 2) * self.max_weight >= 1 << 53:
            raise ValueError(f"a count row of total {kappa} could pass 2**53, "
                             "where float64 stops being exact")
        cover, out = cover.astype(np.float64), np.empty(len(counts), np.int64)
        for lo in range(0, len(counts), _SHAPE_ROWS):
            chunk = counts[lo:lo + _SHAPE_ROWS].astype(np.float64)
            rows = len(chunk)
            n = (cover @ chunk.T).reshape(triples, self.width, rows)
            p12, p13, p23, t = np.split(n, [side, 2 * side, 3 * side], axis=1)
            both = (p12[:, :, None] * p13[:, None]).reshape(triples, side * side, rows)
            one = self.coincide @ t
            per_triple = ((self.pairs @ both - one[:, :side]) * p23).sum(axis=1) - (
                (one[:, side:2 * side] * p13).sum(axis=1)
                + (one[:, 2 * side:] * p12).sum(axis=1)) + 2 * (self.diagonal @ t)
            out[lo:lo + rows] = per_triple.sum(axis=0)
        return out


class LiftedShapeCount:
    """Lifted 6-cycles of a batch of partitions at one block code's powers.

    A 6-cycle takes base columns a, b, c as its c12, c13, c23 at residue
    rows j1 < j2 < j3.  The powers alone decide whether it survives lifting,
    so the active triples with distinct a, b, c are listed once, as the six
    cells (j1,a), (j2,a), (j1,b), (j3,b), (j2,c), (j3,c) whose components
    are the digits of its shape (x1, x2, y1, y3, z2, z3) in shape_spans.
    A repeated base column always makes two of the columns coincide.
    """

    def __init__(self, block: CirculantBlockCode, m: int, L: int):
        g, k = block.gamma, block.kappa
        self.shape, self.m, self.p = (g, k), m, block.p
        a, b, c = np.array(list(itertools.permutations(range(k), 3)),
                           dtype=np.int64).reshape(-1, 3).T
        cells = [np.zeros((0, 6), dtype=np.int64)]
        for j1, j2, j3 in itertools.combinations(range(g), 3):
            digits = np.stack([j1 * k + a, j2 * k + a, j1 * k + b, j3 * k + b,
                               j2 * k + c, j3 * k + c], axis=1)
            # walk (j1,b), (j1,a), (j2,a), (j2,c), (j3,c), (j3,b)
            walk = block.powers.ravel()[digits[:, [2, 0, 1, 4, 5, 3]]]
            cells.append(digits[alternating_sum(walk) % block.p == 0])
        self.cells = np.concatenate(cells)
        self.weight = shape_weight(m, L).ravel()

    def __call__(self, assign) -> np.ndarray:
        """int64 lifted 6-cycle count of each (gamma, kappa) component
        assignment of the (n, gamma, kappa) array `assign`."""
        z = np.asarray(assign)
        if z.ndim != 3 or z.shape[1:] != self.shape:
            raise ValueError(f"assignments must be (n, {self.shape[0]}, "
                             f"{self.shape[1]}), got {z.shape}")
        if z.size and (z.min() < 0 or z.max() > self.m):
            raise ValueError(f"component indices must lie in [0, {self.m}]")
        z = z.reshape(len(z), self.shape[0] * self.shape[1])
        shapes = np.ravel_multi_index(tuple(z[:, cell] for cell in self.cells.T),
                                      (self.m + 1,) * 6)
        return self.p * self.weight[shapes].sum(axis=1, dtype=np.int64)


@dataclass(frozen=True)
class CycleCensus:
    """Per-span starter counts and the weighted protograph total."""

    L: int
    per_span: dict

    @property
    def total(self) -> int:
        return sum(
            (self.L - k + 1) * n for k, n in self.per_span.items() if k <= self.L
        )


def census_protograph(pc: PatternCounts, L: int) -> CycleCensus:
    """Closed-form 6-cycle census of the coupled protograph with L replicas."""
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    # F1[k] for each span k, all from one cover of the shape row sets
    cover = cover_matrix(pc.gamma, pc.m, shape_row_sets(pc.gamma, pc.m))
    span = shape_spans(pc.m)
    return CycleCensus(L, {k: int(ShapeCount((span == k).astype(np.int64))(
        cover, pc.counts[None])[0]) for k in range(1, min(pc.m + 1, L) + 1)})


def census_from_partition(partition, L: int) -> CycleCensus:
    return census_protograph(overlaps_from_partition(partition), L)


# ---------------------------------------------------------------------------
# starter cycles (one residue join over the first window) and their
# activity in the lifted code


def _starters(spec: SCCodeSpec, width: int):
    """(span, rows, cols) arrays of the `width`-row cycles of the maximal
    window whose leftmost column lies in replica 1, sorted by (rows, cols).

    Every window column has exactly one row of each residue mod gamma, so
    the rows of a cycle have distinct residues and a cycle is a join of
    columns that share their row at each residue of a residue combination.
    """
    w = window(spec, 1, min(spec.m + 1, spec.L))
    n = w.shape[1]
    col, row = np.nonzero(w.T)
    at = np.zeros((n, spec.gamma), dtype=np.int64)
    at[col, row % spec.gamma] = row  # each column's row per residue
    # meet[h, a, b]: columns a != b share their row of residue h
    meet = at.T[:, :, None] == at.T[:, None, :]
    meet[:, np.arange(n), np.arange(n)] = False
    found = [np.zeros((0, 2 * width), dtype=np.int64)]
    for hs in itertools.combinations(range(spec.gamma), width):
        if width == 3:
            h1, h2, h3 = hs
            c12, c13, c23 = np.nonzero(meet[h1][:, :, None] & meet[h2][:, None, :]
                                       & meet[h3][None, :, :])
            rows = np.stack([at[c12, h1], at[c12, h2], at[c13, h3]], axis=1)
            # each column faces the row it misses: with the rows sorted,
            # (c12, c13, c23) face the third, second and first of them
            facing = np.stack([c23, c13, c12], axis=1)
            cols = np.take_along_axis(
                facing, np.argsort(rows, axis=1)[:, ::-1], axis=1)
        else:
            c1, c2 = np.nonzero(np.triu(meet[hs[0]] & meet[hs[1]]))
            rows, cols = at[c1][:, list(hs)], np.stack([c1, c2], axis=1)
        found.append(np.concatenate([np.sort(rows, axis=1), cols], axis=1))
    cycles = np.concatenate(found)
    cycles = cycles[(cycles[:, width:] // spec.kappa).min(axis=1) == 0]
    cycles = cycles[np.lexsort(cycles.T[::-1])]
    rows, cols = cycles[:, :width], cycles[:, width:]
    return (cols // spec.kappa).max(axis=1) + 1, rows, cols


def starter_cycles6(spec: SCCodeSpec):
    """Protograph 6-cycles whose leftmost column lies in replica 1.

    Joined inside the maximal window (span limit min(m+1, L)) over each
    residue triple; every other cycle of the coupled protograph is a
    replica shift of one of these.  Returns int64 arrays (span, rows, cols)
    of shapes (n,), (n, 3) and (n, 3): window rows r1 < r2 < r3 and columns
    (c12, c13, c23), sorted by (rows, cols).
    """
    return _starters(spec, 3)


def starter_cycles4(spec: SCCodeSpec):
    """Protograph 4-cycles with leftmost column in replica 1, joined over
    each residue pair, as int64 arrays (span, rows, cols) of shapes (n,),
    (n, 2) and (n, 2), both pairs ascending, sorted by (rows, cols)."""
    return _starters(spec, 2)


def walk_residues(spec: SCCodeSpec, rows: np.ndarray, cols: np.ndarray):
    """Residue cells (row mod gamma) * kappa + (col mod kappa) of starter
    cycles' cells in alternating walk order, an (n, 6) array for 6-cycles or
    (n, 4) for 4-cycles.

    A 6-cycle walks (r1,c13),(r1,c12),(r2,c12),(r2,c23),(r3,c23),(r3,c13)
    and a 4-cycle (r1,c1),(r1,c2),(r2,c2),(r2,c1); the alternating power sum
    over these cells is 0 mod p exactly when the cycle is active.
    """
    if rows.shape[1] == 3:
        rows, cols = rows[:, [0, 0, 1, 1, 2, 2]], cols[:, [1, 0, 0, 2, 2, 1]]
    else:
        rows, cols = rows[:, [0, 0, 1, 1]], cols[:, [0, 1, 1, 0]]
    return (rows % spec.gamma) * spec.kappa + cols % spec.kappa


_WALK_SIGNS = np.array([1, -1, 1, -1, 1, -1], dtype=np.int64)


def alternating_sum(walk_values: np.ndarray) -> np.ndarray:
    """Sums + - + - ... over the last axis of values gathered in walk order."""
    return walk_values @ _WALK_SIGNS[:walk_values.shape[-1]]


def _power_sums(spec: SCCodeSpec, rows: np.ndarray, cols: np.ndarray):
    """Alternating power sums of starter cycles, reduced mod p."""
    f = spec.block.powers.ravel()[walk_residues(spec, rows, cols)]
    return alternating_sum(f) % spec.p


@dataclass(frozen=True)
class ActiveCensus:
    """Active (lift-surviving) starter counts and the lifted cycle total."""

    L: int
    p: int
    per_span: dict
    active_per_span: dict

    @property
    def total(self) -> int:
        """Number of 6-cycles in the lifted coupled matrix."""
        return self.p * sum(
            (self.L - k + 1) * n
            for k, n in self.active_per_span.items()
            if k <= self.L
        )


def active_cycles6(spec: SCCodeSpec) -> ActiveCensus:
    """Classify starter 6-cycles by span and activity under the given powers."""
    chi = min(spec.m + 1, spec.L)
    span, rows, cols = starter_cycles6(spec)
    per_span = np.bincount(span, minlength=chi + 1)
    active = np.bincount(span[_power_sums(spec, rows, cols) == 0],
                         minlength=chi + 1)
    return ActiveCensus(spec.L, spec.p,
                        {k: int(per_span[k]) for k in range(1, chi + 1)},
                        {k: int(active[k]) for k in range(1, chi + 1)})


def count_lifted_cycles4(spec: SCCodeSpec) -> int:
    """Number of 4-cycles in the lifted coupled matrix, via starter activity."""
    span, rows, cols = starter_cycles4(spec)
    span = span[_power_sums(spec, rows, cols) == 0]
    return int(np.maximum(spec.L - span + 1, 0).sum()) * spec.p
