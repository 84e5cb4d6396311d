"""Circulant-based block codes and their spatially coupled variants.

A block code is described by a gamma x kappa array of p x p circulants.
Each circulant is sigma**f where sigma is the identity with every column
shifted one place to the left, so sigma**f has a 1 in row a, column b
exactly when a == (b + f) mod p.  The lifted parity-check matrix therefore
has a 1 at (h*p + a, l*p + b) iff a == (b + f[h, l]) mod p.

Spatial coupling partitions the circulants into m+1 component matrices
H_0 .. H_m (given by an assignment matrix with entries in 0..m) and tiles
them diagonally over L replicas: replica r (1-based) occupies column block
r-1 and contributes component x at row block r-1+x.  All row/column and
block indices are 0-based; only the replica index r is 1-based, matching
the usual coupled-chain notation.

The lifted matrix is built as ColumnLists, the row index of each 1 in
column order, by index arithmetic; sc_lift and sc_protograph (the p = 1
lift) are its dense views.  The lists are what the alist writer and the
direct cycle counts take, so a full-length coupled code never needs a
dense matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class CirculantBlockCode:
    """A gamma x kappa array of p x p circulant permutation matrices."""

    gamma: int
    kappa: int
    p: int
    powers: np.ndarray

    def __post_init__(self):
        if self.gamma < 1 or self.kappa < 1 or self.p < 1:
            raise ValueError("gamma, kappa, p must be positive")
        f = np.asarray(self.powers, dtype=np.int64)
        if f.shape != (self.gamma, self.kappa):
            raise ValueError(f"powers must be {self.gamma}x{self.kappa}, got {f.shape}")
        if ((f < 0) | (f >= self.p)).any():
            raise ValueError("circulant powers must lie in [0, p)")
        object.__setattr__(self, "powers", _as_readonly(f))


def ab_powers(gamma: int, kappa: int, p: int) -> np.ndarray:
    """Array-based power assignment f[i, j] = i*j mod p.

    For prime p and kappa <= p the resulting lifted graph has no 4-cycles,
    which is why it is the standard starting point for power optimization.
    """
    i = np.arange(gamma).reshape(-1, 1)
    j = np.arange(kappa).reshape(1, -1)
    return (i * j) % p


def ab_code(gamma: int, kappa: int, p: int) -> CirculantBlockCode:
    """Block code with the array-based power assignment."""
    return CirculantBlockCode(gamma, kappa, p, ab_powers(gamma, kappa, p))


@dataclass(frozen=True, eq=False)
class PartitionMatrix:
    """Assignment of each circulant to one of m+1 components."""

    m: int
    assign: np.ndarray

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("memory m must be >= 0")
        a = np.asarray(self.assign, dtype=np.int64)
        if a.ndim != 2:
            raise ValueError("assign must be a 2-D array")
        if ((a < 0) | (a > self.m)).any():
            raise ValueError("component indices must lie in [0, m]")
        object.__setattr__(self, "assign", _as_readonly(a))

    @property
    def gamma(self) -> int:
        return self.assign.shape[0]

    @property
    def kappa(self) -> int:
        return self.assign.shape[1]

    def component(self, x: int) -> np.ndarray:
        """0/1 mask of the circulants assigned to component x."""
        if not 0 <= x <= self.m:
            raise ValueError(f"component index {x} outside [0, {self.m}]")
        return (self.assign == x).astype(np.uint8)


def partition_from_cutting_vector(zeta, gamma: int, kappa: int) -> PartitionMatrix:
    """Memory-1 partition from a non-decreasing cutting vector.

    Row i assigns columns j < zeta[i] to component 0 and the rest to
    component 1, producing the staircase split used by cutting-vector
    constructions.
    """
    return partition_from_cutting_vectors([zeta], gamma, kappa)


def partition_from_cutting_vectors(zetas, gamma: int, kappa: int) -> PartitionMatrix:
    """Memory-m partition from m stacked cutting vectors.

    Row i assigns columns j < zetas[0][i] to component 0, columns in
    [zetas[x-1][i], zetas[x][i]) to component x, and the rest to component
    m.  Each vector must be non-decreasing (repeats give empty segments)
    and dominate the previous one entrywise.
    """
    vs = [list(z) for z in zetas]
    if not vs:
        raise ValueError("need at least one cutting vector")
    m = len(vs)
    for z in vs:
        if len(z) != gamma:
            raise ValueError(f"cutting vectors need {gamma} entries, got {len(z)}")
        if any(not 0 <= v <= kappa for v in z):
            raise ValueError("cutting vector entries must lie in [0, kappa]")
        if any(z[i] > z[i + 1] for i in range(len(z) - 1)):
            raise ValueError("cutting vectors must be non-decreasing")
    for za, zb in zip(vs, vs[1:]):
        if any(a > b for a, b in zip(za, zb)):
            raise ValueError("each cutting vector must dominate the previous one")
    assign = np.zeros((gamma, kappa), dtype=np.int64)
    for z in vs:
        for i, cut in enumerate(z):
            assign[i, cut:] += 1
    return PartitionMatrix(m, assign)


@dataclass(frozen=True, eq=False)
class SCCodeSpec:
    """Block code + partition + coupling length: a full coupled-code recipe."""

    block: CirculantBlockCode
    partition: PartitionMatrix
    L: int

    def __post_init__(self):
        b, q = self.block, self.partition
        if (q.gamma, q.kappa) != (b.gamma, b.kappa):
            raise ValueError("partition shape must match the block code array")
        if self.L < 1:
            raise ValueError("coupling length L must be >= 1")

    @property
    def gamma(self) -> int:
        return self.block.gamma

    @property
    def kappa(self) -> int:
        return self.block.kappa

    @property
    def p(self) -> int:
        return self.block.p

    @property
    def m(self) -> int:
        return self.partition.m


def sc_protograph(spec: SCCodeSpec) -> np.ndarray:
    """Binary protograph of the coupled code, ((L+m)*gamma, L*kappa): its p = 1 lift."""
    unlifted = CirculantBlockCode(spec.gamma, spec.kappa, 1,
                                  np.zeros((spec.gamma, spec.kappa), dtype=np.int64))
    return sc_lift_columns(SCCodeSpec(unlifted, spec.partition, spec.L)).dense(np.uint8)


_SCAN_SLAB = 1 << 20  # matrix entries converted to bool at a time


@dataclass(frozen=True, eq=False)
class ColumnLists:
    """The ones of a 0/1 matrix of the given shape, in column order.

    Entry i is a one at (rows[i], cols[i]); the entries are sorted by
    column, with rows ascending inside each column, and none repeats.
    """

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray

    def __post_init__(self):
        shape = tuple(self.shape)
        if len(shape) != 2 or any(int(n) != n or n < 0 for n in shape):
            raise ValueError(f"shape must be two nonnegative integers, got {shape}")
        nrows, ncols = (int(n) for n in shape)
        rows = np.asarray(self.rows, dtype=np.int64)
        cols = np.asarray(self.cols, dtype=np.int64)
        if rows.ndim != 1 or rows.shape != cols.shape:
            raise ValueError("rows and cols must be 1-d arrays of one length")
        if rows.size and not (0 <= rows.min() and rows.max() < nrows):
            raise ValueError(f"row index outside [0, {nrows})")
        if cols.size and not (0 <= cols.min() and cols.max() < ncols):
            raise ValueError(f"column index outside [0, {ncols})")
        key = cols * nrows + rows
        if np.any(key[1:] <= key[:-1]):
            raise ValueError("entries must be sorted by column, rows ascending "
                             "inside a column, with none repeated")
        object.__setattr__(self, "shape", (nrows, ncols))
        object.__setattr__(self, "rows", _as_readonly(rows))
        object.__setattr__(self, "cols", _as_readonly(cols))

    @classmethod
    def from_dense(cls, matrix) -> "ColumnLists":
        """The ones of a dense 2-d matrix (any nonzero entry is a one)."""
        h = np.asarray(matrix)
        if h.ndim != 2:
            raise ValueError("need a 2-d matrix")
        # a flat scan is much faster than a strided one, and a bool scan
        # than one of any other dtype; converting one slab at a time makes
        # no dense copy of the matrix
        flat = h.reshape(-1)
        ones = np.concatenate(
            [np.zeros(0, dtype=np.int64)]
            + [np.flatnonzero(flat[i:i + _SCAN_SLAB].astype(bool)) + i
               for i in range(0, flat.size, _SCAN_SLAB)])
        rows, cols = np.divmod(ones, max(h.shape[1], 1))
        # row-major order, then stably by column
        by_col = np.argsort(cols, kind="stable")
        return cls(h.shape, rows[by_col], cols[by_col])

    def dense(self, dtype=bool) -> np.ndarray:
        """The matrix itself, ones at the listed entries."""
        out = np.zeros(self.shape, dtype=dtype)
        out[self.rows, self.cols] = 1
        return out


def padded_lists(keys, values, n: int, pad: int, dtype=np.int64) -> np.ndarray:
    """values grouped by their ascending keys 0..n-1: an (n, width) table,
    each key's values in order, then `pad` up to the widest key."""
    count = np.bincount(keys, minlength=n)
    out = np.full((n, count.max(initial=0)), pad, dtype=dtype)
    out[keys, np.arange(len(keys)) - (np.cumsum(count) - count)[keys]] = values
    return out


def as_column_lists(matrix) -> ColumnLists:
    """Column lists of a dense matrix; column lists pass through unchanged."""
    if isinstance(matrix, ColumnLists):
        return matrix
    return ColumnLists.from_dense(matrix)


def sc_lift_columns(spec: SCCodeSpec) -> ColumnLists:
    """Ones of the lifted coupled matrix, column by column.

    Column (r, l, b), at index ((r-1)*kappa + l)*p + b, holds one 1 per
    base-matrix row h: in row ((r-1+assign[h,l])*gamma + h)*p
    + (b + f[h,l]) mod p.  Sorting each column's h by its row block
    assign[h,l]*gamma + h sorts its rows, so the lists need no search.
    """
    g, k, p, L = spec.gamma, spec.kappa, spec.p, spec.L
    row_block = (spec.partition.assign * g + np.arange(g)[:, None]).T  # (kappa, gamma)
    order = np.argsort(row_block, axis=1)
    row_block = np.take_along_axis(row_block, order, axis=1)[None, :, None, :]
    shift = np.take_along_axis(spec.block.powers.T, order, axis=1)[None, :, None, :]
    r = np.arange(L)[:, None, None, None]
    b = np.arange(p)[None, None, :, None]
    rows = (r * g + row_block) * p + (b + shift) % p  # (L, kappa, p, gamma)
    cols = np.repeat(np.arange(L * k * p), g)
    return ColumnLists(((L + spec.m) * g * p, L * k * p), rows.reshape(-1), cols)


def sc_lift(spec: SCCodeSpec) -> np.ndarray:
    """Lifted parity-check matrix of the coupled code, ((L+m)*gamma*p, L*kappa*p)."""
    return sc_lift_columns(spec).dense(np.uint8)


def window(spec: SCCodeSpec, r: int, k: int, lifted: bool = False) -> np.ndarray:
    """Submatrix covering replicas r .. r+k-1 and every row block they touch.

    Protograph scale by default: rows [(r-1)*gamma, (r+m+k-1)*gamma), columns
    [(r-1)*kappa, (r+k-1)*kappa).  With lifted=True the same block range of
    the lifted matrix is returned.  Any cycle whose columns start in replica
    r and span k consecutive replicas lies entirely inside this window.
    """
    if not 1 <= r <= spec.L:
        raise ValueError(f"replica index {r} outside [1, {spec.L}]")
    if not 1 <= k <= spec.L - r + 1:
        raise ValueError(f"span {k} outside [1, {spec.L - r + 1}] for replica {r}")
    # every replica carries the same components, so the window is the
    # whole matrix of the k-replica code
    short = SCCodeSpec(spec.block, spec.partition, k)
    return sc_lift(short) if lifted else sc_protograph(short)
