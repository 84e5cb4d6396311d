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
    """Memory-1 partition from an ascending cutting vector.

    Row i assigns columns j < zeta[i] to component 0 and the rest to
    component 1, producing the staircase split used by cutting-vector
    constructions.
    """
    z = list(zeta)
    if len(z) != gamma:
        raise ValueError(f"cutting vector needs {gamma} entries, got {len(z)}")
    if any(not 0 <= v <= kappa for v in z):
        raise ValueError("cutting vector entries must lie in [0, kappa]")
    if any(z[i] > z[i + 1] for i in range(len(z) - 1)):
        raise ValueError("cutting vector must be ascending")
    assign = np.zeros((gamma, kappa), dtype=np.int64)
    for i, cut in enumerate(z):
        assign[i, cut:] = 1
    return PartitionMatrix(1, assign)


def partition_from_cutting_vectors(zetas, gamma: int, kappa: int) -> PartitionMatrix:
    """Memory-m partition from m stacked cutting vectors.

    Row i assigns columns j < zetas[0][i] to component 0, columns in
    [zetas[x-1][i], zetas[x][i]) to component x, and the rest to component
    m.  Each vector must be non-decreasing (repeats give empty segments)
    and dominate the previous one entrywise.  With a single vector this
    reduces to partition_from_cutting_vector except that strictly equal
    neighbors are tolerated.
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


def component_protograph(partition: PartitionMatrix) -> np.ndarray:
    """Vertical stack [H_0; ...; H_m] of the component masks, ((m+1)*gamma, kappa)."""
    return np.vstack([partition.component(x) for x in range(partition.m + 1)])


def sc_protograph(spec: SCCodeSpec) -> np.ndarray:
    """Binary protograph of the coupled code, ((L+m)*gamma, L*kappa)."""
    g, k, m, L = spec.gamma, spec.kappa, spec.m, spec.L
    proto = np.zeros(((L + m) * g, L * k), dtype=np.uint8)
    for r in range(1, L + 1):
        for x in range(m + 1):
            rows = slice((r - 1 + x) * g, (r + x) * g)
            cols = slice((r - 1) * k, r * k)
            proto[rows, cols] |= spec.partition.component(x)
    return proto


def _lift_cells(mask: np.ndarray, powers: np.ndarray, p: int) -> np.ndarray:
    """Lift a masked power array into a dense 0/1 matrix of p x p blocks."""
    g, k = mask.shape
    out = np.zeros((g * p, k * p), dtype=np.uint8)
    b = np.arange(p)
    for h in range(g):
        for l in range(k):
            if mask[h, l]:
                out[h * p + (b + powers[h, l]) % p, l * p + b] = 1
    return out


def lift_block(code: CirculantBlockCode) -> np.ndarray:
    """Lifted parity-check matrix of the uncoupled block code, (gamma*p, kappa*p)."""
    mask = np.ones((code.gamma, code.kappa), dtype=np.uint8)
    return _lift_cells(mask, code.powers, code.p)


def sc_lift(spec: SCCodeSpec) -> np.ndarray:
    """Lifted parity-check matrix of the coupled code, ((L+m)*gamma*p, L*kappa*p)."""
    g, k, p, m, L = spec.gamma, spec.kappa, spec.p, spec.m, spec.L
    out = np.zeros(((L + m) * g * p, L * k * p), dtype=np.uint8)
    for r in range(1, L + 1):
        for x in range(m + 1):
            cell = _lift_cells(spec.partition.component(x), spec.block.powers, p)
            rows = slice((r - 1 + x) * g * p, (r + x) * g * p)
            cols = slice((r - 1) * k * p, r * k * p)
            out[rows, cols] |= cell
    return out


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
