"""Column-overlap bookkeeping for partitioned circulant arrays.

Stack the component masks of a partition vertically, H_0 on top, to get an
(m+1)*gamma x kappa binary matrix.  For a set S of its rows, the overlap
t_S counts the columns carrying a 1 in every row of S.  Rows i and i+gamma*x
come from the same block row of the base array, so any set containing two
rows with equal residue mod gamma has overlap 0; the interesting sets pick
pairwise distinct residues and have size at most gamma.

A column's "pattern" assigns it one component per block row, and a
partition enters every count only through how many columns realize each
pattern (`PatternCounts`).  Each overlap is linear in those counts: t_S
sums the counts of the patterns covering S, so the overlap vector is
`cover_matrix @ counts`.  Overlaps over rows of H_0 .. H_{m-1} (indices
below m*gamma) are free parameters.  A pattern is fixed by the rows below
m*gamma it covers, since a block row outside them sits in component m, so
the counts follow from those overlaps and kappa by Moebius inversion over
row sets ordered by inclusion (`mobius_matrix`; Rota, "On the foundations
of combinatorial theory I", Z. Wahrscheinlichkeitstheorie 2, 1964).  They
are nonnegative exactly when the overlap vector comes from a real
partition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .code_model import PartitionMatrix


def valid_overlap_sets(gamma: int, m: int):
    """All row sets with pairwise distinct residues, in canonical order.

    Canonical order is degree-major, then lexicographic on the sorted tuple.
    Rows range over [0, (m+1)*gamma).
    """
    sets = [tuple(sorted(x * gamma + j for j, x in zip(residues, comps)))
            for d in range(1, gamma + 1)
            for residues in itertools.combinations(range(gamma), d)
            for comps in itertools.product(range(m + 1), repeat=d)]
    return sorted(sets, key=lambda s: (len(s), s))


def independent_overlap_sets(gamma: int, m: int):
    """Row sets whose overlaps are free parameters: all rows below m*gamma.

    Same canonical order as valid_overlap_sets.  Their number is
    sum_d m**d * C(gamma, d); every remaining overlap is determined by
    these and kappa.
    """
    cut = m * gamma
    return [s for s in valid_overlap_sets(gamma, m) if all(r < cut for r in s)]


@dataclass(frozen=True, eq=False)
class IndependentOverlaps:
    """The free overlap parameters, aligned with independent_overlap_sets."""

    gamma: int
    m: int
    kappa: int
    values: tuple

    def __post_init__(self):
        # len(independent_overlap_sets): sum_d m**d * C(gamma, d), d >= 1
        expected = (self.m + 1) ** self.gamma - 1
        if len(self.values) != expected:
            raise ValueError(
                f"expected {expected} independent values, got {len(self.values)}"
            )
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    def as_dict(self) -> dict:
        return dict(zip(independent_overlap_sets(self.gamma, self.m), self.values))


def column_patterns(gamma: int, m: int):
    """All component-per-block-row column patterns, lexicographic."""
    return list(itertools.product(range(m + 1), repeat=gamma))


def _required(gamma: int, row_sets) -> np.ndarray:
    """(row sets, gamma) array of the component each set puts at each block
    row, -1 where it has no row."""
    need = np.full((len(row_sets), gamma), -1, dtype=np.int64)
    for si, s in enumerate(row_sets):
        for r in s:
            need[si, r % gamma] = r // gamma
    return need


def _agree(need: np.ndarray, have: np.ndarray) -> np.ndarray:
    """[a, b] is True iff row b of `have` equals row a of `need` wherever
    that is >= 0."""
    out = np.ones((len(need), len(have)), dtype=bool)
    for j in range(need.shape[1]):  # block row by block row: 2-D, contiguous
        out &= (need[:, j, None] < 0) | (need[:, j, None] == have[:, j])
    return out


def cover_matrix(gamma: int, m: int, row_sets) -> np.ndarray:
    """0/1 matrix with entry [s, v] = 1 iff pattern v covers row set s.

    The overlaps of a pattern-count vector n over row_sets are then M @ n.
    """
    pats = np.array(column_patterns(gamma, m), dtype=np.int64)
    return _agree(_required(gamma, row_sets), pats).astype(np.int64)


def mobius_matrix(gamma: int, m: int) -> np.ndarray:
    """Inverse of the cover of [()] + independent_overlap_sets, by pattern.

    Pattern v covers exactly the independent sets inside S_v, its rows below
    m*gamma, so n_v = sum over S containing S_v of (-1)**(|S| - |S_v|) t_S
    with t_() = kappa.  Entry [v, s] is that signed indicator.
    """
    pats = np.array(column_patterns(gamma, m), dtype=np.int64)
    low = np.where(pats < m, pats, -1)  # S_v, laid out as _required's rows
    sets = _required(gamma, [()] + independent_overlap_sets(gamma, m))
    parity = ((sets >= 0).sum(axis=1) - (low >= 0).sum(axis=1)[:, None]) % 2
    return np.where(_agree(low, sets), 1 - 2 * parity, 0)


@dataclass(frozen=True, eq=False)
class PatternCounts:
    """How many columns realize each component pattern, lexicographic order."""

    gamma: int
    m: int
    kappa: int
    counts: np.ndarray

    def __post_init__(self):
        c = np.array(self.counts, dtype=np.int64)  # a copy: callers keep theirs
        if c.shape != ((self.m + 1) ** self.gamma,):
            raise ValueError("one count per pattern required")
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)

    @cached_property
    def _overlaps(self) -> dict:
        sets = valid_overlap_sets(self.gamma, self.m)
        t = cover_matrix(self.gamma, self.m, sets) @ self.counts
        return dict(zip(sets, t.tolist()))

    def get(self, rows) -> int:
        """Overlap of a row set; the empty set counts every column."""
        key = tuple(sorted(rows))
        if not key:
            return self.kappa
        n = (self.m + 1) * self.gamma
        if key[0] < 0 or key[-1] >= n:
            raise KeyError(f"row set {key} outside [0, {n})")
        return self._overlaps.get(key, 0)  # a repeated residue covers nothing


def overlaps_from_partition(partition: PartitionMatrix) -> PatternCounts:
    """Pattern counts of a partition: each column's components, read as
    base-(m+1) digits with block row 0 first, index its pattern."""
    g, m = partition.gamma, partition.m
    index = (m + 1) ** np.arange(g - 1, -1, -1) @ partition.assign
    return PatternCounts(g, m, partition.kappa,
                         np.bincount(index, minlength=(m + 1) ** g))


def restrict_to_independent(pc: PatternCounts) -> IndependentOverlaps:
    """Keep only the free overlap parameters of a pattern-count vector."""
    cover = cover_matrix(pc.gamma, pc.m, independent_overlap_sets(pc.gamma, pc.m))
    return IndependentOverlaps(pc.gamma, pc.m, pc.kappa,
                               tuple((cover @ pc.counts).tolist()))


def pattern_counts(ind: IndependentOverlaps) -> PatternCounts:
    """Pattern counts implied by an overlap vector (may be negative if unrealizable)."""
    t = np.array((ind.kappa,) + ind.values, dtype=np.int64)
    return PatternCounts(ind.gamma, ind.m, ind.kappa,
                         mobius_matrix(ind.gamma, ind.m) @ t)


def partition_from_patterns(pc: PatternCounts) -> PartitionMatrix:
    """Canonical partition: columns grouped by pattern in lexicographic order."""
    if (pc.counts < 0).any():
        raise ValueError(f"negative pattern counts: {pc.counts}")
    if int(pc.counts.sum()) != pc.kappa:
        raise ValueError(
            f"pattern counts sum to {int(pc.counts.sum())}, expected {pc.kappa}"
        )
    pats = np.array(column_patterns(pc.gamma, pc.m), dtype=np.int64)
    return PartitionMatrix(pc.m, np.repeat(pats, pc.counts, axis=0).T)


def partition_from_overlaps(ind: IndependentOverlaps) -> PartitionMatrix:
    """Synthesize the canonical partition realizing an overlap vector.

    The vector is realizable iff every implied pattern count is nonnegative.
    """
    pc = pattern_counts(ind)
    neg = tuple((v, int(n)) for v, n in
                zip(column_patterns(ind.gamma, ind.m), pc.counts) if n < 0)
    if neg:
        raise ValueError(f"overlap vector is not realizable: negative patterns {neg}")
    return partition_from_patterns(pc)
