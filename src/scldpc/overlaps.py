"""Column-overlap bookkeeping for partitioned circulant arrays.

Stack the component masks of a partition vertically, H_0 on top, to get an
(m+1)*gamma x kappa binary matrix.  For a set S of its rows, the overlap
t_S counts the columns carrying a 1 in every row of S.  Rows i and i+gamma*x
come from the same block row of the base array, so any set containing two
rows with equal residue mod gamma has overlap 0; the interesting sets pick
pairwise distinct residues and have size at most gamma.

Overlaps over rows of H_0 .. H_{m-1} (indices below m*gamma) are free
parameters; every other overlap follows from them and kappa by inclusion-
exclusion, because membership in component m is what remains after
components 0..m-1 are excluded.  The degree-gamma overlaps, one per way of
assigning a component to each block row, are the counts of column
"patterns" and are nonnegative exactly when the overlap vector comes from a
real partition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .code_model import PartitionMatrix, component_protograph


def valid_overlap_sets(gamma: int, m: int, max_degree: int | None = None):
    """All row sets with pairwise distinct residues, in canonical order.

    Canonical order is degree-major, then lexicographic on the sorted tuple.
    Rows range over [0, (m+1)*gamma).
    """
    if max_degree is None:
        max_degree = gamma
    by_residue = [[x * gamma + j for x in range(m + 1)] for j in range(gamma)]
    out = []
    for d in range(1, max_degree + 1):
        sets_d = []
        for residues in itertools.combinations(range(gamma), d):
            for choice in itertools.product(*(by_residue[j] for j in residues)):
                sets_d.append(tuple(sorted(choice)))
        sets_d.sort()
        out.extend(sets_d)
    return out


def independent_overlap_sets(gamma: int, m: int):
    """Row sets whose overlaps are free parameters: all rows below m*gamma.

    Same canonical order as valid_overlap_sets.  Their number is
    sum_d m**d * C(gamma, d); every remaining overlap is determined by
    these and kappa.
    """
    cut = m * gamma
    return [s for s in valid_overlap_sets(gamma, m) if all(r < cut for r in s)]


@dataclass(frozen=True, eq=False)
class OverlapSet:
    """Overlap counts t_S for the row sets of a stacked component matrix."""

    gamma: int
    m: int
    kappa: int
    table: dict

    def get(self, rows) -> int:
        """Overlap of a row set; the empty set counts every column."""
        key = tuple(sorted(rows))
        if not key:
            return self.kappa
        n = (self.m + 1) * self.gamma
        if key[0] < 0 or key[-1] >= n:
            raise KeyError(f"row set {key} outside [0, {n})")
        residues = {r % self.gamma for r in key}
        if len(residues) < len(key):
            return 0
        return self.table[key]


@dataclass(frozen=True, eq=False)
class IndependentOverlaps:
    """The free overlap parameters, aligned with independent_overlap_sets."""

    gamma: int
    m: int
    kappa: int
    values: tuple

    def __post_init__(self):
        sets = independent_overlap_sets(self.gamma, self.m)
        if len(self.values) != len(sets):
            raise ValueError(
                f"expected {len(sets)} independent values, got {len(self.values)}"
            )
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))

    def as_dict(self) -> dict:
        return dict(zip(independent_overlap_sets(self.gamma, self.m), self.values))


def overlaps_from_partition(partition: PartitionMatrix) -> OverlapSet:
    """Direct overlap counts of a partition's stacked component matrix."""
    g, m = partition.gamma, partition.m
    stacked = component_protograph(partition).astype(bool)
    table = {}

    def descend(j, rows, mask):
        for jj in range(j, g):
            for x in range(m + 1):
                row = x * g + jj
                sub = mask & stacked[row]
                table[tuple(sorted(rows + [row]))] = int(sub.sum())
                descend(jj + 1, rows + [row], sub)

    descend(0, [], np.ones(partition.kappa, dtype=bool))
    return OverlapSet(g, m, partition.kappa, table)


def restrict_to_independent(ov: OverlapSet) -> IndependentOverlaps:
    """Keep only the free parameters of a full overlap table."""
    vals = [ov.get(s) for s in independent_overlap_sets(ov.gamma, ov.m)]
    return IndependentOverlaps(ov.gamma, ov.m, ov.kappa, tuple(vals))


def complete_overlaps(ind: IndependentOverlaps) -> OverlapSet:
    """Extend the free parameters to every overlap by inclusion-exclusion.

    For a set S split into I (rows below m*gamma) and J (rows of the last
    component), columns counted by t_S are those covered by every row of I
    but by no lower-component row in any residue of J:

        t_S = t_I + sum_a (-1)^a * sum over a-subsets {j'} of J and
              component choices x in [0, m)^a of t_{I + shifted rows},

    where a J-row is shifted to x*gamma + (its residue).
    """
    g, m, kappa = ind.gamma, ind.m, ind.kappa
    free = ind.as_dict()
    cut = m * g
    table = {}
    for s in valid_overlap_sets(g, m):
        inner = tuple(r for r in s if r < cut)
        outer = [r for r in s if r >= cut]
        total = free[inner] if inner else kappa
        for a in range(1, len(outer) + 1):
            sign = -1 if a % 2 else 1
            for sub in itertools.combinations(outer, a):
                for xs in itertools.product(range(m), repeat=a):
                    shifted = inner + tuple(
                        x * g + (r % g) for x, r in zip(xs, sub)
                    )
                    total += sign * free[tuple(sorted(shifted))]
        table[s] = total
    return OverlapSet(g, m, kappa, table)


def column_patterns(gamma: int, m: int):
    """All component-per-block-row column patterns, lexicographic."""
    return list(itertools.product(range(m + 1), repeat=gamma))


def pattern_rows(pattern, gamma: int):
    """Rows of the stacked matrix that a column with this pattern covers."""
    return tuple(sorted(x * gamma + j for j, x in enumerate(pattern)))


@dataclass(frozen=True, eq=False)
class PatternCounts:
    """How many columns realize each component pattern, lexicographic order."""

    gamma: int
    m: int
    kappa: int
    counts: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != ((self.m + 1) ** self.gamma,):
            raise ValueError("one count per pattern required")
        c = np.ascontiguousarray(c)
        c.flags.writeable = False
        object.__setattr__(self, "counts", c)


def pattern_counts(ind: IndependentOverlaps) -> PatternCounts:
    """Pattern counts implied by an overlap vector (may be negative if unrealizable)."""
    ov = complete_overlaps(ind)
    g, m = ind.gamma, ind.m
    counts = [ov.get(pattern_rows(v, g)) for v in column_patterns(g, m)]
    return PatternCounts(g, m, ind.kappa, np.array(counts, dtype=np.int64))


def cover_matrix(gamma: int, m: int, row_sets) -> np.ndarray:
    """0/1 matrix with entry [s, v] = 1 iff pattern v covers row set s.

    The full overlap vector of a pattern-count vector n is then M @ n.
    """
    pats = np.array(column_patterns(gamma, m), dtype=np.int64)
    # need[s, j]: the component row set s requires at residue j, -1 for any
    need = np.full((len(row_sets), gamma), -1, dtype=np.int64)
    for si, s in enumerate(row_sets):
        for r in s:
            need[si, r % gamma] = r // gamma
    need = need[:, None, :]
    return ((need < 0) | (need == pats)).all(axis=2).astype(np.int64)


@dataclass(frozen=True)
class RealizabilityReport:
    ok: bool
    total: int
    kappa: int
    negative_patterns: tuple

    def __bool__(self) -> bool:
        return self.ok


def validate_realizable(ind: IndependentOverlaps) -> RealizabilityReport:
    """Check that an overlap vector is achievable by some partition.

    The vector is realizable iff every implied pattern count is nonnegative;
    their sum always equals kappa for consistent input and is reported for
    diagnostics.
    """
    pc = pattern_counts(ind)
    pats = column_patterns(ind.gamma, ind.m)
    neg = tuple(
        (v, int(n)) for v, n in zip(pats, pc.counts) if n < 0
    )
    total = int(pc.counts.sum())
    return RealizabilityReport(not neg and total == ind.kappa, total, ind.kappa, neg)


def partition_from_patterns(pc: PatternCounts) -> PartitionMatrix:
    """Canonical partition: columns grouped by pattern in lexicographic order."""
    if (pc.counts < 0).any():
        raise ValueError(f"negative pattern counts: {pc.counts}")
    if int(pc.counts.sum()) != pc.kappa:
        raise ValueError(
            f"pattern counts sum to {int(pc.counts.sum())}, expected {pc.kappa}"
        )
    cols = []
    for v, n in zip(column_patterns(pc.gamma, pc.m), pc.counts):
        cols.extend([v] * int(n))
    assign = np.array(cols, dtype=np.int64).T.reshape(pc.gamma, pc.kappa)
    return PartitionMatrix(pc.m, assign)


def partition_from_overlaps(ind: IndependentOverlaps) -> PartitionMatrix:
    """Synthesize the canonical partition realizing an overlap vector."""
    report = validate_realizable(ind)
    if not report.ok:
        raise ValueError(
            "overlap vector is not realizable: "
            f"negative patterns {report.negative_patterns}, "
            f"pattern total {report.total} vs kappa {report.kappa}"
        )
    return partition_from_patterns(pattern_counts(ind))
