"""Greedy circulant power optimization for coupled codes.

The cycle structure of the coupled protograph is fixed by the partition;
circulant powers only decide which protograph cycles survive lifting.  Both
the survival condition and the 4-cycle condition depend on a cell's row
residue mod gamma and column residue mod kappa only, so the whole search
state is the gamma x kappa power matrix and a precomputed list of starter
cycles in the first window, each a walk of residue cells.

Each round scores residue cells by theta, m+1 times the number of visits
the active starter 6-cycles pay each cell.  This is the paper's window
count folded by residues: a span-k starter reappears m-k+2 times down the
maximal window and each copy weighs (m+1)/(m-k+2), so the copies of one
active cycle add up to m+1 per cell of its walk, and theta is an exact
integer.  The round picks the highest-scoring subset of the current
schedule size (ties go to the first cell in row-major order) and tries
candidate power assignments for it; the best candidate is accepted only if
it strictly lowers the lifted 6-cycle count while keeping the lifted graph
free of 4-cycles.  Failure escalates the subset size; exhausting the
schedule re-samples candidates (when sampling) until the stale-round limit.
Everything is deterministic given the seed.

A touched cycle's signed power sum is base + v @ x, linear in the subset's
new powers x, and the cycle survives lifting exactly when it is 0 mod p
(Fossorier, IEEE T-IT 50(8), 2004).  The touched cycles are pooled by
their coefficient row v mod p and base residue, and a row is active at x
through the one residue (-v @ x) mod p, so scoring a candidate costs one
gather per distinct row, not one evaluation per touched cycle.  An
exhaustive round over all p**s assignments sums each row over the p**|S|
powers of its support S, the cells where v is nonzero, and broadcast-adds
one table per distinct support into the p**s scores.  Sampled rounds
gather their random candidates directly.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .code_model import PartitionMatrix, SCCodeSpec, ab_code
from .cycle_census import (LiftedShapeCount, alternating_sum, starter_cycles4,
                           starter_cycles6, walk_residues)


@dataclass(frozen=True)
class CpoConfig:
    """Knobs for the power search; defaults follow the common small-code setup."""

    seed: int | None = None
    subset_size_schedule: tuple = (1, 2, 3)
    power_candidates: int | None = None  # None: exhaustive joint assignments
    # joint assignments above this are sampled; an exhaustive round of size
    # s costs p**|S| per distinct coefficient row of support S plus p**s
    # per distinct support, and holds a p**s score vector
    exhaustive_cap: int = 8192
    target_f_sc: int = 0
    max_stale_rounds: int = 60
    time_budget_s: float | None = None

    def __post_init__(self):
        if not self.subset_size_schedule or min(self.subset_size_schedule) < 1:
            raise ValueError("subset sizes must be >= 1")
        if self.power_candidates is not None and self.power_candidates < 1:
            raise ValueError("candidate sample size must be >= 1")
        if self.exhaustive_cap < 1:
            raise ValueError(f"exhaustive_cap must be >= 1, got {self.exhaustive_cap}")
        if self.max_stale_rounds < 0:
            raise ValueError(
                f"max_stale_rounds must be >= 0, got {self.max_stale_rounds}")
        if self.time_budget_s is not None and self.time_budget_s < 0:
            raise ValueError(
                f"time_budget_s must be >= 0, got {self.time_budget_s}")


@dataclass
class TraceRow:
    round: int
    cells: tuple
    powers: tuple
    f_sc_before: int
    f_sc_after: int
    accepted: bool


@dataclass
class CpoState:
    """Final powers plus the bookkeeping the optimizer maintained.

    theta is the final (gamma, kappa) int64 cell score of weighted_theta.
    """

    powers: np.ndarray
    f_sc: int
    theta: np.ndarray
    trace: list
    rounds: int
    reached_target: bool


def _visit_table(res: np.ndarray, ncells: int) -> np.ndarray:
    """Boolean (cell, cycle) table: does the cycle's walk visit the cell."""
    visits = np.zeros((ncells, len(res)), dtype=bool)
    visits[res, np.arange(len(res))[:, None]] = True
    return visits


class CycleSystem:
    """Starter cycles of a coupled spec in residue-cell coordinates.

    res6 and res4 hold each cycle's cells in alternating walk order, so the
    alternating sum of powers over them is 0 mod p exactly for the cycles
    that survive lifting.  Powers enter only through the residue cell index
    (row mod gamma) * kappa + (col mod kappa).  visits6 and visits4 mark,
    per cell, the cycles whose walk passes through it.
    """

    def __init__(self, spec: SCCodeSpec):
        g, kp = spec.gamma, spec.kappa
        self.gamma, self.kappa, self.m, self.p = g, kp, spec.m, spec.p

        span6, rows6, cols6 = starter_cycles6(spec)
        self.res6 = walk_residues(spec, rows6, cols6)
        self.span6 = span6
        self.weight6 = np.maximum(spec.L - span6 + 1, 0) * spec.p

        _, rows4, cols4 = starter_cycles4(spec)
        self.res4 = walk_residues(spec, rows4, cols4)

        self.visits6 = _visit_table(self.res6, g * kp)
        self.visits4 = _visit_table(self.res4, g * kp)

    def active6(self, f_flat: np.ndarray) -> np.ndarray:
        return alternating_sum(f_flat[self.res6]) % self.p == 0

    def f_sc(self, f_flat: np.ndarray) -> int:
        return int(self.weight6[self.active6(f_flat)].sum())

    def count_active4(self, f_flat: np.ndarray) -> int:
        return int((alternating_sum(f_flat[self.res4]) % self.p == 0).sum())


def weighted_theta(system: CycleSystem, f_flat: np.ndarray) -> np.ndarray:
    """(gamma, kappa) int64 cell scores: m+1 per visit of an active 6-cycle.

    Equals the paper's count over the maximal window folded by residues,
    where each of a span-k cycle's m-k+2 copies deposits (m+1)/(m-k+2) on
    its six cells.
    """
    g, kp = system.gamma, system.kappa
    cells = system.res6[system.active6(f_flat)].ravel()
    return (system.m + 1) * np.bincount(cells, minlength=g * kp).reshape(g, kp)


_CAND_CHUNK = 32768
LAYOUT_EXHAUSTIVE_CAP = 20000  # refine_layout scores every arrangement up to this


def _candidate_chunks(rng, p: int, size: int, n: int):
    """n random joint power assignments for a subset, yielded in blocks to
    bound memory."""
    while n > 0:
        take = min(n, _CAND_CHUNK)
        yield rng.integers(0, p, size=(take, size), dtype=np.int64)
        n -= take


def _linear_forms(res, visits, subset, f_flat):
    """Signed power sums of the cycles through `subset` as base + coef @ x.

    x holds the subset cells' powers and coef[:, j] is the signed
    multiplicity of subset cell j in each touched cycle's walk.  A cycle is
    touched when it visits a subset cell, even with a net coefficient of
    zero.  Returns the touched cycle indices, base and coef.
    """
    touched = np.flatnonzero(visits[subset].any(axis=0))
    cells = res[touched]
    coef = alternating_sum(cells[:, None, :] == subset[:, None])
    base = alternating_sum(f_flat[cells]) - coef @ f_flat[subset]
    return touched, base, coef


class _SubsetScorer:
    """Lifted 6-cycle count after re-powering one cell subset.

    Only the cycles through the subset change.  A touched cycle's sum is
    base + v @ x, so it is active exactly where base = -v @ x mod p.  The
    touched cycles are pooled by their coefficient row v mod p: entry
    i * p + b of pool weighs the cycles of row rows[i] with base residue b,
    and at powers x row i adds pool[i * p + (-rows[i] @ x) % p].  A touched
    4-cycle weighs `kill`, more than all touched 6-cycles together, so a
    candidate whose pooled weight reaches kill activates a 4-cycle; it
    scores the current count and is never accepted.
    """

    def __init__(self, system: CycleSystem, f_flat: np.ndarray, subset, f_sc: int):
        p = system.p
        self.p, self.size, self.f_sc = p, len(subset), f_sc
        touched6, base6, coef6 = _linear_forms(
            system.res6, system.visits6, subset, f_flat)
        _, base4, coef4 = _linear_forms(system.res4, system.visits4, subset, f_flat)
        w6 = system.weight6[touched6]
        self.kill = int(w6.sum()) + 1
        coef = np.concatenate([coef6, coef4]) % p
        order = np.lexsort(coef.T)
        coef = coef[order]
        new = np.ones(len(coef), dtype=bool)
        new[1:] = (coef[1:] != coef[:-1]).any(axis=1)
        self.rows = coef[new]
        self.at = p * np.arange(len(self.rows))
        self.pool = np.zeros(len(self.rows) * p, dtype=np.int64)
        np.add.at(self.pool,
                  self.at[np.cumsum(new) - 1]
                  + np.concatenate([base6, base4])[order] % p,
                  np.concatenate([w6, np.full(len(base4), self.kill)])[order])
        # the subset's current powers may close a touched 4-cycle
        now = self._pooled(self.rows, self.at, f_flat[subset, None])
        self.f_rest = f_sc - int(now[0]) % self.kill

    def _pooled(self, rows, at, x):
        """Pooled weight active at each column of the (size, n) powers x,
        summed over the given rows, whose pool entries start at `at`."""
        return self.pool[(-rows @ x) % self.p + at[:, None]].sum(axis=0)

    def _scores(self, total):
        return np.where(total >= self.kill, self.f_sc, self.f_rest + total)

    def dense_scores(self, cands: np.ndarray) -> np.ndarray:
        """Scores of the given (n, size) candidate rows."""
        return self._scores(self._pooled(self.rows, self.at, cands.T))

    def table_scores(self) -> np.ndarray:
        """Scores of all p**size candidates, in lexicographic order.

        Each row's pooled weight depends only on the powers of its support,
        the columns where it is nonzero, so the rows of one support are
        summed over the p**|S| powers of S and broadcast along the rest.
        """
        p, s = self.p, self.size
        table = np.zeros((p,) * s, dtype=np.int64)
        supports = (self.rows != 0) @ (1 << np.arange(s))
        for mask in set(supports.tolist()):
            mine = supports == mask
            bits = [mask >> j & 1 for j in range(s)]
            cols = np.flatnonzero(bits)
            grid = np.indices((p,) * len(cols)).reshape(len(cols), p ** len(cols))
            total = self._pooled(self.rows[mine][:, cols], self.at[mine], grid)
            table += total.reshape([p if bit else 1 for bit in bits])
        return self._scores(table.ravel())


def run_cpo(spec: SCCodeSpec, config: CpoConfig) -> CpoState:
    """Minimize the lifted 6-cycle count by local power changes.

    Starts from spec.block.powers, which must not induce lifted 4-cycles.
    Accepted moves strictly decrease the count and never create a 4-cycle;
    the trace logs one row per round (the best candidate tried).
    """
    if spec.L < spec.m + 1:
        raise ValueError("power optimization expects L >= m + 1")
    system = CycleSystem(spec)
    p, g, kp = spec.p, spec.gamma, spec.kappa
    f = spec.block.powers.astype(np.int64).copy()
    f_flat = f.ravel()
    if system.count_active4(f_flat):
        raise ValueError("initial powers induce lifted 4-cycles; start cycle-4-free")

    rng = np.random.default_rng(config.seed)
    sampling = config.power_candidates is not None or any(
        p**s > config.exhaustive_cap for s in config.subset_size_schedule
    )
    if sampling and config.seed is None:
        raise ValueError("a seed is required when candidates are sampled")

    f_sc = system.f_sc(f_flat)
    theta = weighted_theta(system, f_flat)
    trace: list[TraceRow] = []
    rounds = 0
    stale = 0
    level = 0
    start = time.monotonic()

    while f_sc > config.target_f_sc:
        if (
            config.time_budget_s is not None
            and time.monotonic() - start > config.time_budget_s
        ):
            break
        size = min(config.subset_size_schedule[level], g * kp)
        # highest theta first, ties in row-major cell order
        order = np.argsort(-theta.ravel(), kind="stable")
        if stale == 0:
            subset = order[:size]
        else:
            # retry passes roam: sample the subset from the high-score
            # region instead of always taking the exact top
            pool = order[: min(len(order), max(4 * size, 12))]
            subset = np.sort(rng.choice(pool, size=size, replace=False))
        rounds += 1

        scorer = _SubsetScorer(system, f_flat, subset, f_sc)
        f_best = f_sc
        best_row = None
        if config.power_candidates is None and p**size <= config.exhaustive_cap:
            first_row = np.zeros(size, dtype=np.int64)
            f_cand = scorer.table_scores()
            n = int(np.argmin(f_cand))
            if f_cand[n] < f_best:
                f_best = int(f_cand[n])
                best_row = np.array(np.unravel_index(n, (p,) * size))
        else:
            first_row = None
            n_sampled = (config.exhaustive_cap if config.power_candidates is None
                         else config.power_candidates)
            for cands in _candidate_chunks(rng, p, size, n_sampled):
                if first_row is None:
                    first_row = cands[0].copy()
                f_cand = scorer.dense_scores(cands)
                n = int(np.argmin(f_cand))
                if f_cand[n] < f_best:
                    f_best = int(f_cand[n])
                    best_row = cands[n].copy()
        accepted = best_row is not None
        tried = best_row if accepted else first_row
        trace.append(
            TraceRow(
                rounds,
                tuple((int(c) // kp, int(c) % kp) for c in subset),
                tuple(int(v) for v in tried),
                f_sc,
                f_best if accepted else f_sc,
                accepted,
            )
        )
        if accepted:
            f_flat[subset] = best_row
            f_sc = system.f_sc(f_flat)
            if f_sc != f_best:
                raise RuntimeError(
                    f"incremental count drifted: scored {f_best}, recounted {f_sc}")
            n4 = system.count_active4(f_flat)
            if n4:
                raise RuntimeError(
                    f"accepted powers activate {n4} lifted 4-cycles, expected 0")
            theta = weighted_theta(system, f_flat)
            level = 0
            stale = 0
            continue
        level += 1
        if level >= len(config.subset_size_schedule):
            level = 0
            stale += 1
            if config.seed is None and not sampling:
                break
            if stale >= config.max_stale_rounds:
                break

    return CpoState(
        powers=f_flat.reshape(g, kp),
        f_sc=f_sc,
        theta=theta,
        trace=trace,
        rounds=rounds,
        reached_target=f_sc <= config.target_f_sc,
    )


# ---------------------------------------------------------------------------
# column arrangement presearch


def _multiset_permutations(items):
    """Distinct permutations of a sequence, lexicographically, each the next
    permutation of the one before (Knuth, TAOCP 7.2.1.2, Algorithm L)."""
    items = sorted(items)
    while True:
        yield tuple(items)
        i = len(items) - 2
        while i >= 0 and items[i] >= items[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(items) - 1
        while items[j] <= items[i]:
            j -= 1
        items[i], items[j] = items[j], items[i]
        items[i + 1:] = reversed(items[i + 1:])


def refine_layout(partition: PartitionMatrix, p: int, L: int):
    """Column arrangement of a partition minimizing the lifted count at AB powers.

    Each arrangement is scored as a partition whose columns sit in that
    order at the AB powers of their positions, by one LiftedShapeCount.
    Small arrangement spaces are searched exhaustively in lexicographic
    order (deterministic tie-break: first minimum); larger ones fall back to
    deterministic pairwise-swap descent from the current arrangement, taking
    the first improving swap.  Returns (partition, count).
    """
    kp = partition.kappa
    score = LiftedShapeCount(ab_code(partition.gamma, kp, p), partition.m, L)
    # distinct arrangements: the multinomial of the column pattern counts
    _, counts = np.unique(partition.assign, axis=1, return_counts=True)
    arrangements = math.factorial(kp) // math.prod(map(math.factorial, counts))
    if arrangements <= LAYOUT_EXHAUSTIVE_CAP:
        # (arrangement, position, row) components
        arranged = np.array(list(_multiset_permutations(partition.assign.T.tolist())))
        # arrangements per block: about _CAND_CHUNK shapes gathered
        step = max(1, _CAND_CHUNK // max(len(score.cells), 1))
        vals = np.concatenate([score(arranged[i:i + step].transpose(0, 2, 1))
                               for i in range(0, len(arranged), step)])
        n = int(np.argmin(vals))
        val, assign = int(vals[n]), arranged[n].T
    else:
        assign = partition.assign.copy()
        val = int(score(assign[None])[0])
        improved = True
        while improved:
            improved = False
            for pos1 in range(kp):
                for pos2 in range(pos1 + 1, kp):
                    if (assign[:, pos1] == assign[:, pos2]).all():
                        continue
                    trial = assign.copy()
                    trial[:, [pos1, pos2]] = assign[:, [pos2, pos1]]
                    trial_val = int(score(trial[None])[0])
                    if trial_val < val:
                        assign, val, improved = trial, trial_val, True
    return PartitionMatrix(partition.m, assign), val
