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

A cycle survives lifting exactly when its signed power sum is 0 mod p
(Fossorier, IEEE T-IT 50(8), 2004).  Powers change only on an accept, so
the rounds of an epoch, from one accept to the next, share their work.
Q_K(x_K) weighs the cycles that visit every cell of a set K and are active
when K takes powers x_K, the other cells keeping theirs.  Möbius inversion
over cell sets (Rota, Z. Wahrscheinlichkeitstheorie 2, 1964) splits it into
pieces D_K(x_K) = sum over nonempty J in K of (-1)**(|K|-|J|) Q_K(x_J, f_K-J),
signed slices of one table at the current powers f, and the pieces of the
nonempty K in a subset S add up to the weight of the cycles through S that
are active at x_S, which is all that re-powering S changes.  A piece
pools the cycles that visit every cell of K by coefficient row and base
residue, reads each row's residues from an index table kept for the run,
and is cached for the epoch; a single cell's piece is Q_K itself, and an
accept moves only the power sums of the cycles through its cells.  An
exhaustive round broadcast-adds its pieces into a p**s table and keeps its
best candidate for repeats of the subset in the epoch; a sampled round
pools the cycles through any cell of its subset once and reads that pool at
its candidates.
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
    # s holds a p**s table, and its pieces are the only ones tabulated
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
    scored: int  # rounds whose candidates were scored
    reused: int  # exhaustive rounds that repeated a subset of their epoch
    pieces: int  # multi-cell pieces tabulated
    cut_short: bool  # time_budget_s ended the search


class CycleSystem:
    """Starter cycles of a coupled spec in residue-cell coordinates.

    res6 and res4 hold each cycle's cells in alternating walk order, so the
    alternating sum of powers over them is 0 mod p exactly for the cycles
    that survive lifting.  Powers enter only through the residue cell index
    (row mod gamma) * kappa + (col mod kappa).
    """

    def __init__(self, spec: SCCodeSpec):
        self.gamma, self.kappa, self.m, self.p = spec.gamma, spec.kappa, spec.m, spec.p

        span6, rows6, cols6 = starter_cycles6(spec)
        self.res6 = walk_residues(spec, rows6, cols6)
        self.span6 = span6
        self.weight6 = np.maximum(spec.L - span6 + 1, 0) * spec.p

        _, rows4, cols4 = starter_cycles4(spec)
        self.res4 = walk_residues(spec, rows4, cols4)

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


class _EpochScorer:
    """Lifted 6-cycle counts after re-powering cell subsets, at one epoch's
    powers.  A 6-cycle weighs weight6 and a 4-cycle `kill`, more than all
    6-cycles together: a candidate whose total reaches kill activates a
    4-cycle, so it scores the current count and is never accepted."""

    def __init__(self, system: CycleSystem, f_flat, f_sc: int):
        self.p, self.built = system.p, 0
        self.kill = int(system.weight6.sum()) + 1
        self.weight = np.concatenate(
            [system.weight6, np.full(len(system.res4), self.kill)])
        ncells, ncycles = system.gamma * system.kappa, len(self.weight)
        if ncycles * self.kill >= 1 << 53:
            raise ValueError("cycle weights could pass 2**53, where the float64 "
                             "pooled weights stop being exact")
        # signed multiplicity of each cell in each cycle's walk, and whether
        # the walk visits it (a net-zero visit too); one walk position holds
        # each cycle once, so a plain += adds every step
        self.mult = np.zeros((ncells, ncycles), dtype=np.int8)
        self.visits = np.zeros((ncells, ncycles), dtype=bool)
        for res, at in ((system.res6, 0), (system.res4, len(system.res6))):
            cycles = at + np.arange(len(res))
            for j in range(res.shape[1]):
                self.mult[res[:, j], cycles] += (-1) ** j
                self.visits[res[:, j], cycles] = True
        self.lin, self.masks = {}, {}
        # every cycle's signed power sum, at all powers 0 until start moves it
        self.f, self.sums = np.zeros_like(f_flat), np.zeros(ncycles, np.int64)
        self.start(f_flat, f_sc)

    def start(self, f_flat, f_sc: int):
        """Begin an epoch at powers f_flat, whose lifted count is f_sc: move
        the sums of the cycles through re-powered cells, drop the pieces."""
        moved = np.flatnonzero(f_flat != self.f)
        self.sums += self.mult[moved].T @ (f_flat[moved] - self.f[moved])
        self.f, self.f_sc, self.pieces = f_flat.copy(), f_sc, {}

    def _forms(self, cells, through=np.all):
        """The cycles visiting every cell of K (or any, through=np.any),
        pooled by coefficient row v (mult[K] mod p) and base residue b, where
        a cycle's sum at powers x_K is b + v @ x_K: the distinct rows and
        their (row, b) weights, or None when no cycle is selected."""
        sel = np.flatnonzero(through(self.visits[cells], axis=0))
        if not len(sel):
            return None
        coef = self.mult[cells[:, None], sel].T.astype(np.int64) % self.p
        base = (self.sums[sel] - coef @ self.f[cells]) % self.p
        order = np.lexsort(coef.T)
        coef = coef[order]
        new = np.ones(len(coef), dtype=bool)
        new[1:] = (coef[1:] != coef[:-1]).any(axis=1)
        pool = np.bincount((np.cumsum(new) - 1) * self.p + base[order],
                           self.weight[sel][order], new.sum() * self.p)
        return coef[new], pool.astype(np.int64).reshape(-1, self.p)

    def _q(self, forms, x):
        """Q_K at the columns of the (|K|, n) powers x."""
        rows, pool = forms
        return pool[np.arange(len(rows))[:, None], -rows @ x % self.p].sum(axis=0)

    def _lin(self, row):
        """(-row @ x) mod p over all (p,) * |K| powers x, cached for the run."""
        key = tuple(row)
        if key not in self.lin:
            grid = np.indices((self.p,) * len(key))
            self.lin[key] = np.tensordot(-np.array(key), grid, 1) % self.p
        return self.lin[key]

    def _piece(self, cells):
        """D_K over all p**|K| powers of the sorted cells K, a (p,) * |K|
        table cached until the next epoch; None when no cycle visits all of
        K.  Q_K is one gather per pooled row.  Applying 1 - E_j along every
        axis j, E_j fixing x_j = f_j, sums the slices of every J in K, so
        the J = {} term is taken out; a single cell's piece is Q_K itself."""
        key = tuple(cells.tolist())
        if key not in self.pieces:
            forms, k, fk = self._forms(cells), len(cells), self.f[cells].tolist()
            if forms is not None:
                rows, pool = forms
                q = piece = sum(w[self._lin(v)] for v, w in zip(rows.tolist(), pool))
                for j in range(k):
                    piece = piece - piece[(slice(None),) * j + (fk[j], None)]
                piece -= (-1) ** k * q[tuple(fk)]
                self.built += k > 1  # CpoState.pieces: multi-cell only
            self.pieces[key] = None if forms is None else piece
        return self.pieces[key]

    def _scores(self, total, now):
        f_rest = self.f_sc - int(now) % self.kill
        return np.where(total >= self.kill, self.f_sc, f_rest + total)

    def table_scores(self, subset) -> np.ndarray:
        """Scores of all p**len(subset) candidates, in lexicographic order:
        the pieces of the subset's nonempty cell sets, broadcast-added into
        one (p,) * s table in subset order, weigh the cycles through it that
        are active at each candidate."""
        p, s = self.p, len(subset)
        order = np.argsort(subset)
        cells, total = subset[order], np.zeros((p,) * s, dtype=np.int64)
        if s not in self.masks:  # each nonempty mask's positions and table shape
            self.masks[s] = [([j for j in range(s) if mask >> j & 1],
                              [p if mask >> j & 1 else 1 for j in range(s)])
                             for mask in range(1, 2**s)]
        for pos, shape in self.masks[s]:
            piece = self._piece(cells[pos])
            if piece is not None:
                total += piece.reshape(shape)
        total = total.transpose(np.argsort(order))
        return self._scores(total.ravel(), total[tuple(self.f[subset])])

    def dense_scores(self, subset, cands: np.ndarray) -> np.ndarray:
        """Scores of the given (n, len(subset)) candidate rows: the cycles
        through any cell of the subset, pooled once, read at each row."""
        forms = self._forms(subset, np.any)
        if forms is None:  # no cycle passes the subset, so no row changes the count
            return np.full(len(cands), self.f_sc, dtype=np.int64)
        return self._scores(self._q(forms, cands.T),
                            self._q(forms, self.f[subset, None])[0])


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
    # highest theta first, ties in row-major cell order
    order = np.argsort(-theta.ravel(), kind="stable")
    scorer = _EpochScorer(system, f_flat, f_sc)
    seen = {}  # (argmin, score) of this epoch's exhaustive rounds, by subset
    trace: list[TraceRow] = []
    rounds = scored = reused = stale = level = 0
    cut_short = False
    start = time.monotonic()

    while f_sc > config.target_f_sc:
        if (
            config.time_budget_s is not None
            and time.monotonic() - start > config.time_budget_s
        ):
            cut_short = True
            break
        size = min(config.subset_size_schedule[level], g * kp)
        if stale == 0:
            subset = order[:size]
        else:
            # retry passes roam: sample the subset from the high-score
            # region instead of always taking the exact top
            pool = order[: min(len(order), max(4 * size, 12))]
            subset = np.sort(rng.choice(pool, size=size, replace=False))
        rounds += 1

        f_best = f_sc
        best_row = None
        if config.power_candidates is None and p**size <= config.exhaustive_cap:
            first_row = np.zeros(size, dtype=np.int64)
            key = tuple(subset.tolist())
            reused += key in seen
            if key not in seen:
                scored += 1
                f_cand = scorer.table_scores(subset)
                seen[key] = int(np.argmin(f_cand)), int(f_cand.min())
            n, value = seen[key]
            if value < f_best:
                f_best = value
                best_row = np.array(np.unravel_index(n, (p,) * size))
        else:
            scored += 1
            first_row = None
            n_sampled = (config.exhaustive_cap if config.power_candidates is None
                         else config.power_candidates)
            for cands in _candidate_chunks(rng, p, size, n_sampled):
                if first_row is None:
                    first_row = cands[0].copy()
                f_cand = scorer.dense_scores(subset, cands)
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
            order = np.argsort(-theta.ravel(), kind="stable")
            scorer.start(f_flat, f_sc)
            seen.clear()
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
        scored=scored,
        reused=reused,
        pieces=scorer.built,
        cut_short=cut_short,
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
