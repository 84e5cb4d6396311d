"""Search for the partition minimizing the coupled protograph 6-cycle count.

The census is a polynomial in the column-overlap parameters, and every
realizable overlap vector corresponds one-to-one with a vector of pattern
counts: how many columns assign each possible component-per-block-row
pattern.  Pattern counts are the natural search space because feasibility
is just nonnegativity plus the column budget, and the balance constraint
(each component receives roughly kappa*gamma/(m+1) circulants) is linear.

Three strategies share one vectorized objective, the census's shape count
(`cycle_census.ShapeCount`), which scores a batch of pattern-count rows
through its own cover of the shape overlaps.
Exhaustive search and branch-and-bound also share one block expander,
`_balanced_blocks`, which emits the balanced compositions in lexicographic
order, about `BATCH` rows at a time, building only each parent's interval
of balanced child counts.  Exhaustive search scores every one (certifies
optimality).  Branch-and-bound prunes each new frontier of partial count
vectors whose census already exceeds the incumbent (adding a column never
removes cycles); its `evaluated` counts the incumbent's local-search rows,
the bounded partial rows and the scored complete rows.  Seeded
multi-restart steepest descent serves spaces too large to enumerate; its
restarts descend in lockstep over (restart, v, w) move triples.
`time_budget_s` bounds local search (past it, only the first restart
descends on) and branch-and-bound, which then reports certified=False.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .cycle_census import ShapeCount, shape_weight
from .overlaps import (
    IndependentOverlaps,
    PatternCounts,
    column_patterns,
    cover_matrix,
    independent_overlap_sets,
)


STRATEGIES = ("auto", "exhaustive", "branch-and-bound", "local-search")
EXHAUSTIVE_LIMIT = 2_000_000  # auto strategy cutoff, compositions
BATCH = 1 << 15  # rows per block of the composition expander


@dataclass(frozen=True)
class OptimizerConfig:
    strategy: str = "auto"  # one of STRATEGIES
    balance_slack: int = 0
    seed: int | None = None
    restarts: int = 60
    time_budget_s: float | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.balance_slack < 0:
            raise ValueError("balance slack must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.time_budget_s is not None and self.time_budget_s < 0:
            raise ValueError("time budget must be >= 0")


@dataclass(frozen=True)
class Optimum:
    overlaps: IndependentOverlaps
    patterns: PatternCounts
    f_star: int
    certified: bool
    strategy: str
    evaluated: int


class _Evaluator:
    """Batched census evaluation over pattern-count vectors.

    `objective` is the census's shape count (`ShapeCount`) under the
    L-replica placement weight: the weighted 6-cycle total of each
    pattern-count row of a batch.  `independent` maps a row to its
    independent overlaps, the tie-break between equal totals.
    """

    def __init__(self, gamma: int, m: int, L: int):
        self.independent = cover_matrix(gamma, m, independent_overlap_sets(gamma, m))
        self.objective = ShapeCount(gamma, m, shape_weight(m, L))

    def independent_values(self, n: np.ndarray) -> tuple:
        return tuple(int(v) for v in self.independent @ n)


def balance_bounds(gamma: int, kappa: int, m: int, slack: int):
    """Allowed circulant totals per component."""
    lo = kappa * gamma // (m + 1) - slack
    hi = -(-kappa * gamma // (m + 1)) + slack
    return max(lo, 0), min(hi, kappa * gamma)


def _component_loads(gamma: int, m: int) -> np.ndarray:
    """(m+1) x n_patterns matrix of circulants each pattern gives each component."""
    pats = np.array(column_patterns(gamma, m), dtype=np.int64)
    return (pats == np.arange(m + 1)[:, None, None]).sum(axis=2)


def _balanced_blocks(kappa: int, loads: np.ndarray, lo: int, hi: int,
                     block: int, prune=None):
    """Pattern-count vectors summing to kappa with per-component totals in [lo, hi].

    Yields arrays of rows in lexicographic order.  A frontier of partial
    count vectors is expanded one pattern at a time (the last pattern takes
    exactly the remainder).  Totals are linear in a child's count c, so the
    children keeping every total <= hi and lo still reachable are one
    interval of c per parent, and only those are built.  Frontiers are
    handled depth-first off a stack, and parents are split by their child
    counts before that test, so one step builds about `block` rows at most.
    `prune(rows)`, if given, returns a keep mask for each new frontier of
    partial rows (patterns from the next one on still zero).
    """
    ncomp, nparts = loads.shape
    suffix_max = np.zeros((nparts + 1, ncomp), dtype=np.int64)
    for vi in range(nparts - 1, -1, -1):
        suffix_max[vi] = np.maximum(suffix_max[vi + 1], loads[:, vi])
    # (next pattern, partial rows, totals by component, columns left)
    stack = [(0, np.zeros((1, nparts), dtype=np.int64),
              np.zeros((ncomp, 1), dtype=np.int64), np.full(1, kappa))]
    while stack:
        vi, rows, totals, remaining = stack.pop()
        last = vi == nparts - 1
        first = remaining if last else 0
        take = max(int(np.searchsorted(np.cumsum(remaining - first + 1), block,
                                       side="right")), 1)
        if take < len(rows):
            stack.append((vi, rows[take:], totals[:, take:], remaining[take:]))
        rows, totals, remaining = rows[:take], totals[:, :take], remaining[:take]
        c_lo, c_hi = (remaining if last else 0), remaining
        for load, s, t in zip(loads[:, vi], suffix_max[vi + 1], totals):
            # t + c * load <= hi, and t + c * load + (remaining - c) * s >= lo
            # with s the largest load of the later patterns
            c_hi = (np.minimum(c_hi, (hi - t) // load) if load
                    else np.where(t > hi, -1, c_hi))
            need, d = lo - t - remaining * s, load - s
            if d > 0:
                c_lo = np.maximum(c_lo, -(-need // d))
            else:
                c_hi = (np.minimum(c_hi, need // d) if d
                        else np.where(need > 0, -1, c_hi))
        width = np.maximum(c_hi - c_lo + 1, 0)
        parent = np.repeat(np.arange(take), width)
        c = np.arange(len(parent)) + np.repeat(c_lo - np.cumsum(width) + width, width)
        rows = rows[parent]
        rows[:, vi] = c
        totals = totals[:, parent] + loads[:, vi, None] * c
        remaining = remaining[parent] - c
        if not last and prune is not None and len(rows):
            keep = prune(rows)
            rows, totals, remaining = rows[keep], totals[:, keep], remaining[keep]
        if not len(rows):
            continue
        if last:
            yield rows
        else:
            stack.append((vi + 1, rows, totals, remaining))


def composition_space(kappa: int, gamma: int, m: int) -> int:
    """Weak compositions of kappa over all patterns, before balance filtering."""
    nparts = (m + 1) ** gamma
    return math.comb(kappa + nparts - 1, nparts - 1)


def _best_of(ev: _Evaluator, batch_rows, best=None, evaluated=0):
    """Fold batches into (value, ind_vector, pattern_row), lex tie-break:
    only a block's minimal rows can change the best, taken in index order."""
    for rows in batch_rows:
        vals = ev.objective(rows)
        evaluated += len(rows)
        low = vals.min(initial=np.iinfo(np.int64).max)
        if best is not None and low > best[0]:
            continue
        for i in np.flatnonzero(vals == low):
            cand = (int(low), ev.independent_values(rows[i]), rows[i].copy())
            if best is None or cand[:2] < best[:2]:
                best = cand
    return best, evaluated


def _excess(totals, lo: int, hi: int):
    """How far component totals (axis 0) lie outside [lo, hi], summed."""
    return (np.maximum(totals - hi, 0) + np.maximum(lo - totals, 0)).sum(axis=0)


def _random_balanced(rng, kappa, loads, lo, hi, attempts=2000):
    """Random feasible pattern-count vector via sampling plus greedy repair:
    each step moves one column, from the first used pattern (in random
    order) that can cut the excess, to the pattern cutting it most."""
    nparts = loads.shape[1]
    for _ in range(attempts):
        n = np.bincount(rng.integers(0, nparts, size=kappa), minlength=nparts)
        for _ in range(4 * kappa):
            totals = loads @ n
            cur = _excess(totals, lo, hi)
            if not cur:
                return n
            src = np.nonzero(n > 0)[0]
            rng.shuffle(src)
            for vi in src:
                # a move to vi itself scores cur, so it never wins
                score = _excess((totals - loads[:, vi])[:, None] + loads, lo, hi)
                wi = int(np.argmin(score))
                if score[wi] < cur:
                    n[vi] -= 1
                    n[wi] += 1
                    break
            else:
                break
        if not _excess(loads @ n, lo, hi):
            return n
    raise RuntimeError("could not sample a balanced start; relax the slack")


def _move(rows, v, w):
    """The rows (a fancy-indexed copy), row i moving a column from v[i] to w[i]."""
    at = np.arange(len(rows))
    rows[at, v] -= 1
    rows[at, w] += 1
    return rows


def _local_search(ev, kappa, loads, lo, hi, config, deadline):
    """Seeded multi-restart steepest descent over single-column moves.

    The starts are drawn first (descents draw nothing).  Each step scores,
    `BATCH` rows at a time, the moves (restart, v, w) of every restart still
    improving, v a used pattern and w another keeping the totals in [lo, hi],
    in restart-major, v-major, w-ascending order; each restart takes its
    first best move.  The clock is read before each later start and step;
    past the deadline no start is drawn and only the first restart descends
    on, to its local minimum.
    """
    rng = np.random.default_rng(config.seed)
    starts = []
    for restart in range(config.restarts):
        if restart and deadline is not None and time.monotonic() > deadline:
            break
        starts.append(_random_balanced(rng, kappa, loads, lo, hi))
    n = np.array(starts)
    val = ev.objective(n)
    evaluated = len(n)
    live = np.arange(len(n))  # restarts still descending
    while len(live):
        if len(live) > 1 and deadline is not None and time.monotonic() > deadline:
            live = live[live == 0]
            continue
        at, v = np.nonzero(n[live] > 0)
        totals = ((loads @ n[live].T)[:, at] - loads[:, v])[:, :, None] + loads[:, None]
        ok = ((totals >= lo) & (totals <= hi)).all(axis=0)
        ok[np.arange(len(v)), v] = False
        pair, w = np.nonzero(ok)
        r, v = live[at[pair]], v[pair]
        vals = np.empty(len(r), dtype=np.int64)
        for s in range(0, len(r), BATCH):
            b = slice(s, s + BATCH)
            vals[b] = ev.objective(_move(n[r[b]], v[b], w[b]))
        evaluated += len(r)
        heads = np.flatnonzero(np.diff(r, prepend=-1))  # each restart's first move
        low = np.minimum.reduceat(vals, heads).repeat(np.diff(heads, append=len(r)))
        best = np.flatnonzero(vals == low)
        best = best[np.diff(r[best], prepend=-1) > 0]  # its first best move
        best = best[vals[best] < val[r[best]]]  # the restarts still improving
        live = r[best]
        n[live] = _move(n[live], v[best], w[best])
        val[live] = vals[best]
    ind = [tuple(row) for row in (n @ ev.independent.T).tolist()]
    r = min(range(len(n)), key=lambda r: (int(val[r]), ind[r]))
    return (int(val[r]), ind[r], n[r].copy()), evaluated


def _branch_and_bound(ev, kappa, loads, lo, hi, config, deadline):
    """Depth-first search pruned by the census of the partial counts.

    Adding a column never removes cycles, so a partial row whose census
    exceeds the incumbent cannot lead to an optimum; ties survive, which
    keeps the lexicographic tie-break.  Returns (best, evaluated, complete):
    complete is False when the deadline cut the search short.
    """
    best, evaluated = _local_search(
        ev, kappa, loads, lo, hi,
        OptimizerConfig(strategy="local-search", balance_slack=config.balance_slack,
                        seed=config.seed if config.seed is not None else 0,
                        restarts=min(config.restarts, 10)),
        deadline,
    )
    bounded = 0
    cut = False

    def keep(rows):
        nonlocal bounded, cut
        if deadline is not None and time.monotonic() > deadline:
            cut = True
            return np.zeros(len(rows), dtype=bool)
        bounded += len(rows)
        return ev.objective(rows) <= best[0]

    for rows in _balanced_blocks(kappa, loads, lo, hi, BATCH, keep):
        best, evaluated = _best_of(ev, [rows], best, evaluated)
        if cut:
            break
    return best, evaluated + bounded, not cut


def optimize(gamma: int, kappa: int, m: int, L: int,
             config: OptimizerConfig = OptimizerConfig()) -> Optimum:
    """Find the balanced partition minimizing the protograph census.

    Certified (exhaustive or branch-and-bound) strategies guarantee the
    global optimum over the balanced region; local search reports its best
    visited point.  Deterministic for a fixed (config, seed).
    """
    if gamma < 1 or kappa < 1 or m < 0 or L < 1:
        raise ValueError(f"need gamma, kappa, L >= 1 and m >= 0, got gamma={gamma}, "
                         f"kappa={kappa}, m={m}, L={L}")
    ev = _Evaluator(gamma, m, L)
    loads = _component_loads(gamma, m)
    lo, hi = balance_bounds(gamma, kappa, m, config.balance_slack)
    deadline = (
        None if config.time_budget_s is None
        else time.monotonic() + config.time_budget_s
    )

    strategy = config.strategy
    if strategy == "auto":
        small = composition_space(kappa, gamma, m) <= EXHAUSTIVE_LIMIT
        strategy = "exhaustive" if small else "local-search"

    if strategy == "exhaustive":
        best, evaluated = _best_of(
            ev, _balanced_blocks(kappa, loads, lo, hi, BATCH))
        certified = True
    elif strategy == "branch-and-bound":
        best, evaluated, certified = _branch_and_bound(
            ev, kappa, loads, lo, hi, config, deadline)
    else:
        if config.seed is None:
            raise ValueError("local search requires a seed")
        best, evaluated = _local_search(ev, kappa, loads, lo, hi, config, deadline)
        certified = False
    if best is None:
        raise ValueError(
            f"no balanced partition exists for gamma={gamma}, kappa={kappa}, "
            f"m={m}, slack={config.balance_slack}"
        )
    val, ind_values, n = best
    return Optimum(
        overlaps=IndependentOverlaps(gamma, m, kappa, ind_values),
        patterns=PatternCounts(gamma, m, kappa, n),
        f_star=int(val),
        certified=certified,
        strategy=strategy,
        evaluated=evaluated,
    )
