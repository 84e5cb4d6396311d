"""Slow reference implementations, one per fast path of the library.

Each reference's docstring names the library function it checks.
Everything here trades speed for obviousness: direct subgraph walks over
dense matrices, no combinatorial shortcuts beyond basic pruning.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np

from scldpc import power_opt
from scldpc.code_model import (PartitionMatrix, SCCodeSpec, ab_code,
                               as_column_lists, sc_lift,
                               sc_protograph, window)
from scldpc.cycle_census import CycleCensus, _row_pair_overlaps
from scldpc.overlaps import (IndependentOverlaps, PatternCounts,
                             column_patterns, cover_matrix,
                             independent_overlap_sets,
                             overlaps_from_partition, valid_overlap_sets)
from scldpc.partition_opt import (BATCH, OptimizerConfig, _balanced_blocks,
                                  _component_loads, balance_bounds)
from scldpc.power_opt import (CpoConfig, CycleSystem, TraceRow,
                              _candidate_chunks, weighted_theta)
from scldpc.trapping_sets import InducedConfig, replica_span


def random_partition(rng, gamma: int, kappa: int, m: int) -> PartitionMatrix:
    return PartitionMatrix(m, rng.integers(0, m + 1, size=(gamma, kappa)))


def _supports(h: np.ndarray):
    h = np.asarray(h)
    row_cols = [set(np.flatnonzero(h[r]).tolist()) for r in range(h.shape[0])]
    col_rows = [set(np.flatnonzero(h[:, c]).tolist()) for c in range(h.shape[1])]
    return row_cols, col_rows


def find_cycles6(h: np.ndarray):
    """All 6-cycles of a 0/1 matrix as ((r1, r2, r3), (c12, c13, c23)).

    Rows are sorted ascending; each cycle appears exactly once.
    """
    row_cols, col_rows = _supports(h)
    n_rows = len(row_cols)
    neighbors = [set() for _ in range(n_rows)]
    for rows in col_rows:
        for r, s in itertools.combinations(sorted(rows), 2):
            neighbors[r].add(s)
    out = []
    for r1 in range(n_rows):
        later = sorted(neighbors[r1])
        for r2, r3 in itertools.combinations(later, 2):
            if r3 not in neighbors[r2]:
                continue
            o12 = row_cols[r1] & row_cols[r2]
            o13 = row_cols[r1] & row_cols[r3]
            o23 = row_cols[r2] & row_cols[r3]
            for c12 in sorted(o12):
                for c13 in sorted(o13):
                    if c13 == c12:
                        continue
                    for c23 in sorted(o23):
                        if c23 != c12 and c23 != c13:
                            out.append(((r1, r2, r3), (c12, c13, c23)))
    return out


def find_cycles4(h: np.ndarray):
    """All 4-cycles as ((r1, r2), (c1, c2)), both pairs sorted ascending."""
    row_cols, col_rows = _supports(h)
    n_rows = len(row_cols)
    neighbors = [set() for _ in range(n_rows)]
    for rows in col_rows:
        for r, s in itertools.combinations(sorted(rows), 2):
            neighbors[r].add(s)
    out = []
    for r1 in range(n_rows):
        for r2 in sorted(neighbors[r1]):
            shared = sorted(row_cols[r1] & row_cols[r2])
            for c1, c2 in itertools.combinations(shared, 2):
                out.append(((r1, r2), (c1, c2)))
    return out


def brute_cycles6(h) -> int:
    """6-cycles of a 0/1 matrix, by listing every one; the reference for
    cycle_census.count_cycles6 on matrices small enough to list."""
    return len(find_cycles6(h))


def brute_cycles4(h) -> int:
    """4-cycles of a 0/1 matrix, by listing every one; the reference for
    cycle_census.count_cycles4."""
    return len(find_cycles4(h))


def sorted_key_cycles6(h, chunk: int = 1 << 15) -> int:
    """6-cycles of a 0/1 matrix from its row-pair overlaps, each triangle
    i < j < k of the overlap graph found at i and closed by a searchsorted
    lookup of (j, k) in the sorted pair keys, chunk wedges at a time; the
    reference for cycle_census.count_cycles6 at sizes too large to list."""
    ones = as_column_lists(h)
    n_rows = ones.shape[0]
    keys, overlap, excess = _row_pair_overlaps(ones)
    # sorted keys i * rows + j with i < j list each row's later neighbours
    # as one ascending segment
    lo, nbr = np.divmod(keys, max(n_rows, 1))
    arm = np.arange(len(nbr))
    # an arm (one edge at its lower row) pairs with the later edges of its
    # segment
    arm_wedges = np.cumsum(np.bincount(lo, minlength=n_rows))[lo] - 1 - arm
    cum = np.concatenate(([0], np.cumsum(arm_wedges)))
    triangles = 0
    e0 = 0
    while e0 < len(nbr):
        stop = int(np.searchsorted(cum, cum[e0] + chunk, side="right")) - 1
        e1 = max(stop, e0 + 1)  # a single arm longer than the chunk runs alone
        first = np.repeat(arm[e0:e1], arm_wedges[e0:e1])
        second = first + 1 + np.arange(len(first)) - np.repeat(
            cum[e0:e1] - cum[e0], arm_wedges[e0:e1])
        closing = nbr[first] * n_rows + nbr[second]
        pos = np.minimum(np.searchsorted(keys, closing), len(keys) - 1)
        hit = keys[pos] == closing
        triangles += int((overlap[first] * overlap[second] * overlap[pos])[hit].sum())
        e0 = e1
    # a degree-d column has C(d,2) pairs of excess d-2, so excess sums to
    # 3 * sum C(d,3)
    return triangles + 2 * (int(excess.sum()) // 3) - int((overlap * excess).sum())


def dense_sc_lift(spec) -> np.ndarray:
    """Lifted coupled matrix, by OR-ing every replica's lifted components
    in; the reference for code_model.sc_lift."""
    g, k, p, m, L = spec.gamma, spec.kappa, spec.p, spec.m, spec.L
    f, b = spec.block.powers, np.arange(p)
    out = np.zeros(((L + m) * g * p, L * k * p), dtype=np.uint8)
    for r in range(1, L + 1):
        for x in range(m + 1):
            mask = spec.partition.component(x)
            for h in range(g):
                for l in range(k):
                    if mask[h, l]:
                        out[((r - 1 + x) * g + h) * p + (b + f[h, l]) % p,
                            ((r - 1) * k + l) * p + b] = 1
    return out


def protograph_cycles6(spec) -> int:
    return brute_cycles6(sc_protograph(spec))


def lifted_cycles6(spec) -> int:
    return brute_cycles6(sc_lift(spec))


def lifted_cycles4(spec) -> int:
    return brute_cycles4(sc_lift(spec))


def starter_tuples(spec, find):
    """Cycles listed by `find` (find_cycles6 or find_cycles4) in the maximal
    window whose leftmost column lies in replica 1, one (span, rows, cols)
    tuple each, in listing order."""
    chi = min(spec.m + 1, spec.L)
    out = []
    for rows, cols in find(window(spec, 1, chi)):
        blocks = [c // spec.kappa for c in cols]
        if min(blocks) == 0:
            out.append((max(blocks) + 1, rows, cols))
    return out


def cycle6_power_sum(spec, rows, cols) -> int:
    """Alternating power sum of a protograph 6-cycle, reduced mod p."""
    f = spec.block.powers
    g, kp = spec.gamma, spec.kappa
    r1, r2, r3 = (r % g for r in rows)
    c12, c13, c23 = (c % kp for c in cols)
    s = (
        f[r1, c13] - f[r1, c12]
        + f[r2, c12] - f[r2, c23]
        + f[r3, c23] - f[r3, c13]
    )
    return int(s % spec.p)


def cycle4_power_sum(spec, rows, cols) -> int:
    f = spec.block.powers
    g, kp = spec.gamma, spec.kappa
    r1, r2 = (r % g for r in rows)
    c1, c2 = (c % kp for c in cols)
    return int((f[r1, c1] - f[r1, c2] + f[r2, c2] - f[r2, c1]) % spec.p)


def tuple_active_cycles6(spec):
    """(per_span, active_per_span) of the starter 6-cycles, one cycle at a
    time."""
    chi = min(spec.m + 1, spec.L)
    per_span = {k: 0 for k in range(1, chi + 1)}
    active = {k: 0 for k in range(1, chi + 1)}
    for k, rows, cols in starter_tuples(spec, find_cycles6):
        per_span[k] += 1
        if cycle6_power_sum(spec, rows, cols) == 0:
            active[k] += 1
    return per_span, active


def tuple_lifted_cycles4(spec) -> int:
    """Lifted 4-cycles via starter activity, one cycle at a time."""
    total = 0
    for k, rows, cols in starter_tuples(spec, find_cycles4):
        if k > spec.L:
            continue
        if cycle4_power_sum(spec, rows, cols) == 0:
            total += (spec.L - k + 1) * spec.p
    return total


def tuple_cycle_arrays(spec):
    """(res6, win6, span6, res4), filled one starter tuple at a time:
    residue cells and window cells in alternating walk order, and each
    6-cycle's span.  res6, span6 and res4 are power_opt.CycleSystem's
    arrays; win6 places window_theta's deposits."""
    g, kp = spec.gamma, spec.kappa
    window_cols = min(spec.m + 1, spec.L) * kp
    six = starter_tuples(spec, find_cycles6)
    four = starter_tuples(spec, find_cycles4)
    res6 = np.zeros((len(six), 6), dtype=np.int64)
    win6 = np.zeros((len(six), 6), dtype=np.int64)
    span6 = np.zeros(len(six), dtype=np.int64)
    for n, (k, (r1, r2, r3), (c12, c13, c23)) in enumerate(six):
        walk = [(r1, c13), (r1, c12), (r2, c12), (r2, c23), (r3, c23), (r3, c13)]
        res6[n] = [(r % g) * kp + (c % kp) for r, c in walk]
        win6[n] = [r * window_cols + c for r, c in walk]
        span6[n] = k
    res4 = np.zeros((len(four), 4), dtype=np.int64)
    for n, (k, (r1, r2), (c1, c2)) in enumerate(four):
        walk = [(r1, c1), (r1, c2), (r2, c2), (r2, c1)]
        res4[n] = [(r % g) * kp + (c % kp) for r, c in walk]
    return res6, win6, span6, res4


def window_theta(spec, f_flat) -> np.ndarray:
    """Float (gamma, kappa) theta of power_opt.weighted_theta, the long way.

    Every span-k starter 6-cycle reappears m-k+2 times down the maximal
    window; each copy of an active one deposits (m+1)/(m-k+2) on its six
    window cells, and the (2m+1)*gamma x (m+1)*kappa window is folded by
    residues.  Assumes L >= m + 1, as power_opt.run_cpo does.
    """
    g, kp, m = spec.gamma, spec.kappa, spec.m
    res6, win6, span6, _ = tuple_cycle_arrays(spec)
    signs6 = np.array([1, -1, 1, -1, 1, -1], dtype=np.int64)
    copies6 = m - span6 + 2
    wk6 = (m + 1) / np.maximum(copies6, 1)
    width = (m + 1) * kp
    theta_prime = np.zeros((2 * m + 1) * g * width)
    if len(res6):
        act = (f_flat[res6] * signs6).sum(axis=1) % spec.p == 0
        shift = g * width + kp
        for t in range(m + 1):
            live = act & (copies6 > t)
            if not live.any():
                continue
            np.add.at(
                theta_prime,
                (win6[live] + t * shift).ravel(),
                np.repeat(wk6[live], 6),
            )
    theta_prime = theta_prime.reshape((2 * m + 1) * g, width)
    return theta_prime.reshape(2 * m + 1, g, m + 1, kp).sum(axis=(0, 2))


# ---------------------------------------------------------------------------
# the paper's closed form: three combinatorial kernels, one per way of
# distributing a cycle's columns over one, two or three replicas


def _pos(x):
    return x if x > 0 else 0


def cycles6_one_replica(n_abc, n_ab, n_ac, n_bc):
    """6-cycles through three rows whose columns all lie in one column group.

    Arguments are the triple overlap and the three pairwise overlaps of the
    rows over that group's columns.  Case split on how many of the chosen
    columns are triple-overlap columns keeps every product nonnegative.
    """
    return (
        n_abc * _pos(n_abc - 1) * _pos(n_bc - 2)
        + n_abc * (n_ac - n_abc) * _pos(n_bc - 1)
        + (n_ab - n_abc) * n_abc * _pos(n_bc - 1)
        + (n_ab - n_abc) * (n_ac - n_abc) * n_bc
    )


def cycles6_two_replicas(n_abc, n_ab, n_ac, n_far):
    """6-cycles with two columns in one group and the third in another.

    n_ab, n_ac, n_abc describe the shared group (through row a and the pair
    b, c); n_far is the overlap of b and c over the second group, whose
    column can never collide with the first two.
    """
    return n_abc * _pos(n_ac - 1) * n_far + (n_ab - n_abc) * n_ac * n_far


def cycles6_three_replicas(n_ab, n_ac, n_bc):
    """6-cycles whose three columns sit in three distinct column groups."""
    return n_ab * n_ac * n_bc


def span_terms(gamma: int, m: int, k: int):
    """Symbolic summands of the span-k starter count F1[k].

    Each term is a kernel tag plus row-set keys to look up in a completed
    overlap table.  Row indices of the stacked component matrix are shifted
    so that every key lands back in [0, (m+1)*gamma); sets with repeated
    residues contribute 0 and are skipped at evaluation time.
    """
    g, rows = gamma, range((m + 1) * gamma)
    terms = []
    if k == 1:
        for i1, i2, i3 in itertools.combinations(rows, 3):
            terms.append(
                ("A", (i1, i2, i3), (i1, i2), (i1, i3), (i2, i3))
            )
        return terms
    if k == 2:
        for i1 in rows:
            for i2, i3 in itertools.combinations(range(g, (m + 1) * g), 2):
                terms.append(
                    ("B", (i1, i2, i3), (i1, i2), (i1, i3), (i2 - g, i3 - g))
                )
            for i2, i3 in itertools.combinations(range(m * g), 2):
                terms.append(
                    ("B", (i1, i2, i3), (i1, i2), (i1, i3), (i2 + g, i3 + g))
                )
        return terms
    # k >= 3: far pair fully left, fully right, or split by a middle replica q
    for i1 in rows:
        for i2, i3 in itertools.combinations(range((k - 1) * g, (m + 1) * g), 2):
            terms.append(
                ("B", (i1, i2, i3), (i1, i2), (i1, i3),
                 (i2 - (k - 1) * g, i3 - (k - 1) * g))
            )
        for i2, i3 in itertools.combinations(range((m - k + 2) * g), 2):
            terms.append(
                ("B", (i1, i2, i3), (i1, i2), (i1, i3),
                 (i2 + (k - 1) * g, i3 + (k - 1) * g))
            )
    for q in range(2, k):
        for i1 in range((q - 1) * g, (m + 1) * g):
            for i2 in range((k - 1) * g, (m + 1) * g):
                for i3 in range((k - 1) * g, (m + q) * g):
                    terms.append(
                        ("C", (i1, i2),
                         (i1 - (q - 1) * g, i3 - (q - 1) * g),
                         (i2 - (k - 1) * g, i3 - (k - 1) * g))
                    )
    return terms


def _eval_term(term, ov: PatternCounts) -> int:
    if term[0] == "A":
        _, abc, ab, ac, bc = term
        return cycles6_one_replica(ov.get(abc), ov.get(ab), ov.get(ac), ov.get(bc))
    if term[0] == "B":
        _, abc, ab, ac, far = term
        return cycles6_two_replicas(ov.get(abc), ov.get(ab), ov.get(ac), ov.get(far))
    _, ab, ac, bc = term
    return cycles6_three_replicas(ov.get(ab), ov.get(ac), ov.get(bc))


def kernel_count_span(ov: PatternCounts, k: int) -> int:
    """Closed-form F1[k]: span-k 6-cycles starting in a fixed replica."""
    if k < 1 or k > ov.m + 1:
        raise ValueError(f"span {k} outside [1, {ov.m + 1}]")
    return sum(_eval_term(t, ov) for t in span_terms(ov.gamma, ov.m, k))


def pattern_rows(pattern, gamma: int):
    """Rows of the stacked matrix that a column with this pattern covers."""
    return tuple(sorted(x * gamma + j for j, x in enumerate(pattern)))


def inclusion_exclusion_overlaps(ind: IndependentOverlaps) -> dict:
    """Every valid row set's overlap from the free parameters, by
    inclusion-exclusion.

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
    return table


def loop_cover_matrix(gamma: int, m: int, row_sets) -> np.ndarray:
    """cover_matrix by testing every (row set, pattern) pair."""
    pats = column_patterns(gamma, m)
    out = np.zeros((len(row_sets), len(pats)), dtype=np.int64)
    for si, s in enumerate(row_sets):
        need = {r % gamma: r // gamma for r in s}
        for vi, v in enumerate(pats):
            if all(v[j] == x for j, x in need.items()):
                out[si, vi] = 1
    return out


def kernel_objective(gamma: int, m: int, L: int, batch: np.ndarray) -> np.ndarray:
    """Weighted 6-cycle total for each pattern-count row of the batch, by
    the three kernels compiled over span_terms and vectorized over rows;
    the reference for partition_opt._Evaluator.objective."""
    ind = independent_overlap_sets(gamma, m)
    needed = list(ind)
    seen = set(needed)
    compiled = []
    for k in range(1, min(m + 1, L) + 1):
        weight = L - k + 1
        for term in span_terms(gamma, m, k):
            keys = [tuple(sorted(s)) for s in term[1:]]
            ok = all(
                len({r % gamma for r in s}) == len(s) for s in keys
            )
            if not ok:
                continue  # repeated residue: overlap is identically 0
            for s in keys:
                if s not in seen:
                    seen.add(s)
                    needed.append(s)
            compiled.append((term[0], weight, keys))
    index = {s: i for i, s in enumerate(needed)}
    cover = loop_cover_matrix(gamma, m, needed)
    kinds = {"A": [], "B": [], "C": []}
    for kind, weight, keys in compiled:
        kinds[kind].append([weight] + [index[s] for s in keys])
    terms_a = np.array(kinds["A"], dtype=np.int64).reshape(-1, 5)
    terms_b = np.array(kinds["B"], dtype=np.int64).reshape(-1, 5)
    terms_c = np.array(kinds["C"], dtype=np.int64).reshape(-1, 4)

    t = batch @ cover.T
    out = np.zeros(len(batch), dtype=np.int64)
    if len(terms_a):
        w, abc, ab, ac, bc = terms_a.T
        t123, t12, t13, t23 = t[:, abc], t[:, ab], t[:, ac], t[:, bc]
        val = (
            t123 * np.maximum(t123 - 1, 0) * np.maximum(t23 - 2, 0)
            + t123 * (t13 - t123) * np.maximum(t23 - 1, 0)
            + (t12 - t123) * t123 * np.maximum(t23 - 1, 0)
            + (t12 - t123) * (t13 - t123) * t23
        )
        out += val @ w
    if len(terms_b):
        w, abc, ab, ac, far = terms_b.T
        t123, t12, t13, tf = t[:, abc], t[:, ab], t[:, ac], t[:, far]
        val = t123 * np.maximum(t13 - 1, 0) * tf + (t12 - t123) * t13 * tf
        out += val @ w
    if len(terms_c):
        w, ab, ac, bc = terms_c.T
        out += (t[:, ab] * t[:, ac] * t[:, bc]) @ w
    return out


def dense_candidate_scores(system, f_flat, subset, p, cands=None) -> np.ndarray:
    """Lifted 6-cycle count after each joint power assignment of `subset`;
    the reference for power_opt._EpochScorer.table_scores and dense_scores.

    The (n, len(subset)) candidate rows, all p**len(subset) assignments in
    lexicographic order when cands is None, scored by evaluating every
    touched cycle's signed power sum at every candidate.  A candidate that
    activates a touched 4-cycle scores the current count.
    """
    subset = np.asarray(subset, dtype=np.int64)
    signs6 = np.array([1, -1, 1, -1, 1, -1], dtype=np.int64)
    signs4 = signs6[:4]
    if cands is None:
        cands = np.indices((p,) * len(subset)).reshape(len(subset), -1).T
    f_sc = system.f_sc(f_flat)

    def forms(res, signs):
        touched = np.nonzero(np.isin(res, subset).any(axis=1))[0]
        coef = np.zeros((len(touched), len(subset)), dtype=np.int64)
        for j, c in enumerate(subset):
            coef[:, j] = ((res[touched] == c) * signs).sum(axis=1)
        sums = (f_flat[res[touched]] * signs).sum(axis=1)
        return touched, sums - coef @ f_flat[subset], sums, coef

    touched6, base6, now6, coef6 = forms(system.res6, signs6)
    _, base4, _, coef4 = forms(system.res4, signs4)
    w6 = system.weight6[touched6]
    f_cand = np.full(len(cands), f_sc - int(w6[now6 % p == 0].sum()),
                     dtype=np.int64)
    # about a million (cycle, candidate) sums at a time
    step = max(1, (1 << 20) // max(len(base6), len(base4), 1))
    for lo in range(0, len(cands), step):
        x, out = cands[lo:lo + step].T, f_cand[lo:lo + step]
        out += (w6[:, None] * ((base6[:, None] + coef6 @ x) % p == 0)).sum(axis=0)
        out[((base4[:, None] + coef4 @ x) % p == 0).any(axis=0)] = f_sc
    return f_cand


def replay_run_cpo(spec: SCCodeSpec, config: CpoConfig):
    """power_opt.run_cpo's round loop, every round scored afresh by
    dense_candidate_scores: no epoch pieces and no cache of the subsets an
    epoch has scored.  Returns (powers, f_sc, trace).

    The subset-size schedule, the theta order, the roaming subsets of the
    stale passes and the seeded candidate draws follow run_cpo.  Seeded
    configs only: there is no time budget and no argument check.
    """
    system = CycleSystem(spec)
    p, g, kp = spec.p, spec.gamma, spec.kappa
    f_flat = spec.block.powers.astype(np.int64).ravel()
    rng = np.random.default_rng(config.seed)
    schedule = config.subset_size_schedule
    f_sc = system.f_sc(f_flat)
    trace = []
    stale = level = 0
    while f_sc > config.target_f_sc:
        size = min(schedule[level], g * kp)
        # highest theta first, ties in row-major cell order
        order = np.argsort(-weighted_theta(system, f_flat).ravel(), kind="stable")
        if stale == 0:
            subset = order[:size]
        else:
            pool = order[: min(len(order), max(4 * size, 12))]
            subset = np.sort(rng.choice(pool, size=size, replace=False))
        if config.power_candidates is None and p**size <= config.exhaustive_cap:
            chunks = [np.indices((p,) * size).reshape(size, -1).T]
        else:
            n_sampled = config.power_candidates or config.exhaustive_cap
            chunks = _candidate_chunks(rng, p, size, n_sampled)
        f_best, best, first = f_sc, None, None
        for cands in chunks:
            first = cands[0] if first is None else first
            f_cand = dense_candidate_scores(system, f_flat, subset, p, cands)
            n = int(np.argmin(f_cand))
            if f_cand[n] < f_best:
                f_best, best = int(f_cand[n]), cands[n]
        trace.append(TraceRow(
            len(trace) + 1, tuple((int(c) // kp, int(c) % kp) for c in subset),
            tuple(int(v) for v in (first if best is None else best)),
            f_sc, f_best, best is not None))
        if best is not None:
            f_flat[subset] = best
            f_sc = system.f_sc(f_flat)
            stale = level = 0
            continue
        level = (level + 1) % len(schedule)
        if level == 0:
            stale += 1
            if stale >= config.max_stale_rounds:
                break
    return f_flat.reshape(g, kp), f_sc, trace


def sourced_refine_layout(partition: PartitionMatrix, p: int, L: int):
    """Column arrangement of a partition minimizing the lifted count at AB
    powers; the reference for power_opt.refine_layout.

    Reordering partition columns while keeping AB powers is equivalent to
    keeping the partition and permuting power columns, so candidates are
    scored on one precomputed cycle system.  Small arrangement spaces are
    searched exhaustively in lexicographic order (deterministic tie-break:
    first minimum); larger ones fall back to deterministic pairwise-swap
    descent from the current arrangement.  Returns (partition, count).
    """
    g, kp = partition.gamma, partition.kappa
    system = CycleSystem(SCCodeSpec(ab_code(g, kp, p), partition, L))
    base_pats = [tuple(int(v) for v in partition.assign[:, j]) for j in range(kp)]

    def eval_sources(source: np.ndarray) -> int:
        # base column c draws its AB powers from arranged position source[c]
        f = (np.arange(g)[:, None] * source[None, :]) % p
        return system.f_sc(f.ravel())

    def sources_for(arrangement) -> np.ndarray:
        # stable matching of arranged patterns back to base column indices
        pools = {}
        for c, pat in enumerate(base_pats):
            pools.setdefault(pat, []).append(c)
        iters = {pat: iter(cols) for pat, cols in pools.items()}
        placed = np.zeros(kp, dtype=np.int64)
        for j, pat in enumerate(arrangement):
            placed[next(iters[pat])] = j
        return placed

    # distinct arrangements: the multinomial of the pattern counts
    counts = overlaps_from_partition(partition).counts.tolist()
    arrangements = math.factorial(kp) // math.prod(map(math.factorial, counts))
    if arrangements <= power_opt.LAYOUT_EXHAUSTIVE_CAP:
        best = None
        for arrangement in power_opt._multiset_permutations(base_pats):
            val = eval_sources(sources_for(arrangement))
            if best is None or val < best[0]:
                best = (val, arrangement)
        val, arrangement = best
    else:
        sigma = list(range(kp))  # position j shows base column sigma[j]
        source = np.zeros(kp, dtype=np.int64)
        source[sigma] = np.arange(kp)
        val = eval_sources(source)
        improved = True
        while improved:
            improved = False
            for pos1 in range(kp):
                for pos2 in range(pos1 + 1, kp):
                    b1, b2 = sigma[pos1], sigma[pos2]
                    if base_pats[b1] == base_pats[b2]:
                        continue
                    source[b1], source[b2] = source[b2], source[b1]
                    trial = eval_sources(source)
                    if trial < val:
                        val = trial
                        sigma[pos1], sigma[pos2] = b2, b1
                        improved = True
                    else:
                        source[b1], source[b2] = source[b2], source[b1]
        arrangement = tuple(base_pats[b] for b in sigma)

    assign = np.array(arrangement, dtype=np.int64).T
    return PartitionMatrix(partition.m, assign), int(val)


def direct_overlap(partition: PartitionMatrix, rows) -> int:
    """Columns where every listed row of the stacked components is 1."""
    g, m = partition.gamma, partition.m
    stacked = np.zeros(((m + 1) * g, partition.kappa), dtype=bool)
    for x in range(m + 1):
        stacked[x * g:(x + 1) * g] = partition.component(x)
    mask = np.ones(partition.kappa, dtype=bool)
    for r in rows:
        mask &= stacked[r]
    return int(mask.sum())


def _species_tally(h, species, roots, key) -> dict:
    """Instances of species among the connected column subsets of h whose
    lowest column is one of roots, tallied by key(subset).

    Each connected subset of species.a columns is listed once, from its
    lowest column.  Check degrees and the number of odd checks are Python
    ints updated as a column enters or leaves the subset.
    """
    h = np.asarray(h, dtype=bool)
    rows = [np.flatnonzero(col).tolist() for col in h.T]
    shared = h.T.astype(np.float32) @ h.astype(np.float32)
    np.fill_diagonal(shared, 0.0)
    nbr = [np.flatnonzero(col).tolist() for col in shared]
    deg = [0] * h.shape[0]
    odd = 0
    tally = {}

    def move(c, step):
        nonlocal odd
        for r in rows[c]:
            deg[r] += step
            odd += 1 if deg[r] % 2 else -1

    def matches(sub) -> bool:
        if odd != species.b:
            return False
        if species.kind == "AS":
            for c in sub:
                n_odd = sum(deg[r] % 2 for r in rows[c])
                if len(rows[c]) - n_odd <= n_odd:
                    return False
        return True

    def extend(sub, ext, blocked, root):
        # ext holds unprocessed extension candidates; blocked is the
        # subset plus every neighbor seen so far, which keeps each
        # connected subset from being produced twice
        if len(sub) == species.a:
            if matches(sub):
                k = key(sub)
                tally[k] = tally.get(k, 0) + 1
            return
        ext = list(ext)
        while ext:
            cand = ext.pop()
            grow = [u for u in nbr[cand] if u > root and u not in blocked]
            move(cand, 1)
            extend(sub + [cand], ext + grow, blocked | set(grow), root)
            move(cand, -1)

    for root in roots:
        seeds = [u for u in nbr[root] if u > root]
        move(root, 1)
        extend([root], seeds, {root} | set(seeds), root)
        move(root, -1)
    return tally


def connected_species_count(h: np.ndarray, species) -> int:
    """Species instances anywhere in h, by connected subset search from
    every column; the reference for trapping_sets.enumerate_objects over a
    whole lift."""
    return sum(_species_tally(h, species, range(h.shape[1]),
                              lambda sub: None).values())


def windowed_species_census(spec, species) -> CycleCensus:
    """Per-span species counts by windowed search from every replica-1
    root; the reference for trapping_sets.enumerate_objects.

    Lists the connected variable subsets of size species.a inside the first
    window of (path_vns - 1) * m + 1 replicas whose lowest column falls in
    replica 1, and tags each instance with its exact replica span k.  The
    per-span counts weighted by (L - k + 1) give the full-matrix total.
    """
    chi = min(replica_span(species.path_vns, spec.m), spec.L)
    w = window(spec, 1, chi, lifted=True)
    width = spec.kappa * spec.p
    return CycleCensus(spec.L, _species_tally(
        w, species, range(min(width, w.shape[1])),
        lambda sub: max(sub) // width + 1))


def brute_connected_subsets(h: np.ndarray, roots, a: int) -> list:
    """Every connected a-column subset of h whose lowest column is one of
    roots, as sorted tuples, from all column combinations and a BFS each;
    the reference for trapping_sets._connected_subsets.

    Pruning: a subset's columns lie within a - 1 steps of its lowest
    column, through columns no lower than it.
    """
    h = np.asarray(h, dtype=bool)
    adj = (h.T.astype(np.int64) @ h.astype(np.int64)) > 0
    found = []
    for root in sorted(int(r) for r in roots):
        near, frontier = {root}, {root}
        for _ in range(a - 1):
            frontier = {int(u) for c in frontier
                        for u in np.flatnonzero(adj[c])} - near
            frontier = {u for u in frontier if u > root}
            near |= frontier
        for rest in itertools.combinations(sorted(near - {root}), a - 1):
            sub = (root,) + rest
            seen, todo = {root}, [root]
            while todo:
                c = todo.pop()
                for u in sub:
                    if u not in seen and adj[c, u]:
                        seen.add(u)
                        todo.append(u)
            if len(seen) == a:
                found.append(sub)
    return found


def dense_classify(h: np.ndarray, vn_cols) -> InducedConfig:
    """Classify the subgraph induced by the given columns of h, from the
    dense column slice; the reference for trapping_sets.classify.

    Returns an InducedConfig carrying (a, b), the touched check rows
    with their in-set degrees, and the trapping/absorbing flags.
    """
    cols = tuple(sorted(int(c) for c in vn_cols))
    if not cols:
        raise ValueError("empty variable-node set")
    sub = np.asarray(h, dtype=bool)[:, list(cols)]
    deg = sub.sum(axis=1)
    touched = np.nonzero(deg)[0]
    odd = (deg[touched] % 2).astype(bool)
    b = int(odd.sum())
    # per VN: count even-degree vs odd-degree neighbors among touched checks
    even_rows = touched[~odd]
    n_even = sub[even_rows].sum(axis=0)
    n_odd = sub[touched[odd]].sum(axis=0)
    return InducedConfig(
        vn_set=cols,
        a=len(cols),
        b=b,
        check_rows=tuple(int(r) for r in touched),
        check_degrees=tuple(int(d) for d in deg[touched]),
        is_absorbing_set=bool(np.all(n_even > n_odd)),
    )


def all_subsets_species_count(h: np.ndarray, species) -> int:
    """Species instances by unrestricted subset search (small inputs only);
    the reference for connected_species_count and
    trapping_sets.enumerate_objects on lifts small enough to list every
    subset."""
    h = np.asarray(h, dtype=bool)
    total = 0
    for sub in itertools.combinations(range(h.shape[1]), species.a):
        deg = h[:, list(sub)].sum(axis=1)
        touched = deg > 0
        if int((deg[touched] % 2 == 1).sum()) != species.b:
            continue
        if species.kind == "AS":
            evn = (deg % 2 == 0) & touched
            odd = deg % 2 == 1
            ne = h[evn][:, list(sub)].sum(axis=0)
            no = h[odd][:, list(sub)].sum(axis=0)
            if not np.all(ne > no):
                continue
        total += 1
    return total


def loop_random_balanced(rng, kappa, loads, lo, hi, attempts=2000):
    """_random_balanced with each repair move scored in a Python loop."""
    ncomp, nparts = loads.shape
    for _ in range(attempts):
        cols = rng.integers(0, nparts, size=kappa)
        n = np.bincount(cols, minlength=nparts)
        totals = loads @ n
        for _ in range(4 * kappa):
            over = np.nonzero(totals > hi)[0]
            under = np.nonzero(totals < lo)[0]
            if not len(over) and not len(under):
                return n
            src = np.nonzero(n > 0)[0]
            rng.shuffle(src)
            moved = False
            for vi in src:
                better = None
                for wi in range(nparts):
                    if wi == vi:
                        continue
                    t2 = totals - loads[:, vi] + loads[:, wi]
                    score = np.maximum(t2 - hi, 0).sum() + np.maximum(lo - t2, 0).sum()
                    cur = np.maximum(totals - hi, 0).sum() + np.maximum(lo - totals, 0).sum()
                    if score < cur and (better is None or score < better[0]):
                        better = (score, wi, t2)
                if better is not None:
                    _, wi, t2 = better
                    n[vi] -= 1
                    n[wi] += 1
                    totals = t2
                    moved = True
                    break
            if not moved:
                break
        totals = loads @ n
        if (totals >= lo).all() and (totals <= hi).all():
            return n
    raise RuntimeError("could not sample a balanced start; relax the slack")


def local_search(ev, kappa, loads, lo, hi, config, deadline):
    """Seeded multi-restart steepest descent over single-column moves, one
    restart after another and one move at a time; the reference for
    partition_opt._local_search.

    Each restart draws its start with loop_random_balanced and takes the
    first best of its balance-feasible moves (vi -> wi, vi-major) until
    none improves.  Returns ((value, independent values, counts),
    evaluated rows).
    """
    rng = np.random.default_rng(config.seed)
    nparts = loads.shape[1]
    moves = [(vi, wi) for vi in range(nparts) for wi in range(nparts) if vi != wi]
    cols = loads.T.tolist()  # each pattern's load on every component
    best = None
    evaluated = 0
    for _ in range(config.restarts):
        if deadline is not None and time.monotonic() > deadline:
            break
        n = loop_random_balanced(rng, kappa, loads, lo, hi)
        val = int(ev.objective(n.reshape(1, -1))[0])
        evaluated += 1
        while True:
            counts, totals = n.tolist(), (loads @ n).tolist()
            rows = []
            for vi, wi in moves:
                t2 = [t - a + b for t, a, b in zip(totals, cols[vi], cols[wi])]
                if counts[vi] and lo <= min(t2) and max(t2) <= hi:
                    row = counts.copy()
                    row[vi] -= 1
                    row[wi] += 1
                    rows.append(row)
            if not rows:
                break
            arr = np.array(rows, dtype=np.int64)
            vals = ev.objective(arr)
            evaluated += len(arr)
            i = int(np.argmin(vals))
            if vals[i] >= val:
                break
            val = int(vals[i])
            n = arr[i]
        cand = (val, ev.independent_values(n), n.copy())
        if best is None or cand[:2] < best[:2]:
            best = cand
    return best, evaluated


def filtered_balanced_blocks(kappa: int, loads: np.ndarray, lo: int, hi: int,
                             block: int, prune=None):
    """Pattern-count vectors summing to kappa with per-component totals in
    [lo, hi], every child built and then balance-filtered; the reference
    for partition_opt._balanced_blocks.

    Yields arrays of rows in lexicographic order.  A frontier of partial
    count vectors is expanded one pattern at a time, every count 0..remaining
    at once (the last pattern takes exactly the remainder), and children are
    dropped when a component total exceeds hi or can no longer reach lo.
    Frontiers are handled depth-first off a stack, and parents are split by
    their cumulative child count so one step builds about `block` rows.
    `prune(rows)`, if given, returns a keep mask for each new frontier of
    partial rows (patterns from the next one on still zero).
    """
    ncomp, nparts = loads.shape
    suffix_max = np.zeros((nparts + 1, ncomp), dtype=np.int64)
    for vi in range(nparts - 1, -1, -1):
        suffix_max[vi] = np.maximum(suffix_max[vi + 1], loads[:, vi])
    # entries (next pattern, partial count rows, their component totals)
    stack = [(0, np.zeros((1, nparts), dtype=np.int64),
              np.zeros((1, ncomp), dtype=np.int64))]
    while stack:
        vi, rows, totals = stack.pop()
        remaining = kappa - rows.sum(axis=1)
        first = remaining if vi == nparts - 1 else np.zeros_like(remaining)
        width = remaining - first + 1
        ends = np.cumsum(width)
        take = max(int(np.searchsorted(ends, block, side="right")), 1)
        if take < len(rows):
            stack.append((vi, rows[take:], totals[take:]))
        width, ends = width[:take], ends[:take]
        parent = np.repeat(np.arange(take), width)
        c = first[parent] + np.arange(len(parent)) - np.repeat(ends - width, width)
        totals = totals[parent] + c[:, None] * loads[:, vi]
        left = (remaining[parent] - c)[:, None] * suffix_max[vi + 1]
        ok = ~((totals > hi).any(axis=1) | (totals + left < lo).any(axis=1))
        # only the children that pass gather their parent's row
        parent, totals = parent[ok], totals[ok]
        rows = rows[parent]
        rows[:, vi] = c[ok]
        if vi < nparts - 1 and prune is not None and len(rows):
            keep = prune(rows)
            rows, totals = rows[keep], totals[keep]
        if not len(rows):
            continue
        if vi == nparts - 1:
            yield rows
        else:
            stack.append((vi + 1, rows, totals))


def scan_alist_string(matrix: np.ndarray) -> str:
    """Standard alist text for a binary matrix, one nonzero scan per line;
    the reference for io_formats.alist_string.

    Line 1 is "N M" (columns rows), line 2 the maximum column and row
    degrees, then per-column degrees, per-row degrees, per-column
    1-based row indices padded with zeros to the maximum degree, and
    per-row column indices padded likewise.
    """
    h = np.asarray(matrix)
    if h.ndim != 2 or h.size == 0:
        raise ValueError("need a nonempty 2-d matrix")
    h = h.astype(bool)
    nrows, ncols = h.shape
    col_deg = h.sum(axis=0)
    row_deg = h.sum(axis=1)
    dc, dr = int(col_deg.max()), int(row_deg.max())
    out = [f"{ncols} {nrows}", f"{dc} {dr}"]
    out.append(" ".join(str(int(d)) for d in col_deg))
    out.append(" ".join(str(int(d)) for d in row_deg))
    for c in range(ncols):
        idx = (np.nonzero(h[:, c])[0] + 1).tolist()
        idx += [0] * (dc - len(idx))
        out.append(" ".join(str(i) for i in idx))
    for r in range(nrows):
        idx = (np.nonzero(h[r])[0] + 1).tolist()
        idx += [0] * (dr - len(idx))
        out.append(" ".join(str(i) for i in idx))
    return "\n".join(out) + "\n"


def split_alist_tokens(text: str) -> np.ndarray:
    """Tokens of an alist text: str.split, then one int64 per string.

    A token that is not an integer, or one outside int64, raises
    ValueError.  Unlike the reader's one-call tokenizer, this also takes
    digit-group underscores ("1_000"), non-ASCII digits and non-ASCII
    whitespace.
    """
    try:
        return np.array(text.split(), dtype=np.int64)
    except OverflowError as exc:
        raise ValueError("token outside int64") from exc


def cycle_template(a: int, gamma: int = 3) -> np.ndarray:
    """Incidence of a single length-2a cycle through a variables, padded
    with gamma - 2 private degree-1 checks per variable."""
    if a < 2 or gamma < 2:
        raise ValueError("need a >= 2 and gamma >= 2")
    rows = a + a * (gamma - 2)
    t = np.zeros((rows, a), dtype=bool)
    for i in range(a):
        t[i, i] = True
        t[i, (i + 1) % a] = True
    r = a
    for j in range(a):
        for _ in range(gamma - 2):
            t[r, j] = True
            r += 1
    return t


def six_four_template() -> np.ndarray:
    """One (6, 4) absorbing set configuration for column weight 4.

    Two hub variables each share a check with all four spoke variables;
    the spokes pair up through two more checks and carry one unshared
    check each.
    """
    t = np.zeros((14, 6), dtype=bool)
    r = 0
    for hub in (0, 1):
        for spoke in (2, 3, 4, 5):
            t[r, hub] = True
            t[r, spoke] = True
            r += 1
    for x, y in ((2, 3), (4, 5)):
        t[r, x] = True
        t[r, y] = True
        r += 1
    for spoke in (2, 3, 4, 5):
        t[r, spoke] = True
        r += 1
    return t


def enumerate_feasible(gamma: int, kappa: int, m: int,
                       config: OptimizerConfig = OptimizerConfig()):
    """Yield every balance-feasible overlap vector, duplicate-free.

    Iterates pattern-count space, where distinct vectors give distinct
    overlap vectors, in lexicographic order.
    """
    loads = _component_loads(gamma, m)
    lo, hi = balance_bounds(gamma, kappa, m, config.balance_slack)
    cover = cover_matrix(gamma, m, independent_overlap_sets(gamma, m))
    for rows in _balanced_blocks(kappa, loads, lo, hi, BATCH):
        for values in (rows @ cover.T).tolist():
            yield IndependentOverlaps(gamma, m, kappa, tuple(values))
