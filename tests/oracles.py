"""Brute-force reference implementations used to validate the closed forms.

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
from scldpc.cycle_census import (CycleCensus, _row_pair_overlaps,
                                 alternating_sum)
from scldpc.overlaps import (IndependentOverlaps, PatternCounts,
                             column_patterns, cover_matrix,
                             independent_overlap_sets,
                             overlaps_from_partition, valid_overlap_sets)
from scldpc.partition_opt import (BATCH, OptimizerConfig, _balanced_blocks,
                                  _component_loads, _random_balanced,
                                  balance_bounds)
from scldpc.power_opt import (CpoConfig, CpoState, CycleSystem, TraceRow,
                              _candidate_chunks, weighted_theta)
from scldpc.trapping_sets import (MAX_SUBSET_SIZE, MAX_WINDOW_COLUMNS,
                                  InducedConfig, _fold_orbit_tallies,
                                  replica_span)


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
    """6-cycles of a 0/1 matrix, by listing every one."""
    return len(find_cycles6(h))


def brute_cycles4(h) -> int:
    """4-cycles of a 0/1 matrix, by listing every one."""
    return len(find_cycles4(h))


def sorted_key_cycles6(h, chunk: int = 1 << 15) -> int:
    """6-cycles of a 0/1 matrix from its row-pair overlaps, each triangle
    i < j < k of the overlap graph found at i and closed by a searchsorted
    lookup of (j, k) in the sorted pair keys, chunk wedges at a time."""
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
    """Lifted coupled matrix, by OR-ing every replica's lifted components in."""
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
    the three kernels compiled over span_terms and vectorized over rows."""
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


def dense_candidate_scores(system, f_flat, subset, p) -> np.ndarray:
    """Lifted 6-cycle count after each joint power assignment of `subset`.

    All p**len(subset) assignments in lexicographic order, scored by
    evaluating every touched cycle's signed power sum at every candidate.
    A candidate that activates a touched 4-cycle scores the current count.
    """
    subset = np.asarray(subset, dtype=np.int64)
    signs6 = np.array([1, -1, 1, -1, 1, -1], dtype=np.int64)
    signs4 = signs6[:4]
    cands = np.array(list(itertools.product(range(p), repeat=len(subset))),
                     dtype=np.int64)
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
    f_cand += (w6[:, None] * ((base6[:, None] + coef6 @ cands.T) % p == 0)).sum(axis=0)
    f_cand[((base4[:, None] + coef4 @ cands.T) % p == 0).any(axis=0)] = f_sc
    return f_cand


def _active_table(p: int, base, coef, weight=None) -> np.ndarray:
    """Weight (count when weight is None) of the cycles active at every joint
    power assignment x of a subset, as a (p**(s-1), p) table: one row per
    prefix x[:-1] in lexicographic order, one column per last power.

    A cycle's sum is base + coef @ x.  Its residue r over the prefix is
    built up one power at a time; with the prefix fixed the cycle is active
    exactly where r + v*x[-1] = 0 mod p for its last coefficient v, so each
    last power needs the one residue (-v*x[-1]) % p.  Cycles are counted
    per (class, prefix, r), a class being a (v, weight) pair, and every
    column reads its residue from each class.  This covers v = 0 (the whole
    row) and v sharing a factor with a composite p alike.
    """
    n, x = len(base), np.arange(p)
    r = base[:, None] % p
    for j in range(coef.shape[1] - 1):
        r = (r[:, :, None] + coef[:, j, None, None] * x) % p
        r = r.reshape(n, r.shape[1] * p)
    n_pre = r.shape[1]
    w = np.ones(n, dtype=np.int64) if weight is None else weight
    classes, cls = np.unique(np.stack([coef[:, -1] % p, w], axis=1), axis=0,
                             return_inverse=True)
    r += np.arange(n_pre) * p
    r += (cls * (n_pre * p))[:, None]
    cube = np.bincount(r.ravel(), minlength=len(classes) * n_pre * p)
    cube = cube.reshape(len(classes), n_pre, p)
    need = (-classes[:, :1] * x) % p
    active = np.take_along_axis(cube, need[:, None, :], axis=2)
    return np.tensordot(classes[:, 1], active, axes=1)


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


def subset_scorer_run_cpo(spec: SCCodeSpec, config: CpoConfig) -> CpoState:
    """power_opt.run_cpo as it was with one _SubsetScorer per round: every
    round rebuilds its touched cycles' pooled linear forms.

    Minimize the lifted 6-cycle count by local power changes.

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
        scored=rounds,
        reused=0,
        pieces=0,
        cut_short=False,
    )


def _scorer_forms(system, f_flat, subset):
    """Linear forms of the touched 6- and 4-cycles, as the library builds
    them: (base6, coef6, w6, base4, coef4, f_rest)."""
    touched6, base6, coef6 = _linear_forms(system.res6, system.visits6,
                                           subset, f_flat)
    _, base4, coef4 = _linear_forms(system.res4, system.visits4, subset, f_flat)
    w6 = system.weight6[touched6]
    now = (base6 + coef6 @ f_flat[subset]) % system.p == 0
    return base6, coef6, w6, base4, coef4, system.f_sc(f_flat) - int(w6[now].sum())


def _lead_heads(p: int, size: int, chunk: int):
    """Leading powers to loop over so no table has more than `chunk`
    prefix rows, as (lead, heads)."""
    lead = 0
    while p ** (size - 1 - lead) > chunk:
        lead += 1
    return lead, [np.array(h, dtype=np.int64)
                  for h in itertools.product(range(p), repeat=lead)]


def prefix_table_scores(system, f_flat, subset, chunk: int = 32768) -> np.ndarray:
    """Scores of all p**len(subset) candidates, in lexicographic order, by
    tabulating every touched cycle over all p**(size-1) power prefixes."""
    p, f_sc = system.p, system.f_sc(f_flat)
    base6, coef6, w6, base4, coef4, f_rest = _scorer_forms(system, f_flat, subset)
    lead, heads = _lead_heads(p, len(subset), chunk)
    out = []
    for head in heads:
        f_cand = f_rest + _active_table(
            p, base6 + coef6[:, :lead] @ head, coef6[:, lead:], w6)
        kills = _active_table(p, base4 + coef4[:, :lead] @ head, coef4[:, lead:])
        f_cand[kills > 0] = f_sc
        out.append(f_cand.ravel())
    return np.concatenate(out)


def _support_table(p: int, base, coef, weight) -> np.ndarray:
    """Weight of the cycles active at every joint power assignment x of a
    subset, as an array of shape (p,) * s indexed by x.

    A cycle's sum is base + coef @ x and depends only on its support, the
    columns j with coef[:, j] % p != 0, so a cycle with support S is
    tabulated over the p**|S| assignments of S alone and broadcast along
    the other axes; a cycle with an empty support is a constant.  Within a
    support the residue r over the prefix x[S[:-1]] is built up one power
    at a time; with the prefix fixed the cycle is active exactly where
    r + v*x[S[-1]] = 0 mod p for its last coefficient v, so each last power
    needs the one residue (-v*x[S[-1]]) % p.  All supports of one size
    share one bincount over (support, v, weight) classes, prefixes and
    residues, and every last power reads its residue from each class.
    This covers v sharing a factor with a composite p.
    """
    n, s = coef.shape
    x = np.arange(p)
    live = coef % p != 0
    size = live.sum(axis=1)
    order = np.argsort(size, kind="stable")
    base, coef, live = base[order] % p, coef[order], live[order]
    weight = weight[order]
    wvals, wcls = np.unique(weight, return_inverse=True)
    nw = len(wvals)
    sup = live @ (1 << np.arange(s))
    flat = coef[live] % p  # each cycle's support coefficients, in order
    ends = np.cumsum(np.bincount(size, minlength=s + 1)).tolist()
    const = weight[:ends[0]][base[:ends[0]] == 0].sum()
    table = np.full((p,) * s, const, dtype=np.int64)
    at = 0  # start of this size's coefficients in flat
    for k in range(1, s + 1):
        a, b = ends[k - 1], ends[k]
        if a == b:
            continue
        c = flat[at:at + (b - a) * k].reshape(b - a, k)
        at += (b - a) * k
        r = base[a:b, None]
        for j in range(k - 1):
            r = (r[:, :, None] + c[:, j, None, None] * x) % p
            r = r.reshape(b - a, r.shape[1] * p)
        n_pre = r.shape[1]
        # classes present among this size's (support, v, weight) keys
        key = (sup[a:b] * p + c[:, -1]) * nw + wcls[a:b]
        hit = np.bincount(key, minlength=(2 ** s) * p * nw) > 0
        classes = np.flatnonzero(hit)
        cls = (np.cumsum(hit) - 1)[key]
        r += ((cls * n_pre)[:, None] + np.arange(n_pre)) * p
        cube = np.bincount(r.ravel(), minlength=len(classes) * n_pre * p)
        cls_sup, v = np.divmod(classes // nw, p)
        rows = (np.arange(len(classes) * n_pre) * p).reshape(-1, n_pre, 1)
        need = (-v[:, None] * x) % p
        active = cube[rows + need[:, None, :]].reshape(len(classes), n_pre * p)
        active *= wvals[classes % nw, None]
        # classes are sorted by support: sum each support's run of them
        masks = np.flatnonzero(hit.reshape(2 ** s, p * nw).any(axis=1))
        sums = np.add.reduceat(active, np.searchsorted(cls_sup, masks))
        for mask, t in zip(masks.tolist(), sums):
            table += t.reshape([p if mask >> j & 1 else 1 for j in range(s)])
    return table


def support_table_scores(system, f_flat, subset, chunk: int = 32768) -> np.ndarray:
    """Scores of all p**len(subset) candidates, in lexicographic order, from
    one _support_table per run of leading powers: each touched cycle is
    tabulated over its support's prefix residues, and a touched 4-cycle
    weighs more than all touched 6-cycles together."""
    p, f_sc = system.p, system.f_sc(f_flat)
    base6, coef6, w6, base4, coef4, f_rest = _scorer_forms(system, f_flat, subset)
    kill = int(w6.sum()) + 1
    base = np.concatenate([base6, base4])
    coef = np.concatenate([coef6, coef4])
    weight = np.concatenate([w6, np.full(len(base4), kill)])
    lead, heads = _lead_heads(p, len(subset), chunk)
    out = []
    for head in heads:
        table = _support_table(p, base + coef[:, :lead] @ head, coef[:, lead:],
                               weight)
        f_cand = f_rest + table
        f_cand[table >= kill] = f_sc
        out.append(f_cand.ravel())
    return np.concatenate(out)


def sourced_refine_layout(partition: PartitionMatrix, p: int, L: int):
    """Column arrangement of a partition minimizing the lifted count at AB powers.

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


def _column_rows(w: np.ndarray):
    return [np.nonzero(w[:, c])[0] for c in range(w.shape[1])]


def _adjacency_lists(w: np.ndarray):
    dense = w.astype(np.float32)
    shared = dense.T @ dense
    np.fill_diagonal(shared, 0.0)
    return [np.nonzero(shared[c] > 0)[0].tolist() for c in range(w.shape[1])]


def connected_species_count(h: np.ndarray, species) -> int:
    """Species instances anywhere in h, by connected subset search.

    Every column is a search root.  Check degrees and the number of odd
    checks are Python ints updated as a column enters or leaves the subset.
    """
    h = np.asarray(h, dtype=bool)
    rows = [r.tolist() for r in _column_rows(h)]
    nbr = _adjacency_lists(h)
    deg = [0] * h.shape[0]
    odd = 0
    a = species.a
    total = 0

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
        nonlocal total
        if len(sub) == a:
            total += matches(sub)
            return
        ext = list(ext)
        while ext:
            cand = ext.pop()
            grow = [u for u in nbr[cand] if u > root and u not in blocked]
            move(cand, 1)
            extend(sub + [cand], ext + grow, blocked | set(grow), root)
            move(cand, -1)

    for root in range(h.shape[1]):
        seeds = [u for u in nbr[root] if u > root]
        move(root, 1)
        extend([root], seeds, {root} | set(seeds), root)
        move(root, -1)
    return total


def unique_species_count(h: np.ndarray, species) -> int:
    """Species instances anywhere in h, by connected subset search that
    recounts each subset's odd checks with np.unique; the reference for
    connected_species_count."""
    h = np.asarray(h, dtype=bool)
    rows = _column_rows(h)
    nbr = _adjacency_lists(h)
    counts = np.zeros(h.shape[0], dtype=np.int64)
    a = species.a
    total = 0

    def matches(sub) -> bool:
        for c in sub:
            counts[rows[c]] += 1
        touched = np.unique(np.concatenate([rows[c] for c in sub]))
        deg = counts[touched]
        ok = int((deg % 2 == 1).sum()) == species.b
        if ok and species.kind == "AS":
            for c in sub:
                d = counts[rows[c]]
                n_odd = int((d % 2 == 1).sum())
                if len(rows[c]) - n_odd <= n_odd:
                    ok = False
                    break
        for c in sub:
            counts[rows[c]] -= 1
        return ok

    def extend(sub, ext, blocked, root):
        nonlocal total
        if len(sub) == a:
            if matches(sub):
                total += 1
            return
        ext = list(ext)
        while ext:
            cand = ext.pop()
            grow = [u for u in nbr[cand] if u > root and u not in blocked]
            extend(sub + [cand], ext + grow, blocked | set(grow), root)

    for root in range(h.shape[1]):
        if a == 1:
            if matches([root]):
                total += 1
            continue
        seeds = [u for u in nbr[root] if u > root]
        extend([root], seeds, {root} | set(seeds), root)
    return total


def windowed_species_census(spec, species) -> CycleCensus:
    """Per-span species counts by windowed search from every replica-1 root.

    Enumerates connected variable subsets of size species.a inside the
    first window of (path_vns - 1) * m + 1 replicas whose lowest column
    falls in replica 1, classifies each, and tags it with its exact
    replica span k.  The per-span counts weighted by (L - k + 1) give
    the full-matrix total.
    """
    if species.a > MAX_SUBSET_SIZE:
        raise ValueError(
            "subset search capped at a <= %d; use the closed-form cycle "
            "census for protograph-scale audits" % MAX_SUBSET_SIZE)
    chi = min(replica_span(species.path_vns, spec.m), spec.L)
    w = window(spec, 1, chi, lifted=True)
    ncols = w.shape[1]
    if ncols > MAX_WINDOW_COLUMNS:
        raise ValueError(
            "window has %d columns (cap %d); use the closed-form cycle "
            "census for protograph-scale audits" % (ncols, MAX_WINDOW_COLUMNS))
    cols_per_replica = spec.kappa * spec.p
    rows = _column_rows(w)
    nbr = _adjacency_lists(w)
    nrows = w.shape[0]
    a = species.a
    want_as = species.kind == "AS"
    per_span: dict = {}
    counts = np.zeros(nrows, dtype=np.int64)

    def matches(sub) -> bool:
        for c in sub:
            counts[rows[c]] += 1
        touched = np.concatenate([rows[c] for c in sub])
        uniq = np.unique(touched)
        deg = counts[uniq]
        odd = deg % 2 == 1
        ok = int(odd.sum()) == species.b
        if ok and want_as:
            for c in sub:
                d = counts[rows[c]]
                n_odd = int((d % 2 == 1).sum())
                if len(rows[c]) - n_odd <= n_odd:
                    ok = False
                    break
        for c in sub:
            counts[rows[c]] -= 1
        return ok

    def record(sub):
        if not matches(sub):
            return
        k = max(c // cols_per_replica for c in sub) + 1
        per_span[k] = per_span.get(k, 0) + 1

    def extend(sub, ext, blocked, root):
        # ext holds unprocessed extension candidates; blocked is the
        # subset plus every neighbor seen so far, which keeps each
        # connected subset from being produced twice.
        if len(sub) == a:
            record(sub)
            return
        ext = list(ext)
        while ext:
            cand = ext.pop()
            grow = [u for u in nbr[cand] if u > root and u not in blocked]
            extend(sub + [cand], ext + grow, blocked | set(grow), root)

    for root in range(min(cols_per_replica, ncols)):
        if a == 1:
            record([root])
            continue
        seeds = [u for u in nbr[root] if u > root]
        extend([root], seeds, {root} | set(seeds), root)
    return CycleCensus(spec.L, per_span)


def incremental_orbit_census(spec, species) -> CycleCensus:
    """Per-span species counts by orbit-reduced windowed search whose check
    degrees and odd-check count are Python ints updated as a column enters
    or leaves the subset; the reference for trapping_sets.enumerate_objects.

    Enumerates connected variable subsets of size species.a inside the
    first window of (path_vns - 1) * m + 1 replicas whose lowest column
    is one of the kappa offset-0 columns of replica 1, classifies each,
    and tags it with its exact replica span k and the number c of its
    columns in its lowest column block.  Weighting each find by p / c
    (see the module docstring) and each span by (L - k + 1) gives the
    full-matrix total.
    """
    if species.a > MAX_SUBSET_SIZE:
        raise ValueError(
            "subset search capped at a <= %d; use the closed-form cycle "
            "census for protograph-scale audits" % MAX_SUBSET_SIZE)
    chi = min(replica_span(species.path_vns, spec.m), spec.L)
    w = window(spec, 1, chi, lifted=True)
    ncols = w.shape[1]
    if ncols > MAX_WINDOW_COLUMNS:
        raise ValueError(
            "window has %d columns (cap %d); use the closed-form cycle "
            "census for protograph-scale audits" % (ncols, MAX_WINDOW_COLUMNS))
    p = spec.p
    cols_per_replica = spec.kappa * p
    rows = [np.nonzero(col)[0].tolist() for col in w.T]
    shared = w.T.astype(np.float32) @ w.astype(np.float32)
    np.fill_diagonal(shared, 0.0)
    nbr = [np.nonzero(col)[0].tolist() for col in shared]
    a = species.a
    want_as = species.kind == "AS"
    counts = [0] * w.shape[0]
    odd = 0
    tally: dict = {}

    def add(c, step):
        # in-set degree of each check of c; odd tracks how many are odd
        nonlocal odd
        for r in rows[c]:
            counts[r] += step
            odd += 1 if counts[r] & 1 else -1

    def absorbing(sub) -> bool:
        return all(2 * sum(counts[r] & 1 for r in rows[c]) < len(rows[c])
                   for c in sub)

    def extend(sub, ext, blocked, root):
        # ext holds unprocessed extension candidates; blocked is the
        # subset plus every neighbor seen so far, which keeps each
        # connected subset from being produced twice.
        if len(sub) == a:
            if odd == species.b and (not want_as or absorbing(sub)):
                key = (max(sub) // cols_per_replica + 1,
                       sum(c < root + p for c in sub))
                tally[key] = tally.get(key, 0) + 1
            return
        ext = list(ext)
        while ext:
            cand = ext.pop()
            grow = [u for u in nbr[cand] if u > root and u not in blocked]
            add(cand, 1)
            extend(sub + [cand], ext + grow, blocked | set(grow), root)
            add(cand, -1)

    for root in range(0, cols_per_replica, p):
        seeds = [u for u in nbr[root] if u > root]
        add(root, 1)
        extend([root], seeds, {root} | set(seeds), root)
        add(root, -1)
    return CycleCensus(spec.L, _fold_orbit_tallies(tally, p))


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
    """Species instances by unrestricted subset search (small inputs only)."""
    import itertools

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


def balanced_compositions(kappa: int, loads: np.ndarray, lo: int, hi: int):
    """Pattern-count vectors summing to kappa with per-component totals in [lo, hi].

    Lexicographic order; pruned on partial totals.
    """
    ncomp, nparts = loads.shape
    suffix_max = np.zeros((nparts + 1, ncomp), dtype=np.int64)
    for vi in range(nparts - 1, -1, -1):
        suffix_max[vi] = np.maximum(suffix_max[vi + 1], loads[:, vi])
    counts = np.zeros(nparts, dtype=np.int64)
    totals = np.zeros(ncomp, dtype=np.int64)

    def rec(vi, remaining):
        nonlocal totals
        if vi == nparts - 1:
            counts[vi] = remaining
            totals += remaining * loads[:, vi]
            if (totals >= lo).all() and (totals <= hi).all():
                yield counts.copy()
            totals -= remaining * loads[:, vi]
            counts[vi] = 0
            return
        if (totals + remaining * suffix_max[vi] < lo).any():
            return
        for c in range(remaining + 1):
            counts[vi] = c
            totals += c * loads[:, vi]
            if (totals > hi).any():
                totals -= c * loads[:, vi]
                counts[vi] = 0
                break
            yield from rec(vi + 1, remaining - c)
            totals -= c * loads[:, vi]
        else:
            counts[vi] = 0

    yield from rec(0, kappa)


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
    rng = np.random.default_rng(config.seed)
    nparts = loads.shape[1]
    moves = [(vi, wi) for vi in range(nparts) for wi in range(nparts) if vi != wi]
    best = None
    evaluated = 0
    for _ in range(config.restarts):
        if deadline is not None and time.monotonic() > deadline:
            break
        n = loop_random_balanced(rng, kappa, loads, lo, hi)
        val = int(ev.objective(n.reshape(1, -1))[0])
        evaluated += 1
        while True:
            cand_rows = []
            cand_moves = []
            for vi, wi in moves:
                if n[vi] == 0:
                    continue
                t2 = loads @ n - loads[:, vi] + loads[:, wi]
                if (t2 < lo).any() or (t2 > hi).any():
                    continue
                row = n.copy()
                row[vi] -= 1
                row[wi] += 1
                cand_rows.append(row)
                cand_moves.append((vi, wi))
            if not cand_rows:
                break
            arr = np.array(cand_rows, dtype=np.int64)
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


# partition_opt's block expander before its children became one count
# interval per parent: every child is built, then balance-filtered
def filtered_balanced_blocks(kappa: int, loads: np.ndarray, lo: int, hi: int,
                             block: int, prune=None):
    """Pattern-count vectors summing to kappa with per-component totals in [lo, hi].

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



# partition_opt's local search before its restarts descended in lockstep:
# each restart is drawn and descends to its minimum before the next
def sequential_local_search(ev, kappa, loads, lo, hi, config, deadline):
    """Seeded multi-restart steepest descent over single-column moves.

    Every move (vi -> wi, vi != wi, vi-major) is a fixed step row, so one
    descent step scores all balance-feasible moves at once.  The first
    restart always runs to its local minimum; later ones stop at the
    deadline.
    """
    rng = np.random.default_rng(config.seed)
    nparts = loads.shape[1]
    eye = np.eye(nparts, dtype=np.int64)
    vi, wi = np.nonzero(1 - eye)
    step = eye[wi] - eye[vi]
    shift = step @ loads.T
    best = None
    evaluated = 0
    for restart in range(config.restarts):
        if restart and deadline is not None and time.monotonic() > deadline:
            break
        n = _random_balanced(rng, kappa, loads, lo, hi)
        val = int(ev.objective(n.reshape(1, -1))[0])
        evaluated += 1
        while True:
            t2 = loads @ n + shift
            ok = (n[vi] > 0) & ((t2 >= lo) & (t2 <= hi)).all(axis=1)
            if not ok.any():
                break
            arr = n + step[ok]
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



def scan_alist_string(matrix: np.ndarray) -> str:
    """Standard alist text for a binary matrix.

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


def line_alist_string(matrix) -> str:
    """alist_string of a dense matrix or its ColumnLists, joined line by line.

    The same padded index tables as the fast writer, but each line is
    one " ".join of the line's Python ints.
    """
    ones = as_column_lists(matrix)
    nrows, ncols = ones.shape
    if nrows == 0 or ncols == 0:
        raise ValueError("need a nonempty 2-d matrix")
    rows, cols = ones.rows, ones.cols
    by_row = np.argsort(rows, kind="stable")  # columns stay ascending in a row
    col_deg = np.bincount(cols, minlength=ncols)
    row_deg = np.bincount(rows, minlength=nrows)
    dc, dr = int(col_deg.max()), int(row_deg.max())

    def padded(owner, index, degree, width):
        # 1-based indices in the owner's slot, zeros past its degree
        table = np.zeros((len(degree), width), dtype=np.int64)
        slot = np.arange(len(owner)) - np.repeat(np.cumsum(degree) - degree, degree)
        table[owner, slot] = index + 1
        return [" ".join(map(str, line)) for line in table.tolist()]

    out = [f"{ncols} {nrows}", f"{dc} {dr}",
           " ".join(map(str, col_deg.tolist())),
           " ".join(map(str, row_deg.tolist()))]
    out += padded(cols, rows, col_deg, dc)
    out += padded(rows[by_row], cols[by_row], row_deg, dr)
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


def component_protograph(partition: PartitionMatrix) -> np.ndarray:
    """Vertical stack [H_0; ...; H_m] of the component masks, ((m+1)*gamma, kappa)."""
    return np.vstack([partition.component(x) for x in range(partition.m + 1)])


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
