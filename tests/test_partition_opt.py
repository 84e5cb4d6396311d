from __future__ import annotations

import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from scldpc import partition_opt
from scldpc.code_model import PartitionMatrix
from scldpc.cycle_census import census_from_partition
from scldpc.overlaps import (column_patterns, partition_from_overlaps,
                             pattern_counts, restrict_to_independent,
                             overlaps_from_partition)
from scldpc.partition_opt import (OptimizerConfig, _balanced_blocks,
                                  _component_loads, _Evaluator, balance_bounds,
                                  composition_space, optimize)
from oracles import (enumerate_feasible, filtered_balanced_blocks, local_search,
                     loop_random_balanced)


def brute_force_optimum(gamma, kappa, m, L, slack=0):
    """Scan every partition matrix and keep the census minimum over the
    balanced ones; infeasibly slow beyond toy sizes, which is the point."""
    lo, hi = balance_bounds(gamma, kappa, m, slack)
    best = None
    for flat in itertools.product(range(m + 1), repeat=gamma * kappa):
        assign = np.array(flat, dtype=np.int64).reshape(gamma, kappa)
        part = PartitionMatrix(m, assign)
        loads = [int(part.component(x).sum()) for x in range(m + 1)]
        if min(loads) < lo or max(loads) > hi:
            continue
        val = census_from_partition(part, L).total
        ind = restrict_to_independent(overlaps_from_partition(part)).values
        key = (val, ind)
        if best is None or key < best:
            best = key
    return best


def test_matches_full_bruteforce_tiny():
    g, k, m, L = 2, 3, 1, 4
    val, ind = brute_force_optimum(g, k, m, L)
    opt = optimize(g, k, m, L, OptimizerConfig(strategy="exhaustive"))
    assert opt.f_star == val
    assert opt.certified
    assert opt.overlaps.values == ind


def test_matches_full_bruteforce_tiny_m2():
    g, k, m, L = 2, 2, 2, 5
    val, ind = brute_force_optimum(g, k, m, L)
    opt = optimize(g, k, m, L, OptimizerConfig(strategy="exhaustive"))
    assert (opt.f_star, opt.overlaps.values) == (val, ind)


def test_branch_and_bound_agrees_with_exhaustive():
    for g, k, m, L in ((3, 5, 1, 6), (3, 6, 1, 8), (2, 5, 2, 6)):
        ex = optimize(g, k, m, L, OptimizerConfig(strategy="exhaustive"))
        bb = optimize(g, k, m, L, OptimizerConfig(strategy="branch-and-bound"))
        assert bb.f_star == ex.f_star
        assert bb.overlaps.values == ex.overlaps.values
        assert bb.certified


def test_local_search_reaches_exhaustive_on_small():
    ex = optimize(3, 6, 1, 6, OptimizerConfig(strategy="exhaustive"))
    ls = optimize(3, 6, 1, 6,
                  OptimizerConfig(strategy="local-search", seed=0, restarts=30))
    assert not ls.certified
    assert ls.f_star == ex.f_star


def test_local_search_requires_seed():
    with pytest.raises(ValueError):
        optimize(3, 6, 1, 6, OptimizerConfig(strategy="local-search"))


def test_determinism_same_seed_same_result():
    a = optimize(3, 8, 1, 10,
                 OptimizerConfig(strategy="local-search", seed=11, restarts=10))
    b = optimize(3, 8, 1, 10,
                 OptimizerConfig(strategy="local-search", seed=11, restarts=10))
    assert a.overlaps.values == b.overlaps.values
    assert a.f_star == b.f_star


def test_result_is_realizable_partition():
    opt = optimize(3, 7, 1, 8, OptimizerConfig(strategy="exhaustive"))
    part = partition_from_overlaps(opt.overlaps)
    assert census_from_partition(part, 8).total == opt.f_star


def test_enumerate_feasible_matches_direct_region():
    # every balanced pattern composition appears exactly once
    g, k, m = 3, 5, 1
    emitted = [tuple(pattern_counts(ov).counts) for ov in
               enumerate_feasible(g, k, m, OptimizerConfig())]
    seen = set(emitted)
    assert len(seen) == len(emitted)
    lo, hi = balance_bounds(g, k, m, 0)
    pats = column_patterns(g, m)
    direct = set()
    for combo in itertools.combinations_with_replacement(range(len(pats)), k):
        counts = [0] * len(pats)
        for c in combo:
            counts[c] += 1
        tot = [0] * (m + 1)
        for v, n in zip(pats, counts):
            for x in v:
                tot[x] += n
        if lo <= min(tot) and max(tot) <= hi:
            direct.add(tuple(counts))
    assert seen == direct


def test_balance_bounds_formula():
    assert balance_bounds(3, 17, 1, 0) == (25, 26)
    assert balance_bounds(3, 17, 2, 0) == (17, 17)
    assert balance_bounds(4, 7, 1, 1) == (13, 15)


def test_composition_space_size():
    npat = 2 ** 3
    assert composition_space(7, 3, 1) == math.comb(7 + npat - 1, npat - 1)
    assert composition_space(5, 2, 2) == math.comb(5 + 8, 8)


def test_auto_uses_exhaustive_for_small_spaces():
    opt = optimize(3, 7, 1, 8, OptimizerConfig())
    assert opt.strategy == "exhaustive"
    assert opt.certified


def test_tie_break_is_lexicographic():
    # collect all balanced optima by direct scan, compare with returned vector
    g, k, m, L = 3, 4, 1, 5
    lo, hi = balance_bounds(g, k, m, 0)
    best_val = None
    vectors = []
    for flat in itertools.product(range(m + 1), repeat=g * k):
        part = PartitionMatrix(m, np.array(flat, dtype=np.int64).reshape(g, k))
        loads = [int(part.component(x).sum()) for x in range(m + 1)]
        if min(loads) < lo or max(loads) > hi:
            continue
        val = census_from_partition(part, L).total
        ind = restrict_to_independent(overlaps_from_partition(part)).values
        if best_val is None or val < best_val:
            best_val, vectors = val, [ind]
        elif val == best_val:
            vectors.append(ind)
    opt = optimize(g, k, m, L, OptimizerConfig(strategy="exhaustive"))
    assert opt.f_star == best_val
    assert opt.overlaps.values == min(vectors)


def test_block_expander_matches_filtered_oracle_at_every_bound():
    # the same blocks of rows at every block size, infeasible bounds
    # included (lo > hi, or lo above what kappa columns can reach)
    rng = np.random.default_rng(7)
    empty = full = 0
    for case in range(80):
        g = int(rng.integers(2, 5))
        m = int(rng.integers(0, 3))
        k = int(rng.integers(1, 10))
        if composition_space(k, g, m) > 3_000:
            continue
        loads = _component_loads(g, m)
        lo, hi = balance_bounds(g, k, m, int(rng.integers(0, 3)))
        if case % 10 == 0:
            lo = hi + 1
        elif case % 10 == 1:
            lo = hi = k * g + 1
        for block in (1 << 15, 1, 7):
            got = list(_balanced_blocks(k, loads, lo, hi, block))
            want = list(filtered_balanced_blocks(k, loads, lo, hi, block))
            assert all(len(rows) for rows in got)
            assert len(got) == len(want), (g, m, k, lo, hi, block)
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (
                g, m, k, lo, hi, block)
        count = sum(map(len, want))
        empty += not count
        full += count > 100
    assert empty >= 5 and full >= 5


def test_block_expander_matches_filtered_oracle():
    # the count-interval expander against the build-then-filter one: the same
    # blocks, and the same frontiers handed to a branch-and-bound style prune
    rng = np.random.default_rng(12)
    cases = [(3, 17, 1, 0, (1 << 15,)), (3, 15, 1, 1, (1 << 15,)), (3, 8, 1, 0, (7,))]
    while len(cases) < 40:
        g, m, k = int(rng.integers(2, 5)), int(rng.integers(0, 3)), int(rng.integers(1, 12))
        if composition_space(k, g, m) <= 2_000 and (m + 1) ** g <= 27:
            cases.append((g, k, m, int(rng.integers(0, 3)), (1 << 15, 1, 7)))
    pruned = 0
    for g, k, m, slack, blocks in cases:
        ev, loads = _Evaluator(g, m, 6), _component_loads(g, m)
        lo, hi = balance_bounds(g, k, m, slack)
        bound = int(rng.integers(0, 4)) * max(k, 1) ** 3
        for block in blocks:
            for with_prune in (False, True):
                runs = []
                for expand in (_balanced_blocks, filtered_balanced_blocks):
                    frontiers = []

                    def prune(rows, frontiers=frontiers):
                        frontiers.append(rows.copy())
                        return ev.objective(rows) <= bound

                    yields = list(expand(k, loads, lo, hi, block,
                                         prune if with_prune else None))
                    runs.append((yields, frontiers))
                for got, want in zip(*runs):  # yields, then pruned frontiers
                    assert len(got) == len(want), (g, k, m, slack, block, with_prune)
                    assert all(np.array_equal(a, b) for a, b in zip(got, want))
                pruned += len(runs[0][1]) > 0
    assert pruned >= 20


def test_local_search_matches_sequential_oracle():
    # lockstep restarts against one restart and one move at a time: the
    # same best point and the same number of evaluated rows
    rng = np.random.default_rng(13)
    for case in range(60):
        g = int(rng.integers(2, 6))
        m = int(rng.integers(0, 3 if g <= 3 else 2))
        k = int(rng.integers(1, 14))
        L = int(rng.integers(1, 9))
        cfg = OptimizerConfig(strategy="local-search", seed=int(rng.integers(1000)),
                              restarts=(1, 60, int(rng.integers(2, 25)))[case % 3],
                              balance_slack=int(rng.integers(0, 3)))
        args = (_Evaluator(g, m, L), k, _component_loads(g, m),
                *balance_bounds(g, k, m, cfg.balance_slack), cfg, None)
        (val, ind, row), evaluated = partition_opt._local_search(*args)
        (want_val, want_ind, want_row), want_evaluated = local_search(*args)
        assert (val, ind, evaluated) == (want_val, want_ind, want_evaluated)
        assert np.array_equal(row, want_row)


def test_branch_and_bound_counts_match_sequential_oracles(monkeypatch):
    rng = np.random.default_rng(14)
    cases = 0
    while cases < 12:
        g, m, k = int(rng.integers(2, 5)), int(rng.integers(0, 3)), int(rng.integers(2, 10))
        if composition_space(k, g, m) > 20_000:
            continue
        cases += 1
        cfg = OptimizerConfig(strategy="branch-and-bound", seed=int(rng.integers(100)),
                              balance_slack=int(rng.integers(0, 2)))
        L = int(rng.integers(1, 9))
        got = optimize(g, k, m, L, cfg)
        monkeypatch.setattr(partition_opt, "_local_search", local_search)
        monkeypatch.setattr(partition_opt, "_balanced_blocks", filtered_balanced_blocks)
        want = optimize(g, k, m, L, cfg)
        monkeypatch.undo()
        assert (got.f_star, got.overlaps.values, got.evaluated, got.certified) == (
            want.f_star, want.overlaps.values, want.evaluated, want.certified)


def test_local_search_deadline_lets_the_first_restart_finish(monkeypatch):
    # a clock that advances one second per reading: the deadline passes
    # after every start is drawn, before the first lockstep step
    g, k, m, L = 4, 9, 1, 10
    lo, hi = balance_bounds(g, k, m, 0)
    args = (_Evaluator(g, m, L), k, _component_loads(g, m), lo, hi)
    one = local_search(
        *args, OptimizerConfig(strategy="local-search", seed=3, restarts=1), None)
    full = partition_opt._local_search(
        *args, OptimizerConfig(strategy="local-search", seed=3, restarts=20), None)
    ticks = itertools.count()
    monkeypatch.setattr(partition_opt, "time",
                        SimpleNamespace(monotonic=lambda: float(next(ticks))))
    cut = partition_opt._local_search(
        *args, OptimizerConfig(strategy="local-search", seed=3, restarts=20), 18.5)
    # readings 0-18 draw restarts 1-19; reading 19 stops all but the first
    assert next(ticks) == 20
    # all 20 starts, then the first restart's whole descent
    assert cut[1] == 20 + one[1] - 1 < full[1]
    assert cut[0][:2] <= one[0][:2]


def test_random_balanced_matches_loop_oracle():
    # same vector and same generator state afterwards, over seeds and sizes
    # where the repair needs several moves; a narrowed band can leave no
    # balanced vector, and then both run out of attempts
    rng = np.random.default_rng(25)
    failed = 0
    for _ in range(200):
        g, m = int(rng.integers(1, 5)), int(rng.integers(0, 3))
        k = int(rng.integers(1, 14))
        lo, hi = balance_bounds(g, k, m, int(rng.integers(0, 2)))
        hi -= int(rng.integers(0, 2))
        seed, attempts = int(rng.integers(1 << 30)), int(rng.integers(1, 4))
        got, want = [], []
        for draw, out in ((partition_opt._random_balanced, got),
                          (loop_random_balanced, want)):
            r = np.random.default_rng(seed)
            try:
                out.append(draw(r, k, _component_loads(g, m), lo, hi,
                                attempts).tolist())
            except RuntimeError:
                out.append(None)
            out.append(r.integers(1 << 62))
        assert got == want, (g, m, k, lo, hi, seed)
        failed += got[0] is None
    assert 5 <= failed <= 150


def test_local_search_matches_loop_oracle():
    rng = np.random.default_rng(8)
    for _ in range(24):
        g = int(rng.integers(2, 5))
        m = 1 if g == 4 else int(rng.integers(1, 3))
        k = int(rng.integers(2, 13))
        L = int(rng.integers(1, 9))
        cfg = OptimizerConfig(strategy="local-search", seed=int(rng.integers(1000)),
                              restarts=int(rng.integers(1, 6)),
                              balance_slack=int(rng.integers(0, 3)))
        lo, hi = balance_bounds(g, k, m, cfg.balance_slack)
        (val, ind, row), evaluated = local_search(
            _Evaluator(g, m, L), k, _component_loads(g, m), lo, hi, cfg, None)
        opt = optimize(g, k, m, L, cfg)
        assert (opt.f_star, opt.overlaps.values, opt.evaluated) == (val, ind, evaluated)
        assert np.array_equal(opt.patterns.counts, row)


def test_branch_and_bound_matches_exhaustive_random(monkeypatch):
    rng = np.random.default_rng(9)
    cases = 0
    while cases < 24:
        g = int(rng.integers(2, 5))
        m = int(rng.integers(1, 3))
        k = int(rng.integers(2, 9))
        if composition_space(k, g, m) > 20_000:
            continue
        cases += 1
        L = int(rng.integers(1, 9))
        slack = int(rng.integers(0, 2))
        batch = int(rng.choice([3, 64, 1 << 15]))
        ex = optimize(g, k, m, L, OptimizerConfig(strategy="exhaustive",
                                                  balance_slack=slack))
        monkeypatch.setattr(partition_opt, "BATCH", batch)
        bb = optimize(g, k, m, L, OptimizerConfig(strategy="branch-and-bound",
                                                  balance_slack=slack))
        monkeypatch.undo()
        assert (bb.f_star, bb.overlaps.values) == (ex.f_star, ex.overlaps.values)
        assert bb.certified


def test_branch_and_bound_budget_cut_is_not_certified(monkeypatch):
    full = optimize(3, 9, 1, 10, OptimizerConfig(strategy="branch-and-bound"))
    # a clock that advances one second per reading runs out after the
    # incumbent's ten restarts, a few blocks into the search
    ticks = itertools.count()
    monkeypatch.setattr(partition_opt, "time",
                        SimpleNamespace(monotonic=lambda: float(next(ticks))))
    cut = optimize(3, 9, 1, 10, OptimizerConfig(strategy="branch-and-bound",
                                                time_budget_s=14))
    assert full.certified and not cut.certified
    assert cut.evaluated < full.evaluated
    assert cut.f_star >= full.f_star
    part = partition_from_overlaps(cut.overlaps)
    assert census_from_partition(part, 10).total == cut.f_star


def test_zero_budget_stops_branch_and_bound():
    opt = optimize(3, 9, 1, 10, OptimizerConfig(strategy="branch-and-bound",
                                                time_budget_s=0.0))
    assert not opt.certified


def test_local_search_budgets_run_the_first_restart():
    one = optimize(3, 9, 1, 10, OptimizerConfig(strategy="local-search", seed=4,
                                                restarts=1))
    for budget in (1e-9, 0.0):
        opt = optimize(3, 9, 1, 10, OptimizerConfig(
            strategy="local-search", seed=4, restarts=30, time_budget_s=budget))
        assert (opt.f_star, opt.evaluated) == (one.f_star, one.evaluated)


@pytest.mark.parametrize("bad", [dict(restarts=0), dict(time_budget_s=-1.0)])
def test_config_rejects_bad_values(bad):
    with pytest.raises(ValueError):
        OptimizerConfig(**bad)


@pytest.mark.parametrize("gamma, kappa, m, L", [
    (3, 5, 1, 0), (3, 5, 1, -3), (3, 0, 1, 4), (0, 5, 1, 4), (3, 5, -1, 4)])
def test_optimize_rejects_bad_shapes(gamma, kappa, m, L):
    with pytest.raises(ValueError):
        optimize(gamma, kappa, m, L)


def test_gamma4_m2_search_memory():
    # the objective contracts each batch in row chunks, so the traced peak
    # of this gamma=4, m=2 search stays well below its batches' full products
    tracemalloc.start()
    try:
        opt = optimize(4, 17, 2, 30, OptimizerConfig(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert opt.f_star == 64438
    assert peak < 32 * 2**20, peak


def test_gamma4_m3_search_memory():
    # moves are (restart, v, w) triples scored BATCH rows at a time, with no
    # table over the 256 * 255 pattern pairs; those dense move tables traced
    # about 426 MB here
    tracemalloc.start()
    try:
        opt = optimize(4, 9, 3, 30, OptimizerConfig(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert opt.f_star == 5100
    assert peak < 64 * 2**20, peak
