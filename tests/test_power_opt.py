from __future__ import annotations

import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from scldpc.code_model import (CirculantBlockCode, PartitionMatrix, SCCodeSpec,
                               ab_code, ab_powers, partition_from_cutting_vector)
from scldpc.overlaps import IndependentOverlaps, partition_from_overlaps
from scldpc.overlaps import partition_from_patterns
from scldpc.partition_opt import OptimizerConfig, optimize
from scldpc import power_opt
from scldpc.io_formats import trace_csv
from scldpc.power_opt import (CpoConfig, CycleSystem, _EpochScorer,
                              _candidate_chunks, refine_layout,
                              run_cpo, weighted_theta)

from oracles import (dense_candidate_scores, lifted_cycles4, random_partition,
                     replay_run_cpo, sourced_refine_layout, tuple_cycle_arrays,
                     window_theta)


def uncut(gamma, kappa, m=1):
    return PartitionMatrix(m, np.zeros((gamma, kappa), dtype=np.int64))


def spec_for(gamma, kappa, p, partition, L):
    return SCCodeSpec(ab_code(gamma, kappa, p), partition, L)


def test_ab_power_values():
    f = ab_powers(3, 5, 7)
    assert f.shape == (3, 5)
    assert (f[0] == 0).all()
    assert (f[:, 0] == 0).all()
    assert f[2][3] == 6
    for i in range(3):
        for j in range(5):
            assert f[i][j] == (i * j) % 7


def test_ab_lift_has_no_four_cycles():
    spec = spec_for(3, 7, 7, uncut(3, 7), 4)
    assert lifted_cycles4(spec) == 0
    system = CycleSystem(spec)
    assert system.count_active4(spec.block.powers.ravel()) == 0


def test_theta_accounting():
    # every active cycle deposits m+1 on each of its 6 cells after folding
    rng = np.random.default_rng(4)
    for _ in range(12):
        g, kp, m, p = 3, 5, int(rng.integers(1, 3)), 5
        part = random_partition(rng, g, kp, m)
        spec = SCCodeSpec(CirculantBlockCode(g, kp, p, rng.integers(0, p, (g, kp))),
                          part, 8)
        system = CycleSystem(spec)
        f = spec.block.powers.ravel().astype(np.int64)
        theta = weighted_theta(system, f)
        n_active = int(system.active6(f).sum())
        assert theta.shape == (g, kp)
        assert theta.sum() == 6 * (m + 1) * n_active


def random_power_spec(rng, m):
    g, kp = int(rng.integers(2, 5)), int(rng.integers(2, 7))
    p = int(rng.choice([5, 7, 11]))
    block = CirculantBlockCode(g, kp, p, rng.integers(0, p, (g, kp)))
    L = m + 1 + int(rng.integers(0, 3))
    return SCCodeSpec(block, random_partition(rng, g, kp, m), L)


def test_weighted_theta_matches_window_oracle():
    rng = np.random.default_rng(21)
    for m in range(4):
        for _ in range(8):
            spec = random_power_spec(rng, m)
            system = CycleSystem(spec)
            f = spec.block.powers.ravel()
            theta = weighted_theta(system, f)
            assert np.allclose(theta, window_theta(spec, f), rtol=0, atol=1e-9)


def test_theta_is_exact_visit_count_at_m3():
    # the window weights (m+1)/(m-k+2) are 4/5, 4/3, ... at m=3, so the
    # float fold is only close to the integer m+1 per visit
    rng = np.random.default_rng(3)
    m, inexact = 3, 0
    for _ in range(7):
        spec = random_power_spec(rng, m)
        f = spec.block.powers.ravel()
        res6, _, _, _ = tuple_cycle_arrays(spec)
        visits = Counter()
        for walk in res6.tolist():
            sums = sum(f[c] * (-1) ** i for i, c in enumerate(walk))
            if sums % spec.p == 0:
                visits.update(walk)
        want = np.array([(m + 1) * visits[c] for c in range(spec.gamma * spec.kappa)])
        theta = weighted_theta(CycleSystem(spec), f)
        assert theta.dtype == np.int64
        assert np.array_equal(theta.ravel(), want)
        inexact += not np.array_equal(window_theta(spec, f).ravel(), want)
    assert inexact > 0


@pytest.mark.parametrize("m", [1, 2])
def test_window_theta_replays_whole_runs(monkeypatch, m):
    # for m <= 2 every window weight is dyadic, so the float theta is exact
    # and the power search takes the same path with either form
    rng = np.random.default_rng(m)
    configs = (CpoConfig(seed=4, subset_size_schedule=(1, 2), max_stale_rounds=3),
               CpoConfig(seed=6, subset_size_schedule=(1, 2, 3),
                         exhaustive_cap=100, max_stale_rounds=3))
    for config in configs:
        spec = spec_for(3, 7, 7, random_partition(rng, 3, 7, m), m + 4)
        want = trace_csv(run_cpo(spec, config).trace)
        with monkeypatch.context() as patch:
            patch.setattr(power_opt, "weighted_theta",
                          lambda system, f: window_theta(spec, f))
            assert trace_csv(run_cpo(spec, config).trace) == want


def test_f_sc_matches_weight_definition():
    rng = np.random.default_rng(9)
    part = random_partition(rng, 3, 5, 1)
    spec = spec_for(3, 5, 5, part, 9)
    system = CycleSystem(spec)
    f = spec.block.powers.ravel().astype(np.int64)
    active = system.active6(f)
    by_hand = sum(5 * (9 - int(k) + 1) for k in system.span6[active])
    assert system.f_sc(f) == by_hand


def test_accepted_rounds_strictly_decrease():
    part = partition_from_cutting_vector([2, 4, 6], 3, 7)
    spec = spec_for(3, 7, 7, part, 10)
    state = run_cpo(spec, CpoConfig(seed=1, subset_size_schedule=(1, 2)))
    assert state.trace
    for row in state.trace:
        if row.accepted:
            assert row.f_sc_after < row.f_sc_before
        else:
            assert row.f_sc_after == row.f_sc_before
    accepted = [r for r in state.trace if r.accepted]
    assert accepted, "expected at least one improving move on this code"
    assert state.f_sc == accepted[-1].f_sc_after
    assert CycleSystem(spec).f_sc(state.powers.ravel()) == state.f_sc
    assert CycleSystem(spec).count_active4(state.powers.ravel()) == 0


def test_deterministic_given_seed():
    part = partition_from_cutting_vector([2, 4, 6], 3, 7)
    spec = spec_for(3, 7, 7, part, 10)
    cfg = CpoConfig(seed=6, subset_size_schedule=(1, 2), max_stale_rounds=5)
    a = run_cpo(spec, cfg)
    b = run_cpo(spec, cfg)
    assert (a.powers == b.powers).all()
    assert a.f_sc == b.f_sc
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert (ra.cells, ra.powers, ra.f_sc_before, ra.f_sc_after,
                ra.accepted) == (rb.cells, rb.powers, rb.f_sc_before,
                                 rb.f_sc_after, rb.accepted)


def test_returns_immediately_at_target():
    part = partition_from_cutting_vector([2, 4, 6], 3, 7)
    spec = spec_for(3, 7, 7, part, 10)
    start = CycleSystem(spec).f_sc(spec.block.powers.ravel().astype(np.int64))
    state = run_cpo(spec, CpoConfig(seed=0, target_f_sc=start))
    assert state.rounds == 0
    assert state.trace == []
    assert state.reached_target
    assert (state.powers == spec.block.powers).all()


def test_rejects_four_cycle_start():
    part = uncut(3, 5)
    block = CirculantBlockCode(3, 5, 5, np.zeros((3, 5), dtype=np.int64))
    with pytest.raises(ValueError):
        run_cpo(SCCodeSpec(block, part, 6), CpoConfig(seed=0))


def test_sampling_requires_seed():
    part = partition_from_cutting_vector([2, 4, 6], 3, 7)
    spec = spec_for(3, 7, 7, part, 10)
    with pytest.raises(ValueError):
        run_cpo(spec, CpoConfig(power_candidates=50))


def test_window_too_short():
    part = random_partition(np.random.default_rng(0), 3, 5, 2)
    with pytest.raises(ValueError):
        run_cpo(spec_for(3, 5, 5, part, 2), CpoConfig(seed=0))


def test_config_validation():
    with pytest.raises(ValueError):
        CpoConfig(subset_size_schedule=())
    with pytest.raises(ValueError):
        CpoConfig(subset_size_schedule=(0, 1))
    with pytest.raises(ValueError):
        CpoConfig(power_candidates=0)
    with pytest.raises(ValueError, match="exhaustive_cap"):
        CpoConfig(exhaustive_cap=0)
    with pytest.raises(ValueError, match="max_stale_rounds"):
        CpoConfig(max_stale_rounds=-1)
    with pytest.raises(ValueError, match="time_budget_s"):
        CpoConfig(time_budget_s=-0.5)


def test_refine_layout_preserves_pattern_multiset():
    rng = np.random.default_rng(2)
    part = random_partition(rng, 3, 6, 1)
    refined, val = refine_layout(part, 5, 8)
    before = sorted(tuple(int(v) for v in part.assign[:, j]) for j in range(6))
    after = sorted(tuple(int(v) for v in refined.assign[:, j]) for j in range(6))
    assert before == after
    spec = spec_for(3, 6, 5, refined, 8)
    f = spec.block.powers.ravel().astype(np.int64)
    assert CycleSystem(spec).f_sc(f) == val


def test_refine_layout_is_exhaustive_up_to_the_cap(monkeypatch):
    # the cap compares with the number of distinct column arrangements
    part = PartitionMatrix(1, [[0, 0, 1, 1, 1], [1, 1, 0, 0, 0], [0, 0, 1, 1, 0]])
    columns = [tuple(c) for c in part.assign.T.tolist()]
    count = len(list(power_opt._multiset_permutations(columns)))
    assert count == 30  # 5! / (2! 2!): two patterns appear twice
    calls = []
    listing = power_opt._multiset_permutations
    monkeypatch.setattr(power_opt, "_multiset_permutations",
                        lambda items: calls.append(len(items)) or listing(items))
    monkeypatch.setattr(power_opt, "LAYOUT_EXHAUSTIVE_CAP", count)
    refine_layout(part, 5, 4)
    assert calls == [5]
    monkeypatch.setattr(power_opt, "LAYOUT_EXHAUSTIVE_CAP", count - 1)
    refine_layout(part, 5, 4)
    assert calls == [5]


def test_refine_layout_never_worse_than_input():
    rng = np.random.default_rng(7)
    for _ in range(6):
        part = random_partition(rng, 3, 5, 1)
        spec = spec_for(3, 5, 5, part, 8)
        start = CycleSystem(spec).f_sc(spec.block.powers.ravel().astype(np.int64))
        _, val = refine_layout(part, 5, 8)
        assert val <= start



def test_refine_layout_matches_sourced_oracle(monkeypatch):
    # the oracle scores each arrangement as a power-column permutation on
    # one cycle system; a cap of 0 forces the swap descent in both
    rng = np.random.default_rng(23)
    cases = []
    for _ in range(200):
        g, kp, m = int(rng.integers(3, 5)), int(rng.integers(3, 8)), int(rng.integers(1, 3))
        p, L = int(rng.choice((5, 7, 11))), int(rng.choice((3, 8, 30)))
        cases.append((random_partition(rng, g, kp, m), p, L))
    cases += [
        (partition_from_overlaps(IndependentOverlaps(
            4, 1, 7, (3, 4, 3, 4, 0, 1, 2, 2, 2, 0, 0, 0, 0, 0, 0))), 7, 30),
        (partition_from_overlaps(optimize(3, 17, 1, 30, OptimizerConfig(
            strategy="exhaustive")).overlaps), 17, 30),
        (partition_from_overlaps(optimize(4, 17, 1, 30, OptimizerConfig(
            strategy="local-search", seed=0, restarts=40)).overlaps), 17, 30),
    ]
    for cap in (power_opt.LAYOUT_EXHAUSTIVE_CAP, 0):
        monkeypatch.setattr(power_opt, "LAYOUT_EXHAUSTIVE_CAP", cap)
        for part, p, L in cases:
            got, val = refine_layout(part, p, L)
            want, want_val = sourced_refine_layout(part, p, L)
            assert val == want_val
            assert np.array_equal(got.assign, want.assign)


def test_cpo_beats_starting_point():
    part = partition_from_cutting_vector([2, 4, 6], 3, 7)
    spec = spec_for(3, 7, 7, part, 15)
    start = CycleSystem(spec).f_sc(spec.block.powers.ravel().astype(np.int64))
    state = run_cpo(spec, CpoConfig(seed=3, subset_size_schedule=(1, 2, 3),
                                    max_stale_rounds=20))
    assert state.f_sc < start


def random_system(rng, p, max_kappa=5):
    g, kp = int(rng.integers(3, 5)), int(rng.integers(1, max_kappa + 1))
    m = int(rng.integers(0, 3))
    block = CirculantBlockCode(g, kp, p, rng.integers(0, p, (g, kp)))
    return CycleSystem(SCCodeSpec(block, random_partition(rng, g, kp, m), m + 2))


def scramble_walks(rng, system):
    """Replace every cycle's cells by random ones, repeats allowed.

    In a coupled code a residue cell occurs at most once per cycle, so
    subset coefficients are 0 or +-1; scrambled walks also give the +-2
    and +-3 coefficients the scorer handles in general.
    """
    ncells = system.gamma * system.kappa
    system.res6 = rng.integers(0, ncells, system.res6.shape)
    system.res4 = rng.integers(0, ncells, system.res4.shape)


def test_cycles_by_cell_match_per_cell_scan():
    rng = np.random.default_rng(5)
    for n in range(16):
        system = random_system(rng, 7)
        if n % 2:
            scramble_walks(rng, system)
        ncells = system.gamma * system.kappa
        f = np.zeros(ncells, dtype=np.int64)
        visits = _EpochScorer(system, f, system.f_sc(f)).visits
        n6 = len(system.res6)
        assert visits.shape == (ncells, n6 + len(system.res4))
        for res, block in ((system.res6, visits[:, :n6]),
                           (system.res4, visits[:, n6:])):
            for c in range(ncells):
                assert np.array_equal(block[c], (res == c).any(axis=1))


@pytest.mark.parametrize("cap", [None, 40])
def test_table_scores_match_dense_oracle(cap):
    # table_scores sums the subset's pieces; dense_scores pools the cycles
    # through any of its cells, at every candidate and at sampled rows.
    # cap plays run_cpo's exhaustive_cap: a subset with more candidates is
    # also scored at rows drawn by _candidate_chunks, as run_cpo scores it;
    # those draws use their own generator, so both cases see the same trials
    rng = np.random.default_rng(11)
    seen = Counter()
    signs = np.array([1, -1, 1, -1, 1, -1])
    for trial in range(240):
        p = int(rng.choice([5, 6, 7, 8, 9, 10]))
        system = random_system(rng, p)
        if rng.random() < 0.5:
            scramble_walks(rng, system)
        f = rng.integers(0, p, system.gamma * system.kappa).astype(np.int64)
        size = min(int(rng.integers(1, 5)), system.gamma * system.kappa)
        subset = np.sort(rng.choice(system.gamma * system.kappa, size, replace=False))
        scorer = _EpochScorer(system, f, system.f_sc(f))
        got = scorer.table_scores(subset)
        want = dense_candidate_scores(system, f, subset, p)
        assert np.array_equal(got, want)
        grid = np.indices((p,) * size).reshape(size, -1).T
        assert np.array_equal(scorer.dense_scores(subset, grid), want)
        rows = rng.integers(0, len(grid), 50)
        assert np.array_equal(scorer.dense_scores(subset, grid[rows]), want[rows])
        if cap is not None and len(grid) > cap:
            draw = np.random.default_rng(trial)
            cands = np.concatenate(list(_candidate_chunks(draw, p, size, cap)))
            at = cands @ p ** np.arange(size - 1, -1, -1)  # lexicographic rank
            assert np.array_equal(scorer.dense_scores(subset, cands), want[at])
            seen["past-cap"] += 1
        # run_cpo's subsets come in theta order, not sorted
        back = subset[::-1]
        want = dense_candidate_scores(system, f, back, p)
        assert np.array_equal(scorer.table_scores(back), want)
        assert np.array_equal(scorer.dense_scores(back, grid), want)

        seen[f"size{size}"] += 1
        seen["composite"] += p in (6, 8, 9, 10)
        for res, name in ((system.res6, "6"), (system.res4, "4")):
            hit = res[np.isin(res, subset).any(axis=1)]
            seen["no" + name] += not len(hit)
            # touched cycles already closed at the current powers
            now = (f[hit] * signs[: res.shape[1]]).sum(axis=1) % p == 0
            seen["closed" + name] += int(now.sum())
            # the last cell's coefficient picks the table's congruence:
            # 0 (cycle misses the cell), +-2, or sharing a factor with p
            last = ((hit == subset[-1]) * signs[: res.shape[1]]).sum(axis=1)
            seen["coef0"] += int((last == 0).sum())
            seen["coef2"] += int((abs(last) == 2).sum())
            seen["shared"] += int(((last % p != 0) & (np.gcd(last, p) > 1)).sum())
            # a cycle's support: the subset cells its sum depends on mod p
            coef = (hit[:, :, None] == subset) * signs[: res.shape[1], None]
            for k in ((coef.sum(axis=1) % p) != 0).sum(axis=1):
                seen[f"support{k}-{name}"] += 1
    for key in ("size1", "size2", "size3", "size4", "composite", "no6", "no4",
                "coef0", "coef2", "shared", "closed6", "closed4",
                *(f"support{k}-{n}" for k in range(5) for n in "64"),
                *(("past-cap",) if cap else ())):
        assert seen[key] > 0, key


def test_incremental_start_matches_a_fresh_scorer():
    # start moves only the sums of cycles through re-powered cells;
    # after each of several re-powerings it must hold what a scorer built
    # at those powers holds.  Scrambled walks give net-zero visits (a cell
    # at a + and a - step) and coefficients beyond +-1.
    rng = np.random.default_rng(41)
    seen = Counter()
    for trial in range(100):
        p = int(rng.choice([5, 7, 11, 6, 8, 9]))
        system = random_system(rng, p)
        if trial % 2:
            scramble_walks(rng, system)
        ncells = system.gamma * system.kappa
        f = rng.integers(0, p, ncells).astype(np.int64)
        scorer = _EpochScorer(system, f, system.f_sc(f))
        for _ in range(int(rng.integers(2, 6))):
            cells = rng.choice(ncells, min(int(rng.integers(1, 4)), ncells), replace=False)
            f[cells] = rng.integers(0, p, len(cells))
            scorer.start(f, system.f_sc(f))
            fresh = _EpochScorer(system, f, system.f_sc(f))
            assert np.array_equal(scorer.sums, fresh.sums)
            subset = np.sort(rng.choice(ncells, min(3, ncells), replace=False))
            assert np.array_equal(scorer.table_scores(subset), fresh.table_scores(subset))
        seen["composite"] += p in (6, 8, 9)
        seen["net-zero"] += int(((scorer.mult == 0) & scorer.visits).sum())
        seen["four-cycles"] += len(system.res4)
        # every cached index table is (-row @ x) mod p over the power grid
        for row, table in scorer.lin.items():
            k = len(row)
            grid = np.indices((p,) * k).reshape(k, -1)
            assert np.array_equal(table, ((-np.array(row) @ grid) % p).reshape((p,) * k))
            seen[f"lin{k}"] += 1
    for key in ("composite", "net-zero", "four-cycles", "lin2", "lin3"):
        assert seen[key] > 0, key


def test_epoch_scorer_rejects_inexact_visit_weights():
    # a pooled weight sums at most every cycle at kill, which exceeds all
    # 6-cycles together
    part = partition_from_cutting_vector([2, 4, 6], 3, 7)
    system = CycleSystem(spec_for(3, 7, 7, part, 10))
    f = np.zeros(system.gamma * system.kappa, dtype=np.int64)
    _EpochScorer(system, f, system.f_sc(f))
    system.weight6 = np.full(len(system.res6), (1 << 53) // len(system.res6))
    with pytest.raises(ValueError, match="2\\*\\*53"):
        _EpochScorer(system, f, system.f_sc(f))


# (f_sc, rounds, sha256 of the trace CSV) recorded with the dense
# per-candidate scorer (oracles.dense_candidate_scores); the first config
# mixes exhaustive and sampled rounds, the second has composite p
@pytest.mark.parametrize("gamma, kappa, p, cuts, L, config, expected", [
    (3, 7, 7, (2, 4, 6), 10,
     CpoConfig(seed=5, subset_size_schedule=(1, 2, 3, 4, 5),
               exhaustive_cap=8192, max_stale_rounds=4),
     (700, 45, "afd55b66c3e2e9554470946ef14e937c9c54d5c1db06d1d3487cd5996224da6d")),
    (3, 6, 9, (1, 3, 5), 8,
     CpoConfig(seed=2, subset_size_schedule=(1, 2, 3, 4), max_stale_rounds=4),
     (63, 29, "bd7be5f5d412cb6b46e6c631db26a1145626d1481285787024274bcdd4c4ef2c")),
])
def test_pinned_traces(gamma, kappa, p, cuts, L, config, expected):
    part = partition_from_cutting_vector(cuts, gamma, kappa)
    state = run_cpo(spec_for(gamma, kappa, p, part, L), config)
    digest = hashlib.sha256(trace_csv(state.trace).encode()).hexdigest()
    assert (state.f_sc, state.rounds, digest) == expected


@pytest.mark.parametrize("method, message", [
    ("f_sc", "incremental count drifted"),
    ("count_active4", "lifted 4-cycles"),
])
def test_invariant_breaks_raise(monkeypatch, method, message):
    # skew every call after the initial one, so the first accepted move
    # disagrees with what the scorer predicted
    real = getattr(CycleSystem, method)
    calls = []

    def skewed(self, f_flat):
        calls.append(1)
        return real(self, f_flat) + (len(calls) > 1)

    monkeypatch.setattr(CycleSystem, method, skewed)
    part = partition_from_cutting_vector([2, 4, 6], 3, 7)
    with pytest.raises(RuntimeError, match=message):
        run_cpo(spec_for(3, 7, 7, part, 10),
                CpoConfig(seed=1, subset_size_schedule=(1, 2)))


def test_run_cpo_matches_replay_oracle():
    # whole runs against a replay of run_cpo's round loop that scores every
    # round afresh with the dense scorer: AB starts without lifted
    # 4-cycles, prime and composite p, and schedules whose larger sizes are
    # sampled (p**s above the cap)
    rng = np.random.default_rng(31)
    seen = Counter()
    while seen["specs"] < 36:
        g, kp, m = int(rng.integers(3, 5)), int(rng.integers(4, 8)), int(rng.integers(1, 3))
        p = int(rng.choice([5, 6, 7, 8, 9, 11]))
        spec = spec_for(g, kp, p, random_partition(rng, g, kp, m),
                        m + 1 + int(rng.integers(0, 4)))
        if CycleSystem(spec).count_active4(spec.block.powers.ravel()):
            continue
        schedule = ((1, 2), (1, 2, 3), (1, 3, 2, 4))[int(rng.integers(0, 3))]
        cap = int(rng.choice([40, 400, 8192]))
        config = CpoConfig(seed=int(rng.integers(0, 100)), exhaustive_cap=cap,
                           subset_size_schedule=schedule, max_stale_rounds=4)
        powers, f_sc, trace = replay_run_cpo(spec, config)
        got = run_cpo(spec, config)
        assert trace_csv(got.trace) == trace_csv(trace)
        assert np.array_equal(got.powers, powers)
        assert (got.f_sc, got.rounds) == (f_sc, len(trace))
        assert got.scored + got.reused == got.rounds
        seen["specs"] += 1
        seen["composite"] += p in (6, 8, 9)
        seen["sampled"] += any(p**s > cap for s in schedule)
        seen["accepted"] += sum(row.accepted for row in got.trace)
        seen["reused"] += got.reused
        seen["pieces"] += got.pieces
    for key in ("composite", "sampled", "accepted", "reused", "pieces"):
        assert seen[key] > 0, key


@pytest.mark.parametrize("gamma, kappa, p, cuts, L, config", [
    (3, 7, 7, (2, 4, 6), 10,
     CpoConfig(seed=5, subset_size_schedule=(1, 2, 3, 4, 5),
               exhaustive_cap=8192, max_stale_rounds=4)),
    (3, 6, 9, (1, 3, 5), 8,
     CpoConfig(seed=2, subset_size_schedule=(1, 2, 3, 4), max_stale_rounds=4)),
])
def test_cpo_counters(gamma, kappa, p, cuts, L, config):
    # the test_pinned_traces runs: every round is scored or reused
    spec = spec_for(gamma, kappa, p, partition_from_cutting_vector(cuts, gamma, kappa), L)
    state = run_cpo(spec, config)
    assert state.scored + state.reused == state.rounds
    assert state.pieces > 0
    assert not state.cut_short


def test_time_budget_stop_is_reported():
    spec = spec_for(3, 7, 7, partition_from_cutting_vector([2, 4, 6], 3, 7), 10)
    state = run_cpo(spec, CpoConfig(seed=1, time_budget_s=0))
    assert state.cut_short
    assert (state.rounds, state.scored, state.reused) == (0, 0, 0)
    assert not state.reached_target


def test_headline_power_search_memory():
    # the gamma=4 headline pipeline's power search, as `scldpc pipeline`
    # runs it; its traced peak must stay well below the partition search's
    opt = optimize(4, 17, 1, 30, OptimizerConfig(seed=0))
    spec = spec_for(4, 17, 17, partition_from_patterns(opt.patterns), 30)
    tracemalloc.start()
    try:
        state = run_cpo(spec, CpoConfig(seed=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.f_sc < CycleSystem(spec).f_sc(spec.block.powers.ravel())
    assert peak < 8 * 2**20, peak
