from __future__ import annotations

import math
import re
from collections import Counter

import numpy as np
import pytest

from scldpc.overlaps import (IndependentOverlaps, column_patterns,
                             cover_matrix, independent_overlap_sets,
                             mobius_matrix, overlaps_from_partition,
                             partition_from_overlaps, pattern_counts,
                             restrict_to_independent, valid_overlap_sets)
from scldpc.cycle_census import shape_row_sets
from oracles import (direct_overlap, inclusion_exclusion_overlaps,
                     loop_cover_matrix, pattern_rows, random_partition)


def test_valid_set_count_formula():
    for gamma in range(2, 6):
        for m in range(1, 4):
            sets = valid_overlap_sets(gamma, m)
            expect = sum(
                math.comb(gamma, d) * (m + 1) ** d for d in range(1, gamma + 1)
            )
            assert len(sets) == expect
            assert len(set(sets)) == len(sets)


def test_independent_set_count_formula():
    # degree-d sets over the first m components: m^d * C(gamma, d)
    for gamma in range(2, 6):
        for m in range(1, 4):
            sets = independent_overlap_sets(gamma, m)
            expect = sum(
                math.comb(gamma, d) * m**d for d in range(1, gamma + 1)
            )
            assert len(sets) == expect
            assert all(r < m * gamma for s in sets for r in s)


def test_canonical_order_degree_major_then_lex():
    sets = independent_overlap_sets(3, 1)
    assert list(sets) == [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]


def test_overlap_table_lookup_rules():
    part = random_partition(np.random.default_rng(0), 3, 7, 1)
    ov = overlaps_from_partition(part)
    assert ov.get(()) == 7
    # same residue twice in distinct components is structurally empty
    assert ov.get((0, 3)) == 0
    with pytest.raises(KeyError):
        ov.get((0, 99))


def test_direct_overlaps_match_bruteforce():
    rng = np.random.default_rng(1)
    for _ in range(40):
        g = int(rng.integers(2, 5))
        k = int(rng.integers(2, 8))
        m = int(rng.integers(1, 4))
        part = random_partition(rng, g, k, m)
        ov = overlaps_from_partition(part)
        for rows in valid_overlap_sets(g, m):
            assert ov.get(rows) == direct_overlap(part, rows)


def test_completion_reproduces_all_overlaps():
    rng = np.random.default_rng(2)
    for _ in range(40):
        g = int(rng.integers(2, 5))
        k = int(rng.integers(2, 8))
        m = int(rng.integers(1, 3))
        part = random_partition(rng, g, k, m)
        ind = restrict_to_independent(overlaps_from_partition(part))
        completed = pattern_counts(ind)
        for rows in valid_overlap_sets(g, m):
            assert completed.get(rows) == direct_overlap(part, rows), rows


def test_completed_tables_are_monotone():
    rng = np.random.default_rng(3)
    part = random_partition(rng, 4, 9, 2)
    ov = pattern_counts(restrict_to_independent(overlaps_from_partition(part)))
    sets = valid_overlap_sets(4, 2)
    for s in sets:
        for t in sets:
            if set(t) < set(s):
                assert ov.get(s) <= ov.get(t)


def test_pattern_counts_sum_to_kappa():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = int(rng.integers(2, 4))
        k = int(rng.integers(2, 9))
        m = int(rng.integers(1, 3))
        part = random_partition(rng, g, k, m)
        ind = restrict_to_independent(overlaps_from_partition(part))
        pc = pattern_counts(ind)
        assert sum(pc.counts) == k
        assert min(pc.counts) >= 0


def test_pattern_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(20):
        g = int(rng.integers(2, 4))
        k = int(rng.integers(2, 9))
        m = int(rng.integers(1, 3))
        part = random_partition(rng, g, k, m)
        ind = restrict_to_independent(overlaps_from_partition(part))
        pc = pattern_counts(ind)
        cover = cover_matrix(g, m, independent_overlap_sets(g, m))
        back = tuple(int(v) for v in cover @ pc.counts)
        assert back == ind.values


def test_cover_matrix_linear_map():
    g, m, k = 3, 1, 6
    rng = np.random.default_rng(6)
    part = random_partition(rng, g, k, m)
    ind = restrict_to_independent(overlaps_from_partition(part))
    pc = pattern_counts(ind)
    mat = cover_matrix(g, m, independent_overlap_sets(g, m))
    t = mat @ np.array(pc.counts)
    assert tuple(int(v) for v in t) == ind.values


def test_cover_matrix_matches_loop_oracle():
    # seeded samples of each kind of row set the library builds a cover for;
    # m=0 gives no independent sets and gamma < 3 no shape sets
    rng = np.random.default_rng(19)
    for gamma in range(1, 6):
        for m in range(4):
            for sets in (valid_overlap_sets(gamma, m),
                         independent_overlap_sets(gamma, m),
                         shape_row_sets(gamma, m)):
                if len(sets) > 40:
                    pick = np.sort(rng.choice(len(sets), 40, replace=False))
                    sets = [sets[i] for i in pick]
                got = cover_matrix(gamma, m, sets)
                assert got.dtype == np.int64
                assert got.shape == (len(sets), (m + 1) ** gamma)
                assert np.array_equal(got, loop_cover_matrix(gamma, m, sets))


def test_pattern_counts_count_each_columns_pattern():
    rng = np.random.default_rng(22)
    for gamma in range(1, 6):
        for m in range(4):
            part = random_partition(rng, gamma, int(rng.integers(1, 12)), m)
            seen = Counter(tuple(c) for c in part.assign.T.tolist())
            assert overlaps_from_partition(part).counts.tolist() == \
                [seen[v] for v in column_patterns(gamma, m)]


def test_mobius_matrix_inverts_cover():
    for gamma in range(1, 6):
        for m in range(4):
            sets = [()] + independent_overlap_sets(gamma, m)
            mobius = mobius_matrix(gamma, m)
            assert mobius.dtype == np.int64
            # entries are 0 and +-1, so the float product is exact
            got = mobius.astype(float) @ cover_matrix(gamma, m, sets)
            assert np.array_equal(got, np.eye((m + 1) ** gamma))


def test_pattern_counts_match_inclusion_exclusion_oracle():
    # per (gamma, m): a partition's own overlaps, then two random vectors,
    # most of them unrealizable (some pattern count negative)
    rng = np.random.default_rng(23)
    negative = 0
    for gamma in range(1, 6):
        for m in range(4):
            kappa = int(rng.integers(1, 12))
            part = random_partition(rng, gamma, kappa, m)
            inds = [restrict_to_independent(overlaps_from_partition(part))]
            n_free = len(independent_overlap_sets(gamma, m))
            inds += [IndependentOverlaps(gamma, m, kappa,
                                         rng.integers(0, kappa + 1, n_free))
                     for _ in range(2)]
            for ind in inds:
                want = inclusion_exclusion_overlaps(ind)
                pc = pattern_counts(ind)
                assert pc.counts.tolist() == [
                    want[pattern_rows(v, gamma)]
                    for v in column_patterns(gamma, m)], (gamma, m)
                assert all(pc.get(s) == t for s, t in want.items()), (gamma, m)
                negative += bool((pc.counts < 0).any())
    assert negative >= 20


def test_pattern_rows_definition():
    # pattern (1, 0, 2) puts row 0 in component 1, row 1 in 0, row 2 in 2;
    # stacked indices come back sorted
    assert pattern_rows((1, 0, 2), 3) == (1, 3, 8)
    assert list(column_patterns(2, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_realizability_accepts_real_partition():
    rng = np.random.default_rng(7)
    part = random_partition(rng, 3, 8, 1)
    ind = restrict_to_independent(overlaps_from_partition(part))
    assert partition_from_overlaps(ind).assign.shape == (3, 8)


def test_realizability_rejects_inconsistent_vector():
    # a pair overlap larger than a single-row overlap is impossible
    bad = IndependentOverlaps(3, 1, 6, (1, 1, 1, 5, 0, 0, 0))
    named = "negative patterns (((0, 1, 1), -4), ((1, 0, 1), -4))"
    with pytest.raises(ValueError, match=re.escape(named)):
        partition_from_overlaps(bad)


def test_partition_from_overlaps_roundtrip():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = int(rng.integers(2, 4))
        k = int(rng.integers(3, 9))
        m = int(rng.integers(1, 3))
        part = random_partition(rng, g, k, m)
        ind = restrict_to_independent(overlaps_from_partition(part))
        rebuilt = partition_from_overlaps(ind)
        ind2 = restrict_to_independent(overlaps_from_partition(rebuilt))
        assert ind2.values == ind.values


def test_independent_overlaps_take_one_value_per_independent_set():
    for g in range(1, 6):
        for m in range(4):
            n = len(independent_overlap_sets(g, m))
            assert len(IndependentOverlaps(g, m, 5, (0,) * n).values) == n
            for wrong in (n - 1, n + 1) if n else (1,):
                with pytest.raises(ValueError, match=f"expected {n} "):
                    IndependentOverlaps(g, m, 5, (0,) * wrong)


def test_partition_from_patterns_rejects_bad_totals():
    bad = IndependentOverlaps(3, 1, 6, (1, 1, 1, 5, 0, 0, 0))
    with pytest.raises(ValueError):
        partition_from_overlaps(bad)


def test_layout_is_lexicographic_by_pattern():
    rng = np.random.default_rng(9)
    part = random_partition(rng, 3, 8, 2)
    ind = restrict_to_independent(overlaps_from_partition(part))
    rebuilt = partition_from_overlaps(ind)
    cols = [tuple(rebuilt.assign[:, j]) for j in range(8)]
    assert cols == sorted(cols)
