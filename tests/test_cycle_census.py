from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from scldpc import cycle_census
from scldpc.code_model import (CirculantBlockCode, ColumnLists,
                               PartitionMatrix, SCCodeSpec, ab_code,
                               partition_from_cutting_vector, sc_lift)
from scldpc.cycle_census import (LiftedShapeCount, active_cycles6,
                                 census_from_partition, census_protograph,
                                 count_cycles4,
                                 count_cycles6, count_lifted_cycles4,
                                 starter_cycles4, starter_cycles6)
from scldpc.overlaps import overlaps_from_partition
from scldpc.partition_opt import _Evaluator
from scldpc.power_opt import CycleSystem
from oracles import (brute_cycles4, brute_cycles6, cycle6_power_sum,
                     cycles6_one_replica, cycles6_three_replicas,
                     cycles6_two_replicas, find_cycles4, find_cycles6,
                     kernel_count_span, kernel_objective, lifted_cycles4,
                     lifted_cycles6, protograph_cycles6, random_partition,
                     sorted_key_cycles6, span_terms, starter_tuples,
                     tuple_active_cycles6, tuple_cycle_arrays,
                     tuple_lifted_cycles4)


def test_direct_count_all_ones():
    # 3 x n all-ones: one row triple, n(n-1)(n-2) ordered column choices
    for n in (3, 4, 5):
        h = np.ones((3, n), dtype=bool)
        assert count_cycles6(h) == n * (n - 1) * (n - 2)


def test_direct_count_known_small():
    h = np.array([
        [1, 1, 0, 1],
        [1, 0, 1, 1],
        [0, 1, 1, 1],
    ], dtype=bool)
    # enumerate by hand: triples of rows = 1, needs injective col choices
    assert count_cycles6(h) == len(find_cycles6(h))


def _random_matrices(rng, n):
    """Seeded 0/1 matrices of 0-12 rows and columns, bool or uint8.

    Each column draws its degree from 0 to the row count; some draws clear
    a row; edge shapes and all-ones matrices come first.
    """
    cases = [np.zeros((0, 0)), np.zeros((0, 7)), np.zeros((6, 0)),
             np.zeros((5, 5)), np.ones((1, 9)), np.ones((9, 1)),
             np.ones((3, 3)), np.ones((5, 7)), np.ones((10, 10))]
    while len(cases) < n:
        n_rows, n_cols = (int(v) for v in rng.integers(0, 13, size=2))
        h = np.zeros((n_rows, n_cols), dtype=bool)
        for c in range(n_cols):
            d = int(rng.integers(0, n_rows + 1))
            h[rng.choice(n_rows, size=d, replace=False), c] = True
        if n_rows and rng.random() < 0.3:
            h[rng.integers(n_rows)] = False
        cases.append(h)
    return [h.astype(np.uint8 if i % 2 else bool) for i, h in enumerate(cases)]


def _random_lifts(rng, n):
    out = []
    for _ in range(n):
        g, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p, m = int(rng.integers(1, 6)), int(rng.integers(0, 3))
        L = int(rng.integers(1, 4))
        code = CirculantBlockCode(g, k, p, rng.integers(0, p, size=(g, k)))
        out.append(sc_lift(SCCodeSpec(code, random_partition(rng, g, k, m), L)))
    return out


def test_direct_counts_match_brute_force(monkeypatch):
    rng = np.random.default_rng(41)
    with_cycles = 0
    for h in _random_matrices(rng, 320) + _random_lifts(rng, 60):
        want6, want4 = brute_cycles6(h), brute_cycles4(h)
        with_cycles += want6 > 0
        # the default chunk, then a few wedges per pass of the triangle sum
        for chunk in (cycle_census._WEDGE_CHUNK, 3):
            monkeypatch.setattr(cycle_census, "_WEDGE_CHUNK", chunk)
            for form in (h, ColumnLists.from_dense(h)):
                assert count_cycles6(form) == want6
                assert count_cycles4(form) == want4
    assert with_cycles > 150


def _sparse_matrices(rng, n):
    """Seeded sparse matrices of 30-400 rows, column weights 2-6.

    Some columns repeat (overlaps above 1), some rows stay empty, and in
    every third matrix one row, the first or a random one, shares a column
    with every other row; every fourth case is a lift with p <= 7.
    """
    out = []
    for t in range(n):
        if t % 4 == 3:
            g, k, p = (int(v) for v in rng.integers((2, 3, 2), (5, 9, 8)))
            m, L = int(rng.integers(0, 3)), int(rng.integers(1, 6))
            code = CirculantBlockCode(g, k, p, rng.integers(0, p, size=(g, k)))
            spec = SCCodeSpec(code, random_partition(rng, g, k, m), L)
            out.append(ColumnLists.from_dense(sc_lift(spec)))
            continue
        n_rows = int(rng.integers(30, 401))
        empty = rng.choice(n_rows, size=n_rows // 10, replace=False)
        weights = rng.integers(2, 7, size=int(rng.integers(n_rows // 2, n_rows + 1)))
        cols = [np.sort(rng.choice(n_rows, size=int(d), replace=False))
                for d in weights]
        cols = [c[~np.isin(c, empty)] for c in cols]
        cols += [cols[c] for c in rng.integers(0, len(cols), size=len(cols) // 8)]
        if t % 3 == 0:
            hub = 0 if t % 2 else int(rng.integers(n_rows))
            cols += [np.array(sorted((hub, r))) for r in range(n_rows) if r != hub]
        degree = [len(c) for c in cols]
        out.append(ColumnLists((n_rows, len(cols)), np.concatenate(cols),
                               np.repeat(np.arange(len(cols)), degree)))
    return out


def test_count_cycles6_matches_sorted_key_oracle(monkeypatch):
    # blocks of one row and chunks of one arm occur at chunk 1 and 3
    rng = np.random.default_rng(23)
    cases = _sparse_matrices(rng, 80)
    assert sum(c.shape[0] >= 200 for c in cases) > 20
    for h in cases:
        want = sorted_key_cycles6(h)
        for chunk in (cycle_census._WEDGE_CHUNK, 1, 3):
            monkeypatch.setattr(cycle_census, "_WEDGE_CHUNK", chunk)
            assert count_cycles6(h) == want


def test_count_cycles6_memory_stays_linear():
    # a table over all row pairs would take 400 MB here
    rng = np.random.default_rng(7)
    n_rows, n_cols = 20_000, 30_000
    rows = rng.integers(0, n_rows, size=(n_cols, 3))
    while True:
        ordered = np.sort(rows, axis=1)
        repeat = np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
        if not repeat.any():
            break
        rows[repeat] = rng.integers(0, n_rows, size=(int(repeat.sum()), 3))
    h = ColumnLists((n_rows, n_cols), ordered.ravel(),
                    np.repeat(np.arange(n_cols), 3))
    tracemalloc.start()
    try:
        got = count_cycles6(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == sorted_key_cycles6(h)
    assert peak < 16 << 20, peak


@pytest.mark.parametrize("table, message", [
    # pair (0, 1) claims more shared columns than its columns can hold
    ((np.array([1]), np.array([5]), np.array([10])), "negative"),
    # unsorted pair keys would hide the triangle {0, 1, 2} from its lookup
    ((np.array([5, 1, 2]), np.ones(3, dtype=np.int64),
      np.zeros(3, dtype=np.int64)), "strictly increasing"),
    # the triangle {0, 1, 2} with an excess no set of columns can give
    ((np.array([1, 2, 5]), np.ones(3, dtype=np.int64),
      np.array([1, 0, 0])), "multiple of 3"),
])
def test_count_cycles6_invariant_breaks_raise(monkeypatch, table, message):
    monkeypatch.setattr(cycle_census, "_row_pair_overlaps", lambda h: table)
    with pytest.raises(RuntimeError, match=message):
        count_cycles6(np.ones((3, 3), dtype=bool))


def test_kernel_one_replica_all_equal():
    for n in range(0, 6):
        assert cycles6_one_replica(n, n, n, n) == n * max(n - 1, 0) * max(n - 2, 0)


def test_kernel_one_replica_disjoint_pairs():
    # no triple overlap: product of the three pairwise overlaps
    assert cycles6_one_replica(0, 2, 3, 4) == 2 * 3 * 4
    assert cycles6_one_replica(0, 1, 1, 1) == 1


def test_kernel_guards_on_consistent_inputs():
    # triple overlap can never exceed any pairwise overlap; under that
    # consistency the guarded kernels stay non-negative
    rng = np.random.default_rng(0)
    for _ in range(200):
        ab, ac, bc, far = rng.integers(0, 6, size=4)
        abc = int(rng.integers(0, min(ab, ac, bc) + 1))
        assert cycles6_one_replica(abc, ab, ac, bc) >= 0
        assert cycles6_two_replicas(abc, ab, ac, far) >= 0
    assert cycles6_three_replicas(2, 3, 4) == 24


def test_span_term_structure_gamma3_m1():
    a_terms = span_terms(3, 1, 1)
    assert all(t[0] == "A" for t in a_terms)
    assert len(a_terms) == 20  # every row triple of the two stacked components

    def distinct_residues(term):
        keys = {r for part in term[1:] for r in part}
        return len({r % 3 for r in keys}) == len({r for r in keys})

    # only triples hitting three different base rows can contribute
    assert sum(distinct_residues(t) for t in a_terms) == 8
    b_terms = [t for t in span_terms(3, 1, 2) if t[0] == "B"]
    assert len(b_terms) == 36  # 3 pairs x 6 rows x 2 shift directions


def test_span_terms_three_replicas_need_memory_or_length():
    assert span_terms(3, 1, 3) == []  # m=1: spans end at m+1=2


def test_census_spans_match_bruteforce_starters():
    rng = np.random.default_rng(1)
    for _ in range(25):
        g = int(rng.integers(2, 5))
        k = int(rng.integers(2, 7))
        m = int(rng.integers(1, 3))
        part = random_partition(rng, g, k, m)
        L = m + 3
        spec = SCCodeSpec(ab_code(g, k, 5), part, L)
        ov = overlaps_from_partition(part)
        per_span = np.bincount(starter_cycles6(spec)[0], minlength=m + 2)
        census = census_protograph(ov, m + 1)
        for kk in range(1, min(m + 1, L) + 1):
            assert census.per_span[kk] == per_span[kk]


def test_shape_count_matches_kernel_oracle():
    # the census spans of random partitions, every one, against the paper's
    # three kernels; then the optimizer's objective on pattern-count rows
    # large enough that two or three columns of a shape can coincide
    rng = np.random.default_rng(12)
    spans = 0
    for _ in range(320):
        g, m = int(rng.integers(1, 6)), int(rng.integers(0, 4))
        if (m + 1) ** g > 256:
            m = int(rng.integers(0, 2))
        part = random_partition(rng, g, int(rng.integers(1, 10)), m)
        ov = overlaps_from_partition(part)
        census = census_protograph(ov, m + 1)
        for k in range(1, m + 2):
            assert census.per_span[k] == kernel_count_span(ov, k), (g, m, k)
            spans += 1
    assert spans > 600
    rows = 0
    for g in range(1, 6):
        for m in range(0, 4):
            if (m + 1) ** g > 256:
                continue
            for L in sorted({1, 2, m + 1, 30}):
                n = int(rng.integers(30, 60))
                batch = rng.multinomial(int(rng.integers(1, 18)),
                                        np.ones((m + 1) ** g) / (m + 1) ** g,
                                        size=n)
                got = _Evaluator(g, m, L).objective(batch)
                assert np.array_equal(got, kernel_objective(g, m, L, batch)), \
                    (g, m, L)
                rows += n
    assert rows >= 2000
    # the objective runs in float64: rows of large total, up to the largest
    # whose partial sums stay below 2**53, are exact; one more column raises
    for g, m, L in ((3, 1, 30), (4, 1, 30), (3, 2, 4), (5, 0, 1)):
        bound = math.comb(g, 3) * L
        limit = int((2 ** 53 / bound) ** (1 / 3))
        while bound * limit * (limit + 1) * (limit + 2) >= 1 << 53:
            limit -= 1
        batch = rng.multinomial(limit, np.ones((m + 1) ** g) / (m + 1) ** g,
                                size=20)
        batch[0] = 0
        batch[0, 0] = limit
        got = _Evaluator(g, m, L).objective(batch)
        assert np.array_equal(got, kernel_objective(g, m, L, batch)), (g, m, L)
        assert got.max() > 1 << 40
        batch[1, 0] += 1
        with pytest.raises(ValueError, match=r"2\*\*53"):
            _Evaluator(g, m, L).objective(batch)


def test_objective_rows_run_in_chunks(monkeypatch):
    # ShapeCount contracts _SHAPE_ROWS rows at a time: a batch over several
    # chunks, the last one partial, scores every row as the oracle does, and
    # a row past the first chunk that could pass 2**53 raises
    monkeypatch.setattr(cycle_census, "_SHAPE_ROWS", 7)
    rng = np.random.default_rng(13)
    for g, m, L in ((3, 1, 30), (4, 2, 5)):
        batch = rng.multinomial(17, np.ones((m + 1) ** g) / (m + 1) ** g, size=45)
        ev = _Evaluator(g, m, L)
        assert np.array_equal(ev.objective(batch), kernel_objective(g, m, L, batch))
        assert ev.objective(batch[:0]).tolist() == []
        batch[40, 0] = 1 << 20
        with pytest.raises(ValueError, match=r"2\*\*53"):
            ev.objective(batch)


def test_census_total_is_the_optimizer_objective():
    # one contraction: the census of a partition and the objective of its
    # pattern counts
    rng = np.random.default_rng(24)
    for _ in range(60):
        g, m = int(rng.integers(1, 6)), int(rng.integers(0, 3))
        L = int(rng.integers(1, 8))
        part = random_partition(rng, g, int(rng.integers(1, 12)), m)
        counts = overlaps_from_partition(part).counts
        assert census_from_partition(part, L).total == \
            _Evaluator(g, m, L).objective(counts[None])[0], (g, m, L)


def test_census_rejects_nonpositive_length():
    part = random_partition(np.random.default_rng(0), 3, 5, 1)
    with pytest.raises(ValueError):
        census_from_partition(part, 0)
    with pytest.raises(ValueError):
        census_protograph(overlaps_from_partition(part), -2)


def test_protograph_census_equals_bruteforce():
    rng = np.random.default_rng(2)
    for _ in range(30):
        g = int(rng.integers(2, 5))
        k = int(rng.integers(2, 7))
        m = int(rng.integers(1, 3))
        L = int(rng.integers(m + 1, 6))
        part = random_partition(rng, g, k, m)
        spec = SCCodeSpec(ab_code(g, k, 5), part, L)
        assert census_from_partition(part, L).total == protograph_cycles6(spec)


def test_census_truncates_at_short_length():
    part = random_partition(np.random.default_rng(3), 3, 5, 2)
    spec = SCCodeSpec(ab_code(3, 5, 5), part, 2)  # L = 2 < m + 1
    assert census_from_partition(part, 2).total == protograph_cycles6(spec)


def test_active_census_equals_lifted_bruteforce():
    rng = np.random.default_rng(4)
    for _ in range(10):
        g = int(rng.integers(2, 4))
        k = int(rng.integers(2, 6))
        m = int(rng.integers(1, 3))
        L = int(rng.integers(m + 1, 5))
        p = int(rng.choice((5, 7)))
        part = random_partition(rng, g, k, m)
        spec = SCCodeSpec(ab_code(g, k, p), part, L)
        assert active_cycles6(spec).total == lifted_cycles6(spec)
        assert count_lifted_cycles4(spec) == lifted_cycles4(spec)



def test_lifted_shape_count_matches_active_census():
    # several partitions per call, so batched rows equal single-row calls;
    # gamma = 2 has no 6-cycle and L < m + 1 truncates the spans
    rng = np.random.default_rng(19)
    seen = set()
    for _ in range(300):
        g, k = int(rng.integers(2, 6)), int(rng.integers(3, 8))
        m, p = int(rng.integers(0, 4)), int(rng.choice((2, 3, 5, 7, 11)))
        L = int(rng.choice((1, 2, 3, 5, 30)))
        block = CirculantBlockCode(g, k, p, rng.integers(0, p, (g, k)))
        parts = [random_partition(rng, g, k, m) for _ in range(3)]
        score = LiftedShapeCount(block, m, L)
        got = score(np.stack([part.assign for part in parts]))
        assert got.dtype == np.int64
        want = [active_cycles6(SCCodeSpec(block, part, L)).total for part in parts]
        assert got.tolist() == want
        assert [int(score(part.assign[None])[0]) for part in parts] == want
        seen.add((g == 2, L < m + 1, got.any()))
    assert (True, False, False) in seen and (False, True, True) in seen


def test_lifted_shape_count_rejects_bad_assignments():
    score = LiftedShapeCount(ab_code(3, 5, 5), 1, 4)
    good = np.zeros((2, 3, 5), dtype=np.int64)
    uncoupled = SCCodeSpec(ab_code(3, 5, 5), PartitionMatrix(1, good[0]), 4)
    assert score(good).tolist() == [active_cycles6(uncoupled).total] * 2
    assert score(good[:0]).tolist() == []
    for bad in (good[0], good[:, :2], good[:, :, :4], good.reshape(2, 5, 3)):
        with pytest.raises(ValueError, match="assignments must be"):
            score(bad)
    for value in (-1, 2):
        wrong = good.copy()
        wrong[1, 2, 3] = value
        with pytest.raises(ValueError, match="component indices"):
            score(wrong)


def test_active_plus_inactive_covers_protograph():
    rng = np.random.default_rng(5)
    part = random_partition(rng, 3, 6, 1)
    spec = SCCodeSpec(ab_code(3, 6, 7), part, 5)
    act = active_cycles6(spec)
    cen = census_from_partition(part, 5)
    for k, n in cen.per_span.items():
        assert 0 <= act.active_per_span.get(k, 0) <= n
    assert act.per_span == cen.per_span


def test_p1_every_class_is_active():
    rng = np.random.default_rng(6)
    part = random_partition(rng, 3, 5, 1)
    spec = SCCodeSpec(ab_code(3, 5, 1), part, 4)
    assert active_cycles6(spec).total == census_from_partition(part, 4).total


def test_power_sum_walk_signs():
    part = partition_from_cutting_vector((1, 3, 4), 3, 5)
    spec = SCCodeSpec(ab_code(3, 5, 7), part, 4)
    f = spec.block.powers
    _, rows, cols = starter_cycles6(spec)
    rows, cols = rows[:20], cols[:20]
    sums = cycle_census._power_sums(spec, rows, cols)
    assert len(sums) == 20
    for n in range(20):
        r1, r2, r3 = (int(r) % 3 for r in rows[n])
        c12, c13, c23 = (int(c) % 5 for c in cols[n])
        manual = (f[r1, c13] - f[r1, c12] + f[r2, c12] - f[r2, c23]
                  + f[r3, c23] - f[r3, c13]) % 7
        assert cycle6_power_sum(spec, rows[n], cols[n]) == manual
        assert sums[n] == manual


def test_starters_begin_in_first_replica():
    part = random_partition(np.random.default_rng(7), 3, 5, 2)
    spec = SCCodeSpec(ab_code(3, 5, 5), part, 6)
    span, rows, cols = starter_cycles6(spec)
    assert len(span) > 0
    assert span.shape + (3,) == rows.shape == cols.shape
    assert (cols // 5).min(axis=1).tolist() == [0] * len(span)
    assert (span == (cols // 5).max(axis=1) + 1).all()


def test_starter_arrays_match_tuple_oracle():
    rng = np.random.default_rng(9)
    short = 0
    for _ in range(220):
        g, k = int(rng.integers(2, 6)), int(rng.integers(2, 8))
        m, L = int(rng.integers(0, 4)), int(rng.integers(1, 6))
        p = int(rng.choice((1, 4, 5, 7)))
        short += L < m + 1
        code = CirculantBlockCode(g, k, p, rng.integers(0, p, size=(g, k)))
        spec = SCCodeSpec(code, random_partition(rng, g, k, m), L)
        act = active_cycles6(spec)
        assert (act.per_span, act.active_per_span) == tuple_active_cycles6(spec)
        assert count_lifted_cycles4(spec) == tuple_lifted_cycles4(spec)
        for starters, find in ((starter_cycles6, find_cycles6),
                               (starter_cycles4, find_cycles4)):
            span, rows, cols = starters(spec)
            want = starter_tuples(spec, find)
            assert span.tolist() == [kk for kk, _, _ in want]
            assert rows.tolist() == [list(r) for _, r, _ in want]
            assert cols.tolist() == [list(c) for _, _, c in want]
            assert span.dtype == rows.dtype == cols.dtype == np.int64
        system = CycleSystem(spec)
        res6, _, span6, res4 = tuple_cycle_arrays(spec)
        for got, expect in zip((system.res6, system.span6, system.res4),
                               (res6, span6, res4)):
            assert got.dtype == np.int64
            assert got.shape == expect.shape
            assert (got == expect).all()
    assert short > 20


def test_census_protograph_from_overlaps_matches_partition_route():
    rng = np.random.default_rng(8)
    part = random_partition(rng, 4, 6, 2)
    ov = overlaps_from_partition(part)
    assert census_protograph(ov, 8).total == census_from_partition(part, 8).total


def test_cycles4_bruteforce_on_known_matrix():
    h = np.ones((2, 2), dtype=bool)
    assert count_cycles4(h) == 1
    h2 = np.eye(3, dtype=bool)
    assert count_cycles4(h2) == 0
