from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from scldpc import trapping_sets
from scldpc.code_model import (CirculantBlockCode, PartitionMatrix, SCCodeSpec,
                               ab_code, partition_from_cutting_vector,
                               partition_from_cutting_vectors, sc_lift, window)
from scldpc.cycle_census import active_cycles6
from scldpc.trapping_sets import (MAX_SUBSET_SIZE, ObjectSpecies, classify,
                                  common_denominator, dominant_species,
                                  enumerate_objects, max_shortest_path_vns,
                                  replica_span)

from oracles import (all_subsets_species_count, brute_connected_subsets,
                     connected_species_count, cycle_template, dense_classify,
                     random_partition, six_four_template,
                     windowed_species_census)


def four_two_template():
    """Column weight 3: an eight-cycle with a chord and two unshared checks."""
    t = np.zeros((7, 4), dtype=bool)
    for r, (x, y) in enumerate([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]):
        t[r, x] = True
        t[r, y] = True
    t[5, 1] = True
    t[6, 3] = True
    return t


def test_classify_cycle_triple():
    cfg = classify(cycle_template(3, 3), [0, 1, 2])
    assert (cfg.a, cfg.b) == (3, 3)
    assert cfg.is_absorbing_set
    assert cfg.check_degrees == (2, 2, 2, 1, 1, 1)


def test_classify_four_two_absorbing():
    cfg = classify(four_two_template(), range(4))
    assert (cfg.a, cfg.b) == (4, 2)
    assert cfg.is_absorbing_set


def test_classify_trapping_only():
    # column weight 4 cycle triple: each variable sees two odd checks
    cfg = classify(cycle_template(3, 4), [0, 1, 2])
    assert (cfg.a, cfg.b) == (3, 6)
    assert not cfg.is_absorbing_set


def test_classify_six_four():
    cfg = classify(six_four_template(), range(6))
    assert (cfg.a, cfg.b) == (6, 4)
    assert cfg.is_absorbing_set


def test_classify_subset_of_matrix():
    h = np.zeros((5, 6), dtype=np.int64)
    h[:3, :3] = cycle_template(3, 2)[:, :]
    cfg = classify(h, [0, 1, 2])
    assert (cfg.a, cfg.b) == (3, 0)
    assert cfg.check_rows == (0, 1, 2)


def test_classify_rejects_empty():
    with pytest.raises(ValueError):
        classify(np.eye(3), [])


@pytest.mark.parametrize("cols, message", [
    ([0, 0], "column 0 repeated"),
    ([2, 1, 2], "column 2 repeated"),
    ([-1], r"column -1 outside \[0, 3\)"),
    ([0, 5], r"column 5 outside \[0, 3\)"),
    ([3], r"column 3 outside \[0, 3\)"),
])
def test_classify_rejects_bad_columns(cols, message):
    with pytest.raises(ValueError, match=message):
        classify(np.eye(3), cols)


def test_classify_matches_dense_oracle_on_irregular_matrices():
    rng = np.random.default_rng(17)
    absorbing = 0
    for _ in range(300):
        rows, cols = int(rng.integers(1, 13)), int(rng.integers(6, 15))
        # a density per column gives irregular degrees, zero included
        h = rng.random((rows, cols)) < rng.random(cols) * (rng.random(cols) > 0.15)
        h = h.astype(rng.choice([bool, np.uint8, np.int64]))
        sub = rng.choice(cols, size=int(rng.integers(1, 7)), replace=False)
        got, want = classify(h, sub), dense_classify(h, sub)
        assert got == want
        assert all(type(v) is int for v in got.check_rows + got.check_degrees)
        absorbing += got.is_absorbing_set
    assert 10 <= absorbing <= 290, absorbing


def test_classify_many_columns_memory():
    # in-set degrees come from sorting the set's row entries, so the traced
    # peak stays linear in its ones; comparing every pair of them traced
    # about 105 MB here
    spec = SCCodeSpec(ab_code(3, 17, 17),
                      partition_from_cutting_vector([4, 9, 13], 3, 17), 10)
    h = sc_lift(spec)
    tracemalloc.start()
    try:
        got = classify(h, range(2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == dense_classify(h, range(2000))
    assert (got.a, got.b, got.is_absorbing_set) == (2000, 368, False)
    assert peak < 8 * 2**20, peak


def test_path_width_examples():
    assert max_shortest_path_vns(cycle_template(3)) == 2
    assert max_shortest_path_vns(cycle_template(4)) == 3
    assert max_shortest_path_vns(cycle_template(5)) == 3
    assert max_shortest_path_vns(cycle_template(6)) == 4
    assert max_shortest_path_vns(four_two_template()) == 3
    assert max_shortest_path_vns(six_four_template()) == 3


def test_path_width_requires_connected():
    t = np.zeros((4, 4), dtype=bool)
    t[0, 0] = t[0, 1] = True
    t[1, 2] = t[1, 3] = True
    with pytest.raises(ValueError):
        max_shortest_path_vns(t)
    with pytest.raises(ValueError):
        max_shortest_path_vns(np.zeros((3, 0), dtype=bool))


def test_replica_span_values():
    assert replica_span(2, 1) == 2
    assert replica_span(3, 1) == 3
    assert replica_span(2, 2) == 3
    assert replica_span(4, 2) == 7
    assert replica_span(1, 3) == 1
    with pytest.raises(ValueError):
        replica_span(0, 1)


def test_common_denominator_by_weight():
    assert common_denominator(3) == ObjectSpecies(3, 3, "AS", 2)
    assert common_denominator(4) == ObjectSpecies(3, 6, "TS", 2)
    assert common_denominator(5) == ObjectSpecies(3, 9, "TS", 2)
    with pytest.raises(ValueError):
        common_denominator(2)


def test_dominant_species_tables():
    by3 = dominant_species(3)
    assert [(s.a, s.b, s.kind) for s in by3] == [
        (3, 3, "AS"), (4, 2, "AS"), (5, 3, "AS")]
    by4 = dominant_species(4)
    assert [(s.a, s.b, s.kind) for s in by4] == [
        (4, 4, "AS"), (6, 4, "AS"), (3, 6, "TS")]
    by5 = dominant_species(5)
    assert [(s.a, s.b, s.kind) for s in by5] == [
        (4, 8, "AS"), (8, 6, "AS"), (3, 9, "TS")]
    # template-derived widths never exceed the tabulated bounds
    assert max_shortest_path_vns(six_four_template()) <= by4[1].path_vns
    with pytest.raises(ValueError):
        dominant_species(6)


def test_species_validation():
    with pytest.raises(ValueError):
        ObjectSpecies(3, 3, "XX", 2)
    with pytest.raises(ValueError):
        ObjectSpecies(0, 3, "TS", 2)


def test_classify_invariant_under_column_permutation():
    rng = np.random.default_rng(5)
    h = (rng.random((8, 10)) < 0.35).astype(np.int64)
    cols = [1, 4, 7]
    perm = rng.permutation(10)
    hp = h[:, perm]
    mapped = [int(np.nonzero(perm == c)[0][0]) for c in cols]
    a = classify(h, cols)
    b = classify(hp, mapped)
    assert (a.a, a.b, sorted(a.check_degrees)) == (b.a, b.b,
                                                   sorted(b.check_degrees))
    assert a.is_absorbing_set == b.is_absorbing_set


def test_windowed_count_matches_full_matrix_search():
    rng = np.random.default_rng(1)
    for _ in range(3):
        part = random_partition(rng, 3, 5, 1)
        spec = SCCodeSpec(ab_code(3, 5, 5), part, 4)
        h = sc_lift(spec)
        for species in (common_denominator(3), ObjectSpecies(4, 2, "AS", 3)):
            census = enumerate_objects(spec, species)
            assert census.total == connected_species_count(h, species)


def test_connected_search_agrees_with_all_subsets_tiny():
    rng = np.random.default_rng(3)
    part = random_partition(rng, 3, 4, 1)
    spec = SCCodeSpec(ab_code(3, 4, 5), part, 3)
    h = sc_lift(spec)
    species = common_denominator(3)
    want = all_subsets_species_count(h, species)
    assert connected_species_count(h, species) == want
    assert enumerate_objects(spec, species).total == want


def test_cycle_triples_equal_active_census():
    # in a 4-cycle-free lift each surviving 6-cycle is one (3, 3) triple
    part = partition_from_cutting_vector([1, 3, 4], 3, 5)
    spec = SCCodeSpec(ab_code(3, 5, 5), part, 5)
    census = enumerate_objects(spec, common_denominator(3))
    active = active_cycles6(spec)
    assert census.per_span == {k: v * spec.p
                              for k, v in active.active_per_span.items() if v}
    assert census.total == active.total


def test_subset_size_cap():
    part = partition_from_cutting_vector([1, 3, 4], 3, 5)
    spec = SCCodeSpec(ab_code(3, 5, 5), part, 5)
    with pytest.raises(ValueError, match="closed-form"):
        enumerate_objects(spec, ObjectSpecies(MAX_SUBSET_SIZE + 1, 2, "AS", 2))


def test_window_size_cap():
    part = PartitionMatrix(1, np.zeros((3, 17), dtype=np.int64))
    spec = SCCodeSpec(ab_code(3, 17, 131), part, 4)
    with pytest.raises(ValueError, match="columns"):
        enumerate_objects(spec, ObjectSpecies(3, 3, "AS", 2))


def random_species_case(rng):
    """A random coupled code and a species drawn from one of its subsets.

    b is read off a random connected subset of the lift, so most species
    occur; an AS draw retries until the subset is absorbing.
    """
    gamma, kappa = int(rng.integers(2, 5)), int(rng.integers(1, 5))
    p, m = int(rng.choice([2, 3, 4, 5, 6, 8, 9])), int(rng.integers(0, 3))
    block = CirculantBlockCode(gamma, kappa, p,
                               rng.integers(0, p, size=(gamma, kappa)))
    spec = SCCodeSpec(block, random_partition(rng, gamma, kappa, m),
                      int(rng.integers(1, 5)))
    h = sc_lift(spec).astype(bool)
    a, kind = int(rng.integers(1, 6)), str(rng.choice(["TS", "AS"]))
    for _ in range(20):
        sub = [int(rng.integers(kappa * p))]
        while len(sub) < a:
            near = np.nonzero(h[h[:, sub].any(axis=1)].any(axis=0))[0]
            near = np.setdiff1d(near, sub)
            if not len(near):
                break
            sub.append(int(rng.choice(near)))
        cfg = classify(h, sub)
        if kind == "TS" or cfg.is_absorbing_set:
            break
    return spec, ObjectSpecies(cfg.a, cfg.b, kind, int(rng.integers(1, 4)))


def test_orbit_search_matches_all_roots_oracle():
    rng = np.random.default_rng(2024)
    found = {"TS": 0, "AS": 0}
    for _ in range(220):
        spec, species = random_species_case(rng)
        per_span = enumerate_objects(spec, species).per_span
        assert per_span == windowed_species_census(spec, species).per_span
        found[species.kind] += bool(per_span)
    assert found["TS"] >= 100 and found["AS"] >= 15


def test_orbit_with_nontrivial_stabilizer(monkeypatch):
    # p = 2, all four columns of a 2 x 2 circulant array: the set is fixed
    # by the shift, so it is found once with c = 2 and stands for 2/2 = 1
    tallies = []
    fold = trapping_sets._fold_orbit_tallies

    def spy(tally, p):
        tallies.append(dict(tally))
        return fold(tally, p)

    monkeypatch.setattr(trapping_sets, "_fold_orbit_tallies", spy)
    block = CirculantBlockCode(2, 2, 2, np.array([[0, 0], [0, 1]]))
    spec = SCCodeSpec(block, PartitionMatrix(0, np.zeros((2, 2))), 1)
    species = ObjectSpecies(4, 0, "AS", 2)
    census = enumerate_objects(spec, species)
    assert any(n % c for (_, c), n in tallies[0].items())
    assert census.per_span == windowed_species_census(spec, species).per_span
    assert census.total == all_subsets_species_count(sc_lift(spec), species)


def test_fold_rejects_a_tally_that_is_not_whole_orbits():
    assert trapping_sets._fold_orbit_tallies({(1, 2): 3, (1, 1): 1}, 4) == {1: 10}
    with pytest.raises(RuntimeError, match="orbits"):
        trapping_sets._fold_orbit_tallies({(1, 3): 1}, 4)


def random_window(rng):
    """A small window of a random coupled lift, every column one weight."""
    gamma, kappa = int(rng.integers(2, 4)), int(rng.integers(2, 6))
    p, m = int(rng.integers(2, 6)), int(rng.integers(0, 3))
    block = CirculantBlockCode(gamma, kappa, p,
                               rng.integers(0, p, size=(gamma, kappa)))
    spec = SCCodeSpec(block, random_partition(rng, gamma, kappa, m),
                      int(rng.integers(1, 4)))
    return window(spec, 1, int(rng.integers(1, spec.L + 1)), lifted=True)


@pytest.mark.parametrize("budget", [1, 7, None])
def test_connected_subsets_match_brute_force_listing(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(trapping_sets, "SEARCH_BLOCK", budget)
    budget = trapping_sets.SEARCH_BLOCK
    rng = np.random.default_rng(28)
    cases = listed = 0
    while cases < 120:
        h = random_window(rng)
        ncols = h.shape[1]
        if ncols > 30:
            continue
        lists = np.array([np.flatnonzero(col) for col in h.T])
        a = int(rng.integers(1, 6))
        roots = rng.choice(ncols, size=int(rng.integers(1, ncols + 1)),
                           replace=False)
        got = []
        for sub, rows in trapping_sets._connected_subsets(h, roots, a):
            assert sub.shape[1] == a and 1 <= len(sub) <= budget
            assert (rows == lists[sub].transpose(2, 1, 0)).all()
            # the root comes first and is the lowest column
            assert set(sub[:, 0].tolist()) <= set(roots.tolist())
            assert (sub[:, 1:] > sub[:, :1]).all()
            got += [tuple(sorted(row)) for row in sub.tolist()]
        want = brute_connected_subsets(h, roots, a)
        assert len(got) == len(set(got)), "a subset was listed twice"
        assert sorted(got) == sorted(want)
        cases += 1
        listed += len(got)
    assert listed > 10000, listed


def test_induced_matches_dense_classify_on_batches():
    # irregular columns, degree 0 included; a column's rows pad with -1
    rng = np.random.default_rng(29)
    seen = {"absorbing": 0, "degree 0": 0}
    for _ in range(60):
        nrows, ncols = int(rng.integers(1, 13)), int(rng.integers(6, 15))
        density = rng.random(ncols) * (rng.random(ncols) > 0.2)
        h = rng.random((nrows, ncols)) < density
        lists = [np.flatnonzero(col) for col in h.T]
        table = np.full((ncols, max(max(map(len, lists)), 1)), -1)
        for c, col_rows in enumerate(lists):
            table[c, :len(col_rows)] = col_rows
        a = int(rng.integers(1, 7))
        subs = np.array([rng.choice(ncols, size=a, replace=False)
                         for _ in range(int(rng.integers(1, 40)))])
        rows = table[subs].transpose(2, 1, 0)  # (d, a, n)
        b, absorbing = trapping_sets._induced(rows)
        for s, sub in enumerate(subs):
            want = dense_classify(h, sub)
            assert (b[s], absorbing[s]) == (want.b, want.is_absorbing_set)
            seen["absorbing"] += want.is_absorbing_set
            seen["degree 0"] += not h[:, sub].any(axis=0).all()
    assert min(seen.values()) >= 20, seen


def test_trapping_search_memory():
    # a (4, 2) search over a 363-column window, checked against its counts;
    # listing every subset at once instead of a block at a time peaks near
    # 45 MB here
    spec = SCCodeSpec(ab_code(3, 11, 11),
                      partition_from_cutting_vectors([[1, 6, 10]], 3, 11), 12)
    tracemalloc.start()
    try:
        census = enumerate_objects(spec, ObjectSpecies(4, 2, "TS", 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census.per_span == {1: 407, 2: 110}
    assert peak < 12e6, peak
