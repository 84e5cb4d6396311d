from __future__ import annotations

import numpy as np
import pytest

from scldpc.code_model import (CirculantBlockCode, ColumnLists,
                               PartitionMatrix, SCCodeSpec, ab_code, ab_powers,
                               partition_from_cutting_vector,
                               partition_from_cutting_vectors, sc_lift,
                               sc_lift_columns, sc_protograph, window)

from oracles import dense_sc_lift


def uncoupled_lift(code):
    """Lifted matrix of the block code alone: one replica, one component."""
    zeros = np.zeros((code.gamma, code.kappa), dtype=np.int64)
    return sc_lift(SCCodeSpec(code, PartitionMatrix(0, zeros), 1))


def test_ab_powers_values():
    f = ab_powers(3, 17, 17)
    assert f.shape == (3, 17)
    assert not f[0].any()
    assert f[2, 3] == 6
    assert f[2, 9] == (2 * 9) % 17


def test_ab_powers_wrap():
    f = ab_powers(4, 7, 7)
    assert f[3, 5] == (3 * 5) % 7 == 1


def test_circulant_orientation():
    # one block, power 2, p=5: column b carries its 1 at row (b+2) mod 5
    h = uncoupled_lift(CirculantBlockCode(1, 1, 5, np.array([[2]])))
    for b in range(5):
        col = np.nonzero(h[:, b])[0]
        assert col.tolist() == [(b + 2) % 5]


def test_uncoupled_lift_small_known():
    code = CirculantBlockCode(1, 2, 3, np.array([[0, 1]]))
    h = uncoupled_lift(code)
    ident = np.eye(3, dtype=bool)
    shift = np.zeros((3, 3), dtype=bool)
    for b in range(3):
        shift[(b + 1) % 3, b] = True
    assert np.array_equal(h[:, :3], ident)
    assert np.array_equal(h[:, 3:], shift)


def test_block_code_validation():
    with pytest.raises(ValueError):
        CirculantBlockCode(2, 2, 5, np.zeros((3, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        CirculantBlockCode(1, 1, 5, np.array([[5]]))
    with pytest.raises(ValueError):
        CirculantBlockCode(1, 1, 0, np.array([[0]]))


def test_lifted_weights():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = int(rng.integers(1, 4))
        k = int(rng.integers(1, 5))
        p = int(rng.integers(2, 7))
        code = CirculantBlockCode(g, k, p, rng.integers(0, p, size=(g, k)))
        h = uncoupled_lift(code)
        assert h.shape == (g * p, k * p)
        assert (h.sum(axis=0) == g).all()
        assert (h.sum(axis=1) == k).all()


def test_cutting_vector_partition():
    part = partition_from_cutting_vector((4, 9, 13), 3, 17)
    assert part.m == 1
    for i, z in enumerate((4, 9, 13)):
        assert not part.assign[i, :z].any()
        assert (part.assign[i, z:] == 1).all()


def test_cutting_vector_must_ascend():
    with pytest.raises(ValueError):
        partition_from_cutting_vector((9, 4, 13), 3, 17)
    with pytest.raises(ValueError):
        partition_from_cutting_vector((4, 9, 18), 3, 17)


def test_two_cutting_vectors_make_three_segments():
    part = partition_from_cutting_vectors([(2, 3, 4), (3, 5, 6)], 3, 7)
    assert part.m == 2
    for i, (z1, z2) in enumerate(zip((2, 3, 4), (3, 5, 6))):
        assert not part.assign[i, :z1].any()
        assert (part.assign[i, z1:z2] == 1).all()
        assert (part.assign[i, z2:] == 2).all()


def test_one_cutting_vector_matches_single_vector_form():
    a = partition_from_cutting_vectors([(4, 9, 13)], 3, 17)
    b = partition_from_cutting_vector((4, 9, 13), 3, 17)
    assert np.array_equal(a.assign, b.assign)
    assert a.m == b.m == 1


def test_cutting_vectors_allow_repeats_but_require_dominance():
    part = partition_from_cutting_vectors([(4, 4, 12), (4, 12, 12)], 3, 17)
    assert (part.assign[0, 4:] == 2).all()  # empty middle segment in row 0
    with pytest.raises(ValueError):
        partition_from_cutting_vectors([(4, 9, 13), (3, 9, 13)], 3, 17)
    with pytest.raises(ValueError):
        partition_from_cutting_vectors([(9, 4, 13), (9, 9, 13)], 3, 17)
    with pytest.raises(ValueError):
        partition_from_cutting_vectors([], 3, 17)


def test_partition_component_masks_tile_the_protograph():
    rng = np.random.default_rng(1)
    part = PartitionMatrix(2, rng.integers(0, 3, size=(3, 6)))
    acc = np.zeros((3, 6), dtype=int)
    for x in range(3):
        acc += part.component(x)
    assert (acc == 1).all()


def test_partition_entry_range_checked():
    with pytest.raises(ValueError):
        PartitionMatrix(1, np.array([[0, 2], [1, 0]]))


def test_sc_protograph_structure():
    rng = np.random.default_rng(2)
    g, k = 3, 5
    for m in range(4):
        for L in (1, 2, 6):
            part = PartitionMatrix(m, rng.integers(0, m + 1, size=(g, k)))
            spec = SCCodeSpec(ab_code(g, k, 7), part, L)
            proto = sc_protograph(spec)
            assert proto.shape == ((L + m) * g, L * k)
            for r in range(1, L + 1):
                for x in range(m + 1):
                    block = proto[(r - 1 + x) * g:(r + x) * g, (r - 1) * k:r * k]
                    assert np.array_equal(block, part.component(x))
            # nothing outside the band
            assert proto.sum() == L * g * k


def test_sc_lift_shape_and_weights():
    part = partition_from_cutting_vector((1, 3, 4), 3, 5)
    spec = SCCodeSpec(ab_code(3, 5, 5), part, 4)
    h = sc_lift(spec)
    assert h.shape == ((4 + 1) * 3 * 5, 4 * 5 * 5)
    assert (h.sum(axis=0) == 3).all()


def test_sc_lift_columns_match_dense_oracle():
    rng = np.random.default_rng(23)
    for _ in range(240):
        g, k = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        p, m = int(rng.integers(1, 8)), int(rng.integers(0, 3))
        L = int(rng.integers(1, 5))
        block = CirculantBlockCode(g, k, p, rng.integers(0, p, size=(g, k)))
        part = PartitionMatrix(m, rng.integers(0, m + 1, size=(g, k)))
        spec = SCCodeSpec(block, part, L)
        want, h = dense_sc_lift(spec), sc_lift(spec)
        assert h.dtype == np.uint8 and np.array_equal(h, want)
        lists = sc_lift_columns(spec)
        for seen in (ColumnLists.from_dense(want), ColumnLists.from_dense(h)):
            assert lists.shape == seen.shape
            assert np.array_equal(lists.rows, seen.rows)
            assert np.array_equal(lists.cols, seen.cols)
        assert np.array_equal(lists.dense(), want.astype(bool))


@pytest.mark.parametrize("shape, rows, cols, message", [
    ((2, 3, 1), [0], [0], "shape"),
    ((2, -1), [], [], "shape"),
    ((2, 2.5), [0], [0], "shape"),
    ((2, 3), [0, 1], [0], "one length"),
    ((2, 3), [[0]], [[0]], "1-d"),
    ((2, 3), [0, 2], [0, 1], "row index outside"),
    ((2, 3), [0, -1], [0, 1], "row index outside"),
    ((2, 3), [0, 1], [0, 3], "column index outside"),
    ((2, 3), [0, 0], [1, 0], "sorted by column"),
    ((2, 3), [1, 0], [0, 0], "rows ascending"),
    ((2, 3), [1, 1], [0, 0], "none repeated"),
])
def test_column_lists_reject_bad_input(shape, rows, cols, message):
    with pytest.raises(ValueError, match=message):
        ColumnLists(shape, np.array(rows), np.array(cols))


def test_column_lists_round_trip_dense():
    rng = np.random.default_rng(8)
    for shape in ((1, 1), (4, 9), (7, 3), (0, 4)):
        h = rng.random(shape) < 0.4
        ones = ColumnLists.from_dense(h.astype(np.uint8))
        assert np.array_equal(ones.dense(), h)
        assert ones.rows.flags.writeable is False


def test_p1_lift_equals_protograph():
    rng = np.random.default_rng(3)
    part = PartitionMatrix(1, rng.integers(0, 2, size=(3, 4)))
    spec = SCCodeSpec(ab_code(3, 4, 1), part, 5)
    assert np.array_equal(sc_lift(spec), sc_protograph(spec))


def test_window_contains_all_column_ones():
    # every column of a window keeps its full weight inside the window
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = int(rng.integers(2, 5))
        k = int(rng.integers(2, 6))
        m = int(rng.integers(0, 3))
        L = int(rng.integers(m + 1, 7))
        part = PartitionMatrix(m, rng.integers(0, m + 1, size=(g, k)))
        spec = SCCodeSpec(ab_code(g, k, 5), part, L)
        kw = int(rng.integers(1, L + 1))
        r = int(rng.integers(1, L - kw + 2))
        win = window(spec, r, kw)
        assert win.shape == ((m + kw) * g, kw * k)
        assert (win.sum(axis=0) == g).all()


def test_window_bounds_checked():
    part = partition_from_cutting_vector((1, 2, 3), 3, 4)
    spec = SCCodeSpec(ab_code(3, 4, 5), part, 4)
    with pytest.raises(ValueError):
        window(spec, 0, 1)
    with pytest.raises(ValueError):
        window(spec, 3, 3)


def test_spec_dimension_mismatch():
    part = partition_from_cutting_vector((1, 2, 3), 3, 4)
    with pytest.raises(ValueError):
        SCCodeSpec(ab_code(3, 5, 5), part, 4)


def test_lifted_window_matches_full_slice():
    part = partition_from_cutting_vector((1, 3), 2, 4)
    spec = SCCodeSpec(ab_code(2, 4, 3), part, 5)
    h = sc_lift(spec)
    win = window(spec, 2, 2, lifted=True)
    g, k, p, m = 2, 4, 3, 1
    rows = slice((2 - 1) * g * p, (2 + m + 2 - 1) * g * p)
    cols = slice((2 - 1) * k * p, (2 + 2 - 1) * k * p)
    assert np.array_equal(win, h[rows, cols])


def test_window_matches_full_matrix_slice_random():
    rng = np.random.default_rng(11)
    for _ in range(60):
        g, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        p, m = int(rng.integers(1, 6)), int(rng.integers(0, 3))
        L = int(rng.integers(1, 6))
        block = CirculantBlockCode(g, k, p, rng.integers(0, p, size=(g, k)))
        part = PartitionMatrix(m, rng.integers(0, m + 1, size=(g, k)))
        spec = SCCodeSpec(block, part, L)
        kw = int(rng.integers(1, L + 1))
        r = int(rng.integers(1, L - kw + 2))
        for lifted, full in ((False, sc_protograph(spec)), (True, sc_lift(spec))):
            s = p if lifted else 1
            rows = slice((r - 1) * g * s, (r + m + kw - 1) * g * s)
            cols = slice((r - 1) * k * s, (r + kw - 1) * k * s)
            assert np.array_equal(window(spec, r, kw, lifted), full[rows, cols])
