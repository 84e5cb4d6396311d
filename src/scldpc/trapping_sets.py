"""Trapping and absorbing set machinery.

A set of `a` variable nodes (columns) induces a subgraph of the Tanner
graph.  With `b` odd-degree check nodes in that subgraph the set is an
(a, b) trapping set; it is additionally an absorbing set if every
variable node sees strictly more even-degree than odd-degree checks
among the checks touching the set.

For column-weight gamma codes free of cycles of length 4, the cycle-6
variable triple is a (3, 3(gamma-2)) trapping set (an absorbing set
when gamma = 3) and appears as a common substructure of the dominant
error-floor objects.  Larger species are enumerated here directly, by
connected-subset search inside a window of the coupled matrix: an
object whose variable pairs are linked by shortest paths through at
most `path_vns` variables fits inside (path_vns - 1) * m + 1
consecutive replicas, so counting window-resident instances that start
in the first replica and weighting by position yields the full-matrix
count.  The search lists subsets by array ESU over column row lists, and
`_induced` classifies them a block at a time.

Within the window, shifting every circulant offset by the same s is an
automorphism that keeps each column in its replica, so the search only
starts from the kappa offset-0 columns of replica 1.  An object O whose
lowest column block holds c(O) of its columns has its lowest column at
offset 0 under exactly c(O) of the p shifts.  Those shifts are a union
of cosets of O's stabilizer H, so the orbit of p/|H| objects is found
c(O)/|H| times, and weighting each find by p/c(O) counts it exactly,
for every p.

Disconnected variable sets cannot reach the small `b` values of the
dominant species (each extra component adds at least gamma odd
checks), so the connected search is exhaustive for the species listed
in `dominant_species`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .code_model import SCCodeSpec, padded_lists, window
from .cycle_census import CycleCensus

__all__ = [
    "InducedConfig",
    "ObjectSpecies",
    "classify",
    "max_shortest_path_vns",
    "replica_span",
    "enumerate_objects",
    "dominant_species",
    "common_denominator",
]

MAX_SUBSET_SIZE = 6
MAX_WINDOW_COLUMNS = 4000
SEARCH_BLOCK = 1 << 11  # subsets built per array pass of the search


@dataclass(frozen=True)
class InducedConfig:
    """Classification of one variable-node subset."""

    vn_set: tuple
    a: int
    b: int
    check_rows: tuple
    check_degrees: tuple
    is_absorbing_set: bool


@dataclass(frozen=True)
class ObjectSpecies:
    """Target object class: sizes, kind, and path width for windowing."""

    a: int
    b: int
    kind: str  # "TS" or "AS"
    path_vns: int

    def __post_init__(self):
        if self.kind not in ("TS", "AS"):
            raise ValueError("kind must be 'TS' or 'AS'")
        if self.a < 1 or self.b < 0 or self.path_vns < 1:
            raise ValueError("invalid species sizes")


def _induced(rows: np.ndarray):
    """Odd-check counts b (each odd row at its first entry) and absorbing
    flags of n column subsets from their (d, a, n) row lists: row j of
    column v of subset s, -1 past its degree."""
    d, a, n = rows.shape
    flat = rows.reshape(d * a, n)
    acc = np.int16 if d * a < 1 << 15 else np.int64  # sums reach d * a
    eq = flat[:, None] == flat[None]  # (entries, entries, n)
    deg = eq.sum(axis=1, dtype=acc)
    odd = (deg & 1).astype(bool) & (flat >= 0)
    first = ~(eq & np.tri(d * a, k=-1, dtype=bool)[:, :, None]).any(axis=1)
    n_odd = odd.reshape(d, a, n).sum(axis=0, dtype=acc)
    absorbing = (2 * n_odd < (rows >= 0).sum(axis=0, dtype=acc)).all(axis=0)
    return (odd & first).sum(axis=0), absorbing


def classify(h: np.ndarray, vn_cols) -> InducedConfig:
    """Classify the subgraph induced by the given columns of h.

    Returns an InducedConfig carrying (a, b), the touched check rows
    with their in-set degrees, and the trapping/absorbing flags.  A column
    outside [0, h.shape[1]) or a repeated one raises ValueError.
    """
    cols = tuple(sorted(int(c) for c in vn_cols))
    if not cols:
        raise ValueError("empty variable-node set")
    ncols = np.shape(h)[1]
    for c, after in zip(cols, cols[1:] + (None,)):
        if not 0 <= c < ncols:
            raise ValueError(f"column {c} outside [0, {ncols})")
        if c == after:
            raise ValueError(f"column {c} repeated")
    # only the set's columns are read, so only they are converted
    vn, rows = np.nonzero(np.asarray(h)[:, list(cols)].T)
    touched, at, deg = np.unique(rows, return_inverse=True, return_counts=True)
    odd = deg % 2 == 1
    n_odd = np.bincount(vn[odd[at]], minlength=len(cols))
    absorbing = (2 * n_odd < np.bincount(vn, minlength=len(cols))).all()
    return InducedConfig(
        vn_set=cols,
        a=len(cols),
        b=int(odd.sum()),
        check_rows=tuple(touched.tolist()),
        check_degrees=tuple(deg.tolist()),
        is_absorbing_set=bool(absorbing),
    )


def max_shortest_path_vns(template: np.ndarray) -> int:
    """Largest number of variable nodes on a shortest path between any
    two variables of the template, endpoints included.

    `template` is the induced incidence (checks x variables).  Two
    variables are adjacent when they share a check.  Raises on an empty or
    disconnected template.
    """
    t = np.asarray(template, dtype=bool)
    if t.shape[1] == 0:
        raise ValueError("template has no variables")
    adj = (t.astype(np.int32).T @ t.astype(np.int32)) > 0
    # reach[s, v]: v lies within `hops` hops of s, for every source at once
    reach = np.eye(t.shape[1], dtype=bool)
    hops = 0
    while not reach.all():
        grown = reach | (reach @ adj)
        if (grown == reach).all():
            raise ValueError("template is disconnected")
        reach, hops = grown, hops + 1
    return hops + 1


def replica_span(path_vns: int, m: int) -> int:
    """Number of consecutive replicas that can host such an object."""
    if path_vns < 1 or m < 0:
        raise ValueError("need path_vns >= 1 and m >= 0")
    return (path_vns - 1) * m + 1


def common_denominator(gamma: int) -> ObjectSpecies:
    """The cycle-6 triple, (3, 3(gamma-2)): absorbing for gamma = 3,
    trapping otherwise."""
    if gamma < 3:
        raise ValueError("need gamma >= 3")
    return ObjectSpecies(3, 3 * (gamma - 2), "AS" if gamma == 3 else "TS", 2)


def dominant_species(gamma: int):
    """Dominant error-floor objects by column weight, common denominator
    last.  Path widths for species with several non-isomorphic forms use
    the spanning-cycle bound floor(a/2) + 1."""
    table = {
        3: [ObjectSpecies(3, 3, "AS", 2), ObjectSpecies(4, 2, "AS", 3),
            ObjectSpecies(5, 3, "AS", 3)],
        4: [ObjectSpecies(4, 4, "AS", 2), ObjectSpecies(6, 4, "AS", 4),
            ObjectSpecies(3, 6, "TS", 2)],
        5: [ObjectSpecies(4, 8, "AS", 2), ObjectSpecies(8, 6, "AS", 5),
            ObjectSpecies(3, 9, "TS", 2)],
    }
    if gamma not in table:
        raise ValueError("no species table for gamma=%d" % gamma)
    return list(table[gamma])


def _fold_orbit_tallies(tally: dict, p: int) -> dict:
    """Per-span counts from the (span k, c) tallies of offset-0 roots.

    Each find with c columns in its root's block stands for p/c objects;
    the finds of one orbit with stabilizer H number c/|H|, so n * p is a
    multiple of c for every tally n.
    """
    per_span: dict = {}
    for (k, c), n in sorted(tally.items()):
        if n * p % c:
            raise RuntimeError(
                "span %d: %d finds with %d root-block columns cannot come "
                "from whole orbits of the p=%d circulant shift" % (k, n, c, p))
        per_span[k] = per_span.get(k, 0) + n * p // c
    return per_span


def _connected_subsets(h: np.ndarray, roots: np.ndarray, a: int):
    """Yield each connected a-column subset of h whose lowest column is a
    root once, root first, in int16 blocks of at most SEARCH_BLOCK rows,
    with their row lists for `_induced`; h's columns must share one weight.
    ESU (Wernicke 2006) over arrays: the child at a live entry of a subset's
    extension row takes the entries after it and the new column's
    neighbours above the root that are neither in nor adjacent to it."""
    ncols = h.shape[1]
    cols, rows = np.nonzero(h.T)
    # row lists in the smallest int type (cheapest for `_induced`), then
    # the pad column's, all -1, which meet no row
    col_rows = padded_lists(cols, rows, ncols + 1, -1, np.min_scalar_type(-len(h)))
    # each column's neighbours and itself (adjacent to a subset it extends,
    # or the root), ascending, once each; -1 entries read an empty row
    order = np.argsort(rows, kind="stable")
    near = padded_lists(rows[order], cols[order], len(h) + 1, ncols)[col_rows]
    near = near.reshape(ncols + 1, -1)
    near.sort(axis=1)
    near[:, 1:][near[:, 1:] == near[:, :-1]] = ncols
    near.sort(axis=1)
    # column indices fit int16, since ncols <= MAX_WINDOW_COLUMNS < 2**15
    nbr = near[:, :(near < ncols).sum(axis=1).max(initial=0)].astype(np.int16)
    stack: list = []

    def push(sub, ext):
        live = (ext < ncols).sum(axis=1)  # children, numbered from `at`
        if live.any():
            stack.append((sub, ext, np.cumsum(live) - live, int(live.sum()), 0))

    push(np.empty((len(roots), 0), np.int16), roots.astype(np.int16)[:, None])
    while stack:
        sub, ext, at, total, made = stack.pop()
        if made + SEARCH_BLOCK < total:
            stack.append((sub, ext, at, total, made + SEARCH_BLOCK))
        t = np.arange(made, min(made + SEARCH_BLOCK, total))
        i = np.searchsorted(at, t, side="right") - 1  # parent state
        j = t - at[i]  # its extension entry
        child = np.column_stack([sub[i], ext[i, j]])
        if child.shape[1] == a:
            yield child, col_rows.T[:, child.T]
            continue
        cand = nbr[child[:, -1]]
        touching = (col_rows[cand][:, :, :, None, None]
                    == col_rows[sub[i]][:, None, None]).any(axis=(2, 3, 4))
        grown = np.concatenate(
            [np.where(np.arange(ext.shape[1]) > j[:, None], ext[i], ncols),
             np.where((cand > child[:, :1]) & ~touching, cand, ncols)], axis=1)
        grown.sort(axis=1)
        push(child, grown[:, :(grown < ncols).sum(axis=1).max()])


def enumerate_objects(spec: SCCodeSpec, species: ObjectSpecies) -> CycleCensus:
    """Count lifted instances of a species via windowed search.

    Lists the connected variable subsets of size species.a inside the
    first window of (path_vns - 1) * m + 1 replicas whose lowest column
    is one of the kappa offset-0 columns of replica 1, classifies them
    with `_induced` a block at a time, and tags each find with its exact
    replica span k and the number c of its columns in its lowest column
    block.  Weighting each find by p / c (see the module docstring) and
    each span by (L - k + 1) gives the full-matrix total.
    """
    if species.a > MAX_SUBSET_SIZE:
        raise ValueError(
            "subset search capped at a <= %d; use the closed-form cycle "
            "census for protograph-scale audits" % MAX_SUBSET_SIZE)
    chi = min(replica_span(species.path_vns, spec.m), spec.L)
    p = spec.p
    cols_per_replica = spec.kappa * p
    ncols = chi * cols_per_replica  # the window's, known before it is built
    if ncols > MAX_WINDOW_COLUMNS:
        raise ValueError(
            "window has %d columns (cap %d); use the closed-form cycle "
            "census for protograph-scale audits" % (ncols, MAX_WINDOW_COLUMNS))
    w = window(spec, 1, chi, lifted=True)
    tally: Counter = Counter()
    roots = np.arange(0, cols_per_replica, p)
    for sub, rows in _connected_subsets(w, roots, species.a):
        b, absorbing = _induced(rows)
        hit = sub[(b == species.b) & (absorbing | (species.kind == "TS"))]
        # the root is each subset's first and lowest column
        tally.update(zip((hit.max(axis=1) // cols_per_replica + 1).tolist(),
                         (hit < hit[:, :1] + p).sum(axis=1).tolist()))
    return CycleCensus(spec.L, _fold_orbit_tallies(tally, p))
