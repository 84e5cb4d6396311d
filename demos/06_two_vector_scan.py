"""
Two cutting vectors: scanning the m = 2 staircase space
=======================================================

With coupling depth m = 2 a partition built from cutting vectors needs
two of them, one per component boundary.  The pair space is large
(379,050 ordered pairs for gamma = 3, kappa = 17) but the library's
batch scorer makes a full scan cheap: the column triples whose 6-cycles
survive lifting are listed once, and each staircase is scored by
gathering its components at those triples.  Takes a few seconds.
"""
import itertools
import time

import numpy as np

from scldpc import (SCCodeSpec, ab_code, active_cycles6,
                    partition_from_cutting_vector,
                    partition_from_cutting_vectors)
from scldpc.cycle_census import LiftedShapeCount

GAMMA, KAPPA, P, L, M = 3, 17, 17, 30, 2
BLOCK = 4096  # staircases per scorer call, which bounds its gather

score = LiftedShapeCount(ab_code(GAMMA, KAPPA, P), M, L)
print(f"{len(score.cells)} column triples survive lifting under "
      "multiplicative powers")

# The scan itself.  Vectors are non-decreasing (a repeated entry means
# an empty middle segment in that row) and the second must dominate the
# first componentwise; pairs are listed with z1 outer, z2 inner.
vecs = np.array(list(itertools.combinations_with_replacement(
    range(KAPPA + 1), GAMMA)))
first, second = np.nonzero((vecs[:, None, :] <= vecs[None, :, :]).all(axis=2))
t0 = time.time()
# row i of a staircase is 0 before z1[i], 1 up to z2[i] and 2 after
cols = np.arange(KAPPA)
staircases = ((cols >= vecs[first, :, None]).astype(np.int8)
              + (cols >= vecs[second, :, None]))
vals = np.concatenate([score(staircases[i:i + BLOCK])
                       for i in range(0, len(staircases), BLOCK)])
best_val = int(vals.min())
best = vals == best_val
winners = [(tuple(vecs[a].tolist()), tuple(vecs[b].tolist()))
           for a, b in zip(first[best], second[best])]
print(f"scanned {len(vals)} pairs in {time.time() - t0:.1f}s")
print(f"minimum lifted count: {best_val}, reached by {len(winners)} pairs:")
for z1, z2 in winners:
    print(f"  {z1} / {z2}")

# The lex-least winner, rebuilt through the library, recounts exactly.
z1, z2 = winners[0]
part = partition_from_cutting_vectors([z1, z2], GAMMA, KAPPA)
spec = SCCodeSpec(ab_code(GAMMA, KAPPA, P), part, L)
recount = active_cycles6(spec).total
print("\nlex-least pair recount:", recount)
if recount != best_val:
    raise SystemExit(f"scan scored {best_val}, active_cycles6 counts {recount}")

# For contrast: the best single cut (m = 1) leaves far more cycles.
one_cut = partition_from_cutting_vector([4, 9, 13], GAMMA, KAPPA)
m1 = active_cycles6(SCCodeSpec(ab_code(GAMMA, KAPPA, P), one_cut, L)).total
print(f"one cut {m1} vs two cuts {best_val} "
      f"({1 - best_val / m1:.1%} fewer)")
