"""
Counting 6-cycles without building the matrix
=============================================

The number of 6-cycles in the coupled chain is a closed-form function of
the column overlap pattern, organized by how many replicas each cycle
spans.  This script compares the closed form against a direct count in
the lifted matrix, then reproduces the headline effect: cutting a block
code into a coupled chain removes most of its 6-cycles.
"""
import numpy as np

from scldpc import (SCCodeSpec, ab_code, active_cycles6, census_from_partition,
                    count_cycles6, partition_from_cutting_vector, sc_lift)
from scldpc.code_model import PartitionMatrix

# A cross-check first.  Starter classes of the lifted graph are
# classified by span and by whether the circulant power sum closes; each
# active class contributes p cycles.  count_cycles6 knows nothing of the
# code's structure: it counts the lifted matrix directly from the number
# of columns each pair of rows shares.
gamma, kappa, p, L = 3, 5, 5, 6
part = partition_from_cutting_vector([2, 3, 4], gamma, kappa)
spec = SCCodeSpec(ab_code(gamma, kappa, p), part, L)
act = active_cycles6(spec)
direct = count_cycles6(sc_lift(spec))
print(f"lifted count, closed form: {act.total}, "
      f"direct count from row-pair overlaps: {direct}")
assert act.total == direct
print("active starter classes by span:", act.active_per_span)

# The protograph census works on overlap combinatorics alone; span-k
# cycles can start in L - k + 1 replicas, so long chains pay (almost)
# linearly in L while wide spans are suppressed.
census = census_from_partition(part, L)
print("\nprotograph 6-cycle walks by span:", census.per_span)
print("protograph total:", census.total)

# Now the full-size comparison, counted in the lifted code.  At
# kappa = p = 17 the uncoupled block code is dense with 6-cycles; a
# single cut spreads them across replicas.
gamma, kappa, p, L = 3, 17, 17, 30


def lifted_total(partition):
    return active_cycles6(
        SCCodeSpec(ab_code(gamma, kappa, p), partition, L)).total


uncut = PartitionMatrix(0, np.zeros((gamma, kappa), dtype=np.int64))
base = lifted_total(uncut)
print(f"\nuncoupled, gamma = {gamma}: {base} lifted 6-cycles over {L} replicas")

cut = partition_from_cutting_vector([4, 9, 13], gamma, kappa)
coupled = lifted_total(cut)
print(f"cutting vector [4, 9, 13]: {coupled} ({1 - coupled / base:.1%} fewer)")

# The same comparison for column weight four; the gain is similar even
# though the cycle population is four times larger.
gamma = 4
base4 = lifted_total(PartitionMatrix(0, np.zeros((gamma, kappa), dtype=np.int64)))
coupled4 = lifted_total(partition_from_cutting_vector([3, 7, 11, 15], gamma, kappa))
print(f"\ngamma = {gamma}: {base4} -> {coupled4} "
      f"({1 - coupled4 / base4:.1%} fewer)")
