"""
Small induced subgraphs: classification and counting
====================================================

Error-floor analysis revolves around small sets of variable nodes whose
induced subgraph has few odd-degree checks.  This script classifies a
few hand-built examples, lists the dominant species per column weight,
and counts one species in a coupled code by windowed enumeration.
"""
import numpy as np

from scldpc import (SCCodeSpec, ab_code, classify, common_denominator,
                    dominant_species, enumerate_objects,
                    max_shortest_path_vns, partition_from_cutting_vector,
                    replica_span, sc_lift)

# Three variable nodes of degree 3, pairwise joined through shared
# checks: a 6-cycle with three odd checks hanging off, the classic
# smallest absorbing set for column weight 3.
tri = np.zeros((6, 3), dtype=np.int64)
tri[0, 0] = tri[0, 1] = 1
tri[1, 1] = tri[1, 2] = 1
tri[2, 0] = tri[2, 2] = 1
tri[3, 0] = tri[4, 1] = tri[5, 2] = 1
cfg = classify(tri, [0, 1, 2])
print(f"triangle: ({cfg.a}, {cfg.b}) {'AS' if cfg.is_absorbing_set else 'TS'}")
print("check degrees:", sorted(cfg.check_degrees, reverse=True))

# Distance across the set controls how many replicas an instance can
# straddle once the code is coupled.
w = max_shortest_path_vns(tri)
print(f"widest shortest path: {w} variable nodes, "
      f"span <= {replica_span(w, 1)} replicas at m = 1")

# The species worth enumerating, per column weight.
for gamma in (3, 4):
    print(f"\ngamma = {gamma} dominant species:")
    for sp in dominant_species(gamma):
        print(f"  ({sp.a}, {sp.b}) {sp.kind}, window {sp.path_vns} VNs")
    cd = common_denominator(gamma)
    print(f"  every gamma = {gamma} code contains ({cd.a}, {cd.b}) {cd.kind} "
          "configurations unless its cycle structure rules them out")

# Counting in a coupled code: instead of scanning the full lifted
# matrix, each species is searched inside a sliding window just wide
# enough to contain any connected instance, and window counts are
# weighted by how many replicas each span fits into.  The search starts
# only from the offset-0 column of each circulant column block: shifting
# every circulant offset together maps the code onto itself, so an
# instance with c columns in its first block stands for p / c instances.
gamma, kappa, p, L = 3, 7, 7, 12
part = partition_from_cutting_vector([2, 4, 6], gamma, kappa)
spec = SCCodeSpec(ab_code(gamma, kappa, p), part, L)
species = common_denominator(gamma)
census = enumerate_objects(spec, species)
print(f"\n({species.a}, {species.b}) {species.kind} instances in the "
      f"coupled code, by replica span: {census.per_span}")
print("total:", census.total)

# For column weight 3 the (3, 3) count is tied to the active 6-cycle
# census: every instance is a lifted 6-cycle with pendant checks.
from scldpc import active_cycles6

act = active_cycles6(spec)
print("active 6-cycle classes by span:", act.active_per_span)
print("p * class count matches:",
      census.per_span == {k: v * p for k, v in act.active_per_span.items() if v})
