"""Spatially coupled circulant-based LDPC code construction and optimization."""

from .code_model import (
    CirculantBlockCode,
    ColumnLists,
    PartitionMatrix,
    SCCodeSpec,
    ab_code,
    ab_powers,
    partition_from_cutting_vector,
    partition_from_cutting_vectors,
    sc_lift,
    sc_lift_columns,
    sc_protograph,
    window,
)
from .overlaps import (
    IndependentOverlaps,
    PatternCounts,
    independent_overlap_sets,
    overlaps_from_partition,
    partition_from_overlaps,
    pattern_counts,
    restrict_to_independent,
    valid_overlap_sets,
)
from .cycle_census import (
    ActiveCensus,
    CycleCensus,
    active_cycles6,
    census_from_partition,
    census_protograph,
    count_cycles4,
    count_cycles6,
    count_lifted_cycles4,
)
from .partition_opt import Optimum, OptimizerConfig, optimize
from .power_opt import CpoConfig, CpoState, refine_layout, run_cpo, \
    weighted_theta
from .trapping_sets import (
    InducedConfig,
    ObjectSpecies,
    classify,
    common_denominator,
    dominant_species,
    enumerate_objects,
    max_shortest_path_vns,
    replica_span,
)
from .io_formats import (read_alist, read_alist_columns, read_int_grid,
                         write_alist, write_int_grid)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
