"""Graph-OLAP cubing with structure-aware pruning of dimensional values."""

from .core import (
    GenParams,
    InvertedIndex,
    MultidimGraph,
    build_inverted_index,
    generate_synthetic,
    load_graph,
    load_graph_with_report,
    write_graph,
)
from .engine import (
    AggregateNetwork,
    AggregateNode,
    GraphCube,
    Strategy,
    aggregate_edges,
    compute_cube,
    level1_nodes,
    lws_valid,
    parse_cuboid,
    query_cuboid,
    read_cuboid,
    write_cube,
)
from .errors import (
    CubeFormatError,
    GraphCubeError,
    LoadError,
    NotMaterializedError,
    ParameterError,
    QueryError,
    UnknownVertexError,
    VerificationError,
)
from .measures import (
    PrunePolicy,
    SignificanceTable,
    VertexScore,
    apply_policy,
    attribute_diversity,
    clustering_coefficient,
    local_density,
    significance_table,
    vertex_score,
)
from .oracle import CubeDiff, compare, oracle_cube, oracle_cuboid

__version__ = "0.1.0"
