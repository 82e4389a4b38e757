"""Graph substrates: CSR, bucket-list, modifiers, generators, I/O."""

from repro.graph.analysis import (
    classify_structure,
    connected_components,
    degree_statistics,
    graph_summary,
)
from repro.graph.bucketlist import (
    EMPTY,
    SLOTS_PER_BUCKET,
    STATUS_ACTIVE,
    STATUS_DELETED,
    BucketListGraph,
)
from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    BENCHMARKS,
    BenchmarkSpec,
    circuit_graph,
    community_graph,
    make_benchmark_graph,
    mesh_graph_2d,
    random_graph,
    triangulated_mesh_graph,
)
from repro.graph.io import (
    read_edge_list,
    read_metis,
    write_edge_list,
    write_metis,
)
from repro.graph.modifiers import (
    EdgeDelete,
    EdgeInsert,
    HostGraph,
    Modifier,
    ModifierBatch,
    VertexDelete,
    VertexInsert,
)

__all__ = [
    "CSRGraph",
    "BucketListGraph",
    "EMPTY",
    "SLOTS_PER_BUCKET",
    "STATUS_ACTIVE",
    "STATUS_DELETED",
    "HostGraph",
    "Modifier",
    "ModifierBatch",
    "VertexInsert",
    "VertexDelete",
    "EdgeInsert",
    "EdgeDelete",
    "circuit_graph",
    "mesh_graph_2d",
    "triangulated_mesh_graph",
    "community_graph",
    "random_graph",
    "make_benchmark_graph",
    "BENCHMARKS",
    "BenchmarkSpec",
    "read_metis",
    "write_metis",
    "graph_summary",
    "classify_structure",
    "degree_statistics",
    "connected_components",
    "read_edge_list",
    "write_edge_list",
]
