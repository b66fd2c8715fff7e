"""Complex-network analysis of a scientific journal's metadata.

Ingest paper/author/reference tables, build co-authorship, citation,
co-citation, bibliographic-coupling and PACS layers (one-mode layers by
counting the groups two nodes share), compute standard network statistics
and divisive communities, answer multi-layer related-item queries, and
export graphs in Pajek format.
"""

from .communities import (
    CommunityResult,
    PartitionRecord,
    canonical_partition,
    community_of,
    edge_betweenness,
    girvan_newman,
    modularity,
)
from .corpus import (
    AffiliationRecord,
    AuthorRecord,
    Corpus,
    CorpusFormatError,
    IngestError,
    PaperRecord,
    ReferenceKey,
    TimeIndex,
    ValidationReport,
    Violation,
    ingest_corpus,
    load_corpus,
    normalize_ref_key,
    parse_paper_id,
    persist_corpus,
    snapshot,
    validate_corpus,
)
from .graph import (
    AUTHOR,
    PACS,
    PAPER,
    REFERENCE,
    AdjacencyRow,
    Graph,
    GraphError,
    NodeRef,
    adjacency_rows,
    author_node,
    build_graph,
    pacs_node,
    paper_node,
    reference_node,
)
from .layers import (
    Layer,
    build_layer,
    layer_from_token,
    project_one_mode,
)
from .metrics import (
    EVOLUTION_METRICS,
    ClusteringStats,
    DegreeStats,
    EvolutionSeries,
    MetricsReport,
    PathStats,
    bfs_distances,
    clustering,
    connected_components,
    degree_stats,
    evolution_series,
    metrics_report,
    path_stats,
)
from .pajek import PajekFormatError, export_pajek, parse_pajek
from .retrieval import (
    NeighborhoodResult,
    OverlapResult,
    RelatedItem,
    layer_overlap,
    neighborhood,
    related_rank,
)

__version__ = "0.1.0"
