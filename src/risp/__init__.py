"""risp: incremental random-indexing semantic spaces with sense induction.

Build a semantic space from any corpus, keep updating it as documents
arrive, and induce word senses from nothing but the space itself.

Quick start::

    from risp import IngestConfig, SpaceConfig, build, disambiguate, save_index

    space = build(["a corpus of", "document strings"], IngestConfig(min_count=1))
    save_index(space, "corpus.risp")
    report = disambiguate(space, "corpus")
"""

from .cohort import (
    Cohort,
    build_cohort,
    load_gram_fixture,
    save_gram_fixture,
)
from .disambig import (
    BatchSummary,
    ClusterState,
    DisambigConfig,
    Disambiguation,
    LevelResult,
    Sense,
    batch_disambiguate,
    cluster_trajectory,
    disambiguate,
    disambiguate_from_gram,
    evaluate_level,
    init_clusters,
    merge_closest,
    summarize,
)
from .errors import (
    FrequencyBandError,
    IndexChecksumError,
    IndexFormatError,
    IndexTruncatedError,
    LockHeldError,
    RispError,
    UnknownTermError,
    ZeroVectorError,
)
from .ingest import (
    DirCorpus,
    FrequencyTable,
    IngestConfig,
    LineCorpus,
    MemoryCorpus,
    open_corpus,
    scan_frequencies,
    significant_terms,
    tokenize,
)
from .seeds import (
    OrthogonalityStats,
    SeedBank,
    SeedScheme,
    orthogonality_stats,
    seed_vector,
)
from .space import SemanticSpace, SpaceConfig, TermRecord, build, distance, update
from .storage import load_index, save_index

__version__ = "0.1.0"

__all__ = [
    "BatchSummary",
    "ClusterState",
    "Cohort",
    "DirCorpus",
    "DisambigConfig",
    "Disambiguation",
    "FrequencyBandError",
    "FrequencyTable",
    "IndexChecksumError",
    "IndexFormatError",
    "IndexTruncatedError",
    "IngestConfig",
    "LevelResult",
    "LineCorpus",
    "LockHeldError",
    "MemoryCorpus",
    "OrthogonalityStats",
    "RispError",
    "SeedBank",
    "SeedScheme",
    "SemanticSpace",
    "Sense",
    "SpaceConfig",
    "TermRecord",
    "UnknownTermError",
    "ZeroVectorError",
    "batch_disambiguate",
    "build",
    "build_cohort",
    "cluster_trajectory",
    "disambiguate",
    "disambiguate_from_gram",
    "distance",
    "evaluate_level",
    "init_clusters",
    "load_gram_fixture",
    "load_index",
    "merge_closest",
    "orthogonality_stats",
    "save_gram_fixture",
    "save_index",
    "scan_frequencies",
    "seed_vector",
    "significant_terms",
    "summarize",
    "tokenize",
    "update",
]
