"""risp: incremental random-indexing semantic spaces with sense induction.

Build a semantic space from any corpus, keep updating it as documents
arrive, and induce word senses from nothing but the space itself.

Quick start::

    from risp import IngestConfig, SpaceConfig, build, disambiguate, save_index

    space = build(["a corpus of", "document strings"], IngestConfig(min_count=1))
    save_index(space, "corpus.risp")
    report = disambiguate(space, "corpus")

The package exports 25 names: the three configs (``IngestConfig``,
``SpaceConfig``, ``DisambigConfig``); ``build``, ``update``, ``load_index``
and ``save_index``; ``SemanticSpace``; ``disambiguate``,
``batch_disambiguate`` and ``disambiguate_from_gram`` with their results
``Disambiguation`` and ``Sense``; the eight errors; ``open_corpus``,
``tokenize``, ``distance`` and ``load_gram_fixture``. Everything else is
imported from its submodule: the clustering seams (``risp.disambig``,
``risp.cohort``), the corpus classes and frequency scan (``risp.ingest``)
and the seed helpers (``risp.seeds``).
"""

from .cohort import load_gram_fixture
from .disambig import (
    DisambigConfig,
    Disambiguation,
    Sense,
    batch_disambiguate,
    disambiguate,
    disambiguate_from_gram,
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
from .ingest import IngestConfig, open_corpus, tokenize
from .space import SemanticSpace, SpaceConfig, build, distance, update
from .storage import load_index, save_index

__version__ = "0.1.0"

__all__ = [
    "DisambigConfig",
    "Disambiguation",
    "FrequencyBandError",
    "IndexChecksumError",
    "IndexFormatError",
    "IndexTruncatedError",
    "IngestConfig",
    "LockHeldError",
    "RispError",
    "SemanticSpace",
    "Sense",
    "SpaceConfig",
    "UnknownTermError",
    "ZeroVectorError",
    "batch_disambiguate",
    "build",
    "disambiguate",
    "disambiguate_from_gram",
    "distance",
    "load_gram_fixture",
    "load_index",
    "open_corpus",
    "save_index",
    "tokenize",
    "update",
]
