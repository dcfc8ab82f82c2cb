"""Corpus ingestion: tokenization, frequency scanning and the significance filter.

A term earns a vector only if it is "significant": frequent enough to carry
signal (``min_count``), not spread over so many documents that it is
semantically empty (``max_doc_frequency``), and not stoplisted. Everything
else is counted but never accumulated.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

logger = logging.getLogger(__name__)

# A token is a run of Unicode alphanumerics, optionally continued by single
# internal hyphens ("gas-adapter"). Doubled or edge hyphens separate.
_TOKEN_RE = re.compile(r"[^\W_]+(?:-[^\W_]+)*")
_DIGIT_RUN_RE = re.compile(r"[\d-]+")
_SENTENCE_RE = re.compile(r"[.!?]+\s+")


@dataclass(frozen=True)
class IngestConfig:
    """Tokenization and significance settings for one corpus."""

    min_count: int = 5
    max_doc_frequency: float = 0.10
    stoplist: frozenset[str] = frozenset()
    lowercase: bool = True
    drop_digit_tokens: bool = False
    split_sentences: bool = False

    def __post_init__(self) -> None:
        if self.min_count < 1:
            raise ValueError("min_count must be >= 1")
        if not 0.0 < self.max_doc_frequency <= 1.0:
            raise ValueError("max_doc_frequency must be in (0, 1]")


def tokenize(text: str, cfg: IngestConfig | None = None) -> list[str]:
    """Split raw text into tokens. Idempotent over its own output."""
    cfg = cfg or IngestConfig()
    if cfg.lowercase:
        text = text.lower()
    tokens = _TOKEN_RE.findall(text)
    if cfg.drop_digit_tokens:
        tokens = [t for t in tokens if not _DIGIT_RUN_RE.fullmatch(t)]
    return tokens


def token_segments(text: str, cfg: IngestConfig) -> list[list[str]]:
    """Tokenize a document into co-occurrence segments.

    One segment per document by default; with ``split_sentences`` each
    sentence (split on ``[.!?]`` + whitespace) becomes its own segment so
    context windows never cross sentence boundaries.
    """
    if not cfg.split_sentences:
        return [tokenize(text, cfg)]
    segments = [tokenize(part, cfg) for part in _SENTENCE_RE.split(text)]
    return [seg for seg in segments if seg]


@dataclass
class FrequencyTable:
    """Additive occurrence and document counts for every term seen."""

    total: Counter = field(default_factory=Counter)
    docs: Counter = field(default_factory=Counter)
    total_docs: int = 0
    total_tokens: int = 0
    skipped_docs: int = 0

    def add_document(self, tokens: Sequence[str]) -> None:
        self.total_docs += 1
        self.total_tokens += len(tokens)
        self.total.update(tokens)
        self.docs.update(set(tokens))

    def merge(self, other: "FrequencyTable") -> None:
        """Fold another table into this one. Counts are purely additive."""
        self.total.update(other.total)
        self.docs.update(other.docs)
        self.total_docs += other.total_docs
        self.total_tokens += other.total_tokens
        self.skipped_docs += other.skipped_docs

    def total_count(self, term: str) -> int:
        return self.total.get(term, 0)

    def doc_count(self, term: str) -> int:
        return self.docs.get(term, 0)

    def __len__(self) -> int:
        return len(self.total)


class MemoryCorpus:
    """A corpus held as an in-memory sequence of document strings."""

    def __init__(self, docs: Sequence[str]):
        self._docs = list(docs)
        self.skipped = 0

    def documents(self) -> Iterator[str]:
        yield from self._docs


class LineCorpus:
    """A newline-delimited corpus file: one document per line."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.skipped = 0

    def documents(self) -> Iterator[str]:
        with open(self.path, encoding="utf-8", errors="replace") as fh:
            for line in fh:
                yield line.rstrip("\n")


class DirCorpus:
    """A directory corpus: one document per ``*.txt`` file, in sorted order."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.skipped = 0

    def documents(self) -> Iterator[str]:
        self.skipped = 0
        for p in sorted(self.path.glob("*.txt")):
            try:
                text = p.read_text(encoding="utf-8", errors="replace")
            except OSError as exc:
                logger.warning("skipping unreadable document %s: %s", p, exc)
                self.skipped += 1
                continue
            yield text


def open_corpus(path: str | Path, input_format: str = "auto"):
    """Open a corpus path as LineCorpus or DirCorpus.

    ``auto`` picks DirCorpus for directories and LineCorpus otherwise.
    """
    p = Path(path)
    if input_format == "auto":
        input_format = "dir" if p.is_dir() else "lines"
    if input_format == "dir":
        return DirCorpus(p)
    if input_format == "lines":
        return LineCorpus(p)
    raise ValueError(f"unknown input format: {input_format!r}")


def as_corpus(obj):
    """Coerce a corpus object or a plain sequence of strings to a corpus."""
    if hasattr(obj, "documents"):
        return obj
    if isinstance(obj, (str, Path)):
        return open_corpus(obj)
    return MemoryCorpus(obj)


def scan_frequencies(corpus, cfg: IngestConfig) -> FrequencyTable:
    """First ingestion pass: count term and document frequencies."""
    corpus = as_corpus(corpus)
    table = FrequencyTable()
    for doc in corpus.documents():
        tokens = [t for seg in token_segments(doc, cfg) for t in seg]
        table.add_document(tokens)
    table.skipped_docs += getattr(corpus, "skipped", 0)
    return table


def significant_terms(freq: FrequencyTable, cfg: IngestConfig) -> set[str]:
    """Terms eligible for vectors under the significance filter."""
    if freq.total_docs == 0:
        return set()
    out = set()
    for term, count in freq.total.items():
        if count < cfg.min_count or term in cfg.stoplist:
            continue
        if freq.docs[term] / freq.total_docs <= cfg.max_doc_frequency:
            out.add(term)
    return out
