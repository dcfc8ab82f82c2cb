"""Binary index persistence.

Little-endian layout, strings UTF-8 with u32 byte-length prefixes:

    magic "RISP" | version u32
    dim u32 | window u32 | reserved u8 (always 0) | distribution u8 | ternary_k u32
    global_seed u64
    min_count u32 | max_doc_frequency f64
    lowercase u8 | drop_digit_tokens u8 | split_sentences u8
    stoplist_count u32 | stoplist entries (string)*
    total_docs u64 | total_tokens u64 | skipped_docs u64 | docs_ingested u64
    vocab_count u64
    per vocab term: string | frequency u64 | doc_count u64 |
                    context_events u64 | dim * f32 sum components
    tail_count u64
    per tail term:  string | frequency u64 | doc_count u64
    crc64 u64 of every preceding byte (CRC-64/XZ)

Vocabulary records hold only terms that passed the significance filter; the
tail table keeps the counts of everything else so later updates can detect
terms crossing min_count. Both store the frequency table's corpus totals,
which also count a term's occurrences while it was not significant. Sums
accumulate in float64 in memory and are stored as float32; a load reproduces
the stored float32 values exactly, so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import IndexChecksumError, IndexFormatError, IndexTruncatedError
from .ingest import IngestConfig
from .seeds import GAUSSIAN, TERNARY, SeedScheme
from .space import SemanticSpace, SpaceConfig

MAGIC = b"RISP"
VERSION = 1

# The header's distribution byte.
_DISTRIBUTION_CODES = {GAUSSIAN: 0, TERNARY: 1}
_DISTRIBUTION_NAMES = {code: name for name, code in _DISTRIBUTION_CODES.items()}

# Counters travel as u64 but live in int64 arrays in memory.
_MAX_COUNT = 2**63 - 1

_CRC64_POLY = 0xC96C5795D7870F42  # CRC-64/XZ, reflected
_CRC64_MASK = 0xFFFFFFFFFFFFFFFF


def _crc64_tables() -> list[list[int]]:
    base = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ _CRC64_POLY if crc & 1 else crc >> 1
        base.append(crc)
    tables = [base]
    for _ in range(7):
        prev = tables[-1]
        tables.append([(prev[i] >> 8) ^ base[prev[i] & 0xFF] for i in range(256)])
    return tables


_TABLES = _crc64_tables()


def crc64(data: bytes, crc: int = 0) -> int:
    """CRC-64/XZ of a byte string (slice-by-8)."""
    t0, t1, t2, t3, t4, t5, t6, t7 = _TABLES
    crc ^= _CRC64_MASK
    n_words = len(data) // 8
    words = np.frombuffer(data, dtype="<u8", count=n_words).tolist()
    for word in words:
        crc ^= word
        crc = (
            t7[crc & 0xFF]
            ^ t6[(crc >> 8) & 0xFF]
            ^ t5[(crc >> 16) & 0xFF]
            ^ t4[(crc >> 24) & 0xFF]
            ^ t3[(crc >> 32) & 0xFF]
            ^ t2[(crc >> 40) & 0xFF]
            ^ t1[(crc >> 48) & 0xFF]
            ^ t0[(crc >> 56) & 0xFF]
        )
    for b in data[n_words * 8 :]:
        crc = t0[(crc ^ b) & 0xFF] ^ (crc >> 8)
    return crc ^ _CRC64_MASK


class _Writer:
    def __init__(self):
        self.parts: list[bytes] = []

    def pack(self, fmt: str, *values) -> None:
        self.parts.append(struct.pack(fmt, *values))

    def string(self, text: str) -> None:
        raw = text.encode("utf-8")
        self.parts.append(struct.pack("<I", len(raw)))
        self.parts.append(raw)

    def raw(self, data: bytes) -> None:
        self.parts.append(data)

    def finish(self) -> bytes:
        body = b"".join(self.parts)
        return body + struct.pack("<Q", crc64(body))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        if self.offset + size > len(self.data):
            raise IndexTruncatedError("index file ends inside a record")
        values = struct.unpack_from(fmt, self.data, self.offset)
        self.offset += size
        return values

    def string(self) -> str:
        (length,) = self.unpack("<I")
        if self.offset + length > len(self.data):
            raise IndexTruncatedError("index file ends inside a string")
        raw = self.data[self.offset : self.offset + length]
        self.offset += length
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise IndexFormatError(f"undecodable term bytes: {exc}") from None

    def f32_block(self, count: int) -> np.ndarray:
        size = count * 4
        if self.offset + size > len(self.data):
            raise IndexTruncatedError("index file ends inside a vector")
        block = np.frombuffer(self.data, dtype="<f4", count=count, offset=self.offset)
        self.offset += size
        return block


def save_index(space: SemanticSpace, path) -> None:
    """Serialize a space to ``path`` atomically (write then rename)."""
    w = _Writer()
    cfg = space.config
    ing = space.ingest_config
    w.raw(MAGIC)
    w.pack("<I", VERSION)
    w.pack("<IIBBI", cfg.dim, cfg.window, 0,
           _DISTRIBUTION_CODES[cfg.seed_scheme.distribution], cfg.seed_scheme.ternary_nonzeros)
    w.pack("<Q", cfg.seed_scheme.global_seed)
    w.pack("<Id", ing.min_count, ing.max_doc_frequency)
    w.pack("<BBB", int(ing.lowercase), int(ing.drop_digit_tokens), int(ing.split_sentences))
    stoplist = sorted(ing.stoplist)
    w.pack("<I", len(stoplist))
    for term in stoplist:
        w.string(term)
    w.pack(
        "<QQQQ",
        space.freq.total_docs,
        space.freq.total_tokens,
        space.freq.skipped_docs,
        space.docs_ingested,
    )

    terms = space.terms()
    w.pack("<Q", len(terms))
    sums32 = space._sums.astype("<f4")
    for row, term in enumerate(terms):
        w.string(term)
        w.pack(
            "<QQQ",
            space.freq.total_count(term),
            space.freq.doc_count(term),
            int(space._events[row]),
        )
        w.raw(sums32[row].tobytes())

    tail = sorted(set(space.freq.total) - set(space._index))
    w.pack("<Q", len(tail))
    for term in tail:
        w.string(term)
        w.pack("<QQ", space.freq.total_count(term), space.freq.doc_count(term))

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(w.finish())
    tmp.replace(path)


def load_index(path) -> SemanticSpace:
    """Load a space saved by :func:`save_index`, verifying the checksum."""
    data = Path(path).read_bytes()
    if len(data) < len(MAGIC) + 4:
        raise IndexTruncatedError("file too short for an index header")
    if data[: len(MAGIC)] != MAGIC:
        raise IndexFormatError("bad magic number: not an index file")
    r = _Reader(data)
    r.offset = len(MAGIC)
    (version,) = r.unpack("<I")
    if version != VERSION:
        raise IndexFormatError(f"unsupported index version: {version}")

    dim, window, reserved, dist_code, ternary_k = r.unpack("<IIBBI")
    if reserved != 0:
        raise IndexFormatError(f"invalid index header: reserved byte is {reserved}, not 0")
    if dist_code not in _DISTRIBUTION_NAMES:
        raise IndexFormatError(f"invalid index header: unknown distribution code: {dist_code}")
    (global_seed,) = r.unpack("<Q")
    min_count, max_doc_frequency = r.unpack("<Id")
    lowercase, drop_digits, split_sentences = r.unpack("<BBB")
    (stop_count,) = r.unpack("<I")
    stoplist = frozenset(r.string() for _ in range(stop_count))
    total_docs, total_tokens, skipped_docs, docs_ingested = r.unpack("<QQQQ")

    try:
        scheme = SeedScheme(
            dim=dim,
            global_seed=global_seed,
            distribution=_DISTRIBUTION_NAMES[dist_code],
            ternary_nonzeros=ternary_k,
        )
        space_config = SpaceConfig(window=window, seed_scheme=scheme)
        ingest_config = IngestConfig(
            min_count=min_count,
            max_doc_frequency=max_doc_frequency,
            stoplist=stoplist,
            lowercase=bool(lowercase),
            drop_digit_tokens=bool(drop_digits),
            split_sentences=bool(split_sentences),
        )
    except ValueError as exc:
        raise IndexFormatError(f"invalid index header: {exc}") from None

    space = SemanticSpace(space_config, ingest_config)
    space.docs_ingested = docs_ingested
    space.freq.total_docs = total_docs
    space.freq.total_tokens = total_tokens
    space.freq.skipped_docs = skipped_docs

    (vocab_count,) = r.unpack("<Q")
    # Cheapest possible record: empty term string, counters, f32 sums.
    if vocab_count * (4 + 24 + 4 * dim) > len(data) - r.offset:
        raise IndexTruncatedError("vocabulary count exceeds remaining file size")
    terms: list[str] = []
    events = np.zeros(vocab_count, dtype=np.int64)
    sums = np.zeros((vocab_count, dim))
    for row in range(int(vocab_count)):
        term = r.string()
        frequency, doc_count, context_events = r.unpack("<QQQ")
        if frequency > _MAX_COUNT or context_events > _MAX_COUNT:
            raise IndexFormatError("counter exceeds the signed 64-bit range")
        terms.append(term)
        events[row] = context_events
        sums[row] = r.f32_block(dim)
        space.freq.total[term] = frequency
        space.freq.docs[term] = doc_count

    (tail_count,) = r.unpack("<Q")
    for _ in range(int(tail_count)):
        term = r.string()
        frequency, doc_count = r.unpack("<QQ")
        space.freq.total[term] = frequency
        space.freq.docs[term] = doc_count

    (stored_crc,) = r.unpack("<Q")
    if r.offset != len(data):
        raise IndexFormatError("trailing bytes after index checksum")
    if crc64(data[: -8]) != stored_crc:
        raise IndexChecksumError("index checksum mismatch: file is corrupt")

    space._terms = terms
    space._index = {t: i for i, t in enumerate(terms)}
    space._sums = sums
    space._events = events
    space._seed_rows = None  # recomputed on demand if accumulation resumes
    space._invalidate()
    return space
