"""Command-line interface.

One executable, six subcommands: build, update, disambig, neighbors, sim,
stats. Exit codes: 0 success, 1 I/O or configuration error (argparse usage
errors included), 2 unknown or ineligible term. The index path comes from
--index / -o or the RISP_INDEX environment variable.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .cohort import load_gram_fixture
from .disambig import (
    DisambigConfig,
    batch_disambiguate,
    disambiguate,
    disambiguate_from_gram,
    summarize,
)
from .errors import (
    FrequencyBandError,
    LockHeldError,
    RispError,
    UnknownTermError,
    ZeroVectorError,
)
from .ingest import IngestConfig, open_corpus
from .space import SemanticSpace, SpaceConfig, build, update

ENV_INDEX = "RISP_INDEX"

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to 1 (configuration error)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="risp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"risp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_index(p, flag="--index"):
        p.add_argument(flag, default=os.environ.get(ENV_INDEX),
                       help=f"index file path (default: ${ENV_INDEX})")

    p_build = sub.add_parser("build", help="build a new index from a corpus")
    p_build.add_argument("-i", "--input", required=True, help="corpus file or directory")
    p_build.add_argument("-o", "--output", default=os.environ.get(ENV_INDEX),
                         help=f"index file to write (default: ${ENV_INDEX})")
    _add_corpus_flags(p_build)
    _add_config_flags(p_build)

    p_update = sub.add_parser("update", help="fold more documents into an index")
    p_update.add_argument("-i", "--input", required=True, help="corpus file or directory")
    add_index(p_update)
    _add_corpus_flags(p_update)
    _add_config_flags(p_update)

    p_dis = sub.add_parser("disambig", help="induce senses, one JSON record per line")
    p_dis.add_argument("terms", nargs="*", help="terms to disambiguate")
    add_index(p_dis)
    p_dis.add_argument("--batch", action="store_true",
                       help="every vocabulary term in the frequency band")
    p_dis.add_argument("--summary", action="store_true",
                       help="with --batch: print sense-count tallies to stderr")
    p_dis.add_argument("--force", action="store_true",
                       help="ignore the frequency band")
    p_dis.add_argument("--min-sim", type=float, default=None,
                       help="cohort membership threshold (default 0.40)")
    p_dis.add_argument("--threshold", type=float, default=None,
                       help="intercluster separation threshold (default 0.175)")
    p_dis.add_argument("--levels", default=None, help="comma-separated levels (default 4,3,2)")
    p_dis.add_argument("--min-freq", type=int, default=None)
    p_dis.add_argument("--max-freq", type=int, default=None)
    p_dis.add_argument("--label-len", type=int, default=None)
    p_dis.add_argument("--global-labels", action="store_true",
                       help="label senses by global nearest neighbors")
    p_dis.add_argument("--cap", type=int, default=None, help="cohort size cap (default 200)")
    p_dis.add_argument("--gram", help="cluster a plain-text gram matrix file instead of an index")
    p_dis.add_argument("--parent", help="with --gram: parent row label (default: first)")
    p_dis.add_argument("-o", "--output", help="write JSON lines here instead of stdout")

    p_nb = sub.add_parser("neighbors", help="nearest vocabulary terms")
    p_nb.add_argument("term")
    p_nb.add_argument("-k", type=int, default=20)
    add_index(p_nb)

    p_sim = sub.add_parser("sim", help="similarity of two terms, or a matrix for more")
    p_sim.add_argument("terms", nargs="+")
    add_index(p_sim)

    p_stats = sub.add_parser("stats", help="index header and size information")
    add_index(p_stats)

    return parser


def _add_corpus_flags(p) -> None:
    p.add_argument("--input-format", choices=("auto", "lines", "dir"), default="auto",
                   help="lines: one document per line; dir: one per *.txt file")


def _add_config_flags(p) -> None:
    p.add_argument("--config", help="key=value settings file; explicit flags win")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--global-seed", type=int, default=None)
    p.add_argument("--distribution", choices=("gaussian", "ternary"), default=None)
    p.add_argument("--ternary-k", type=int, default=None)
    p.add_argument("--min-count", type=int, default=None)
    p.add_argument("--max-doc-freq", type=float, default=None)
    p.add_argument("--stoplist", default=None, help="file with one stoplist term per line")
    p.add_argument("--no-lowercase", action="store_true")
    p.add_argument("--drop-digits", action="store_true")
    p.add_argument("--split-sentences", action="store_true")


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_config_file(path: str) -> dict:
    """Parse a key=value settings file (# comments, blank lines ignored)."""
    settings = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        settings[key.strip().replace("-", "_")] = value.strip()
    return settings


def _coerce(value, kind):
    if kind is bool and isinstance(value, str):
        try:
            return _BOOL_WORDS[value.lower()]
        except KeyError:
            raise ValueError(f"not a boolean: {value!r}") from None
    return kind(value)


_SETTING_KINDS = {
    "dim": int, "window": int, "global_seed": int, "distribution": str,
    "ternary_k": int, "min_count": int, "max_doc_freq": float, "stoplist": str,
    "lowercase": bool, "drop_digits": bool, "split_sentences": bool,
}

_SETTING_DEFAULTS = {
    "dim": 300, "window": 11, "global_seed": 0, "distribution": "gaussian",
    "ternary_k": 8, "min_count": 5, "max_doc_freq": 0.10, "stoplist": None,
    "lowercase": True, "drop_digits": False, "split_sentences": False,
}

# Each setting's value as a loaded index holds it; the stoplist is compared
# as the set of terms its file yields.
_INDEX_SETTINGS = {
    "dim": lambda s: s.config.dim,
    "window": lambda s: s.config.window,
    "global_seed": lambda s: s.config.seed_scheme.global_seed,
    "distribution": lambda s: s.config.seed_scheme.distribution,
    "ternary_k": lambda s: s.config.seed_scheme.ternary_nonzeros,
    "min_count": lambda s: s.ingest_config.min_count,
    "max_doc_freq": lambda s: s.ingest_config.max_doc_frequency,
    "stoplist": lambda s: s.ingest_config.stoplist,
    "lowercase": lambda s: s.ingest_config.lowercase,
    "drop_digits": lambda s: s.ingest_config.drop_digit_tokens,
    "split_sentences": lambda s: s.ingest_config.split_sentences,
}


def _given_settings(args) -> dict:
    """Settings the user gave: config file <- explicit flags, in increasing precedence."""
    settings = {}
    if args.config:
        for key, raw in _parse_config_file(args.config).items():
            if key not in _SETTING_KINDS:
                raise ValueError(f"unknown config key: {key!r}")
            settings[key] = _coerce(raw, _SETTING_KINDS[key])
    for key in ("dim", "window", "global_seed", "distribution", "ternary_k",
                "min_count", "max_doc_freq", "stoplist"):
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    if args.no_lowercase:
        settings["lowercase"] = False
    if args.drop_digits:
        settings["drop_digits"] = True
    if args.split_sentences:
        settings["split_sentences"] = True
    return settings


def _read_stoplist(path, lowercase: bool) -> frozenset[str]:
    if not path:
        return frozenset()
    entries = Path(path).read_text(encoding="utf-8").split()
    return frozenset(e.lower() if lowercase else e for e in entries)


def _configs_from_settings(settings) -> tuple[IngestConfig, SpaceConfig]:
    ingest = IngestConfig(
        min_count=settings["min_count"],
        max_doc_frequency=settings["max_doc_freq"],
        stoplist=_read_stoplist(settings["stoplist"], settings["lowercase"]),
        lowercase=settings["lowercase"],
        drop_digit_tokens=settings["drop_digits"],
        split_sentences=settings["split_sentences"],
    )
    space_cfg = SpaceConfig.create(
        dim=settings["dim"],
        window=settings["window"],
        global_seed=settings["global_seed"],
        distribution=settings["distribution"],
        ternary_nonzeros=settings["ternary_k"],
    )
    return ingest, space_cfg


def _update_conflicts(given: dict, space: SemanticSpace) -> list[str]:
    """One message per given setting that differs from the index's value."""
    stored = {key: read(space) for key, read in _INDEX_SETTINGS.items()}
    if "stoplist" in given:
        given = {**given, "stoplist": _read_stoplist(given["stoplist"], stored["lowercase"])}
    return [
        f"{key}={value!r} conflicts with index value {stored[key]!r}"
        for key, value in given.items()
        if value != stored[key]
    ]


def _require_index(path, parser) -> str:
    if not path:
        parser.error(f"no index path: pass --index/-o or set ${ENV_INDEX}")
    return path


@contextmanager
def _index_lock(index_path: str):
    """Exclusive advisory lock file guarding index writes."""
    lock_path = index_path + ".lock"
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise LockHeldError(
            f"another writer holds {lock_path} (remove it if stale)"
        ) from None
    try:
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(lock_path)
        except OSError:
            pass


def _cmd_build(args, parser) -> int:
    out_path = _require_index(args.output, parser)
    ingest_cfg, space_cfg = _configs_from_settings({**_SETTING_DEFAULTS, **_given_settings(args)})
    corpus = open_corpus(args.input, args.input_format)
    started = time.perf_counter()
    space = build(corpus, ingest_cfg, space_cfg)
    if space.freq.total_docs == 0:
        print("error: no readable documents in corpus", file=sys.stderr)
        return 1
    space.save(out_path)
    elapsed = time.perf_counter() - started
    print(
        f"built {out_path}: {space.vocabulary_size} vocabulary terms, "
        f"{space.freq.total_tokens} tokens, {space.freq.total_docs} documents "
        f"({space.freq.skipped_docs} skipped) in {elapsed:.2f}s"
    )
    return 0


def _cmd_update(args, parser) -> int:
    index_path = _require_index(args.index, parser)
    given = _given_settings(args)
    with _index_lock(index_path):
        space = SemanticSpace.load(index_path)
        conflicts = _update_conflicts(given, space)
        for message in conflicts:
            print(f"error: {message}; updates reuse the stored config", file=sys.stderr)
        if conflicts:
            return 1
        corpus = open_corpus(args.input, args.input_format)
        before_terms = space.vocabulary_size
        before_events = dict(zip(space.terms(), space._events.tolist()))
        started = time.perf_counter()
        update(space, corpus)
        space.save(index_path)
        elapsed = time.perf_counter() - started
    changed = sum(
        1
        for term, events in zip(space.terms(), space._events.tolist())
        if before_events.get(term, -1) != events and term in before_events
    )
    print(
        f"updated {index_path}: +{space.vocabulary_size - before_terms} new terms, "
        f"{changed} changed, {space.vocabulary_size} total in {elapsed:.2f}s"
    )
    return 0


def _disambig_config(args) -> DisambigConfig:
    kwargs = {}
    if args.min_sim is not None:
        kwargs["cohort_min_sim"] = args.min_sim
    if args.threshold is not None:
        kwargs["separation_threshold"] = args.threshold
    if args.levels is not None:
        kwargs["levels"] = tuple(int(part) for part in args.levels.split(","))
    if args.min_freq is not None:
        kwargs["min_freq"] = args.min_freq
    if args.max_freq is not None:
        kwargs["max_freq"] = args.max_freq
    if args.label_len is not None:
        kwargs["label_len"] = args.label_len
    if args.global_labels:
        kwargs["label_mode"] = "global"
    if args.cap is not None:
        kwargs["cohort_cap"] = args.cap
    return DisambigConfig(**kwargs)


def _cmd_disambig(args, parser) -> int:
    cfg = _disambig_config(args)
    sink = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout

    def emit(result) -> None:
        print(json.dumps(result.to_dict(), ensure_ascii=False), file=sink)

    try:
        if args.gram:
            labels, gram = load_gram_fixture(args.gram)
            parent = args.parent or labels[0]
            if parent not in labels:
                print(f"error: parent {parent!r} is not a row label", file=sys.stderr)
                return 2
            row = labels.index(parent)
            emit(disambiguate_from_gram(labels, gram, gram[row], cfg, term=parent))
            return 0

        space = SemanticSpace.load(_require_index(args.index, parser))
        if args.batch:
            results = batch_disambiguate(space, cfg, terms=args.terms or None)
            summary_input = []
            produced = 0
            for result in results:
                emit(result)
                produced += 1
                if args.summary:
                    summary_input.append(result)
            if args.summary:
                tally = summarize(summary_input)
                print(
                    f"processed {tally.terms_processed} terms; senses: "
                    + ", ".join(f"{k}: {v}" for k, v in tally.by_sense_count.items()),
                    file=sys.stderr,
                )
            return 0 if produced else 2
        if not args.terms:
            parser.error("disambig needs TERM arguments, --batch, or --gram")
        for term in args.terms:
            emit(disambiguate(space, term, cfg, force=args.force))
        return 0
    finally:
        if sink is not sys.stdout:
            sink.close()


def _cmd_neighbors(args, parser) -> int:
    space = SemanticSpace.load(_require_index(args.index, parser))
    for term, sim in space.neighbors(args.term, args.k):
        print(f"{term}\t{sim:.6f}")
    return 0


def _cmd_sim(args, parser) -> int:
    space = SemanticSpace.load(_require_index(args.index, parser))
    terms = args.terms
    if len(terms) == 2:
        print(f"{space.similarity(terms[0], terms[1]):.6f}")
        return 0
    width = max(len(t) for t in terms)
    for i, term in enumerate(terms):
        row = " ".join(f"{space.similarity(term, other):9.6f}" for other in terms)
        print(f"{i:3d} {term:<{width}} {row}")
    print(" " * (4 + width) + " ".join(f"{i:>9d}" for i in range(len(terms))))
    return 0


def _cmd_stats(args, parser) -> int:
    space = SemanticSpace.load(_require_index(args.index, parser))
    scheme = space.config.seed_scheme
    lines = [
        ("dimension", space.config.dim),
        ("window", space.config.window),
        ("distribution", scheme.distribution),
        ("global seed", scheme.global_seed),
        ("vocabulary terms", space.vocabulary_size),
        ("tracked terms", len(space.freq)),
        ("documents", space.freq.total_docs),
        ("documents skipped", space.freq.skipped_docs),
        ("tokens", space.freq.total_tokens),
    ]
    for key, value in lines:
        print(f"{key}: {value}")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "update": _cmd_update,
    "disambig": _cmd_disambig,
    "neighbors": _cmd_neighbors,
    "sim": _cmd_sim,
    "stats": _cmd_stats,
}


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except (UnknownTermError, ZeroVectorError, FrequencyBandError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RispError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
