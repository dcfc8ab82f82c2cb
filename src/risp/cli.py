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
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

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
from .seeds import GAUSSIAN, TERNARY
from .space import SemanticSpace, SpaceConfig, build, update
from .storage import load_index, save_index

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


class _Setting(NamedTuple):
    """One build setting: config-file key, type, config field and flag.

    ``attr`` is an attribute path in IngestConfig ("ingest") or SpaceConfig
    ("space"); its last name is the IngestConfig field or SpaceConfig.create
    argument. A bool setting's flag sets the opposite of its default.
    """

    key: str
    kind: type
    config: str
    attr: str
    flag: str
    choices: tuple | None = None
    help: str | None = None


_SETTINGS = (
    _Setting("dim", int, "space", "dim", "--dim"),
    _Setting("window", int, "space", "window", "--window"),
    _Setting("global_seed", int, "space", "seed_scheme.global_seed", "--global-seed"),
    _Setting("distribution", str, "space", "seed_scheme.distribution", "--distribution",
             choices=(GAUSSIAN, TERNARY)),
    _Setting("ternary_k", int, "space", "seed_scheme.ternary_nonzeros", "--ternary-k"),
    _Setting("min_count", int, "ingest", "min_count", "--min-count"),
    _Setting("max_doc_freq", float, "ingest", "max_doc_frequency", "--max-doc-freq"),
    _Setting("stoplist", str, "ingest", "stoplist", "--stoplist",
             help="file with one stoplist term per line"),
    _Setting("lowercase", bool, "ingest", "lowercase", "--no-lowercase"),
    _Setting("drop_digits", bool, "ingest", "drop_digit_tokens", "--drop-digits"),
    _Setting("split_sentences", bool, "ingest", "split_sentences", "--split-sentences"),
)


def _setting_values(ingest: IngestConfig, space: SpaceConfig) -> dict:
    """Every setting's value as a pair of configs holds it."""
    configs = {"ingest": ingest, "space": space}
    return {s.key: attrgetter(s.attr)(configs[s.config]) for s in _SETTINGS}


_DEFAULTS = _setting_values(IngestConfig(), SpaceConfig.create())


def _add_config_flags(p) -> None:
    p.add_argument("--config", help="key=value settings file; explicit flags win")
    for s in _SETTINGS:
        if s.kind is bool:
            p.add_argument(s.flag, dest=s.key, action="store_const",
                           const=not _DEFAULTS[s.key], default=None)
        else:
            p.add_argument(s.flag, dest=s.key, type=s.kind, default=None,
                           choices=s.choices, help=s.help)


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


def _given_settings(args) -> dict:
    """Settings the user gave: config file <- explicit flags, in increasing precedence."""
    kinds = {s.key: s.kind for s in _SETTINGS}
    settings = {}
    if args.config:
        for key, raw in _parse_config_file(args.config).items():
            if key not in kinds:
                raise ValueError(f"unknown config key: {key!r}")
            settings[key] = _coerce(raw, kinds[key])
    for key in kinds:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    return settings


def _read_stoplist(given: dict, lowercase: bool) -> dict:
    """``given`` with its stoplist file, if any, replaced by the terms it yields."""
    if "stoplist" not in given:
        return given
    path = given["stoplist"]
    entries = Path(path).read_text(encoding="utf-8").split() if path else []
    return {**given, "stoplist": frozenset(e.lower() if lowercase else e for e in entries)}


def _configs_from_settings(settings: dict) -> tuple[IngestConfig, SpaceConfig]:
    kwargs = {"ingest": {}, "space": {}}
    for s in _SETTINGS:
        kwargs[s.config][s.attr.rpartition(".")[2]] = settings[s.key]
    return IngestConfig(**kwargs["ingest"]), SpaceConfig.create(**kwargs["space"])


def _update_conflicts(given: dict, space: SemanticSpace) -> list[str]:
    """One message per given setting that differs from the index's value."""
    stored = _setting_values(space.ingest_config, space.config)
    given = _read_stoplist(given, stored["lowercase"])
    return [
        f"{key}={_shown(value)!r} conflicts with index value {_shown(stored[key])!r}"
        for key, value in given.items()
        if value != stored[key]
    ]


def _shown(value):
    """A setting's value as a message prints it: a stoplist as its sorted terms."""
    return sorted(value) if isinstance(value, frozenset) else value


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
    given = _given_settings(args)
    given = _read_stoplist(given, given.get("lowercase", _DEFAULTS["lowercase"]))
    ingest_cfg, space_cfg = _configs_from_settings({**_DEFAULTS, **given})
    corpus = open_corpus(args.input, args.input_format)
    started = time.perf_counter()
    space = build(corpus, ingest_cfg, space_cfg)
    if space.freq.total_docs == 0:
        print("error: no readable documents in corpus", file=sys.stderr)
        return 1
    save_index(space, out_path)
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
        space = load_index(index_path)
        conflicts = _update_conflicts(given, space)
        for message in conflicts:
            print(f"error: {message}; updates reuse the stored config", file=sys.stderr)
        if conflicts:
            return 1
        corpus = open_corpus(args.input, args.input_format)
        before_terms = space.vocabulary_size
        before = space._events.copy()
        started = time.perf_counter()
        update(space, corpus)
        save_index(space, index_path)
        elapsed = time.perf_counter() - started
    changed = np.count_nonzero(space._events[:before_terms] != before)
    print(
        f"updated {index_path}: +{space.vocabulary_size - before_terms} new terms, "
        f"{changed} changed, {space.vocabulary_size} total in {elapsed:.2f}s"
    )
    return 0


# disambig flag (argparse dest) -> DisambigConfig field; None means "not given".
_DISAMBIG_FIELDS = (
    ("min_sim", "cohort_min_sim"),
    ("threshold", "separation_threshold"),
    ("min_freq", "min_freq"),
    ("max_freq", "max_freq"),
    ("label_len", "label_len"),
    ("cap", "cohort_cap"),
)


def _disambig_config(args) -> DisambigConfig:
    kwargs = {field: getattr(args, dest) for dest, field in _DISAMBIG_FIELDS
              if getattr(args, dest) is not None}
    if args.levels is not None:
        kwargs["levels"] = tuple(int(part) for part in args.levels.split(","))
    if args.global_labels:
        kwargs["label_mode"] = "global"
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

        space = load_index(_require_index(args.index, parser))
        if args.batch:
            def emitted():
                for result in batch_disambiguate(space, cfg, terms=args.terms or None):
                    emit(result)
                    yield result

            tally = summarize(emitted())  # counts as it goes; no record is kept
            if args.summary:
                print(
                    f"processed {tally.terms_processed} terms; senses: "
                    + ", ".join(f"{k}: {v}" for k, v in tally.by_sense_count.items()),
                    file=sys.stderr,
                )
            return 0 if tally.terms_processed else 2
        if not args.terms:
            parser.error("disambig needs TERM arguments, --batch, or --gram")
        for term in args.terms:
            emit(disambiguate(space, term, cfg, force=args.force))
        return 0
    finally:
        if sink is not sys.stdout:
            sink.close()


def _cmd_neighbors(args, parser) -> int:
    space = load_index(_require_index(args.index, parser))
    for term, sim in space.neighbors(args.term, args.k):
        print(f"{term}\t{sim:.6f}")
    return 0


def _cmd_sim(args, parser) -> int:
    space = load_index(_require_index(args.index, parser))
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
    space = load_index(_require_index(args.index, parser))
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
