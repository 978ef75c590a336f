"""Command-line entry point.

Subcommands: convert, stats, score, baseline, populate, compile-gold,
eval-kg. Exit codes: 0 success, 1 usage error, 2 data/validation error
(violations are printed to stderr).

Corpus formats are detected from the path (directory = brat, .jsonl = jsonl,
anything else = conll columns) and can be forced with --format; a corpus
output of ``-`` is JSONL on stdout. A column file's sidecar token table is
looked up at ``<path>.tokens``. Option values resolve as: command-line flag,
then config file (``key = value`` lines, ``--config``), then built-in default.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from . import brat, conll, jsonl, parallel
from .baseline import _resolved
from .errors import ParseError, ValidationError
from .goldkg import (
    _evaluated,
    _gold,
    _gold_lines,
    _gold_records,
    _restriction,
    read_entity_links,
    read_gold_jsonl,
)
from .kgpop import CollapseStrategy, DomainScope, _cluster_fragment, _kept, _Population, _records
from .metrics import score_corpora
from .model import Corpus, Document, corpus_stats
from .normalize import load_lemma_exceptions, set_default_lemma_exceptions

__all__ = ["main"]

T = TypeVar("T")
_STRATEGY = {"cross": DomainScope.CROSS_DOMAIN, "in": DomainScope.IN_DOMAIN}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(jsonl._lines(jsonl._read_text(path)), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"config line is not 'key = value': {raw!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in ("format", "lemma_exceptions"):
            raise ParseError(f"unknown config key {key!r}; known: format, lemma_exceptions", lineno)
        cfg[key] = value.strip()
    return cfg


def _effective(args, cfg: dict[str, str], name: str, default=None):
    value = getattr(args, name, None)
    if value is not None:
        return value
    return cfg.get(name, default)


def _detect_format(path: Path, for_output: bool = False) -> str:
    if for_output and str(path) == "-":  # stdout
        return "jsonl"
    if path.is_dir() or (for_output and not path.suffix):
        return "brat"
    if path.suffix == ".jsonl":
        return "jsonl"
    return "conll"


def _documents(path_s: str, fmt: str | None) -> Iterator[Document]:
    """The documents of a corpus; the readers validate them and raise ParseError,
    which names the file at fault.

    Nothing is read until the result is iterated; a JSONL file is then decoded
    in blocks of documents, so a fault is raised when its block is reached.
    """
    path = Path(path_s)
    if not path.exists():
        raise ParseError(f"no such file or directory: {path}")
    fmt = fmt or _detect_format(path)
    if fmt == "brat":
        yield from brat.read_brat_dir(path)
    elif fmt == "jsonl":
        yield from _named(path, jsonl._read_documents(path))
    elif fmt == "conll":
        tokens_path = Path(str(path) + ".tokens")
        table = jsonl._read_text(tokens_path) if tokens_path.exists() else None
        try:
            corpus = conll.read_coref_columns(jsonl._read_text(path), table)
        except ParseError as exc:
            at = path
            if table is not None:
                try:
                    conll._table_lines(table)
                except ParseError:  # the fault is the table's own (it comes first)
                    at = tokens_path
            raise ParseError(exc.reason, exc.line, path=str(at)) from None
        yield from corpus
    else:
        raise ValueError(f"unknown corpus format {fmt!r}")


def _named(path: Path, items: Iterable[T]) -> Iterator[T]:
    """``items``; a ParseError among them that names no file names ``path``."""
    try:
        yield from items
    except ParseError as exc:
        if exc.path is not None:
            raise
        raise ParseError(exc.reason, exc.line, path=str(path)) from None


def _mapped(path_s: str, fmt: str | None, chain: Callable[..., Iterator]) -> Iterator:
    """What ``chain`` yields for a corpus's documents, mapped on every CPU for a
    BRAT tree or a JSONL file (``corefkg.parallel``). Close it: that kills the
    running workers."""
    path = Path(path_s)
    fmt = fmt or _detect_format(path)
    if fmt == "brat" and path.is_dir():
        return parallel.records(path, chain)
    if fmt == "jsonl" and path.is_file():
        return _named(path, parallel.records(path, chain))
    return chain(_documents(path_s, fmt))


def _read_first(corpus: str, fmt: str | None, parse: Callable[[str], T], path: str) -> T:
    """``parse`` of the file at ``path``, needed before the corpus at ``corpus``.
    If it raises, the corpus is read to the end first, so that a corpus fault
    is raised."""
    try:
        return parse(jsonl._read_text(path))
    except (OSError, ValueError):
        for _ in _documents(corpus, fmt):
            pass
        raise


def _write_corpus(docs: Iterable[Document], path_s: str, fmt: str | None) -> None:
    """Write a corpus to ``path_s``; ``-`` is stdout, for JSONL only.

    JSONL is written one document at a time, as ``docs`` yields them; the
    other formats are written once every document is at hand.
    """
    path = Path(path_s)
    fmt = fmt or _detect_format(path, for_output=True)
    if fmt == "jsonl":
        _emit(jsonl._document_lines(docs), path_s)
        return
    corpus = Corpus(tuple(docs))
    if path_s == "-":
        raise ValueError(f"a {fmt} corpus cannot be written to stdout; give --out a path")
    if fmt == "brat":
        brat.write_brat_dir(corpus, path)
        return
    if fmt == "conll":
        columns, table = conll.write_coref_columns(corpus)
        _write_file(path, (columns,))
        _write_file(str(path) + ".tokens", (table,))
        return
    raise ValueError(f"unknown corpus format {fmt!r}")


def _strategy(args) -> CollapseStrategy:
    return CollapseStrategy(scope=_STRATEGY[args.strategy], use_coreference=not args.no_coref)


def _write_file(path: str | Path, chunks: Iterable[str]) -> None:
    """Write ``chunks`` one at a time, encoded and with newlines translated
    as ``Path.write_text(..., "utf-8")`` would: no copy of the whole output.

    A regular file is written all or nothing. The chunks go to a temporary
    file beside it, which replaces it once the last chunk is written and is
    removed if producing or writing a chunk fails. A symbolic link's target
    is the file replaced. Anything else that exists at ``path``, such as
    ``/dev/null``, is written in place.
    """
    path = Path(os.path.realpath(path))
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        return
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8") as f:
            f.writelines(chunks)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write ``chunks`` to the file ``out``, or to stdout for ``-`` or no file."""
    if out and out != "-":
        _write_file(out, chunks)
    else:
        sys.stdout.writelines(chunks)


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_report(table: str, payload: dict, json_out: str | None) -> None:
    """Write the TSV ``table`` to stdout and the JSON ``payload`` to the file
    ``json_out``, if one is named. For ``-`` the JSON is all of stdout and the
    table goes to stderr, as ``populate --out -`` sends its table."""
    (sys.stderr if json_out == "-" else sys.stdout).write(table)
    if json_out:
        _emit((_json(payload),), json_out)


def build_parser() -> _Parser:
    parser = _Parser(prog="corefkg", description=__doc__)
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--format", choices=["brat", "conll", "jsonl"],
                        help="corpus format (default: detect from path)")
    parser.add_argument("--lemma-exceptions", dest="lemma_exceptions",
                        help="two-column TSV overriding the plural/singular table")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("convert", help="convert a corpus between formats")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--from", dest="from_format", choices=["brat", "conll", "jsonl"])
    p.add_argument("--to", dest="to_format", choices=["brat", "conll", "jsonl"])

    p = sub.add_parser("stats", help="corpus statistics per concept type or domain")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--group-by", choices=["concept_type", "domain"], default="concept_type")

    p = sub.add_parser("score", help="score a response corpus against a key corpus")
    p.add_argument("--key", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--json-out", help="write the JSON report to this file (default: stdout, "
                   "after the table); with -, stdout holds only the JSON and the table "
                   "goes to stderr")
    p.add_argument("--ceafe-drop-singletons", action="store_true",
                   help="diagnostic CEAFe variant that ignores singleton response parts")

    p = sub.add_parser("baseline", help="run the string-match coreference baseline (from a "
                       "JSONL file or BRAT tree to JSONL: one process per CPU it may use)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)

    p = sub.add_parser("populate", help="populate a knowledge graph from a corpus (from a "
                       "JSONL file or BRAT tree: one process per CPU it may use)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--strategy", choices=["cross", "in"], required=True)
    p.add_argument("--no-coref", action="store_true",
                   help="treat every mention as a singleton cluster")
    p.add_argument("--gold", action="store_true",
                   help="annotations are gold: bypass the coref-only cluster filter")
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--format", dest="kg_format", choices=["jsonl", "ntriples"],
                   default="jsonl", help="export format of the populated graph")

    p = sub.add_parser("compile-gold", help="compile the gold KG from entity links (from a "
                       "JSONL file or BRAT tree: one process per CPU it may use)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--links", help="entity links TSV (doc_id, start, end, type, entity)")
    p.add_argument("--skip-unmatched-links", action="store_true")
    p.add_argument("--out", dest="output", default="-")

    p = sub.add_parser("eval-kg", help="evaluate a population strategy against a gold KG "
                       "(from a JSONL file or BRAT tree: one process per CPU it may use)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--strategy", choices=["cross", "in"], required=True)
    p.add_argument("--no-coref", action="store_true")
    p.add_argument("--json-out", help="write the JSON report to this file; with -, stdout "
                   "holds only the JSON and the table goes to stderr")
    p.add_argument("--ceafe-drop-singletons", action="store_true")
    return parser


def _cmd_convert(args, cfg) -> int:
    fmt = _effective(args, cfg, "format")
    _write_corpus(_documents(args.input, args.from_format or fmt), args.output,
                  args.to_format or fmt)
    return 0


def _cmd_stats(args, cfg) -> int:
    docs = _documents(args.input, _effective(args, cfg, "format"))
    sys.stdout.write(corpus_stats(docs, args.group_by).to_tsv())
    return 0


def _cmd_score(args, cfg) -> int:
    fmt = _effective(args, cfg, "format")
    report = score_corpora(
        _documents(args.key, fmt), _documents(args.response, fmt),
        ceafe_drop_singleton_response_parts=args.ceafe_drop_singletons,
    )
    payload = report.to_dict()
    _write_report(report.to_table(), payload, args.json_out)
    if not args.json_out:  # no file named: the JSON follows the table on stdout
        sys.stdout.write(_json(payload))
    return 0


def _baseline_lines(docs: Iterable[Document]) -> Iterable[str]:
    return jsonl._document_lines(_resolved(docs))


def _cmd_baseline(args, cfg) -> int:
    fmt = _effective(args, cfg, "format")
    if (fmt or _detect_format(Path(args.output), True)) != "jsonl":
        _write_corpus(_resolved(_documents(args.input, fmt)), args.output, fmt)
        return 0
    with contextlib.closing(_mapped(args.input, fmt, _baseline_lines)) as lines:
        _emit(lines, args.output)
    return 0


def _cmd_populate(args, cfg) -> int:
    fmt = _effective(args, cfg, "format")
    ntriples = args.kg_format == "ntriples"
    chain = partial(_records, strategy=_strategy(args),
                    keep=_kept(args.gold, None if ntriples else _cluster_fragment))
    with contextlib.closing(_mapped(args.input, fmt, chain)) as records:
        kg = _Population(records)
    _emit(kg.ntriple_lines() if ntriples else kg.kg_lines(), args.output)
    # with the export on stdout, the table goes to stderr to keep stdout parseable
    (sys.stderr if args.output == "-" else sys.stdout).write(kg.stats().to_tsv())
    return 0


def _cmd_compile_gold(args, cfg) -> int:
    fmt = _effective(args, cfg, "format")
    links = _read_first(args.input, fmt, read_entity_links, args.links) if args.links else {}
    chain = partial(_gold_records, links=links)
    with contextlib.closing(_mapped(args.input, fmt, chain)) as records:
        gold = _gold(records, links, skip_unmatched=args.skip_unmatched_links)
    _emit(_gold_lines(gold), args.output)
    return 0


def _cmd_eval_kg(args, cfg) -> int:
    fmt = _effective(args, cfg, "format")
    key = _read_first(args.input, fmt, read_gold_jsonl, args.gold).partition()
    universe = key.universe()
    chain = partial(_records, strategy=_strategy(args), keep=_restriction(universe))
    with contextlib.closing(_mapped(args.input, fmt, chain)) as records:
        result = _evaluated(key, universe, records, args.ceafe_drop_singletons)
    table = result.report.to_table() + f"concepts\t{result.n_concepts}\n"
    _write_report(table, result.to_dict(), args.json_out)
    return 0


_COMMANDS = {
    "convert": _cmd_convert,
    "stats": _cmd_stats,
    "score": _cmd_score,
    "baseline": _cmd_baseline,
    "populate": _cmd_populate,
    "compile-gold": _cmd_compile_gold,
    "eval-kg": _cmd_eval_kg,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    # The documents a command reads, and what it builds from them, hold no
    # reference cycles: reference counting frees each streamed document, and
    # what a command keeps lives until it returns, so full collections would
    # only walk every mention again and again. Pause the cyclic collector for
    # the command; a caller that had it off keeps it off.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    exceptions_set = False
    try:
        cfg = _load_config(args.config)
        exceptions_path = _effective(args, cfg, "lemma_exceptions")
        if exceptions_path:
            set_default_lemma_exceptions(load_lemma_exceptions(exceptions_path))
            exceptions_set = True
        return _COMMANDS[args.command](args, cfg)
    except ValidationError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return 2
    except (ParseError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # the flag's table holds for this command only
        if exceptions_set:
            set_default_lemma_exceptions(None)
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
