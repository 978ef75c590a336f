"""Command-line entry point.

Subcommands: convert, stats, score, baseline, populate, compile-gold,
eval-kg. Exit codes: 0 success, 1 usage error, 2 data/validation error
(violations are printed to stderr).

Corpus formats are detected from the path (directory = brat, .jsonl = jsonl,
anything else = conll columns) and can be forced with --format; a corpus
output of ``-`` is JSONL on stdout. A column file's sidecar token table is
looked up at ``<path>.tokens``.

Every corpus is read by the reader that ``corefkg.parallel`` picks for its
format, which names the file of a fault. convert, baseline, populate,
compile-gold and eval-kg map a corpus in any format on every CPU they may use;
stats reads it in one process, and score reads its key and its response at
once, on two processes when two CPUs may be used.
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
from typing import Callable, Iterable, Iterator, TextIO, TypeVar

from . import brat, jsonl, parallel
from .baseline import _resolved
from .errors import ParseError, ValidationError
from .metrics import _parts, _scored
from .model import Document, corpus_stats
from .normalize import load_lemma_exceptions, set_default_lemma_exceptions

# The KG, gold-KG and column modules are imported by the functions that use
# them, so that a command that needs none of them does not load them.

__all__ = ["main"]

T = TypeVar("T")

_FORMATS = ("brat", "conll", "jsonl")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _corpus(path_s: str, fmt: str | None, for_output: bool = False) -> tuple[Path, str]:
    """The path of a corpus and its format: ``fmt``, or the one its path shows."""
    path = Path(path_s)
    if fmt:
        return path, fmt
    if for_output and str(path) == "-":  # stdout
        return path, "jsonl"
    if path.is_dir() or (for_output and not path.suffix):
        return path, "brat"
    return path, "jsonl" if path.suffix == ".jsonl" else "conll"


def _read_first(corpus: str, fmt: str | None, parse: Callable[[Iterable[str]], T],
                path: str) -> T:
    """``parse`` of the lines of the file at ``path`` (``jsonl._reading``),
    needed before the corpus at ``corpus``. If it raises, the corpus is read to
    the end first, so that a corpus fault is raised."""
    try:
        with jsonl._reading(path) as lines:
            return parse(lines)
    except (OSError, ValueError):
        for _ in parallel.documents(*_corpus(corpus, fmt)):
            pass
        raise


def _write_corpus(src: str, fmt_in: str | None, out: str, fmt_out: str | None, *,
                  resolve: bool = False) -> None:
    """Write the documents of the corpus at ``src``, resolved by the baseline
    if ``resolve``, to ``out``; ``-`` is stdout, for JSONL only. Each format's
    writer is a per-document map on every CPU (``parallel.records``); a
    document it refuses is a record, raised once the last is read
    (``jsonl._unrefused``), so that a read fault anywhere is the one reported."""
    _, fmt = _corpus(out, fmt_out, for_output=True)
    if fmt != "jsonl" and out == "-":
        raise ValueError(f"a {fmt} corpus cannot be written to stdout; give --out a path")

    def mapped(write: Callable[[Iterable[Document]], Iterator]) -> contextlib.closing:
        # resolved a block at a time: one at a time, between the writer's
        # work on each, cost about 5% more time in one process
        return contextlib.closing(parallel.records(*_corpus(src, fmt_in), lambda docs: write(
            jsonl._in_blocks(_resolved(docs)) if resolve else docs)))

    if fmt == "jsonl":
        with mapped(jsonl._document_lines) as lines:
            _emit(lines, out)
    elif fmt == "conll":
        from . import conll

        with _replacing(out, out + ".tokens") as (columns, table), \
                mapped(conll._columns) as records:
            conll._write_columns(jsonl._unrefused(records), columns, table)
    else:
        with brat._staged(out) as staging, \
                mapped(partial(brat._pairs, root=out, staging=staging)) as records:
            brat._written(records, out)


def _strategy(args):
    """The ``kgpop.CollapseStrategy`` of ``--strategy`` and ``--no-coref``."""
    from .kgpop import CollapseStrategy, DomainScope

    scope = DomainScope.CROSS_DOMAIN if args.strategy == "cross" else DomainScope.IN_DOMAIN
    return CollapseStrategy(scope=scope, use_coreference=not args.no_coref)


@contextlib.contextmanager
def _replacing(*paths: str | Path) -> Iterator[list[TextIO]]:
    """A file open for writing at each of ``paths``, encoding and translating
    newlines as ``Path.write_text(..., "utf-8")`` would.

    Regular files are written all or nothing. Each one is written to a
    temporary file beside it; the temporaries replace their files only once
    the body has returned and every one is closed, and they are removed if
    the body or a write fails. A symbolic link's target is the file replaced.
    Anything else that exists at a path, such as ``/dev/null``, is written in
    place.
    """
    replacements: list[tuple[Path, Path]] = []  # (temporary, path)
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for path in paths:
                path = Path(os.path.realpath(path))
                replaced = not path.exists() or path.is_file()
                temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp") if replaced else path
                try:
                    files.append(stack.enter_context(open(temporary, "w", encoding="utf-8")))
                except OSError as exc:
                    exc.filename = str(path)  # a fault names the output, not its temporary
                    raise
                if replaced:  # only once made: unlinking one never made can fail too
                    replacements.append((temporary, path))
            yield files
        for temporary, path in replacements:
            os.replace(temporary, path)
    except BaseException:
        for temporary, _ in replacements:
            temporary.unlink(missing_ok=True)
        raise


def _emit(chunks: Iterable[str], out: str | None) -> None:
    """Write ``chunks`` to the file ``out``, or to stdout for ``-`` or no file."""
    if out and out != "-":
        with _replacing(out) as (f,):
            f.writelines(chunks)
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
    parser.add_argument("--format", choices=_FORMATS,
                        help="corpus format (default: detect from path)")
    parser.add_argument("--lemma-exceptions", dest="lemma_exceptions",
                        help="two-column TSV overriding the plural/singular table")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("convert", help="convert a corpus between formats (one process per "
                       "CPU it may use)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--from", dest="from_format", choices=_FORMATS)
    p.add_argument("--to", dest="to_format", choices=_FORMATS)

    p = sub.add_parser("stats", help="corpus statistics per concept type or domain")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--group-by", choices=["concept_type", "domain"], default="concept_type")

    p = sub.add_parser("score", help="score a response corpus against a key corpus (the key "
                       "and the response are read at once: on two processes when two CPUs "
                       "may be used)")
    p.add_argument("--key", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--json-out", help="write the JSON report to this file (default: stdout, "
                   "after the table); with -, stdout holds only the JSON and the table "
                   "goes to stderr")
    p.add_argument("--ceafe-drop-singletons", action="store_true",
                   help="diagnostic CEAFe variant that ignores singleton response parts")

    p = sub.add_parser("baseline", help="run the string-match coreference baseline (one process "
                       "per CPU it may use)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)

    p = sub.add_parser("populate", help="populate a knowledge graph from a corpus (one process "
                       "per CPU it may use)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--strategy", choices=["cross", "in"], required=True)
    p.add_argument("--no-coref", action="store_true",
                   help="treat every mention as a singleton cluster")
    p.add_argument("--gold", action="store_true",
                   help="annotations are gold: bypass the coref-only cluster filter")
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--format", dest="kg_format", choices=["jsonl", "ntriples"],
                   default="jsonl", help="export format of the populated graph")

    p = sub.add_parser("compile-gold", help="compile the gold KG from entity links (one process "
                       "per CPU it may use)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--links", help="entity links TSV (doc_id, start, end, type, entity)")
    p.add_argument("--skip-unmatched-links", action="store_true")
    p.add_argument("--out", dest="output", default="-")

    p = sub.add_parser("eval-kg", help="evaluate a population strategy against a gold KG "
                       "(one process per CPU it may use)")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--strategy", choices=["cross", "in"], required=True)
    p.add_argument("--no-coref", action="store_true")
    p.add_argument("--json-out", help="write the JSON report to this file; with -, stdout "
                   "holds only the JSON and the table goes to stderr")
    p.add_argument("--ceafe-drop-singletons", action="store_true")
    return parser


def _cmd_convert(args) -> int:
    _write_corpus(args.input, args.from_format or args.format, args.output,
                  args.to_format or args.format)
    return 0


def _cmd_stats(args) -> int:
    docs = parallel.documents(*_corpus(args.input, args.format))
    sys.stdout.write(corpus_stats(docs, args.group_by).to_tsv())
    return 0


def _cmd_score(args) -> int:
    # the response is read by a worker while this process reads the key
    with parallel.aside(*_corpus(args.response, args.format), _parts) as response_records:
        report = _scored(_parts(parallel.documents(*_corpus(args.key, args.format))),
                         response_records, args.ceafe_drop_singletons)
    payload = report.to_dict()
    _write_report(report.to_table(), payload, args.json_out)
    if not args.json_out:  # no file named: the JSON follows the table on stdout
        sys.stdout.write(_json(payload))
    return 0


def _cmd_baseline(args) -> int:
    _write_corpus(args.input, args.format, args.output, args.format, resolve=True)
    return 0


def _cmd_populate(args) -> int:
    from .kgpop import _cluster_fragment, _kept, _Population, _records

    ntriples = args.kg_format == "ntriples"
    chain = partial(_records, strategy=_strategy(args),
                    keep=_kept(args.gold, None if ntriples else _cluster_fragment))
    with contextlib.closing(parallel.records(*_corpus(args.input, args.format), chain)) as records:
        kg = _Population(records)
    _emit(kg.ntriple_lines() if ntriples else kg.kg_lines(), args.output)
    # with the export on stdout, the table goes to stderr to keep stdout parseable
    (sys.stderr if args.output == "-" else sys.stdout).write(kg.stats().to_tsv())
    return 0


def _cmd_compile_gold(args) -> int:
    from .goldkg import _entity_links, _gold, _gold_lines, _gold_records

    links = (_read_first(args.input, args.format, _entity_links, args.links)
             if args.links else {})
    chain = partial(_gold_records, links=links)
    with contextlib.closing(parallel.records(*_corpus(args.input, args.format), chain)) as records:
        gold = _gold(records, links, skip_unmatched=args.skip_unmatched_links)
    _emit(_gold_lines(gold), args.output)
    return 0


def _cmd_eval_kg(args) -> int:
    from .goldkg import _evaluated, _gold_kg, _restriction
    from .kgpop import _records

    gold = _read_first(args.input, args.format, _gold_kg, args.gold)
    chain = partial(_records, strategy=_strategy(args), keep=_restriction(gold))
    with contextlib.closing(parallel.records(*_corpus(args.input, args.format), chain)) as records:
        result = _evaluated(gold, records, args.ceafe_drop_singletons)
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
        if args.lemma_exceptions is not None:  # even "", a path that names no file
            set_default_lemma_exceptions(load_lemma_exceptions(args.lemma_exceptions))
            exceptions_set = True
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        for violation in exc.violations:
            print(violation, file=sys.stderr)
        return 2
    except (ParseError, ValueError, OSError) as exc:
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
