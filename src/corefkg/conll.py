"""Column-oriented coreference format for interoperability with the standard
CoNLL-style scorer.

Documents are delimited by ``#begin document <id>`` / ``#end document``; each
line carries one token, and the final column carries coreference chain
brackets: ``(k`` opens chain k at this token, ``k)`` closes it, ``(k)`` is a
single-token mention, ``-`` is none; several entries are separated by ``|``.
A line that starts with ``#`` and is no sentinel is a comment; the writer
refuses a doc id that starts with ``#``, whose token lines would read as
comments, as it refuses every doc id outside the readers' doc_id rule.

The format is token-indexed while the data model is character-indexed, so
the writer also emits a sidecar *token table* (TSV: doc_id, token index,
start, end) recording the character span of every token. The writer
tokenizes left to right, so the spans of a document increase: each starts
at or after the end of the one before. Reading with the table restores the
offsets and token texts exactly; every gap between tokens (and before the
first) is rebuilt as spaces, and whitespace after the last token is dropped,
so ``'A deep\\nnet\\tworks. '`` reads back as ``'A deep net works.'``.
Reading without it synthesizes text by joining tokens with single spaces.

The reader checks each line of a column file and words every fault. It
reads a table in step with the column file: each document takes the next
lines of the table, one per token, checked and split at once. A table whose
rows are not in the writer's order is read whole into the dict of
``parse_token_table``, whose line loop checks each row.
"""

from __future__ import annotations

import contextlib
import io
import re
from functools import partial
from itertools import islice, repeat
from typing import Callable, Iterable, Iterator, TextIO

from .errors import ParseError
from .jsonl import (_checked, _digits, _in_blocks, _lines, _long_numeral, _naming, _read_text,
                    _reading)
from .model import (
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    MentionSource,
    _doc_id_fault,
    all_clusters,
)

__all__ = ["write_coref_columns", "read_coref_columns", "parse_token_table"]

_BEGIN = "#begin document "
_END = "#end document"

# One chain entry: "(k" opens chain k, "k)" closes it, "(k)" is both; an
# entry needs at least one bracket. [0-9], not \d: \d also matches non-ASCII
# digits such as ٣, which int() takes.
_ENTRY = re.compile(r"^(\(?)([0-9]+)(\)?)$")

# A token table row in the writer's shape: a doc_id that holds no whitespace
# and is not led by "#", and three ASCII digit runs. [0-9], not \d: \d also
# matches non-ASCII digits such as ٣, which int() takes. A document's rows have
# the writer's shape when removing every row leaves nothing. The pattern is
# compiled at first use, through re's cache, so that commands that read no
# column file do not pay for compiling it at start-up.
_TABLE_ROW = r"(?m)^[^\s#]\S*\t[0-9]+\t[0-9]+\t[0-9]+\n"


def _tokenize(text: str, boundaries: set[int]) -> list[tuple[int, int]]:
    """Whitespace tokens, additionally split at mention boundaries."""
    spans: list[tuple[int, int]] = []
    start = None
    for i, ch in enumerate(text):
        if ch.isspace():
            if start is not None:
                spans.append((start, i))
                start = None
        else:
            if start is None:
                start = i
            elif i in boundaries:
                spans.append((start, i))
                start = i
    if start is not None:
        spans.append((start, len(text)))
    return spans


def write_coref_columns(corpus: Corpus) -> tuple[str, str]:
    """Serialize a corpus; returns (column file, token table).

    Every mention appears in exactly one chain: annotated clusters plus
    implicit singletons. Mention boundaries must not fall inside whitespace,
    two mentions of one document must not share a character span (the
    column format cannot represent either), and a doc_id must keep the rule
    of every corpus reader (see ``model._doc_id_fault``).
    """
    columns, table = io.StringIO(), io.StringIO()
    _write_columns(map(_document_columns, corpus), columns, table)
    return columns.getvalue(), table.getvalue()


def _write_columns(records: Iterable[tuple[str, str]], columns: TextIO, table: TextIO) -> None:
    """Write the column lines and table rows of each document's record, in
    step; a corpus of no document is a column file of one empty line."""
    empty = True
    for lines, rows in records:
        columns.write(lines)
        table.write(rows)
        empty = False
    if empty:
        columns.write("\n")


def _columns(docs: Iterable[Document]) -> Iterator[tuple[str | None, str]]:
    """The map of a column output: each document's ``_document_columns``, or
    ``(None, why)`` for one the writer refuses (see ``jsonl._unrefused``)."""
    for doc in docs:
        try:
            yield _document_columns(doc)
        except ValueError as exc:
            yield None, str(exc)


def _document_columns(doc: Document) -> tuple[str, str]:
    """The column lines and the token table rows of one document, each line
    with its newline; ValueError for a document ``write_coref_columns`` refuses."""
    doc_id, text = doc.doc_id, doc.text
    fault = _doc_id_fault(doc_id)
    if fault:
        raise ValueError(f"doc_id {doc_id!r} {fault}, which the column writer refuses")
    boundaries: set[int] = set()
    for m in doc.mentions:
        boundaries.update((m.start, m.end))
    tokens = _tokenize(text, boundaries)
    tok_at_start = {s: i for i, (s, _) in enumerate(tokens)}
    tok_at_end = {e: i for i, (_, e) in enumerate(tokens)}

    # canonical chain numbering: by earliest member span (the reader
    # restores the same order, making write-read-write stable)
    chains = sorted(all_clusters(doc), key=CoreferenceCluster.span_key)
    spans_seen: set[tuple[int, int]] = set()
    # the entries of each token, keyed so that sorting puts opens first (the
    # outermost first), then one-token mentions, then closes (the innermost first)
    cells: dict[int, list[tuple[int, int, int, str]]] = {}
    for chain_id, cluster in enumerate(chains):
        for m in cluster.mentions:
            if (m.start, m.end) in spans_seen:
                raise ValueError(
                    f"column format cannot represent two mentions sharing span {m.span()}"
                )
            spans_seen.add((m.start, m.end))
            try:
                ti, tj = tok_at_start[m.start], tok_at_end[m.end]
            except KeyError:
                raise ValueError(
                    f"mention boundary inside whitespace @ {m.span()}"
                ) from None
            if ti == tj:
                cells.setdefault(ti, []).append((1, 0, chain_id, f"({chain_id})"))
            else:
                cells.setdefault(ti, []).append((0, -tj, chain_id, f"({chain_id}"))
                cells.setdefault(tj, []).append((2, -ti, chain_id, f"{chain_id})"))
    coref = ["-"] * len(tokens)
    for idx, entries in cells.items():
        entries.sort()
        coref[idx] = "|".join([entry[3] for entry in entries])

    lines = [f"{_BEGIN}{doc_id}\n"]
    rows = []
    for idx, (s, e) in enumerate(tokens):
        lines.append(f"{doc_id}\t{idx}\t{text[s:e]}\t{coref[idx]}\n")
        rows.append(f"{doc_id}\t{idx}\t{s}\t{e}\n")
    lines.append(f"{_END}\n")
    return "".join(lines), "".join(rows)


def parse_token_table(table: str) -> dict[tuple[str, int], tuple[int, int]]:
    """Parse a sidecar token table into {(doc_id, token index): (start, end)},
    line by line with a check per field: ParseError at the first faulty line,
    such as a second row for one token."""
    out: dict[tuple[str, int], tuple[int, int]] = {}
    for lineno, line in enumerate(_lines(table), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"token table expects 4 columns, got {line!r}", lineno)
        index, start, end = (_digits(p, "token table entry", lineno) for p in parts[1:])
        span = (start, end)
        # setdefault returns an earlier row's span if the token is listed twice
        if out.setdefault((parts[0], index), span) is not span:
            raise ParseError(f"token table lists token {index} of {parts[0]!r} twice", lineno)
    return out


class _TokenTable:
    """A token table as the column reader uses it: its ``lines``, read in step
    with the column file, and ``text()``, the whole table.

    Each document takes the next lines, one per token, as its rows while they
    are in the writer's shape and hold its doc_id and its token indices in
    order. Otherwise the table is read whole, from its start, into the dict of
    ``parse_token_table``, and rows are looked up by (doc_id, index). A fault
    of the table itself names its ``path``, if it has one.
    """

    def __init__(self, lines: Iterator[str], text: Callable[[], str], path: str | None = None):
        self.lines, self.text, self.path = lines, text, path
        self.numerals: list[str] = []  # "0", "1", ...: the index fields of a document
        self.rows = None

    def offsets(self) -> dict[tuple[str, int], tuple[int, int]]:
        """The rows by (doc_id, index); reading them raises ParseError at the
        table's first faulty line."""
        if self.rows is None:
            try:
                self.rows = parse_token_table(self.text())
            except ParseError as exc:
                raise _naming(exc, self.path) from None
        return self.rows

    def spans(self, doc_id: str, n: int) -> list[tuple[int, int]]:
        """The rows of the ``n`` tokens of a document, up to the first token
        without one."""
        if self.rows is None:
            rows = "\n".join([*islice(self.lines, n), ""])
            if n > len(self.numerals):
                self.numerals = list(map(str, range(2 * n)))
            fields = [] if re.sub(_TABLE_ROW, "", rows) else rows.split()
            if fields[0::4].count(doc_id) == n and fields[1::4] == self.numerals[:n]:
                try:
                    return list(zip(map(int, fields[2::4]), map(int, fields[3::4])))
                except ValueError:  # past the interpreter's digit limit
                    pass
            self.offsets()
        spans = list(map(self.rows.get, zip(repeat(doc_id), range(n))))
        if None in spans:
            del spans[spans.index(None):]
        return spans

    def check_used(self, n_tokens: dict[str, int], lineno: int) -> None:
        """ParseError, at ``lineno``, for a row that no token used, given each
        document's token count."""
        if self.rows is None and next(self.lines, None) is None:
            return
        offsets = self.offsets()
        # Each document used one row per token, all distinct (doc_ids are unique).
        if len(offsets) != sum(n_tokens.values()):
            used = {(d, i) for d, n in n_tokens.items() for i in range(n)}
            unused = next(key for key in offsets if key not in used)
            raise ParseError(f"token table row {unused!r} matches no token", lineno)


def _token_column(cols: list[str]) -> int:
    # Our own files have 4 columns (doc, index, token, coref); full
    # CoNLL-2012 exports have 12+, with the word in column 3.
    return 3 if len(cols) >= 8 else len(cols) - 2


def _column_document(doc_id: str, tokens: list[str], chains: dict[int, list[tuple[int, int]]],
                     table: _TokenTable | None, lineno: int) -> Document:
    """The document of one column block, built at its ``#end document`` line.
    ``chains`` maps each chain, in the order first seen, to the (first, last)
    token of each of its mentions.

    Token spans increase and tokens are not empty, and each close pops an
    earlier open, so every mention is ordered, in range and reads back: the
    document is valid by construction once its spans are unique.
    """
    if table is None:
        spans = []
        pos = 0
        for tok in tokens:
            spans.append((pos, pos + len(tok)))
            pos += len(tok) + 1
        text = " ".join(tokens)
    else:
        spans = table.spans(doc_id, len(tokens))
        text = _table_text(doc_id, tokens, spans, lineno)

    untyped, coref_only = ConceptType.NONE, MentionSource.COREF_ONLY  # bound once per document
    mentions: list[Mention] = []
    clusters: list[CoreferenceCluster] = []
    seen_spans: set[tuple[int, int]] = set()
    for chain_spans in chains.values():
        members = []
        for ti, tj in chain_spans:
            s, e = spans[ti][0], spans[tj][1]
            if (s, e) in seen_spans:
                raise ParseError(f"duplicate mention span [{s},{e}) in document {doc_id!r}", lineno)
            seen_spans.add((s, e))
            members.append(Mention(doc_id, s, e, untyped, text[s:e], coref_only))
        mentions.extend(members)
        clusters.append(CoreferenceCluster(doc_id, frozenset(members)))
    clusters.sort(key=CoreferenceCluster.span_key)
    mentions.sort(key=lambda m: (m.start, m.end))
    domain, sep, _ = doc_id.partition("/")
    return Document(doc_id=doc_id, domain=domain if sep else "", text=text,
                    mentions=tuple(mentions), clusters=tuple(clusters))


def _table_text(doc_id: str, tokens: list[str], spans: list[tuple[int, int]], lineno: int) -> str:
    """The text of a document: its tokens at their table spans, with spaces
    in the gaps. ``spans`` holds the rows of the first tokens, all of them
    unless a token has no row. ParseError for a span that does not fit its
    token or one that starts before the previous token ends, and then for the
    first token without a row."""
    pieces = []  # a gap and a token for each token so far
    pos = 0
    for tok, (s, e) in zip(tokens, spans):
        if e - s != len(tok):
            raise ParseError(f"token table span [{s},{e}) does not fit token {tok!r}", lineno)
        if s < pos:
            raise ParseError(f"token table span [{s},{e}) of token {len(pieces) // 2} {tok!r} "
                             f"of {doc_id!r} starts before the previous token ends at {pos}", lineno)
        pieces.append(" " * (s - pos))
        pieces.append(tok)
        pos = e
    if len(spans) < len(tokens):
        raise ParseError(f"token table has no entry for token {len(spans)} of {doc_id!r}", lineno)
    return "".join(pieces)


def _read_cell(idx: int, coref: str, lineno: int, stacks: dict[int, list[int]],
               chains: dict[int, list[tuple[int, int]]]) -> None:
    """Apply the chain entries of ``coref``, the coreference cell of token
    ``idx`` on line ``lineno``. ``stacks`` maps each chain to the tokens of
    its open brackets, ``chains`` each chain, in the order first seen, to the
    (first, last) token of each of its mentions."""
    for entry in coref.split("|"):
        m = _ENTRY.match(entry)
        if m is None or not (m[1] or m[3]):
            raise ParseError(f"malformed coreference entry {entry!r}", lineno)
        opened, number, closed = m.groups()
        try:
            chain = int(number)
        except ValueError:  # past the interpreter's digit limit
            raise _long_numeral("chain number", lineno) from None
        if not opened:
            stack = stacks.get(chain)
            if not stack:
                raise ParseError(f"chain {chain} closed before opened", lineno)
            chains[chain].append((stack.pop(), idx))
        elif closed:
            chains.setdefault(chain, []).append((idx, idx))
        else:
            chains.setdefault(chain, [])
            stacks.setdefault(chain, []).append(idx)


def read_coref_columns(columns: str, token_table: str | None = None) -> Corpus:
    """Parse a column file into a validated corpus of untyped (coreference-only)
    mentions.

    With a token table (the text ``write_coref_columns`` returns beside the
    columns), character offsets are the recorded ones and the text is
    reconstructed from the tokens at their spans, with spaces in the gaps.
    Each token needs a row whose span fits it, and the spans of a document
    must increase, as the writer writes them. Without a table, tokens are
    joined by single spaces. A document's domain is its doc_id's first ``/``
    segment, or ``''``, as ``brat.read_brat_dir`` takes the first directory.
    Chain brackets must balance per document; a mention span may belong to at
    most one chain. A fault in the table itself raises ParseError at its line,
    before any fault of the column file. A fault in a document's tokens, spans
    or chains, or a repeated doc_id, raises ParseError at its ``#end
    document`` line. A table row that no token uses raises ParseError at the
    last line (line 1 of an empty file).
    """
    table = None if token_table is None else _TokenTable(iter(_lines(token_table)),
                                                         lambda: token_table)
    return Corpus(tuple(_corpus(_lines(columns), table)))


def _read_documents(path, start: int = 0, stop: int | None = None, *,
                    seen: set[str] | None = None, read_on=None) -> Iterator[Document]:
    """The documents of ``_corpus`` of the ``_reading`` of the column file at
    ``path`` and of its token table ``<path>.tokens``, if there is one, read in
    step: a column file is one range, ``start`` and ``stop`` are 0 and None,
    and ``read_on`` is never called. The table's reading encloses the column
    file's, so that a bad byte of the table wins over one of the column file."""
    table_path = f"{path}.tokens"
    with contextlib.ExitStack() as files:
        try:
            table = _TokenTable(files.enter_context(_reading(table_path)),
                                partial(_read_text, table_path), table_path)
        except FileNotFoundError:
            table = None
        with _reading(path) as lines:
            yield from _corpus(lines, table, seen)


def _corpus(lines: Iterable[str], table: _TokenTable | None,
            seen: set[str] | None = None) -> Iterator[Document]:
    """The documents of ``read_coref_columns`` of a column file's ``lines`` and
    its ``table``, handed on in blocks of ``jsonl._BLOCK``, or its fault: one of
    the table itself comes first, as if the table were read up front. ``seen``
    collects the doc_ids read; one already in it is repeated."""
    try:
        yield from _in_blocks(_read_columns(lines, table, set() if seen is None else seen))
    except ParseError:
        if table is not None:
            table.offsets()
        raise


def _read_columns(lines: Iterable[str], table: _TokenTable | None,
                  seen_ids: set[str]) -> Iterator[Document]:
    """The documents of ``read_coref_columns``, collecting the doc_ids in ``seen_ids``."""
    n_tokens: dict[str, int] = {}  # doc_id -> its token count, for the unused-row check
    doc_id: str | None = None
    begin_line = lineno = 0
    for lineno, line in enumerate(lines, start=1):
        cols = line.split()
        # Most lines are 4-column token lines, so they are tested for
        # first; a "#"-led line (such as "#begin document a b") is not one.
        if len(cols) == 4 and doc_id is not None and line[0] != "#":
            token, coref = cols[2], cols[3]
        elif line.startswith(_BEGIN):
            if doc_id is not None:
                raise ParseError("nested document begin", lineno)
            doc_id = line[len(_BEGIN):].strip()
            if not doc_id:
                raise ParseError("document sentinel without an id", lineno)
            tokens: list[str] = []
            stacks: dict[int, list[int]] = {}
            chains: dict[int, list[tuple[int, int]]] = {}
            begin_line = lineno
            continue
        elif line.strip() == _END:
            if doc_id is None:
                raise ParseError("end sentinel outside a document", lineno)
            open_chains = sorted(k for k, v in stacks.items() if v)
            if open_chains:
                raise ParseError(f"unbalanced brackets: chains {open_chains} still open", lineno)
            yield _checked(_column_document(doc_id, tokens, chains, table, lineno), True, lineno,
                           seen_ids)
            n_tokens[doc_id] = len(tokens)
            doc_id = None
            continue
        elif not cols or line[0] == "#":
            continue  # sentence break or comment
        elif doc_id is None:
            raise ParseError(f"token line outside a document: {line!r}", lineno)
        elif len(cols) < 2:
            raise ParseError(f"expected token and coreference columns, got {line!r}", lineno)
        else:
            token, coref = cols[_token_column(cols)], cols[-1]
        if coref != "-" and coref != "_":
            _read_cell(len(tokens), coref, lineno, stacks, chains)
        tokens.append(token)
    if doc_id is not None:
        raise ParseError(
            f"missing end-of-document sentinel for document begun at line {begin_line}", lineno)
    if table is not None:
        table.check_used(n_tokens, max(lineno, 1))
