"""Column-oriented coreference format for interoperability with the standard
CoNLL-style scorer.

Documents are delimited by ``#begin document <id>`` / ``#end document``; each
line carries one token, and the final column carries coreference chain
brackets: ``(k`` opens chain k at this token, ``k)`` closes it, ``(k)`` is a
single-token mention, ``-`` is none; several entries are separated by ``|``.
A line that starts with ``#`` and is no sentinel is a comment, so the writer
refuses a doc id that starts with ``#``: its token lines would read as
comments.

The format is token-indexed while the data model is character-indexed, so
the writer also emits a sidecar *token table* (TSV: doc_id, token index,
start, end) recording the character span of every token. The writer
tokenizes left to right, so the spans of a document increase: each starts
at or after the end of the one before. Reading with the table restores the
offsets and token texts exactly; every gap between tokens (and before the
first) is rebuilt as spaces, and whitespace after the last token is dropped,
so ``'A deep\\nnet\\tworks. '`` reads back as ``'A deep net works.'``.
Reading without it synthesizes text by joining tokens with single spaces.

The reader takes a document block in the writer's shape (every token line
four tab-separated fields) with one split, and the document's rows of a
table in the writer's order as one slice of the table, split once. Any
other block or table goes through a line loop that checks each line, and
words every fault.
"""

from __future__ import annotations

import re
from itertools import compress, repeat
from typing import Iterable, Iterator

from .errors import ParseError
from .jsonl import _checked, _digits, _lines, _long_numeral
from .model import (
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    MentionSource,
    all_clusters,
)

__all__ = ["write_coref_columns", "read_coref_columns", "parse_token_table"]

_BEGIN = "#begin document "
_END = "#end document"

# One chain entry: "(k" opens chain k, "k)" closes it, "(k)" is both; an
# entry needs at least one bracket. [0-9], not \d: \d also matches non-ASCII
# digits such as ٣, which int() takes.
_ENTRY = re.compile(r"^(\(?)([0-9]+)(\)?)$")

# A document block in the writer's shape, from the start of its begin line:
# the begin line with an id that holds no whitespace, token lines of four
# tab-separated fields that hold no whitespace, the first not led by "#", and
# the end line. Split on whitespace, such a token line gives 4 fields: the
# line loop reads it as the same token and coreference cell.
_BLOCK = (r"#begin document (\S+)\n((?:[^\s#]\S*\t\S+\t\S+\t\S+\n)*)"
          r"#end document(?:\n|\Z)")
# A token table row in the writer's shape: a doc_id as in a token line and
# three ASCII digit runs. [0-9], not \d: \d also matches non-ASCII digits such
# as ٣, which int() takes. A table has the writer's shape when removing every
# row leaves nothing. One match of the rows repeated would keep state for each
# row until it ends, megabytes for a large table. Both patterns are compiled
# at first use, through re's cache, so that commands that read no column file
# do not pay for compiling them at start-up.
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
    two mentions of one document must not share a character span, and a
    doc_id must neither hold whitespace nor start with ``#`` (the column
    format cannot represent any of these).
    """
    lines: list[str] = []
    table: list[str] = []
    for doc in corpus:
        doc_id, text = doc.doc_id, doc.text
        if any(ch.isspace() for ch in doc_id):
            raise ValueError(f"doc_id {doc_id!r} contains whitespace")
        if doc_id.startswith("#"):
            raise ValueError(f"doc_id {doc_id!r} starts with '#', which the column format "
                             f"reads as a comment")
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

        lines.append(f"{_BEGIN}{doc_id}")
        for idx, (s, e) in enumerate(tokens):
            lines.append(f"{doc_id}\t{idx}\t{text[s:e]}\t{coref[idx]}")
            table.append(f"{doc_id}\t{idx}\t{s}\t{e}")
        lines.append(_END)
    return "\n".join(lines) + "\n", "\n".join(table) + ("\n" if table else "")


def parse_token_table(table: str) -> dict[tuple[str, int], tuple[int, int]]:
    """Parse a sidecar token table into {(doc_id, token index): (start, end)};
    a second row for one token raises ParseError."""
    fields = _table_fields(table)
    if fields is not None:
        docs, index, spans = fields
        try:
            rows = dict(zip(zip(docs, map(int, index)), spans))
        except ValueError:  # an index past the interpreter's digit limit
            return _table_lines(table)
        if len(rows) == len(spans):  # no token listed twice
            return rows
    return _table_lines(table)


def _table_fields(table: str) -> tuple[list[str], list[str], list[tuple[int, int]]] | None:
    """The doc fields, index fields and spans of a table in the writer's
    shape: a row of four tab-separated fields on each line, the first not
    empty, holding no whitespace and not led by ``#``, the others ASCII
    digits, and a ``\\n`` after each row. None for any other table, and for
    one with an offset that ``int()`` refuses; ``_table_lines`` reads those.
    A token listed twice, and an index that ``int()`` refuses, are left to
    the caller."""
    if re.sub(_TABLE_ROW, "", table):
        return None
    fields = table.split()
    try:
        spans = list(zip(map(int, fields[2::4]), map(int, fields[3::4])))
    except ValueError:  # past the interpreter's digit limit
        return None
    return fields[0::4], fields[1::4], spans


def _table_lines(table: str) -> dict[tuple[str, int], tuple[int, int]]:
    """``parse_token_table`` line by line, with a check per field: it raises
    ParseError at the first faulty line."""
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
    """A token table as the column reader uses it.

    While the rows follow the writer's order, each document takes the next
    slice of them. When the table is not in the writer's shape, or once a
    document's slice does not hold its rows, the rows are looked up by
    (doc_id, index) in the dict of ``_table_lines``.
    """

    def __init__(self, text: str):
        self.text = text
        self.fields = _table_fields(text)
        self.used = 0  # rows that documents took as slices
        self.numerals: list[str] = []  # "0", "1", ...: the index fields of a document
        self.rows = _table_lines(text) if self.fields is None else None

    def offsets(self) -> dict[tuple[str, int], tuple[int, int]]:
        """The rows by (doc_id, index); reading them raises ParseError at the
        table's first faulty line."""
        if self.rows is None:
            self.rows = _table_lines(self.text)
        return self.rows

    def spans(self, doc_id: str, n: int) -> list[tuple[int, int]]:
        """The rows of the ``n`` tokens of a document, up to the first token
        without one."""
        if self.rows is None:
            docs, index, spans = self.fields
            first, stop = self.used, self.used + n
            if n > len(self.numerals):
                self.numerals = list(map(str, range(2 * n)))
            if docs[first:stop].count(doc_id) == n and index[first:stop] == self.numerals[:n]:
                self.used = stop
                return spans[first:stop]
            self.offsets()
        spans = list(map(self.rows.get, zip(repeat(doc_id), range(n))))
        if None in spans:
            del spans[spans.index(None):]
        return spans

    def check_used(self, n_tokens: dict[str, int], lineno: int) -> None:
        """ParseError, at ``lineno``, for a row that no token used, given each
        document's token count."""
        if self.rows is None and self.used == len(self.fields[2]):
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
    return Document(doc_id=doc_id, domain="", text=text,
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


def _read_cells(cells: Iterable[tuple[int, str]], first_line: int,
                stacks: dict[int, list[int]], chains: dict[int, list[tuple[int, int]]]) -> None:
    """Apply the chain entries of each (token index, coreference cell) pair;
    the cell of token ``idx`` is on line ``first_line + idx``, and a cell
    ``_`` (or ``-``) has none. ``stacks`` maps each chain to the tokens of its
    open brackets, ``chains`` each chain, in the order first seen, to the
    (first, last) token of each of its mentions."""
    for idx, coref in cells:
        if coref == "_" or coref == "-":
            continue
        for entry in coref.split("|"):
            m = _ENTRY.match(entry)
            if m is None or not (m[1] or m[3]):
                raise ParseError(f"malformed coreference entry {entry!r}", first_line + idx)
            opened, number, closed = m.groups()
            try:
                chain = int(number)
            except ValueError:  # past the interpreter's digit limit
                raise _long_numeral("chain number", first_line + idx) from None
            if not opened:
                stack = stacks.get(chain)
                if not stack:
                    raise ParseError(f"chain {chain} closed before opened", first_line + idx)
                chains[chain].append((stack.pop(), idx))
            elif closed:
                chains.setdefault(chain, []).append((idx, idx))
            else:
                chains.setdefault(chain, [])
                stacks.setdefault(chain, []).append(idx)


class _ColumnReader:
    """The documents of one column file, as its blocks end."""

    def __init__(self, table: _TokenTable | None):
        self.table = table
        self.documents: list[Document] = []
        self.seen_ids: set[str] = set()
        self.n_tokens: dict[str, int] = {}  # doc_id -> its token count, for the unused-row check

    def end_document(self, doc_id: str, tokens: list[str], stacks: dict[int, list[int]],
                     chains: dict[int, list[tuple[int, int]]], lineno: int) -> None:
        """Add the document whose ``#end document`` line is line ``lineno``."""
        open_chains = sorted(k for k, v in stacks.items() if v)
        if open_chains:
            raise ParseError(f"unbalanced brackets: chains {open_chains} still open", lineno)
        self.documents.append(_checked(
            _column_document(doc_id, tokens, chains, self.table, lineno), True, lineno,
            self.seen_ids,
        ))
        self.n_tokens[doc_id] = len(tokens)

    def read_lines(self, text: str, first_line: int, last: bool) -> int:
        """Read ``text`` line by line, outside a document at its start; its
        first line is line ``first_line`` of the file. Unless it is the
        ``last`` text of the file, a document's begin line follows it.
        Returns the number of the line after it."""
        lines = _lines(text)
        doc_id: str | None = None
        begin_line = 0
        for lineno, line in enumerate(lines, start=first_line):
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
                self.end_document(doc_id, tokens, stacks, chains, lineno)
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
                _read_cells(((len(tokens), coref),), lineno - len(tokens), stacks, chains)
            tokens.append(token)
        after = first_line + len(lines)
        if doc_id is not None:
            if last:
                raise ParseError(
                    f"missing end-of-document sentinel for document begun at line {begin_line}",
                    after - 1,
                )
            raise ParseError("nested document begin", after)
        return after


def read_coref_columns(columns: str, token_table: str | None = None) -> Corpus:
    """Parse a column file into a validated corpus of untyped (coreference-only)
    mentions.

    With a token table (the text ``write_coref_columns`` returns beside the
    columns), character offsets are the recorded ones and the text is
    reconstructed from the tokens at their spans, with spaces in the gaps.
    Each token needs a row whose span fits it, and the spans of a document
    must increase, as the writer writes them. Without a table, tokens are
    joined by single spaces. Chain brackets must balance per document; a
    mention span may belong to at most one chain. A fault in the table
    itself raises ParseError at its line, before any fault of the column
    file. A fault in a document's tokens, spans or chains, or a repeated
    doc_id, raises ParseError at its ``#end document`` line. A table row
    that no token uses raises ParseError at the last line (line 1 of an
    empty file).
    """
    table = None if token_table is None else _TokenTable(token_table)
    try:
        return _read_columns(columns, table)
    except ParseError as exc:
        fault = exc
    if table is not None:
        table.offsets()  # a fault of the table itself comes first, as if it were read up front
    raise fault


def _writer_blocks(columns: str) -> Iterator[re.Match[str]]:
    """The blocks of a column file that have the writer's shape, in order,
    each from a line start. Searching for the begin line's text first skips
    the lines between blocks at the speed of ``str.find``."""
    block_at = re.compile(_BLOCK).match
    begin = columns.find(_BEGIN)
    while begin >= 0:
        block = block_at(columns, begin) if begin == 0 or columns[begin - 1] == "\n" else None
        if block is None:
            begin = columns.find(_BEGIN, begin + 1)
        else:
            yield block
            begin = columns.find(_BEGIN, block.end())


def _read_columns(columns: str, table: _TokenTable | None) -> Corpus:
    """``read_coref_columns`` block by block: one split for a block in the
    writer's shape, the line loop for any other text."""
    reader = _ColumnReader(table)
    pos, lineno = 0, 1  # the next character to read, and its line
    for block in _writer_blocks(columns):
        if block.start() > pos:
            lineno = reader.read_lines(columns[pos:block.start()], lineno, last=False)
        doc_id, body = block.groups()
        fields = body.split()
        tokens, cells = fields[2::4], fields[3::4]
        stacks: dict[int, list[int]] = {}
        chains: dict[int, list[tuple[int, int]]] = {}
        _read_cells(compress(enumerate(cells), map("-".__ne__, cells)), lineno + 1, stacks, chains)
        lineno += len(tokens) + 1
        reader.end_document(doc_id, tokens, stacks, chains, lineno)
        lineno += 1
        pos = block.end()
    if pos < len(columns):
        lineno = reader.read_lines(columns[pos:], lineno, last=True)
    if table is not None:
        table.check_used(reader.n_tokens, max(lineno - 1, 1))
    return Corpus(tuple(reader.documents))
