"""Column-oriented coreference format for interoperability with the standard
CoNLL-style scorer.

Documents are delimited by ``#begin document <id>`` / ``#end document``; each
line carries one token, and the final column carries coreference chain
brackets: ``(k`` opens chain k at this token, ``k)`` closes it, ``(k)`` is a
single-token mention, ``-`` is none; several entries are separated by ``|``.

The format is token-indexed while the data model is character-indexed, so
the writer also emits a sidecar *token table* (TSV: doc_id, token index,
start, end) recording the character span of every token. The writer
tokenizes left to right, so the spans of a document increase: each starts
at or after the end of the one before. Reading with the table restores exact
offsets; reading without it synthesizes text by joining tokens with single
spaces.
"""

from __future__ import annotations

import re

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

# One line of a token table, before its ``\n``: a row (a doc_id that does not
# start with "#", then three ASCII digit runs, all tab-separated, and an
# optional "\r"), a comment or a blank line. Only a row sets the groups. It
# is compiled at first use, through re's cache, so that commands that read
# no token table do not pay for compiling it at start-up.
_TABLE_LINE = r"^(?:([^#\t\n][^\t\n]*|)\t([0-9]+)\t([0-9]+)\t([0-9]+)\r?|#[^\n]*|[^\S\n]*)$"


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
    and two mentions of one document must not share a character span (the
    column format cannot represent either).
    """
    lines: list[str] = []
    table: list[str] = []
    for doc in corpus:
        if any(ch.isspace() for ch in doc.doc_id):
            raise ValueError(f"doc_id {doc.doc_id!r} contains whitespace")
        boundaries: set[int] = set()
        for m in doc.mentions:
            boundaries.update((m.start, m.end))
        tokens = _tokenize(doc.text, boundaries)
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

        lines.append(f"{_BEGIN}{doc.doc_id}")
        for idx, (s, e) in enumerate(tokens):
            entries = cells.get(idx)
            coref = "|".join(entry[3] for entry in sorted(entries)) if entries else "-"
            lines.append(f"{doc.doc_id}\t{idx}\t{doc.text[s:e]}\t{coref}")
            table.append(f"{doc.doc_id}\t{idx}\t{s}\t{e}")
        lines.append(_END)
    return "\n".join(lines) + "\n", "\n".join(table) + ("\n" if table else "")


def parse_token_table(table: str) -> dict[tuple[str, int], tuple[int, int]]:
    """Parse a sidecar token table into {(doc_id, token index): (start, end)};
    a second row for one token raises ParseError."""
    rows = _table_rows(table)
    return rows if rows is not None else _table_lines(table)


def _table_rows(table: str) -> dict[tuple[str, int], tuple[int, int]] | None:
    """The rows of a sound table, with one pattern match per line; None if a
    line is neither a row, a comment nor blank, if a token is listed twice or
    if ``int()`` refuses a numeral. ``_table_lines`` then words the fault."""
    out: dict[tuple[str, int], tuple[int, int]] = {}
    rows = lines = 0
    try:
        for lines, m in enumerate(re.finditer(_TABLE_LINE, table, re.M), start=1):
            doc_id, index, start, end = m.groups()
            if index is not None:
                out[doc_id, int(index)] = (int(start), int(end))
                rows += 1
    except ValueError:  # past the interpreter's digit limit
        return None
    # every line matched once (a final "\n" is followed by one empty line)
    if lines != table.count("\n") + 1 or len(out) != rows:
        return None
    return out


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


def _token_column(cols: list[str]) -> int:
    # Our own files have 4 columns (doc, index, token, coref); full
    # CoNLL-2012 exports have 12+, with the word in column 3.
    return 3 if len(cols) >= 8 else len(cols) - 2


def _column_document(doc_id: str, tokens: list[str], chains: dict[int, list[tuple[int, int]]],
                     offsets: dict[tuple[str, int], tuple[int, int]] | None,
                     lineno: int) -> Document:
    """The document of one column block, built at its ``#end document`` line.
    ``chains`` maps each chain, in the order first seen, to the (first, last)
    token of each of its mentions.

    Token spans increase and tokens are not empty, and each close pops an
    earlier open, so every mention is ordered, in range and reads back: the
    document is valid by construction once its spans are unique.
    """
    if offsets is None:
        spans = []
        pos = 0
        for tok in tokens:
            spans.append((pos, pos + len(tok)))
            pos += len(tok) + 1
        text = " ".join(tokens)
    else:
        spans, text = _table_spans(doc_id, tokens, offsets, lineno)

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


def _table_spans(doc_id: str, tokens: list[str], offsets: dict[tuple[str, int], tuple[int, int]],
                 lineno: int) -> tuple[list[tuple[int, int]], str]:
    """The table spans of a document's tokens, and its text: the tokens at
    their spans, with spaces in the gaps. ParseError for a token with no row,
    a span that does not fit its token or one that starts before the previous
    token ends."""
    spans = []
    pieces = []
    pos = 0
    for i, tok in enumerate(tokens):
        span = offsets.get((doc_id, i))
        if span is None:
            raise ParseError(f"token table has no entry for token {i} of {doc_id!r}", lineno)
        s, e = span
        if e - s != len(tok):
            raise ParseError(f"token table span [{s},{e}) does not fit token {tok!r}", lineno)
        if s < pos:
            raise ParseError(f"token table span [{s},{e}) of token {i} {tok!r} of {doc_id!r} "
                             f"starts before the previous token ends at {pos}", lineno)
        spans.append(span)
        pieces.append(" " * (s - pos))
        pieces.append(tok)
        pos = e
    return spans, "".join(pieces)


def read_coref_columns(columns: str, token_table: str | None = None) -> Corpus:
    """Parse a column file into a validated corpus of untyped (coreference-only)
    mentions.

    With a token table (the text ``write_coref_columns`` returns beside the
    columns), character offsets are the recorded ones and the text is
    reconstructed with the original spacing. Each token needs a row whose
    span fits it, and the spans of a document must increase, as the writer
    writes them. Without a table, tokens are joined by single spaces. Chain
    brackets must balance per document; a mention span may belong to at
    most one chain. A fault in a document's tokens, spans or chains, or a
    repeated doc_id, raises ParseError at its ``#end document`` line. A table
    row that no token uses raises ParseError at the last line (line 1 of an
    empty file).
    """
    lines = _lines(columns)
    offsets = None if token_table is None else parse_token_table(token_table)
    documents: list[Document] = []
    seen_ids: set[str] = set()
    n_tokens: dict[str, int] = {}  # doc_id -> its token count, for the unused-row check
    doc_id: str | None = None
    begin_line = 0
    for lineno, line in enumerate(lines, start=1):
        cols = line.split()
        # Most lines are our own 4-column token lines, so they are tested for
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
            stacks: dict[int, list[int]] = {}  # chain -> token indices of its open brackets
            chains: dict[int, list[tuple[int, int]]] = {}
            begin_line = lineno
            continue
        elif line.strip() == _END:
            if doc_id is None:
                raise ParseError("end sentinel outside a document", lineno)
            open_chains = sorted(k for k, v in stacks.items() if v)
            if open_chains:
                raise ParseError(f"unbalanced brackets: chains {open_chains} still open", lineno)
            documents.append(_checked(
                _column_document(doc_id, tokens, chains, offsets, lineno), True, lineno, seen_ids
            ))
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
        tokens.append(token)
        if coref == "-" or coref == "_":
            continue
        idx = len(tokens) - 1
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

    if doc_id is not None:
        raise ParseError(
            f"missing end-of-document sentinel for document begun at line {begin_line}",
            len(lines),
        )
    # Each document used one row per token, all distinct (doc_ids are unique).
    if offsets is not None and len(offsets) != sum(n_tokens.values()):
        used = {(d, i) for d, n in n_tokens.items() for i in range(n)}
        unused = next(key for key in offsets if key not in used)
        raise ParseError(f"token table row {unused!r} matches no token", max(len(lines), 1))
    return Corpus(tuple(documents))
