"""Reader boundary property: a valid serialisation with one random edit
either reads back into a valid value or raises ParseError carrying a line.

The edits are a changed field value, a dropped key, a truncated line and a
swapped pair of offsets. Any other exception (KeyError, TypeError, ...) or a
corpus that fails ``validate_corpus`` is a reader defect.
"""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkg.brat import parse_brat, write_brat
from corefkg.conll import read_coref_columns, write_coref_columns
from corefkg.errors import ParseError
from corefkg.goldkg import compile_gold, read_gold_jsonl, write_gold_jsonl
from corefkg.jsonl import read_jsonl, write_jsonl
from corefkg.kgpop import CollapseStrategy, export_kg_jsonl, populate, read_kg_jsonl
from corefkg.model import Corpus, Document, validate_corpus

from corpusgen import random_corpus

EDITS = ("change", "drop", "truncate", "swap")

JSON_VALUES = [-1, 0, 1, 2.5, True, None, "", "x", "Data", [], {}, [0]]
TEXT_VALUES = ["-1", "0", "1", "999", "x", "", "(0", "0)", "(1)", "Data", "T1", "*"]


def _pick_line(rng: random.Random, lines: list[str]) -> int | None:
    candidates = [i for i, line in enumerate(lines) if line.strip()]
    return rng.choice(candidates) if candidates else None


def _truncate(rng: random.Random, line: str) -> str:
    return line[: rng.randrange(1, len(line))] if len(line) > 1 else ""


def _paths(node, prefix=()):
    """Every (container, key) position inside a parsed JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, prefix + (key,))


def _at(node, path):
    for key in path:
        node = node[key]
    return node


def edit_json(rng: random.Random, text: str, edit: str) -> str:
    lines = text.split("\n")
    i = _pick_line(rng, lines)
    if i is None:
        return text
    if edit == "truncate":
        lines[i] = _truncate(rng, lines[i])
        return "\n".join(lines)
    obj = json.loads(lines[i])
    paths = list(_paths(obj))
    if edit == "swap":
        spans = [p for p in paths if isinstance(_at(obj, p), dict)
                 and {"start", "end"} <= _at(obj, p).keys()]
        if not spans:
            return text
        span = _at(obj, rng.choice(spans))
        span["start"], span["end"] = span["end"], span["start"]
    elif paths:
        path = rng.choice(paths)
        parent = _at(obj, path[:-1])
        if edit == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = rng.choice(JSON_VALUES)
    lines[i] = json.dumps(obj, ensure_ascii=False)
    return "\n".join(lines)


def edit_fields(rng: random.Random, text: str, edit: str, swap: re.Pattern) -> str:
    """Edit a tab/space separated text; ``swap`` matches two offsets to exchange."""
    lines = text.split("\n")
    if edit == "swap":
        candidates = [i for i, line in enumerate(lines) if swap.search(line)]
        if candidates:
            i = rng.choice(candidates)
            lines[i] = swap.sub(r"\g<pre>\g<end>\g<sep>\g<start>", lines[i], count=1)
        return "\n".join(lines)
    i = _pick_line(rng, lines)
    if i is None:
        return text
    if edit == "truncate":
        lines[i] = _truncate(rng, lines[i])
        return "\n".join(lines)
    parts = re.split(r"([\t ])", lines[i])   # fields at even positions
    k = 2 * rng.randrange((len(parts) + 1) // 2)
    if edit == "drop":
        del parts[k:k + 2]
    else:
        parts[k] = rng.choice(TEXT_VALUES)
    lines[i] = "".join(parts)
    return "\n".join(lines)


BRAT_OFFSETS = re.compile(r"^(?P<pre>T\d+\t\S+ )(?P<start>\d+)(?P<sep> )(?P<end>\d+)")
TABLE_OFFSETS = re.compile(r"^(?P<pre>\S+\t\d+\t)(?P<start>\d+)(?P<sep>\t)(?P<end>\d+)")


def _linked(corpus: Corpus) -> Corpus:
    """Link every mention to an entity named after its surface."""
    return Corpus(tuple(
        Document(d.doc_id, d.domain, d.text, d.mentions, d.clusters,
                 {m: "Q" + m.surface.lower() for m in d.mentions})
        for d in corpus
    ))


def read_edited(reader: str, rng: random.Random, edit: str):
    corpus = random_corpus(rng, n_docs=rng.randint(1, 3))
    if reader == "jsonl":
        return read_jsonl(edit_json(rng, write_jsonl(corpus), edit))
    if reader == "gold":
        return read_gold_jsonl(edit_json(rng, write_gold_jsonl(compile_gold(_linked(corpus))), edit))
    if reader == "kg":
        return read_kg_jsonl(edit_json(rng, export_kg_jsonl(populate(corpus, CollapseStrategy())), edit))
    if reader == "brat":
        doc = corpus.documents[0]
        text, ann = write_brat(doc)
        return Corpus((parse_brat(text, edit_fields(rng, ann, edit, BRAT_OFFSETS), doc.domain,
                                  doc_id=doc.doc_id),))
    columns, table = write_coref_columns(corpus)
    if edit == "swap" or rng.random() < 0.3:
        table = edit_fields(rng, table, edit, TABLE_OFFSETS)
    else:
        columns = edit_fields(rng, columns, edit, TABLE_OFFSETS)
    return read_coref_columns(columns, table)


@pytest.mark.parametrize("reader", ["jsonl", "conll", "brat", "gold", "kg"])
@settings(max_examples=150, deadline=None)
@given(rng=st.randoms(use_true_random=False), edit=st.sampled_from(EDITS))
def test_edited_input_reads_valid_or_raises_parse_error_with_line(reader, rng, edit):
    try:
        result = read_edited(reader, rng, edit)
    except ParseError as exc:
        assert exc.line is not None, str(exc)
        return
    if isinstance(result, Corpus):
        assert validate_corpus(result) == []
