import os
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corefkg.brat import parse_brat, read_brat_dir, write_brat, write_brat_dir
from corefkg.errors import ParseError
from corefkg.model import ConceptType, Corpus, Document, Mention, MentionSource, all_clusters

import _reference
from corpusgen import random_corpus

TEXT = "CNN works. A CNN is fast."


def test_parse_entities_and_relation():
    ann = (
        "T1\tMaterial 0 3\tCNN\n"
        "T2\tMaterial 13 16\tCNN\n"
        "R1\tCoreference Arg1:T1 Arg2:T2\n"
    )
    doc = parse_brat(TEXT, ann, "CS", doc_id="d1")
    assert len(doc.mentions) == 2
    assert len(doc.clusters) == 1
    assert doc.clusters[0].size == 2
    assert all(m.source is MentionSource.CONCEPT_EXTRACTOR for m in doc.mentions)


def test_parse_empty_ann():
    doc = parse_brat(TEXT, "", "CS", doc_id="d1")
    assert doc.mentions == ()
    assert doc.clusters == ()


def test_parse_relation_chain_forms_one_cluster():
    text = "a b c"
    ann = (
        "T1\tData 0 1\ta\n"
        "T2\tData 2 3\tb\n"
        "T3\tData 4 5\tc\n"
        "R1\tCoreference Arg1:T1 Arg2:T2\n"
        "R2\tCoreference Arg1:T2 Arg2:T3\n"
    )
    doc = parse_brat(text, ann, "CS", doc_id="d1")
    assert len(doc.clusters) == 1
    assert doc.clusters[0].size == 3


def test_parse_equivalence_line():
    text = "a b c"
    ann = (
        "T1\tData 0 1\ta\n"
        "T2\tData 2 3\tb\n"
        "T3\tData 4 5\tc\n"
        "*\tCoreference T1 T2 T3\n"
    )
    doc = parse_brat(text, ann, "CS", doc_id="d1")
    assert len(doc.clusters) == 1 and doc.clusters[0].size == 3


def test_parse_mixed_encodings_are_unioned():
    text = "a b c d"
    ann = (
        "T1\tData 0 1\ta\n"
        "T2\tData 2 3\tb\n"
        "T3\tData 4 5\tc\n"
        "T4\tData 6 7\td\n"
        "*\tCoreference T1 T2\n"
        "R1\tCoreference Arg1:T2 Arg2:T3\n"
    )
    doc = parse_brat(text, ann, "CS", doc_id="d1")
    sizes = sorted(c.size for c in doc.clusters)
    assert sizes == [3]  # T4 is unclustered, not a parsed cluster


@st.composite
def linked_ann(draw):
    """(text, ann, links): an .ann file whose T lines have distinct mention
    keys, some of one span, and whose R and ``*`` lines, in any order among
    the T lines, link only entities defined above them; ``links`` lists each
    link line's entity ids. R lines may link an entity to itself, and ``*``
    lines may list one entity or repeat one."""
    text = "a bb ccc dd e"
    spans = [(0, 1), (2, 4), (5, 8), (9, 11), (12, 13), (0, 4), (5, 11)]
    types = ["Data", "Method", "CorefMention"]
    keys = draw(st.lists(st.tuples(st.sampled_from(spans), st.sampled_from(types)),
                         unique=True, max_size=12))
    lines, links, tids = [], [], []
    for (start, end), type_name in keys:
        tids.append(f"T{len(tids) + 1}")
        lines.append(f"{tids[-1]}\t{type_name} {start} {end}\t{text[start:end]}")
        for _ in range(draw(st.integers(0, 2))):
            ids = draw(st.lists(st.sampled_from(tids), min_size=1, max_size=4))
            if len(ids) <= 2 and draw(st.booleans()):
                head, tail = ids[0], ids[-1]
                lines.append(f"R{len(links) + 1}\tCoreference Arg1:{head} Arg2:{tail}")
                ids = [head, tail]
            else:
                lines.append("*\tCoreference " + " ".join(ids))
            links.append(ids)
    return text, "".join(line + "\n" for line in lines), links


@settings(max_examples=150, deadline=None)
@given(linked_ann())
def test_parse_clusters_are_the_closure_of_the_links_in_span_order(case):
    text, ann, links = case
    doc = parse_brat(text, ann, "CS", doc_id="d")
    tid_of = {m.key: f"T{i}" for i, m in enumerate(doc.mentions, start=1)}
    closure = _reference.link_closure(links)
    clusters = [frozenset(tid_of[m.key] for m in c.mentions) for c in doc.clusters]
    assert len(clusters) == len(closure)
    assert set(clusters) == {frozenset(group) for group in closure}
    spans = [c.span_key() for c in doc.clusters]
    assert spans == sorted(spans)


def test_parse_coref_only_mention_type():
    ann = "T1\tCorefMention 0 3\tCNN\n"
    doc = parse_brat(TEXT, ann, "CS", doc_id="d1")
    assert doc.mentions[0].concept_type is ConceptType.NONE
    assert doc.mentions[0].source is MentionSource.COREF_ONLY


def test_parse_error_reports_line_number():
    ann = "T1\tMaterial 0 3\tCNN\nnot a record\n"
    with pytest.raises(ParseError) as err:
        parse_brat(TEXT, ann, "CS", doc_id="d1")
    assert err.value.line == 2


def test_parse_error_duplicate_mention_key():
    ann = "T1\tMaterial 0 3\tCNN\nT2\tMethod 0 3\tCNN\nT3\tMaterial 0 3\tCNN\n"
    with pytest.raises(ParseError, match=r"duplicate mention key @ d1\[0,3\) type Material$") as err:
        parse_brat(TEXT, ann, "CS", doc_id="d1")
    assert err.value.line == 3


def test_parse_error_offset_out_of_range():
    with pytest.raises(ParseError,
                       match=r"offset out of range @ d1\[0,999\) for text of length 25$"):
        parse_brat(TEXT, "T1\tMaterial 0 999\tCNN\n", "CS", doc_id="d1")


def test_parse_error_offset_order():
    with pytest.raises(ParseError, match=r"offset order violated @ d1\[3,3\)$"):
        parse_brat(TEXT, "T1\tMaterial 3 3\t\n", "CS", doc_id="d1")


def test_parse_error_surface_mismatch():
    with pytest.raises(ParseError, match="surface mismatch"):
        parse_brat(TEXT, "T1\tMaterial 0 3\tRNN\n", "CS", doc_id="d1")


def test_parse_error_discontinuous_span():
    with pytest.raises(ParseError, match="discontinuous"):
        parse_brat(TEXT, "T1\tMaterial 0 3;5 8\tCNN wo\n", "CS", doc_id="d1")


@pytest.mark.parametrize("line", [
    "T1\tMaterial ٠ ٣\tCNN",        # Arabic-Indic offsets
    "T١\tMaterial 0 3\tCNN",        # Arabic-Indic entity id
])
def test_parse_error_non_ascii_digits(line):
    with pytest.raises(ParseError) as err:
        parse_brat(TEXT, f"T2\tMaterial 13 16\tCNN\n{line}\n", "CS", doc_id="d1")
    assert err.value.line == 2


def test_parse_error_unknown_type():
    with pytest.raises(ParseError) as err:
        parse_brat(TEXT, "T1\tGadget 0 3\tCNN\n", "CS", doc_id="d1")
    assert (str(err.value), err.value.line) == ("line 1: unknown concept type 'Gadget'", 1)


def test_parse_error_unknown_relation_label():
    ann = "T1\tMaterial 0 3\tCNN\nR1\tPartOf Arg1:T1 Arg2:T1\n"
    with pytest.raises(ParseError, match="unsupported relation"):
        parse_brat(TEXT, ann, "CS", doc_id="d1")


def test_parse_configurable_relation_label():
    ann = (
        "T1\tMaterial 0 3\tCNN\n"
        "T2\tMaterial 13 16\tCNN\n"
        "R1\tCoref Arg1:T1 Arg2:T2\n"
    )
    doc = parse_brat(TEXT, ann, "CS", doc_id="d1", relation_label="Coref")
    assert len(doc.clusters) == 1


def test_parse_skips_note_lines():
    ann = "T1\tMaterial 0 3\tCNN\n#1\tAnnotatorNotes T1\tcheck this\n"
    doc = parse_brat(TEXT, ann, "CS", doc_id="d1")
    assert len(doc.mentions) == 1


def test_parse_counts_all_entity_lines():
    # parsing never drops records: every T line becomes a mention
    rng = random.Random(99)
    for _ in range(20):
        for doc in random_corpus(rng):
            text, ann = write_brat(doc)
            n_t_lines = sum(1 for line in ann.splitlines() if line.startswith("T"))
            assert n_t_lines == len(doc.mentions)


def test_write_brat_roundtrip_simple():
    ann = (
        "T1\tMaterial 0 3\tCNN\n"
        "T2\tMaterial 13 16\tCNN\n"
        "R1\tCoreference Arg1:T1 Arg2:T2\n"
    )
    doc = parse_brat(TEXT, ann, "CS", doc_id="d1")
    text2, ann2 = write_brat(doc)
    doc2 = parse_brat(text2, ann2, "CS", doc_id="d1")
    assert doc2 == doc


def test_write_brat_singleton_clusters_implicit():
    ann = "T1\tMaterial 0 3\tCNN\n"
    doc = parse_brat(TEXT, ann, "CS", doc_id="d1")
    _, ann2 = write_brat(doc)
    assert ann2 == "T1\tMaterial 0 3\tCNN\n"  # only T lines


def test_write_brat_three_mention_cluster_single_equiv_line():
    text = "a b c"
    ann = (
        "T1\tData 0 1\ta\nT2\tData 2 3\tb\nT3\tData 4 5\tc\n"
        "*\tCoreference T1 T2 T3\n"
    )
    doc = parse_brat(text, ann, "CS", doc_id="d1")
    _, ann2 = write_brat(doc)
    equiv_lines = [l for l in ann2.splitlines() if l.startswith("*")]
    assert equiv_lines == ["*\tCoreference T1 T2 T3"]


def test_roundtrip_property_random_corpora():
    rng = random.Random(42)
    for _ in range(30):
        corpus = random_corpus(rng)
        for doc in corpus:
            text, ann = write_brat(doc)
            doc2 = parse_brat(text, ann, doc.domain, doc_id=doc.doc_id)
            assert doc2 == doc
            assert set(all_clusters(doc2)) == set(all_clusters(doc))


def test_dir_roundtrip(tmp_path):
    rng = random.Random(4242)
    corpus = random_corpus(rng, n_docs=5)
    write_brat_dir(corpus, tmp_path / "out")
    corpus2 = read_brat_dir(tmp_path / "out")
    assert sorted(d.doc_id for d in corpus2) == sorted(d.doc_id for d in corpus)
    by_id = {d.doc_id: d for d in corpus2}
    for doc in corpus:
        assert by_id[doc.doc_id] == doc


def test_read_brat_dir_missing_ann(tmp_path):
    (tmp_path / "x.txt").write_text("hello", "utf-8")
    with pytest.raises(ParseError, match="missing annotation file"):
        read_brat_dir(tmp_path)


def test_read_brat_dir_walks_like_sorted_rglob(tmp_path):
    root = tmp_path / "corpus"
    for rel in ["a/x", "a/sub/deep/y", "a/sub/z", "a-b/x", "x.b", "Med/m"]:
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / f"{rel}.txt").write_text("hello", "utf-8")
        (root / f"{rel}.ann").write_text("T1\tData 0 5\thello\n", "utf-8")
    (root / "notes.md").write_text("not a document", "utf-8")
    try:
        os.symlink(root / "a", root / "linked", target_is_directory=True)
    except (OSError, NotImplementedError):
        pass  # no symlinks on this platform; the rest of the tree still applies

    reference = []
    for txt in sorted(root.rglob("*.txt")):
        rel = txt.relative_to(root).with_suffix("")
        reference.append((rel.as_posix(), rel.parts[0] if len(rel.parts) > 1 else ""))
    corpus = read_brat_dir(root)
    assert [(d.doc_id, d.domain) for d in corpus] == reference
    ids = [doc_id for doc_id, _ in reference]
    assert ids.index("a/x") < ids.index("a-b/x") and sorted(ids) != ids  # not string order
    assert not any(i.startswith("linked/") for i in ids)
    assert all(len(d.mentions) == 1 for d in corpus)

    (root / "x.b.ann").write_text("T1\tData 0 5\tworld\n", "utf-8")
    with pytest.raises(ParseError) as err:
        read_brat_dir(root)
    assert str(err.value).startswith(f"{root / 'x.b.ann'}: line 1: surface mismatch for T1")
    (root / "a" / "sub" / "z.ann").unlink()
    with pytest.raises(ParseError) as err:
        read_brat_dir(root)
    assert str(err.value) == f"missing annotation file for {root / 'a' / 'sub' / 'z.txt'}"


def test_dir_roundtrip_keeps_carriage_returns(tmp_path):
    text = "A CNN\r\nworks.\rThe CNN\r\r\nis fast."
    ann = "T1\tMethod 2 5\tCNN\nT2\tMethod 18 21\tCNN\n*\tCoreference T1 T2\n"
    corpus = Corpus((parse_brat(text, ann, "CS", doc_id="CS/d1"),))
    write_brat_dir(corpus, tmp_path)
    assert (tmp_path / "CS" / "d1.txt").read_bytes() == text.encode("utf-8")
    assert read_brat_dir(tmp_path) == corpus


def test_dir_roundtrip_keeps_line_breaks_inside_mentions(tmp_path):
    text = "A deep\rnet works. A deep\r\nnet too."
    ann = "T1\tMethod 2 10\tdeep\rnet\nT2\tMethod 20 29\tdeep  net\n*\tCoreference T1 T2\n"
    corpus = Corpus((parse_brat(text, ann, "CS", doc_id="CS/d1"),))
    assert [m.surface for m in corpus.documents[0].mentions] == ["deep\rnet", "deep\r\nnet"]
    write_brat_dir(corpus, tmp_path)
    assert read_brat_dir(tmp_path) == corpus


def _docs(*ids_and_domains):
    """Documents built without a reader, which would refuse some of these doc_ids."""
    return Corpus(tuple(Document(doc_id, domain, "hello",
                                 (Mention(doc_id, 0, 5, ConceptType.DATA, "hello"),))
                        for doc_id, domain in ids_and_domains))


@pytest.mark.parametrize("doc_id", ["../../escaped_doc", "{tmp}/escaped_doc", "..", "x/../../../y"],
                         ids=["parents", "absolute", "dotdot", "inner-parents"])
def test_write_brat_dir_refuses_a_target_outside_its_root_before_writing(tmp_path, doc_id):
    root = tmp_path / "outb" / "inner" / "brat"
    corpus = _docs(("CS/first", "CS"), (doc_id.format(tmp=tmp_path), "CS"))
    with pytest.raises(ValueError, match="would be written outside"):
        write_brat_dir(corpus, root)
    assert list(tmp_path.rglob("*")) == []  # not even the first document


def test_write_brat_dir_refuses_two_documents_sharing_a_target_before_writing(tmp_path):
    corpus = _docs(("first", "CS"), ("a", "CS"), ("x/../a", "CS"))
    with pytest.raises(ValueError) as err:
        write_brat_dir(corpus, tmp_path / "out")
    assert str(err.value) == (
        f"doc_ids 'a' and 'x/../a' would both be written to {str(tmp_path / 'out' / 'CS' / 'a')!r}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc_id, domain", [("x\0y", "Agr"), ("x", "A\0gr")],
                         ids=["doc_id", "domain"])
def test_write_brat_dir_refuses_a_null_byte_before_writing(tmp_path, doc_id, domain):
    corpus = _docs(("a", "Agr"), (doc_id, domain))
    with pytest.raises(ValueError, match="holds a null byte"):
        write_brat_dir(corpus, tmp_path / "out")
    assert not (tmp_path / "out").exists()  # not even Agr/a.txt


@pytest.mark.parametrize("doc_id, domain", [("", "Agr"), (".", "Agr"), ("Agr", "Agr"),
                                             ("x/..", "Agr"), ("../Bio/x", "Agr"), ("CS/x", "")])
def test_write_brat_dir_refuses_a_target_read_back_in_another_domain_before_writing(
        tmp_path, doc_id, domain):
    corpus = _docs(("a", "Agr"), (doc_id, domain))
    with pytest.raises(ValueError, match="reads back in another domain"):
        write_brat_dir(corpus, tmp_path / "out")
    assert not (tmp_path / "out").exists()  # not even Agr/a.txt


def test_write_brat_dir_refuses_a_root_that_is_not_a_directory_before_writing(tmp_path):
    root = tmp_path / "out"
    root.write_text("kept\n", "utf-8")
    with pytest.raises(ValueError) as err:
        write_brat_dir(_docs(("a", "CS")), root)
    assert str(err.value) == f"BRAT output {str(root)!r} exists and is not a directory"
    assert root.read_text("utf-8") == "kept\n"
    assert os.listdir(tmp_path) == ["out"]


def test_write_brat_dir_writes_normalized_ids_under_their_domain(tmp_path):
    write_brat_dir(_docs(("CS/x/../d1", "CS"), ("v1.2", "Agr"), ("e", "")), tmp_path)
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.txt")) == [
        "Agr/v1.2.txt", "CS/d1.txt", "e.txt"]


@pytest.mark.parametrize("name", ["a b", "a\\b", "a\x01b"])
def test_read_brat_dir_refuses_a_doc_id_no_writer_can_read_back(tmp_path, name):
    (tmp_path / "CS").mkdir()
    (tmp_path / "CS" / f"{name}.txt").write_text("hello", "utf-8")
    (tmp_path / "CS" / f"{name}.ann").write_text("T1\tData 0 5\thello\n", "utf-8")
    with pytest.raises(ParseError) as err:
        read_brat_dir(tmp_path)
    assert f"line 1: doc_id {'CS/' + name!r} contains " in str(err.value)
    with pytest.raises(ParseError, match="doc_id '' is empty"):
        parse_brat("hello", "T1\tData 0 5\thello\n", "CS", doc_id="")


def test_read_brat_dir_refuses_a_hash_led_doc_id(tmp_path):
    # the column format and the entity-links file read a "#"-led line as a comment
    for name in ("#a", "CS/#a"):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / f"{name}.txt").write_text("hello", "utf-8")
        (tmp_path / f"{name}.ann").write_text("T1\tData 0 5\thello\n", "utf-8")
    with pytest.raises(ParseError) as err:
        read_brat_dir(tmp_path)
    assert str(err.value) == f"{tmp_path / '#a.ann'}: line 1: doc_id '#a' starts with '#'"
    (tmp_path / "#a.txt").unlink()
    assert [doc.doc_id for doc in read_brat_dir(tmp_path)] == ["CS/#a"]


def test_write_brat_dir_keeps_a_dotted_last_segment_whole(tmp_path):
    ids = ["Agr/v1.2", "Agr/a.x", "Agr/a.y", "Agr/a", "Agr/b.txt", "Agr/c.ann", "Agr/d.", "Agr/.e"]
    corpus = _docs(*((doc_id, "Agr") for doc_id in ids))
    write_brat_dir(corpus, tmp_path)
    assert sorted(p.name for p in (tmp_path / "Agr").glob("*.txt")) == sorted(
        doc_id[4:] + ".txt" for doc_id in ids)
    assert sorted(read_brat_dir(tmp_path), key=lambda d: d.doc_id) == sorted(
        corpus, key=lambda d: d.doc_id)


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_read_brat_dir_root_must_be_a_directory(tmp_path, kind):
    root = tmp_path / "corpus"
    if kind == "file":
        root.write_text("T1\tData 0 5\thello\n", "utf-8")
    with pytest.raises(ParseError, match="BRAT root is not a directory"):
        read_brat_dir(root)
    root = tmp_path / "empty"
    root.mkdir()
    assert read_brat_dir(root) == Corpus(())


@pytest.mark.parametrize("domain", ["Total", "MIX"])
def test_domain_names_of_kg_stats_columns_are_reserved(tmp_path, domain):
    with pytest.raises(ParseError, match=f"domain name '{domain}' is reserved"):
        parse_brat(TEXT, "T1\tMaterial 0 3\tCNN\n", domain)
    (tmp_path / domain).mkdir()
    (tmp_path / domain / "a.txt").write_text(TEXT, "utf-8")
    (tmp_path / domain / "a.ann").write_text("T1\tMaterial 0 3\tCNN\n", "utf-8")
    with pytest.raises(ParseError, match=f"{domain}/a.ann: line 1: domain name"):
        read_brat_dir(tmp_path)


def test_unicode_offsets_are_scalar_values():
    text = "die Mößbauer-Sonde misst"
    surface = text[4:18]
    ann = f"T1\tMethod 4 18\t{surface}\n"
    doc = parse_brat(text, ann, "MS", doc_id="d1")
    assert doc.mentions[0].surface == "Mößbauer-Sonde"
    text2, ann2 = write_brat(doc)
    assert parse_brat(text2, ann2, "MS", doc_id="d1") == doc


_BREAKS = ["\n", "\r\n", "\r"]


@st.composite
def brat_files(draw):
    """(text, ann) pairs whose .txt holds \\r\\n and lone \\r breaks and whose
    .ann lines end in \\n, \\r\\n or a lone \\r; mentions cover one or two
    tokens, so a surface may span a line break."""
    words = draw(st.lists(st.sampled_from(["CNN", "net", "deep", "the", "Müller", "σ"]),
                          min_size=1, max_size=8))
    seps = draw(st.lists(st.sampled_from([" ", *_BREAKS, "\r\r\n"]),
                         min_size=len(words), max_size=len(words)))
    text, spans = "", []
    for word, sep in zip(words, seps):
        spans.append((len(text), len(text) + len(word)))
        text += word + sep
    lines, t, i = [], 0, 0
    while i < len(spans):
        width = draw(st.integers(0, 2))
        if width:
            start, end = spans[i][0], spans[min(i + width, len(spans)) - 1][1]
            t += 1
            surface = text[start:end].translate(str.maketrans("\r\n", "  "))
            lines.append(f"T{t}\tMethod {start} {end}\t{surface}")
        i += max(width, 1)
    if t >= 2:
        lines.append("*\tCoreference " + " ".join(f"T{k}" for k in range(1, t + 1)))
    if draw(st.booleans()):
        lines.insert(0, "#1\tAnnotatorNotes T1\tseen")
    ends = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines), max_size=len(lines)))
    return text, "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=60, deadline=None)
@given(st.lists(brat_files(), min_size=1, max_size=3))
def test_read_brat_dir_reads_as_text_mode_and_newline_free_opens(files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "CS").mkdir()
        for i, (text, ann) in enumerate(files):
            (root / "CS" / f"d{i}.txt").write_bytes(text.encode("utf-8"))
            (root / "CS" / f"d{i}.ann").write_bytes(ann.encode("utf-8"))
        expected = []
        for i in range(len(files)):  # read as text mode and newline="" read them
            with open(root / "CS" / f"d{i}.ann", encoding="utf-8") as f:
                ann = f.read()
            with open(root / "CS" / f"d{i}.txt", encoding="utf-8", newline="") as f:
                text = f.read()
            expected.append(parse_brat(text, ann, "CS", doc_id=f"CS/d{i}"))
        assert read_brat_dir(root) == Corpus(tuple(expected))


def test_read_brat_dir_names_the_file_of_every_fault_alike_under_an_unnormalized_root(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u" / "CS").mkdir(parents=True)
    txt, ann = tmp_path / "u" / "CS" / "x.txt", tmp_path / "u" / "CS" / "x.ann"
    faults = []
    for txt_bytes, ann_bytes in [
        (b"hello\nw\xe9rld", b"T1\tData 0 5\thello\n"),  # a byte of the .txt
        (b"hello\nworld", b"T1\tData 0 5\thello\n\xe9"),  # a byte of the .ann
        (b"hello\nworld", b"T1\tData 0 5\thello\nT2\tData 0 5\tworld\n"),  # an .ann line
        (b"hello\nworld", None),  # no .ann
    ]:
        txt.write_bytes(txt_bytes)
        ann.unlink(missing_ok=True)
        if ann_bytes is not None:
            ann.write_bytes(ann_bytes)
        with pytest.raises(ParseError) as err:
            read_brat_dir("./u//")
        faults.append(str(err.value))
    assert [fault[:len("u/CS/x.txt: line 2: ")] for fault in faults[:3]] == [
        "u/CS/x.txt: line 2: ", "u/CS/x.ann: line 2: ", "u/CS/x.ann: line 2: "]
    assert faults[3] == "missing annotation file for u/CS/x.txt"


@pytest.mark.parametrize("name, line, reason, byte", [
    ("d.ann", 1, "unexpected end of data", "0xc3"),
    ("d.txt", 2, "invalid continuation byte", "0xe9"),
])
def test_read_brat_dir_names_a_file_that_is_not_utf8(tmp_path, name, line, reason, byte):
    (tmp_path / "d.txt").write_text("A CNN\r\nworks.", "utf-8", newline="")
    (tmp_path / "d.ann").write_text("T1\tMethod 2 5\tCNN\n", "utf-8")
    path = tmp_path / name
    path.write_bytes(path.read_bytes().replace(b"works", b"w\xe9rks").replace(b"CNN\n", b"CN\xc3"))
    with pytest.raises(ParseError) as err:
        read_brat_dir(tmp_path)
    assert err.value.line == line
    assert str(err.value) == f"{path}: line {line}: not UTF-8: {reason} (byte {byte})"
