import os
import random

import pytest

from corefkg.brat import parse_brat, read_brat_dir, write_brat, write_brat_dir
from corefkg.errors import ParseError
from corefkg.model import ConceptType, Corpus, MentionSource, all_clusters
from corefkg.unionfind import UnionFind

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
    # oracle: union-find over the two pairs
    uf = UnionFind()
    uf.union("T1", "T2")
    uf.union("T2", "T3")
    assert len(uf.groups()) == 1
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
