"""Seeded generator of the benchmark's input corpora.

The generator shares no code with ``corefkg``: it writes BRAT ``.txt``/``.ann``
pairs, a JSONL corpus and an entity-links TSV with its own code, so the
program under test only ever sees files on disk.

The *shape* of a corpus (documents per domain, entities per document, cluster
sizes, which clusters carry a pronoun) is a fixed schedule indexed by position,
so every seed yields exactly the same number of documents, mentions and gold
clusters. The seed chooses the content: the term vocabulary, which terms a
document mentions, surface variants, acronym definitions, sentence templates
and entity-link noise. Runs on different seeds therefore measure the same
amount of work on different text.

Input properties the workloads rely on:

* a Zipf-distributed vocabulary of multi-word terms with plural, determiner
  and possessive variants, so labels recur across documents and domains;
* ``long form (LF)`` definitions, so acronym extraction does real work;
* about 15% coreference-only pronoun mentions;
* within-document clusters of 2-4 mentions;
* 5 domains, with a share of terms used in every domain;
* per-term entity ids with a share of wrong and missing links.
"""

from __future__ import annotations

import bisect
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

DOMAINS = ("Agr", "Ast", "Bio", "CS", "Med")
TYPES = ("Data", "Material", "Method", "Process")
PRONOUN_TYPE = "CorefMention"

#: Entities per document, cycled by document index.
ENTITIES_PER_DOC = (2, 3, 4, 3, 4, 3, 2, 5)
#: (cluster size, carries a pronoun), cycled by entity index over the corpus.
#: 20 mentions per cycle, 3 of them pronouns (15%); clusters hold 2-4 mentions.
CLUSTER_SCHEDULE = (
    (1, False), (1, False), (1, False), (2, True), (1, False), (3, True),
    (1, False), (2, False), (4, True), (1, False), (1, False), (2, False),
)

VOCABULARY = 1200
#: modifiers before the head noun, cycled by Zipf rank; every 29th term is a
#: bare head noun (there are fewer heads than bare-noun ranks otherwise)
MODIFIER_COUNTS = (1, 1, 2, 2, 2, 3)
BARE_NOUN_EVERY = 29
ZIPF_EXPONENT = 1.05
SHARED_TERM_SHARE = 0.35   # terms used in every domain
ACRONYM_SHARE = 0.45       # multi-word terms that have a short form
DEFINE_SHARE = 0.6         # multi-mention entities that spell out "LF (SF)"
TYPE_NOISE = 0.04          # mentions typed differently from their term
WRONG_LINK = 0.05
MISSING_LINK = 0.10
PRONOUN_LINK = 0.5

MODIFIERS = (
    "neural", "convolutional", "recurrent", "bayesian", "stochastic", "adaptive",
    "spectral", "thermal", "optical", "genetic", "molecular", "cellular",
    "protein", "enzyme", "metabolic", "soil", "crop", "irrigation", "nitrogen",
    "stellar", "galactic", "solar", "cosmic", "radio", "gravitational",
    "clinical", "cardiac", "renal", "immune", "tumor", "diagnostic",
    "linear", "nonlinear", "sparse", "dense", "distributed", "parallel",
    "graph", "random", "deep", "shallow", "supervised", "semantic",
    "statistical", "numerical", "empirical", "hybrid", "dynamic", "static",
    "high-resolution", "low-cost", "large-scale", "multi-scale", "real-time",
    "support", "vector", "decision", "gradient", "boosted", "attention",
    "regression", "signal", "image", "sensor", "field", "surface",
)
#: head noun -> plural form; irregular ones mirror the package's lemma table.
HEADS = {
    "network": "networks", "model": "models", "method": "methods",
    "algorithm": "algorithms", "classifier": "classifiers", "estimator": "estimators",
    "analysis": "analyses", "matrix": "matrices", "spectrum": "spectra",
    "criterion": "criteria", "medium": "media", "process": "processes",
    "sample": "samples", "dataset": "datasets", "measurement": "measurements",
    "catalyst": "catalysts", "alloy": "alloys", "compound": "compounds",
    "cell": "cells", "tissue": "tissues", "receptor": "receptors",
    "pathway": "pathways", "sequence": "sequences", "survey": "surveys",
    "telescope": "telescopes", "galaxy": "galaxies", "star": "stars",
    "yield": "yields", "variety": "varieties", "fertilizer": "fertilizers",
    "therapy": "therapies", "trial": "trials", "biomarker": "biomarkers",
    "simulation": "simulations", "framework": "frameworks", "kernel": "kernels",
    "machine": "machines", "tree": "trees", "filter": "filters",
    "detector": "detectors", "index": "indices", "approach": "approaches",
    "architecture": "architectures", "representation": "representations",
}
PRONOUNS = ("it", "this", "they", "these")
DETERMINERS = ("the", "a", "this", "these", "our", "their")

TEMPLATES = (
    "We propose {} for {}.",
    "In this work, {} is evaluated on {}.",
    "Results show that {} outperforms {}.",
    "In addition, {} improves {} considerably.",
    "The effect of {} was measured with {}.",
    "We compare {} and {} in detail.",
    "Experiments on {} confirm the role of {}.",
    "The behaviour of {} remains unclear.",
    "Moreover, {} is widely used.",
    "Here, {} depends strongly on {}.",
    "Finally, we study {}.",
)
FILLERS = (
    "This is a long-standing open problem.",
    "Several earlier studies reported mixed findings (see Section 2).",
    "The differences were significant (p < 0.05).",
    "Details are given in the supplementary material (Fig. 2).",
    "Our findings have practical implications.",
    "Further work is needed to generalize these observations.",
)


@dataclass(frozen=True)
class Term:
    words: tuple[str, ...]
    head_plural: str
    concept_type: str
    domains: tuple[str, ...]
    short: str | None
    entity: str
    rank: int

    @property
    def text(self) -> str:
        return " ".join(self.words)

    def plural(self) -> str:
        return " ".join(self.words[:-1] + (self.head_plural,))


@dataclass
class Mention:
    start: int
    end: int
    label: str          # BRAT entity type
    entity_index: int   # index of the gold entity within its document
    term: Term


@dataclass
class Doc:
    doc_id: str
    domain: str
    text: str
    mentions: list[Mention]
    clusters: list[list[int]]   # gold clusters of >= 2 mention indices
    definitions: int            # "long form (SF)" phrases


@dataclass
class Stats:
    docs: int = 0
    mentions: int = 0
    pronouns: int = 0
    gold_clusters: int = 0          # annotated clusters (size >= 2)
    key_parts: int = 0              # gold clusters plus singletons
    acronym_definitions: int = 0
    link_rows: int = 0
    input_bytes: int = 0
    terms_used: set = field(default_factory=set)

    def to_dict(self) -> dict:
        out = {k: v for k, v in self.__dict__.items() if k != "terms_used"}
        out["distinct_terms"] = len(self.terms_used)
        return out


def _acronym(words: tuple[str, ...]) -> str:
    return "".join(w[0] for w in words if w[0].isalpha()).upper()


def make_vocabulary(rng: random.Random, size: int = VOCABULARY) -> list[Term]:
    """Distinct multi-word terms in Zipf rank order (rank 0 most frequent).

    Word count, acronym and domain spread follow the rank, so every seed has
    the same vocabulary shape; ``rng`` picks the words and the types.
    """
    heads = sorted(HEADS)
    seen: set[tuple[str, ...]] = set()
    terms: list[Term] = []
    while len(terms) < size:
        rank = len(terms)
        n_mod = 0 if rank % BARE_NOUN_EVERY == 0 else MODIFIER_COUNTS[rank % len(MODIFIER_COUNTS)]
        words = tuple(rng.sample(MODIFIERS, n_mod)) + (rng.choice(heads),)
        if words in seen:
            continue
        seen.add(words)
        has_short = n_mod >= 1 and (rank * 7919) % 100 < ACRONYM_SHARE * 100
        shared = (rank * 104729) % 100 < SHARED_TERM_SHARE * 100
        terms.append(
            Term(
                words=words,
                head_plural=HEADS[words[-1]],
                concept_type=rng.choice(TYPES),
                domains=DOMAINS if shared else (DOMAINS[rank % len(DOMAINS)],),
                short=_acronym(words) if has_short else None,
                entity="_".join(words).capitalize() + f"_{rank}",
                rank=rank,
            )
        )
    return terms


class _Zipf:
    """Sample terms of one domain with Zipf weights over their global rank."""

    def __init__(self, ranked: list[tuple[int, Term]]):
        self.terms = [t for _, t in ranked]
        total = 0.0
        self.cum: list[float] = []
        for rank, _ in ranked:
            total += 1.0 / (rank + 1) ** ZIPF_EXPONENT
            self.cum.append(total)

    def draw(self, rng: random.Random) -> Term:
        return self.terms[bisect.bisect_left(self.cum, rng.random() * self.cum[-1])]


def _surface(shape: random.Random, text: random.Random, term: Term) -> str:
    roll = shape.random()
    if roll < 0.35:
        return term.text
    if roll < 0.6:
        return term.plural()
    if roll < 0.85:
        det = text.choice(DETERMINERS)
        return f"{det} {term.plural() if det in ('these', 'their') else term.text}"
    return f"{term.text}'s"


def _entity_phrases(shape: random.Random, text: random.Random, term: Term, size: int,
                    pronoun: bool) -> list[list[tuple[str, bool]]]:
    """Phrases for one entity: each phrase is a list of (surface, is_mention)
    pieces; the first phrase introduces the term."""
    n_named = size - (1 if pronoun else 0)
    phrases: list[list[tuple[str, bool]]] = []
    if term.short and n_named >= 2 and shape.random() < DEFINE_SHARE:
        phrases.append([(term.text, True), (" (", False), (term.short, True), (")", False)])
        n_named -= 2
        for _ in range(n_named):
            use_short = shape.random() < 0.6
            phrases.append([(term.short if use_short else _surface(shape, text, term), True)])
    else:
        for _ in range(n_named):
            phrases.append([(_surface(shape, text, term), True)])
    if pronoun:
        phrases.append([(text.choice(PRONOUNS), True)])
    return phrases


def generate(seed: int, n_docs: int, *, workload: str) -> list[Doc]:
    """The corpus for ``workload`` at ``seed``: same shape for every seed.

    Two random streams: ``shape`` (fixed per workload) draws which term ranks
    each document mentions, surface variants, phrase order and sentence
    templates; ``text`` (from the seed) draws the words of every term, the
    types, determiners and pronouns.
    """
    shape = random.Random(f"perfbench-shape:{workload}")
    text = random.Random(f"perfbench:{workload}:{seed}")
    vocab = make_vocabulary(text)
    by_domain = {
        d: _Zipf([(r, t) for r, t in enumerate(vocab) if d in t.domains]) for d in DOMAINS
    }
    docs: list[Doc] = []
    entity_counter = 0
    for i in range(n_docs):
        domain = DOMAINS[i % len(DOMAINS)]
        n_entities = ENTITIES_PER_DOC[i % len(ENTITIES_PER_DOC)]
        terms: list[Term] = []
        while len(terms) < n_entities:
            t = by_domain[domain].draw(shape)
            if t not in terms:
                terms.append(t)
        # entity -> ordered phrases; the first phrase of each entity comes
        # before its other phrases, the rest are interleaved at random
        queues = []
        for e, term in enumerate(terms):
            size, pronoun = CLUSTER_SCHEDULE[entity_counter % len(CLUSTER_SCHEDULE)]
            entity_counter += 1
            queues.append([(e, p) for p in _entity_phrases(shape, text, term, size, pronoun)])
        order = [q.pop(0) for q in queues]
        shape.shuffle(order)
        rest = [p for q in queues for p in q]
        shape.shuffle(rest)
        for item in rest:
            first = next(k for k, (e, _) in enumerate(order) if e == item[0])
            order.insert(shape.randint(first + 1, len(order)), item)
        docs.append(_render(shape, text, f"{domain}/d{i:05d}", domain, terms, order))
    return docs


def _render(shape: random.Random, text_rng: random.Random, doc_id: str, domain: str,
            terms: list[Term], order) -> Doc:
    text = ""
    mentions: list[Mention] = []
    by_entity: dict[int, list[int]] = {}
    definitions = 0
    queue = list(order)
    while queue:
        if shape.random() < 0.2:
            text += shape.choice(FILLERS) + " "
        template = shape.choice(TEMPLATES)
        slots = template.count("{}")
        pieces = template.split("{}")
        text += pieces[0]
        for s in range(slots):
            if queue:
                e, phrase = queue.pop(0)
                definitions += len(phrase) > 1
                for surface, is_mention in phrase:
                    if is_mention:
                        label = terms[e].concept_type
                        if surface in PRONOUNS:
                            label = PRONOUN_TYPE
                        elif text_rng.random() < TYPE_NOISE:
                            label = text_rng.choice([t for t in TYPES if t != label])
                        by_entity.setdefault(e, []).append(len(mentions))
                        mentions.append(Mention(len(text), len(text) + len(surface), label, e, terms[e]))
                    text += surface
            else:
                text += "the results"
            text += pieces[s + 1]
        text += " "
    text = text.rstrip() + "\n"
    clusters = [ms for _, ms in sorted(by_entity.items()) if len(ms) >= 2]
    return Doc(doc_id, domain, text, mentions, clusters, definitions)


def _ann(doc: Doc) -> str:
    lines = [
        f"T{i + 1}\t{m.label} {m.start} {m.end}\t{doc.text[m.start:m.end]}"
        for i, m in enumerate(doc.mentions)
    ]
    # both coreference encodings the BRAT reader accepts
    r = 0
    for cluster in doc.clusters:
        tids = [f"T{i + 1}" for i in cluster]
        if len(tids) == 2:
            r += 1
            lines.append(f"R{r}\tCoreference Arg1:{tids[0]} Arg2:{tids[1]}")
        else:
            lines.append("*\tCoreference " + " ".join(tids))
    return "\n".join(lines) + "\n"


def _jsonl_line(doc: Doc) -> str:
    obj = {
        "doc_id": doc.doc_id,
        "domain": doc.domain,
        "text": doc.text,
        "mentions": [
            {
                "start": m.start,
                "end": m.end,
                "type": "None" if m.label == PRONOUN_TYPE else m.label,
                "source": "coref_only" if m.label == PRONOUN_TYPE else "concept_extractor",
            }
            for m in doc.mentions
        ],
        "clusters": doc.clusters,
    }
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


def _link_rows(rng: random.Random, doc: Doc, vocab_terms: list[Term]) -> list[str]:
    rows = []
    for m in doc.mentions:
        if m.label == PRONOUN_TYPE:
            if rng.random() >= PRONOUN_LINK:
                continue
        elif rng.random() < MISSING_LINK:
            continue
        entity = m.term.entity
        if rng.random() < WRONG_LINK:
            entity = rng.choice(vocab_terms).entity
        type_name = "None" if m.label == PRONOUN_TYPE else m.label
        rows.append(f"{doc.doc_id}\t{m.start}\t{m.end}\t{type_name}\t{entity}")
    return rows


def write_inputs(root: Path, seed: int, n_docs: int, *, workload: str, fmt: str,
                 links: bool) -> Stats:
    """Write the corpus under ``root``: ``brat/`` (plus ``links.tsv``) or
    ``gold.jsonl``. Returns shape statistics of what was written."""
    docs = generate(seed, n_docs, workload=workload)
    stats = Stats(docs=len(docs))
    for doc in docs:
        stats.mentions += len(doc.mentions)
        stats.pronouns += sum(m.label == PRONOUN_TYPE for m in doc.mentions)
        stats.gold_clusters += len(doc.clusters)
        stats.key_parts += len({m.entity_index for m in doc.mentions})
        stats.acronym_definitions += doc.definitions
        stats.terms_used.update(m.term.entity for m in doc.mentions)
    root.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if fmt == "brat":
        for doc in docs:
            base = root / "brat" / doc.doc_id
            base.parent.mkdir(parents=True, exist_ok=True)
            base.with_suffix(".txt").write_text(doc.text, "utf-8")
            base.with_suffix(".ann").write_text(_ann(doc), "utf-8")
            written += [base.with_suffix(".txt"), base.with_suffix(".ann")]
    elif fmt == "jsonl":
        path = root / "gold.jsonl"
        path.write_text("".join(_jsonl_line(d) + "\n" for d in docs), "utf-8")
        written.append(path)
    else:
        raise ValueError(f"unknown input format {fmt!r}")
    if links:
        # which links are wrong or missing is part of the shape, not the seed
        link_rng = random.Random(f"perfbench-shape:{workload}:links")
        vocab_terms = sorted({m.term for d in docs for m in d.mentions}, key=lambda t: t.rank)
        rows = ["# doc_id\tstart\tend\ttype\tentity"]
        for doc in docs:
            rows += _link_rows(link_rng, doc, vocab_terms)
        stats.link_rows = len(rows) - 1
        path = root / "links.tsv"
        path.write_text("\n".join(rows) + "\n", "utf-8")
        written.append(path)
    stats.input_bytes = sum(p.stat().st_size for p in written)
    return stats
