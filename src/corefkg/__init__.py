"""corefkg: coreference partition metrics and research KG population.

The library has two halves. One scores coreference partitions with the
standard MUC / B-cubed / entity-CEAF metrics and their CoNLL average, in
exact rational arithmetic. The other populates a cross-domain research
knowledge graph from coreference-annotated abstracts: clusters are labelled
(acronym resolution, determiner stripping, singularization), collapsed into
concepts per domain strategy, linked to papers, exported, and evaluated
against a gold KG compiled from entity links.

Readers/writers cover BRAT standoff pairs, a CoNLL-style column format for
scorer interoperability, and a JSONL interchange format.
"""

from .baseline import resolve, resolve_corpus
from .brat import parse_brat, read_brat_dir, write_brat, write_brat_dir
from .errors import ParseError, ValidationError
from .jsonl import read_jsonl, write_jsonl
from .metrics import (
    PRF,
    Partition,
    ScoreReport,
    align_mentions,
    b_cubed,
    ceaf_e,
    corpus_partition,
    muc,
    optimal_assignment,
    score,
    score_corpora,
)
from .model import (
    ConceptType,
    CoreferenceCluster,
    Corpus,
    Document,
    Mention,
    MentionSource,
    all_clusters,
    corpus_stats,
    validate,
    validate_corpus,
)
from .normalize import (
    AcronymMap,
    build_acronym_map,
    cluster_label,
    load_lemma_exceptions,
    normalize_mention,
    set_default_lemma_exceptions,
    singularize,
)

#: The names of the column, gold-KG and KG modules, by module. Importing the
#: package, as every command does, does not load these modules: each name is
#: looked up in its module on first use (``__getattr__``).
_DEFERRED = {
    "conll": ("read_coref_columns", "write_coref_columns"),
    "goldkg": ("EvalResult", "GoldConcept", "GoldKg", "attach_entity_links", "compile_gold",
               "evaluate_population", "read_entity_links", "read_gold_jsonl",
               "write_gold_jsonl"),
    "kgpop": ("ALL_DOMAINS", "CollapseStrategy", "Concept", "DomainScope", "KnowledgeGraph",
              "assign_type", "collapse", "export_kg_jsonl", "export_ntriples",
              "filter_clusters", "kg_stats", "populate", "read_kg_jsonl"),
}
_MODULE_OF = {name: module for module, names in _DEFERRED.items() for name in names}

__all__ = [
    "resolve", "resolve_corpus",
    "parse_brat", "read_brat_dir", "write_brat", "write_brat_dir",
    "ParseError", "ValidationError",
    "read_jsonl", "write_jsonl",
    "PRF", "Partition", "ScoreReport", "align_mentions", "b_cubed", "ceaf_e",
    "corpus_partition", "muc", "optimal_assignment", "score", "score_corpora",
    "ConceptType", "CoreferenceCluster", "Corpus", "Document", "Mention", "MentionSource",
    "all_clusters", "corpus_stats", "validate", "validate_corpus",
    "AcronymMap", "build_acronym_map", "cluster_label", "load_lemma_exceptions",
    "normalize_mention", "set_default_lemma_exceptions", "singularize",
    *_MODULE_OF,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
