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

#: The public names of the package, by the module that defines them. Importing
#: the package loads none of its modules: each name, and each module, such as
#: ``corefkg.jsonl``, is looked up on first use (``__getattr__``).
_EXPORTS = {
    "baseline": ("resolve", "resolve_corpus"),
    "brat": ("parse_brat", "read_brat_dir", "write_brat", "write_brat_dir"),
    "conll": ("read_coref_columns", "write_coref_columns"),
    "errors": ("ParseError", "ValidationError"),
    "goldkg": ("EvalResult", "GoldConcept", "GoldKg", "attach_entity_links", "compile_gold",
               "evaluate_population", "read_entity_links", "read_gold_jsonl",
               "write_gold_jsonl"),
    "jsonl": ("read_jsonl", "write_jsonl"),
    "kgpop": ("ALL_DOMAINS", "CollapseStrategy", "Concept", "DomainScope", "KnowledgeGraph",
              "assign_type", "collapse", "export_kg_jsonl", "export_ntriples",
              "filter_clusters", "kg_stats", "populate", "read_kg_jsonl"),
    "metrics": ("PRF", "Partition", "ScoreReport", "align_mentions", "b_cubed", "ceaf_e",
                "corpus_partition", "muc", "optimal_assignment", "score", "score_corpora"),
    "model": ("ConceptType", "CoreferenceCluster", "Corpus", "Document", "Mention",
              "MentionSource", "all_clusters", "corpus_stats", "validate", "validate_corpus"),
    "normalize": ("AcronymMap", "build_acronym_map", "cluster_label", "load_lemma_exceptions",
                  "normalize_mention", "set_default_lemma_exceptions", "singularize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    from importlib import import_module

    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(import_module(f"{__name__}.{module}"), name)
    try:
        return import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{__name__}.{name}":  # a module the submodule imports is missing
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
