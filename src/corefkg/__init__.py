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
from .conll import read_coref_columns, write_coref_columns
from .errors import ParseError, ValidationError
from .goldkg import (
    EvalResult,
    GoldConcept,
    GoldKg,
    attach_entity_links,
    compile_gold,
    evaluate_population,
    read_entity_links,
    read_gold_jsonl,
    write_gold_jsonl,
)
from .jsonl import read_jsonl, write_jsonl
from .kgpop import (
    ALL_DOMAINS,
    CollapseStrategy,
    Concept,
    DomainScope,
    KnowledgeGraph,
    assign_type,
    collapse,
    export_kg_jsonl,
    export_ntriples,
    filter_clusters,
    kg_stats,
    populate,
    read_kg_jsonl,
)
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

__version__ = "0.1.0"
