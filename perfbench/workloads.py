"""The benchmark's workloads: input shape, CLI chain and output files.

A workload is a chain of ``corefkg`` subcommands. One *pass* runs the chain
once over inputs the generator wrote; every op names the files it must
produce, and the runner digests them after each op.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import gen


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]      # relative paths resolve against the work directory
    outputs: tuple[str, ...]   # files the op must write

    @property
    def name(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    docs: int
    fmt: str        # generated input format: "brat" or "jsonl"
    links: bool     # also generate an entity-links TSV
    ceaf_key: str | None   # key side of the CEAFe matrix: "gold parts", "gold concepts"
    ops: tuple[Op, ...]
    why: str


_EVAL_OPS = tuple(
    Op(
        ("eval-kg", "--in", "in/brat", "--gold", "out/gold.jsonl", "--strategy", scope,
         *(() if coref else ("--no-coref",)), "--json-out", f"out/eval-{scope}-{tag}.json"),
        (f"out/eval-{scope}-{tag}.json",),
    )
    for scope in ("cross", "in")
    for coref, tag in ((True, "coref"), (False, "nocoref"))
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="score-pooled",
            docs=300,
            fmt="brat",
            links=False,
            ceaf_key="gold parts",
            ops=(
                Op(("convert", "--in", "in/brat", "--out", "out/gold.conll"),
                   ("out/gold.conll", "out/gold.conll.tokens")),
                Op(("baseline", "--in", "out/gold.conll", "--out", "out/pred.conll"),
                   ("out/pred.conll", "out/pred.conll.tokens")),
                Op(("score", "--key", "out/gold.conll", "--response", "out/pred.conll",
                    "--json-out", "out/report.json"),
                   ("out/report.json",)),
            ),
            why="convert, baseline and score over one pooled corpus partition: "
                "the CoNLL-interop scoring path, dominated by the dense CEAFe alignment.",
        ),
        Workload(
            name="kg-build",
            docs=10_000,
            fmt="jsonl",
            links=False,
            ceaf_key=None,
            ops=(
                Op(("baseline", "--in", "in/gold.jsonl", "--out", "out/pred.jsonl"),
                   ("out/pred.jsonl",)),
                Op(("populate", "--in", "out/pred.jsonl", "--strategy", "cross",
                    "--format", "ntriples", "--out", "out/kg.nt"),
                   ("out/kg.nt",)),
                Op(("populate", "--in", "in/gold.jsonl", "--gold", "--strategy", "in",
                    "--no-coref", "--format", "jsonl", "--out", "out/kg.jsonl"),
                   ("out/kg.jsonl",)),
            ),
            why="baseline and two populate runs over a large JSONL corpus: readers, "
                "validation, normalization and KG collapse, with no metric code at all.",
        ),
        Workload(
            name="evalkg-strategies",
            docs=700,
            fmt="brat",
            links=True,
            ceaf_key="gold concepts",
            ops=(
                Op(("compile-gold", "--in", "in/brat", "--links", "in/links.tsv",
                    "--out", "out/gold.jsonl"),
                   ("out/gold.jsonl",)),
                *_EVAL_OPS,
            ),
            why="compile a gold KG from entity links, then eval-kg under the four "
                "strategies: CEAFe over cross-document components, BRAT re-read per step.",
        ),
    )
}

#: Dense CEAFe builds a |K| x |R| list of Fractions, a float copy and a numpy
#: array: 100-150 bytes per cell (score-pooled at 300 docs: 1.19M cells, peak
#: RSS 208 MB). The guard takes the high end.
BYTES_PER_DENSE_CELL = 150
#: Refuse a workload whose dense CEAFe matrix could exceed this much memory.
DENSE_MEMORY_LIMIT = 1_000_000_000


def dense_cells_bound(workload: Workload, docs: int) -> int:
    """Upper bound on |K| * |R| of one CEAFe call, from the generator's fixed shape.

    The key side is the gold parts (``score``) or the gold concepts
    (``eval-kg``, at most one per vocabulary term); the response side has at
    most one part per mention.
    """
    if workload.ceaf_key is None:
        return 0
    mentions, key_parts = shape(docs)
    if workload.ceaf_key == "gold concepts":
        key_parts = min(gen.VOCABULARY, mentions)
    return key_parts * mentions


def shape(docs: int) -> tuple[int, int]:
    """(mentions, gold key parts) of a generated corpus of ``docs`` documents."""
    entities = sum(gen.ENTITIES_PER_DOC[i % len(gen.ENTITIES_PER_DOC)] for i in range(docs))
    sizes = [size for size, _ in gen.CLUSTER_SCHEDULE]
    mentions = sum(sizes[e % len(sizes)] for e in range(entities))
    return mentions, entities


def size_guard(workload: Workload, docs: int) -> None:
    """Raise ValueError before running a workload that could exhaust memory."""
    cells = dense_cells_bound(workload, docs)
    if cells * BYTES_PER_DENSE_CELL > DENSE_MEMORY_LIMIT:
        raise ValueError(
            f"{workload.name} at {docs} docs could need a dense CEAFe matrix of "
            f"{cells:,} cells (~{cells * BYTES_PER_DENSE_CELL / 1e6:,.0f} MB, limit "
            f"{DENSE_MEMORY_LIMIT / 1e6:,.0f} MB); refusing to run"
        )


def resolve(op: Op, workdir: Path) -> tuple[list[str], list[Path]]:
    """The op's argv and output paths with work-directory paths made absolute."""
    argv = [str(workdir / a) if a.startswith(("in/", "out/")) else a for a in op.argv]
    return argv, [workdir / o for o in op.outputs]
