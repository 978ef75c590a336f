"""Traced runs: spans and counts recorded around ``corefkg`` functions from outside.

``TARGETS`` is the single list of wrapped functions. ``Tracer.install``
replaces each one at every import site, that is in every loaded ``corefkg``
module whose namespace holds the original function object, so calls made
inside the package are traced as well. No package source is edited, and
``uninstall`` restores the originals. A target that no longer exists is
reported as absent instead of failing the run.

Each wrapped call records one span (id, name, start, end, parent span, pass).
Garbage-collector pauses are recorded as ``py.gc`` spans through
``gc.callbacks``. Self time is derived from the span tree afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str     # corefkg submodule that defines the function
    function: str
    span: bool = True   # False: count calls only (for very hot helpers)


TARGETS = (
    Target("cli", "main"),   # span named cli.<subcommand>
    Target("brat", "read_brat_dir"),
    Target("conll", "read_coref_columns"),
    Target("conll", "write_coref_columns"),
    Target("jsonl", "read_jsonl"),
    Target("jsonl", "write_jsonl"),
    Target("model", "validate"),
    Target("model", "validate_corpus"),
    Target("model", "all_clusters"),
    Target("baseline", "resolve_corpus"),
    Target("normalize", "build_acronym_map"),
    Target("normalize", "cluster_label"),
    Target("normalize", "normalize_mention", span=False),
    Target("metrics", "corpus_partition"),
    Target("metrics", "score"),
    Target("metrics", "align_mentions"),
    Target("metrics", "muc"),
    Target("metrics", "b_cubed"),
    Target("metrics", "ceaf_e"),
    Target("metrics", "optimal_assignment"),
    Target("kgpop", "populate"),
    Target("kgpop", "collapse"),
    Target("kgpop", "export_ntriples"),
    Target("kgpop", "export_kg_jsonl"),
    Target("kgpop", "kg_stats"),
    Target("goldkg", "read_entity_links"),
    Target("goldkg", "attach_entity_links"),
    Target("goldkg", "compile_gold"),
    Target("goldkg", "write_gold_jsonl"),
    Target("goldkg", "read_gold_jsonl"),
    Target("goldkg", "evaluate_population"),
)

GC_SPAN = "py.gc"
PACKAGE = "corefkg"


def _cli_name(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    sub = next((a for a in argv or () if not a.startswith("-")), "none")
    return f"cli.{sub}"


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.counts: dict[tuple[int, str], int] = {}
        self.captured: list[tuple] = []     # (pass, key, response) of each CEAFe call
        self.observed: list[tuple] = []     # (pass, function, result size)
        self.absent: list[str] = []
        self.pass_id = 0
        self._next = 0
        self._stack: list[int] = [-1]
        self._gc_start: list[tuple[int, float]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def in_pass(self, pass_no: int):
        """Attribute spans and counts to ``pass_no`` inside the block;
        collections between passes belong to none."""
        self.pass_id = pass_no
        try:
            yield
        finally:
            self.pass_id = -1

    def count(self, name: str, n: int = 1) -> None:
        key = (self.pass_id, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def _open(self) -> int:
        sid = self._next
        self._next += 1
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, t0: float, t1: float) -> None:
        self._stack.pop()
        self.spans.append((sid, name, t0, t1, self._stack[-1], self.pass_id))

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start.append((self._open(), perf_counter()))
        elif self._gc_start:
            sid, t0 = self._gc_start.pop()
            self._close(sid, GC_SPAN, t0, perf_counter())
            self.count(GC_SPAN + ".collections")

    def _wrap(self, qualname: str, fn: Callable, span: bool) -> Callable:
        tracer = self
        observe = _OBSERVERS.get(qualname)
        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.count(qualname + ".calls")
                return fn(*args, **kwargs)
            return counted

        namer = _cli_name if qualname == "cli.main" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer(args, kwargs) if namer else qualname
            sid = tracer._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, name, t0, perf_counter())
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result
        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        self.absent = []
        for target in targets:
            qualname = f"{target.module}.{target.function}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{target.module}")
            except ImportError:
                self.absent.append(qualname)
                continue
            original = getattr(module, target.function, None)
            if not callable(original):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, original, target.span)
            for site in list(sys.modules.values()):
                site_name = getattr(site, "__name__", "")
                if site_name != PACKAGE and not site_name.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, attr, wrapper)
                        self._restore.append((site, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        for site, attr, original in reversed(self._restore):
            setattr(site, attr, original)
        self._restore = []

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, t0, t1, parent, pass_id in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "pass": pass_id}) + "\n")


# -- observers: counts taken from arguments and results, outside the span ----

def _observe_assignment(tracer, args, kwargs, result):
    weights = args[0] if args else kwargs["weights"]
    rows = len(weights)
    tracer.count("metrics.optimal_assignment.cells", rows * (len(weights[0]) if rows else 0))


def _observe_ceaf(tracer, args, kwargs, result):
    tracer.captured.append((tracer.pass_id, args[0], args[1]))


def _observe_reader(tracer, args, kwargs, result):
    tracer.count("docs_read", len(result))


def _observe_concepts(label: str, size: Callable):
    def observe(tracer, args, kwargs, result):
        tracer.observed.append((tracer.pass_id, label, size(result)))
    return observe


_OBSERVERS = {
    "metrics.optimal_assignment": _observe_assignment,
    "metrics.ceaf_e": _observe_ceaf,
    "brat.read_brat_dir": _observe_reader,
    "conll.read_coref_columns": _observe_reader,
    "jsonl.read_jsonl": _observe_reader,
    "goldkg.compile_gold": _observe_concepts("gold_kg", lambda kg: len(kg.concepts)),
    "kgpop.populate": _observe_concepts("populated_kg", lambda kg: len(kg.concepts)),
    "goldkg.evaluate_population": _observe_concepts("eval_kg", lambda r: r.n_concepts),
}


# -- analysis -------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _, t0, t1, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    out: dict[int, float] = {}
    for sid, _, t0, t1, _, _ in spans:
        covered = 0.0
        cursor = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, cursor), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[sid] = (t1 - t0) - covered
    return out


def per_pass_totals(spans) -> dict[int, dict[str, dict[str, float]]]:
    """pass -> span name -> {busy_s, self_s, calls}.

    ``busy_s`` counts only the outermost span of a name, so a function that
    re-enters itself is not counted twice; ``self_s`` sums over all spans.
    """
    own = self_times(spans)
    name_of = {sid: name for sid, name, *_ in spans}
    parent_of = {sid: parent for sid, _, _, _, parent, _ in spans}
    out: dict[int, dict[str, dict[str, float]]] = {}
    for sid, name, t0, t1, parent, pass_id in spans:
        row = out.setdefault(pass_id, {}).setdefault(
            name, {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
        row["calls"] += 1
        row["self_s"] += own[sid]
        ancestor = parent
        while ancestor >= 0 and name_of.get(ancestor) != name:
            ancestor = parent_of.get(ancestor, -1)
        if ancestor < 0:
            row["busy_s"] += t1 - t0
    return out


def ceaf_shape(key, response) -> dict[str, int]:
    """Overlap structure of one CEAFe call's aligned partitions.

    Two parts overlap when they share a mention; the components of that
    bipartite overlap graph are what an exact alignment can solve apart.
    Mention ids are ``corefkg`` identity keys, whose first field is the doc_id.
    """
    if not key.parts:
        return dict.fromkeys(("key_parts", "response_parts", "overlap_pairs", "components",
                              "largest_key_parts", "largest_response_parts", "largest_docs"), 0)
    key_of = {m: i for i, part in enumerate(key.parts) for m in part}
    pairs = set()
    parent = list(range(len(key.parts) + len(response.parts)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    offset = len(key.parts)
    docs_of: dict[int, set] = {}
    for j, part in enumerate(response.parts):
        for m in part:
            i = key_of.get(m)
            if i is None:   # unaligned partitions: the mention is not a key mention
                continue
            pairs.add((i, j))
            a, b = find(i), find(offset + j)
            if a != b:
                parent[a] = b
    members: dict[int, list[int]] = {}
    for x in range(len(parent)):
        members.setdefault(find(x), []).append(x)
    for part_index, part in enumerate(key.parts):
        docs_of.setdefault(find(part_index), set()).update(m[0] for m in part)
    largest = max(members.values(), key=len)
    root = find(largest[0])
    return {
        "key_parts": len(key.parts),
        "response_parts": len(response.parts),
        "overlap_pairs": len(pairs),
        "components": len(members),
        "largest_key_parts": sum(1 for x in largest if x < offset),
        "largest_response_parts": sum(1 for x in largest if x >= offset),
        "largest_docs": len(docs_of.get(root, ())),
    }
