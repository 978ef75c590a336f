"""Independent reference implementations used only as test oracles.

These deliberately share no code with the package: different data layouts
(plain lists of sets), float arithmetic, cluster-pair aggregation instead of
per-mention loops, and a bitmask dynamic program instead of the package's
shortest-augmenting-path assignment solver. They follow the published
algorithms of the standard CoNLL-style scorer.

If the environment variable CONLL_SCORER_PL points at the official Perl
scorer, `scorer_pl_scores` additionally cross-checks against the real thing.
"""

from __future__ import annotations

import os
import re
import subprocess
import tempfile
from pathlib import Path

Clustering = list[set]


def _f1(p: float, r: float) -> float:
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def muc_prf(key: Clustering, response: Clustering) -> tuple[float, float, float]:
    def vilain(a: Clustering, b: Clustering) -> tuple[int, int]:
        b_map: dict = {}
        for i, part in enumerate(b):
            for m in part:
                b_map[m] = i
        num = den = 0
        for part in a:
            corresponding = set()
            unaligned = 0
            for m in part:
                if m in b_map:
                    corresponding.add(b_map[m])
                else:
                    unaligned += 1
            num += len(part) - unaligned - len(corresponding)
            den += len(part) - 1
        return num, den

    r_num, r_den = vilain(key, response)
    p_num, p_den = vilain(response, key)
    p, r = _ratio(p_num, p_den), _ratio(r_num, r_den)
    return p, r, _f1(p, r)


def b_cubed_prf(key: Clustering, response: Clustering) -> tuple[float, float, float]:
    def sums(a: Clustering, b: Clustering) -> tuple[float, int]:
        num = 0.0
        for pa in a:
            for pb in b:
                inter = len(pa & pb)
                if inter:
                    num += inter * inter / len(pa)
        return num, sum(len(pa) for pa in a)

    r_num, r_den = sums(key, response)
    p_num, p_den = sums(response, key)
    p, r = _ratio(p_num, p_den), _ratio(r_num, r_den)
    return p, r, _f1(p, r)


def max_assignment_dp(matrix: list[list[float]]) -> float:
    """Maximum-weight injective assignment via DP over column bitmasks."""
    n = len(matrix)
    m = len(matrix[0]) if n else 0
    if n == 0 or m == 0:
        return 0.0
    if n > m:
        matrix = [[matrix[i][j] for i in range(n)] for j in range(m)]
        n, m = m, n
    assert m <= 20, "bitmask DP oracle limited to 20 columns"
    dp = {0: 0.0}
    for i in range(n):
        ndp: dict[int, float] = {}
        for mask, val in dp.items():
            for j in range(m):
                bit = 1 << j
                if mask & bit:
                    continue
                cand = val + matrix[i][j]
                if cand > ndp.get(mask | bit, float("-inf")):
                    ndp[mask | bit] = cand
        dp = ndp
    return max(dp.values())


def ceaf_e_prf(key: Clustering, response: Clustering) -> tuple[float, float, float]:
    if not key or not response:
        return 0.0, 0.0, 0.0
    phi = [
        [2 * len(k & r) / (len(k) + len(r)) for r in response]
        for k in key
    ]
    total = max_assignment_dp(phi)
    p, r = total / len(response), total / len(key)
    return p, r, _f1(p, r)


def all_scores(key: Clustering, response: Clustering) -> dict[str, tuple[float, float, float]]:
    m = muc_prf(key, response)
    b = b_cubed_prf(key, response)
    c = ceaf_e_prf(key, response)
    conll = tuple(sum(vals) / 3 for vals in zip(m, b, c))
    return {"muc": m, "b3": b, "ceafe": c, "conll": conll}


def link_closure(links: list[list]) -> Clustering:
    """The groups that coreference links close into, as BRAT chains close:
    each link (a list of ids) starts as one set, and any two sets that share
    an id are merged, again and again until no two do."""
    groups = [set(ids) for ids in links]
    while True:
        meeting = next(((a, b) for a in range(len(groups)) for b in range(a + 1, len(groups))
                        if groups[a] & groups[b]), None)
        if meeting is None:
            return groups
        a, b = meeting
        groups[a] |= groups.pop(b)


def parse_conll_chains(text: str) -> dict[str, list[set]]:
    """Independent parser of the column format: doc id -> chains of token spans.

    Only the bracket column is interpreted; mentions are (start token, end
    token) pairs. Used to check that generated files mean what the scorer
    would read.
    """
    docs: dict[str, list[set]] = {}
    doc = None
    chains: dict[str, list] = {}
    stacks: dict[str, list] = {}
    idx = 0
    for line in text.splitlines():
        if line.startswith("#begin document"):
            doc = line[len("#begin document"):].strip()
            chains, stacks, idx = {}, {}, 0
            continue
        if line.strip() == "#end document":
            assert doc is not None
            assert not any(stacks.values()), f"unbalanced chains in {doc}"
            docs[doc] = [set(spans) for spans in chains.values()]
            doc = None
            continue
        if doc is None or not line.strip() or line.startswith("#"):
            continue
        tag = line.split()[-1]
        if tag not in ("-", "_"):
            for part in tag.split("|"):
                match = re.fullmatch(r"(\()?(\d+)(\))?", part)
                assert match, f"bad bracket entry {part!r}"
                opened, cid, closed = match.groups()
                if opened and closed:
                    chains.setdefault(cid, []).append((idx, idx))
                elif opened:
                    stacks.setdefault(cid, []).append(idx)
                else:
                    start = stacks[cid].pop()
                    chains.setdefault(cid, []).append((start, idx))
        idx += 1
    return docs


def scorer_pl_path() -> str | None:
    path = os.environ.get("CONLL_SCORER_PL")
    return path if path and Path(path).is_file() else None


def _write_scorer_file(clustering: Clustering, universe: list, path: Path) -> None:
    tag_of: dict = {}
    for cid, part in enumerate(clustering, start=1):
        for m in part:
            tag_of[m] = f"({cid})"
    with path.open("w") as fh:
        fh.write("#begin document (XX); part 000\n")
        for m in universe:
            fh.write(f"XX\t{tag_of.get(m, '-')}\n")
        fh.write("#end document\n")


def scorer_pl_scores(
    key: Clustering, response: Clustering
) -> dict[str, tuple[float, float, float]] | None:
    """Run the official Perl scorer when available; None otherwise."""
    scorer = scorer_pl_path()
    if scorer is None:
        return None
    universe = sorted({m for part in key for m in part} | {m for part in response for m in part},
                      key=repr)
    out: dict[str, tuple[float, float, float]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        key_path, resp_path = Path(tmp, "key.conll"), Path(tmp, "resp.conll")
        _write_scorer_file(key, universe, key_path)
        _write_scorer_file(response, universe, resp_path)
        for metric in ("muc", "bcub", "ceafe"):
            raw = subprocess.run(
                ["perl", scorer, metric, str(key_path), str(resp_path)],
                check=True, capture_output=True, text=True,
            ).stdout
            match = re.search(
                r"Coreference:\s*Recall:\s*\([^)]*\)\s*([\d.]+)%\s*"
                r"Precision:\s*\([^)]*\)\s*([\d.]+)%\s*F1:\s*([\d.]+)%",
                raw,
            )
            assert match, f"cannot parse scorer output:\n{raw}"
            r, p, f = (float(x) / 100 for x in match.groups())
            out[metric] = (p, r, f)
    return out
