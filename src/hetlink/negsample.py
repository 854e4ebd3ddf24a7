"""Hard-negative generation from combined semantic and structural similarity.

Candidates for a gold entity are its 1-hop KB neighbors, scored by
cosine similarity of the initial term embeddings (mapped to [0, 1]) times a
normalized 1-hop graph-edit-distance similarity; the top of the ranking is
sampled.  A uniform draw over the KB provides the baseline and tops up
the hard sampler when a gold entity has too few neighbors.
"""

from __future__ import annotations

import bisect
import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .hetgraph import SELF_EDGE_TYPE, HeteroGraph

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NeighborhoodSignature:
    """Center type plus the multiset of 1-hop typed neighbor triples."""
    center_type: str
    triples: tuple[tuple[str, str, str], ...]   # (edgeType, neighborType, neighborName)


def neighborhood_signature(kb: HeteroGraph, v: int, use_names: bool = True) -> NeighborhoodSignature:
    return NeighborhoodSignature(kb.node_type(v), tuple(sorted(
        (r, kb.node_type(u), kb.node_name(u) if use_names else "")
        for r in kb.edge_types - {SELF_EDGE_TYPE}
        for u in kb.neighbors_by_relation(v, r) if u != v)))


def ged_1hop(sig_u: NeighborhoodSignature, sig_v: NeighborhoodSignature) -> int:
    """Edit cost: unmatched neighbor triples (insert/delete at cost 1 each,
    substitution of unequal triples disallowed) plus 1 if center types differ."""
    a, b = Counter(sig_u.triples), Counter(sig_v.triples)
    inter = sum((a & b).values())
    cost = sum(a.values()) + sum(b.values()) - 2 * inter
    if sig_u.center_type != sig_v.center_type:
        cost += 1
    return cost


def signature_similarity(sig_u: NeighborhoodSignature, sig_v: NeighborhoodSignature) -> float:
    """1 - cost / (|A| + |B| + 1); the +1 covers the center term."""
    return 1.0 - ged_1hop(sig_u, sig_v) / (len(sig_u.triples) + len(sig_v.triples) + 1)


def structural_similarity(u: int, v: int, kb: HeteroGraph) -> float:
    """signature_similarity of nodes u and v of `kb`."""
    return signature_similarity(neighborhood_signature(kb, u), neighborhood_signature(kb, v))


def semantic_similarity(u: int, v: int, embeddings: np.ndarray) -> float:
    """Cosine of embedding rows `u` and `v` mapped to [0, 1] via (1 + cos) / 2.

    `u` and `v` are row indices, not node ids: map ids through kb.rows."""
    x, y = embeddings[u], embeddings[v]
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        log.warning("zero embedding vector in row %s or %s; similarity 0", u, v)
        return 0.0
    cos = float(np.dot(x, y) / (nx * ny))
    cos = min(1.0, max(-1.0, cos))
    return (1.0 + cos) / 2.0


@dataclass
class NegativeCandidate:
    node: int
    sim_se: float
    sim_st: float
    sim: float


def draw_excluding(rng: np.random.Generator, n: int, excluded: list[int], k: int) -> list[int]:
    """k distinct positions of range(n) outside `excluded` (distinct ones,
    ascending), ascending; all of them when fewer than k remain.  One
    rng.choice over the positions that remain, so the draw of rng.choice over
    a copy of them: each pick moves past the excluded positions before it."""
    remaining = n - len(excluded)
    picks = sorted(rng.choice(remaining, size=min(k, remaining), replace=False).tolist())
    # excluded[j] - j positions remain before excluded[j]
    before = [e - j for j, e in enumerate(excluded)]
    return [p + bisect.bisect_right(before, p) for p in picks]


def uniform_negatives(kb: HeteroGraph, k: int, rng: np.random.Generator,
                      exclude: set[int]) -> list[int]:
    """k distinct KB ids in KB order, from one rng.choice over the KB ids not
    in `exclude` (ids outside the KB are ignored); every one of those ids
    when fewer than k remain."""
    rows = sorted(kb.rows([n for n in exclude if n in kb]).tolist())
    return kb.id_array[draw_excluding(rng, len(kb), rows, k)].tolist()


class HardNegativeSampler:
    """Ranks a gold entity's 1-hop neighbors once, then samples per request.

    `embeddings` has one row per KB node, in kb.node_ids order."""

    def __init__(self, kb: HeteroGraph, embeddings: np.ndarray):
        self.kb = kb
        self.embeddings = embeddings
        self._ranked: dict[int, list[NegativeCandidate]] = {}

    def ranked(self, gold: int) -> list[NegativeCandidate]:
        if gold not in self._ranked:
            cands = []
            neighbors = sorted(self.kb.neighbors(gold) - {gold})
            gold_row, *rows = self.kb.rows([gold, *neighbors]).tolist()
            gold_sig = neighborhood_signature(self.kb, gold)
            for c, row in zip(neighbors, rows):
                se = semantic_similarity(gold_row, row, self.embeddings)
                st = signature_similarity(gold_sig, neighborhood_signature(self.kb, c))
                cands.append(NegativeCandidate(c, se, st, se * st))
            cands.sort(key=lambda c: (-c.sim, c.node))
            self._ranked[gold] = cands
        return self._ranked[gold]

    def sample(self, gold: int, k: int, rng: np.random.Generator,
               exclude: frozenset[int] = frozenset()) -> tuple[list[int], list[str]]:
        """k negatives: uniform over the top max(2k, 5) ranked candidates,
        topped up by uniform_negatives when too few candidates exist (fewer
        than k when the KB holds fewer).

        `exclude` drops known false negatives (e.g. entities that appear in
        the query context itself) from the candidate ranking."""
        ranked = [c for c in self.ranked(gold) if c.node not in exclude]
        top = ranked[:max(2 * k, 5)]
        if len(top) >= k:
            picks = rng.choice(len(top), size=k, replace=False)
            return [top[i].node for i in sorted(picks)], ["hard"] * k
        negatives = [c.node for c in top]
        fill = uniform_negatives(self.kb, k - len(negatives), rng,
                                 set(negatives) | {gold} | exclude)
        return negatives + fill, ["hard"] * len(top) + ["uniform"] * len(fill)
