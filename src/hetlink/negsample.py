"""Hard-negative generation from combined semantic and structural similarity.

Candidates for a gold entity are its 1-hop KB neighbors, scored by
cosine similarity of the initial term embeddings (mapped to [0, 1]) times a
normalized 1-hop graph-edit-distance similarity; the top of the ranking is
sampled.  A uniform sampler provides the baseline.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .hetgraph import SELF_EDGE_TYPE, HeteroGraph

log = logging.getLogger(__name__)


class NegSampleError(Exception):
    pass


@dataclass(frozen=True)
class NeighborhoodSignature:
    """Center type/name plus the multiset of 1-hop typed neighbor triples."""
    center_type: str
    center_name: str
    triples: tuple[tuple[str, str, str], ...]   # (edgeType, neighborType, neighborName)


def neighborhood_signature(kb: HeteroGraph, v: int, use_names: bool = True) -> NeighborhoodSignature:
    node = kb.node(v)
    triples = []
    for r in sorted(kb.edge_types):
        if r == SELF_EDGE_TYPE:
            continue
        for u in sorted(kb.neighbors_by_relation(v, r)):
            if u == v:
                continue
            other = kb.node(u)
            name = other.surface if use_names else ""
            triples.append((r, other.type, name))
    return NeighborhoodSignature(node.type, node.surface, tuple(sorted(triples)))


def ged_1hop(sig_u: NeighborhoodSignature, sig_v: NeighborhoodSignature) -> int:
    """Edit cost: unmatched neighbor triples (insert/delete at cost 1 each,
    substitution of unequal triples disallowed) plus 1 if center types differ."""
    a, b = Counter(sig_u.triples), Counter(sig_v.triples)
    inter = sum((a & b).values())
    cost = sum(a.values()) + sum(b.values()) - 2 * inter
    if sig_u.center_type != sig_v.center_type:
        cost += 1
    return cost


def structural_similarity(u: int, v: int, kb: HeteroGraph, use_names: bool = True) -> float:
    """1 - cost / (|A| + |B| + 1); the +1 covers the center term."""
    sig_u = neighborhood_signature(kb, u, use_names)
    sig_v = neighborhood_signature(kb, v, use_names)
    cost = ged_1hop(sig_u, sig_v)
    denom = len(sig_u.triples) + len(sig_v.triples) + 1
    return 1.0 - cost / denom


def semantic_similarity(u: int, v: int, embeddings: np.ndarray) -> float:
    """Cosine of the initial embeddings mapped to [0, 1] via (1 + cos) / 2."""
    x, y = embeddings[u], embeddings[v]
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        log.warning("zero embedding vector for node %s or %s; similarity 0", u, v)
        return 0.0
    cos = float(np.dot(x, y) / (nx * ny))
    cos = min(1.0, max(-1.0, cos))
    return (1.0 + cos) / 2.0


def score(u: int, v: int, kb: HeteroGraph, embeddings: np.ndarray,
          use_names: bool = True) -> float:
    """Product of semantic and structural similarity; symmetric, in [0, 1]."""
    return semantic_similarity(u, v, embeddings) * structural_similarity(u, v, kb, use_names)


@dataclass
class NegativeCandidate:
    node: int
    sim_se: float
    sim_st: float
    sim: float


@dataclass
class PoolEntry:
    mention: str
    gold: int
    negatives: list[int]
    provenance: list[str]                 # "hard" or "uniform", per negative
    ranked: list[NegativeCandidate]


@dataclass
class NegativePool:
    entries: list[PoolEntry]
    seed: int

    def dump_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for e in self.entries:
                fh.write(json.dumps({
                    "mention": e.mention,
                    "gold": e.gold,
                    "negatives": [
                        {"node": c.node, "sim_se": c.sim_se,
                         "sim_st": c.sim_st, "sim": c.sim}
                        for c in e.ranked],
                    "sampled": e.negatives,
                    "provenance": e.provenance,
                }) + "\n")


class HardNegativeSampler:
    """Ranks a gold entity's 1-hop neighbors once, then samples per request."""

    def __init__(self, kb: HeteroGraph, embeddings: np.ndarray, use_names: bool = True):
        if not kb.frozen:
            raise NegSampleError("KB must be frozen")
        self.kb = kb
        self.embeddings = embeddings
        self.use_names = use_names
        self._ranked: dict[int, list[NegativeCandidate]] = {}
        self._ids = np.array(kb.node_ids, dtype=np.int64)
        self._pos = {nid: i for i, nid in enumerate(kb.node_ids)}

    def ranked(self, gold: int) -> list[NegativeCandidate]:
        if gold not in self._ranked:
            cands = []
            for c in sorted(self.kb.neighbors(gold) - {gold}):
                se = semantic_similarity(gold, c, self.embeddings)
                st = structural_similarity(gold, c, self.kb, self.use_names)
                cands.append(NegativeCandidate(c, se, st, se * st))
            cands.sort(key=lambda c: (-c.sim, c.node))
            self._ranked[gold] = cands
        return self._ranked[gold]

    def sample(self, gold: int, k: int, rng: np.random.Generator,
               exclude: frozenset[int] = frozenset()) -> tuple[list[int], list[str]]:
        """k negatives: uniform over the top max(2k, 5) ranked candidates,
        topped up with uniform KB sampling when too few candidates exist.

        `exclude` drops known false negatives (e.g. entities that appear in
        the query context itself) from the candidate ranking."""
        ranked = [c for c in self.ranked(gold) if c.node not in exclude]
        top = ranked[:max(2 * k, 5)]
        if len(top) >= k:
            picks = rng.choice(len(top), size=k, replace=False)
            return [top[i].node for i in sorted(picks)], ["hard"] * k
        negatives = [c.node for c in top]
        provenance = ["hard"] * len(negatives)
        drop = set(negatives) | {gold} | exclude
        keep = np.ones(len(self._ids), dtype=bool)
        keep[[self._pos[n] for n in drop if n in self._pos]] = False
        remaining = self._ids[keep]
        fill = k - len(negatives)
        if fill > len(remaining):
            raise NegSampleError("KB too small to draw requested negatives")
        picks = rng.choice(len(remaining), size=fill, replace=False)
        negatives += [int(remaining[i]) for i in sorted(picks)]
        provenance += ["uniform"] * fill
        return negatives, provenance


def generate_hard_negatives(positives, kb: HeteroGraph, k: int, seed: int,
                            embeddings: np.ndarray, use_names: bool = True) -> NegativePool:
    """positives: iterable of (mention surface, gold node id)."""
    if k < 1:
        raise NegSampleError("k must be >= 1")
    sampler = HardNegativeSampler(kb, embeddings, use_names)
    rng = np.random.default_rng(seed)
    entries = []
    for mention, gold in positives:
        negatives, provenance = sampler.sample(gold, k, rng)
        entries.append(PoolEntry(mention, gold, negatives, provenance, sampler.ranked(gold)))
    return NegativePool(entries, seed)


def uniform_negatives(positives, kb: HeteroGraph, k: int, seed: int) -> NegativePool:
    """k uniform draws from the KB (without replacement), gold excluded."""
    if k < 1:
        raise NegSampleError("k must be >= 1")
    if len(kb) < k + 1:
        raise NegSampleError("KB smaller than k+1 nodes")
    rng = np.random.default_rng(seed)
    entries = []
    ids = np.array(kb.node_ids)
    for mention, gold in positives:
        pool = ids[ids != gold]
        picks = rng.choice(len(pool), size=k, replace=False)
        negatives = [int(pool[i]) for i in sorted(picks)]
        entries.append(PoolEntry(mention, gold, negatives, ["uniform"] * k,
                                 ranked=[]))
    return NegativePool(entries, seed)
