"""Build and semantically augment per-snippet query graphs.

Mentions are extracted by a pluggable extractor (a gazetteer over the KB's
inverted index by default, or a passthrough over gold annotations), matched
against the KB, and wired together with KB-typed edges.  Unmatched mentions
are connected through schema-compatible edge types.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .hetgraph import (INT_RE, SELF_EDGE_TYPE, RELATED_EDGE_TYPE, HeteroGraph, HetlinkError,
                       InvertedIndex, tokenize)
from .termembed import WordVectorStore, init_node_features


@dataclass(frozen=True)
class Mention:
    surface: str
    start_offset: int
    end_offset: int
    category: str | None = None
    link_id: int | str | None = None

    def check_against(self, text: str) -> None:
        if not (0 <= self.start_offset < self.end_offset <= len(text)):
            raise HetlinkError(f"mention span out of bounds: {self}")
        if text[self.start_offset:self.end_offset] != self.surface:
            raise HetlinkError(f"mention surface does not equal its span: {self}")
        if not tokenize(self.surface):
            raise HetlinkError(f"mention surface has no word character: {self}")


def _json_value(obj, key: str, kind):
    """obj[key] when it is a `kind` (never a bool); None when `key` is
    missing and `kind` admits None.  KeyError for another missing key,
    HetlinkError naming `key` for a value of another type."""
    if not isinstance(obj, dict):
        raise HetlinkError(f"expected a JSON object, got {type(obj).__name__}")
    value = obj.get(key) if isinstance(None, kind) else obj[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise HetlinkError(f"key {key!r} has the wrong type ({type(value).__name__})")
    return value


@dataclass(frozen=True)
class TextSnippet:
    id: str
    text: str
    mentions: tuple[Mention, ...] = ()

    def __post_init__(self):
        if not self.text:
            raise HetlinkError("empty snippet text")
        for m in self.mentions:
            m.check_against(self.text)
        spans = sorted(self.mentions, key=lambda m: (m.start_offset, m.end_offset))
        for a, b in zip(spans, spans[1:]):
            if b.start_offset < a.end_offset:
                raise HetlinkError(f"mentions {a.surface!r} and {b.surface!r} overlap")

    @classmethod
    def from_json(cls, data: dict, snippet_id: str = "s0") -> "TextSnippet":
        """The snippet of a JSON object, its id from "id", else "Id", else
        `snippet_id`.  KeyError for a missing key; HetlinkError for a value
        of the wrong type, or a link_id that is not an integer."""
        text = _json_value(data, "Text", str)
        mentions = []
        for m in _json_value(data, "Mentions", list) if "Mentions" in data else ():
            link = _json_value(m, "link_id", (int, str, type(None)))
            if isinstance(link, str) and not INT_RE.fullmatch(link):
                raise HetlinkError(f"key 'link_id' is not an integer: {link!r}")
            mentions.append(Mention(_json_value(m, "mention", str),
                                    _json_value(m, "start_offset", int),
                                    _json_value(m, "end_offset", int),
                                    _json_value(m, "category", (str, type(None))), link))
        return cls(str(data.get("id", data.get("Id", snippet_id))), text, tuple(mentions))

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "Text": self.text,
            "Mentions": [
                {"mention": m.surface, "start_offset": m.start_offset,
                 "end_offset": m.end_offset, "category": m.category,
                 "link_id": m.link_id}
                for m in self.mentions
            ],
        }


# -- extractors ------------------------------------------------------------

_TOKEN_RE = re.compile(r"\w+", re.UNICODE)


class GazetteerExtractor:
    """Longest-match lookup over the inverted index, plus an all-caps
    heuristic that surfaces unknown abbreviation-like tokens (alphabetic,
    two letters or more)."""

    def __init__(self, index: InvertedIndex):
        self.index = index
        self.max_tokens = max(1, index.max_key_tokens())

    def __call__(self, snippet: TextSnippet) -> list[Mention]:
        spans = [(m.start(), m.end(), m.group()) for m in _TOKEN_RE.finditer(snippet.text)]
        mentions: list[Mention] = []
        i = 0
        while i < len(spans):
            matched = None
            for width in range(min(self.max_tokens, len(spans) - i), 0, -1):
                start = spans[i][0]
                end = spans[i + width - 1][1]
                surface = snippet.text[start:end]
                if self.index.lookup(surface):
                    matched = (surface, start, end, width)
                    break
            if matched:
                surface, start, end, width = matched
                mentions.append(Mention(surface, start, end))
                i += width
                continue
            start, end, tok = spans[i]
            if tok.isupper() and tok.isalpha() and len(tok) >= 2:
                mentions.append(Mention(tok, start, end))
            i += 1
        return mentions


class GoldMentionExtractor:
    """Reproduce the snippet's annotated mention list verbatim."""

    def __call__(self, snippet: TextSnippet) -> list[Mention]:
        return list(snippet.mentions)


def extract_mentions(snippet: TextSnippet, extractor) -> list[Mention]:
    """Non-overlapping mentions in left-to-right order."""
    mentions = sorted(extractor(snippet), key=lambda m: (m.start_offset, m.end_offset))
    out: list[Mention] = []
    last_end = 0
    for m in mentions:
        if m.start_offset >= last_end:
            out.append(m)
            last_end = m.end_offset
    return out


# -- query graph -----------------------------------------------------------

@dataclass
class QueryGraph:
    graph: HeteroGraph
    mentions: dict[int, Mention]                # node id -> mention
    matches: dict[int, frozenset[int]]          # node id -> KB ids
    inferred_types: dict[int, tuple[str, ...]]
    unknown_nodes: tuple[int, ...]

    def node_for_mention(self, surface: str) -> int:
        for nid, m in self.mentions.items():
            if m.surface == surface:
                return nid
        raise HetlinkError(f"no mention node for {surface!r}")

    def features(self, store: WordVectorStore, freqs: dict[str, float]) -> np.ndarray:
        """init_node_features of the graph, whose node names are the mention
        surfaces, so lexical variants stay distinct.  `freqs` is the KB's
        token_frequencies: a query graph's tokens weigh by the KB's p(w)."""
        return init_node_features(self.graph, store, freqs)


def _unknown_types(mention: Mention, kb: HeteroGraph, matched_types: set[str]) -> tuple[str, ...]:
    if mention.category and mention.category in kb.node_types:
        return (mention.category,)
    # No usable category: the KB types a triple links with a matched type, else all.
    linked = {b for src, _, dst in kb.schema.triples
              for a, b in ((src, dst), (dst, src)) if a in matched_types}
    return tuple(sorted(linked or kb.node_types))


def _mention_nodes(kb: HeteroGraph, index: InvertedIndex, snippet: TextSnippet, extractor):
    """The mentions, KB candidates and inferred types of the query-graph
    nodes, three lists indexed by node id: matched mentions first, typed by
    their candidates' KB types, then unknown ones, typed by _unknown_types."""
    nodes = [(m, index.lookup(m.surface)) for m in extract_mentions(snippet, extractor)]
    nodes.sort(key=lambda node: not node[1])        # matched first, each in text order
    types = [tuple(sorted(set(map(kb.node_type, cands)))) for _, cands in nodes if cands]
    matched_types = set().union(*types)
    types += [_unknown_types(m, kb, matched_types) for m, cands in nodes if not cands]
    return [m for m, _ in nodes], [c for _, c in nodes], types


def _query_graph(mentions, cands, types, edges) -> QueryGraph:
    """The query graph of _mention_nodes' lists, each node typed by its first
    inferred type, with `edges` and then a self-loop on every node."""
    ids = range(len(mentions))
    graph = HeteroGraph.from_rows(
        [(nid, types[nid][0], mentions[nid].surface, ()) for nid in ids],
        [*edges, *((nid, nid, SELF_EDGE_TYPE) for nid in ids)])
    return QueryGraph(graph, dict(zip(ids, mentions)), dict(zip(ids, cands)),
                      dict(zip(ids, types)), tuple(nid for nid in ids if not cands[nid]))


def augment_query_graph(kb: HeteroGraph, index: InvertedIndex,
                        snippet: TextSnippet, extractor) -> QueryGraph:
    """Query graph with KB-derived typed edges and self-loops everywhere."""
    mentions, cands, types = _mention_nodes(kb, index, snippet, extractor)
    ids = range(len(mentions))
    matched = [nid for nid in ids if cands[nid]]

    # KB-edge transfer between matched pairs (any candidate pair connected),
    # walking each candidate's out-edges.  An edge that joins the pair both
    # ways (its ends in both candidate sets) is transferred as u_q -> v_q only.
    out_edges = {nid: [(src, dst, r) for src in cands[nid] for dst, r in kb.out_edges(src)
                       if r != SELF_EDGE_TYPE]
                 for nid in matched}
    added: set[tuple[int, int, str]] = set()
    for i, u_q in enumerate(matched):
        for v_q in matched[i + 1:]:
            u_cands, v_cands = cands[u_q], cands[v_q]
            for src, dst, r in (*out_edges[u_q], *out_edges[v_q]):
                if src in u_cands and dst in v_cands:
                    added.add((u_q, v_q, r))
                elif src in v_cands and dst in u_cands:
                    added.add((v_q, u_q, r))

    # Unknown mentions: connect to every other mention through each schema
    # triple between their inferred types.  The wiring of a pair is symmetric,
    # so an unknown-unknown pair yields the same edges from either end.
    for nid in ids[len(matched):]:
        for v_q in ids:
            if v_q == nid:
                continue
            for src, etype, dst in kb.schema.triples:
                if src in types[nid] and dst in types[v_q]:
                    added.add((nid, v_q, etype))
                if src in types[v_q] and dst in types[nid]:
                    added.add((v_q, nid, etype))
    return _query_graph(mentions, cands, types, sorted(added))


def fully_connected_query_graph(kb: HeteroGraph, index: InvertedIndex,
                                snippet: TextSnippet, extractor) -> QueryGraph:
    """Untyped baseline: every mention pair connected by a generic edge."""
    mentions, cands, types = _mention_nodes(kb, index, snippet, extractor)
    n = len(mentions)
    edges = [edge for u in range(n) for v in range(u + 1, n)
             for edge in ((u, v, RELATED_EDGE_TYPE), (v, u, RELATED_EDGE_TYPE))]
    return _query_graph(mentions, cands, types, edges)
