"""Typed heterogeneous graph storage, schema, metapaths, and mention index.

The same structure serves as both the knowledge base (reference graph) and
the per-snippet query graph.  Graphs are mutable until :meth:`HeteroGraph.freeze`
is called; frozen graphs and the indexes derived from them are immutable and
safe to share across threads.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass

import numpy as np

# Reserved edge type used for query-graph self-loops.  Freeze registers a
# (T, SELF, T) schema triple for every node type so query graphs stay
# schema-consistent.
SELF_EDGE_TYPE = "SELF"
# Reserved edge type for the fully-connected, untyped query-graph baseline.
RELATED_EDGE_TYPE = "RELATED"

_PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)
_WS_RE = re.compile(r"\s+")


def normalize(text: str) -> str:
    """Lowercase, NFC-normalize, strip punctuation, collapse whitespace."""
    text = unicodedata.normalize("NFC", text).lower()
    text = _PUNCT_RE.sub(" ", text)
    return _WS_RE.sub(" ", text).strip()


def tokenize(text: str) -> list[str]:
    return normalize(text).split()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_NO_IDS = _read_only(np.zeros(0, dtype=np.int64))


class GraphError(Exception):
    """Invalid graph construction or query."""


@dataclass(frozen=True)
class Node:
    id: int
    type: str
    name: tuple[str, ...]          # composite term, lowercase tokens
    synonyms: tuple[tuple[str, ...], ...] = ()
    features: tuple[float, ...] | None = None

    @property
    def surface(self) -> str:
        return " ".join(self.name)


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    type: str


@dataclass(frozen=True)
class Metapath:
    """Alternating node-type / edge-type pattern A1 -R1-> A2 ... Am+1."""

    node_types: tuple[str, ...]
    edge_types: tuple[str, ...]

    def __post_init__(self):
        if len(self.node_types) < 2:
            raise GraphError("metapath needs at least 2 node types")
        if len(self.edge_types) != len(self.node_types) - 1:
            raise GraphError("metapath type counts inconsistent")

    @property
    def head(self) -> str:
        return self.node_types[0]

    @property
    def tail(self) -> str:
        return self.node_types[-1]

    def __len__(self) -> int:
        return len(self.node_types)

    def label(self) -> str:
        parts = [self.node_types[0]]
        for et, nt in zip(self.edge_types, self.node_types[1:]):
            parts += [et, nt]
        return "-".join(parts)

    @classmethod
    def parse(cls, text: str) -> "Metapath":
        """Parse the one-per-line config form, e.g. Drug-CAUSE-AdverseEffect."""
        parts = [p.strip() for p in text.strip().split("-")]
        if len(parts) < 3 or len(parts) % 2 == 0:
            raise GraphError(f"malformed metapath: {text!r}")
        return cls(tuple(parts[0::2]), tuple(parts[1::2]))

    def validate(self, schema: "Schema") -> None:
        for i, et in enumerate(self.edge_types):
            triple = (self.node_types[i], et, self.node_types[i + 1])
            if triple not in schema.triples:
                raise GraphError(f"metapath triple {triple} not in schema")


@dataclass(frozen=True)
class Schema:
    """(srcType, edgeType, dstType) triples derived from a frozen graph."""

    triples: frozenset[tuple[str, str, str]]

    def edge_types_for(self, node_type: str) -> set[tuple[str, str, str]]:
        """All triples in which `node_type` participates on either end."""
        return {t for t in self.triples if node_type in (t[0], t[2]) and t[1] != SELF_EDGE_TYPE}

    def connecting(self, type_a: str, type_b: str) -> list[tuple[str, str, str]]:
        """Triples linking type_a to type_b in either direction (no self-loops)."""
        out = [t for t in self.triples
               if t[1] != SELF_EDGE_TYPE
               and ((t[0] == type_a and t[2] == type_b) or (t[0] == type_b and t[2] == type_a))]
        return sorted(out)


class HeteroGraph:
    """Typed directed multigraph with composite-term node attributes."""

    def __init__(self):
        self._nodes: dict[int, Node] = {}
        self._edges: list[Edge] = []
        self._edge_set: set[tuple[int, int, str]] = set()
        self._node_types: set[str] = set()
        self._edge_types: set[str] = set()
        self._frozen = False
        # built at freeze
        self._out: dict[tuple[int, str], list[int]] = {}
        self._in: dict[tuple[int, str], list[int]] = {}
        self._schema: Schema | None = None
        self._sorted_ids: list[int] = []
        self._id_array = _NO_IDS                    # sorted ids; row = index
        self._ids_by_type: dict[str, np.ndarray] = {}   # sorted ids of each type

    # -- construction ------------------------------------------------------

    def _check_mutable(self):
        if self._frozen:
            raise GraphError("graph is frozen")

    def add_node(self, ntype: str, name, synonyms=(), features=None,
                 node_id: int | None = None) -> int:
        self._check_mutable()
        if not ntype:
            raise GraphError("empty node type")
        tokens = tuple(tokenize(name)) if isinstance(name, str) else tuple(name)
        if not tokens:
            raise GraphError("node name must have at least one token")
        nid = len(self._nodes) if node_id is None else node_id
        if nid in self._nodes:
            raise GraphError(f"duplicate node id {nid}")
        syns = tuple(tuple(tokenize(s)) if isinstance(s, str) else tuple(s)
                     for s in synonyms)
        feats = None if features is None else tuple(float(x) for x in features)
        self._nodes[nid] = Node(nid, ntype, tokens, syns, feats)
        self._node_types.add(ntype)
        return nid

    def add_edge(self, src: int, dst: int, etype: str) -> None:
        self._check_mutable()
        if src not in self._nodes or dst not in self._nodes:
            raise GraphError(f"dangling edge endpoint ({src}, {dst})")
        if not etype:
            raise GraphError("empty edge type")
        key = (src, dst, etype)
        if key in self._edge_set:
            raise GraphError(f"duplicate edge {key}")
        self._edge_set.add(key)
        self._edges.append(Edge(src, dst, etype))
        self._edge_types.add(etype)

    def freeze(self) -> "HeteroGraph":
        """Build adjacency and schema; the graph is immutable afterwards.
        Idempotent."""
        if self._frozen:
            return self
        for e in self._edges:
            self._out.setdefault((e.src, e.type), []).append(e.dst)
            self._in.setdefault((e.dst, e.type), []).append(e.src)
        for adj in (self._out, self._in):
            for key in adj:
                adj[key] = sorted(adj[key])
        triples = {(self._nodes[e.src].type, e.type, self._nodes[e.dst].type)
                   for e in self._edges}
        triples |= {(t, SELF_EDGE_TYPE, t) for t in self._node_types}
        self._schema = Schema(frozenset(triples))
        self._sorted_ids = sorted(self._nodes)
        self._id_array = _read_only(np.array(self._sorted_ids, dtype=np.int64))
        by_type: dict[str, list[int]] = {}
        for nid in self._sorted_ids:
            by_type.setdefault(self._nodes[nid].type, []).append(nid)
        self._ids_by_type = {t: _read_only(np.array(ids, dtype=np.int64))
                             for t, ids in by_type.items()}
        self._frozen = True
        return self

    # -- inspection --------------------------------------------------------

    @property
    def frozen(self) -> bool:
        return self._frozen

    @property
    def schema(self) -> Schema:
        if self._schema is None:
            raise GraphError("schema available only on a frozen graph")
        return self._schema

    @property
    def node_ids(self) -> list[int]:
        if self._frozen:
            return list(self._sorted_ids)
        return sorted(self._nodes)

    @property
    def node_types(self) -> set[str]:
        return set(self._node_types)

    @property
    def edge_types(self) -> set[str]:
        return set(self._edge_types)

    @property
    def edges(self) -> list[Edge]:
        return list(self._edges)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, nid: int) -> bool:
        return nid in self._nodes

    def node(self, nid: int) -> Node:
        try:
            return self._nodes[nid]
        except KeyError:
            raise GraphError(f"unknown node {nid}") from None

    @property
    def id_array(self) -> np.ndarray:
        """node_ids of a frozen graph as a read-only int64 array."""
        if not self._frozen:
            raise GraphError("id_array available only on a frozen graph")
        return self._id_array

    def ids_of_type(self, ntype: str) -> np.ndarray:
        """nodes_of_type of a frozen graph as a read-only int64 array, ascending;
        empty for a type the graph lacks."""
        if not self._frozen:
            raise GraphError("ids_of_type available only on a frozen graph")
        return self._ids_by_type.get(ntype, _NO_IDS)

    def rows(self, ids) -> np.ndarray:
        """Row of each id in node-id order (its index in node_ids), int64.

        The one id-to-row map: encoders, rankers and samplers index node
        arrays through it."""
        if not self._frozen:
            raise GraphError("rows available only on a frozen graph")
        ids = np.asarray(ids, dtype=np.int64)
        rows = np.searchsorted(self._id_array, ids)
        found = rows < len(self._id_array)
        found[found] = self._id_array[rows[found]] == ids[found]
        if not found.all():
            raise GraphError(f"unknown node {ids[~found][0]}")
        return rows

    def row_selector(self, ids: np.ndarray) -> slice | np.ndarray:
        """rows(ids) as an index into node arrays: a slice, so indexing gives
        a view, when `ids` is a run of node_ids, else the rows(ids) array."""
        if len(ids):
            lo, hi = np.searchsorted(self._id_array, (ids[0], ids[-1]))
            if hi - lo + 1 == len(ids) and np.array_equal(self._id_array[lo:hi + 1], ids):
                return slice(int(lo), int(hi) + 1)
        return self.rows(ids)

    def nodes(self) -> list[Node]:
        return [self._nodes[i] for i in self.node_ids]

    def nodes_of_type(self, ntype: str) -> list[int]:
        if self._frozen:
            return self.ids_of_type(ntype).tolist()
        return [i for i in self.node_ids if self._nodes[i].type == ntype]

    # -- neighborhoods -----------------------------------------------------

    def _check_frozen_node(self, v: int) -> None:
        if not self._frozen:
            raise GraphError("graph must be frozen")
        self.node(v)

    def out_neighbors(self, v: int, r: str) -> list[int]:
        self._check_frozen_node(v)
        return list(self._out.get((v, r), ()))

    def neighbors_by_relation(self, v: int, r: str) -> set[int]:
        """N_v^r: nodes incident to v through an edge of relation r."""
        self._check_frozen_node(v)
        return set(self._out.get((v, r), ())) | set(self._in.get((v, r), ()))

    def neighbors(self, v: int) -> set[int]:
        """Nodes incident to v through an edge of any relation."""
        self._check_frozen_node(v)
        out: set[int] = set()
        for r in self._edge_types:
            out.update(self._out.get((v, r), ()), self._in.get((v, r), ()))
        return out

    # -- metapaths ---------------------------------------------------------

    def _resolve_anchor(self, v: int, path: Metapath, anchor: str) -> str:
        vtype = self.node(v).type
        if anchor == "auto":
            if vtype == path.tail:
                return "end"
            if vtype == path.head:
                return "start"
            raise GraphError(f"node {v} of type {vtype} matches neither end of {path.label()}")
        expect = path.tail if anchor == "end" else path.head
        if vtype != expect:
            raise GraphError(f"node {v} of type {vtype} does not match metapath type {expect}")
        return anchor

    def metapath_instances(self, v: int, path: Metapath, anchor: str = "end",
                           simple: bool = False) -> list[tuple[int, ...]]:
        """All instances of `path` anchored at v, ordered as written.

        anchor="end" enumerates instances terminating at v (walking in-edges
        backward); anchor="start" enumerates instances originating at v;
        anchor="auto" picks by v's node type (end preferred).  Node revisits
        are allowed unless simple=True.  Deterministic: lexicographic by
        node-id sequence.
        """
        if not self._frozen:
            raise GraphError("graph must be frozen")
        try:
            path.validate(self.schema)
        except GraphError:
            return []           # this graph never realizes the pattern
        # walk out of v one level at a time: along the path over out-edges
        # from its start, along the reversed path over in-edges from its end
        anchor = self._resolve_anchor(v, path, anchor)
        step = 1 if anchor == "start" else -1
        adj = self._out if anchor == "start" else self._in
        results = [(v,)]
        for et, want in zip(path.edge_types[::step], path.node_types[::step][1:]):
            results = [walk + (u,) for walk in results for u in adj.get((walk[-1], et), ())
                       if self._nodes[u].type == want]
        if step == -1:
            results = [walk[::-1] for walk in results]
        if simple:
            results = [seq for seq in results if len(set(seq)) == len(seq)]
        return sorted(set(results))

    def metapath_neighbors(self, v: int, path: Metapath, anchor: str = "auto") -> set[int]:
        """Nodes reachable from v along instances of `path` (v excluded).

        All nodes appearing on an instance count as metapath-based neighbors,
        not just the far endpoint; a cyclic instance may re-include v at an
        interior position, in which case v is kept.
        """
        out: set[int] = set()
        anchor = self._resolve_anchor(v, path, anchor)
        for inst in self.metapath_instances(v, path, anchor=anchor):
            trimmed = inst[:-1] if anchor == "end" else inst[1:]
            out.update(trimmed)
        return out


# -- inverted index --------------------------------------------------------

def default_acronym_rule(tokens: tuple[str, ...]) -> list[str]:
    """Initial letters of multi-token names, minimum length 2."""
    if len(tokens) < 2:
        return []
    acro = "".join(t[0] for t in tokens if t)
    return [acro] if len(acro) >= 2 else []


class InvertedIndex:
    """Normalized surface string -> set of node ids (names, synonyms, acronyms)."""

    def __init__(self, entries: dict[str, set[int]]):
        self._entries = {k: frozenset(v) for k, v in entries.items()}
        self._max_key_tokens = max((len(k.split()) for k in self._entries), default=0)

    def lookup(self, surface: str) -> set[int]:
        key = normalize(surface)
        if not key:
            return set()
        return set(self._entries.get(key, ()))

    def max_key_tokens(self) -> int:
        return self._max_key_tokens


def build_inverted_index(graph: HeteroGraph, acronym_rule=default_acronym_rule) -> InvertedIndex:
    """Index every node under its name, synonyms, and generated acronyms.

    Pass acronym_rule=None to index long forms only.
    """
    if not graph.frozen:
        raise GraphError("index requires a frozen graph")
    entries: dict[str, set[int]] = {}

    def put(tokens, nid):
        key = " ".join(tokens)
        if key:
            entries.setdefault(key, set()).add(nid)

    for node in graph.nodes():
        put(node.name, node.id)
        for syn in node.synonyms:
            put(syn, node.id)
        if acronym_rule is not None:
            for acro in acronym_rule(node.name):
                put(tuple(tokenize(acro)), node.id)
    return InvertedIndex(entries)


# -- TSV / config file formats ---------------------------------------------

def load_nodes_tsv(path) -> list[tuple]:
    """Rows of (id, type, name, synonyms, features) from the node list file."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 3:
                raise GraphError(f"{path}:{lineno}: expected at least 3 columns")
            try:
                nid = int(parts[0])
            except ValueError:
                raise GraphError(f"{path}:{lineno}: bad node id {parts[0]!r}") from None
            synonyms = [s for s in (parts[3].split("|") if len(parts) > 3 else []) if s]
            features = None
            if len(parts) > 4 and parts[4]:
                try:
                    features = [float(x) for x in parts[4].split(",")]
                except ValueError:
                    raise GraphError(f"{path}:{lineno}: bad feature floats") from None
                if not np.isfinite(features).all():
                    raise GraphError(f"{path}:{lineno}: non-finite feature float")
            rows.append((nid, parts[1], parts[2], synonyms, features))
    return rows


def load_edges_tsv(path) -> list[tuple[int, int, str]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise GraphError(f"{path}:{lineno}: expected src<TAB>dst<TAB>type")
            try:
                rows.append((int(parts[0]), int(parts[1]), parts[2]))
            except ValueError:
                raise GraphError(f"{path}:{lineno}: bad endpoint id") from None
    return rows


def load_graph(nodes_path, edges_path) -> HeteroGraph:
    g = HeteroGraph()
    for nid, ntype, name, synonyms, features in load_nodes_tsv(nodes_path):
        g.add_node(ntype, name, synonyms=synonyms, features=features, node_id=nid)
    for src, dst, etype in load_edges_tsv(edges_path):
        if src not in g or dst not in g:
            raise GraphError(f"edge ({src}, {dst}, {etype}) references unknown node")
        g.add_edge(src, dst, etype)
    return g.freeze()


def save_graph(graph: HeteroGraph, nodes_path, edges_path) -> None:
    with open(nodes_path, "w", encoding="utf-8") as fh:
        for node in graph.nodes():
            syns = "|".join(" ".join(s) for s in node.synonyms)
            feats = "" if node.features is None else ",".join(repr(x) for x in node.features)
            fh.write(f"{node.id}\t{node.type}\t{node.surface}\t{syns}\t{feats}\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        for e in graph.edges:
            fh.write(f"{e.src}\t{e.dst}\t{e.type}\n")
