"""Typed heterogeneous graph storage, schema, metapaths, and mention index.

The same structure serves as both the knowledge base (reference graph) and
the per-snippet query graph.  A graph is built whole from its node rows and
edges by the HeteroGraph constructor; graphs and the indexes derived from them
are immutable and safe to share across threads.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import re
import typing
import unicodedata
import zipfile
from dataclasses import dataclass

import numpy as np

# Reserved edge type for query-graph self-loops: a KB edge file may not use
# it, and a graph's schema leaves it out.
SELF_EDGE_TYPE = "SELF"
# Reserved edge type for the fully-connected, untyped query-graph baseline.
RELATED_EDGE_TYPE = "RELATED"

_PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)
_WS_RE = re.compile(r"\s+")
# text that normalize() returns unchanged: lowercase ASCII words, one space apart
_NORMAL_RE = re.compile(r"[a-z0-9_]+( [a-z0-9_]+)*")


def normalize(text: str) -> str:
    """Lowercase, NFC-normalize, strip punctuation, collapse whitespace."""
    text = unicodedata.normalize("NFC", text).lower()
    text = _PUNCT_RE.sub(" ", text)
    return _WS_RE.sub(" ", text).strip()


def tokenize(text: str) -> list[str]:
    if _NORMAL_RE.fullmatch(text):
        return text.split(" ")
    return normalize(text).split()


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_NO_IDS = _read_only(np.zeros(0, dtype=np.int64))


class HetlinkError(Exception):
    """A rejected input or a failed operation; its message is one line."""


class GraphRowError(HetlinkError):
    """A row that breaks a rule of the HeteroGraph constructor; `row` is
    ("nodes" or "edges", its index among the rows given)."""

    def __init__(self, message: str, row: tuple[str, int]):
        super().__init__(message)
        self.row = row


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


class Edge(typing.NamedTuple):
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
            raise HetlinkError("metapath needs at least 2 node types")
        if len(self.edge_types) != len(self.node_types) - 1:
            raise HetlinkError("metapath type counts inconsistent")

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
            raise HetlinkError(f"malformed metapath: {text!r}")
        return cls(tuple(parts[0::2]), tuple(parts[1::2]))


@dataclass(frozen=True)
class Schema:
    """(srcType, edgeType, dstType) triples of a graph's edges, SELF ones left out."""

    triples: frozenset[tuple[str, str, str]]


class HeteroGraph:
    """Typed directed multigraph with composite-term node attributes, built
    whole by its constructor and immutable afterwards."""

    def __init__(self, nodes, edges):
        """The graph of `nodes`, (id, type, name, synonyms, features) rows, and
        `edges`, (src, dst, type) triples stored as Edge, each kept in the
        order given.  The node rules: a type, a name of at least one token, an
        id not taken.  The edge rules: both ends known, a type, not yet
        present.  GraphRowError for the first row that breaks one."""
        self._nodes: dict[int, Node] = {}
        for i, (nid, ntype, name, synonyms, features) in enumerate(nodes):
            if not ntype:
                raise GraphRowError("empty node type", ("nodes", i))
            tokens = tuple(tokenize(name)) if isinstance(name, str) else tuple(name)
            if not tokens:
                raise GraphRowError("node name must have at least one token", ("nodes", i))
            if nid in self._nodes:
                raise GraphRowError(f"duplicate node id {nid}", ("nodes", i))
            syns = tuple(tuple(tokenize(s)) if isinstance(s, str) else tuple(s)
                         for s in synonyms)
            feats = None if features is None else tuple(float(x) for x in features)
            self._nodes[nid] = Node(nid, ntype, tokens, syns, feats)
        self._edges: dict[Edge, None] = {}         # in the order given
        self._edge_types: set[str] = set()
        for i, edge in enumerate(edges):
            src, dst, etype = edge
            if src not in self._nodes or dst not in self._nodes:
                raise GraphRowError(f"edge ({src}, {dst}, {etype}) references unknown node",
                                    ("edges", i))
            if not etype:
                raise GraphRowError("empty edge type", ("edges", i))
            if edge in self._edges:
                raise GraphRowError(f"duplicate edge {(src, dst, etype)}", ("edges", i))
            # an Edge is kept as given: allocating each edge of a bulk load
            # again costs garbage-collector passes over the whole graph
            self._edges[edge if type(edge) is Edge else Edge(src, dst, etype)] = None
            self._edge_types.add(etype)
        self._out: dict[tuple[int, str], tuple[int, ...]] = {}
        self._in: dict[tuple[int, str], tuple[int, ...]] = {}
        for src, dst, etype in self._edges:
            self._out.setdefault((src, etype), []).append(dst)
            self._in.setdefault((dst, etype), []).append(src)
        # tuples of ints, which the garbage collector stops tracking
        for adj in (self._out, self._in):
            for key, ids in adj.items():
                adj[key] = tuple(sorted(ids))
        self.schema = Schema(frozenset((self._nodes[src].type, etype, self._nodes[dst].type)
                                       for src, dst, etype in self._edges
                                       if etype != SELF_EDGE_TYPE))
        self._sorted_ids = sorted(self._nodes)
        # node_ids as a read-only int64 array: the row of each id is its index
        self.id_array = _read_only(np.array(self._sorted_ids, dtype=np.int64))
        by_type: dict[str, list[int]] = {}
        for nid in self._sorted_ids:
            by_type.setdefault(self._nodes[nid].type, []).append(nid)
        self._ids_by_type = {t: _read_only(np.array(ids, dtype=np.int64))
                             for t, ids in by_type.items()}

    # -- inspection --------------------------------------------------------

    @property
    def node_ids(self) -> list[int]:
        return list(self._sorted_ids)

    @property
    def node_types(self) -> set[str]:
        return set(self._ids_by_type)

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
            raise HetlinkError(f"unknown node {nid}") from None

    def ids_of_type(self, ntype: str) -> np.ndarray:
        """nodes_of_type as a read-only int64 array, ascending; empty for a
        type the graph lacks."""
        return self._ids_by_type.get(ntype, _NO_IDS)

    def rows(self, ids) -> np.ndarray:
        """Row of each id in node-id order (its index in node_ids), int64.

        The one id-to-row map: encoders, rankers and samplers index node
        arrays through it."""
        ids = np.asarray(ids, dtype=np.int64)
        rows = np.searchsorted(self.id_array, ids)
        found = rows < len(self.id_array)
        found[found] = self.id_array[rows[found]] == ids[found]
        if not found.all():
            raise HetlinkError(f"unknown node {ids[~found][0]}")
        return rows

    def row_selector(self, ids: np.ndarray) -> slice | np.ndarray:
        """rows(ids) as an index into node arrays: a slice, so indexing gives
        a view, when `ids` is a run of node_ids, else the rows(ids) array."""
        if len(ids):
            lo, hi = np.searchsorted(self.id_array, (ids[0], ids[-1]))
            if hi - lo + 1 == len(ids) and np.array_equal(self.id_array[lo:hi + 1], ids):
                return slice(int(lo), int(hi) + 1)
        return self.rows(ids)

    def nodes(self) -> list[Node]:
        return [self._nodes[i] for i in self._sorted_ids]

    def typed_shape(self) -> tuple:
        """The graph less its ids, names and features: each row's node type,
        and the set of (src row, dst row, edge type) of its edges.  Anything
        built from rows, types and edges alone is the same for one shape."""
        row = {nid: r for r, nid in enumerate(self._sorted_ids)}
        return (tuple(self._nodes[nid].type for nid in self._sorted_ids),
                frozenset((row[src], row[dst], etype) for src, dst, etype in self._edges))

    def nodes_of_type(self, ntype: str) -> list[int]:
        return self.ids_of_type(ntype).tolist()

    @functools.cached_property
    def token_ids(self) -> dict[str, np.ndarray]:
        """Each name or synonym token -> the ids of the nodes holding it, a
        read-only ascending int64 array; built in one pass over the nodes on
        first use and kept with the graph."""
        holders: dict[str, list[int]] = {}
        for node in self.nodes():           # ascending ids, so each list ascends
            for tok in set(node.name).union(*node.synonyms):
                holders.setdefault(tok, []).append(node.id)
        return {tok: _read_only(np.array(ids, dtype=np.int64)) for tok, ids in holders.items()}

    # -- neighborhoods -----------------------------------------------------

    def out_neighbors(self, v: int, r: str) -> list[int]:
        self.node(v)
        return list(self._out.get((v, r), ()))

    def neighbors_by_relation(self, v: int, r: str) -> set[int]:
        """N_v^r: nodes incident to v through an edge of relation r."""
        self.node(v)
        return set(self._out.get((v, r), ())) | set(self._in.get((v, r), ()))

    def neighbors(self, v: int) -> set[int]:
        """Nodes incident to v through an edge of any relation."""
        self.node(v)
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
            raise HetlinkError(f"node {v} of type {vtype} matches neither end of {path.label()}")
        expect = path.tail if anchor == "end" else path.head
        if vtype != expect:
            raise HetlinkError(f"node {v} of type {vtype} does not match metapath type {expect}")
        return anchor

    def metapath_instances(self, v: int, path: Metapath, anchor: str) -> list[tuple[int, ...]]:
        """All instances of `path` anchored at v, ordered as written.

        anchor="end" enumerates instances terminating at v (walking in-edges
        backward); anchor="start" enumerates instances originating at v;
        anchor="auto" picks by v's node type (end preferred).  Node revisits
        are allowed.  Deterministic: lexicographic by node-id sequence.
        """
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

class InvertedIndex:
    """Normalized surface string -> set of node ids (names, synonyms, acronyms)."""

    def __init__(self, entries: dict[str, set[int]]):
        self._entries = {k: frozenset(v) for k, v in entries.items()}
        self._max_key_tokens = max((len(k.split()) for k in self._entries), default=0)

    def lookup(self, surface: str) -> frozenset[int]:
        return self._entries.get(normalize(surface), frozenset())

    def max_key_tokens(self) -> int:
        return self._max_key_tokens


def build_inverted_index(graph: HeteroGraph, acronyms: bool = True) -> InvertedIndex:
    """Index every node under its name and synonyms and, with `acronyms`, a
    name of two or more tokens under its tokens' initials."""
    entries: dict[str, set[int]] = {}

    def put(tokens, nid):
        key = " ".join(tokens)
        if key:
            entries.setdefault(key, set()).add(nid)

    for node in graph.nodes():
        put(node.name, node.id)
        for syn in node.synonyms:
            put(syn, node.id)
        initials = "".join(t[:1] for t in node.name) if acronyms else ""
        if len(initials) >= 2:
            put(tokenize(initials), node.id)
    return InvertedIndex(entries)


# -- TSV / config file formats ---------------------------------------------

@contextlib.contextmanager
def open_text(path):
    """`path` open for reading as UTF-8.  A file that cannot be opened ends in
    HetlinkError "<path>: <reason>", and a byte that is not UTF-8 in
    "<path>:<line>: not UTF-8", its line found in the file's bytes."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise HetlinkError(f"{path}: {exc.strerror}") from None
    with fh:
        try:
            yield fh
        except UnicodeDecodeError:
            with open(path, "rb") as raw:
                data = raw.read()
            try:
                data.decode("utf-8")
            except UnicodeDecodeError as exc:
                line = data.count(b"\n", 0, exc.start) + 1
                raise HetlinkError(f"{path}:{line}: not UTF-8") from None
            raise


def read_json(path):
    """The JSON value in file `path`; HetlinkError, one line that names the
    file, for text that is not UTF-8 or not JSON."""
    with open_text(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise HetlinkError(f"{path}: not JSON: {exc}") from None


def read_npz(path) -> dict[str, np.ndarray]:
    """Each array of the .npz archive in file `path`, by name; HetlinkError,
    one line that names the file, for a file that cannot be opened, any other
    file or an array that needs pickle."""
    try:
        npz = np.load(path, allow_pickle=False)
        if isinstance(npz, np.lib.npyio.NpzFile):     # not one bare .npy array
            with npz:
                return {name: npz[name] for name in npz.files}
    except OSError as exc:
        raise HetlinkError(f"{path}: {exc.strerror}") from None
    except (ValueError, EOFError, zipfile.BadZipFile):
        pass
    raise HetlinkError(f"{path}: not a readable .npz archive")


def _tsv_rows(path):
    """(line number, tab-separated fields) of each line of file `path` that
    is neither blank nor a # comment."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                yield lineno, line.split("\t")


def load_nodes_tsv(path) -> dict[int, tuple]:
    """The (id, type, name, synonyms, features) row of each line of the node
    list file, by line number."""
    rows = {}
    for lineno, parts in _tsv_rows(path):
        if len(parts) < 3:
            raise HetlinkError(f"{path}:{lineno}: expected at least 3 columns")
        try:
            nid = int(parts[0])
        except ValueError:
            raise HetlinkError(f"{path}:{lineno}: bad node id {parts[0]!r}") from None
        synonyms = tuple(s for s in (parts[3].split("|") if len(parts) > 3 else []) if s)
        features = None
        if len(parts) > 4 and parts[4]:
            try:
                features = [float(x) for x in parts[4].split(",")]
            except ValueError:
                raise HetlinkError(f"{path}:{lineno}: bad feature floats") from None
            if not np.isfinite(features).all():
                raise HetlinkError(f"{path}:{lineno}: non-finite feature float")
        rows[lineno] = (nid, parts[1], parts[2], synonyms, features)
    return rows


def load_edges_tsv(path) -> dict[int, Edge]:
    """The edge of each line of the edge list file, by line number."""
    rows = {}
    for lineno, parts in _tsv_rows(path):
        if len(parts) != 3:
            raise HetlinkError(f"{path}:{lineno}: expected src<TAB>dst<TAB>type")
        try:
            rows[lineno] = Edge(int(parts[0]), int(parts[1]), parts[2])
        except ValueError:
            raise HetlinkError(f"{path}:{lineno}: bad endpoint id") from None
        if parts[2] == SELF_EDGE_TYPE:
            raise HetlinkError(f"{path}:{lineno}: edge type {SELF_EDGE_TYPE!r} "
                               f"is reserved for query graphs")
    return rows


def load_graph(nodes_path, edges_path) -> HeteroGraph:
    """The graph of the node and edge list files.  A row that the HeteroGraph
    constructor rejects ends in HetlinkError "<path>:<line>: <rule broken>"."""
    nodes, edges = load_nodes_tsv(nodes_path), load_edges_tsv(edges_path)
    try:
        return HeteroGraph(nodes.values(), edges.values())
    except GraphRowError as exc:
        part, index = exc.row
        path, rows = (nodes_path, nodes) if part == "nodes" else (edges_path, edges)
        raise HetlinkError(f"{path}:{list(rows)[index]}: {exc}") from None


def save_graph(graph: HeteroGraph, nodes_path, edges_path) -> None:
    with open(nodes_path, "w", encoding="utf-8") as fh:
        for node in graph.nodes():
            syns = "|".join(" ".join(s) for s in node.synonyms)
            feats = "" if node.features is None else ",".join(repr(x) for x in node.features)
            fh.write(f"{node.id}\t{node.type}\t{node.surface}\t{syns}\t{feats}\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        for e in graph.edges:
            fh.write(f"{e.src}\t{e.dst}\t{e.type}\n")


def read_settings(cls, data, keys: dict, what: str) -> dict:
    """The fields of `cls` that the JSON object `data` sets: `keys` maps each
    key `data` may hold to its field (None: read and ignored), and values are
    cast to the fields' type hints, into dicts, lists and tuples, parsing
    metapath labels.  HetlinkError, one line, for a non-object, an unknown
    key, a non-finite float or a value the cast would change ("epochs": 2.9)."""
    if not isinstance(data, dict):
        raise HetlinkError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise HetlinkError(f"unknown {what} keys {unknown}")
    hints = typing.get_type_hints(cls)
    out = {}
    for key, name in ((key, keys[key]) for key in data if keys[key]):
        try:
            out[name] = _cast(hints[name], data[key])
        except (TypeError, ValueError, OverflowError, HetlinkError):
            raise HetlinkError(f"{what} key {key!r} must be {_hint_name(hints[name])}, "
                               f"got {data[key]!r}") from None
    return out


def _cast(kind, value):
    """`value` as type hint `kind`; an error read_settings catches if it can't be."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(args) == len(value):
            return origin(map(_cast, args, value))
    elif origin is dict and isinstance(value, dict):
        return {_cast(args[0], k): _cast(args[1], v) for k, v in value.items()}
    elif kind is int and type(value) in (int, float) and int(value) == value:
        return int(value)
    elif kind is float and type(value) in (int, float) and math.isfinite(value):
        return float(value)
    elif kind in (bool, str) and type(value) is kind:
        return value
    elif kind is Metapath and type(value) is str:
        return Metapath.parse(value)
    raise TypeError(kind)


def _hint_name(kind) -> str:
    args = ", ".join("..." if a is Ellipsis else _hint_name(a) for a in typing.get_args(kind))
    return f"{kind.__name__}[{args}]" if args else kind.__name__
