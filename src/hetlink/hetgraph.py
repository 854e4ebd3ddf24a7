"""Typed heterogeneous graph storage, schema, metapaths, and mention index.

The same structure serves as both the knowledge base (reference graph) and
the per-snippet query graph.  A graph is built whole from its node and edge
columns by the HeteroGraph constructor, which keeps them; graphs and the
indexes derived from them are immutable and safe to share across threads.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import re
import sys
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
# a node id in a node or edge list, or a snippet's link_id given as a string
INT_RE = re.compile(r"-?[0-9]+")
# text that normalize() returns unchanged: lowercase ASCII words, one space apart
_NORMAL_RE = re.compile(r"[a-z0-9_]+( [a-z0-9_]+)*")


def normalize(text: str) -> str:
    """Lowercase, NFC-normalize, strip punctuation, collapse whitespace."""
    if _NORMAL_RE.fullmatch(text):
        return text
    text = unicodedata.normalize("NFC", text).lower()
    text = _PUNCT_RE.sub(" ", text)
    return _WS_RE.sub(" ", text).strip()


def tokenize(text: str) -> list[str]:
    return normalize(text).split()


def _normalized(texts: list[str]) -> list[str]:
    """normalize() of each of `texts`: `texts` itself when one match finds
    them normal, joined one space apart."""
    return texts if _NORMAL_RE.fullmatch(" ".join(texts)) else list(map(normalize, texts))


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
        if bad := [t for t in (*self.node_types, *self.edge_types) if "-" in t or t != t.strip()]:
            raise HetlinkError(f"metapath type {bad[0]!r} holds '-' or leading or trailing "
                               f"whitespace, which a metapath label cannot carry")

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


def _codes(values) -> tuple[np.ndarray, tuple]:
    """The index of each of `values` among the distinct ones, int64, and the
    distinct ones in order of first appearance."""
    index = dict(zip(dict.fromkeys(values), itertools.count()))
    return np.fromiter(map(index.__getitem__, values), dtype=np.int64,
                       count=len(values)), tuple(index)


def _first_false(values) -> int | None:
    """The index of the first false one of `values`; None if all are true."""
    return None if all(values) else next(i for i, v in enumerate(values) if not v)


def _first_repeat(values) -> int | None:
    """The index of the first of `values` equal to an earlier one; None if
    they are distinct."""
    if len(set(values)) == len(values):
        return None
    seen: set = set()
    return next(i for i, v in enumerate(values) if v in seen or seen.add(v))


def _check(part: str, rules) -> None:
    """GraphRowError for the first row of `part` that breaks one of `rules`,
    (first row that breaks it or None, its message for a row) in the order a
    row is checked against them."""
    broken = [(int(row), k) for k, (row, _) in enumerate(rules) if row is not None]
    if broken:
        row, k = min(broken)
        raise GraphRowError(rules[k][1](row), (part, row))


def _grouped(keys, values, n_keys: int, n_values: int) -> tuple[np.ndarray, np.ndarray]:
    """Each (keys[i], values[i]) pair once, grouped by key: read-only bounds
    (key k's values are values[bounds[k]:bounds[k + 1]]) and values, ascending
    within each key; keys lie in range(n_keys) and values in range(n_values)."""
    key, value = np.divmod(np.unique(keys * n_values + values), max(n_values, 1))
    return _read_only(np.searchsorted(key, np.arange(n_keys + 1))), _read_only(value)


class HeteroGraph:
    """Typed directed multigraph with composite-term node attributes, built
    whole by its constructor and immutable afterwards."""

    def __init__(self, nodes, edges):
        """The graph of node columns `nodes`, (ids, types, names, synonyms),
        and edge columns `edges`, (src, dst, types), nodes kept in node-id
        order and edges in the order given.  Names and synonyms are texts,
        kept as normalize() gives them (a synonym without a token dropped).
        The node rules: a type, a name of at least one token, an id not taken.
        The edge rules: both ends known, a type, not yet present.
        GraphRowError for the first row, in the order given, that breaks one."""
        ids, types, names, synonyms = nodes
        ids, types, names = np.array(ids, dtype=np.int64), list(types), _normalized(list(names))
        id_list = ids.tolist()
        _check("nodes", [(_first_false(types), lambda i: "empty node type"),
                         (_first_false(names),
                          lambda i: "node name must have at least one token"),
                         (_first_repeat(id_list), lambda i: f"duplicate node id {ids[i]}")])
        synonyms = [tuple(filter(None, map(normalize, syns))) if syns else ()
                    for syns in synonyms]
        if id_list != sorted(id_list):          # not given in node-id order
            order = np.argsort(ids)
            ids, at = ids[order], order.tolist()
            id_list, types, names, synonyms = (list(map(column.__getitem__, at))
                                               for column in (id_list, types, names, synonyms))
        self.id_array = _read_only(ids)
        self._row = dict(zip(id_list, itertools.count()))
        self._nodes = tuple(types), tuple(names), tuple(synonyms)
        by_type: dict[str, list[int]] = {}
        for t, nid in zip(types, id_list):
            by_type.setdefault(t, []).append(nid)
        self._ids_by_type = {t: _read_only(np.array(v, dtype=np.int64)) for t, v in by_type.items()}

        ends = np.array(edges[:2], dtype=np.int64)     # src, dst
        etypes = tuple(edges[2])
        rows = _read_only(ids.searchsorted(ends))
        codes, edge_types = _codes(etypes)
        # an edge as one int: equal ints for equal edges when their ends are known
        key = (rows[0] * (len(ids) + 1) + rows[1]) * max(len(edge_types), 1) + codes
        _check("edges", [(_first_false((ids.take(rows, mode="clip") == ends).all(axis=0).tolist()
                                       if len(ids) else [False] * len(etypes)),
                          lambda i: f"edge ({ends[0, i]}, {ends[1, i]}, {etypes[i]}) "
                                    f"references unknown node"),
                         (_first_false(etypes), lambda i: "empty edge type"),
                         (_first_repeat(key.tolist()),
                          lambda i: f"duplicate edge {(*ends[:, i].tolist(), etypes[i])}")])
        self._edge_table = rows[0], rows[1], _read_only(codes), edge_types
        self._edge_code = dict(zip(edge_types, itertools.count()))
        self._undirected: dict[str | None, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def from_rows(cls, nodes, edges) -> "HeteroGraph":
        """The graph of (id, type, name, synonyms) and (src, dst, type) rows."""
        return cls(list(zip(*nodes)) or [()] * 4, list(zip(*edges)) or [()] * 3)

    def _adjacency(self, outgoing: bool) -> tuple[list[int], list[int], list[str]]:
        """Each row's out-edges (`outgoing`) or in-edges, by type code, then id, as three flat
        lists: row bounds (row v's edges are k in range(bounds[v], bounds[v + 1])), ids, types."""
        src, dst, codes, types = self._edge_table
        ends, others = (src, dst) if outgoing else (dst, src)
        # an edge's value: its type code * n + the row at its other end
        bounds, values = _grouped(ends, codes * len(self) + others, len(self),
                                  len(types) * len(self))
        codes, others = np.divmod(values, max(len(self), 1))
        return bounds.tolist(), self.id_array[others].tolist(), [types[c] for c in codes.tolist()]

    @functools.cached_property
    def _out(self) -> tuple[list[int], list[int], list[str]]:
        """_adjacency(True), built on first use and kept: query graphs walk the KB's out-edges."""
        return self._adjacency(True)

    @functools.cached_property
    def _type_codes(self) -> tuple[np.ndarray, tuple]:
        """Each row's node-type code, int64, and the type of each code."""
        return _codes(self._nodes[0])

    @functools.cached_property
    def schema(self) -> Schema:
        """(srcType, edgeType, dstType) of the edges, built on first use."""
        src, dst, codes, edge_types = self._edge_table
        type_codes, types = self._type_codes
        triples = set(zip(type_codes[src].tolist(), codes.tolist(), type_codes[dst].tolist()))
        return Schema(frozenset((types[a], edge_types[r], types[b]) for a, r, b in triples
                                if edge_types[r] != SELF_EDGE_TYPE))

    def _row_of(self, nid: int) -> int:
        try:
            return self._row[nid]
        except KeyError:
            raise HetlinkError(f"unknown node {nid}") from None

    # -- inspection --------------------------------------------------------

    @property
    def node_ids(self) -> list[int]:
        return list(self._row)

    @property
    def node_types(self) -> set[str]:
        return set(self._ids_by_type)

    @property
    def edge_types(self) -> set[str]:
        return set(self._edge_code)

    @property
    def edges(self) -> list[Edge]:
        src, dst, codes, types = self._edge_table
        return list(map(Edge, self.id_array[src].tolist(), self.id_array[dst].tolist(),
                        map(types.__getitem__, codes.tolist())))

    def node_columns(self) -> tuple[np.ndarray, tuple, tuple, tuple]:
        """The nodes in node-id order as the constructor's columns: read-only
        int64 ids, then tuples of types, names and synonyms."""
        return (self.id_array, *self._nodes)

    def edge_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[str, ...]]:
        """The edges in the order given, as read-only int64 columns: the row
        of each one's src and dst, and the code of its type; then the type of
        each code, in order of first appearance."""
        return self._edge_table

    def __len__(self) -> int:
        return len(self._row)

    def __contains__(self, nid: int) -> bool:
        return nid in self._row

    def node(self, nid: int) -> Node:
        """Node `nid`, built from the columns on each call."""
        row = self._row_of(nid)
        types, names, synonyms = self._nodes
        return Node(int(self.id_array[row]), types[row], tuple(names[row].split(" ")),
                    tuple(tuple(syn.split(" ")) for syn in synonyms[row]))

    def node_type(self, nid: int) -> str:
        return self._nodes[0][self._row_of(nid)]

    def node_name(self, nid: int) -> str:
        """Node `nid`'s name, its tokens one space apart."""
        return self._nodes[1][self._row_of(nid)]

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
        return list(map(self.node, self._row))

    def typed_shape(self) -> tuple:
        """The graph less its ids, names and synonyms: each row's node type,
        and the set of (src row, dst row, edge type) of its edges.  Anything
        built from rows, types and edges alone is the same for one shape."""
        src, dst, codes, types = self._edge_table
        return self._nodes[0], frozenset(zip(src.tolist(), dst.tolist(),
                                             map(types.__getitem__, codes.tolist())))

    def nodes_of_type(self, ntype: str) -> list[int]:
        return self.ids_of_type(ntype).tolist()

    @functools.cached_property
    def _tokens(self) -> tuple[np.ndarray, tuple, np.ndarray]:
        """The one tokenization of the names and synonyms, in node-id order:
        token codes, int64; each code's token; each row's token count."""
        _, names, synonyms = self._nodes
        terms = [" ".join((name, *syns)) if syns else name for name, syns in zip(names, synonyms)]
        codes, tokens = _codes(" ".join(terms).split())
        counts = np.fromiter(map(str.count, terms, itertools.repeat(" ")), np.int64, len(terms))
        return codes, tokens, counts + 1

    @functools.cached_property
    def token_ids(self) -> dict[str, np.ndarray]:
        """Each name or synonym token -> the ids of the nodes holding it, a
        read-only ascending int64 array, tokens in order of first appearance;
        built on first use and kept with the graph."""
        codes, tokens, counts = self._tokens
        return self._ids_by_key(codes, tokens, np.repeat(np.arange(len(self)), counts))

    def _ids_by_key(self, codes, keys, rows) -> dict[str, np.ndarray]:
        """Each of `keys` -> the ids of the rows holding it (row rows[i] holds
        keys[codes[i]]), a read-only ascending int64 array, in `keys` order."""
        bounds, rows = _grouped(codes, rows, len(keys), len(self))
        ids = _read_only(self.id_array[rows])
        return dict(zip(keys, map(ids.__getitem__, map(slice, bounds[:-1], bounds[1:]))))

    @functools.cached_property
    def token_frequencies(self) -> dict[str, float]:
        """p(w) for SIF weights: each token's count over the count of all the
        name and synonym tokens, in token_ids' order; built on first use and kept."""
        codes, tokens, _ = self._tokens
        return dict(zip(tokens, (np.bincount(codes) / len(codes)).tolist()))

    # -- neighborhoods -----------------------------------------------------

    def out_edges(self, v: int) -> list[tuple[int, str]]:
        """v's out-edges as (dst id, edge type) pairs, by type code, then dst id."""
        row, (bounds, ids, types) = self._row_of(v), self._out
        return list(zip(ids[bounds[row]:bounds[row + 1]], types[bounds[row]:bounds[row + 1]]))

    def adjacency(self, relation: str | None) -> tuple[np.ndarray, np.ndarray]:
        """The rows linked through an edge of `relation` (of any relation when
        it is None), both ways and each pair once: read-only row bounds (row
        v's neighbours are cols[bounds[v]:bounds[v + 1]]) and cols, ascending
        in each row; a self-loop links a row to itself.  Built on first use
        and kept, one table per relation."""
        if relation not in self._undirected:
            src, dst, codes, _ = self._edge_table
            if relation is not None:
                keep = codes == self._edge_code.get(relation, -1)
                src, dst = src[keep], dst[keep]
            self._undirected.setdefault(relation, _grouped(
                np.concatenate([src, dst]), np.concatenate([dst, src]), len(self), len(self)))
        return self._undirected[relation]

    def neighbors_by_relation(self, v: int, r: str | None) -> set[int]:
        """N_v^r: nodes incident to v through an edge of relation r (of any
        relation when r is None)."""
        row = self._row_of(v)
        bounds, cols = self.adjacency(r)
        return set(self.id_array[cols[bounds[row]:bounds[row + 1]]].tolist())

    def neighbors(self, v: int) -> set[int]:
        """Nodes incident to v through an edge of any relation."""
        return self.neighbors_by_relation(v, None)

    # -- metapaths ---------------------------------------------------------

    def _resolve_anchor(self, v: int, path: Metapath, anchor: str) -> str:
        vtype = self.node_type(v)
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

    def metapath_table(self, path: Metapath) -> np.ndarray:
        """Every instance of `path` in the graph as the rows of its nodes, an
        (instances, len(path)) int64 array ordered by target (last column),
        then lexicographically, as metapath_instances(target, path, "end")
        lists them; node revisits kept.  Built from the tail back: each step
        joins the rows so far to the edges of its type, sorted by dst, whose
        src has its node type."""
        type_codes, types = self._type_codes
        want = [types.index(t) if t in types else -1 for t in path.node_types]
        src, dst, codes, _ = self._edge_table
        table = np.flatnonzero(type_codes == want[-1])[:, None]
        for i in range(len(path) - 2, -1, -1):
            keep = ((codes == self._edge_code.get(path.edge_types[i], -1))
                    & (type_codes[src] == want[i]))
            order = np.argsort(dst[keep], kind="stable")
            ends, starts = dst[keep][order], src[keep][order]
            lo = np.searchsorted(ends, table[:, 0])
            counts = np.searchsorted(ends, table[:, 0], side="right") - lo
            # row j's edges are ends[lo[j]:lo[j] + counts[j]], row after row
            picks = np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
            table = np.column_stack([starts[picks], np.repeat(table, counts, axis=0)])
        return table[np.lexsort((*table[:, -2::-1].T, table[:, -1]))]

    def metapath_instances(self, v: int, path: Metapath, anchor: str) -> list[tuple[int, ...]]:
        """All instances of `path` anchored at v, ordered as written: the
        per-node reference that metapath_table is tested against.

        anchor="end" enumerates instances terminating at v (walking in-edges
        backward); anchor="start" enumerates instances originating at v;
        anchor="auto" picks by v's node type (end preferred).  Node revisits
        are allowed.  Deterministic: lexicographic by node-id sequence.
        """
        # walk out of v one level at a time: along the path over out-edges
        # from its start, along the reversed path over in-edges from its end
        anchor = self._resolve_anchor(v, path, anchor)
        step = 1 if anchor == "start" else -1
        bounds, ids, etypes = self._out if anchor == "start" else self._adjacency(False)
        results = [(v,)]
        types, row = self._nodes[0], self._row
        for et, want in zip(path.edge_types[::step], path.node_types[::step][1:]):
            results = [walk + (ids[k],) for walk in results
                       for k in range(bounds[row[walk[-1]]], bounds[row[walk[-1]] + 1])
                       if etypes[k] == et and types[row[ids[k]]] == want]
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
    """Normalized surface string -> ids of the nodes it names (names, synonyms, acronyms)."""

    def __init__(self, ids_by_key: dict[str, np.ndarray]):
        self._ids = ids_by_key
        self._max_key_tokens = max((k.count(" ") + 1 for k in ids_by_key), default=0)

    def lookup(self, surface: str) -> frozenset[int]:
        return frozenset(self._ids.get(normalize(surface), _NO_IDS).tolist())

    def max_key_tokens(self) -> int:
        return self._max_key_tokens


def build_inverted_index(graph: HeteroGraph, acronyms: bool = True) -> InvertedIndex:
    """Index every node under its name and synonyms and, with `acronyms`, a
    name of two or more tokens under its tokens' initials."""
    _, _, names, synonyms = graph.node_columns()
    # each name's initials: its code points after a line or a space, one name a line
    chars = np.frombuffer("\n".join(["", *names]).encode("utf-32-le"), dtype=np.uint32)
    gap = (chars == ord(" ")) | (chars == ord("\n"))
    keep = chars == ord("\n")
    keep[1:] |= gap[:-1] & ~gap[1:]
    initials = _normalized(chars[keep].tobytes().decode("utf-32-le").split("\n")[1:])
    # each node's keys, in node-id order
    keys = [(name, *syns, initial) if acronyms and " " in name else (name, *syns)
            for name, syns, initial in zip(names, synonyms, initials)]
    codes, distinct = _codes(list(itertools.chain.from_iterable(keys)))
    rows = np.repeat(np.arange(len(keys)), list(map(len, keys)))
    return InvertedIndex(graph._ids_by_key(codes, distinct, rows))


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


def file_sha256(path) -> str:
    """The sha256 of the bytes of file `path`, in hex."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _tsv_rows(path):
    """(line number, tab-separated fields) of each line of file `path` that
    is neither blank nor a # comment."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                yield lineno, line.split("\t")


def _node_id(text: str, path, lineno: int, what: str) -> int:
    """The int64 node id `text`, matching INT_RE, on line `lineno` of file `path`."""
    if not INT_RE.fullmatch(text):
        raise HetlinkError(f"{path}:{lineno}: bad {what} {text!r}")
    if -2**63 <= (nid := int(text)) < 2**63:
        return nid
    raise HetlinkError(f"{path}:{lineno}: node id {text} out of range")


def load_nodes_tsv(path) -> dict[int, tuple]:
    """The (id, type, name, synonyms) row of each line of the node list
    file, by line number."""
    rows = {}
    for lineno, parts in _tsv_rows(path):
        if len(parts) not in (3, 4):
            raise HetlinkError(f"{path}:{lineno}: expected 3 or 4 columns")
        nid = _node_id(parts[0], path, lineno, "node id")
        synonyms = tuple(s for s in (parts[3].split("|") if len(parts) > 3 else []) if s)
        rows[lineno] = (nid, parts[1], parts[2], synonyms)
    return rows


def load_edges_tsv(path) -> dict[int, Edge]:
    """The edge of each line of the edge list file, by line number."""
    rows = {}
    for lineno, parts in _tsv_rows(path):
        if len(parts) != 3:
            raise HetlinkError(f"{path}:{lineno}: expected src<TAB>dst<TAB>type")
        rows[lineno] = Edge(*(_node_id(end, path, lineno, "endpoint id") for end in parts[:2]),
                            parts[2])
        if parts[2] == SELF_EDGE_TYPE:
            raise HetlinkError(f"{path}:{lineno}: edge type {SELF_EDGE_TYPE!r} "
                               f"is reserved for query graphs")
    return rows


def load_graph(nodes_path, edges_path) -> HeteroGraph:
    """The graph of the node and edge list files.  A row that the HeteroGraph
    constructor rejects ends in HetlinkError "<path>:<line>: <rule broken>"."""
    nodes, edges = load_nodes_tsv(nodes_path), load_edges_tsv(edges_path)
    try:
        return HeteroGraph.from_rows(nodes.values(), edges.values())
    except GraphRowError as exc:
        part, index = exc.row
        path, rows = (nodes_path, nodes) if part == "nodes" else (edges_path, edges)
        raise HetlinkError(f"{path}:{list(rows)[index]}: {exc}") from None


def text_column(strings, name: str, path) -> np.ndarray:
    """The sequence `strings` as the text column `name` of the .npz file
    `path`: their UTF-8 bytes, one a line, uint8.  HetlinkError for a string
    with a line break."""
    text = "\n".join(strings)
    if text.count("\n") >= max(len(strings), 1):
        raise HetlinkError(f"{path}: a {name!r} string holds a line break")
    return np.frombuffer(text.encode("utf-8"), dtype=np.uint8)


def column_lines(arrays: dict[str, np.ndarray], name: str, count: int, path) -> list[str]:
    """The `count` lines of text column `name` among the arrays of the .npz
    file `path`; HetlinkError "<path>: <what is wrong>" for text that is not
    UTF-8 or holds another number of lines."""
    try:
        text = arrays[name].tobytes().decode("utf-8")
    except UnicodeDecodeError:
        raise HetlinkError(f"{path}: {name!r} is not UTF-8 text") from None
    lines = text.split("\n") if text or count else []
    if len(lines) != count:
        raise HetlinkError(f"{path}: {name!r} holds {len(lines)} lines, not {count}")
    return lines


def graph_columns(graph: HeteroGraph, path) -> dict[str, np.ndarray]:
    """The node and edge lists' columns of `graph` for the .npz file `path`,
    nodes in node-id order and edges in theirs: int64 `ids`, `src` and `dst`,
    and the text columns `types`, `names`, `synonyms` (a node's one line
    joined by "|") and `edge_types`.  HetlinkError for a type with a line break."""
    ids, types, names, synonyms = graph.node_columns()
    src, dst, codes, edge_types = graph.edge_columns()
    texts = {"types": types, "names": names, "synonyms": list(map("|".join, synonyms)),
             "edge_types": [edge_types[k] for k in codes.tolist()]}
    return {"ids": ids, "src": ids[src], "dst": ids[dst],
            **{name: text_column(strings, name, path) for name, strings in texts.items()}}


def graph_from_columns(arrays: dict[str, np.ndarray], path) -> HeteroGraph:
    """The graph of graph_columns' arrays, read from the .npz file `path`
    with their dtypes and dimensions checked.  Arrays that graph_columns could
    not have written, and a row that the HeteroGraph constructor rejects, end
    in HetlinkError "<path>: <what is wrong>", naming the node or edge row."""
    if len(arrays["dst"]) != len(arrays["src"]):
        raise HetlinkError(f"{path}: 'dst' has {len(arrays['dst'])} rows, "
                           f"'src' {len(arrays['src'])}")
    # one str object per distinct type, not one per line: a 10x load peaks 1.7 MB lower
    types, edge_types = (list(map(sys.intern, column_lines(arrays, name, len(arrays[key]), path)))
                         for name, key in (("types", "ids"), ("edge_types", "src")))
    if SELF_EDGE_TYPE in edge_types:
        raise HetlinkError(f"{path}: edge row {edge_types.index(SELF_EDGE_TYPE)}: edge type "
                           f"{SELF_EDGE_TYPE!r} is reserved for query graphs")
    names, synonyms = (column_lines(arrays, name, len(arrays["ids"]), path)
                       for name in ("names", "synonyms"))
    try:
        return HeteroGraph((arrays["ids"], types, names,
                            [line.split("|") if line else () for line in synonyms]),
                           (arrays["src"], arrays["dst"], edge_types))
    except GraphRowError as exc:
        part, row = exc.row
        raise HetlinkError(f"{path}: {part[:-1]} row {row}: {exc}") from None


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
