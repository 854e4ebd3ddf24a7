import contextlib
import gc
import io
import os
import re
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetlink import hetgraph
from hetlink.cli import main, read_bundle, write_bundle
from hetlink.encoders import _relation_adjacency
from hetlink.evalgen import DEFAULT_NODE_COUNTS, SynthConfig, generate_synthetic_kb
from hetlink.hetgraph import (Edge, GraphRowError, HeteroGraph, HetlinkError, InvertedIndex,
                              Metapath, Node, SELF_EDGE_TYPE, build_inverted_index, graph_columns,
                              graph_from_columns, load_edges_tsv, load_graph, load_nodes_tsv,
                              normalize, tokenize)
from hetlink.querygraph import GoldMentionExtractor, augment_query_graph
from hetlink.termembed import random_word_vectors
from conftest import (index_entries_oracle, neighbors_oracle, random_hetero_graph, save_graph,
                      token_ids_oracle, token_frequencies_oracle)


def test_normalize_casefolds_and_strips_punctuation():
    assert normalize("Acute  Renal-Failure!") == "acute renal failure"
    assert tokenize("Aspirin, 100mg") == ["aspirin", "100mg"]


# already-normal text, near misses of it, and any text at all
_TEXT = st.one_of(st.text(alphabet="az09_ ", max_size=12),
                  st.text(alphabet="aZ9_ \t\n.-é\u0301\u00a0", max_size=12),
                  st.text(max_size=12))


@given(_TEXT)
@settings(max_examples=300, deadline=None)
def test_tokenize_splits_what_normalize_returns(text):
    assert tokenize(text) == normalize(text).split()


def _graph(nodes, edges=()):
    """A graph of (id, type, name) nodes without synonyms."""
    return HeteroGraph.from_rows([(nid, ntype, name, ()) for nid, ntype, name in nodes],
                                 edges)


def test_edge_requires_known_endpoints():
    with pytest.raises(HetlinkError):
        _graph([(0, "Drug", "a")], [(0, 5, "TREAT")])


@pytest.mark.parametrize("nodes, edges, error", [
    ([(0, "", "a")], [], "empty node type"),
    ([(0, "Drug", "--")], [], "node name must have at least one token"),
    ([(0, "Drug", "")], [], "node name must have at least one token"),
    ([(3, "Drug", "a"), (3, "Finding", "b")], [], "duplicate node id 3"),
    ([(0, "Drug", "a")], [(0, 1, "CAUSE")], "edge (0, 1, CAUSE) references unknown node"),
    ([(0, "Drug", "a")], [(0, 0, "")], "empty edge type"),
    ([(0, "Drug", "a")], [(0, 0, "R"), (0, 0, "R")], "duplicate edge (0, 0, 'R')"),
])
def test_constructor_raises_the_node_and_edge_rule_texts(nodes, edges, error):
    with pytest.raises(HetlinkError) as exc:
        _graph(nodes, edges)
    assert str(exc.value) == error
    # each case breaks a rule on its last row, which the error names
    assert exc.value.row == (("edges", len(edges) - 1) if edges else ("nodes", len(nodes) - 1))


def _per_row_constructor(nodes, edges):
    """The per-row loops that the constructor's column operations replaced:
    the (message, row) of the first row that breaks a rule, or None and the
    out-neighbors by (id, relation), the schema triples and the ids of each
    type."""
    types, present, out = {}, set(), {}
    for i, (nid, ntype, name, _) in enumerate(nodes):
        if not ntype:
            return ("empty node type", ("nodes", i)), None
        if not tokenize(name):
            return ("node name must have at least one token", ("nodes", i)), None
        if nid in types:
            return (f"duplicate node id {nid}", ("nodes", i)), None
        types[nid] = ntype
    for i, (src, dst, etype) in enumerate(edges):
        if src not in types or dst not in types:
            return (f"edge ({src}, {dst}, {etype}) references unknown node", ("edges", i)), None
        if not etype:
            return ("empty edge type", ("edges", i)), None
        if (src, dst, etype) in present:
            return (f"duplicate edge {(src, dst, etype)}", ("edges", i)), None
        present.add((src, dst, etype))
        out.setdefault((src, etype), []).append(dst)
    schema = {(types[src], etype, types[dst]) for src, dst, etype in present
              if etype != SELF_EDGE_TYPE}
    by_type = {t: sorted(nid for nid in types if types[nid] == t) for t in set(types.values())}
    return None, ({key: sorted(ids) for key, ids in out.items()}, schema, by_type)


@settings(max_examples=300, deadline=None)
@given(nodes=st.lists(st.tuples(st.integers(0, 6), st.sampled_from(["Drug", "Finding", "Drug", ""]),
                                st.sampled_from(["a", "b c", "a", "?!"]), st.just(())),
                      max_size=6),
       edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                                st.sampled_from(["R", "S", SELF_EDGE_TYPE, ""])), max_size=10))
def test_constructor_checks_and_builds_as_the_per_row_loops_do(nodes, edges):
    error, built = _per_row_constructor(nodes, edges)
    try:
        g = HeteroGraph.from_rows(nodes, edges)
    except GraphRowError as exc:
        assert (str(exc), exc.row) == error
        return
    assert error is None
    out, schema, by_type = built
    assert g.schema.triples == schema
    assert {t: g.nodes_of_type(t) for t in g.node_types} == by_type
    codes = list(dict.fromkeys(r for _, _, r in edges))     # edge types by first appearance
    for v in g.node_ids:
        assert g.out_edges(v) == [(dst, r) for r in codes for dst in out.get((v, r), [])]
        for r in ("R", "S", SELF_EDGE_TYPE):
            assert g.neighbors_by_relation(v, r) == set(out.get((v, r), [])) | {
                src for (src, rel), dsts in out.items() if rel == r and v in dsts}


def test_constructor_keeps_rows_and_edges_in_the_order_given():
    g = HeteroGraph.from_rows([(5, "Drug", "Acute  Failure", ["kidney-failure"]),
                               (1, "Finding", "x y", ())],
                              [(5, 1, "CAUSE"), (1, 5, "ASSOC"), (5, 5, "SELF")])
    assert g.node_ids == [1, 5]
    assert g.node(5) == Node(5, "Drug", ("acute", "failure"), (("kidney", "failure"),))
    assert g.node(1).name == ("x", "y")
    assert g.edges == [(5, 1, "CAUSE"), (1, 5, "ASSOC"), (5, 5, "SELF")]
    assert all(type(e) is Edge for e in g.edges)


def test_schema_leaves_out_self_loop_edges():
    g = _graph([(0, "Drug", "a"), (1, "AdverseEffect", "b")],
               [(0, 1, "CAUSE"), (0, 0, SELF_EDGE_TYPE), (1, 1, SELF_EDGE_TYPE)])
    assert g.schema.triples == {("Drug", "CAUSE", "AdverseEffect")}


def test_neighbors_rejects_an_unknown_id():
    g = _graph([(0, "Drug", "a"), (1, "AdverseEffect", "b")], [(0, 1, "CAUSE")])
    assert g.neighbors(0) == {1}
    assert g.out_edges(0) == [(1, "CAUSE")]
    lone = _graph([(0, "Drug", "c")])
    assert lone.neighbors(0) == set()
    with pytest.raises(HetlinkError, match="unknown node 999"):
        lone.neighbors(999)


@pytest.mark.parametrize("seed", range(6))
def test_neighbors_read_one_kept_adjacency_as_the_per_relation_union(seed):
    base = random_hetero_graph(np.random.default_rng(seed), n_nodes=25)
    # ids that are not rows; a self-loop, a pair linked both ways (by one
    # relation and by two) and a pair linked by two relations
    edges = {(10 * s + 7, 10 * d + 7, r) for s, d, r in base.edges}
    edges |= {(37, 37, "R0"), (47, 97, "R1"), (97, 47, "R1"), (97, 47, "R2"), (57, 67, "R0"),
              (57, 67, "R1")}
    g = HeteroGraph.from_rows([(10 * n.id + 7, n.type, n.surface, ()) for n in base.nodes()],
                              sorted(edges))
    assert "R9" not in g.edge_types
    relations = (None, *sorted(g.edge_types), "R9")
    # first use from four threads at once: each gets the one table kept
    start, got = threading.Barrier(4), [None] * 4

    def first_use(i):
        start.wait()
        got[i] = list(map(g.adjacency, relations))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=first_use, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for relation, *tables in zip(relations, *got):
        table = bounds, cols = g.adjacency(relation)
        assert all(t is table for t in tables) and g.adjacency(relation) is table
        assert not bounds.flags.writeable and not cols.flags.writeable
        assert len(bounds) == len(g) + 1
        for v in g.node_ids:
            row = int(g.rows([v])[0])
            walked = neighbors_oracle(g, v, relation)
            assert cols[bounds[row]:bounds[row + 1]].tolist() == g.rows(sorted(walked)).tolist()
            assert g.neighbors_by_relation(v, relation) == walked
    assert g.adjacency("R9")[1].size == 0 and not g.adjacency("R9")[0].any()
    assert [a.tolist() for a in _graph([(0, "Drug", "c")]).adjacency(None)] == [[0, 0], []]
    for v in g.node_ids:
        assert g.neighbors(v) == set().union(*(g.neighbors_by_relation(v, r)
                                               for r in g.edge_types))
    assert 37 in g.neighbors(37) and g.neighbors(57) >= {67}
    for graph in (g, _graph([(0, "Drug", "c")])):
        with pytest.raises(HetlinkError, match="unknown node 999"):
            graph.neighbors(999)
        with pytest.raises(HetlinkError, match="unknown node 999"):
            neighbors_oracle(graph, 999)


def test_neighbors_by_relation_ignores_direction(toy_kb):
    nausea = toy_kb.ids["nausea"]
    assert toy_kb.ids["Aspirin"] in toy_kb.neighbors_by_relation(nausea, "CAUSE")
    assert toy_kb.ids["acute renal failure"] in \
        toy_kb.neighbors_by_relation(nausea, "INDICATE")


def test_metapath_parse_roundtrip():
    p = Metapath.parse("Drug-CAUSE-AdverseEffect-INDICATE-Finding")
    assert p.node_types == ("Drug", "AdverseEffect", "Finding")
    assert p.edge_types == ("CAUSE", "INDICATE")
    assert Metapath.parse(p.label()) == p


def test_metapath_rejects_malformed():
    with pytest.raises(HetlinkError):
        Metapath.parse("Drug-CAUSE")


# a type a metapath label carries: no '-', no leading or trailing whitespace
_LABEL_TYPES = st.text(min_size=1, max_size=6).filter(lambda t: "-" not in t and t == t.strip())


@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(_LABEL_TYPES, min_size=n + 1, max_size=n + 1),
    st.lists(_LABEL_TYPES, min_size=n, max_size=n))))
def test_a_metapath_label_parses_back_to_the_metapath(types):
    p = Metapath(*map(tuple, types))
    assert Metapath.parse(p.label()) == p


@pytest.mark.parametrize("node_types, edge_types, bad", [
    (("Drug", "Adverse-Effect"), ("CAUSE",), "Adverse-Effect"),
    (("Drug", "AdverseEffect"), ("MAY-CAUSE",), "MAY-CAUSE"),
    (("Drug ", "AdverseEffect"), ("CAUSE",), "Drug "),
    (("Drug", "AdverseEffect"), ("\tCAUSE",), "\tCAUSE")])
def test_metapath_refuses_a_type_its_label_cannot_carry(node_types, edge_types, bad):
    with pytest.raises(HetlinkError) as exc:
        Metapath(node_types, edge_types)
    assert str(exc.value) == (f"metapath type {bad!r} holds '-' or leading or trailing "
                              f"whitespace, which a metapath label cannot carry")


def test_metapath_instances_toy(toy_kb, daf_metapath):
    fever = toy_kb.ids["Fever"]
    inst = toy_kb.metapath_instances(fever, daf_metapath, anchor="end")
    assert inst == [(toy_kb.ids["Metformin"], toy_kb.ids["Diarrhea"], fever)]


def _brute_force_instances(graph, path, target):
    """Oracle: enumerate every node sequence and filter by type/edge pattern."""
    results = []
    present = set(graph.edges)

    def ok_edge(u, v, etype):
        return (u, v, etype) in present

    def extend(seq):
        pos = len(seq)
        if pos == len(path.node_types):
            if seq[-1] == target:
                results.append(tuple(seq))
            return
        for node in graph.node_ids:
            if graph.node(node).type != path.node_types[pos]:
                continue
            if seq and not ok_edge(seq[-1], node, path.edge_types[pos - 1]):
                continue
            extend(seq + [node])

    extend([])
    return sorted(results)


def test_metapath_instances_match_brute_force_oracle():
    rng = np.random.default_rng(11)
    for trial in range(50):
        g = random_hetero_graph(rng, n_nodes=int(rng.integers(5, 20)))
        types = sorted(g.node_types)
        etypes = sorted(set(g.edge_types) - {SELF_EDGE_TYPE})
        if not etypes:
            continue
        # random walk over schema triples so the path is always valid
        triples = sorted(g.schema.triples)
        if not triples:
            continue
        length = int(rng.integers(1, 5))
        first = triples[int(rng.integers(len(triples)))]
        node_types, edge_types = [first[0], first[2]], [first[1]]
        for _ in range(length - 1):
            nxt = [t for t in triples if t[0] == node_types[-1]]
            if not nxt:
                break
            s, e, d = nxt[int(rng.integers(len(nxt)))]
            node_types.append(d)
            edge_types.append(e)
        path = Metapath(tuple(node_types), tuple(edge_types))
        for v in g.node_ids:
            if g.node(v).type != path.tail:
                continue
            assert g.metapath_instances(v, path, anchor="end") == \
                _brute_force_instances(g, path, v)


def test_metapath_neighbors_excludes_anchor(toy_kb, daf_metapath):
    fever = toy_kb.ids["Fever"]
    nbrs = toy_kb.metapath_neighbors(fever, daf_metapath)
    assert nbrs == {toy_kb.ids["Metformin"], toy_kb.ids["Diarrhea"]}


def test_inverted_index_covers_names_synonyms_acronyms():
    g = HeteroGraph.from_rows([(0, "Finding", "acute renal failure", ("kidney failure",))],
                              [])
    idx = build_inverted_index(g)
    assert idx.lookup("Acute Renal Failure") == {0}
    assert idx.lookup("kidney failure") == {0}
    assert idx.lookup("arf") == {0}          # initials
    assert idx.lookup("unrelated") == set()


def test_acronyms_index_a_name_of_two_or_more_tokens_under_its_initials():
    g = _graph([(0, "Finding", "fever"), (1, "Finding", "acute renal failure")])
    for acronyms, arf in ((True, {1}), (False, set())):
        idx = build_inverted_index(g, acronyms=acronyms)
        assert idx.lookup("f") == set()
        assert idx.lookup("arf") == arf
        assert idx.lookup("fever") == {0}


def _index_entries(graph, acronyms) -> dict:
    """build_inverted_index's keys, in its order, each with the set of its ids."""
    index = build_inverted_index(graph, acronyms=acronyms)
    return {key: frozenset(ids.tolist()) for key, ids in index._ids.items()}


def _index_oracle(graph, acronyms):
    """The index entries of the acronym rule function the `acronyms` flag
    replaced: a name's initials when it has two or more tokens and they
    give at least two letters."""
    entries = {}
    for node in graph.nodes():
        keys = [node.name, *node.synonyms]
        acro = "".join(t[0] for t in node.name if t)
        if acronyms and len(node.name) >= 2 and len(acro) >= 2:
            keys.append(tuple(tokenize(acro)))
        for key in filter(None, map(" ".join, keys)):
            entries.setdefault(key, set()).add(node.id)
    return {key: frozenset(ids) for key, ids in entries.items()}


@pytest.mark.parametrize("acronyms", [True, False])
def test_index_equals_the_acronym_rule_oracle(acronyms):
    graphs = [generate_synthetic_kb(SynthConfig(seed=seed, snippets=0)).kb for seed in (1, 2, 3)]
    # punctuated and non-ASCII names take normalize's path, not one match
    graphs.append(_graph([(0, "X", "a -"), (1, "X", "-b  C"), (2, "X", "Ängström café")]))
    for graph in graphs:
        want = _index_oracle(graph, acronyms)
        assert list(_index_entries(graph, acronyms).items()) == list(want.items())


def test_index_merges_colliding_keys():
    g = _graph([(0, "Finding", "acute renal failure"), (1, "Finding", "acute respiratory failure")])
    idx = build_inverted_index(g)
    assert idx.lookup("ARF") == {0, 1}


def test_tsv_roundtrip(tmp_path, toy_kb):
    nodes = tmp_path / "nodes.tsv"
    edges = tmp_path / "edges.tsv"
    save_graph(toy_kb, nodes, edges)
    back = load_graph(nodes, edges)
    assert len(back) == len(toy_kb)
    assert {(e.src, e.dst, e.type) for e in back.edges} == \
        {(e.src, e.dst, e.type) for e in toy_kb.edges}
    for nid in toy_kb.node_ids:
        assert back.node(nid).surface == toy_kb.node(nid).surface
        assert back.node(nid).type == toy_kb.node(nid).type


def test_malformed_tsv_reports_line_number(tmp_path):
    bad = tmp_path / "nodes.tsv"
    bad.write_text("0\tDrug\taspirin\t\n1\tDrug\n")
    with pytest.raises(HetlinkError, match=":2:"):
        load_graph(bad, None)


@pytest.mark.parametrize("line, synonyms", [
    ("0\tDrug\taspirin", ()), ("0\tDrug\taspirin\tASA|", (("asa",),)),
    ("0\tDrug\taspirin\t\t0.5,0.25", None), ("0\tDrug\taspirin\t\t", None)])
def test_a_node_line_holds_3_or_4_columns(tmp_path, line, synonyms):
    path, edges = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    path.write_text(line + "\n")
    edges.write_text("")
    if synonyms is None:
        with pytest.raises(HetlinkError, match=f"^{re.escape(str(path))}:1: expected 3 or 4 "
                                               f"columns$"):
            load_graph(path, edges)
    else:
        assert load_graph(path, edges).node(0).synonyms == synonyms


TOKENS = st.text(alphabet="abcdefgh0123", min_size=1, max_size=4)


@st.composite
def valid_graphs(draw):
    """A graph with sparse ids, multi-token names, synonyms and typed edges,
    self-loops included."""
    ids = draw(st.lists(st.integers(0, 10_000), min_size=1, max_size=10, unique=True))
    nodes = [(nid, draw(st.sampled_from(["Drug", "Finding", "Symptom"])),
              draw(st.lists(TOKENS, min_size=1, max_size=3).map(" ".join)),
              draw(st.lists(st.lists(TOKENS, min_size=1, max_size=2).map(" ".join), max_size=2)))
             for nid in ids]
    return HeteroGraph.from_rows(nodes, draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(ids),
                  st.sampled_from(["TREAT", "CAUSE", "ASSOC"])),
        unique=True, max_size=25)))


@settings(max_examples=60, deadline=None)
@given(g=valid_graphs())
def test_token_ids_maps_each_name_and_synonym_token_to_its_holders(g):
    holders = {}
    for nid in g.node_ids:
        node = g.node(nid)
        for tok in {*node.name, *(t for syn in node.synonyms for t in syn)}:
            holders.setdefault(tok, set()).add(nid)
    table = g.token_ids
    assert {tok: set(ids.tolist()) for tok, ids in table.items()} == holders
    for ids in table.values():
        assert ids.dtype == np.int64 and (np.diff(ids) > 0).all()
        assert not ids.flags.writeable
    assert g.token_ids is table         # built once, then kept with the graph


def _saved(graph, tmp):
    paths = os.path.join(tmp, "nodes.tsv"), os.path.join(tmp, "edges.tsv")
    save_graph(graph, *paths)
    return paths


def _assert_same_graph(back, g):
    """`back` is `g`: node rows, edge order, neighborhoods, schema, per-type
    ids, token map and relation adjacency, the arrays bit for bit."""
    assert back.nodes() == g.nodes()
    assert back.edges == g.edges
    assert back.schema == g.schema
    assert (back.node_types, back.edge_types) == (g.node_types, g.edge_types)
    for t in g.node_types:
        assert back.ids_of_type(t).tobytes() == g.ids_of_type(t).tobytes()
    for v in g.node_ids:
        assert back.neighbors(v) == g.neighbors(v)
        assert back.out_edges(v) == g.out_edges(v)
        for r in g.edge_types:
            assert back.neighbors_by_relation(v, r) == g.neighbors_by_relation(v, r)
    assert back.token_ids.keys() == g.token_ids.keys()
    for tok, ids in g.token_ids.items():
        assert back.token_ids[tok].tobytes() == ids.tobytes()
    for r in [None, *sorted(g.edge_types)]:
        got, want = _relation_adjacency(back, r).matrix, _relation_adjacency(g, r).matrix
        for part in ("data", "indices", "indptr"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes()


@settings(max_examples=60, deadline=None)
@given(g=valid_graphs())
def test_a_valid_graph_survives_save_and_load(g):
    with tempfile.TemporaryDirectory() as tmp:
        nodes_path, edges_path = _saved(g, tmp)
        assert len(load_nodes_tsv(nodes_path)) == len(g)
        assert list(load_edges_tsv(edges_path).values()) == g.edges
        back = load_graph(nodes_path, edges_path)
    _assert_same_graph(back, g)
    _assert_same_graph(graph_from_columns(graph_columns(g, "g.npz"), "g.npz"), g)


@pytest.mark.parametrize("seed, scale", [(1, 1), (2, 1), (3, 1), (1, 10)])
def test_a_bundle_gives_back_the_generators_graph_and_ingest_builds_the_same(tmp_path, seed,
                                                                            scale):
    corpus = generate_synthetic_kb(SynthConfig.from_dict(
        {"node_counts": {t: scale * n for t, n in DEFAULT_NODE_COUNTS.items()},
         "seed": seed, "snippets": 0}))
    write_bundle(tmp_path, corpus.kb, corpus.store)
    back = read_bundle(tmp_path)[0]
    _assert_same_graph(back, corpus.kb)
    save_graph(corpus.kb, tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
    _assert_same_graph(load_graph(tmp_path / "nodes.tsv", tmp_path / "edges.tsv"), back)


def test_a_bundle_keeps_synonyms_and_non_ascii_names(tmp_path):
    kb = HeteroGraph.from_rows([(7, "Drug", "Ängström café", ["naïve  bayes", "x"]),
                                (2, "Finding", "déjà vu", ()),
                                (40, "Finding", "fever", ("fièvre",))],
                               [(7, 2, "CAUSE"), (2, 40, "INDICATE"), (40, 7, "CAUSE")])
    write_bundle(tmp_path, kb, random_word_vectors({"fever"}, 2))
    back = read_bundle(tmp_path)[0]
    _assert_same_graph(back, kb)
    assert back.node(7).name == ("ängström", "café")
    assert back.node(7).synonyms == (("naïve", "bayes"), ("x",))


# KBs whose bundle is checked against their node and edge list files
LISTED_KBS = {
    "gen-synth seed 1": lambda: generate_synthetic_kb(SynthConfig(seed=1, snippets=0)).kb,
    # 0, 1 and 3 synonyms; non-ASCII names and types
    "odd": lambda: HeteroGraph.from_rows(
        [(7, "Drug", "Ängström café", ["naïve  bayes", "x", "déjà vu"]),
         (2, "Befund", "déjà vu", ()), (40, "Befund", "fever", ("fièvre",))],
        [(7, 2, "CAUSE"), (40, 7, "CAUSE"), (2, 40, "INDICATE")]),
    "no edges": lambda: HeteroGraph.from_rows([(3, "Drug", "aspirin", ("asa",))], []),
}


@pytest.mark.parametrize("kb", LISTED_KBS)
def test_kb_npz_holds_the_columns_of_the_node_and_edge_lists(tmp_path, kb):
    """Each of kb.npz's graph text columns is the UTF-8 of a list file's column, one
    row a line: a node's synonyms are the node list's "|"-joined field."""
    kb = LISTED_KBS[kb]()
    write_bundle(tmp_path, kb, random_word_vectors({"fever"}, 2))
    save_graph(kb, tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
    with np.load(tmp_path / "kb.npz") as npz:
        arrays = {name: npz[name] for name in npz.files}
    for name, columns in (("nodes.tsv", {"ids": 0, "types": 1, "names": 2, "synonyms": 3}),
                          ("edges.tsv", {"src": 0, "dst": 1, "edge_types": 2})):
        rows = [line.split("\t")
                for line in (tmp_path / name).read_bytes().decode("utf-8").split("\n")[:-1]]
        assert len(rows) == len(arrays["ids" if name == "nodes.tsv" else "src"])
        for column, field in columns.items():
            fields = [row[field] for row in rows]
            if arrays[column].dtype == np.int64:
                assert arrays[column].tolist() == list(map(int, fields))
            else:
                assert arrays[column].tobytes() == "\n".join(fields).encode("utf-8")


# rows a node or edge list file must not hold; {old} is a node id of the
# graph, {new} one it lacks
MALFORMED_ROWS = {
    "nodes.tsv": ["x\tDrug\ta", "{new}\tDrug", "{new}\t\ta", "{new}\tDrug\t!?",
                  "{old}\tDrug\ta", "{new}\tDrug\ta\t\t1.0,x", "{new}\tDrug\ta\t\tnan"],
    "edges.tsv": ["{old}\t{old}", "{old}\tx\tTREAT", "{old}\t{new}\tTREAT",
                  "{old}\t{old}\t", "{old}\t{old}\tTREAT\n{old}\t{old}\tTREAT"],
}


@settings(max_examples=60, deadline=None)
@given(g=valid_graphs(), data=st.data())
def test_a_malformed_row_ends_in_one_line_graph_error_and_cli_exit_1(g, data):
    name = data.draw(st.sampled_from(sorted(MALFORMED_ROWS)))
    row = data.draw(st.sampled_from(MALFORMED_ROWS[name])).format(
        old=data.draw(st.sampled_from(g.node_ids)), new=max(g.node_ids) + 1)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _saved(g, tmp)
        path = os.path.join(tmp, name)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines.insert(data.draw(st.integers(0, len(lines))), row)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(HetlinkError) as exc:
            load_graph(*paths)
        assert "\n" not in str(exc.value)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["ingest", "--nodes", paths[0], "--edges", paths[1],
                         "--out", os.path.join(tmp, "bundle")])
        assert (code, err.getvalue()) == (1, f"error: {exc.value}\n")
        assert not os.path.exists(os.path.join(tmp, "bundle"))


def test_constructor_and_load_graph_share_the_edge_rules(tmp_path):
    nodes = [(0, "Drug", "a"), (1, "Finding", "b")]
    g = _graph(nodes, [(0, 1, "CAUSE")])
    # the constructor names the row, and the loader its file and line
    for edge, error in [((0, 5, "CAUSE"), "edge (0, 5, CAUSE) references unknown node"),
                        ((0, 1, ""), "empty edge type"),
                        ((0, 1, "CAUSE"), "duplicate edge (0, 1, 'CAUSE')")]:
        with pytest.raises(HetlinkError) as exc:
            _graph(nodes, [*g.edges, edge])
        assert (str(exc.value), exc.value.row) == (error, ("edges", 1))
        nodes_path, edges_path = _saved(g, tmp_path)
        with open(edges_path, "a", encoding="utf-8") as fh:
            fh.write("\t".join(map(str, edge)) + "\n")
        with pytest.raises(HetlinkError) as exc:
            load_graph(nodes_path, edges_path)
        assert str(exc.value) == f"{edges_path}:2: {error}"


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_metapath_instances_deterministic_and_typed(seed):
    rng = np.random.default_rng(seed)
    g = random_hetero_graph(rng, n_nodes=12)
    triples = sorted(g.schema.triples)
    if not triples:
        return
    s, e, d = triples[int(rng.integers(len(triples)))]
    path = Metapath((s, d), (e,))
    for v in g.node_ids:
        if g.node(v).type != path.tail:
            continue
        inst = g.metapath_instances(v, path, anchor="end")
        assert inst == g.metapath_instances(v, path, anchor="end")
        for seq in inst:
            assert [g.node(n).type for n in seq] == list(path.node_types)
            assert seq[-1] == v


def test_frozen_id_accessors_match_uncached_and_return_copies():
    added = [(7, "Drug"), (2, "Finding"), (11, "Drug"), (0, "Symptom"), (5, "Finding"),
             (3, "Drug")]
    g = _graph([(nid, ntype, f"node {nid}") for nid, ntype in added])
    ids = sorted(n for n, _ in added)
    by_type = {t: sorted(n for n, nt in added if nt == t) for _, t in added}
    assert g.node_ids == ids
    assert g.node_ids.index(11) == len(ids) - 1
    for t, members in by_type.items():
        assert g.nodes_of_type(t) == members
    assert g.nodes_of_type("NoSuchType") == []
    assert [n.id for n in g.nodes()] == ids

    # mutating a returned list leaves the graph unchanged
    g.node_ids.append(99)
    got = g.node_ids
    got.reverse()
    g.nodes_of_type("Drug").clear()
    g.nodes_of_type("NoSuchType").append(1)
    assert g.node_ids == ids
    assert g.nodes_of_type("Drug") == by_type["Drug"]
    assert g.nodes_of_type("NoSuchType") == []


def test_frozen_id_arrays_are_read_only_int64_copies_of_the_lists():
    g = _graph([(nid, ntype, f"node {nid}")
                for nid, ntype in [(7, "Drug"), (2, "Finding"), (11, "Drug"), (0, "Symptom")]])
    arrays = {None: g.id_array, "NoSuchType": g.ids_of_type("NoSuchType")}
    arrays.update({t: g.ids_of_type(t) for t in g.node_types})
    for t, a in arrays.items():
        assert a.dtype == np.int64 and not a.flags.writeable
        assert a.tolist() == (g.node_ids if t is None else g.nodes_of_type(t))
        with pytest.raises(ValueError):
            a[...] = 0
    assert g.ids_of_type("Drug").tolist() == [7, 11]
    assert g.ids_of_type("NoSuchType").shape == (0,)
    assert HeteroGraph.from_rows([], []).id_array.shape == (0,)


def test_rows_follow_node_ids_order_on_sparse_ids():
    # ids as an ingested TSV may carry them: gaps, listed out of order
    g = _graph([(nid, "Drug", f"node {nid}") for nid in (40, 7, 123, 0, 9)])
    rows = g.rows([123, 0, 9, 9, 40])
    assert rows.dtype == np.int64
    assert rows.tolist() == [g.node_ids.index(n) for n in (123, 0, 9, 9, 40)]
    assert g.rows(g.node_ids).tolist() == list(range(len(g)))
    assert g.rows([]).shape == (0,)
    for unknown in (8, -1, 124):     # between, below and above the ids
        with pytest.raises(HetlinkError, match=f"unknown node {unknown}"):
            g.rows([7, unknown])
    with pytest.raises(HetlinkError):
        HeteroGraph.from_rows([], []).rows([0])


def test_row_selector_is_a_span_slice_or_the_gapped_rows_of_a_frozen_id_array():
    g = _graph([(nid, ntype, f"node {nid}") for nid, ntype in
                [(9, "Drug"), (2, "Finding"), (7, "Drug"), (0, "Symptom"), (4, "Drug")]])
    # rows: 0 Symptom, 2 Finding, 4 Drug, 7 Drug, 9 Drug
    assert g.row_selector(g.id_array) == slice(0, 5)
    assert g.row_selector(g.ids_of_type("Drug")) == slice(2, 5)
    assert g.row_selector(g.ids_of_type("Finding")) == slice(1, 2)
    table = np.arange(10.0).reshape(5, 2)
    for ids in [g.id_array, *(g.ids_of_type(t) for t in g.node_types),
                g.ids_of_type("Drug").copy(), g.id_array[::-1], g.ids_of_type("NoSuchType")]:
        np.testing.assert_array_equal(table[g.row_selector(ids)], table[g.rows(ids)])
    # an equal array that is not the graph's own is a run too
    assert g.row_selector(g.ids_of_type("Drug").copy()) == slice(2, 5)

    g = _graph([(nid, ntype, f"node {nid}") for nid, ntype in
                enumerate(["Drug", "Finding", "Drug", "Finding", "Finding"])])
    rows = g.row_selector(g.ids_of_type("Finding"))
    assert rows.dtype == np.int64 and rows.flags.writeable
    assert rows.tolist() == [1, 3, 4]
    assert g.row_selector(g.ids_of_type("Drug")).tolist() == [0, 2]


# -- state derived from the columns, against the per-node walks --------------

@pytest.mark.parametrize("acronyms", [True, False])
def test_column_built_index_equals_the_per_node_walk(oracle_kb, acronyms):
    kb, _ = oracle_kb
    want = index_entries_oracle(kb, acronyms)
    assert list(_index_entries(kb, acronyms).items()) == list(want.items())


def test_the_index_keeps_one_read_only_id_array_per_key_and_no_set():
    kb = generate_synthetic_kb(SynthConfig(seed=1, snippets=0)).kb
    build_inverted_index(kb)            # anything built once per process is built now
    gc.collect()
    before = len(gc.get_objects())
    index = build_inverted_index(kb)
    gc.collect()
    # the index object itself and little else: no container per key
    assert len(gc.get_objects()) - before <= 3
    assert isinstance(index, InvertedIndex) and len(index._ids) > 1000
    hit = index.lookup(kb.node_name(kb.node_ids[0]).upper())
    assert type(hit) is frozenset and kb.node_ids[0] in hit
    assert {type(nid) for nid in hit} == {int}
    assert index.lookup("no such name") == frozenset()
    for ids in [*index._ids.values(), *kb.token_ids.values()]:
        assert ids.dtype == np.int64 and not ids.flags.writeable


def test_column_built_token_map_and_frequencies_equal_the_per_node_walks(oracle_kb):
    kb, _ = oracle_kb
    table, want = kb.token_ids, token_ids_oracle(kb)
    assert list(table) == list(want)
    for tok, ids in want.items():
        assert table[tok].dtype == np.int64 and table[tok].tobytes() == ids.tobytes()
    freqs, want = kb.token_frequencies, token_frequencies_oracle(kb)
    assert list(freqs.items()) == list(want.items())


def test_the_token_map_and_frequencies_come_from_one_tokenization(monkeypatch):
    kb = HeteroGraph.from_rows([(4, "Drug", "aspirin tablet", ("ASA", "aspirin")),
                                (2, "Finding", "renal failure", ())], [])
    calls = []
    codes = hetgraph._codes
    monkeypatch.setattr(hetgraph, "_codes", lambda values: calls.append(1) or codes(values))
    freqs = kb.token_frequencies
    assert list(kb.token_ids) == list(freqs) == ["renal", "failure", "aspirin", "tablet", "asa"]
    assert len(calls) == 1
    assert kb.token_frequencies is freqs
    assert freqs == {"renal": 1 / 6, "failure": 1 / 6, "aspirin": 2 / 6, "tablet": 1 / 6,
                     "asa": 1 / 6}
    empty = HeteroGraph.from_rows([], [])
    assert empty.token_frequencies == {} and empty.token_ids == {}


# -- nodes built on demand ----------------------------------------------------

def _given_graphs(monkeypatch, build) -> list[tuple]:
    """(graph, node rows, edge rows) of each graph that build() makes, the
    rows read from the columns its constructor is given."""
    given = []
    init = HeteroGraph.__init__

    def keep_rows(self, nodes, edges):
        init(self, nodes, edges)
        given.append((self, list(zip(*nodes)), list(zip(*edges))))

    monkeypatch.setattr(HeteroGraph, "__init__", keep_rows)
    build()
    monkeypatch.undo()
    return given


def test_node_and_nodes_give_back_the_generators_rows_in_node_id_order(monkeypatch):
    [(kb, given, _)] = _given_graphs(
        monkeypatch, lambda: generate_synthetic_kb(SynthConfig(seed=2, snippets=0)))
    rows = sorted(given, key=lambda row: -row[0])       # hand them over in reverse
    rebuilt = HeteroGraph.from_rows(rows, kb.edges)
    want = [Node(nid, ntype, tuple(tokenize(name)), tuple(tuple(tokenize(s)) for s in syns))
            for nid, ntype, name, syns in sorted(given)]
    for graph in (kb, rebuilt):
        assert graph.nodes() == want
        assert [graph.node(node.id) for node in want] == want
        assert [type(node.id) for node in graph.nodes()] == [int] * len(want)
        assert graph.node_ids == [node.id for node in want]
        assert [graph.node_type(node.id) for node in want] == [node.type for node in want]
        assert [graph.node_name(node.id) for node in want] == [node.surface for node in want]
    assert kb.node(0) is not kb.node(0)            # built on each call


def _query_graphs_given(monkeypatch) -> list[tuple]:
    """(graph, node rows, edge rows) of each seed-1 query graph."""
    corpus = generate_synthetic_kb(SynthConfig(seed=1))
    index = build_inverted_index(corpus.kb)
    given = _given_graphs(monkeypatch, lambda: [
        augment_query_graph(corpus.kb, index, snippet, GoldMentionExtractor())
        for snippet in corpus.snippets])
    assert len(given) == len(corpus.snippets)
    return given


def _spread_kb_given(monkeypatch) -> list[tuple]:
    """(graph, node rows, edge rows) of the seed-1 KB again, its ids spread
    out and handed over in reverse."""
    kb = generate_synthetic_kb(SynthConfig(seed=1, snippets=0)).kb
    rng = np.random.default_rng(1)
    new_id = dict(zip(kb.node_ids, (rng.permutation(5 * len(kb))[:len(kb)]
                                    * 3 - 1000).tolist()))
    rows = [(new_id[n.id], n.type, n.surface, [" ".join(s) for s in n.synonyms])
            for n in reversed(kb.nodes())]
    edges = [(new_id[e.src], new_id[e.dst], e.type) for e in kb.edges]
    return [(HeteroGraph.from_rows(rows, edges), rows, edges)]


@pytest.mark.parametrize("graphs", [_query_graphs_given, _spread_kb_given],
                         ids=["seed-1 query graphs", "a KB with spread ids"])
def test_edges_and_typed_shape_read_back_the_rows_given(monkeypatch, graphs):
    for graph, nodes, edges in graphs(monkeypatch):
        assert graph.edges == [Edge(*e) for e in edges]
        assert all(type(e) is Edge and type(e.src) is type(e.dst) is int for e in graph.edges)
        ids = sorted(row[0] for row in nodes)
        row_of = dict(zip(ids, range(len(ids))))
        types = dict((row[0], row[1]) for row in nodes)
        assert graph.typed_shape() == (tuple(map(types.__getitem__, ids)),
                                       frozenset((row_of[s], row_of[d], t) for s, d, t in edges))


def test_node_columns_hold_the_normalized_rows_in_node_id_order():
    g = HeteroGraph.from_rows([(9, "Drug", "Acute, FAILURE", ("Kidney-failure", "?!")),
                               (3, "Finding", "fever", ())], [(9, 3, "CAUSE")])
    ids, types, names, synonyms = g.node_columns()
    assert ids.tolist() == [3, 9] and not ids.flags.writeable
    assert (types, names, synonyms) == (
        ("Finding", "Drug"), ("fever", "acute failure"), ((), ("kidney failure",)))


@pytest.mark.parametrize("call", ["node", "node_type", "node_name", "out_edges",
                                  "neighbors", "neighbors_by_relation"])
def test_an_unknown_id_ends_in_unknown_node(toy_kb, call):
    args = (999, "CAUSE") if call == "neighbors_by_relation" else (999,)
    with pytest.raises(HetlinkError) as exc:
        getattr(toy_kb, call)(*args)
    assert str(exc.value) == "unknown node 999"


def test_constructor_names_the_first_breaking_row_in_the_order_given(tmp_path):
    # row 1 breaks the second rule, row 2 the first and row 3 the last
    rows = [(5, "Drug", "a", ()), (1, "Drug", "?!", ()), (3, "", "c", ()), (1, "Drug", "d", ())]
    error = "node name must have at least one token"
    with pytest.raises(GraphRowError) as exc:
        HeteroGraph.from_rows(rows, [])
    assert (str(exc.value), exc.value.row) == (error, ("nodes", 1))
    nodes_path, edges_path = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    nodes_path.write_text("# id\ttype\tname\n5\tDrug\ta\n1\tDrug\t?!\n3\t\tc\n")
    edges_path.write_text("")
    with pytest.raises(HetlinkError) as exc:
        load_graph(nodes_path, edges_path)
    assert str(exc.value) == f"{nodes_path}:3: {error}"
