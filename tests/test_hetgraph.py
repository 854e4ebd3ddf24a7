import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetlink.hetgraph import (GraphError, HeteroGraph, InvertedIndex, Metapath,
                              SELF_EDGE_TYPE, build_inverted_index,
                              default_acronym_rule, load_graph,
                              normalize, save_graph, tokenize)
from conftest import random_hetero_graph


def test_normalize_casefolds_and_strips_punctuation():
    assert normalize("Acute  Renal-Failure!") == "acute renal failure"
    assert tokenize("Aspirin, 100mg") == ["aspirin", "100mg"]


def test_add_node_assigns_dense_ids():
    g = HeteroGraph()
    assert g.add_node("Drug", "a") == 0
    assert g.add_node("Drug", "b") == 1
    assert g.node(1).surface == "b"


def test_edge_requires_known_endpoints():
    g = HeteroGraph()
    g.add_node("Drug", "a")
    with pytest.raises(GraphError):
        g.add_edge(0, 5, "TREAT")


def test_freeze_adds_self_loop_schema_and_is_idempotent(toy_kb):
    assert toy_kb.frozen
    assert ("Drug", SELF_EDGE_TYPE, "Drug") in toy_kb.schema.triples
    before = len(toy_kb.edges)
    toy_kb.freeze()
    assert len(toy_kb.edges) == before


def test_mutation_after_freeze_fails(toy_kb):
    with pytest.raises(GraphError):
        toy_kb.add_node("Drug", "late")


def test_neighborhoods_need_a_frozen_graph():
    g = HeteroGraph()
    a, b = g.add_node("Drug", "a"), g.add_node("AdverseEffect", "b")
    g.add_edge(a, b, "CAUSE")
    for query in (lambda: g.out_neighbors(a, "CAUSE"),
                  lambda: g.neighbors_by_relation(a, "CAUSE")):
        with pytest.raises(GraphError, match="frozen"):
            query()
    g.freeze()
    assert g.out_neighbors(a, "CAUSE") == [b]


def test_neighbors_rejects_an_unfrozen_graph_and_an_unknown_id():
    g = HeteroGraph()
    a, b = g.add_node("Drug", "a"), g.add_node("AdverseEffect", "b")
    g.add_edge(a, b, "CAUSE")
    with pytest.raises(GraphError, match="frozen"):
        g.neighbors(a)
    g.freeze()
    assert g.neighbors(a) == {b}
    lone = HeteroGraph()
    lone.add_node("Drug", "c")
    lone.freeze()
    assert lone.neighbors(0) == set()
    with pytest.raises(GraphError, match="unknown node 999"):
        lone.neighbors(999)


def test_neighbors_by_relation_ignores_direction(toy_kb):
    nausea = toy_kb.ids["nausea"]
    assert toy_kb.ids["Aspirin"] in toy_kb.neighbors_by_relation(nausea, "CAUSE")
    assert toy_kb.ids["acute renal failure"] in \
        toy_kb.neighbors_by_relation(nausea, "INDICATE")


def test_schema_connecting(toy_kb):
    triples = toy_kb.schema.connecting("Drug", "AdverseEffect")
    assert ("Drug", "CAUSE", "AdverseEffect") in triples


def test_metapath_parse_roundtrip():
    p = Metapath.parse("Drug-CAUSE-AdverseEffect-INDICATE-Finding")
    assert p.node_types == ("Drug", "AdverseEffect", "Finding")
    assert p.edge_types == ("CAUSE", "INDICATE")
    assert Metapath.parse(p.label()) == p


def test_metapath_rejects_malformed():
    with pytest.raises(GraphError):
        Metapath.parse("Drug-CAUSE")


def test_metapath_instances_toy(toy_kb, daf_metapath):
    fever = toy_kb.ids["Fever"]
    inst = toy_kb.metapath_instances(fever, daf_metapath, anchor="end")
    assert inst == [(toy_kb.ids["Metformin"], toy_kb.ids["Diarrhea"], fever)]


def _brute_force_instances(graph, path, target):
    """Oracle: enumerate every node sequence and filter by type/edge pattern."""
    results = []

    def ok_edge(u, v, etype):
        return v in graph.out_neighbors(u, etype)

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
        triples = sorted(t for t in g.schema.triples if t[1] != SELF_EDGE_TYPE)
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
    g = HeteroGraph()
    g.add_node("Finding", "acute renal failure", synonyms=("kidney failure",))
    g.freeze()
    idx = build_inverted_index(g)
    assert idx.lookup("Acute Renal Failure") == {0}
    assert idx.lookup("kidney failure") == {0}
    assert idx.lookup("arf") == {0}          # initials
    assert idx.lookup("unrelated") == set()


def test_acronym_rule_needs_two_tokens():
    assert default_acronym_rule(("fever",)) == []
    assert default_acronym_rule(("acute", "renal", "failure")) == ["arf"]


def test_index_merges_colliding_keys():
    g = HeteroGraph()
    g.add_node("Finding", "acute renal failure")
    g.add_node("Finding", "acute respiratory failure")
    g.freeze()
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
    bad.write_text("0\tDrug\taspirin\t\t\n1\tDrug\n")
    with pytest.raises(GraphError, match=":2:"):
        load_graph(bad, None)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_metapath_instances_deterministic_and_typed(seed):
    rng = np.random.default_rng(seed)
    g = random_hetero_graph(rng, n_nodes=12)
    triples = sorted(t for t in g.schema.triples if t[1] != SELF_EDGE_TYPE)
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
    added = [(7, "Drug"), (2, "Finding"), (11, "Drug"), (0, "Symptom"), (5, "Finding")]
    g = HeteroGraph()
    for nid, ntype in added:
        g.add_node(ntype, f"node {nid}", node_id=nid)

    def expected():
        by_type = {t: sorted(n for n, nt in added if nt == t) for _, t in added}
        return sorted(n for n, _ in added), by_type

    # an unfrozen graph sees nodes added after an earlier call
    ids, by_type = expected()
    assert g.node_ids == ids
    assert g.nodes_of_type("Drug") == by_type["Drug"]
    added.append((3, "Drug"))
    g.add_node("Drug", "node 3", node_id=3)
    ids, by_type = expected()
    assert g.node_ids == ids
    assert g.nodes_of_type("Drug") == by_type["Drug"]

    g.freeze()
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
    g = HeteroGraph()
    for nid, ntype in [(7, "Drug"), (2, "Finding"), (11, "Drug"), (0, "Symptom")]:
        g.add_node(ntype, f"node {nid}", node_id=nid)
    with pytest.raises(GraphError):
        g.id_array
    with pytest.raises(GraphError):
        g.ids_of_type("Drug")
    g.freeze()
    arrays = {None: g.id_array, "NoSuchType": g.ids_of_type("NoSuchType")}
    arrays.update({t: g.ids_of_type(t) for t in g.node_types})
    for t, a in arrays.items():
        assert a.dtype == np.int64 and not a.flags.writeable
        assert a.tolist() == (g.node_ids if t is None else g.nodes_of_type(t))
        with pytest.raises(ValueError):
            a[...] = 0
    assert g.ids_of_type("Drug").tolist() == [7, 11]
    assert g.ids_of_type("NoSuchType").shape == (0,)
    assert HeteroGraph().freeze().id_array.shape == (0,)


def test_rows_follow_node_ids_order_on_sparse_ids():
    # ids as an ingested TSV may carry them: gaps, added out of order
    g = HeteroGraph()
    for nid in (40, 7, 123, 0, 9):
        g.add_node("Drug", f"node {nid}", node_id=nid)
    with pytest.raises(GraphError):
        g.rows([7])
    g.freeze()
    rows = g.rows([123, 0, 9, 9, 40])
    assert rows.dtype == np.int64
    assert rows.tolist() == [g.node_ids.index(n) for n in (123, 0, 9, 9, 40)]
    assert g.rows(g.node_ids).tolist() == list(range(len(g)))
    assert g.rows([]).shape == (0,)
    for unknown in (8, -1, 124):     # between, below and above the ids
        with pytest.raises(GraphError, match=f"unknown node {unknown}"):
            g.rows([7, unknown])
    with pytest.raises(GraphError):
        HeteroGraph().freeze().rows([0])


def test_row_selector_is_a_span_slice_or_the_gapped_rows_of_a_frozen_id_array():
    g = HeteroGraph()
    for nid, ntype in [(9, "Drug"), (2, "Finding"), (7, "Drug"), (0, "Symptom"), (4, "Drug")]:
        g.add_node(ntype, f"node {nid}", node_id=nid)
    with pytest.raises(GraphError):
        g.row_selector(np.array([7]))
    g.freeze()
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

    g = HeteroGraph()
    for nid, ntype in enumerate(["Drug", "Finding", "Drug", "Finding", "Finding"]):
        g.add_node(ntype, f"node {nid}", node_id=nid)
    g.freeze()
    rows = g.row_selector(g.ids_of_type("Finding"))
    assert rows.dtype == np.int64 and rows.flags.writeable
    assert rows.tolist() == [1, 3, 4]
    assert g.row_selector(g.ids_of_type("Drug")).tolist() == [0, 2]
