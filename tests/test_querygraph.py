"""Tests for mention extraction and query-graph construction/augmentation."""

import numpy as np
import pytest

from hetlink import HetlinkError, evalgen
from hetlink.hetgraph import (RELATED_EDGE_TYPE, SELF_EDGE_TYPE, HeteroGraph,
                              build_inverted_index)
from hetlink.querygraph import (
    GazetteerExtractor,
    GoldMentionExtractor,
    Mention,
    TextSnippet,
    augment_query_graph,
    extract_mentions,
    fully_connected_query_graph,
)


# ---------------------------------------------------------------------------
# snippets and mentions


def test_mention_span_must_match_text():
    with pytest.raises(HetlinkError, match="span"):
        TextSnippet("s", "Aspirin helps", (Mention("nausea", 0, 6),))
    with pytest.raises(HetlinkError, match="bounds"):
        TextSnippet("s", "short", (Mention("x", 4, 99),))


def test_snippet_json_roundtrip():
    snip = TextSnippet("s1", "Aspirin can cause nausea",
                       (Mention("Aspirin", 0, 7, category="Drug", link_id=3),
                        Mention("nausea", 18, 24)))
    again = TextSnippet.from_json(snip.to_json())
    assert again == snip


def test_snippet_from_json_defaults():
    snip = TextSnippet.from_json({"Text": "hello world"}, snippet_id="abc")
    assert snip.id == "abc"
    assert snip.mentions == ()


def test_snippet_refuses_overlapping_mentions():
    text = "with recurrent kanini"
    kanini, recurrent = Mention("kanini", 15, 21), Mention("recurrent kanini", 5, 21)
    with pytest.raises(HetlinkError) as exc:
        TextSnippet("s", text, (kanini, recurrent))
    assert str(exc.value) == "mentions 'recurrent kanini' and 'kanini' overlap"
    with pytest.raises(HetlinkError, match="overlap"):
        TextSnippet("s", text, (kanini, kanini))
    # touching spans do not overlap
    TextSnippet("s", text, (Mention("with", 0, 4), Mention("recurrent", 5, 14), kanini))


def test_empty_snippet_rejected():
    with pytest.raises(HetlinkError):
        TextSnippet("s", "")


# ---------------------------------------------------------------------------
# extractors


def test_gazetteer_finds_longest_match(toy_kb, toy_index):
    text = "patient developed acute renal failure and nausea"
    snip = TextSnippet("s", text)
    mentions = extract_mentions(snip, GazetteerExtractor(toy_index))
    surfaces = [m.surface for m in mentions]
    assert "acute renal failure" in surfaces      # not just "acute"
    assert "nausea" in surfaces


def test_gazetteer_flags_allcaps_unknowns(toy_index):
    snip = TextSnippet("s", "possible ARF or TB noted, grade A, X2")
    mentions = extract_mentions(snip, GazetteerExtractor(toy_index))
    surfaces = {m.surface for m in mentions}
    assert surfaces >= {"ARF", "TB"}
    assert not surfaces & {"A", "X2"}         # one letter; not alphabetic


def test_gold_extractor_returns_annotations(arf_snippet):
    mentions = extract_mentions(arf_snippet, GoldMentionExtractor())
    assert [m.surface for m in mentions] == [m.surface for m in sorted(
        arf_snippet.mentions, key=lambda m: m.start_offset)]


def test_extract_mentions_drops_overlaps():
    snip = TextSnippet("s", "acute renal failure")

    def extractor(s):
        return [Mention("acute", 0, 5), Mention("acute renal", 0, 11),
                Mention("failure", 12, 19)]

    out = extract_mentions(snip, extractor)
    assert [m.surface for m in out] == ["acute", "failure"]


def test_query_graph_puts_matched_mentions_before_unknown(toy_kb, toy_index):
    snip = TextSnippet("s", "XYZQ and nausea", (Mention("XYZQ", 0, 4), Mention("nausea", 9, 15)))
    qg = augment_query_graph(toy_kb, toy_index, snip, GoldMentionExtractor())
    assert [qg.mentions[nid].surface for nid in qg.graph.node_ids] == ["nausea", "XYZQ"]
    assert qg.matches == {0: frozenset({toy_kb.ids["nausea"]}), 1: frozenset()}
    assert qg.inferred_types == {0: ("AdverseEffect",), 1: ("Drug", "Finding")}
    assert qg.unknown_nodes == (1,)


# ---------------------------------------------------------------------------
# augmented query graphs


def test_arf_snippet_builds_five_mention_nodes(toy_kb, toy_index, arf_snippet):
    qg = augment_query_graph(toy_kb, toy_index, arf_snippet, GoldMentionExtractor())
    assert len(qg.graph) == 5
    # "ARF" resolves through the acronym rule to both acute-failure findings,
    # so it is an ambiguous match rather than an unknown mention.
    arf = qg.node_for_mention("ARF")
    assert qg.matches[arf] == frozenset({toy_kb.ids["acute renal failure"],
                                         toy_kb.ids["acute respiratory failure"]})
    assert qg.unknown_nodes == ()


def test_arf_snippet_transfers_cause_edge(toy_kb, toy_index, arf_snippet):
    qg = augment_query_graph(toy_kb, toy_index, arf_snippet, GoldMentionExtractor())
    u = qg.node_for_mention("Aspirin")
    v = qg.node_for_mention("nausea")
    assert any(e.src == u and e.dst == v and e.type == "CAUSE"
               for e in qg.graph.edges)


def test_arf_candidate_edges_transfer_from_kb(toy_kb, toy_index, arf_snippet):
    qg = augment_query_graph(toy_kb, toy_index, arf_snippet, GoldMentionExtractor())
    arf = qg.node_for_mention("ARF")
    assert qg.inferred_types[arf] == ("Finding",)
    nausea = qg.node_for_mention("nausea")
    # nausea INDICATE acute-renal-failure exists in the KB, so the pair gets
    # the transferred edge even though ARF itself is ambiguous.
    assert any({e.src, e.dst} == {arf, nausea} and e.type == "INDICATE"
               for e in qg.graph.edges)


def test_every_mention_node_has_self_loop(toy_kb, toy_index, arf_snippet):
    qg = augment_query_graph(toy_kb, toy_index, arf_snippet, GoldMentionExtractor())
    for nid in qg.mentions:
        assert any(e.src == nid and e.dst == nid and e.type == SELF_EDGE_TYPE
                   for e in qg.graph.edges)


def test_single_mention_snippet_gets_self_loop_only(toy_kb, toy_index):
    snip = TextSnippet("s", "history of nausea")
    qg = augment_query_graph(toy_kb, toy_index, snip, GazetteerExtractor(toy_index))
    assert len(qg.graph) == 1
    assert [e.type for e in qg.graph.edges] == [SELF_EDGE_TYPE]
    assert qg.unknown_nodes == ()


def test_mention_category_pins_unknown_type(toy_kb, toy_index):
    text = "UNKNOWNTHING after Aspirin"
    snip = TextSnippet("s", text,
                       (Mention("UNKNOWNTHING", 0, 12, category="AdverseEffect"),
                        Mention("Aspirin", 19, 26)))
    qg = augment_query_graph(toy_kb, toy_index, snip, GoldMentionExtractor())
    assert qg.inferred_types[qg.unknown_nodes[0]] == ("AdverseEffect",)


def test_schema_types_an_unknown_mention_without_a_category(toy_kb, toy_index):
    # every KB type the schema links with the matched Drug, sorted; the first
    # one types the node
    snip = TextSnippet("s", "Aspirin was stopped after XYZ")
    qg = augment_query_graph(toy_kb, toy_index, snip, GazetteerExtractor(toy_index))
    (xyz,) = qg.unknown_nodes
    assert qg.mentions[xyz].surface == "XYZ" and qg.mentions[xyz].category is None
    assert qg.inferred_types[xyz] == ("AdverseEffect", "Symptom")
    assert qg.graph.node(xyz).type == "AdverseEffect"


def test_schema_wires_an_unknown_mention_without_a_category(toy_kb, toy_index):
    # each KB triple from Drug to one of XYZ's inferred types gives an edge
    # from Aspirin to XYZ; no triple runs the other way
    snip = TextSnippet("s", "Aspirin was stopped after XYZ")
    qg = augment_query_graph(toy_kb, toy_index, snip, GazetteerExtractor(toy_index))
    aspirin, xyz = qg.node_for_mention("Aspirin"), qg.node_for_mention("XYZ")
    assert qg.graph.edges == [(aspirin, xyz, "CAUSE"), (aspirin, xyz, "TREAT"),
                              (aspirin, aspirin, SELF_EDGE_TYPE), (xyz, xyz, SELF_EDGE_TYPE)]


def test_query_features_use_surface_strings(toy_kb, toy_index, arf_snippet,
                                            toy_store, toy_freqs):
    qg = augment_query_graph(toy_kb, toy_index, arf_snippet, GoldMentionExtractor())
    feats = qg.features(toy_store, toy_freqs)
    assert feats.shape == (len(qg.graph), toy_store.dim)
    from hetlink.termembed import term_embedding

    arf = qg.node_for_mention("ARF")
    row = qg.graph.node_ids.index(arf)
    np.testing.assert_allclose(feats[row],
                               term_embedding("ARF", toy_store, toy_freqs))


def test_node_for_mention_unknown_surface_raises(toy_kb, toy_index, arf_snippet):
    qg = augment_query_graph(toy_kb, toy_index, arf_snippet, GoldMentionExtractor())
    with pytest.raises(HetlinkError):
        qg.node_for_mention("nonexistent")


# ---------------------------------------------------------------------------
# fully connected ablation


def test_fully_connected_builds_clique(toy_kb, toy_index, arf_snippet):
    qg = fully_connected_query_graph(toy_kb, toy_index, arf_snippet,
                                     GoldMentionExtractor())
    n = len(qg.graph)
    related = [e for e in qg.graph.edges if e.type == RELATED_EDGE_TYPE]
    self_loops = [e for e in qg.graph.edges if e.type == SELF_EDGE_TYPE]
    assert len(related) == n * (n - 1)
    assert len(self_loops) == n
    types = {e.type for e in qg.graph.edges}
    assert types == {RELATED_EDGE_TYPE, SELF_EDGE_TYPE}


def test_fully_connected_keeps_same_mentions(toy_kb, toy_index, arf_snippet):
    aug = augment_query_graph(toy_kb, toy_index, arf_snippet, GoldMentionExtractor())
    fc = fully_connected_query_graph(toy_kb, toy_index, arf_snippet,
                                     GoldMentionExtractor())
    assert {m.surface for m in aug.mentions.values()} == \
        {m.surface for m in fc.mentions.values()}
    assert len(fc.unknown_nodes) == len(aug.unknown_nodes)


# ---------------------------------------------------------------------------
# KB-edge transfer against the full edge scan


def _scanned_kb_edges(kb, qg):
    """The KB-edge transfer as a scan of every KB edge for every matched pair."""
    matched = [nid for nid in sorted(qg.mentions) if qg.matches[nid]]
    added = set()
    for i, u_q in enumerate(matched):
        for v_q in matched[i + 1:]:
            u_cands, v_cands = qg.matches[u_q], qg.matches[v_q]
            for e in kb.edges:
                if e.type == SELF_EDGE_TYPE:
                    continue
                if e.src in u_cands and e.dst in v_cands:
                    added.add((u_q, v_q, e.type))
                elif e.src in v_cands and e.dst in u_cands:
                    added.add((v_q, u_q, e.type))
    return added


def _transferred_kb_edges(qg):
    """Query-graph edges between two matched mentions: only the KB-edge
    transfer adds those (unknown-mention wiring always touches an unknown)."""
    return {(e.src, e.dst, e.type) for e in qg.graph.edges
            if e.src != e.dst and qg.matches[e.src] and qg.matches[e.dst]}


def _assert_walk_matches_scan(kb, snippets):
    multi_hit = 0
    for index in (build_inverted_index(kb), build_inverted_index(kb, acronyms=False)):
        for extractor in (GoldMentionExtractor(), GazetteerExtractor(index)):
            for snippet in snippets:
                qg = augment_query_graph(kb, index, snippet, extractor)
                assert _transferred_kb_edges(qg) == _scanned_kb_edges(kb, qg)
                multi_hit += any(len(c) > 1 for c in qg.matches.values())
    return multi_hit


def test_kb_edge_walk_matches_scan_on_toy_kb(toy_kb, arf_snippet):
    snippets = [arf_snippet,
                TextSnippet("t1", "Metformin causes Diarrhea with Fever"),
                TextSnippet("t2", "Aspirin for headache, then nausea and ARF")]
    assert _assert_walk_matches_scan(toy_kb, snippets) > 0   # "ARF" hits two nodes


def test_kb_edge_walk_matches_scan_on_synthetic_snippets():
    corpus = evalgen.generate_synthetic_kb(evalgen.SynthConfig(
        node_counts={"Drug": 20, "AdverseEffect": 25, "Symptom": 20, "Finding": 40},
        vocab_size=200, snippets=30, seed=3))
    _assert_walk_matches_scan(corpus.kb, corpus.snippets)


def test_kb_edge_joining_shared_candidates_transfers_one_way():
    # "AB" twice: both mentions hit {alpha beta, alpha bravo}, whose edges
    # join the two candidate sets in both directions at once
    a, b = 0, 1
    kb = HeteroGraph.from_rows(
        [(a, "T", "alpha beta", ()), (b, "T", "alpha bravo", ())],
        [(a, b, "R"), (b, a, "Q"), (a, a, "L")])
    index = build_inverted_index(kb)
    qg = augment_query_graph(kb, index, TextSnippet("s", "AB then AB"),
                             GazetteerExtractor(index))
    u_q, v_q = sorted(qg.mentions)
    assert qg.matches[u_q] == qg.matches[v_q] == {a, b}
    assert _transferred_kb_edges(qg) == _scanned_kb_edges(kb, qg) == \
        {(u_q, v_q, "L"), (u_q, v_q, "Q"), (u_q, v_q, "R")}
