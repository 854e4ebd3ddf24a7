"""Tests for splits, metrics, and the synthetic corpus generator."""

from types import SimpleNamespace

import numpy as np
import pytest

from hetlink import HetlinkError, evalgen
from hetlink.hetgraph import HeteroGraph
from hetlink.matcher import TrainItem, candidate_ids, candidate_pool
from hetlink.evalgen import (
    SynthConfig,
    build_model,
    generate_synthetic_kb,
    precision_recall_f1,
    schema_metapaths,
    score_items,
    split_dataset,
)


SMALL = dict(
    node_counts={"Drug": 20, "AdverseEffect": 25, "Symptom": 20, "Finding": 40},
    vocab_size=200, snippets=40, seed=11)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_synthetic_kb(SynthConfig(**SMALL))


def _ambiguous_mention(corpus, snippet):
    """The snippet's one mention that the corpus index does not match."""
    unmatched = [m for m in snippet.mentions if not corpus.index.lookup(m.surface)]
    assert len(unmatched) == 1, snippet.id
    return unmatched[0]


# ---------------------------------------------------------------------------
# splits


def test_split_partitions_without_overlap():
    ids = [f"s{i}" for i in range(100)]
    split = split_dataset(ids, seed=4)
    parts = [split.train, split.validation, split.test]
    assert sum(len(p) for p in parts) == 100
    assert len(set().union(*map(set, parts))) == 100
    assert len(split.train) == 70
    assert len(split.validation) == 15


def test_split_is_deterministic_and_seed_sensitive():
    ids = [f"s{i}" for i in range(50)]
    assert split_dataset(ids, seed=0) == split_dataset(ids, seed=0)
    assert split_dataset(ids, seed=0) != split_dataset(ids, seed=1)


def test_split_tiny_dataset_keeps_all_parts_nonempty():
    split = split_dataset(["a", "b", "c"], seed=0)
    assert len(split.train) >= 1
    assert len(split.validation) >= 1
    assert len(split.test) >= 1


def test_split_validation_errors():
    with pytest.raises(HetlinkError):
        split_dataset(["a", "b"])


# ---------------------------------------------------------------------------
# metrics


def test_metrics_perfect_predictions():
    gold = {"m1": 3, "m2": 7}
    report = precision_recall_f1({"m1": [3, 1], "m2": [7]}, gold)
    assert report.precision == report.recall == report.f1 == 1.0
    assert report.n_correct == 2


def test_metrics_empty_prediction_hurts_recall_not_precision():
    gold = {"m1": 3, "m2": 7}
    report = precision_recall_f1({"m1": [3], "m2": []}, gold)
    assert report.precision == 1.0
    assert report.recall == 0.5
    assert report.n_emitted == 1
    assert report.f1 == pytest.approx(2 / 3)


def test_metrics_rank1_only_top_counts():
    gold = {"m1": 3}
    report = precision_recall_f1({"m1": [5, 3]}, gold)
    assert report.n_correct == 0
    assert report.f1 == 0.0


def test_metrics_reject_unknown_mention_keys():
    with pytest.raises(HetlinkError, match="unknown"):
        precision_recall_f1({"zzz": [1]}, {"m1": 1})


def test_metrics_all_empty():
    report = precision_recall_f1({}, {})
    assert report.f1 == 0.0
    assert report.n_gold == 0


MISS_CAUSES = ["construction", "insufficient-structure", "similar-nodes"]


def test_metrics_count_every_miss_cause_at_zero():
    report = precision_recall_f1({"m1": [5]}, {"m1": 3, "m2": 7})
    assert list(report.error_counts.items()) == [(cause, 0) for cause in MISS_CAUSES]


def _scored_item(sid, gold, inferred, degree):
    """An item whose mention, node 0 of its query graph, has `degree` non-self
    edges (alternately in and out) and a self-loop, and infers `inferred`."""
    rows = [(n, "Finding", f"n{n}", ()) for n in range(degree + 1)]
    edges = [(0, n, "ASSOC") if n % 2 else (n, 0, "ASSOC") for n in range(1, degree + 1)]
    graph = HeteroGraph.from_rows(rows, edges + [(0, 0, "SELF")])
    qgraph = SimpleNamespace(graph=graph, inferred_types={0: inferred})
    return TrainItem(sid, qgraph, None, 0, gold)


def test_score_items_attributes_each_miss_to_its_first_cause():
    kb = HeteroGraph.from_rows([(0, "Finding", "alpha", ()), (1, "Finding", "beta", ()),
                                (2, "Drug", "gamma", ())],
                               [(2, 0, "CAUSE")])
    items = [
        _scored_item("hit", 0, ("Drug",), 0),                 # a hit is never a miss
        _scored_item("wrong-type", 0, ("Drug",), 3),          # gold type not inferred
        _scored_item("lonely", 0, ("Finding",), 1),           # one non-self edge
        _scored_item("confused", 0, ("Drug", "Finding"), 2),  # type and structure fine
    ]
    predictions = {"hit": [0, 1], "wrong-type": [1], "lonely": [1, 0], "confused": []}
    report = score_items(kb, items, predictions)
    assert list(report.error_counts.items()) == [(cause, 1) for cause in MISS_CAUSES]
    assert (report.n_gold, report.n_emitted, report.n_correct) == (4, 3, 1)
    assert report.to_dict()["errors"] == dict.fromkeys(MISS_CAUSES, 1)


# ---------------------------------------------------------------------------
# config validation


def test_config_mix_must_sum_to_one():
    with pytest.raises(HetlinkError, match="sum to 1"):
        SynthConfig(ambiguity_mix={"acronym": 0.5})


@pytest.mark.parametrize("setting, error", [
    ({"snippets": -1}, "snippets must be >= 0"),
    ({"vocab_size": 0}, "vocab_size must be >= 1"),
    ({"feature_dim": 0}, "feature_dim must be >= 1"),
    ({"twin_fraction": 1.5}, r"twin_fraction must be in \[0, 1\]"),
    ({"seed": -1}, "seed must be >= 0"),
    ({"ambiguity_mix": {"acronym": 1.5, "twin": -0.5}}, "must be >= 0"),
    ({"synonym_fraction": 2.0}, r"synonym_fraction must be in \[0, 1\]"),
    ({"two_hop_fraction": -1.0}, r"two_hop_fraction must be in \[0, 1\]"),
    ({"name_tokens": (0, 2)}, "name_tokens"),
    ({"name_tokens": (3, 2)}, "name_tokens"),
    ({"context_mentions": (-1, 2)}, "context_mentions"),
    ({"context_mentions": (4, 2)}, "context_mentions"),
])
def test_config_rejects_an_out_of_range_value(setting, error):
    with pytest.raises(HetlinkError, match=error):
        SynthConfig(**setting)


def test_config_twin_requires_twin_fraction():
    with pytest.raises(HetlinkError, match="twin"):
        SynthConfig(ambiguity_mix={"twin": 1.0}, twin_fraction=0.0)


def test_config_detects_unsatisfiable_density():
    with pytest.raises(HetlinkError, match="density"):
        SynthConfig(node_counts={"Drug": 5, "AdverseEffect": 2, "Symptom": 5,
                                 "Finding": 5},
                    triples=(("Drug", "CAUSE", "AdverseEffect", 3),))


def test_config_refuses_a_triple_of_the_query_graph_self_loop_type():
    with pytest.raises(HetlinkError, match="Drug-SELF-Drug: edge type 'SELF' is reserved"):
        SynthConfig(triples=(*SynthConfig().triples, ("Drug", "SELF", "Drug", 1)))


def test_config_from_dict_roundtrip():
    cfg = SynthConfig.from_dict({"vocab_size": 300, "name_tokens": [2, 2],
                                 "snippets": 10})
    assert cfg.vocab_size == 300
    assert cfg.name_tokens == (2, 2)


# ---------------------------------------------------------------------------
# generator invariants


def test_generator_is_deterministic():
    c1 = generate_synthetic_kb(SynthConfig(**SMALL))
    c2 = generate_synthetic_kb(SynthConfig(**SMALL))
    assert [s.to_json() for s in c1.snippets] == [s.to_json() for s in c2.snippets]
    assert len(c1.kb) == len(c2.kb)


def test_generator_node_counts_match_config(small_corpus):
    kb = small_corpus.kb
    for ntype, count in SMALL["node_counts"].items():
        assert len(kb.nodes_of_type(ntype)) == count


def test_every_snippet_has_exactly_one_ambiguous_mention(small_corpus):
    items = evalgen.corpus_items(small_corpus, [s.id for s in small_corpus.snippets])
    for snippet, item in zip(small_corpus.snippets, items):
        assert item.qgraph.mentions[item.mention_node] == _ambiguous_mention(
            small_corpus, snippet)


def test_generator_links_the_ambiguous_mention_to_a_finding_near_context(small_corpus):
    kb = small_corpus.kb
    for snippet in small_corpus.snippets:
        gold = _ambiguous_mention(small_corpus, snippet).link_id
        assert kb.node(gold).type == "Finding"
        context = [m.link_id for m in snippet.mentions if m.link_id != gold]
        within2 = kb.neighbors(gold)
        within2 = within2 | {w for u in within2 for w in kb.neighbors(u)}
        assert all(c in within2 for c in context), snippet.id


def test_mention_offsets_are_exact(small_corpus):
    for snippet in small_corpus.snippets:
        for m in snippet.mentions:
            assert snippet.text[m.start_offset:m.end_offset] == m.surface


def test_generator_twins_are_lookalike_assoc_neighbors(small_corpus):
    kb = small_corpus.kb
    findings = kb.nodes_of_type("Finding")
    twins = [(u, v) for u in findings for v in findings if u < v
             and kb.node(u).name[0] == kb.node(v).name[0]
             and v in kb.neighbors_by_relation(u, "ASSOC")]
    expected_pairs = int(SMALL["node_counts"]["Finding"] * 0.4) // 2
    assert len(twins) >= expected_pairs


def test_single_token_mentions_resolve_to_twin_pairs(small_corpus):
    # A one-token ambiguous mention is the twin corruption: both pair
    # members share that first token.
    kb = small_corpus.kb
    seen = 0
    for snippet in small_corpus.snippets:
        m = _ambiguous_mention(small_corpus, snippet)
        if " " in m.surface or not any(
                kb.node(n).name[0] == m.surface for n in kb.nodes_of_type("Finding")):
            continue
        holders = [n for n in kb.nodes_of_type("Finding")
                   if kb.node(n).name[0] == m.surface]
        if len(holders) >= 2:
            assert m.link_id in holders
            seen += 1
    assert seen > 0


def test_lexical_candidates_share_a_token_and_keep_type(small_corpus):
    ids = [s.id for s in small_corpus.snippets[:10]]
    items = evalgen.corpus_items(small_corpus, ids)
    full = {it.snippet_id: set(candidate_ids(small_corpus.kb, it))
            for it in items}
    for it in items:
        cands = candidate_pool(small_corpus.kb, it)
        assert cands.dtype == np.int64
        assert set(cands) <= full[it.snippet_id]
        surface_toks = set(
            it.qgraph.mentions[it.mention_node].surface.split())
        narrowed = set(cands) < full[it.snippet_id]
        for c in cands:
            node = small_corpus.kb.node(c)
            toks = set(node.name) | {t for s in node.synonyms for t in s}
            # a narrowed pool only holds token-overlap candidates; otherwise
            # it fell back to the full type-compatible set
            assert not narrowed or toks & surface_toks


def test_corpus_items_build_one_item_per_snippet(small_corpus):
    snippets = small_corpus.snippets[:5]
    items = evalgen.corpus_items(small_corpus, [s.id for s in snippets])
    assert [it.snippet_id for it in items] == [s.id for s in snippets]
    for it, snippet in zip(items, snippets):
        assert it.qgraph.unknown_nodes == (it.mention_node,)
        assert it.gold == _ambiguous_mention(small_corpus, snippet).link_id


def test_corpus_items_reject_an_unknown_snippet_id(small_corpus):
    with pytest.raises(HetlinkError, match="unknown snippet 'nope'"):
        evalgen.corpus_items(small_corpus, [small_corpus.snippets[0].id, "nope"])


# ---------------------------------------------------------------------------
# metapath inventory


def test_schema_metapaths_cover_schema(small_corpus):
    schema = small_corpus.kb.schema
    paths = schema_metapaths(schema, limit=0)
    singles = [p for p in paths if len(p.edge_types) == 1]
    non_self = {t for t in schema.triples if t[1] != "SELF"}
    assert {(p.node_types[0], p.edge_types[0], p.node_types[1])
            for p in singles} == non_self
    for p in paths:
        assert set(zip(p.node_types, p.edge_types, p.node_types[1:])) <= non_self


def test_schema_metapaths_limit_truncates(small_corpus):
    schema = small_corpus.kb.schema
    assert len(schema_metapaths(schema, limit=3)) == 3


@pytest.mark.parametrize("node_type, edge_type, bad", [
    ("Adverse-Effect", "CAUSE", "Adverse-Effect"), ("AdverseEffect", "MAY-CAUSE", "MAY-CAUSE"),
    ("Adverse Effect ", "CAUSE", "Adverse Effect ")])
def test_magnn_refuses_a_kb_type_that_a_metapath_label_cannot_carry(node_type, edge_type, bad):
    kb = HeteroGraph.from_rows([(0, "Drug", "aspirin", ()), (1, node_type, "nausea", ())],
                               [(0, 1, edge_type)])
    with pytest.raises(HetlinkError, match=f"^metapath type {bad!r} holds '-'"):
        build_model(kb, 8, "magnn", dim=8)
    for kind in ("graphsage", "rgcn"):
        assert build_model(kb, 8, kind, dim=8).encoder.config.kind == kind
