"""Tests for the Siamese matcher: head, loss, training loop, ranking,
persistence."""

import json
import math
from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetlink import cli, evalgen
from hetlink.encoders import EncoderConfig
from hetlink.matcher import (
    MatcherError,
    MatchingHead,
    TrainConfig,
    TrainItem,
    build_query_batch,
    candidate_ids,
    disambiguate,
    kb_embeddings,
    load_model,
    order_by_score,
    pair_loss,
    rank_candidates,
    rank_items,
    save_model,
    snippet_item,
    train,
)
from hetlink.hetgraph import RELATED_EDGE_TYPE, HeteroGraph, build_inverted_index
from hetlink.ndiff import Adam, Tensor, l2_normalize_rows
from hetlink.querygraph import (Mention, TextSnippet, augment_query_graph,
                                fully_connected_query_graph)
from hetlink.termembed import init_node_features

from conftest import MANIFEST_BREAKS, break_manifest, break_params


@pytest.fixture(scope="module")
def mini():
    """Small synthetic corpus plus shared splits for training tests."""
    cfg = evalgen.SynthConfig(
        node_counts={"Drug": 20, "AdverseEffect": 25, "Symptom": 20, "Finding": 40},
        vocab_size=200, snippets=30, seed=3)
    corpus = evalgen.generate_synthetic_kb(cfg)
    split = evalgen.split_dataset([s.id for s in corpus.snippets], seed=0)
    return {
        "corpus": corpus,
        "train": evalgen.corpus_items(corpus, split.train),
        "val": evalgen.corpus_items(corpus, split.validation),
        "kb_features": evalgen.kb_features(corpus),
    }


# ---------------------------------------------------------------------------
# matching heads


def test_dot_head_is_temperature_scaled_cosine():
    head = MatchingHead()
    u = np.array([[3.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])
    v = np.array([[2.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]])
    scores = head.score_pairs(Tensor(u), Tensor(v)).data
    tau = head.tau.data[0]
    np.testing.assert_allclose(scores, tau * np.array([1.0, 0.0]), atol=1e-12)


def test_head_rejects_shape_mismatch():
    head = MatchingHead()
    with pytest.raises(MatcherError):
        head.score_pairs(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))))


def test_score_one_vs_many_agrees_with_score_pairs():
    head = MatchingHead()
    head.tau.data[...] = 3.7
    rng = np.random.default_rng(2)
    q = rng.standard_normal(3)
    cands = rng.standard_normal((7, 3))
    many = head.score_one_vs_many(q, l2_normalize_rows(cands).data)
    pairs = head.score_pairs(Tensor(np.tile(q, (7, 1))), Tensor(cands)).data
    np.testing.assert_array_equal(many, pairs)


# ---------------------------------------------------------------------------
# loss


def test_pair_loss_single_positive_closed_form():
    loss = pair_loss(Tensor(np.array([1.0])), None)
    assert float(loss.data) == pytest.approx(math.log1p(math.exp(-1.0)), abs=1e-9)


def test_pair_loss_with_negatives_adds_terms():
    pos = Tensor(np.array([1.0]))
    neg = Tensor(np.array([2.0, -1.0]))
    loss = float(pair_loss(pos, neg).data)
    expected = (math.log1p(math.exp(-1.0)) + math.log1p(math.exp(2.0))
                + math.log1p(math.exp(-1.0)))
    assert loss == pytest.approx(expected, abs=1e-9)


def test_pair_loss_requires_positives():
    with pytest.raises(MatcherError):
        pair_loss(Tensor(np.zeros(0)), None)


# ---------------------------------------------------------------------------
# batches and candidates


def test_build_query_batch_is_disjoint_union(mini):
    items = mini["train"][:4]
    batch = build_query_batch(items, mini["corpus"].config.feature_dim)
    assert len(batch.graph) == sum(len(it.qgraph.graph) for it in items)
    assert batch.features.shape[0] == len(batch.graph)
    assert len(batch.mention_ids) == 4
    total_edges = sum(len(it.qgraph.graph.edges) for it in items)
    assert len(batch.graph.edges) == total_edges


def test_candidate_ids_respect_declared_category(mini):
    corpus = mini["corpus"]
    item = mini["train"][0]
    cands = candidate_ids(corpus.kb, item)
    assert cands.tolist() == corpus.kb.nodes_of_type("Finding")
    assert item.gold in cands.tolist()


def test_candidate_ids_fall_back_to_all_nodes(mini):
    corpus = mini["corpus"]
    item = mini["train"][0]
    qg = item.qgraph
    saved = qg.inferred_types.get(item.mention_node)
    qg.inferred_types[item.mention_node] = ()
    try:
        assert candidate_ids(corpus.kb, item).tolist() == corpus.kb.node_ids
    finally:
        qg.inferred_types[item.mention_node] = saved


def _candidate_ids_oracle(kb, item):
    """The list construction candidate_ids replaced: a sorted set of the
    type lists, or every node id when no type is known."""
    types = tuple(t for t in item.qgraph.inferred_types.get(item.mention_node, ())
                  if t in kb.node_types)
    if not types:
        return kb.node_ids
    out = []
    for t in types:
        out.extend(kb.nodes_of_type(t))
    return sorted(set(out))


def _sparse_id_kb(rng, n=60, types=("Drug", "AdverseEffect", "Symptom", "Finding")):
    """Ids with gaps, added out of order, types interleaved across the ids."""
    kb = HeteroGraph()
    for nid in rng.permutation(5 * n)[:n].tolist():
        kb.add_node(types[int(rng.integers(len(types)))], f"node {nid}", node_id=nid)
    return kb.freeze()


def test_candidate_ids_match_the_list_oracle_as_read_only_int64():
    rng = np.random.default_rng(11)
    for _ in range(20):
        kb = _sparse_id_kb(rng)
        kb_types = sorted(kb.node_types)
        cases = [
            (kb_types[0],),                                      # one type: a category
            ("NoSuchType", kb_types[1]),                         # one of them a KB type
            tuple(rng.permutation(kb_types)[:3].tolist()) + ("NoSuchType", kb_types[0]),
            tuple(kb_types),                                     # several, every type
            ("Other",),                                          # no type known
            (),
        ]
        for inferred in cases:
            item = TrainItem("s", SimpleNamespace(inferred_types={0: inferred}),
                             None, 0, gold=-1)
            cands = candidate_ids(kb, item)
            assert cands.dtype == np.int64 and not cands.flags.writeable
            assert cands.tolist() == _candidate_ids_oracle(kb, item)
            with pytest.raises(ValueError):
                cands[...] = 0


def _order_by_score_oracle(ids, scores):
    """The list reordering order_by_score replaced."""
    order = np.lexsort((ids, -scores))
    return [ids[i] for i in order], scores[order]


def test_order_by_score_matches_the_list_oracle_on_random_pools():
    rng = np.random.default_rng(5)
    for trial in range(200):
        n = int(rng.integers(0, 40))
        ids = rng.permutation(1000)[:n].tolist()          # unsorted, with gaps
        # few distinct values so scores repeat, with +0.0 and -0.0 among them
        scores = rng.choice(np.array([0.0, -0.0, 0.5, -0.5, 1.25]), size=n)
        if trial % 3 == 0:
            scores = rng.standard_normal(n)
        want_ids, want_scores = _order_by_score_oracle(ids, scores)
        got_ids, got_scores = order_by_score(np.array(ids, dtype=np.int64), scores, n)
        assert got_ids.dtype == np.int64
        assert got_ids.tolist() == want_ids
        assert got_scores.tobytes() == want_scores.tobytes()


@settings(max_examples=200, deadline=None)
@given(ids=st.lists(st.integers(0, 10**6), unique=True, max_size=40),
       data=st.data())
def test_order_by_score_top_k_is_the_first_k_of_the_full_sort(ids, data):
    # a handful of score values, so the k-th score is usually tied
    values = [0.0, -0.0, 0.5, -0.5, 1.25, np.inf, np.nan]
    scores = np.array(data.draw(st.lists(st.sampled_from(values),
                                         min_size=len(ids), max_size=len(ids))))
    n = len(ids)
    want_ids, want_scores = _order_by_score_oracle(ids, scores)
    for k in {0, 1, 5, max(n - 1, 0), n, n + 3}:
        got_ids, got_scores = order_by_score(np.array(ids, dtype=np.int64), scores, k)
        assert got_ids.tolist() == want_ids[:k]
        assert got_scores.tobytes() == want_scores[:k].tobytes()


# ---------------------------------------------------------------------------
# training loop


def _tiny_model(mini, seed=0):
    return evalgen.make_model(mini["corpus"], "graphsage", seed=seed,
                              num_layers=1, dim=32)


def test_train_history_is_bitwise_reproducible(mini, tmp_path):
    csvs = []
    for run in range(2):
        model = _tiny_model(mini)
        cfg = TrainConfig(epochs=5, patience=5, seed=7)
        result = train(model, mini["corpus"].kb, mini["kb_features"],
                       mini["train"], mini["val"], cfg)
        path = tmp_path / f"history{run}.csv"
        result.write_history_csv(path)
        csvs.append(path.read_bytes())
    assert csvs[0] == csvs[1]


def test_train_different_seed_changes_history(mini):
    losses = []
    for seed in (0, 1):
        model = _tiny_model(mini)
        cfg = TrainConfig(epochs=3, patience=3, seed=seed)
        result = train(model, mini["corpus"].kb, mini["kb_features"],
                       mini["train"], mini["val"], cfg)
        losses.append([row["loss"] for row in result.history])
    assert losses[0] != losses[1]


def test_train_restores_best_checkpoint(mini):
    model = _tiny_model(mini)
    cfg = TrainConfig(epochs=6, patience=6, seed=0)
    result = train(model, mini["corpus"].kb, mini["kb_features"],
                   mini["train"], mini["val"], cfg)
    for name, arr in model.state_dict().items():
        np.testing.assert_array_equal(arr, result.best_state[name])
    assert 0 <= result.best_epoch < len(result.history)


def test_early_stopping_respects_patience(mini):
    model = _tiny_model(mini)
    cfg = TrainConfig(epochs=40, patience=3, seed=0)
    result = train(model, mini["corpus"].kb, mini["kb_features"],
                   mini["train"], mini["val"], cfg)
    last_epoch = result.history[-1]["epoch"]
    assert last_epoch - result.best_epoch <= cfg.patience


def test_train_without_validation_uses_loss(mini):
    model = _tiny_model(mini)
    cfg = TrainConfig(epochs=3, patience=3, seed=0)
    result = train(model, mini["corpus"].kb, mini["kb_features"],
                   mini["train"], [], cfg)
    assert result.best_metric == pytest.approx(
        -min(row["loss"] for row in result.history))


def test_validation_ranks_as_eval_does(mini):
    kb, kb_features = mini["corpus"].kb, mini["kb_features"]
    model = _tiny_model(mini, seed=1)
    result = train(model, kb, kb_features, mini["train"], mini["val"],
                   TrainConfig(epochs=8, patience=8, lr=1e-2, seed=3))
    # the model now holds the best epoch's state (an inner epoch here); eval
    # ranks with it
    predicted = evalgen.predict_batch(model, kb, kb_features, mini["val"])
    correct = sum(predicted[it.snippet_id] == [it.gold] for it in mini["val"])
    assert result.best_metric == correct / len(mini["val"])
    assert result.history[result.best_epoch]["val_f1"] == result.best_metric


def test_train_config_validation():
    with pytest.raises(MatcherError):
        TrainConfig(epochs=5, patience=10).validate()
    with pytest.raises(MatcherError):
        TrainConfig(sampler="adversarial").validate()
    with pytest.raises(MatcherError):
        TrainConfig(negatives_per_positive=-1).validate()
    with pytest.raises(MatcherError, match="epochs must be >= 1"):
        TrainConfig(epochs=0, patience=0).validate()


def test_train_requires_items(mini):
    with pytest.raises(MatcherError):
        train(_tiny_model(mini), mini["corpus"].kb, mini["kb_features"],
              [], [], TrainConfig(epochs=1, patience=1))


# ---------------------------------------------------------------------------
# inference and persistence


def test_order_by_score_breaks_ties_by_ascending_id():
    ids = [9, 3, 7, 1, 5]
    scores = np.array([0.5, 0.9, 0.5, -0.0, 0.0])
    ranked, ranked_scores = order_by_score(np.array(ids, dtype=np.int64), scores, len(ids))
    reference = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    assert ranked.tolist() == [ids[i] for i in reference] == [3, 7, 9, 1, 5]
    np.testing.assert_array_equal(ranked_scores, scores[reference])


def _assert_rank_candidates_match_the_oracle(model, kb, kb_unit, pools, rng):
    """rank_candidates at several k against the gather through kb.rows and
    the full sort, bit for bit."""
    q_rows = rng.standard_normal((len(pools), kb_unit.shape[1]))
    for k in (1, 5, len(kb)):
        ranked = rank_candidates(model, kb, kb_unit, q_rows, pools, k)
        for q, pool, (got_ids, got_scores) in zip(q_rows, pools, ranked):
            scores = model.head.score_one_vs_many(q, kb_unit[kb.rows(pool)])
            want_ids, want_scores = _order_by_score_oracle(pool.tolist(), scores)
            assert got_ids.tolist() == want_ids[:k]
            assert got_scores.tobytes() == want_scores[:k].tobytes()


def test_rank_candidates_matches_the_list_oracle_on_odd_pools(mini):
    kb = mini["corpus"].kb
    model = _tiny_model(mini)
    kb_unit = kb_embeddings(model, kb, mini["kb_features"])
    ids = kb.id_array
    rng = np.random.default_rng(7)
    # a gen-synth KB holds each type's rows in one span: pools of one type
    # are read as views of kb_unit
    assert all(isinstance(kb.row_selector(kb.ids_of_type(t)), slice) for t in kb.node_types)
    pools = [ids, kb.ids_of_type("Finding"), ids[5:25], ids[:1], ids[:0],
             ids[5:25][::-1], rng.permutation(ids[5:25]),
             ids[[3, 5, 4, 6]], ids[[3, 4, 4, 5]], ids[[2, 4, 6]]]
    pools += [kb.ids_of_type(t) for t in sorted(kb.node_types)]
    _assert_rank_candidates_match_the_oracle(model, kb, kb_unit, pools, rng)


def _interleaved_copy(kb: HeteroGraph, rng) -> HeteroGraph:
    """`kb` with its node ids permuted, so every type's rows are gapped."""
    new_id = dict(zip(kb.node_ids, rng.permutation(len(kb)).tolist()))
    copy = HeteroGraph()
    for node in kb.nodes():
        copy.add_node(node.type, node.name, synonyms=node.synonyms, node_id=new_id[node.id])
    for e in kb.edges:
        copy.add_edge(new_id[e.src], new_id[e.dst], e.type)
    return copy.freeze()


def test_rank_candidates_matches_the_list_oracle_on_interleaved_types(mini):
    corpus = mini["corpus"]
    rng = np.random.default_rng(11)
    kb = _interleaved_copy(corpus.kb, rng)
    assert all(isinstance(kb.row_selector(kb.ids_of_type(t)), np.ndarray)
               for t in kb.node_types)
    model = _tiny_model(mini)
    kb_unit = kb_embeddings(model, kb, init_node_features(kb, corpus.store, corpus.freqs))
    types = sorted(kb.node_types)
    pools = [kb.id_array, *(kb.ids_of_type(t) for t in types),
             np.unique(np.concatenate([kb.ids_of_type(t) for t in types[:2]])),
             kb.ids_of_type(types[0]).copy(), kb.ids_of_type(types[1])[::3]]
    _assert_rank_candidates_match_the_oracle(model, kb, kb_unit, pools, rng)


def test_disambiguate_ranks_descending_with_id_ties(mini):
    corpus = mini["corpus"]
    model = _tiny_model(mini)
    item = mini["train"][0]
    out = disambiguate(model, corpus.kb, mini["kb_features"], item.qgraph,
                       item.features, item.mention_node, k=5)
    assert len(out) == 5
    scores = [s for _, s in out]
    assert scores == sorted(scores, reverse=True)
    assert disambiguate(model, corpus.kb, mini["kb_features"], item.qgraph,
                        item.features, item.mention_node, k=0) == []


def test_disambiguate_rejects_unknown_mention_node(mini):
    corpus = mini["corpus"]
    model = _tiny_model(mini)
    item = mini["train"][0]
    with pytest.raises(MatcherError):
        disambiguate(model, corpus.kb, mini["kb_features"], item.qgraph,
                     item.features, 10_000, k=3)


def test_save_load_roundtrip_preserves_predictions(mini, tmp_path):
    corpus = mini["corpus"]
    # every setting away from its default, so none can come back as one
    model = evalgen.make_model(
        corpus, "magnn", metapaths=evalgen.schema_metapaths(corpus.kb.schema, limit=2),
        num_layers=3, dim=24, heads=3, dropout=0.25, leaky_slope=0.2, seed=4)
    train_config = TrainConfig(epochs=7, patience=3, lr=0.01, weight_decay=0.0,
                               negatives_per_positive=2, sampler="hard",
                               curriculum=False, seed=9)
    for config, default in ((model.encoder.config, EncoderConfig()),
                            (train_config, TrainConfig())):
        for f in fields(config):
            assert getattr(config, f.name) != getattr(default, f.name), f.name
    item = mini["train"][1]
    before = disambiguate(model, corpus.kb, mini["kb_features"], item.qgraph,
                          item.features, item.mention_node, k=3)
    save_model(model, tmp_path / "model", train_config)
    loaded, manifest = load_model(tmp_path / "model")
    after = disambiguate(loaded, corpus.kb, mini["kb_features"], item.qgraph,
                         item.features, item.mention_node, k=3)
    assert before == after
    for f in fields(EncoderConfig):
        assert getattr(loaded.encoder.config, f.name) == getattr(model.encoder.config,
                                                                 f.name), f.name
    assert manifest["train"] == asdict(train_config)


def test_load_model_rejects_other_head_kinds(mini, tmp_path):
    save_model(_tiny_model(mini), tmp_path / "model")
    path = tmp_path / "model" / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["head"] = "bilinear"
    path.write_text(json.dumps(manifest))
    with pytest.raises(MatcherError, match="bilinear") as info:
        load_model(tmp_path / "model")
    assert "\n" not in str(info.value)


def test_save_model_writes_parameters_in_order_and_load_model_reads_them_back(mini,
                                                                             tmp_path):
    model = evalgen.make_model(mini["corpus"], "rgcn", seed=1, num_layers=1, dim=8)
    save_model(model, tmp_path / "model")
    with np.load(tmp_path / "model" / "params.npz") as npz:
        names = npz.files
        # the encoder's parameters in construction order, then the head's
        assert names == (["rgcn.W0[0]"] + [f"rgcn.W[{r}][0]" for r in model.encoder.edge_types]
                         + ["head.tau"])
        for p in model.parameters():
            np.testing.assert_array_equal(npz[p.name], p.data)
    loaded, _ = load_model(tmp_path / "model")
    assert [p.name for p in loaded.parameters()] == names
    for p, q in zip(loaded.parameters(), model.parameters()):
        np.testing.assert_array_equal(p.data, q.data)


@pytest.mark.parametrize("how", ["missing", "misshapen", "nan", "inf"])
def test_load_model_rejects_a_broken_parameter(mini, tmp_path, how):
    save_model(_tiny_model(mini), tmp_path / "model")
    error = break_params(tmp_path / "model", how)
    with pytest.raises(MatcherError) as info:
        load_model(tmp_path / "model")
    assert str(info.value) == error


@pytest.mark.parametrize("key", ["encoder", "feature_dim", "node_types", "edge_types"])
def test_load_model_names_a_missing_manifest_key(mini, tmp_path, key):
    save_model(_tiny_model(mini), tmp_path / "model")
    path = tmp_path / "model" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest[key]
    path.write_text(json.dumps(manifest))
    with pytest.raises(MatcherError, match=rf"lacks \['{key}'\]$"):
        load_model(tmp_path / "model")


@pytest.mark.parametrize("how", MANIFEST_BREAKS)
def test_load_model_rejects_a_malformed_manifest(mini, tmp_path, how):
    save_model(_tiny_model(mini), tmp_path / "model")
    error = break_manifest(tmp_path / "model", how)
    with pytest.raises(MatcherError) as info:
        load_model(tmp_path / "model")
    assert str(info.value) == error


def test_load_model_rejects_unexpected_parameters(mini, tmp_path):
    model = _tiny_model(mini)
    save_model(model, tmp_path / "model")
    state = model.state_dict()
    state["encoder.stray"] = np.zeros(3)
    np.savez(tmp_path / "model" / "params.npz", **state)
    with pytest.raises(MatcherError, match="encoder.stray") as info:
        load_model(tmp_path / "model")
    assert "\n" not in str(info.value)


def test_disambiguate_eval_and_cli_give_one_answer(mini, tmp_path, capsys):
    corpus = mini["corpus"]
    model = _tiny_model(mini, seed=2)
    items = mini["train"] + mini["val"]
    k = 5
    ranked = rank_items(model, corpus.kb, mini["kb_features"],
                        build_query_batch(items, corpus.config.feature_dim),
                        [candidate_ids(corpus.kb, it) for it in items], k)
    rank1 = evalgen.predict_batch(model, corpus.kb, mini["kb_features"], items)
    for item, (ids, _) in zip(items, ranked):
        top = disambiguate(model, corpus.kb, mini["kb_features"], item.qgraph,
                           item.features, item.mention_node, k)
        assert [nid for nid, _ in top] == ids.tolist()
        assert rank1[item.snippet_id] == [top[0][0]]

    # the CLI ranks the same snippets, read back from a bundle, as eval does
    bundle, model_dir = tmp_path / "bundle", tmp_path / "model"
    cli.write_bundle(bundle, corpus.kb, corpus.store, corpus.freqs)
    (bundle / "snippets.json").write_text(
        json.dumps([s.to_json() for s in corpus.snippets]))
    save_model(model, model_dir)
    assert cli.main(["disambiguate", "--bundle", str(bundle), "--model", str(model_dir),
                     "--snippets", str(bundle / "snippets.json"),
                     "--top-k", str(k)]) == 0
    served = {row["snippet"]: [c["id"] for c in row["candidates"]]
              for row in json.loads(capsys.readouterr().out)}
    kb, store, freqs = cli.read_bundle(bundle)
    index = build_inverted_index(kb)
    cli_items = [item for snippet in cli._load_snippets(bundle / "snippets.json")
                 if (item := snippet_item(kb, index, store, freqs, snippet,
                                          augment_query_graph))]
    loaded, _ = load_model(model_dir)
    kb_feats = init_node_features(kb, store, freqs)
    shared = rank_items(loaded, kb, kb_feats, build_query_batch(cli_items, store.dim),
                        [candidate_ids(kb, it) for it in cli_items], k)
    shared_rank1 = evalgen.predict_batch(loaded, kb, kb_feats, cli_items)
    assert served and list(served) == [it.snippet_id for it in cli_items]
    for item, (ids, _) in zip(cli_items, shared):
        assert served[item.snippet_id] == ids.tolist()
        assert shared_rank1[item.snippet_id] == ids[:1].tolist()


# ---------------------------------------------------------------------------
# snippet -> item


def _labelled_snippet(kb):
    """Two unindexed mentions ("ARF" and "ckd") among indexed context, every
    mention linked; link ids are strings, as a JSON file may hold them."""
    text = "Aspirin can cause nausea indicating a potential ARF or ckd"
    links = [("Aspirin", "Aspirin"), ("nausea", "nausea"),
             ("ARF", "acute renal failure"), ("ckd", "nephrotoxicity")]
    return TextSnippet("lab", text, tuple(
        Mention(surface, text.index(surface), text.index(surface) + len(surface),
                link_id=str(kb.ids[node])) for surface, node in links))


def test_snippet_item_takes_the_first_unknown_mention_and_an_int_gold(
        toy_kb, toy_store, toy_freqs):
    index = build_inverted_index(toy_kb, acronym_rule=None)
    item = snippet_item(toy_kb, index, toy_store, toy_freqs, _labelled_snippet(toy_kb),
                        augment_query_graph)
    qg = item.qgraph
    assert len(qg.unknown_nodes) == 2
    assert item.mention_node == qg.unknown_nodes[0]
    assert qg.mentions[item.mention_node].surface == "ARF"
    assert item.gold == toy_kb.ids["acute renal failure"] and type(item.gold) is int
    np.testing.assert_array_equal(item.features, qg.features(toy_store, toy_freqs))


def test_snippet_item_is_none_when_the_index_matches_every_mention(
        toy_kb, toy_index, toy_store, toy_freqs, arf_snippet):
    # the acronym rule indexes "ARF", so no mention of the snippet is unknown
    assert snippet_item(toy_kb, toy_index, toy_store, toy_freqs, arf_snippet,
                        augment_query_graph) is None


def test_snippet_item_reads_unlabelled_text_with_the_gazetteer(toy_kb, toy_store, toy_freqs):
    index = build_inverted_index(toy_kb, acronym_rule=None)
    text = TextSnippet("raw", "Aspirin can cause nausea indicating a potential ARF")
    item = snippet_item(toy_kb, index, toy_store, toy_freqs, text, augment_query_graph)
    assert sorted(m.surface for m in item.qgraph.mentions.values()) == [
        "ARF", "Aspirin", "nausea"]
    assert item.qgraph.mentions[item.mention_node].surface == "ARF"
    assert item.gold == -1


def test_snippet_item_builds_with_the_given_query_graph_builder(toy_kb, toy_store,
                                                                toy_freqs):
    index = build_inverted_index(toy_kb, acronym_rule=None)
    snippet = _labelled_snippet(toy_kb)
    typed = snippet_item(toy_kb, index, toy_store, toy_freqs, snippet, augment_query_graph)
    fc = snippet_item(toy_kb, index, toy_store, toy_freqs, snippet,
                      fully_connected_query_graph)
    assert RELATED_EDGE_TYPE in {e.type for e in fc.qgraph.graph.edges}
    assert RELATED_EDGE_TYPE not in {e.type for e in typed.qgraph.graph.edges}
    assert (fc.mention_node, fc.gold) == (typed.mention_node, typed.gold)


# ---------------------------------------------------------------------------
# KB embeddings computed once


@pytest.mark.parametrize("kind", ["graphsage", "rgcn", "magnn"])
def test_kb_embedding_memo_gives_the_uncached_answer(mini, kind):
    corpus = mini["corpus"]
    kb, feats = corpus.kb, mini["kb_features"]
    assert not feats.flags.writeable
    item = mini["val"][0]

    def build(seed=0):
        return evalgen.make_model(corpus, kind, seed=seed, num_layers=1, dim=16)

    def ask(model, features=feats):
        return disambiguate(model, kb, features, item.qgraph, item.features,
                            item.mention_node, 10)

    def fresh(model, features=feats):
        """The same weights in a model that has never encoded the KB."""
        twin = build()
        twin.load_state_dict(model.state_dict())
        return ask(twin, features)

    model = build()
    encoded = []
    encode = model.encoder.encode
    model.encoder.encode = lambda graph, *a, **kw: (encoded.append(graph),
                                                    encode(graph, *a, **kw))[1]
    first = ask(model)
    assert encoded.count(kb) == 1
    assert ask(model) == first == fresh(model)          # a hit, bitwise
    assert encoded.count(kb) == 1

    model.load_state_dict(build(seed=1).state_dict())
    answer = ask(model)
    assert answer == fresh(model) and answer != first

    previous = answer
    for p in model.parameters():
        p.grad[...] = 1.0
    Adam(model.parameters(), lr=0.05).step()
    answer = ask(model)
    assert answer == fresh(model) and answer != previous

    previous = answer
    model.encoder.parameters()[0].data[...] *= 1.5
    answer = ask(model)
    assert answer == fresh(model) and answer != previous

    previous = answer
    other = feats[::-1].copy()
    other.flags.writeable = False
    answer = ask(model, other)
    assert answer == fresh(model, other) and answer != previous
    assert ask(model) == previous

    # writeable arrays, and read-only views of them, are encoded every time
    calls = encoded.count(kb)
    for writeable in (True, False):
        base = feats.copy()
        features = base[:]
        features.flags.writeable = writeable
        before = ask(model, features)
        base[...] = other
        answer = ask(model, features)
        assert answer == fresh(model, other) and answer != before
    assert encoded.count(kb) == calls + 4


def test_text_baseline_attributes_every_miss(mini):
    corpus = mini["corpus"]
    items = evalgen.corpus_items(corpus, [s.id for s in corpus.snippets])
    report = evalgen.evaluate_text_baseline(corpus, items)
    assert report.n_gold > report.n_correct
    assert sum(report.error_counts.values()) == report.n_gold - report.n_correct
