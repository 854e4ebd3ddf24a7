"""Tests for the Siamese matcher: head, loss, training loop, ranking,
persistence."""

import json
import math
import os
import shutil
import tracemalloc
from dataclasses import asdict, fields
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from hetlink import HetlinkError, cli, evalgen, matcher, ndiff
from hetlink.encoders import EncoderConfig
from hetlink.matcher import (
    KB_ROWS_FILE,
    MatchingHead,
    TrainConfig,
    TrainItem,
    TrainResult,
    build_query_batch,
    candidate_ids,
    candidate_pool,
    disambiguate,
    kb_embeddings,
    kept_kb_rows,
    load_model,
    order_by_score,
    pair_loss,
    rank_items,
    save_model,
    snippet_item,
    train,
)
from hetlink.hetgraph import RELATED_EDGE_TYPE, HeteroGraph, build_inverted_index, file_sha256
from hetlink.ndiff import Adam, Tensor, l2_normalize_rows
from hetlink.querygraph import (Mention, TextSnippet, augment_query_graph,
                                fully_connected_query_graph)
from hetlink.termembed import init_node_features

from conftest import (MANIFEST_BREAKS, break_manifest, break_params, cli_items,
                      lexical_pool_oracle)


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
    with pytest.raises(HetlinkError):
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
    with pytest.raises(HetlinkError):
        pair_loss(Tensor(np.zeros(0)), None)


# ---------------------------------------------------------------------------
# batches and candidates


def test_build_query_batch_is_disjoint_union(mini):
    items = mini["train"][:4]
    batch = build_query_batch(items, mini["corpus"].config.feature_dim)
    # each item's nodes, edges, mention and features in order, shifted by the
    # nodes of the items before it
    offset, edges = 0, batch.graph.edges
    for item, mention in zip(items, batch.mention_ids, strict=True):
        g = item.qgraph.graph
        assert [(n.type, n.name) for n in map(batch.graph.node, range(offset, offset + len(g)))] \
            == [(n.type, n.name) for n in g.nodes()]
        assert edges[:len(g.edges)] == [(offset + s, offset + d, t) for s, d, t in g.edges]
        assert mention == offset + item.mention_node
        np.testing.assert_array_equal(batch.features[offset:offset + len(g)], item.features)
        offset, edges = offset + len(g), edges[len(g.edges):]
    assert batch.graph.node_ids == list(range(offset)) and edges == []
    assert batch.features.shape[0] == offset


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
    """Ids with gaps, listed out of order, types interleaved across the ids."""
    return HeteroGraph.from_rows([(nid, types[int(rng.integers(len(types)))], f"node {nid}", ())
                                 for nid in rng.permutation(5 * n)[:n].tolist()], [])


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


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_candidate_pool_matches_the_token_loop_and_keeps_gold(tmp_path, seed):
    """Every item the CLI builds from a gen-synth bundle (acronym-enabled
    index) gets the lexical pool of the per-node loop, as a read-only
    ascending int64 array that holds its gold entity."""
    assert cli.main(["gen-synth", "--seed", str(seed), "--out", str(tmp_path)]) == 0
    kb, _, _, items = cli_items(tmp_path)
    assert len(items) > 200
    narrowed = 0
    for item in items:
        pool = candidate_pool(kb, item)
        assert pool.dtype == np.int64 and not pool.flags.writeable
        assert pool.tolist() == lexical_pool_oracle(kb, item)
        assert item.gold in pool.tolist()
        narrowed += len(pool) < len(candidate_ids(kb, item))
    assert narrowed > len(items) // 2


def test_candidate_pool_reuses_the_token_map_of_a_kb(mini, monkeypatch):
    corpus = mini["corpus"]
    items = mini["train"]
    first = [candidate_pool(corpus.kb, it) for it in items]
    # a second call reads the map kept on the graph and never walks the nodes
    monkeypatch.setattr(corpus.kb, "nodes", lambda: pytest.fail("token map rebuilt"))
    again = [candidate_pool(corpus.kb, it) for it in items]
    assert [p.tolist() for p in again] == [p.tolist() for p in first]
    monkeypatch.undo()
    # an equal graph that is another object builds its own map
    twin = HeteroGraph.from_rows(
        [(n.id, n.type, n.surface, [" ".join(s) for s in n.synonyms])
         for n in corpus.kb.nodes()], corpus.kb.edges)
    assert [candidate_pool(twin, it).tolist() for it in items] == [p.tolist() for p in first]
    assert twin.token_ids is not corpus.kb.token_ids


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
        save_model(model, tmp_path / f"model{run}", result)
        csvs.append((tmp_path / f"model{run}" / "history.csv").read_bytes())
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


def test_training_holds_one_steps_tape_and_frees_the_last(monkeypatch):
    # each backward frees its tape, so later epochs add no second tape to the
    # peak: the tracemalloc peak of 3 epochs stays near that of 1
    cfg = evalgen.SynthConfig(
        node_counts={"Drug": 20, "AdverseEffect": 25, "Symptom": 20, "Finding": 40},
        vocab_size=200, snippets=30, seed=1)
    corpus = evalgen.generate_synthetic_kb(cfg)
    split = evalgen.split_dataset([s.id for s in corpus.snippets], seed=0)
    items = [evalgen.corpus_items(corpus, ids) for ids in (split.train, split.validation)]
    kb_features = evalgen.kb_features(corpus)
    losses = []
    backward = ndiff.backward
    monkeypatch.setattr(ndiff, "backward", lambda loss: (losses.append(loss), backward(loss)))
    peaks = []
    for epochs in (1, 3):
        model = evalgen.make_model(corpus, "magnn", seed=1, dim=32)
        tracemalloc.start()
        result = train(model, corpus.kb, kb_features, *items,
                       TrainConfig(epochs=epochs, patience=epochs, sampler="hard", seed=1))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert len(result.history) == epochs == len(losses)
        assert losses[-1]._parents == () and losses[-1]._backward is None
        losses.clear()
    assert peaks[1] <= 1.2 * peaks[0], peaks


def test_validation_ranks_as_eval_does(mini):
    kb, kb_features = mini["corpus"].kb, mini["kb_features"]
    model = _tiny_model(mini, seed=1)
    result = train(model, kb, kb_features, mini["train"], mini["val"],
                   TrainConfig(epochs=8, patience=8, lr=1e-2, seed=3))
    # the model now holds the best epoch's state (an inner epoch here); eval
    # ranks with it
    predicted = evalgen.predict_batch(model, kb, kb_embeddings(model, kb, kb_features),
                                      mini["val"])
    correct = sum(predicted[it.snippet_id] == [it.gold] for it in mini["val"])
    assert result.best_metric == correct / len(mini["val"])
    assert result.history[result.best_epoch]["val_f1"] == result.best_metric


def test_train_config_validation():
    # patience above epochs is allowed: early stopping then never fires
    TrainConfig(epochs=5, patience=10)
    with pytest.raises(HetlinkError):
        TrainConfig(sampler="adversarial")
    with pytest.raises(HetlinkError):
        TrainConfig(negatives_per_positive=-1)
    with pytest.raises(HetlinkError, match="epochs must be >= 1"):
        TrainConfig(epochs=0, patience=0)
    for bad in ({"lr": 0.0}, {"lr": -0.5}, {"weight_decay": -1.0}, {"patience": -1},
                {"seed": -1}):
        with pytest.raises(HetlinkError, match=next(iter(bad))):
            TrainConfig(**bad)


def test_train_requires_items(mini):
    with pytest.raises(HetlinkError):
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


def _assert_rank_items_match_the_oracle(model, kb, kb_features, items, pools):
    """rank_items at several k, one pool per item of `items` repeated in turn,
    against the mention rows of a plain encode, the gather through kb.rows and
    the full sort, bit for bit."""
    batch = build_query_batch([items[i % len(items)] for i in range(len(pools))],
                              model.encoder.feature_dim)
    kb_unit = kb_embeddings(model, kb, kb_features)
    q_rows = model.encoder.encode(batch.graph, batch.features).data[batch.mention_ids]
    for k in (1, 5, len(kb)):
        ranked = rank_items(model, kb, kb_unit, batch, pools, k)
        for q, pool, (got_ids, got_scores) in zip(q_rows, pools, ranked):
            scores = model.head.score_one_vs_many(q, kb_unit[kb.rows(pool)])
            want_ids, want_scores = _order_by_score_oracle(pool.tolist(), scores)
            assert got_ids.tolist() == want_ids[:k]
            assert got_scores.tobytes() == want_scores[:k].tobytes()


@pytest.mark.parametrize("kind", ["graphsage", "magnn"])
def test_kb_embeddings_and_rank_items_record_no_tape(mini, monkeypatch, kind):
    """Both encode under ndiff.no_grad, to the values a recorded encode gives."""
    corpus = mini["corpus"]
    model = evalgen.make_model(corpus, kind, seed=1, num_layers=2, dim=16)
    items = mini["val"]
    batch = build_query_batch(items, corpus.config.feature_dim)
    pools = [candidate_pool(corpus.kb, it) for it in items]
    kb_unit = l2_normalize_rows(model.encoder.encode(corpus.kb, mini["kb_features"])).data
    q_rows = model.encoder.encode(batch.graph, batch.features).data[batch.mention_ids]
    want = [order_by_score(pool, model.head.score_one_vs_many(
                q, kb_unit[corpus.kb.rows(pool)]), 5) for q, pool in zip(q_rows, pools)]
    recorded = []
    tape_node = ndiff.tape_node

    def counting_tape_node(data, parents, backward):
        out = tape_node(data, parents, backward)
        recorded.append(out.needs_grad)
        return out

    monkeypatch.setattr(ndiff, "tape_node", counting_tape_node)
    got_unit = kb_embeddings(model, corpus.kb, mini["kb_features"])
    got = rank_items(model, corpus.kb, got_unit, batch, pools, 5)
    assert recorded and not any(recorded)
    assert got_unit.tobytes() == kb_unit.tobytes()
    assert [(i.tobytes(), s.tobytes()) for i, s in got] == [
        (i.tobytes(), s.tobytes()) for i, s in want]


def test_rank_items_matches_the_list_oracle_on_odd_pools(mini):
    kb = mini["corpus"].kb
    model = _tiny_model(mini)
    ids = kb.id_array
    rng = np.random.default_rng(7)
    # a gen-synth KB holds each type's rows in one span: pools of one type
    # are read as views of kb_unit
    assert all(isinstance(kb.row_selector(kb.ids_of_type(t)), slice) for t in kb.node_types)
    pools = [ids, kb.ids_of_type("Finding"), ids[5:25], ids[:1], ids[:0],
             ids[5:25][::-1], rng.permutation(ids[5:25]),
             ids[[3, 5, 4, 6]], ids[[3, 4, 4, 5]], ids[[2, 4, 6]]]
    pools += [kb.ids_of_type(t) for t in sorted(kb.node_types)]
    _assert_rank_items_match_the_oracle(model, kb, mini["kb_features"], mini["val"], pools)


def _interleaved_copy(kb: HeteroGraph, rng) -> HeteroGraph:
    """`kb` with its node ids permuted, so every type's rows are gapped."""
    new_id = dict(zip(kb.node_ids, rng.permutation(len(kb)).tolist()))
    return HeteroGraph.from_rows(
        [(new_id[n.id], n.type, n.surface, [" ".join(s) for s in n.synonyms])
         for n in kb.nodes()],
        [(new_id[e.src], new_id[e.dst], e.type) for e in kb.edges])


def test_rank_items_matches_the_list_oracle_on_interleaved_types(mini):
    corpus = mini["corpus"]
    rng = np.random.default_rng(11)
    kb = _interleaved_copy(corpus.kb, rng)
    assert all(isinstance(kb.row_selector(kb.ids_of_type(t)), np.ndarray)
               for t in kb.node_types)
    model = _tiny_model(mini)
    kb_features = init_node_features(kb, corpus.store, kb.token_frequencies)
    types = sorted(kb.node_types)
    pools = [kb.id_array, *(kb.ids_of_type(t) for t in types),
             np.unique(np.concatenate([kb.ids_of_type(t) for t in types[:2]])),
             kb.ids_of_type(types[0]).copy(), kb.ids_of_type(types[1])[::3]]
    _assert_rank_items_match_the_oracle(model, kb, kb_features, mini["val"], pools)


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
    with pytest.raises(HetlinkError):
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
    save_model(model, tmp_path / "model",
               TrainResult([], 0, 0.0, model.state_dict(), train_config, None))
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
    with pytest.raises(HetlinkError, match="bilinear") as info:
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
    with pytest.raises(HetlinkError) as info:
        load_model(tmp_path / "model")
    assert str(info.value) == error


@pytest.mark.parametrize("key", ["encoder", "feature_dim", "node_types", "edge_types"])
def test_load_model_names_a_missing_manifest_key(mini, tmp_path, key):
    save_model(_tiny_model(mini), tmp_path / "model")
    path = tmp_path / "model" / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest[key]
    path.write_text(json.dumps(manifest))
    with pytest.raises(HetlinkError, match=rf"lacks \['{key}'\]$"):
        load_model(tmp_path / "model")


@pytest.mark.parametrize("how", MANIFEST_BREAKS)
def test_load_model_rejects_a_malformed_manifest(mini, tmp_path, how):
    save_model(_tiny_model(mini), tmp_path / "model")
    error = break_manifest(tmp_path / "model", how)
    with pytest.raises(HetlinkError) as info:
        load_model(tmp_path / "model")
    assert str(info.value) == error


def test_load_model_rejects_unexpected_parameters(mini, tmp_path):
    model = _tiny_model(mini)
    save_model(model, tmp_path / "model")
    state = model.state_dict()
    state["encoder.stray"] = np.zeros(3)
    np.savez(tmp_path / "model" / "params.npz", **state)
    with pytest.raises(HetlinkError, match="encoder.stray") as info:
        load_model(tmp_path / "model")
    assert "\n" not in str(info.value)


def test_disambiguate_eval_and_cli_give_one_answer(mini, tmp_path, capsys):
    corpus = mini["corpus"]
    model = _tiny_model(mini, seed=2)
    items = mini["train"] + mini["val"]
    k = 5
    kb_unit = kb_embeddings(model, corpus.kb, mini["kb_features"])
    ranked = rank_items(model, corpus.kb, kb_unit,
                        build_query_batch(items, corpus.config.feature_dim),
                        [candidate_pool(corpus.kb, it) for it in items], k)
    rank1 = evalgen.predict_batch(model, corpus.kb, kb_unit, items, candidates="lexical")
    for item, (ids, _) in zip(items, ranked):
        top = disambiguate(model, corpus.kb, mini["kb_features"], item.qgraph,
                           item.features, item.mention_node, k)
        assert [nid for nid, _ in top] == ids.tolist()
        assert rank1[item.snippet_id] == [top[0][0]]

    # the CLI ranks the same snippets, read back from a bundle, as eval does
    bundle, model_dir = tmp_path / "bundle", tmp_path / "model"
    cli.write_bundle(bundle, corpus.kb, corpus.store)
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
                 if (item := snippet_item(kb, index, store, snippet, augment_query_graph))]
    loaded, _ = load_model(model_dir)
    kb_unit = kb_embeddings(loaded, kb, init_node_features(kb, store, freqs))
    shared = rank_items(loaded, kb, kb_unit, build_query_batch(cli_items, store.dim),
                        [candidate_pool(kb, it) for it in cli_items], k)
    shared_rank1 = evalgen.predict_batch(loaded, kb, kb_unit, cli_items, candidates="lexical")
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


def test_snippet_item_takes_the_first_unknown_mention_and_an_int_gold(toy_kb, toy_store):
    index = build_inverted_index(toy_kb, acronyms=False)
    item = snippet_item(toy_kb, index, toy_store, _labelled_snippet(toy_kb),
                        augment_query_graph)
    qg = item.qgraph
    assert len(qg.unknown_nodes) == 2
    assert item.mention_node == qg.unknown_nodes[0]
    assert qg.mentions[item.mention_node].surface == "ARF"
    assert item.gold == toy_kb.ids["acute renal failure"] and type(item.gold) is int
    np.testing.assert_array_equal(item.features,
                                  qg.features(toy_store, toy_kb.token_frequencies))


def test_snippet_item_is_none_when_the_index_matches_every_mention(
        toy_kb, toy_index, toy_store, arf_snippet):
    # the acronym rule indexes "ARF", so no mention of the snippet is unknown
    assert snippet_item(toy_kb, toy_index, toy_store, arf_snippet,
                        augment_query_graph) is None


def test_snippet_item_reads_unlabelled_text_with_the_gazetteer(toy_kb, toy_store):
    index = build_inverted_index(toy_kb, acronyms=False)
    text = TextSnippet("raw", "Aspirin can cause nausea indicating a potential ARF")
    item = snippet_item(toy_kb, index, toy_store, text, augment_query_graph)
    assert sorted(m.surface for m in item.qgraph.mentions.values()) == [
        "ARF", "Aspirin", "nausea"]
    assert item.qgraph.mentions[item.mention_node].surface == "ARF"
    assert item.gold == -1


def test_snippet_item_builds_with_the_given_query_graph_builder(toy_kb, toy_store):
    index = build_inverted_index(toy_kb, acronyms=False)
    snippet = _labelled_snippet(toy_kb)
    typed = snippet_item(toy_kb, index, toy_store, snippet, augment_query_graph)
    fc = snippet_item(toy_kb, index, toy_store, snippet, fully_connected_query_graph)
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

    # one value written in place in the last parameter, then in a middle one
    params = model.encoder.parameters()
    for p in (params[-1], params[len(params) // 2]):
        calls = encoded.count(kb)
        p.data.flat[p.data.size // 2] += 1.0
        answer = ask(model)
        assert encoded.count(kb) == calls + 1 and answer == fresh(model)

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


@pytest.mark.parametrize("kind", ["graphsage", "rgcn", "magnn"])
def test_a_warm_request_ranks_the_query_graph_it_is_given(mini, monkeypatch, kind):
    """disambiguate builds no graph once warm, and ranks as rank_items does
    over the one-item batch, bit for bit."""
    corpus, kb_feats = mini["corpus"], mini["kb_features"]
    model = evalgen.make_model(corpus, kind, seed=1, num_layers=2, dim=16)
    items = mini["train"] + mini["val"]
    k = 5

    def ask():
        return [disambiguate(model, corpus.kb, kb_feats, item.qgraph, item.features,
                             item.mention_node, k) for item in items]

    batched = [rank_items(model, corpus.kb, kb_embeddings(model, corpus.kb, kb_feats),
                          build_query_batch([item], corpus.config.feature_dim),
                          [candidate_pool(corpus.kb, item)], k)[0] for item in items]
    ask()
    built = []
    init = HeteroGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HeteroGraph, "__init__", counting_init)
    served = ask()
    assert built == []
    assert served == [list(zip(ids.tolist(), scores.tolist())) for ids, scores in batched]
    assert any(len(top) > 1 for top in served)


def test_magnn_disambiguate_builds_no_coo_matrix(mini, monkeypatch):
    """Every sparse operator of a request, the KB's and the query graph's,
    is built straight in CSR."""
    corpus, item = mini["corpus"], mini["val"][0]
    model = evalgen.make_model(corpus, "magnn", seed=0, num_layers=1, dim=16)
    built = []
    init = sp.coo_matrix.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sp.coo_matrix, "__init__", counting_init)
    sp.csr_matrix((np.ones(1), ([0], [0])), shape=(1, 1))
    assert built, "a COO build should be counted"
    built.clear()
    ranked = disambiguate(model, corpus.kb, mini["kb_features"], item.qgraph,
                          item.features, item.mention_node, 10)
    assert ranked and built == []


def test_text_baseline_attributes_every_miss(mini):
    corpus = mini["corpus"]
    items = evalgen.corpus_items(corpus, [s.id for s in corpus.snippets])
    report = evalgen.evaluate_text_baseline(corpus, items)
    assert report.n_gold > report.n_correct
    assert sum(report.error_counts.values()) == report.n_gold - report.n_correct


# ---------------------------------------------------------------------------
# KB rows a model directory keeps


def test_train_returns_the_kept_epochs_kb_rows(mini):
    kb, kb_features = mini["corpus"].kb, mini["kb_features"]
    model = _tiny_model(mini, seed=1)
    result = train(model, kb, kb_features, mini["train"], mini["val"],
                   TrainConfig(epochs=8, patience=8, lr=1e-2, seed=3))
    # an inner epoch: the rows of the last validation are not the kept ones
    assert result.best_epoch < len(result.history) - 1
    twin = _tiny_model(mini, seed=1)
    twin.load_state_dict(result.best_state)
    fresh = kb_embeddings(twin, kb, kb_features)
    assert not result.kb_rows.flags.writeable
    assert result.kb_rows.dtype == fresh.dtype and result.kb_rows.tobytes() == fresh.tobytes()
    assert model._kb_memo is None           # validation keeps no epoch's rows on the model
    # without validation no epoch's rows were encoded
    assert train(_tiny_model(mini, seed=1), kb, kb_features, mini["train"], [],
                 TrainConfig(epochs=2, patience=2, seed=3)).kb_rows is None


def test_save_model_writes_history_and_kb_rows_only_from_a_training_result(mini, tmp_path):
    kb, kb_features = mini["corpus"].kb, mini["kb_features"]
    model = _tiny_model(mini, seed=1)
    result = train(model, kb, kb_features, mini["train"], mini["val"],
                   TrainConfig(epochs=2, patience=2, seed=3))
    assert result.kb_rows is not None

    def files(name, result, kb_sha256):
        model.kb_sha256 = kb_sha256
        save_model(model, tmp_path / name, result)
        return sorted(os.listdir(tmp_path / name))

    bare = ["manifest.json", "params.npz"]
    sha = "0" * 64
    assert files("none", None, None) == files("no result", None, sha) == bare
    assert files("no sha", result, None) == ["history.csv", *bare]
    no_rows = TrainResult(result.history, result.best_epoch, result.best_metric,
                          result.best_state, result.config, None)
    assert files("no rows", no_rows, sha) == ["history.csv", *bare]
    assert files("all", result, sha) == ["history.csv", KB_ROWS_FILE, *bare]
    with np.load(tmp_path / "all" / KB_ROWS_FILE) as npz:
        assert npz["rows"].tobytes() == result.kb_rows.tobytes()
    # the model no longer holds best_state: its rows are not the kept ones
    model.head.tau.data[...] += 1.0
    assert files("moved", result, sha) == ["history.csv", *bare]


def test_a_save_leaves_no_file_of_an_earlier_model(mini, tmp_path):
    kb, kb_features = mini["corpus"].kb, mini["kb_features"]
    model = _tiny_model(mini, seed=1)
    result = train(model, kb, kb_features, mini["train"], mini["val"],
                   TrainConfig(epochs=2, patience=2, seed=3))
    model.kb_sha256 = "0" * 64
    bare = ["manifest.json", "params.npz"]
    for name in ("other model", "no sha"):
        save_model(model, tmp_path / name, result)
        assert sorted(os.listdir(tmp_path / name)) == ["history.csv", KB_ROWS_FILE, *bare]
    # another model, saved without a result
    save_model(_tiny_model(mini, seed=2), tmp_path / "other model")
    assert sorted(os.listdir(tmp_path / "other model")) == bare
    # the trained model, saved with its result but with no kb_sha256
    model.kb_sha256 = None
    save_model(model, tmp_path / "no sha", result)
    assert sorted(os.listdir(tmp_path / "no sha")) == ["history.csv", *bare]


KEPT_GEN = {"node_counts": {"Drug": 15, "AdverseEffect": 20, "Symptom": 15, "Finding": 30},
            "vocab_size": 150, "snippets": 40, "seed": 5}
KEPT_TRAIN = {"graphsage": ["--encoder", "graphsage"],
              "magnn": ["--encoder", "magnn", "--sampler", "hard"]}


def _gen_synth(root, seed):
    config = root / f"gen{seed}.json"
    config.write_text(json.dumps({**KEPT_GEN, "seed": seed}))
    bundle = root / f"bundle{seed}"
    assert cli.main(["gen-synth", "--config", str(config), "--out", str(bundle)]) == 0
    return bundle


@pytest.fixture(scope="module", params=sorted(KEPT_TRAIN))
def kept(request, tmp_path_factory):
    """A gen-synth bundle and the model directory CLI train wrote for it."""
    root = tmp_path_factory.mktemp(f"kept-{request.param}")
    bundle = _gen_synth(root, KEPT_GEN["seed"])
    assert cli.main(["train", "--bundle", str(bundle), "--snippets", str(bundle / "snippets.json"),
                     "--out", str(root / "model"), "--epochs", "3", "--patience", "3",
                     "--layers", "1", "--dim", "16"] + KEPT_TRAIN[request.param]) == 0
    return SimpleNamespace(root=root, bundle=bundle, model=root / "model")


def _served(capsys, kept, model_dir) -> list[str]:
    """The stdout of CLI eval and of CLI disambiguate of `model_dir` on the
    bundle it was trained on."""
    outs = []
    for command in ("eval", "disambiguate"):
        assert cli.main([command, "--bundle", str(kept.bundle), "--model", str(model_dir),
                         "--snippets", str(kept.bundle / "snippets.json")]) == 0
        outs.append(capsys.readouterr().out)
    return outs


def _feature_builds(monkeypatch) -> list:
    """One entry per KB feature build of the CLI from now on."""
    builds = []
    build = cli.init_node_features
    monkeypatch.setattr(cli, "init_node_features",
                        lambda *a: (builds.append(1), build(*a))[1])
    return builds


def _bare_copy(model_dir, tmp_path):
    """A copy of `model_dir` without its kept KB rows."""
    bare = tmp_path / "bare"
    shutil.copytree(model_dir, bare)
    (bare / KB_ROWS_FILE).unlink()
    return bare


def test_kept_kb_rows_serve_the_bytes_a_fresh_encode_serves(kept, tmp_path, capsys,
                                                            monkeypatch):
    assert sorted(os.listdir(kept.model)) == ["history.csv", KB_ROWS_FILE, "manifest.json",
                                              "params.npz"]
    manifest = json.loads((kept.model / "manifest.json").read_text())
    assert manifest["kb_sha256"] == file_sha256(kept.bundle / "kb.npz")
    bare = _bare_copy(kept.model, tmp_path)
    builds = _feature_builds(monkeypatch)
    hit = _served(capsys, kept, kept.model)
    assert builds == []
    miss = _served(capsys, kept, bare)
    assert len(builds) == 2
    assert hit == miss and json.loads(hit[1])

    # load_model reads no rows: only kept_kb_rows, for a KB, does
    kb, store, freqs = cli.read_bundle(kept.bundle)
    model = load_model(kept.model)[0]
    assert model._kb_memo is None
    rows = kept_kb_rows(model, kept.model, kb, file_sha256(kept.bundle / "kb.npz"))
    assert rows is not None and not rows.flags.writeable and model._kb_memo is None
    fresh = kb_embeddings(load_model(bare)[0], kb, init_node_features(kb, store, freqs))
    assert rows.tobytes() == fresh.tobytes() and rows.shape == fresh.shape


@pytest.mark.parametrize("cut_at", ["open", "dump"])
def test_a_save_cut_short_leaves_a_directory_that_refuses_to_load(kept, cut_at, tmp_path, capsys,
                                                                  monkeypatch):
    model_dir = tmp_path / "model"
    shutil.copytree(kept.model, model_dir)
    # another model, trained on another KB, saved over it until the manifest
    # write fails: before its file is opened (the old manifest would be left
    # whole) or after (the open has emptied it)
    model = load_model(model_dir)[0]
    model.kb_sha256 = "0" * 64
    model.head.tau.data[...] += 1.0

    def cut(*args, **kwargs):
        raise OSError("cut short")

    with monkeypatch.context() as patch:
        patch.setattr(matcher.json if cut_at == "dump" else matcher, cut_at, cut, raising=False)
        with pytest.raises(OSError, match="cut short"):
            save_model(model, model_dir)
    assert sorted(os.listdir(model_dir)) == ["manifest.json"] * (cut_at == "dump") + ["params.npz"]
    with pytest.raises(HetlinkError, match="manifest.json") as refused:
        load_model(model_dir)
    assert str(refused.value).startswith(f"{model_dir / 'manifest.json'}: ")
    assert "\n" not in str(refused.value)
    assert cli.main(["eval", "--bundle", str(kept.bundle), "--model", str(model_dir),
                     "--snippets", str(kept.bundle / "snippets.json")]) == 1
    assert capsys.readouterr().err == f"error: {refused.value}\n"


def _edit_params(model_dir, monkeypatch):
    with np.load(model_dir / "params.npz") as npz:
        state = dict(npz)
    state["head.tau"] = state["head.tau"] * 2.0
    np.savez(model_dir / "params.npz", **state)


def _edit_leaky_slope(model_dir, monkeypatch):
    # a setting that changes MAGNN's KB rows and no parameter name or shape
    manifest = json.loads((model_dir / "manifest.json").read_text())
    manifest["encoder"]["leaky_slope"] = 0.2
    (model_dir / "manifest.json").write_text(json.dumps(manifest))


def _cut_rows(model_dir, rows):
    with np.load(model_dir / KB_ROWS_FILE) as npz:
        kept = dict(npz)
    np.savez(model_dir / KB_ROWS_FILE, **{**kept, "rows": rows(kept["rows"])})


# how a copy of the model directory, or the source digest, is changed
KEPT_MISSES = {
    "edited params": _edit_params,
    "edited leaky_slope": _edit_leaky_slope,
    "other sources": lambda d, mp: mp.setattr(matcher, "source_sha256", lambda: "0" * 64),
    "a row short": lambda d, mp: _cut_rows(d, lambda r: r[:-1]),
    "a column more": lambda d, mp: _cut_rows(d, lambda r: np.hstack([r, r[:, :1]])),
}


@pytest.mark.parametrize("case", KEPT_MISSES)
def test_kept_kb_rows_are_not_read_for_other_params_settings_sources_or_shapes(
        kept, tmp_path, capsys, monkeypatch, case):
    model_dir = tmp_path / "model"
    shutil.copytree(kept.model, model_dir)
    KEPT_MISSES[case](model_dir, monkeypatch)
    bare = _bare_copy(model_dir, tmp_path)
    assert kept_kb_rows(load_model(model_dir)[0], model_dir, cli.read_bundle(kept.bundle)[0],
                        file_sha256(kept.bundle / "kb.npz")) is None
    builds = _feature_builds(monkeypatch)
    served = _served(capsys, kept, model_dir)
    assert len(builds) == 2
    assert served == _served(capsys, kept, bare)


def test_a_kb_rows_file_cut_in_half_ends_in_one_line_that_names_it(kept, tmp_path, capsys):
    model_dir = tmp_path / "model"
    shutil.copytree(kept.model, model_dir)
    path = model_dir / KB_ROWS_FILE
    path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    assert cli.main(["eval", "--bundle", str(kept.bundle), "--model", str(model_dir),
                     "--snippets", str(kept.bundle / "snippets.json")]) == 1
    assert capsys.readouterr().err == f"error: {path}: not a readable .npz archive\n"


def test_a_model_refuses_another_bundle_and_its_kept_rows_serve_only_theirs(kept, tmp_path,
                                                                           capsys):
    other = kept.root / f"bundle{KEPT_GEN['seed'] + 1}"
    if not other.exists():
        _gen_synth(kept.root, KEPT_GEN["seed"] + 1)
    # a loaded model saved again, without a result, keeps its KB binding
    resaved = tmp_path / "resaved"
    save_model(load_model(kept.model)[0], resaved)
    assert (json.loads((resaved / "manifest.json").read_text())["kb_sha256"]
            == file_sha256(kept.bundle / "kb.npz"))
    for model_dir, command in [(kept.model, "eval"), (kept.model, "disambiguate"),
                               (resaved, "eval")]:
        assert cli.main([command, "--bundle", str(other), "--model", str(model_dir),
                         "--snippets", str(other / "snippets.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: {model_dir} was trained on a kb.npz of sha256 "
            f"{file_sha256(kept.bundle / 'kb.npz')}, not on {other}'s "
            f"({file_sha256(other / 'kb.npz')})\n")
    model = load_model(kept.model)[0]
    assert kept_kb_rows(model, kept.model, cli.read_bundle(other)[0],
                        file_sha256(other / "kb.npz")) is None
    assert kept_kb_rows(model, kept.model, cli.read_bundle(kept.bundle)[0],
                        file_sha256(kept.bundle / "kb.npz")) is not None


def test_a_manifest_without_kb_sha256_serves_with_one_warning_and_no_kept_rows(
        kept, tmp_path, capsys, caplog, monkeypatch):
    old = tmp_path / "old"
    shutil.copytree(kept.model, old)
    manifest = json.loads((old / "manifest.json").read_text())
    del manifest["kb_sha256"]
    (old / "manifest.json").write_text(json.dumps(manifest))
    builds = _feature_builds(monkeypatch)
    served = _served(capsys, kept, old)
    assert len(builds) == 2
    warned = [r.getMessage() for r in caplog.records if "kb.npz sha256" in r.getMessage()]
    assert warned == [f"{old / 'manifest.json'} records no kb.npz sha256: the model is not "
                      f"checked against the bundle, and no kept KB rows are read"] * 2
    assert served == _served(capsys, kept, kept.model)
