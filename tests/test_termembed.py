"""Tests for SIF-weighted term embeddings and their supporting tables."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hetlink import HetlinkError, termembed
from hetlink.evalgen import SynthConfig, generate_synthetic_kb
from hetlink.hetgraph import HeteroGraph, read_npz
from hetlink.termembed import (
    DEFAULT_SIF_A,
    DEFAULT_UNSEEN_P,
    FALLBACK_SEED,
    WordVectorStore,
    fallback_vector,
    init_node_features,
    load_word_vectors,
    random_word_vectors,
    sif_weight,
    term_embedding,
)
from conftest import node_features_oracle


# ---------------------------------------------------------------------------
# word vector store


def test_store_lookup_and_contains():
    store = WordVectorStore({"aspirin": np.ones(3)}, dim=3)
    assert "aspirin" in store
    assert "ibuprofen" not in store
    assert len(store) == 1
    np.testing.assert_array_equal(store.get("aspirin"), np.ones(3))


def test_fallback_vector_is_deterministic_and_unit_scale():
    v1 = fallback_vector("zorp", 16, seed=3)
    v2 = fallback_vector("zorp", 16, seed=3)
    v3 = fallback_vector("zorp", 16, seed=4)
    np.testing.assert_array_equal(v1, v2)
    assert not np.array_equal(v1, v3)
    assert v1.shape == (16,)


def test_store_get_unseen_token_uses_fallback():
    store = WordVectorStore({"a": np.zeros(8)}, dim=8)
    v = store.get("never-seen")
    np.testing.assert_array_equal(v, fallback_vector("never-seen", 8, seed=FALLBACK_SEED))


def test_store_roundtrips_exactly_through_its_columns_in_an_npz_file(tmp_path):
    tokens = ["alpha", "béta", "γάμμα", "日本語", "nul\x00inside", "", "\x00lead", "trail\x00",
              "a|b", "tab\tcr\r"]
    rng = np.random.default_rng(2)
    store = WordVectorStore({tok: rng.standard_normal(6) for tok in tokens}, dim=6)
    path = tmp_path / "vecs.npz"
    with open(path, "wb") as fh:
        np.savez(fh, **store.columns(path))
    loaded = WordVectorStore.from_columns(read_npz(path), path)
    assert (loaded.dim, len(loaded)) == (6, len(tokens))
    for tok in tokens:
        assert tok in loaded
        np.testing.assert_array_equal(loaded.get(tok), store.get(tok))
    # an unseen token's vector does not depend on the vectors the store holds
    np.testing.assert_array_equal(loaded.get("zorp"), store.get("zorp"))


def test_store_columns_refuse_a_token_with_a_line_break():
    # a text column holds its tokens one a line
    store = WordVectorStore({"a": np.zeros(3), "b\nc": np.ones(3)}, dim=3)
    with pytest.raises(HetlinkError) as exc:
        store.columns("vecs.npz")
    assert str(exc.value) == "vecs.npz: a 'tokens' string holds a line break"


def test_load_word_vectors_rejects_ragged_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a 1.0 2.0\nb 1.0\n")
    with pytest.raises(HetlinkError):
        load_word_vectors(path)


# ---------------------------------------------------------------------------
# token frequencies


def test_token_frequencies_count_name_and_synonym_tokens_over_their_total():
    g = HeteroGraph.from_rows([(0, "Drug", "aspirin aspirin tablet", ("ASA tablet",)),
                               (1, "Finding", "renal failure", ())], [])
    assert g.token_frequencies == {"aspirin": 2 / 7, "tablet": 2 / 7, "asa": 1 / 7,
                                   "renal": 1 / 7, "failure": 1 / 7}


def test_frequency_table_unseen_token_default():
    # a token missing from the frequencies weighs as if p(w) = DEFAULT_UNSEEN_P
    freqs = {"a": 1.0}
    assert sif_weight("zzz", freqs) == sif_weight("x", {"x": DEFAULT_UNSEEN_P})


# ---------------------------------------------------------------------------
# SIF weighting


def test_sif_weight_matches_closed_form():
    freqs = {"the": 0.05, "nausea": 0.001}
    assert DEFAULT_SIF_A == 1e-3 and DEFAULT_UNSEEN_P == 1e-4
    assert sif_weight("the", freqs) == pytest.approx(1e-3 / (1e-3 + 0.05))
    assert sif_weight("nausea", freqs) == pytest.approx(1e-3 / (1e-3 + 0.001))
    assert sif_weight("zzz", freqs) == pytest.approx(1e-3 / (1e-3 + 1e-4))


def test_sif_weight_downweights_frequent_tokens():
    freqs = {"common": 0.1, "rare": 1e-6}
    assert sif_weight("rare", freqs) > sif_weight("common", freqs)


def test_term_embedding_matches_manual_weighted_mean():
    store = WordVectorStore({"acute": np.array([1.0, 0.0]),
                             "failure": np.array([0.0, 1.0])}, dim=2)
    freqs = {"acute": 0.01, "failure": 0.001}
    w1 = 1e-3 / (1e-3 + 0.01)
    w2 = 1e-3 / (1e-3 + 0.001)
    expected = (w1 * np.array([1.0, 0.0]) + w2 * np.array([0.0, 1.0])) / (w1 + w2)
    np.testing.assert_allclose(term_embedding("Acute Failure", store, freqs), expected)


def test_term_embedding_single_token_equals_its_vector():
    store = random_word_vectors(["solo"], dim=5, seed=0)
    freqs = {"solo": 0.2}
    np.testing.assert_allclose(term_embedding("solo", store, freqs), store.get("solo"))


def test_term_embedding_empty_term_raises():
    store = random_word_vectors(["a"], dim=4)
    with pytest.raises(HetlinkError):
        term_embedding([], store, {"a": 1.0})


@given(st.lists(st.sampled_from(["red", "green", "blue", "cyan"]), min_size=1, max_size=6))
def test_term_embedding_in_convex_hull_of_word_vectors(tokens):
    # A weighted mean with positive weights stays inside the per-coordinate
    # range of its inputs.
    store = random_word_vectors(["red", "green", "blue", "cyan"], dim=4, seed=9)
    freqs = {"red": 0.2, "green": 0.4, "blue": 0.2, "cyan": 0.2}
    emb = term_embedding(tokens, store, freqs)
    vecs = np.stack([store.get(t) for t in tokens])
    assert np.all(emb >= vecs.min(axis=0) - 1e-12)
    assert np.all(emb <= vecs.max(axis=0) + 1e-12)


# ---------------------------------------------------------------------------
# node feature initialization


def test_init_node_features_orders_rows_by_node_id(toy_kb, toy_store, toy_freqs):
    feats = init_node_features(toy_kb, toy_store, toy_freqs)
    assert feats.shape == (len(list(toy_kb.nodes())), toy_store.dim)
    for node in toy_kb.nodes():
        np.testing.assert_allclose(
            feats[node.id], term_embedding(node.name, toy_store, toy_freqs))


def _term_embedding_rows(graph, store, freqs):
    """init_node_features the slow way: term_embedding node by node."""
    return np.stack([term_embedding(n.name, store, freqs) for n in graph.nodes()])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_init_node_features_is_term_embedding_bit_for_bit_on_synthetic_kbs(seed):
    corpus = generate_synthetic_kb(SynthConfig(seed=seed, snippets=0))
    freqs = corpus.kb.token_frequencies
    feats = init_node_features(corpus.kb, corpus.store, freqs)
    assert np.array_equal(feats, _term_embedding_rows(corpus.kb, corpus.store, freqs))


@pytest.mark.parametrize("chunk", [1, 2, 1024])
def test_init_node_features_embeds_unseen_tokens(monkeypatch, chunk):
    monkeypatch.setattr(termembed, "FEATURE_CHUNK", chunk)
    store = random_word_vectors(["aspirin", "renal", "failure", "acute"], 8, seed=3)
    freqs = {"renal": 0.2, "failure": 0.05}
    g = HeteroGraph.from_rows([(nid, "Finding", name, ()) for nid, name in [
        (4, "acute renal failure"), (9, "aspirin"), (2, "zzyzx renal"), (7, "zzyzx"),
        (5, "renal failure"), (0, "failure")]], [])
    feats = init_node_features(g, store, freqs)
    assert "zzyzx" not in store
    assert np.array_equal(feats, _term_embedding_rows(g, store, freqs))
    assert not feats.flags.writeable



@pytest.mark.parametrize("chunk", [2, 1024])
def test_column_built_features_equal_the_per_node_walk(oracle_kb, monkeypatch, chunk):
    kb, store = oracle_kb
    monkeypatch.setattr(termembed, "FEATURE_CHUNK", chunk)
    freqs = kb.token_frequencies
    feats = init_node_features(kb, store, freqs)
    assert feats.tobytes() == node_features_oracle(kb, store, freqs, chunk).tobytes()
    assert np.array_equal(feats, _term_embedding_rows(kb, store, freqs))
