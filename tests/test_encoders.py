"""Tests for the three weight-shared graph encoders.

Layer semantics are checked against straight-line numpy re-implementations
on the toy graph; attention distributions are checked on random graphs.
"""

import functools
import sys
import threading

import numpy as np
import pytest
import scipy.sparse as sp

from hetlink import HetlinkError, encoders, evalgen, ndiff
from hetlink.encoders import (
    AttentionRecord,
    Encoder,
    EncoderConfig,
    _graph_cache,
    _relation_adjacency,
    build_encoder_for_graph,
)
from hetlink.evalgen import schema_metapaths
from hetlink.hetgraph import SELF_EDGE_TYPE, HeteroGraph, Metapath
from hetlink.matcher import MatchingHead, SiameseModel, build_query_batch

from conftest import (csr_arrays, magnn_layer_per_op, magnn_plan, neighbors_oracle,
                      random_hetero_graph)
from test_hetgraph import _brute_force_instances
from test_ndiff import fd_grad


def _elu(x):
    return np.where(x > 0, x, np.expm1(x))


def _weights(enc):
    return {p.name: p.data for p in enc.parameters()}


def make_encoder(kind, graph, feature_dim, **kw):
    kw.setdefault("dropout", 0.0)
    if kind == "magnn":
        kw.setdefault("metapaths", [Metapath.parse("Drug-CAUSE-AdverseEffect")])
        kw.setdefault("heads", 1)
    cfg = EncoderConfig(kind=kind, **kw)
    return build_encoder_for_graph(cfg, graph, feature_dim)


# ---------------------------------------------------------------------------
# config


def test_config_rejects_unknown_kind_and_bad_layers():
    with pytest.raises(HetlinkError):
        EncoderConfig(kind="gcn")
    with pytest.raises(HetlinkError):
        EncoderConfig(num_layers=0)
    with pytest.raises(HetlinkError):
        EncoderConfig(num_layers=5)
    with pytest.raises(HetlinkError, match="dim must be >= 1"):
        EncoderConfig(dim=0)
    with pytest.raises(HetlinkError, match="seed must be >= 0"):
        EncoderConfig(seed=-1)
    for rate in (-0.1, 1.0):
        with pytest.raises(HetlinkError, match=r"dropout must be in \[0, 1\)"):
            EncoderConfig(dropout=rate)


def test_config_magnn_needs_metapaths_and_divisible_heads():
    with pytest.raises(HetlinkError):
        EncoderConfig(kind="magnn")
    path = [Metapath.parse("Drug-CAUSE-AdverseEffect")]
    with pytest.raises(HetlinkError):
        EncoderConfig(kind="magnn", metapaths=path, dim=10, heads=4)
    EncoderConfig(kind="magnn", metapaths=path, dim=12, heads=4)


def test_config_from_dict_parses_metapaths_and_layers_alias():
    # attn_dim: a key older model manifests carry, dropped on load
    cfg = EncoderConfig.from_dict({"kind": "magnn", "layers": 3, "attn_dim": 128,
                                   "metapaths": ["Drug-CAUSE-AdverseEffect"]})
    assert cfg.num_layers == 3
    assert cfg.metapaths[0].node_types == ("Drug", "AdverseEffect")


# ---------------------------------------------------------------------------
# forward-pass oracles


def test_graphsage_layer_matches_manual_numpy(toy_kb):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((len(toy_kb), 6))
    enc = make_encoder("graphsage", toy_kb, 6, num_layers=1, dim=5, seed=3)
    out = enc.encode(toy_kb, x).data

    W = _weights(enc)["graphsage.W[0]"]
    agg = np.zeros_like(x)
    ids = list(toy_kb.node_ids)
    for i, nid in enumerate(ids):
        neigh = sorted(neighbors_oracle(toy_kb, nid))
        if neigh:
            agg[i] = x[[ids.index(u) for u in neigh]].mean(axis=0)
    expected = _elu(np.hstack([x, agg]) @ W)
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_rgcn_layer_matches_manual_numpy(toy_kb):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((len(toy_kb), 6))
    enc = make_encoder("rgcn", toy_kb, 6, num_layers=1, dim=4, seed=5)
    out = enc.encode(toy_kb, x).data

    state = _weights(enc)
    ids = list(toy_kb.node_ids)
    expected = x @ state["rgcn.W0[0]"]
    for r in sorted(toy_kb.edge_types):
        Wr = state[f"rgcn.W[{r}][0]"]
        for i, nid in enumerate(ids):
            neigh = sorted(neighbors_oracle(toy_kb, nid, r))
            if neigh:
                # mean over the relation-specific neighborhood (1/c_{v,r})
                expected[i] += x[[ids.index(u) for u in neigh]].mean(axis=0) @ Wr
    np.testing.assert_allclose(out, _elu(expected), atol=1e-12)


def test_magnn_layer_matches_manual_numpy(toy_kb, daf_metapath):
    # With zero attention vectors every softmax is uniform, so the layer
    # reduces to plain means that we can recompute by hand.
    rng = np.random.default_rng(2)
    x = rng.standard_normal((len(toy_kb), 6))
    enc = make_encoder("magnn", toy_kb, 6, num_layers=1, dim=4,
                       metapaths=[daf_metapath], seed=7)
    out = enc.encode(toy_kb, x).data

    state = _weights(enc)
    ids = list(toy_kb.node_ids)
    label = daf_metapath.label()
    proj = np.zeros((len(ids), 4))
    for i, nid in enumerate(ids):
        t = toy_kb.node(nid).type
        proj[i] = x[i] @ state[f"magnn.in_proj[{t}]"]
    expected = proj.copy()
    Wp = state[f"magnn.W_p[{label}][0]"]
    for nid in toy_kb.nodes_of_type(daf_metapath.tail):
        i = ids.index(nid)
        insts = [inst for inst in toy_kb.metapath_instances(nid, daf_metapath, anchor="end")
                 if len(set(inst)) == len(inst)]
        if not insts:
            continue
        h_inst = np.stack([proj[[ids.index(u) for u in inst]].mean(axis=0) @ Wp
                           for inst in insts])
        expected[i] = _elu(h_inst.mean(axis=0))   # uniform alpha, single path
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_identity_residual_untrained_graphsage_averages_neighbors(toy_kb):
    # With the identity-residual init and one layer, the output is (to first
    # order) the mean of the raw neighbor features.
    x = np.random.default_rng(3).standard_normal((len(toy_kb), 8))
    enc = make_encoder("graphsage", toy_kb, 8, num_layers=1, dim=8, seed=0)
    out = enc.encode(toy_kb, x).data
    ids = list(toy_kb.node_ids)
    i = ids.index(toy_kb.ids["Aspirin"])
    neigh = sorted(toy_kb.neighbors(toy_kb.ids["Aspirin"]))
    mean_nbr = x[[ids.index(u) for u in neigh]].mean(axis=0)
    # the glorot part is scaled down, so the residual dominates
    cos = np.dot(out[i], _elu(mean_nbr)) / (
        np.linalg.norm(out[i]) * np.linalg.norm(_elu(mean_nbr)))
    assert cos > 0.9


# ---------------------------------------------------------------------------
# attention distributions


@pytest.mark.parametrize("graph_seed", range(10))
def test_magnn_attention_weights_are_distributions(graph_seed):
    rng = np.random.default_rng(graph_seed)
    g = random_hetero_graph(rng, n_nodes=rng.integers(8, 25), n_types=3,
                            n_edge_types=2, edge_prob=0.15)
    triples = sorted(g.schema.triples)
    paths = [Metapath((t[0], t[2]), (t[1],)) for t in triples[: 3]
             if t[1] != "SELF"]
    if not paths:
        pytest.skip("no usable schema triple")
    cfg = EncoderConfig(kind="magnn", num_layers=2, dim=8, heads=2,
                        dropout=0.0, metapaths=paths, seed=graph_seed)
    enc = build_encoder_for_graph(cfg, g, 8)
    # randomize so the softmaxes are not trivially uniform
    for p in enc.parameters():
        p.data += rng.standard_normal(p.data.shape) * 0.3
    records: list[AttentionRecord] = []
    enc.encode(g, rng.standard_normal((len(g), 8)), collect=records)
    assert records, "expected attention records"
    for rec in records:
        assert np.all(rec.weights >= 0)
        for seg in np.unique(rec.segments):
            total = rec.weights[rec.segments == seg].sum()
            assert abs(total - 1.0) <= 1e-9, (rec.kind, rec.label)


# ---------------------------------------------------------------------------
# Siamese weight sharing and permutation equivariance


def _permuted_copy(graph, perm):
    """Rebuild `graph` with node id v renamed to perm[v]."""
    return HeteroGraph.from_rows(
        [(int(perm[n.id]), n.type, n.surface, [" ".join(s) for s in n.synonyms])
         for n in graph.nodes()],
        [(int(perm[e.src]), int(perm[e.dst]), e.type) for e in graph.edges])


@pytest.mark.parametrize("kind", ["graphsage", "rgcn", "magnn"])
def test_same_input_twice_is_bitwise_identical(kind, toy_kb):
    x = np.random.default_rng(4).standard_normal((len(toy_kb), 8))
    enc = make_encoder(kind, toy_kb, 8, dim=8)
    out1 = enc.encode(toy_kb, x).data
    out2 = enc.encode(toy_kb, x).data
    assert np.array_equal(out1, out2)


@pytest.mark.parametrize("kind", ["graphsage", "rgcn", "magnn"])
def test_permutation_equivariance(kind, toy_kb):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((len(toy_kb), 8))
    perm = rng.permutation(len(toy_kb))
    g2 = _permuted_copy(toy_kb, perm)
    enc = make_encoder(kind, toy_kb, 8, dim=8)

    old_ids = toy_kb.node_ids
    out1 = enc.encode(toy_kb, x, targets=old_ids).data
    x2 = np.empty_like(x)
    x2[perm] = x                      # row order follows sorted node id
    out2 = enc.encode(g2, x2, targets=[int(perm[v]) for v in old_ids]).data
    np.testing.assert_allclose(out1, out2, atol=1e-10)


# ---------------------------------------------------------------------------
# per-graph operator cache


def _magnn_case():
    """A fresh graph (nothing cached on it), a MAGNN encoder with one- and
    two-edge metapaths and two heads, features and an output weighting."""
    rng = np.random.default_rng(21)
    g = random_hetero_graph(rng, n_nodes=40, n_types=3, n_edge_types=2, edge_prob=0.12)
    paths = schema_metapaths(g.schema, limit=0)
    cfg = EncoderConfig(kind="magnn", num_layers=2, dim=8, heads=2, dropout=0.2,
                        metapaths=paths[:3] + paths[-3:], seed=2)
    enc = build_encoder_for_graph(cfg, g, 8)
    for p in enc.parameters():
        p.data += rng.standard_normal(p.data.shape) * 0.3
    return g, enc, rng.standard_normal((len(g), 8)), rng.standard_normal((len(g), 8))


def _encode_and_backward(enc, g, x, w):
    out = enc.encode(g, x, training=True, rng=np.random.default_rng(1))
    ndiff.backward(ndiff.sum_all(ndiff.mul(out, w)))
    grads = {p.name: p.grad.tobytes() for p in enc.parameters()}
    for p in enc.parameters():
        p.zero_grad()
    return out.data.tobytes(), grads


def test_magnn_encode_and_backward_repeat_bitwise_on_cached_operators():
    g, enc, x, w = _magnn_case()
    first = _encode_and_backward(enc, g, x, w)
    assert any(np.frombuffer(v).any() for v in first[1].values())
    assert _encode_and_backward(enc, g, x, w) == first
    assert _encode_and_backward(enc, g, x, w) == first


def test_second_encode_of_a_graph_builds_no_sparse_matrix(monkeypatch):
    g, enc, x, w = _magnn_case()
    built = []
    init = sp.csr_matrix.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "__init__", counting_init)
    _encode_and_backward(enc, g, x, w)
    enc.encode(g, x)
    assert built, "the first encode should build the graph's operators"
    built.clear()
    _encode_and_backward(enc, g, x, w)
    enc.encode(g, x)
    assert built == []


# ---------------------------------------------------------------------------
# the fused per-metapath attention against the per-op chain it replaced


def _encode_record(enc, g, features, w):
    """Output, input and parameter gradients and attention records of one
    training-mode encode, as bytes."""
    x = ndiff.Parameter(features, "features")
    collect = []
    out = enc.encode(g, x, training=True, rng=np.random.default_rng(3), collect=collect)
    ndiff.backward(ndiff.sum_all(ndiff.mul(out, w)))
    grads = {p.name: p.grad.tobytes() for p in [x, *enc.parameters()]}
    for p in enc.parameters():
        p.zero_grad()
    records = [(r.kind, r.label, r.weights.dtype.str, r.weights.tobytes(),
                r.segments.dtype.str, r.segments.tobytes()) for r in collect]
    return out.data.tobytes(), grads, records


def _assert_fused_layer_matches_per_op(monkeypatch, g, paths, features, heads, seed, kb=None):
    """A 2-layer MAGNN encoder over the types of `kb` (default `g`), with
    perturbed parameters and dropout on, encodes `g` and backpropagates bit
    for bit as with the per-op layer."""
    rng = np.random.default_rng(seed)
    cfg = EncoderConfig(kind="magnn", num_layers=2, dim=8, heads=heads, dropout=0.2,
                        metapaths=paths, seed=seed)
    enc = build_encoder_for_graph(cfg, g if kb is None else kb, features.shape[1])
    for p in enc.parameters():
        p.data += rng.standard_normal(p.data.shape) * 0.3
    w = rng.standard_normal((len(g), 8))
    fused = _encode_record(enc, g, features, w)
    with monkeypatch.context() as patch:
        patch.setattr(Encoder, "_magnn_layer", magnn_layer_per_op)
        per_op = _encode_record(enc, g, features, w)
    assert fused[2] == per_op[2]
    assert any(np.frombuffer(v).any() for name, v in fused[1].items() if ".a[" in name)
    assert fused[1] == per_op[1]
    assert fused[0] == per_op[0]


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("graph_seed", range(4))
def test_fused_magnn_layer_matches_per_op_chain_on_random_graphs(monkeypatch, heads, graph_seed):
    rng = np.random.default_rng(100 + graph_seed)
    g = random_hetero_graph(rng, n_nodes=int(rng.integers(12, 40)), n_types=3,
                            n_edge_types=2, edge_prob=0.12)
    paths = schema_metapaths(g.schema, limit=0)
    _assert_fused_layer_matches_per_op(monkeypatch, g, paths, rng.standard_normal((len(g), 6)),
                                       heads, graph_seed)


def test_magnn_gradients_match_finite_differences_at_two_heads():
    """The fused attention's hand-written backward, on heads that disagree
    (the acceptance gate's check runs one head)."""
    rng = np.random.default_rng(4)
    g = random_hetero_graph(rng, n_nodes=10, n_types=2, n_edge_types=2, edge_prob=0.35)
    paths = [Metapath.parse(text) for text in ("T1-R1-T1", "T1-R0-T1", "T1-R0-T1-R1-T1")]
    # each metapath has a target of two instances or more: a softmax to differentiate
    plan = magnn_plan(g, paths)[0]
    assert len(plan) == 3 and all(avg.shape[0] > ind.shape[0] for _, avg, _, _, ind in plan)
    enc = make_encoder("magnn", g, 4, dim=4, num_layers=2, heads=2, metapaths=paths, seed=1)
    for p in enc.parameters():
        p.data += rng.standard_normal(p.data.shape) * 0.3
    x = ndiff.Parameter(rng.standard_normal((len(g), 4)), "features")
    w = rng.standard_normal((len(g), 4))

    def loss():
        return ndiff.sum_all(ndiff.mul(enc.encode(g, x), w))

    ndiff.backward(loss())
    for p in [x, *enc.parameters()]:
        expected = fd_grad(lambda _: float(loss().data), p.data, h=1e-5)
        np.testing.assert_allclose(p.grad, expected, rtol=1e-3, atol=1e-6, err_msg=p.name)


@pytest.fixture(scope="module")
def synth_corpus():
    return evalgen.generate_synthetic_kb(evalgen.SynthConfig(seed=1))


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_fused_magnn_layer_matches_per_op_chain_on_the_synthetic_kb(monkeypatch, synth_corpus,
                                                                    heads):
    kb = synth_corpus.kb
    _assert_fused_layer_matches_per_op(monkeypatch, kb, schema_metapaths(kb.schema),
                                       evalgen.kb_features(synth_corpus), heads, 7)


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_fused_magnn_layer_matches_per_op_chain_on_a_query_batch(monkeypatch, synth_corpus,
                                                                 heads):
    items = evalgen.corpus_items(synth_corpus, [s.id for s in synth_corpus.snippets[:4]])
    batch = build_query_batch(items, synth_corpus.config.feature_dim)
    kb = synth_corpus.kb
    _assert_fused_layer_matches_per_op(monkeypatch, batch.graph, schema_metapaths(kb.schema),
                                       batch.features, heads, 8, kb=kb)


# ---------------------------------------------------------------------------
# operators shared by graphs of one typed shape

QUERY_PATHS = [Metapath.parse(text) for text in (
    "Drug-CAUSE-AdverseEffect", "AdverseEffect-INDICATE-Finding",
    "Drug-CAUSE-AdverseEffect-INDICATE-Finding", "Drug-TREAT-Finding")]


def _fresh_shapes(monkeypatch, size=encoders.SHAPE_CACHE_SIZE):
    """An empty shape cache of `size` shapes for the test, restored after it."""
    fresh = functools.lru_cache(maxsize=size)(encoders._shape_entry.__wrapped__)
    monkeypatch.setattr(encoders, "_shape_entry", fresh)
    return fresh


@pytest.fixture
def shapes(monkeypatch):
    return _fresh_shapes(monkeypatch)


def _query_graph(ids=(0, 1, 2, 3), names=("aspirin", "nausea", "fever", "ibuprofen"),
                 edges=((0, 1, "CAUSE"), (1, 2, "INDICATE"), (3, 1, "CAUSE")),
                 types=("Drug", "AdverseEffect", "Finding", "Drug")):
    """A query-sized graph; `edges` name their ends by position in `ids`."""
    return HeteroGraph.from_rows([(i, t, name, ()) for i, t, name in zip(ids, types, names)],
                                 [(ids[s], ids[d], r) for s, d, r in edges])


def _renamed_query_graph():
    """_query_graph's shape with other ids and names, its edges in another order."""
    return _query_graph(ids=(7, 20, 21, 96), names=("metformin", "rash", "cough", "x"),
                        edges=((3, 1, "CAUSE"), (1, 2, "INDICATE"), (0, 1, "CAUSE")))


def _query_encoder(kind):
    g = _query_graph()
    cfg = EncoderConfig(kind=kind, num_layers=2, dim=8, heads=2, dropout=0.2,
                        metapaths=QUERY_PATHS, seed=3)
    enc = build_encoder_for_graph(cfg, g, 8)
    rng = np.random.default_rng(8)
    for p in enc.parameters():
        p.data += rng.standard_normal(p.data.shape) * 0.3
    return enc, rng.standard_normal((len(g), 8)), rng.standard_normal((len(g), 8))


@pytest.mark.parametrize("kind", ["graphsage", "rgcn", "magnn"])
def test_graphs_of_one_shape_share_operators_that_encode_as_a_cold_build(kind, shapes):
    enc, x, w = _query_encoder(kind)
    first, second = _query_graph(), _renamed_query_graph()
    warm = [_encode_and_backward(enc, g, x, w) for g in (first, second)]
    assert shapes.cache_info().currsize == 1 and _graph_cache(first) is _graph_cache(second)
    assert warm[0] == warm[1]
    shapes.cache_clear()
    assert _encode_and_backward(enc, _renamed_query_graph(), x, w) == warm[1]


@pytest.mark.parametrize("change", [
    {"edges": ((0, 1, "CAUSE"), (1, 2, "INDICATE"), (3, 1, "CAUSE"), (3, 2, "INDICATE"))},
    {"edges": ((0, 1, "CAUSE"), (1, 2, "INDICATE"), (3, 1, "TREAT"))},
    {"types": ("Drug", "AdverseEffect", "Finding", "Symptom")},
], ids=["extra edge", "edge type", "node type"])
def test_another_shape_gets_its_own_operators(change, shapes):
    base, other = _query_graph(), _query_graph(**change)
    assert _graph_cache(base) is not _graph_cache(other)
    assert shapes.cache_info().currsize == 2
    magnn_plan(base, QUERY_PATHS)
    assert _graph_cache(other) == {}


def test_the_shape_cache_drops_its_least_recently_used_shape(monkeypatch):
    shapes = _fresh_shapes(monkeypatch, 2)

    def of_type(t):
        return _query_graph(types=("Drug", "AdverseEffect", "Finding", t))

    a = of_type("Drug")
    entry_a = _graph_cache(a)
    entry_symptom = _graph_cache(of_type("Symptom"))
    assert _graph_cache(of_type("Drug")) is entry_a     # the Drug shape is now the recent one
    entry_finding = _graph_cache(of_type("Finding"))    # drops Symptom, the oldest
    assert shapes.cache_info().currsize == 2
    assert _graph_cache(of_type("Drug")) is entry_a
    assert _graph_cache(of_type("Finding")) is entry_finding
    assert _graph_cache(of_type("Symptom")) is not entry_symptom    # drops Drug
    # a graph keeps the entry it resolved once the cache has dropped it
    assert _graph_cache(a) is entry_a
    assert _graph_cache(of_type("Drug")) is not entry_a


def test_a_graph_above_the_node_limit_keeps_its_own_operators(shapes):
    n = encoders.SHAPE_NODE_LIMIT + 1
    big = [HeteroGraph.from_rows([(i, "Drug", f"d{i}", ()) for i in range(n)],
                                 [(i, i + 1, "CAUSE") for i in range(n - 1)]) for _ in range(2)]
    assert _relation_adjacency(big[0], None) is not _relation_adjacency(big[1], None)
    assert shapes.cache_info().currsize == 0
    small = _query_graph()
    _relation_adjacency(small, None)
    assert shapes.cache_info().currsize == 1


def test_every_array_of_a_shared_entry_is_read_only(shapes):
    enc, x, w = _query_encoder("magnn")
    g = _query_graph()
    _encode_and_backward(enc, g, x, w)          # builds the transposes too
    for relation in (None, "CAUSE"):
        _relation_adjacency(g, relation).T
    per_path, covered, segments, indicator = magnn_plan(g, QUERY_PATHS)
    assert per_path
    operators = [indicator, *_graph_cache(g)["rel_adj"].values()]
    arrays = [covered, segments]
    for _, avg, gather, path_segments, path_indicator in per_path:
        operators += [avg, gather, path_indicator]
        arrays.append(path_segments)
    for op in operators:
        for m in (op.matrix, op.T.matrix):
            arrays += [m.data, m.indices, m.indptr]
    for a in arrays:
        assert a.size
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[0]


def test_four_threads_encoding_one_shape_at_once_agree(monkeypatch):
    shapes = _fresh_shapes(monkeypatch, 3)
    enc, x, _ = _query_encoder("magnn")
    graphs = [_query_graph() if i % 2 else _renamed_query_graph() for i in range(4)]
    others = [_query_graph(types=("Drug", "AdverseEffect", "Finding", t))
              for t in ("Symptom", "Finding", "AdverseEffect")]
    start = threading.Barrier(len(graphs))
    out = [None] * len(graphs)

    def encode(i):
        start.wait()
        out[i] = enc.encode(graphs[i], x).data
        for g in others:            # more shapes than the cache holds
            _graph_cache(g)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=encode, args=(i,)) for i in range(len(graphs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert shapes.cache_info().currsize == 3
    shapes.cache_clear()
    cold = enc.encode(_query_graph(), x).data
    assert all(o is not None and np.array_equal(o, cold) for o in out)


def test_magnn_plan_reads_the_instance_table_not_the_per_node_walk(shapes, monkeypatch):
    def walk(self, *args, **kwargs):
        raise AssertionError("the plan called the per-node walk")

    monkeypatch.setattr(HeteroGraph, "metapath_instances", walk)
    per_path, *_ = magnn_plan(_query_graph(), QUERY_PATHS)
    # Drug-TREAT-Finding has no TREAT edge, so it has no instance
    assert [entry[0] for entry in per_path] == [path.label() for path in QUERY_PATHS[:3]]


def _adjacency_oracle(graph, relation):
    """The per-node construction from graph.edges, walked row by row: row v
    lists N_v^r sorted, each 1/|N_v^r|."""
    row = {nid: i for i, nid in enumerate(graph.node_ids)}
    linked = {nid: set() for nid in graph.node_ids}
    for src, dst, r in graph.edges:
        if relation in (None, r):
            linked[src].add(dst)
            linked[dst].add(src)
    rows, cols, vals = [], [], []
    for nid in graph.node_ids:
        neigh = sorted(linked[nid])
        for u in neigh:
            rows.append(row[nid])
            cols.append(row[u])
            vals.append(1.0 / len(neigh))
    n = len(graph)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _assert_adjacency_matches_oracle(graph, relations):
    for relation in relations:
        got = _relation_adjacency(graph, relation).matrix
        assert csr_arrays(got) == csr_arrays(_adjacency_oracle(graph, relation)), relation


def test_relation_adjacency_matches_per_node_oracle_on_toy_kb(toy_kb):
    # a sparse-id copy too, so rows and ids differ
    sparse_ids = _permuted_copy(toy_kb, 3 * np.arange(len(toy_kb)) + 5)
    for g in (toy_kb, sparse_ids):
        assert "NO_SUCH_RELATION" not in g.edge_types
        _assert_adjacency_matches_oracle(
            g, [None, "NO_SUCH_RELATION", *sorted(g.edge_types)])
    assert _relation_adjacency(toy_kb, "NO_SUCH_RELATION").matrix.nnz == 0


def test_relation_adjacency_matches_per_node_oracle_on_synthetic_kb_and_queries():
    corpus = evalgen.generate_synthetic_kb(evalgen.SynthConfig(seed=1))
    _assert_adjacency_matches_oracle(corpus.kb, [None, *sorted(corpus.kb.edge_types)])
    items = evalgen.corpus_items(corpus, [s.id for s in corpus.snippets[:30]])
    batch = build_query_batch(items, corpus.config.feature_dim)
    assert SELF_EDGE_TYPE in batch.graph.edge_types
    _assert_adjacency_matches_oracle(batch.graph, [None, *sorted(batch.graph.edge_types)])


# ---------------------------------------------------------------------------
# MAGNN operators against a brute-force oracle


def _coo(values, rows, cols, shape):
    return sp.csr_matrix((values, (rows, cols)), shape=shape)


def _assert_magnn_plan_matches_oracle(graph, paths):
    """Each metapath's operators and the fusion's, rebuilt through scipy's
    COO constructor from the simple instances that _brute_force_instances
    enumerates target by target.  Each operator and its transpose must hold
    the same arrays bit for bit, so every product adds in the same order."""
    per_path, covered, segments, indicator = magnn_plan(graph, paths)
    row = {nid: i for i, nid in enumerate(graph.node_ids)}
    n, want, stacked = len(graph), [], []
    for path in paths:
        instances = [inst for v in graph.node_ids
                     for inst in _brute_force_instances(graph, path, v)
                     if len(set(inst)) == len(inst)]
        if not instances:
            continue
        m, width = len(instances), len(path)
        ends = [row[inst[-1]] for inst in instances]
        targets = sorted(set(ends))
        seg = [targets.index(t) for t in ends]
        avg = _coo(np.full(m * width, 1.0 / width), np.repeat(np.arange(m), width),
                   [row[nid] for inst in instances for nid in inst], (m, n))
        gather = _coo(np.ones(m), np.arange(m), ends, (m, n))
        ind = _coo(np.ones(m), seg, np.arange(m), (len(targets), m))
        want.append((path.label(), seg, [avg, gather, ind]))
        stacked += targets
    assert [(label, seg.tolist()) for label, _, _, seg, _ in per_path] == [
        (label, seg) for label, seg, _ in want]
    # each target's instances are one run, which the attention's segment max reads
    assert all((np.diff(seg) >= 0).all() for _, _, _, seg, _ in per_path)
    # the fusion covers exactly the rows that are the target of an instance
    assert covered.tolist() == sorted(set(stacked))
    assert segments.tolist() == [covered.tolist().index(t) for t in stacked]
    k = len(stacked)
    got = [op for _, avg, gather, _, ind in per_path for op in (avg, gather, ind)]
    refs = [op for _, _, ops in want for op in ops]
    got.append(indicator)
    refs.append(_coo(np.ones(k), segments, np.arange(k), (len(covered), k)))
    for op, ref in zip(got, refs, strict=True):
        assert csr_arrays(op.matrix) == csr_arrays(ref)
        assert csr_arrays(op.T.matrix) == csr_arrays(ref.T.tocsr())
    return per_path, covered


def test_magnn_plan_matches_oracle_on_toy_kb_and_skips_what_it_lacks(toy_kb):
    present = [Metapath.parse(text) for text in (
        "Drug-CAUSE-AdverseEffect", "AdverseEffect-INDICATE-Finding",
        "Drug-CAUSE-AdverseEffect-INDICATE-Finding", "Drug-TREAT-Symptom")]
    # a triple the schema lacks, a node type the graph lacks, and both
    lacking = [Metapath.parse(text) for text in (
        "Drug-TREAT-Finding", "Drug-CAUSE-Gene", "Gene-BIND-AdverseEffect-INDICATE-Finding")]
    per_path, covered = _assert_magnn_plan_matches_oracle(toy_kb, present)
    assert [entry[0] for entry in per_path] == [path.label() for path in present]
    mixed, mixed_covered = _assert_magnn_plan_matches_oracle(
        toy_kb, [lacking[0], *present[:2], lacking[1], *present[2:], lacking[2]])
    assert [entry[0] for entry in mixed] == [entry[0] for entry in per_path]
    assert np.array_equal(mixed_covered, covered)
    none, none_covered = _assert_magnn_plan_matches_oracle(toy_kb, lacking)
    assert (none, none_covered.tolist()) == ([], [])


@pytest.mark.parametrize("graph_seed", range(12))
def test_magnn_plan_matches_oracle_on_random_graphs(graph_seed):
    rng = np.random.default_rng(graph_seed)
    g = random_hetero_graph(rng, n_nodes=int(rng.integers(5, 14)), n_types=3,
                            n_edge_types=2, edge_prob=0.2)
    inventory = schema_metapaths(g.schema, limit=0)
    picks = rng.choice(len(inventory), size=min(6, len(inventory)), replace=False)
    paths = [inventory[i] for i in sorted(picks)]
    paths += [Metapath(("T0", "T9"), ("R0",)), Metapath(("T1", "T2"), ("R9",))]
    _assert_magnn_plan_matches_oracle(g, paths)


def test_magnn_plan_matches_oracle_on_a_synthetic_query_batch():
    corpus = evalgen.generate_synthetic_kb(evalgen.SynthConfig(seed=1))
    items = evalgen.corpus_items(corpus, [s.id for s in corpus.snippets[:4]])
    batch = build_query_batch(items, corpus.config.feature_dim)
    per_path, _ = _assert_magnn_plan_matches_oracle(
        batch.graph, schema_metapaths(corpus.kb.schema, limit=0))
    assert any(avg.matrix.nnz == 3 * avg.shape[0] for _, avg, *_ in per_path), (
        "no metapath of three nodes has an instance")


def _assert_table_lists_the_instances_of_each_target(graph, paths):
    """metapath_table against metapath_instances(v, path, anchor="end"), target
    by target in ascending order, instance by instance; the rows revisiting a
    node, counted over `paths`."""
    revisits = 0
    for path in paths:
        table = graph.metapath_table(path)
        want = [list(inst) for v in graph.nodes_of_type(path.tail)
                for inst in graph.metapath_instances(v, path, anchor="end")]
        assert table.dtype == np.int64 and table.shape == (len(want), len(path)), path.label()
        assert graph.id_array[table].tolist() == want, path.label()
        revisits += sum(len(set(inst)) < len(inst) for inst in want)
    return revisits


def test_instance_table_lists_each_targets_instances_on_the_kb_and_a_query_batch():
    corpus = evalgen.generate_synthetic_kb(evalgen.SynthConfig(seed=1))
    kb_paths = schema_metapaths(corpus.kb.schema)
    _assert_table_lists_the_instances_of_each_target(corpus.kb, kb_paths)
    items = evalgen.corpus_items(corpus, [s.id for s in corpus.snippets[:12]])
    batch = build_query_batch(items, corpus.config.feature_dim)
    assert SELF_EDGE_TYPE in batch.graph.edge_types
    # paths over the query graphs' SELF loops revisit their node
    self_paths = [Metapath(("Drug", "Drug"), (SELF_EDGE_TYPE,)),
                  Metapath(("Drug", "Drug", "AdverseEffect"), (SELF_EDGE_TYPE, "CAUSE"))]
    assert _assert_table_lists_the_instances_of_each_target(
        batch.graph, schema_metapaths(corpus.kb.schema, limit=0) + self_paths) > 0


def test_instance_table_keeps_revisits_that_the_plan_drops_on_random_graphs():
    rng = np.random.default_rng(5)
    # two node and two edge types, densely linked: many paths are cyclic
    lacking = [Metapath(("T0", "T9"), ("R0",)), Metapath(("T9", "T0"), ("R0",)),
               Metapath(("T1", "T0"), ("R9",)), Metapath(("T0", "T1", "T0"), ("R0", "R9"))]
    revisits = 0
    for _ in range(8):
        g = random_hetero_graph(rng, n_nodes=int(rng.integers(4, 12)), n_types=2,
                                n_edge_types=2, edge_prob=0.35)
        inventory = schema_metapaths(g.schema, limit=0)
        # three-edge paths too: each two-edge path extended by every triple
        paths = inventory + [Metapath((*p.node_types, d), (*p.edge_types, e))
                             for p in inventory if len(p) == 3
                             for s, e, d in sorted(g.schema.triples) if s == p.tail]
        revisits += _assert_table_lists_the_instances_of_each_target(g, paths + lacking)
        _assert_magnn_plan_matches_oracle(g, paths)
        for path in lacking:
            assert g.metapath_table(path).shape == (0, len(path))
    assert revisits > 0


# ---------------------------------------------------------------------------
# interface contracts


def test_encode_rejects_bad_shapes(toy_kb):
    enc = make_encoder("graphsage", toy_kb, 8)
    with pytest.raises(HetlinkError, match="shape"):
        enc.encode(toy_kb, np.zeros((len(toy_kb), 9)))


def test_encode_rejects_unregistered_node_type(toy_kb):
    enc = make_encoder("graphsage", toy_kb, 8)
    g = HeteroGraph.from_rows([(0, "Gene", "BRCA1", ())], [])
    with pytest.raises(HetlinkError, match="unregistered"):
        enc.encode(g, np.zeros((1, 8)))


def test_training_mode_dropout_needs_rng(toy_kb):
    enc = make_encoder("graphsage", toy_kb, 8, dropout=0.5)
    x = np.zeros((len(toy_kb), 8))
    from hetlink.ndiff import NdiffError

    with pytest.raises(NdiffError):
        enc.encode(toy_kb, x, training=True)


def test_state_dict_roundtrip_and_mismatch(toy_kb):
    # an encoder's state lives in the SiameseModel that holds it
    model1 = SiameseModel(make_encoder("rgcn", toy_kb, 8, seed=0), MatchingHead())
    model2 = SiameseModel(make_encoder("rgcn", toy_kb, 8, seed=99), MatchingHead())
    model2.load_state_dict(model1.state_dict())
    x = np.random.default_rng(6).standard_normal((len(toy_kb), 8))
    assert np.array_equal(model1.encoder.encode(toy_kb, x).data,
                          model2.encoder.encode(toy_kb, x).data)
    state = model1.state_dict()
    state.pop(sorted(state)[0])
    with pytest.raises(HetlinkError, match="missing"):
        model2.load_state_dict(state)


def test_encoders_are_deterministic_given_seed(toy_kb):
    for kind in ("graphsage", "rgcn", "magnn"):
        e1 = make_encoder(kind, toy_kb, 8, seed=11)
        e2 = make_encoder(kind, toy_kb, 8, seed=11)
        assert [p.name for p in e1.parameters()] == [p.name for p in e2.parameters()]
        for p1, p2 in zip(e1.parameters(), e2.parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)
