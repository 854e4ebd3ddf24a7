import json
from pathlib import Path

import numpy as np
import pytest

from hetlink import ndiff
from hetlink.cli import _load_snippets, read_bundle
from hetlink.encoders import AttentionRecord, _magnn_plan
from hetlink.evalgen import DEFAULT_NODE_COUNTS, SynthConfig, generate_synthetic_kb
from hetlink.hetgraph import HeteroGraph, Metapath, build_inverted_index, tokenize
from hetlink.matcher import candidate_ids, snippet_item
from hetlink.querygraph import Mention, TextSnippet, augment_query_graph
from hetlink.termembed import WordVectorStore, random_word_vectors, sif_weight


@pytest.fixture
def toy_kb():
    """Small medical KB with Drug/AdverseEffect/Symptom/Finding nodes.

    Holds the classic facts: Metformin causes Diarrhea which indicates Fever,
    Aspirin causes nausea which indicates renal findings, and the ambiguous
    "ARF" surface resolves between the two acute-failure findings.
    """
    names = [
        ("Aspirin", "Drug"),
        ("Metformin", "Drug"),
        ("nausea", "AdverseEffect"),
        ("Diarrhea", "AdverseEffect"),
        ("headache", "Symptom"),
        ("acute renal failure", "Finding"),
        ("acute respiratory failure", "Finding"),
        ("nephrotoxicity", "Finding"),
        ("proteinuria", "Finding"),
        ("Fever", "Finding"),
    ]
    ids = {name: nid for nid, (name, _) in enumerate(names)}
    g = HeteroGraph.from_rows(
        [(nid, ntype, name, ()) for nid, (name, ntype) in enumerate(names)],
        [(ids[src], ids[dst], etype) for src, dst, etype in [
            ("Aspirin", "headache", "TREAT"),
            ("Aspirin", "nausea", "CAUSE"),
            ("Metformin", "Diarrhea", "CAUSE"),
            ("Diarrhea", "Fever", "INDICATE"),
            ("nausea", "acute renal failure", "INDICATE"),
            ("nausea", "nephrotoxicity", "INDICATE"),
            ("nausea", "proteinuria", "INDICATE"),
        ]])
    g.ids = ids
    return g


@pytest.fixture
def toy_index(toy_kb):
    return build_inverted_index(toy_kb)


@pytest.fixture
def daf_metapath():
    return Metapath.parse("Drug-CAUSE-AdverseEffect-INDICATE-Finding")


@pytest.fixture
def arf_snippet():
    text = ("Aspirin can cause nausea indicating a potential ARF, "
            "nephrotoxicity, and proteinuria")
    mentions = tuple(
        Mention(surface, text.index(surface), text.index(surface) + len(surface),
                category=category)
        for surface, category in [
            ("Aspirin", "Drug"), ("nausea", "AdverseEffect"), ("ARF", "Finding"),
            ("nephrotoxicity", "Finding"), ("proteinuria", "Finding")])
    return TextSnippet("fig3", text, mentions)


@pytest.fixture
def toy_store(toy_kb):
    vocab = {tok for n in toy_kb.nodes() for tok in n.name}
    return random_word_vectors(vocab, 16, seed=7)


@pytest.fixture
def toy_freqs(toy_kb):
    return toy_kb.token_frequencies


def break_params(model_dir, how) -> str:
    """Rewrite the params.npz of `model_dir` with one parameter broken `how`:
    head.tau "missing", head.tau "misshapen" (a scalar), a NaN in the first
    parameter ("nan") or an inf in head.tau ("inf").  Returns the error
    load_model gives for it."""
    path = Path(model_dir) / "params.npz"
    with np.load(path) as npz:
        state = {name: npz[name] for name in npz.files}
    name = next(iter(state)) if how == "nan" else "head.tau"
    if how == "missing":
        del state[name]
        error = f"parameters missing: ['{name}'], unexpected: []"
    elif how == "misshapen":
        state[name] = state[name].reshape(())
        error = f"parameter {name} has shape (), expected (1,)"
    else:
        state[name] = state[name].copy()
        state[name].flat[0] = np.nan if how == "nan" else np.inf
        error = f"parameter {name} holds non-finite values"
    np.savez(path, **state)
    return error


MANIFEST_BREAKS = ["not-object", "encoder-not-object", "encoder-unknown-key",
                   "encoder-wrong-type", "wrong-type", "kb-sha256-not-hex"]


def break_manifest(model_dir, how) -> str:
    """Rewrite the manifest.json of `model_dir` broken `how` (one of
    MANIFEST_BREAKS): a JSON list for the whole manifest, a string for its
    encoder, an extra key "bogus" in its encoder, true for its encoder's
    num_layers, a string for its node_types, or 0 for its kb_sha256.
    Returns the error load_model gives for it."""
    path = Path(model_dir) / "manifest.json"
    manifest = json.loads(path.read_text())
    if how == "not-object":
        manifest, error = [1], "model manifest must be a JSON object, got list"
    elif how == "encoder-not-object":
        manifest["encoder"] = "graphsage"
        error = "model manifest: encoder config must be a JSON object, got str"
    elif how == "encoder-unknown-key":
        manifest["encoder"]["bogus"] = 1
        error = "model manifest: unknown encoder config keys ['bogus']"
    elif how == "encoder-wrong-type":
        manifest["encoder"]["num_layers"] = True
        error = "model manifest: encoder config key 'num_layers' must be int, got True"
    elif how == "wrong-type":
        manifest["node_types"] = "Drug"
        error = "model manifest key 'node_types' must be list[str], got 'Drug'"
    else:
        manifest["kb_sha256"] = 0
        error = "model manifest key 'kb_sha256' must be 64 lowercase hex digits, got 0"
    path.write_text(json.dumps(manifest))
    return error


def csr_arrays(m):
    """Shape, then dtype and bytes of each CSR array: equal values mean the
    same matrix bit for bit, built in the same order."""
    return m.shape, [(a.dtype.str, a.tobytes()) for a in (m.data, m.indices, m.indptr)]


def random_hetero_graph(rng, n_nodes=20, n_types=3, n_edge_types=3,
                        edge_prob=0.15, max_degree=None):
    """Random typed graph for property tests."""
    types = [f"T{i}" for i in range(n_types)]
    nodes = [(i, types[int(rng.integers(n_types))], f"node {i}", ())
             for i in range(n_nodes)]
    etypes = [f"R{i}" for i in range(n_edge_types)]
    degree = {i: 0 for i in range(n_nodes)}
    edges = []
    for u in range(n_nodes):
        for v in range(n_nodes):
            if u == v or rng.random() >= edge_prob:
                continue
            if max_degree is not None and (degree[u] >= max_degree
                                           or degree[v] >= max_degree):
                continue
            edges.append((u, v, etypes[int(rng.integers(n_edge_types))]))
            degree[u] += 1
            degree[v] += 1
    return HeteroGraph.from_rows(nodes, edges)


def neighbors_oracle(graph, v, relation=None) -> set[int]:
    """HeteroGraph.neighbors_by_relation walked over graph.edges row by row:
    the other end of each edge of `relation` (of any relation when it is
    None) with v at an end; an unknown v raises as neighbors does."""
    graph.node_type(v)
    return {dst if src == v else src for src, dst, r in graph.edges
            if v in (src, dst) and relation in (None, r)}


def save_graph(graph, nodes_path, edges_path) -> None:
    """Write `graph` as the node and edge list files that `load_graph` and
    `hetlink ingest` read; a bundle holds its KB as kb.npz instead."""
    with open(nodes_path, "w", encoding="utf-8") as fh:
        for node in graph.nodes():
            syns = "|".join(" ".join(s) for s in node.synonyms)
            fh.write(f"{node.id}\t{node.type}\t{node.surface}\t{syns}\n")
    with open(edges_path, "w", encoding="utf-8") as fh:
        for e in graph.edges:
            fh.write(f"{e.src}\t{e.dst}\t{e.type}\n")


def cli_items(bundle):
    """The KB, word vectors and frequencies of `bundle` (a Path), and the
    items the CLI builds from its snippets.json with the acronym index."""
    kb, store, freqs = read_bundle(bundle)
    index = build_inverted_index(kb)
    items = [item for snippet in _load_snippets(bundle / "snippets.json")
             if (item := snippet_item(kb, index, store, snippet, augment_query_graph))]
    return kb, store, freqs, items


def lexical_pool_oracle(kb, item) -> list[int]:
    """The per-node loop matcher.candidate_pool replaced: the candidate_ids
    nodes whose name or synonyms share a token with the mention surface, or
    all of them when none does."""
    toks = set(tokenize(item.qgraph.mentions[item.mention_node].surface))
    pool = candidate_ids(kb, item).tolist()
    keep = []
    for c in pool:
        node = kb.node(c)
        surface_toks = set(node.name)
        for syn in node.synonyms:
            surface_toks.update(syn)
        if toks & surface_toks:
            keep.append(c)
    return keep or pool


def magnn_plan(graph, paths):
    """encoders._magnn_plan under the cache key an encoder of `paths` uses."""
    return _magnn_plan(graph, paths, tuple(path.label() for path in paths))


def magnn_layer_per_op(encoder, graph, x, k, collect):
    """The MAGNN layer as a chain of ndiff ops, each head on its own: the
    reference that Encoder._magnn_layer's fused per-metapath attention must
    equal bit for bit, in output, gradients and attention records."""
    cfg = encoder.config
    slope = cfg.leaky_slope
    per_path, covered, fusion_segments, fusion_indicator = magnn_plan(graph, cfg.metapaths)
    if not per_path:
        return x
    intras = []
    for label, avg, gather, segments, indicator in per_path:
        n_seg = indicator.shape[0]
        h_mean = ndiff.sparse_matmul(avg, x)
        h_inst = ndiff.matmul(h_mean, encoder._params[f"magnn.W_p[{label}][{k}]"])
        h_tgt = ndiff.sparse_matmul(gather, x)
        cat = ndiff.concat([h_tgt, h_inst], axis=1)
        head_outs = []
        for h in range(cfg.heads):
            a = encoder._params[f"magnn.a[{label}][{k}][h{h}]"]
            logits = ndiff.leaky_relu(ndiff.matmul(cat, a), slope)
            alpha = ndiff.segment_softmax(logits, segments, n_seg)
            if collect is not None:
                collect.append(AttentionRecord(
                    "intra", f"{label}/layer{k}/head{h}",
                    alpha.data.copy(), segments.copy()))
            weighted = ndiff.mul(ndiff.reshape(alpha, (-1, 1)), h_inst)
            head_outs.append(ndiff.elu(ndiff.segment_sum(weighted, indicator, n_seg)))
        intras.append(ndiff.concat(head_outs, axis=1))

    stacked = ndiff.concat(intras, axis=0)
    logits = ndiff.leaky_relu(ndiff.matmul(stacked, encoder._params[f"magnn.beta[{k}]"]), slope)
    beta = ndiff.segment_softmax(logits, fusion_segments, len(covered))
    if collect is not None:
        collect.append(AttentionRecord("inter", f"layer{k}", beta.data.copy(),
                                       fusion_segments.copy()))
    fused = ndiff.segment_sum(ndiff.mul(ndiff.reshape(beta, (-1, 1)), stacked),
                              fusion_indicator, len(covered))
    return ndiff.scatter_rows(x, covered, fused)


# -- per-node references for the state derived from a graph's columns --------
#
# Each walks the Node objects that node() builds, as the library did before it
# read the name and synonym columns; the column-built state must equal them bit
# for bit and in the same dict order.

def index_entries_oracle(graph, acronyms=True) -> dict:
    """build_inverted_index's entries: every node under its name and synonyms
    and, with `acronyms`, a name of two or more tokens under its initials."""
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
    return {key: frozenset(ids) for key, ids in entries.items()}


def token_ids_oracle(graph) -> dict:
    """HeteroGraph.token_ids: each name or synonym token -> the ascending ids
    of the nodes holding it, tokens in order of first appearance."""
    holders: dict[str, list[int]] = {}
    for node in graph.nodes():
        for tok in dict.fromkeys([*node.name, *(t for syn in node.synonyms for t in syn)]):
            holders.setdefault(tok, []).append(node.id)
    return {tok: np.array(ids, dtype=np.int64) for tok, ids in holders.items()}


def token_frequencies_oracle(graph) -> dict:
    """HeteroGraph.token_frequencies: each name and synonym token's count over the count
    of all their tokens."""
    counts: dict[str, int] = {}
    for node in graph.nodes():
        for term in (node.name, *node.synonyms):
            for tok in term:
                counts[tok] = counts.get(tok, 0) + 1
    total = sum(counts.values())
    return {t: c / total for t, c in counts.items()}


def node_features_oracle(graph, store, freqs, chunk=1024) -> np.ndarray:
    """init_node_features: each node's name's SIF-weighted mean, the names of
    one token count weighted together, `chunk` at a time."""
    nodes = graph.nodes()
    out = np.zeros((len(nodes), store.dim))
    vocab: dict[str, int] = {}
    by_count: dict[int, tuple[list, list]] = {}
    for row, node in enumerate(nodes):
        rows, toks = by_count.setdefault(len(node.name), ([], []))
        rows.append(row)
        toks.append([vocab.setdefault(t, len(vocab)) for t in node.name])
    vectors = np.array([store.get(t) for t in vocab]).reshape(len(vocab), store.dim)
    weights = np.array([sif_weight(t, freqs) for t in vocab])
    for rows, toks in by_count.values():
        rows, toks = np.array(rows), np.array(toks)
        for lo in range(0, len(rows), chunk):
            w = weights[toks[lo:lo + chunk]]
            out[rows[lo:lo + chunk]] = ((w[:, None, :] @ vectors[toks[lo:lo + chunk]])[:, 0]
                                        / w.sum(1, keepdims=True))
    return out


def odd_kb():
    """A KB whose names and synonyms take normalize's path, not one match:
    punctuated, non-ASCII, mixed case, a synonym without a token; ids given
    out of order; and its word vectors."""
    kb = HeteroGraph.from_rows(
        [(40, "Finding", "Fever, Acute", ("fièvre aiguë", "--", "FEVER")),
         (7, "Drug", "Ängström café", ["naïve  bayes", "x"]),
         (2, "Finding", "déjà-vu (acute)", ()),
         (11, "Drug", "aspirin aspirin tablet", ("ASA",)),
         (5, "Symptom", "Renal\u00a0failure\tacute", ())],
        [(7, 2, "CAUSE"), (2, 40, "INDICATE"), (40, 7, "CAUSE"), (11, 5, "TREAT")])
    return kb, random_word_vectors({"fever", "acute", "café", "aspirin", "failure"}, 4, seed=3)


ORACLE_KBS = ["seed1", "seed2", "seed3", "seed1-10x", "odd"]


@pytest.fixture(scope="session", params=ORACLE_KBS)
def oracle_kb(request) -> tuple[HeteroGraph, WordVectorStore]:
    """A KB and its word vectors: gen-synth's at seeds 1-3, seed 1 at 10x
    (every node count times 10), and odd_kb."""
    if request.param == "odd":
        return odd_kb()
    seed = int(request.param[4])
    scale = 10 if request.param.endswith("10x") else 1
    corpus = generate_synthetic_kb(SynthConfig.from_dict(
        {"node_counts": {t: scale * n for t, n in DEFAULT_NODE_COUNTS.items()},
         "seed": seed, "snippets": 0}))
    return corpus.kb, corpus.store
