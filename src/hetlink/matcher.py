"""Siamese matcher: shared-parameter encoding of KB and query graphs,
the matching head, the pair loss, the training loop, and ranked disambiguation.

Both "towers" are literally the same Encoder object, so weight sharing is
structural rather than a synchronization concern.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
from dataclasses import asdict, dataclass, field

import numpy as np

from . import ndiff
from .encoders import Encoder, EncoderConfig
from .hetgraph import (HeteroGraph, HetlinkError, InvertedIndex, file_sha256, read_json,
                       read_npz, read_settings, tokenize)
from .ndiff import Adam, Parameter, Tensor
from .negsample import HardNegativeSampler, uniform_negatives
from .querygraph import (GazetteerExtractor, GoldMentionExtractor, QueryGraph,
                         TextSnippet)
from .termembed import WordVectorStore


# the matching head's name in model manifests, the only one there is
HEAD_KIND = "dot"
# the negative samplers TrainConfig.sampler names
SAMPLERS = ("uniform", "hard")
# model manifest keys: three Encoder attributes, and the entries load_model
# reads apart ("encoder", "head", "kb_sha256") or hands back ("train")
MANIFEST_KEYS = {"feature_dim": "feature_dim", "node_types": "node_types",
                 "edge_types": "edge_types", "encoder": None, "head": None,
                 "kb_sha256": None, "train": None}
# the model directory's file of unit KB rows that training kept (save_model)
KB_ROWS_FILE = "kb_rows.npz"


class MatchingHead:
    """Temperature-scaled cosine similarity of a pair of embeddings.

    Rows are unit-normalized and scaled by a learnable temperature: unbounded
    logits otherwise let the optimizer memorize training pairs instead of
    learning a transferable similarity.  Model manifests name it HEAD_KIND.
    """

    def __init__(self):
        self.tau = Parameter(np.array([10.0]), "head.tau")

    def parameters(self) -> list[Parameter]:
        return [self.tau]

    def score_pairs(self, h_u: Tensor, h_v: Tensor) -> Tensor:
        """Row-wise logits for aligned (n, d) embedding pairs."""
        if h_u.shape != h_v.shape:
            raise HetlinkError(f"embedding shape mismatch {h_u.shape} vs {h_v.shape}")
        cos = ndiff.sum_axis1(ndiff.mul(ndiff.l2_normalize_rows(h_u),
                                        ndiff.l2_normalize_rows(h_v)))
        return ndiff.mul(cos, self.tau)

    def score_one_vs_many(self, h_u: np.ndarray, unit_vs: np.ndarray) -> np.ndarray:
        """Inference-only scores of one query embedding against candidate rows
        already scaled to unit norm (as kb_embeddings returns them), the same
        elementwise products and row sums as score_pairs."""
        u = ndiff.l2_normalize_rows(h_u[None, :]).data
        return (u * unit_vs).sum(axis=1) * self.tau.data


def pair_loss(scores_pos: Tensor, scores_neg: Tensor | None) -> Tensor:
    """-sum log sigmoid(s_pos) - sum log sigmoid(-s_neg), via softplus."""
    if scores_pos.data.size == 0:
        raise HetlinkError("pair_loss needs at least one positive score")
    loss = ndiff.sum_all(ndiff.softplus(ndiff.neg(scores_pos)))
    if scores_neg is not None and scores_neg.data.size:
        loss = ndiff.add(loss, ndiff.sum_all(ndiff.softplus(scores_neg)))
    return loss


@dataclass
class SiameseModel:
    encoder: Encoder
    head: MatchingHead
    # the sha256 of the kb.npz the model was trained on, for save_model
    kb_sha256: str | None = field(default=None, init=False, repr=False, compare=False)
    # (encoder, kb, kb_features, encoder parameter values as one flat array,
    # unit KB rows) of the last disambiguate call that could be reused
    _kb_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def parameters(self) -> list[Parameter]:
        """The encoder's parameters in construction order, then the head's."""
        return self.encoder.parameters() + self.head.parameters()

    def state_dict(self) -> dict[str, np.ndarray]:
        """A copy of every parameter's value by name, in parameters() order."""
        return {p.name: p.data.copy() for p in self.parameters()}

    def load_state_dict(self, state) -> None:
        """Set every parameter from `state`, or none: HetlinkError when a
        parameter is missing, unexpected, misshapen or not finite."""
        params = {p.name: p for p in self.parameters()}
        missing, unexpected = sorted(set(params) - set(state)), sorted(set(state) - set(params))
        if missing or unexpected:
            raise HetlinkError(f"parameters missing: {missing}, unexpected: {unexpected}")
        values = {name: np.asarray(state[name], dtype=np.float64) for name in params}
        for name, p in params.items():
            if values[name].shape != p.data.shape:
                raise HetlinkError(f"parameter {name} has shape {values[name].shape}, "
                                   f"expected {p.data.shape}")
            if not np.isfinite(values[name]).all():
                raise HetlinkError(f"parameter {name} holds non-finite values")
        for name, p in params.items():
            p.data[...] = values[name]


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    patience: int = 30
    lr: float = 1e-3
    weight_decay: float = 1e-3
    negatives_per_positive: int = 5
    sampler: str = "uniform"            # uniform | hard
    curriculum: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise HetlinkError("epochs must be >= 1")
        if self.patience < 0:
            raise HetlinkError("patience must be >= 0")
        if self.lr <= 0:
            raise HetlinkError("lr must be > 0")
        if self.weight_decay < 0:
            raise HetlinkError("weight_decay must be >= 0")
        if self.sampler not in SAMPLERS:
            raise HetlinkError(f"unknown sampler {self.sampler!r}")
        if self.negatives_per_positive < 0:
            raise HetlinkError("negatives_per_positive must be >= 0")
        if self.seed < 0:
            raise HetlinkError("seed must be >= 0")


@dataclass
class TrainItem:
    """One snippet: its query graph, features, the ambiguous mention's node,
    and the gold link (-1 when the mention is unlabelled)."""
    snippet_id: str
    qgraph: QueryGraph
    features: np.ndarray
    mention_node: int
    gold: int


def snippet_item(kb: HeteroGraph, index: InvertedIndex, store: WordVectorStore,
                 snippet: TextSnippet, build) -> TrainItem | None:
    """The one snippet -> item rule.  Mentions are the gold ones if the snippet
    has any, else the gazetteer's over `index`; the first that `index` does
    not match is the ambiguous one.  `build` makes the query graph
    (augment_query_graph, or fully_connected_query_graph for the ablation),
    whose features weigh tokens by `kb.token_frequencies`.  None when
    `index` matches every mention."""
    extractor = GoldMentionExtractor() if snippet.mentions else GazetteerExtractor(index)
    qg = build(kb, index, snippet, extractor)
    if not qg.unknown_nodes:
        return None
    node = qg.unknown_nodes[0]
    link = qg.mentions[node].link_id
    return TrainItem(snippet.id, qg, qg.features(store, kb.token_frequencies), node,
                     gold=-1 if link is None else int(link))


@dataclass
class QueryBatch:
    """Disjoint union of query graphs so one forward covers every snippet."""
    graph: HeteroGraph
    features: np.ndarray
    mention_ids: list[int]              # global node id of each item's mention


def build_query_batch(items: list[TrainItem], feature_dim: int) -> QueryBatch:
    """The disjoint union of the items' query graphs, in item order, built
    from their columns.  A query graph's node ids are its rows 0..n-1, so each
    item's nodes and edges are its own shifted by the node count of the items
    before it."""
    graphs = [item.qgraph.graph for item in items]
    offsets = np.cumsum([0] + [len(g) for g in graphs]).tolist()
    nodes = [[x for g in graphs for x in g.node_columns()[k]] for k in range(1, 4)]
    edges = [g.edge_columns() for g in graphs]      # src and dst rows, type codes, types
    ends = np.concatenate([np.zeros((2, 0), dtype=np.int64)]
                          + [o + np.array(e[:2]) for o, e in zip(offsets, edges)], axis=1)
    union = HeteroGraph((range(offsets[-1]), *nodes),
                        (*ends, [e[3][code] for e in edges for code in e[2].tolist()]))
    features = (np.concatenate([item.features for item in items], axis=0) if items
                else np.zeros((0, feature_dim)))
    return QueryBatch(union, features, [offset + item.mention_node
                                        for offset, item in zip(offsets, items)])


def candidate_ids(kb: HeteroGraph, item: TrainItem) -> np.ndarray:
    """KB candidates of the mention's inferred types (its category, when that
    is a KB type), all nodes when no type is inferred: a read-only int64 array
    of ascending ids."""
    types = tuple(t for t in item.qgraph.inferred_types.get(item.mention_node, ())
                  if t in kb.node_types)
    if not types:
        return kb.id_array
    if len(types) == 1:
        return kb.ids_of_type(types[0])
    pool = np.unique(np.concatenate([kb.ids_of_type(t) for t in types]))
    pool.flags.writeable = False
    return pool


def candidate_pool(kb: HeteroGraph, item: TrainItem) -> np.ndarray:
    """The pool that eval and disambiguate rank: the candidate_ids nodes that
    share a name or synonym token with the mention, all of them when none
    does; a read-only int64 array of ascending ids.

    The union of the mention tokens' ids (a few dozen) is looked up in the
    type pool by binary search, so the pool itself is never scanned."""
    pool = candidate_ids(kb, item)
    table = kb.token_ids
    hits = [table[t] for t in set(tokenize(item.qgraph.mentions[item.mention_node].surface))
            if t in table]
    if not hits:
        return pool
    hits = hits[0] if len(hits) == 1 else np.unique(np.concatenate(hits))
    at = np.minimum(np.searchsorted(pool, hits), len(pool) - 1)
    narrowed = hits[pool[at] == hits]
    if not len(narrowed):
        return pool
    narrowed.flags.writeable = False
    return narrowed


@dataclass
class TrainResult:
    history: list[dict]
    best_epoch: int
    best_metric: float
    best_state: dict[str, np.ndarray]
    config: TrainConfig
    # the unit KB rows that validated best_state (None without validation)
    kb_rows: np.ndarray | None


def order_by_score(ids: np.ndarray, scores: np.ndarray,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first `k` of `ids` (an int64 array) and their `scores` by
    descending score, ties by ascending id, as an id array and a score array.

    Only the ids scoring at least the k-th best score are sorted, so the
    result equals the first k of the full sort, ties at the k-th score
    included."""
    if k <= 0:
        return ids[:0], scores[:0]
    if k < len(ids):
        neg = -scores
        kth = np.partition(neg, k - 1)[k - 1]
        keep = ~(neg > kth)         # NaN scores, which sort last, are kept too
        ids, scores = ids[keep], scores[keep]
    order = np.lexsort((ids, -scores))[:k]
    return ids[order], scores[order]


def _frozen_array(a) -> bool:
    """True when `a` and every array it views are read-only and the last of
    them owns its memory, so no writeable array shares `a`'s values."""
    while isinstance(a, np.ndarray):
        if a.flags.writeable:
            return False
        a = a.base
    return a is None


def kb_embeddings(model: SiameseModel, kb: HeteroGraph, kb_features: np.ndarray) -> np.ndarray:
    """The KB encoded in eval mode with unit-norm rows, in kb.node_ids order,
    read-only; encoded on every call."""
    with ndiff.no_grad():
        unit = ndiff.l2_normalize_rows(model.encoder.encode(kb, kb_features)).data
    unit.flags.writeable = False
    return unit


def kept_kb_rows(model: SiameseModel, directory, kb: HeteroGraph,
                 kb_sha256: str) -> np.ndarray | None:
    """The unit KB rows, read-only, that `directory` (as load_model just read
    `model` from it) kept under the _rows_key of `kb_sha256`, that of the
    kb.npz `kb` was read from, when they hold a row per node of `kb`; else
    None.  HetlinkError for a rows file that is not a readable .npz archive."""
    path = os.path.join(directory, KB_ROWS_FILE)
    if not os.path.exists(path):
        return None
    kept = read_npz(path)
    rows = kept.get("rows")
    if (rows is None or rows.dtype != np.float64
            or str(kept.get("key")) != _rows_key(kb_sha256, directory)
            or rows.shape != (len(kb), model.encoder.config.dim)):
        return None
    rows.flags.writeable = False
    return rows


def rank_items(model: SiameseModel, kb: HeteroGraph, kb_unit: np.ndarray,
               batch: QueryBatch, pools: list[np.ndarray],
               k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Encode `batch` in eval mode and rank each of its mentions' KB candidate
    pools (int64 id arrays, as candidate_ids and candidate_pool return them)
    against `kb_unit`, the KB's unit-norm rows.  Pools read their rows
    through kb.row_selector, a view when the pool is a run of kb.node_ids.

    Returns one (int64 ids, scores) array pair per mention, its top `k`, best
    first, ties by id: the single ranking step behind validation, eval and
    disambiguation."""
    with ndiff.no_grad():
        q_emb = model.encoder.encode(batch.graph, batch.features).data
    return [order_by_score(pool, model.head.score_one_vs_many(
                q, kb_unit[kb.row_selector(pool)]), k)
            for q, pool in zip(q_emb[batch.mention_ids], pools)]


def train(model: SiameseModel, kb: HeteroGraph, kb_features: np.ndarray,
          train_items: list[TrainItem], val_items: list[TrainItem],
          config: TrainConfig) -> TrainResult:
    """Full-batch training with curriculum negative scheduling and early
    stopping on validation rank-1 F1 over each mention's whole candidate_ids
    pool (training loss when no validation set)."""
    if not train_items:
        raise HetlinkError("no training items")
    hard_sampler = HardNegativeSampler(kb, kb_features) if config.sampler == "hard" else None

    batch = build_query_batch(train_items, model.encoder.feature_dim)
    val_batch = build_query_batch(val_items, model.encoder.feature_dim)
    val_pools = [candidate_ids(kb, item) for item in val_items]
    gold_rows = kb.rows([it.gold for it in train_items])
    contexts = [frozenset().union(*item.qgraph.matches.values()) - {item.gold}
                for item in train_items]

    opt = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    history: list[dict] = []
    best_metric = -np.inf
    best_epoch = -1
    best_state = model.state_dict()
    best_rows = None                    # the unit KB rows that validated best_state

    for epoch in range(config.epochs):
        rng = np.random.default_rng([config.seed, epoch])

        # negatives for this epoch
        neg_q_rows: list[int] = []
        neg_kb_ids: list[int] = []
        use_hard = (config.sampler == "hard"
                    and not (config.curriculum and epoch == 0))
        for i, item in enumerate(train_items):
            k = config.negatives_per_positive
            if k == 0:
                continue
            if use_hard:
                negs, _ = hard_sampler.sample(item.gold, k, rng, exclude=contexts[i])
            else:
                negs = uniform_negatives(kb, k, rng, {item.gold})
            neg_q_rows.extend([batch.mention_ids[i]] * len(negs))
            neg_kb_ids.extend(negs)

        # forward
        h_q_all = model.encoder.encode(batch.graph, batch.features,
                                       training=True, rng=rng)
        h_kb_all = model.encoder.encode(kb, kb_features, training=True, rng=rng)
        h_pos_q = ndiff.gather_rows(h_q_all, batch.mention_ids)
        h_pos_kb = ndiff.gather_rows(h_kb_all, gold_rows)
        s_pos = model.head.score_pairs(h_pos_q, h_pos_kb)
        s_neg = None
        if neg_kb_ids:
            h_neg_q = ndiff.gather_rows(h_q_all, neg_q_rows)
            h_neg_kb = ndiff.gather_rows(h_kb_all, kb.rows(neg_kb_ids))
            s_neg = model.head.score_pairs(h_neg_q, h_neg_kb)
        loss = pair_loss(s_pos, s_neg)
        loss_value = float(loss.data)
        if not np.isfinite(loss_value):
            raise HetlinkError(
                f"non-finite loss {loss_value} at epoch {epoch}; "
                f"pos range [{s_pos.data.min()}, {s_pos.data.max()}]")
        ndiff.backward(loss)
        opt.step()

        # validation metric (eval mode, no dropout)
        if val_items:
            kb_unit = kb_embeddings(model, kb, kb_features)
            ranked = rank_items(model, kb, kb_unit, val_batch, val_pools, 1)
            metric = sum(int(ids[0]) == item.gold
                         for (ids, _), item in zip(ranked, val_items)) / len(val_items)
        else:
            kb_unit, metric = None, -loss_value
        history.append({"epoch": epoch, "loss": loss_value, "val_f1": max(metric, 0.0)})

        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_state = model.state_dict()
            best_rows = kb_unit
        elif epoch - best_epoch >= config.patience:
            break

    model.load_state_dict(best_state)
    return TrainResult(history, best_epoch, best_metric, best_state, config, best_rows)


def disambiguate(model: SiameseModel, kb: HeteroGraph, kb_features: np.ndarray,
                 qgraph: QueryGraph, q_features: np.ndarray, mention_node: int,
                 k: int) -> list[tuple[int, float]]:
    """Top-k (node id, score) of the mention's candidate_pool, descending
    score, ties by id.  The only code that reads or writes the KB memo: the
    rows are reused while the encoder, the `kb` object and the read-only
    `kb_features` array are the same ones and the encoder's parameters are
    equal by value to those that encoded them; else they are encoded anew."""
    if mention_node not in qgraph.graph:
        raise HetlinkError(f"unknown mention node {mention_node}")
    # one flat copy of every parameter value: one comparison checks them all
    values = np.concatenate([p.data.ravel() for p in model.encoder.parameters()])
    encoder, memo_kb, memo_features, memo_values, kb_unit = model._kb_memo or (None,) * 5
    if not (encoder is model.encoder and memo_kb is kb and memo_features is kb_features
            and np.array_equal(values, memo_values)):
        kb_unit = kb_embeddings(model, kb, kb_features)
        if _frozen_array(kb_features):
            model._kb_memo = (model.encoder, kb, kb_features, values, kb_unit)
    item = TrainItem("q", qgraph, q_features, mention_node, gold=-1)
    batch = QueryBatch(qgraph.graph, q_features, [mention_node])
    [(ids, scores)] = rank_items(model, kb, kb_unit, batch, [candidate_pool(kb, item)], k)
    return list(zip(ids.tolist(), scores.tolist()))


# -- model persistence -----------------------------------------------------

def source_sha256() -> str:
    """A sha256 of the hetlink modules' names and bytes, so that KB rows kept
    by other code are never read as this code's."""
    here = os.path.dirname(os.path.abspath(__file__))
    return hashlib.sha256(" ".join(f"{name} {file_sha256(os.path.join(here, name))}"
                                   for name in sorted(os.listdir(here))
                                   if name.endswith(".py")).encode()).hexdigest()


def _rows_key(kb_sha256: str, directory) -> str:
    """What kept KB rows in model directory `directory` hold for: the sha256
    of the kb.npz they encode, of the params.npz and manifest.json (its
    encoder settings) that encoded them and of the hetlink sources."""
    return " ".join([kb_sha256, file_sha256(os.path.join(directory, "params.npz")),
                     file_sha256(os.path.join(directory, "manifest.json")), source_sha256()])


def save_model(model: SiameseModel, directory, result: TrainResult | None = None) -> None:
    """`directory` (made if need be) with the model's state_dict in
    params.npz and manifest.json holding every EncoderConfig field
    (metapaths as labels) and the model's kb_sha256 when set.  Given the
    `result` that trained the model, also every TrainConfig field in the
    manifest's "train" block and each epoch's loss and validation F1 in
    history.csv; and, with kb_sha256 set and the model at result.best_state,
    result.kb_rows and their _rows_key in KB_ROWS_FILE."""
    cfg = model.encoder.config
    manifest = {
        "encoder": {**asdict(cfg), "metapaths": [m.label() for m in cfg.metapaths]},
        "feature_dim": model.encoder.feature_dim,
        "node_types": model.encoder.node_types,
        "edge_types": model.encoder.edge_types,
        "head": HEAD_KIND,
    }
    if model.kb_sha256 is not None:
        manifest["kb_sha256"] = model.kb_sha256
    if result is not None:
        manifest["train"] = asdict(result.config)
    os.makedirs(directory, exist_ok=True)
    # no file of an earlier save stays: a save cut short leaves no manifest
    for name in ("manifest.json", "history.csv", KB_ROWS_FILE):
        if os.path.exists(os.path.join(directory, name)):
            os.remove(os.path.join(directory, name))
    state = model.state_dict()
    np.savez(os.path.join(directory, "params.npz"), **state)
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    if result is None:
        return
    with open(os.path.join(directory, "history.csv"), "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([("epoch", "loss", "val_f1")] + [
            (row["epoch"], f"{row['loss']:.12g}", f"{row['val_f1']:.12g}") for row in result.history])
    if (model.kb_sha256 is not None and result.kb_rows is not None
            and all(np.array_equal(state.get(name), value)
                    for name, value in result.best_state.items())):
        np.savez(os.path.join(directory, KB_ROWS_FILE), rows=result.kb_rows,
                 key=_rows_key(model.kb_sha256, directory))


def load_model(directory) -> tuple[SiameseModel, dict]:
    """The model save_model wrote to `directory`, and its manifest; HetlinkError
    for a manifest that is not UTF-8 JSON or not a JSON object, an unknown key
    or a value of the wrong type, another head, a missing key, an encoder it
    cannot build, a params.npz that is not a readable .npz archive, or
    parameters load_state_dict rejects; the model keeps the manifest's kb_sha256.
    It reads no KB_ROWS_FILE: kept_kb_rows does, for a KB."""
    manifest = read_json(os.path.join(directory, "manifest.json"))
    shape = read_settings(Encoder, manifest, MANIFEST_KEYS, "model manifest")
    if manifest.get("head") != HEAD_KIND:
        raise HetlinkError(f"unknown matching head {manifest.get('head')!r}; "
                           f"only {HEAD_KIND!r} is supported")
    missing = [k for k in ("encoder", "feature_dim", "node_types", "edge_types")
               if k not in manifest]
    if missing:
        raise HetlinkError(f"model manifest lacks {missing}")
    kb_sha256 = manifest.get("kb_sha256")
    if kb_sha256 is not None and not (isinstance(kb_sha256, str)
                                      and re.fullmatch("[0-9a-f]{64}", kb_sha256)):
        raise HetlinkError(f"model manifest key 'kb_sha256' must be 64 lowercase hex "
                           f"digits, got {kb_sha256!r}")
    try:
        encoder = Encoder(EncoderConfig.from_dict(manifest["encoder"]), **shape)
    except HetlinkError as exc:
        raise HetlinkError(f"model manifest: {exc}") from None
    model = SiameseModel(encoder, MatchingHead())
    model.load_state_dict(read_npz(os.path.join(directory, "params.npz")))
    model.kb_sha256 = kb_sha256
    return model, manifest
