"""Siamese matcher: shared-parameter encoding of KB and query graphs,
the matching head, the pair loss, the training loop, and ranked disambiguation.

Both "towers" are literally the same Encoder object, so weight sharing is
structural rather than a synchronization concern.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import ndiff
from .encoders import Encoder, EncoderConfig, EncoderError
from .hetgraph import HeteroGraph, InvertedIndex
from .ndiff import Adam, Parameter, Tensor
from .negsample import HardNegativeSampler, UniformSampler
from .querygraph import (GazetteerExtractor, GoldMentionExtractor, QueryGraph,
                         TextSnippet)
from .termembed import FrequencyTable, WordVectorStore


# the matching head's name in model manifests, the only one there is
HEAD_KIND = "dot"


class MatcherError(Exception):
    pass


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
            raise MatcherError(f"embedding shape mismatch {h_u.shape} vs {h_v.shape}")
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
        raise MatcherError("pair_loss needs at least one positive score")
    loss = ndiff.sum_all(ndiff.softplus(ndiff.neg(scores_pos)))
    if scores_neg is not None and scores_neg.data.size:
        loss = ndiff.add(loss, ndiff.sum_all(ndiff.softplus(scores_neg)))
    return loss


@dataclass
class SiameseModel:
    encoder: Encoder
    head: MatchingHead
    # (encoder, kb, kb_features, encoder parameter values, unit KB rows) of
    # the last kb_embeddings call that could be reused
    _kb_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def parameters(self) -> list[Parameter]:
        """The encoder's parameters in construction order, then the head's."""
        return self.encoder.parameters() + self.head.parameters()

    def state_dict(self) -> dict[str, np.ndarray]:
        """A copy of every parameter's value by name, in parameters() order."""
        return {p.name: p.data.copy() for p in self.parameters()}

    def load_state_dict(self, state) -> None:
        """Set every parameter from `state`, or none: MatcherError when a
        parameter is missing, unexpected, misshapen or not finite."""
        params = {p.name: p for p in self.parameters()}
        missing, unexpected = sorted(set(params) - set(state)), sorted(set(state) - set(params))
        if missing or unexpected:
            raise MatcherError(f"parameters missing: {missing}, unexpected: {unexpected}")
        values = {name: np.asarray(state[name], dtype=np.float64) for name in params}
        for name, p in params.items():
            if values[name].shape != p.data.shape:
                raise MatcherError(f"parameter {name} has shape {values[name].shape}, "
                                   f"expected {p.data.shape}")
            if not np.isfinite(values[name]).all():
                raise MatcherError(f"parameter {name} holds non-finite values")
        for name, p in params.items():
            p.data[...] = values[name]


@dataclass
class TrainConfig:
    epochs: int = 100
    patience: int = 30
    lr: float = 1e-3
    weight_decay: float = 1e-3
    negatives_per_positive: int = 5
    sampler: str = "uniform"            # uniform | hard
    curriculum: bool = True
    seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1:
            raise MatcherError("epochs must be >= 1")
        if self.patience > self.epochs:
            raise MatcherError("patience must be <= epochs")
        if self.sampler not in ("uniform", "hard"):
            raise MatcherError(f"unknown sampler {self.sampler!r}")
        if self.negatives_per_positive < 0:
            raise MatcherError("negatives_per_positive must be >= 0")


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
                 freqs: FrequencyTable, snippet: TextSnippet, build) -> TrainItem | None:
    """The one snippet -> item rule.  Mentions are the gold ones if the snippet
    has any, else the gazetteer's over `index`; the first that `index` does
    not match is the ambiguous one.  `build` makes the query graph
    (augment_query_graph, or fully_connected_query_graph for the ablation).
    None when `index` matches every mention."""
    extractor = GoldMentionExtractor() if snippet.mentions else GazetteerExtractor(index)
    qg = build(kb, index, snippet, extractor)
    if not qg.unknown_nodes:
        return None
    node = qg.unknown_nodes[0]
    link = qg.mentions[node].link_id
    return TrainItem(snippet.id, qg, qg.features(store, freqs), node,
                     gold=-1 if link is None else int(link))


@dataclass
class QueryBatch:
    """Disjoint union of query graphs so one forward covers every snippet."""
    graph: HeteroGraph
    features: np.ndarray
    mention_ids: list[int]              # global node id of each item's mention


def build_query_batch(items: list[TrainItem], feature_dim: int) -> QueryBatch:
    union = HeteroGraph()
    feats = []
    mention_ids = []
    for item in items:
        g = item.qgraph.graph
        remap = {}
        for node in g.nodes():
            remap[node.id] = union.add_node(node.type, node.name)
        for e in g.edges:
            union.add_edge(remap[e.src], remap[e.dst], e.type)
        feats.append(item.features)
        mention_ids.append(remap[item.mention_node])
    union.freeze()
    features = (np.concatenate(feats, axis=0) if feats
                else np.zeros((0, feature_dim)))
    return QueryBatch(union, features, mention_ids)


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


@dataclass
class TrainResult:
    history: list[dict]
    best_epoch: int
    best_metric: float
    best_state: dict[str, np.ndarray]

    def write_history_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["epoch", "loss", "val_f1"])
            writer.writeheader()
            for row in self.history:
                writer.writerow({"epoch": row["epoch"],
                                 "loss": f"{row['loss']:.12g}",
                                 "val_f1": f"{row['val_f1']:.12g}"})


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


def kb_embeddings(model: SiameseModel, kb: HeteroGraph,
                  kb_features: np.ndarray) -> np.ndarray:
    """The KB encoded in eval mode with unit-norm rows, in kb.node_ids order.

    The result is memoised on the model and reused while the encoder, the
    frozen `kb` object and the read-only `kb_features` array are the same
    ones and the encoder's parameters are equal by value to those it was
    computed with; a writeable `kb_features` array is encoded on every call."""
    params = model.encoder.parameters()
    if model._kb_memo is not None:
        encoder, memo_kb, memo_features, values, unit = model._kb_memo
        if (encoder is model.encoder and memo_kb is kb and memo_features is kb_features
                and all(np.array_equal(p.data, v) for p, v in zip(params, values))):
            return unit
    # take .data first so the encode graph is freed before the rows are scaled
    emb = model.encoder.encode(kb, kb_features).data
    unit = ndiff.l2_normalize_rows(emb).data
    unit.flags.writeable = False
    if _frozen_array(kb_features):
        model._kb_memo = (model.encoder, kb, kb_features,
                          [p.data.copy() for p in params], unit)
    return unit


def rank_candidates(model: SiameseModel, kb: HeteroGraph, kb_unit: np.ndarray,
                    q_rows: np.ndarray, pools: list[np.ndarray],
                    k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rank each query row's KB candidate pool (an int64 id array, as
    candidate_ids returns it) against `kb_unit`, the unit-norm KB rows of
    kb_embeddings.  Pools read their rows through kb.row_selector, a view
    when the pool is a run of kb.node_ids.

    Returns one (int64 ids, scores) array pair per query, its top `k`, best
    first, ties by id: the single ranking step behind validation, eval and
    disambiguation."""
    return [order_by_score(pool, model.head.score_one_vs_many(
                q, kb_unit[kb.row_selector(pool)]), k)
            for q, pool in zip(q_rows, pools)]


def rank_items(model: SiameseModel, kb: HeteroGraph, kb_features: np.ndarray,
               batch: QueryBatch, pools: list[np.ndarray],
               k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Encode `batch` in eval mode and rank the top `k` of each of its
    mentions' candidate pools against the KB embeddings."""
    kb_unit = kb_embeddings(model, kb, kb_features)
    q_emb = model.encoder.encode(batch.graph, batch.features).data
    return rank_candidates(model, kb, kb_unit, q_emb[batch.mention_ids], pools, k)


def train(model: SiameseModel, kb: HeteroGraph, kb_features: np.ndarray,
          train_items: list[TrainItem], val_items: list[TrainItem],
          config: TrainConfig) -> TrainResult:
    """Full-batch training with curriculum negative scheduling and early
    stopping on validation rank-1 F1 (training loss when no validation set)."""
    config.validate()
    if not train_items:
        raise MatcherError("no training items")
    hard_sampler = HardNegativeSampler(kb, kb_features) if config.sampler == "hard" else None
    uniform = UniformSampler(kb)

    batch = build_query_batch(train_items, model.encoder.feature_dim)
    val_batch = build_query_batch(val_items, model.encoder.feature_dim)
    val_pools = [candidate_ids(kb, item) for item in val_items]
    gold_rows = kb.rows([it.gold for it in train_items])

    opt = Adam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    history: list[dict] = []
    best_metric = -np.inf
    best_epoch = -1
    best_state = model.state_dict()

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
                context = frozenset().union(*item.qgraph.matches.values()) \
                    if item.qgraph.matches else frozenset()
                negs, _ = hard_sampler.sample(item.gold, k, rng,
                                              exclude=context - {item.gold})
            else:
                negs = uniform.draw(min(k, len(kb) - 1), rng, {item.gold})
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
            raise MatcherError(
                f"non-finite loss {loss_value} at epoch {epoch}; "
                f"pos range [{s_pos.data.min()}, {s_pos.data.max()}]")
        ndiff.backward(loss)
        opt.step()

        # validation metric (eval mode, no dropout)
        if val_items:
            ranked = rank_items(model, kb, kb_features, val_batch, val_pools, 1)
            metric = sum(int(ids[0]) == item.gold
                         for (ids, _), item in zip(ranked, val_items)) / len(val_items)
        else:
            metric = -loss_value
        history.append({"epoch": epoch, "loss": loss_value, "val_f1": max(metric, 0.0)})

        if metric > best_metric:
            best_metric = metric
            best_epoch = epoch
            best_state = model.state_dict()
        elif epoch - best_epoch >= config.patience:
            break

    model.load_state_dict(best_state)
    return TrainResult(history, best_epoch, best_metric, best_state)


def disambiguate(model: SiameseModel, kb: HeteroGraph, kb_features: np.ndarray,
                 qgraph: QueryGraph, q_features: np.ndarray, mention_node: int,
                 k: int) -> list[tuple[int, float]]:
    """Top-k (node id, score) for one mention, descending score, ties by id."""
    if mention_node not in qgraph.graph:
        raise MatcherError(f"unknown mention node {mention_node}")
    item = TrainItem("q", qgraph, q_features, mention_node, gold=-1)
    batch = build_query_batch([item], model.encoder.feature_dim)
    [(ids, scores)] = rank_items(model, kb, kb_features, batch, [candidate_ids(kb, item)], k)
    return list(zip(ids.tolist(), scores.tolist()))


# -- model persistence -----------------------------------------------------

def save_model(model: SiameseModel, directory,
               train_config: TrainConfig | None = None) -> None:
    """`directory` (made if need be) with the model's state_dict in
    params.npz and manifest.json holding every EncoderConfig field
    (metapaths as labels) and, when given, every TrainConfig field."""
    cfg = model.encoder.config
    manifest = {
        "encoder": {**asdict(cfg), "metapaths": [m.label() for m in cfg.metapaths]},
        "feature_dim": model.encoder.feature_dim,
        "node_types": model.encoder.node_types,
        "edge_types": model.encoder.edge_types,
        "head": HEAD_KIND,
    }
    if train_config is not None:
        manifest["train"] = asdict(train_config)
    os.makedirs(directory, exist_ok=True)
    np.savez(os.path.join(directory, "params.npz"), **model.state_dict())
    with open(os.path.join(directory, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def load_model(directory) -> tuple[SiameseModel, dict]:
    """The model save_model wrote to `directory`, and its manifest; MatcherError
    for a manifest that is not a JSON object, another head, a missing key, an
    encoder it cannot build, or parameters load_state_dict rejects."""
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise MatcherError(f"model manifest must be a JSON object, got {type(manifest).__name__}")
    if manifest.get("head") != HEAD_KIND:
        raise MatcherError(f"unknown matching head {manifest.get('head')!r}; "
                           f"only {HEAD_KIND!r} is supported")
    missing = [k for k in ("encoder", "feature_dim", "node_types", "edge_types")
               if k not in manifest]
    if missing:
        raise MatcherError(f"model manifest lacks {missing}")
    try:
        encoder = Encoder(EncoderConfig.from_dict(manifest["encoder"]), manifest["feature_dim"],
                          manifest["node_types"], manifest["edge_types"])
    except EncoderError as exc:
        raise MatcherError(f"model manifest: {exc}") from None
    model = SiameseModel(encoder, MatchingHead())
    with np.load(os.path.join(directory, "params.npz")) as npz:
        model.load_state_dict({name: npz[name] for name in npz.files})
    return model, manifest
