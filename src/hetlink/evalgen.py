"""Dataset splitting, metrics, and a synthetic medical-style corpus.

The generator builds a typed KB over an invented vocabulary following the
Drug / AdverseEffect / Symptom / Finding schema, then emits text snippets
each containing one ambiguous (corrupted-surface) mention plus a few
unambiguous context mentions drawn from the gold node's KB neighbors.
Everything is a pure function of the config, seed included.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .hetgraph import (HeteroGraph, InvertedIndex, Metapath, RELATED_EDGE_TYPE,
                       Schema, SELF_EDGE_TYPE, build_inverted_index, tokenize)
from .matcher import (MatchingHead, SiameseModel, TrainItem, build_query_batch,
                      candidate_ids, order_by_score, rank_items, snippet_item)
from .encoders import Encoder, EncoderConfig
from .querygraph import (Mention, TextSnippet, augment_query_graph,
                         fully_connected_query_graph)
from .termembed import (FrequencyTable, WordVectorStore, init_node_features,
                        random_word_vectors, term_embedding)


class EvalGenError(Exception):
    pass


# -- splits ----------------------------------------------------------------

@dataclass(frozen=True)
class Split:
    train: tuple[str, ...]
    validation: tuple[str, ...]
    test: tuple[str, ...]


SPLIT_RATIOS = (0.70, 0.15, 0.15)


def split_dataset(snippet_ids, seed: int = 0) -> Split:
    """Seeded shuffle then partition by SPLIT_RATIOS (train, validation,
    test); deterministic for a given seed."""
    ids = list(snippet_ids)
    if len(ids) < 3:
        raise EvalGenError("need at least 3 snippets to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    shuffled = [ids[i] for i in order]
    n_train = int(round(SPLIT_RATIOS[0] * len(ids)))
    n_val = int(round(SPLIT_RATIOS[1] * len(ids)))
    n_train = min(n_train, len(ids) - 2)
    n_val = max(1, min(n_val, len(ids) - n_train - 1))
    return Split(tuple(shuffled[:n_train]),
                 tuple(shuffled[n_train:n_train + n_val]),
                 tuple(shuffled[n_train + n_val:]))


# -- metrics ---------------------------------------------------------------

@dataclass
class ErrorContext:
    gold_type: str
    inferred_types: tuple[str, ...]
    mention_degree: int                # non-self edges incident to the mention


@dataclass
class EvalReport:
    precision: float
    recall: float
    f1: float
    n_gold: int
    n_emitted: int
    n_correct: int
    error_counts: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1,
                "n_gold": self.n_gold, "n_emitted": self.n_emitted,
                "n_correct": self.n_correct, "errors": dict(self.error_counts)}


def _attribute_error(ctx: ErrorContext) -> str:
    if ctx.gold_type not in ctx.inferred_types:
        return "construction"
    if ctx.mention_degree <= 1:
        return "insufficient-structure"
    return "similar-nodes"


def precision_recall_f1(predictions: dict, gold: dict,
                        error_contexts: dict | None = None) -> EvalReport:
    """Rank-1 scoring: a prediction is correct iff its top candidate is gold.

    `predictions` maps mention key -> ranked candidate id list (may be empty);
    `gold` maps mention key -> the single gold node id.
    """
    unknown = set(predictions) - set(gold)
    if unknown:
        raise EvalGenError(f"predictions for unknown mentions: {sorted(unknown)[:3]}")
    emitted = {k: v for k, v in predictions.items() if v}
    correct = sum(1 for k, v in emitted.items() if v[0] == gold[k])
    precision = correct / len(emitted) if emitted else 0.0
    recall = correct / len(gold) if gold else 0.0
    f1 = (2 * precision * recall / (precision + recall)) if precision + recall else 0.0
    errors: dict[str, int] = {"construction": 0, "insufficient-structure": 0,
                              "similar-nodes": 0}
    if error_contexts:
        for key in gold:
            ranked = predictions.get(key) or []
            if ranked and ranked[0] == gold[key]:
                continue
            if key in error_contexts:
                errors[_attribute_error(error_contexts[key])] += 1
    return EvalReport(precision, recall, f1, len(gold), len(emitted), correct, errors)


def score_items(kb: HeteroGraph, items: list[TrainItem], predictions: dict) -> EvalReport:
    """Rank-1 report of `predictions` (snippet id -> ranked ids) against the
    items' gold links, each miss attributed by the gold type, the mention's
    inferred types and its non-self degree in the query graph."""
    contexts = {}
    for it in items:
        degree = sum(1 for e in it.qgraph.graph.edges
                     if e.type != SELF_EDGE_TYPE and it.mention_node in (e.src, e.dst))
        contexts[it.snippet_id] = ErrorContext(
            kb.node(it.gold).type, it.qgraph.inferred_types.get(it.mention_node, ()), degree)
    return precision_recall_f1(predictions, {it.snippet_id: it.gold for it in items},
                               contexts)


# -- synthetic corpus ------------------------------------------------------

DEFAULT_NODE_COUNTS = {"Drug": 150, "AdverseEffect": 200, "Symptom": 150, "Finding": 400}
DEFAULT_TRIPLES = (
    ("Drug", "TREAT", "Symptom", 2),
    ("Drug", "CAUSE", "AdverseEffect", 3),
    ("AdverseEffect", "INDICATE", "Finding", 2),
    ("Symptom", "HAS", "Finding", 2),
    ("Finding", "ASSOC", "Finding", 2),
)
DEFAULT_AMBIGUITY_MIX = {"acronym": 0.18, "abbreviation": 0.10, "synonym": 0.17,
                         "simplification": 0.14, "typo": 0.11, "twin": 0.30}


@dataclass
class SynthConfig:
    node_counts: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_NODE_COUNTS))
    triples: tuple = DEFAULT_TRIPLES
    vocab_size: int = 600
    name_tokens: tuple[int, int] = (2, 3)
    synonym_fraction: float = 0.15
    ambiguity_mix: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_AMBIGUITY_MIX))
    snippets: int = 300
    context_mentions: tuple[int, int] = (2, 4)
    two_hop_fraction: float = 0.3       # share of context drawn from 2-hop neighbors
    twin_fraction: float = 0.4          # share of Findings created as lookalike pairs
    feature_dim: int = 128
    max_retries: int = 50
    seed: int = 0

    def validate(self) -> None:
        if abs(sum(self.ambiguity_mix.values()) - 1.0) > 1e-9:
            raise EvalGenError("ambiguity mix probabilities must sum to 1")
        if not 0.0 <= self.twin_fraction <= 1.0:
            raise EvalGenError("twin_fraction must be in [0, 1]")
        if self.ambiguity_mix.get("twin", 0.0) > 0.0 and (
                self.twin_fraction <= 0.0 or self.node_counts.get("Finding", 0) < 2):
            raise EvalGenError("twin ambiguity needs twin_fraction > 0 and >= 2 Findings")
        if any(c <= 0 for c in self.node_counts.values()):
            raise EvalGenError("node counts must be positive")
        for src, _, dst, deg in self.triples:
            limit = self.node_counts.get(dst, 0)
            if src == dst:
                limit -= 1
            if deg > limit:
                raise EvalGenError(f"unsatisfiable density: {deg} out-edges to {dst}")

    @classmethod
    def from_dict(cls, data: dict) -> "SynthConfig":
        if not isinstance(data, dict):
            raise EvalGenError(f"synth config must be a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise EvalGenError(f"unknown synth config keys {unknown}")
        data = dict(data)
        if "triples" in data:
            data["triples"] = tuple(tuple(t) for t in data["triples"])
        for key in ("name_tokens", "context_mentions"):
            if key in data:
                data[key] = tuple(data[key])
        cfg = cls(**data)
        cfg.validate()
        return cfg


@dataclass
class SynthCorpus:
    kb: HeteroGraph
    index: InvertedIndex      # long forms + registered synonyms, no acronyms
    snippets: list[TextSnippet]
    store: WordVectorStore
    freqs: FrequencyTable
    config: SynthConfig


_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _make_word(rng: np.random.Generator) -> str:
    n_syll = int(rng.integers(2, 4))
    return "".join(_CONSONANTS[rng.integers(len(_CONSONANTS))]
                   + _VOWELS[rng.integers(len(_VOWELS))]
                   for _ in range(n_syll))


def _corrupt(kind: str, tokens: tuple[str, ...], variants: dict[str, str],
             rng: np.random.Generator) -> str | None:
    if kind == "acronym":
        if len(tokens) < 2:
            return None
        return "".join(t[0] for t in tokens)
    if kind == "abbreviation":
        cut = [t[:max(2, (len(t) + 1) // 2)] for t in tokens]
        out = " ".join(cut)
        return out if out != " ".join(tokens) else None
    if kind == "synonym":
        i = int(rng.integers(len(tokens)))
        repl = variants.get(tokens[i])
        if repl is None:
            return None
        return " ".join(tokens[:i] + (repl,) + tokens[i + 1:])
    if kind == "simplification":
        if len(tokens) < 2:
            return None
        i = int(rng.integers(len(tokens)))
        return " ".join(tokens[:i] + tokens[i + 1:])
    if kind == "twin":
        # the lookalike pair "shared d1" / "shared d2" collapses to "shared";
        # only KB structure can break the tie
        if len(tokens) < 2:
            return None
        return tokens[0]
    if kind == "typo":
        i = int(rng.integers(len(tokens)))
        tok = tokens[i]
        j = int(rng.integers(len(tok)))
        alphabet = _CONSONANTS + _VOWELS
        repl = alphabet[int(rng.integers(len(alphabet)))]
        if repl == tok[j]:
            repl = alphabet[(alphabet.index(repl) + 1) % len(alphabet)]
        return " ".join(tokens[:i] + (tok[:j] + repl + tok[j + 1:],) + tokens[i + 1:])
    raise EvalGenError(f"unknown corruption kind {kind!r}")


_FILLERS = ("the chart mentions", "alongside", "with recurrent", "suggesting",
            "followed by", "and also", "consistent with", "noted during review of")


def generate_synthetic_kb(config: SynthConfig) -> SynthCorpus:
    """Deterministic KB + snippet corpus; see the module docstring."""
    config.validate()
    rng = np.random.default_rng(config.seed)

    vocab: list[str] = []
    seen = set()
    while len(vocab) < config.vocab_size:
        w = _make_word(rng)
        if w not in seen:
            seen.add(w)
            vocab.append(w)
    variants: dict[str, str] = {}
    for w in vocab:
        v = _make_word(rng)
        while v in seen:
            v = _make_word(rng)
        seen.add(v)
        variants[w] = v

    kb = HeteroGraph()
    used_surfaces: set[str] = set()
    lo, hi = config.name_tokens
    twin_of: dict[int, int] = {}
    for ntype in sorted(config.node_counts):
        count = config.node_counts[ntype]
        if ntype == "Finding":
            # lookalike pairs: same first token, one distinguishing token
            n_pairs = int(count * config.twin_fraction) // 2
            for _ in range(n_pairs):
                for _attempt in range(config.max_retries):
                    shared = vocab[int(rng.integers(len(vocab)))]
                    d1 = vocab[int(rng.integers(len(vocab)))]
                    d2 = vocab[int(rng.integers(len(vocab)))]
                    s1, s2 = f"{shared} {d1}", f"{shared} {d2}"
                    if d1 != d2 and s1 not in used_surfaces and s2 not in used_surfaces:
                        break
                else:
                    raise EvalGenError("could not draw a fresh twin pair")
                used_surfaces.update((s1, s2))
                a = kb.add_node(ntype, s1)
                b = kb.add_node(ntype, s2)
                twin_of[a], twin_of[b] = b, a
            count -= 2 * n_pairs
        for _ in range(count):
            for _attempt in range(config.max_retries):
                n_tok = int(rng.integers(lo, hi + 1))
                toks = tuple(vocab[int(rng.integers(len(vocab)))] for _ in range(n_tok))
                surface = " ".join(toks)
                if surface not in used_surfaces:
                    break
            else:
                raise EvalGenError("could not draw a fresh node name; vocab too small")
            used_surfaces.add(surface)
            synonyms = []
            if len(toks) >= 2 and rng.random() < config.synonym_fraction:
                i = int(rng.integers(len(toks)))
                syn = " ".join(toks[:i] + (variants[toks[i]],) + toks[i + 1:])
                if syn not in used_surfaces:
                    used_surfaces.add(syn)
                    synonyms.append(syn)
            kb.add_node(ntype, surface, synonyms=synonyms)

    by_type = {t: [n.id for n in kb.nodes() if n.type == t] for t in config.node_counts}
    for src_t, etype, dst_t, deg in config.triples:
        dst_ids = np.array(by_type[dst_t])
        for src in by_type[src_t]:
            # a twin is always its lookalike's 1-hop neighbor, so the hard
            # sampler can surface it as a difficult negative
            forced = ([twin_of[src]] if src_t == dst_t == "Finding"
                      and src in twin_of else [])
            keep = dst_ids != src
            for f in forced:
                keep &= dst_ids != f
            choices = dst_ids[keep]
            picks = rng.choice(len(choices), size=deg - len(forced), replace=False)
            for dst in forced + [int(choices[i]) for i in sorted(picks)]:
                kb.add_edge(src, dst, etype)
    kb.freeze()
    index = build_inverted_index(kb, acronym_rule=None)

    kinds = sorted(config.ambiguity_mix)
    probs = np.array([config.ambiguity_mix[k] for k in kinds])
    gold_pool = [n for n in by_type["Finding"] if len(kb.neighbors(n)) >= 2]
    if not gold_pool:
        raise EvalGenError("no Finding node has enough neighbors for snippets")
    twin_pool = [n for n in gold_pool if n in twin_of]

    snippets: list[TextSnippet] = []
    for s_i in range(config.snippets):
        for _attempt in range(config.max_retries):
            kind = kinds[int(rng.choice(len(kinds), p=probs))]
            pool = twin_pool if kind == "twin" else gold_pool
            if not pool:
                continue
            gold = pool[int(rng.integers(len(pool)))]
            gold_node = kb.node(gold)
            corrupted = _corrupt(kind, gold_node.name, variants, rng)
            if corrupted and not index.lookup(corrupted):
                break
        else:
            raise EvalGenError("exhausted retries generating an ambiguous mention")

        neighbors = sorted(kb.neighbors(gold) - {gold})
        two_hop = sorted({w for u in neighbors for w in kb.neighbors(u)}
                         - set(neighbors) - {gold})
        c_lo, c_hi = config.context_mentions
        n_ctx = min(len(neighbors), int(rng.integers(c_lo, c_hi + 1)))
        picks = rng.choice(len(neighbors), size=n_ctx, replace=False)
        ctx_nodes = [neighbors[i] for i in sorted(picks)]
        # some context only reaches the gold node at 2 hops, so deeper
        # encoders see strictly more corroborating structure; snippets whose
        # context is entirely 2-hop are unresolvable for a 1-layer encoder
        if two_hop:
            for j in range(len(ctx_nodes)):
                if rng.random() < config.two_hop_fraction:
                    ctx_nodes[j] = two_hop[int(rng.integers(len(two_hop)))]

        entries = [(kb.node(c).surface, kb.node(c).type, c) for c in ctx_nodes]
        entries.insert(int(rng.integers(len(entries) + 1)),
                       (corrupted, gold_node.type, gold))
        text_parts: list[str] = []
        mentions: list[Mention] = []
        cursor = 0
        for surface, category, link in entries:
            filler = _FILLERS[int(rng.integers(len(_FILLERS)))]
            prefix = (filler + " ") if text_parts else (filler.capitalize() + " ")
            text_parts.append(prefix)
            cursor += len(prefix)
            text_parts.append(surface)
            mentions.append(Mention(surface, cursor, cursor + len(surface),
                                    category=category, link_id=link))
            text_parts.append(" ")
            cursor += len(surface) + 1
        text = "".join(text_parts).rstrip() + "."
        snippets.append(TextSnippet(f"s{s_i:04d}", text, tuple(mentions)))

    all_tokens = [tok for s in used_surfaces for tok in s.split()]
    store = random_word_vectors(set(all_tokens) | set(variants.values()),
                                config.feature_dim, seed=config.seed)
    return SynthCorpus(kb, index, snippets, store, FrequencyTable.from_graph(kb), config)


# -- pipeline helpers ------------------------------------------------------

def schema_metapaths(schema: Schema, limit: int = 8) -> list[Metapath]:
    """Deterministic metapath inventory: all single triples plus two-edge
    chains, SELF excluded, truncated to `limit`."""
    triples = sorted(t for t in schema.triples if t[1] != SELF_EDGE_TYPE)
    paths = [Metapath((s, d), (e,)) for s, e, d in triples]
    for s1, e1, d1 in triples:
        for s2, e2, d2 in triples:
            if d1 == s2:
                paths.append(Metapath((s1, d1, d2), (e1, e2)))
    return paths[:limit] if limit else paths


def kb_features(corpus: SynthCorpus) -> np.ndarray:
    return init_node_features(corpus.kb, corpus.store, corpus.freqs)


def corpus_items(corpus: SynthCorpus, snippet_ids,
                 query_builder: str = "augmented") -> list[TrainItem]:
    """TrainItems for the given snippets, built by snippet_item over the
    corpus's long-form index; each snippet must have exactly one ambiguous
    mention, and a labelled one."""
    build = {"augmented": augment_query_graph,
             "fc": fully_connected_query_graph}[query_builder]
    by_id = {s.id: s for s in corpus.snippets}
    items = []
    for sid in snippet_ids:
        if sid not in by_id:
            raise EvalGenError(f"unknown snippet {sid!r}")
        item = snippet_item(corpus.kb, corpus.index, corpus.store, corpus.freqs,
                            by_id[sid], build)
        n_unknown = len(item.qgraph.unknown_nodes) if item else 0
        if n_unknown != 1:
            raise EvalGenError(
                f"snippet {sid}: expected exactly 1 ambiguous mention, got {n_unknown}")
        if item.qgraph.mentions[item.mention_node].link_id is None:
            raise EvalGenError(f"snippet {sid}: ambiguous mention lacks link_id")
        items.append(item)
    return items


def build_model(kb: HeteroGraph, feature_dim: int, kind: str, metapaths=None,
                fc_mode: bool = False, **encoder_options) -> SiameseModel:
    """Siamese model over `kb`'s types; `encoder_options` are EncoderConfig
    fields.  MAGNN without metapaths takes the schema's; fc_mode also
    registers the fully connected query graphs' generic edge type."""
    if not metapaths and kind == "magnn":
        metapaths = schema_metapaths(kb.schema)
    cfg = EncoderConfig(kind=kind, metapaths=metapaths or [], **encoder_options)
    edge_types = set(kb.edge_types) | {SELF_EDGE_TYPE}
    if fc_mode:
        edge_types.add(RELATED_EDGE_TYPE)
    encoder = Encoder(cfg, feature_dim, kb.node_types, edge_types)
    return SiameseModel(encoder, MatchingHead())


def make_model(corpus: SynthCorpus, kind: str, **options) -> SiameseModel:
    """build_model over a synthetic corpus's KB and word-vector dimension."""
    return build_model(corpus.kb, corpus.store.dim, kind, **options)


def lexical_candidates(kb: HeteroGraph, item: TrainItem) -> np.ndarray:
    """Candidate generation by token overlap with the mention surface.

    Mirrors how a disambiguation pipeline narrows the KB before ranking:
    type-compatible nodes sharing at least one name/synonym token with the
    mention.  Falls back to the full type-compatible set when nothing
    overlaps (heavily corrupted surfaces).  Returns an int64 id array."""
    mention = item.qgraph.mentions[item.mention_node]
    toks = set(tokenize(mention.surface))
    pool = candidate_ids(kb, item)
    overlaps = np.zeros(len(pool), dtype=bool)
    for i, c in enumerate(pool.tolist()):
        node = kb.node(c)
        surface_toks = set(node.name)
        for syn in node.synonyms:
            surface_toks.update(syn)
        overlaps[i] = bool(toks & surface_toks)
    return pool[overlaps] if overlaps.any() else pool


def predict_batch(model: SiameseModel, kb: HeteroGraph, kb_feats: np.ndarray,
                  items: list[TrainItem],
                  candidates: str = "type") -> dict[str, list[int]]:
    """The rank-1 candidate id per snippet id, as a list (empty for an empty
    pool), from one shared KB encoding.

    `candidates` picks the pool each mention is ranked against: "type" uses
    every type-compatible KB node, "lexical" narrows to token overlap."""
    if candidates not in ("type", "lexical"):
        raise EvalGenError(f"unknown candidate mode {candidates!r}")
    pool_of = lexical_candidates if candidates == "lexical" else candidate_ids
    batch = build_query_batch(items, model.encoder.feature_dim)
    ranked = rank_items(model, kb, kb_feats, batch, [pool_of(kb, it) for it in items], 1)
    return {it.snippet_id: ids.tolist() for it, (ids, _) in zip(items, ranked)}


def evaluate_model(model: SiameseModel, corpus: SynthCorpus, items: list[TrainItem],
                   kb_feats: np.ndarray | None = None,
                   candidates: str = "type") -> EvalReport:
    if kb_feats is None:
        kb_feats = kb_features(corpus)
    return score_items(corpus.kb, items,
                       predict_batch(model, corpus.kb, kb_feats, items, candidates))


def text_baseline_predictions(corpus: SynthCorpus, items: list[TrainItem],
                              kb_feats: np.ndarray | None = None) -> dict[str, list[int]]:
    """Term-embedding nearest neighbor on the mention surface alone."""
    if kb_feats is None:
        kb_feats = kb_features(corpus)
    out = {}
    for it in items:
        mention = it.qgraph.mentions[it.mention_node]
        vec = term_embedding(mention.surface, corpus.store, corpus.freqs)
        cands = candidate_ids(corpus.kb, it)
        mat = kb_feats[corpus.kb.rows(cands)]
        norms = np.linalg.norm(mat, axis=1) * (np.linalg.norm(vec) or 1.0)
        norms[norms == 0] = 1.0
        ranked, _ = order_by_score(cands, mat @ vec / norms, len(cands))
        out[it.snippet_id] = ranked.tolist()
    return out


def evaluate_text_baseline(corpus: SynthCorpus, items: list[TrainItem]) -> EvalReport:
    return score_items(corpus.kb, items, text_baseline_predictions(corpus, items))

