"""Command line entry point.

Subcommands: ingest (TSV -> KB bundle), gen-synth (synthetic corpus),
train, eval, disambiguate.  Config may come from a JSON file (--config)
with flags overriding it; unknown config keys are rejected.  Set the
HETLINK_LOG environment variable to change verbosity.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import typing
from dataclasses import fields

import numpy as np

from . import evalgen, matcher
from .encoders import ENCODER_KINDS, EncoderConfig
from .hetgraph import (INT_RE, HeteroGraph, HetlinkError, build_inverted_index, file_sha256,
                       graph_columns, graph_from_columns, load_graph, read_json, read_npz,
                       read_settings)
from .matcher import SAMPLERS, TrainConfig, load_model, save_model
from .querygraph import TextSnippet, augment_query_graph
from .termembed import (WordVectorStore, init_node_features, load_word_vectors,
                        random_word_vectors)

log = logging.getLogger("hetlink")

BUNDLE_VERSION = "6"
# kb.npz: the graph's columns (hetgraph.graph_columns) and its word vectors'
# (WordVectorStore.columns), each name's (dtype, ndim); a text column is uint8
KB_ARRAYS = {**dict.fromkeys(("ids", "src", "dst"), (np.int64, 1)),
             **dict.fromkeys(("types", "names", "synonyms", "edge_types", "tokens"),
                             (np.uint8, 1)),
             "vectors": (np.float64, 2)}

# Config keys: every TrainConfig field under its own name, plus these keys
# for EncoderConfig fields.  The encoder's seed is TrainConfig's.
ENCODER_KEYS = {"encoder": "kind", "layers": "num_layers", "dim": "dim",
                "heads": "heads", "dropout": "dropout", "metapaths": "metapaths"}
TRAIN_KEYS = {f.name: f.name for f in fields(TrainConfig)}
CONFIG_KEYS = set(ENCODER_KEYS) | set(TRAIN_KEYS)

# the CLI's embedding width; EncoderConfig's own default is wider
CLI_DIM = 64


def _config(args, keys):
    """The JSON in the --config file ({} without one) with the flags among
    `keys` that were given laid over it, when it is an object."""
    data = read_json(args.config) if args.config else {}
    flags = {key: getattr(args, key) for key in keys if getattr(args, key, None) is not None}
    return {**data, **flags} if isinstance(data, dict) else data


def _train_settings(opts) -> tuple[TrainConfig, dict]:
    """The validated TrainConfig and the EncoderConfig fields that the config
    object `opts` sets, over the CLI's dim; each read skips the other's keys."""
    train_config = TrainConfig(**read_settings(
        TrainConfig, opts, {**dict.fromkeys(ENCODER_KEYS), **TRAIN_KEYS}, "config"))
    return train_config, {"dim": CLI_DIM, **read_settings(
        EncoderConfig, opts, {**dict.fromkeys(TRAIN_KEYS), **ENCODER_KEYS}, "config")}


# -- KB bundle -------------------------------------------------------------

def write_bundle(outdir, kb: HeteroGraph, store: WordVectorStore) -> None:
    """The KB's graph and word vectors as the columns of one kb.npz, and
    manifest.json.  numpy stamps each .npz member with a fixed date, so equal
    inputs write equal bytes."""
    # first: the columns refuse a KB or store before `outdir` is made, so a
    # refused bundle leaves no directory or file behind
    path = os.path.join(outdir, "kb.npz")
    columns = {**graph_columns(kb, path), **store.columns(path)}
    os.makedirs(outdir, exist_ok=True)
    with open(path, "wb") as fh:                # numpy appends no ".npz" to a file object
        np.savez(fh, **columns)
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"bundle_version": BUNDLE_VERSION, "nodes": len(kb),
                   "edges": len(columns["src"])}, fh, indent=2)


def read_bundle(bundle_dir):
    """The bundle's KB, its word vectors and the KB's token_frequencies, the
    `freqs` that init_node_features and QueryGraph.features take."""
    manifest_path = os.path.join(bundle_dir, "manifest.json")
    manifest = read_json(manifest_path)
    if not isinstance(manifest, dict):
        raise HetlinkError(f"{manifest_path}: bundle manifest must be a JSON object, "
                           f"got {type(manifest).__name__}")
    if manifest.get("bundle_version") != BUNDLE_VERSION:
        raise HetlinkError(f"unsupported bundle version {manifest.get('bundle_version')!r} "
                           f"(this hetlink reads version {BUNDLE_VERSION}): re-run gen-synth or "
                           f"ingest to rebuild the bundle")
    listed = manifest.get("nodes"), manifest.get("edges")
    for key, count in zip(("nodes", "edges"), listed):
        if type(count) is not int:
            raise HetlinkError(f'{manifest_path}: "{key}" must be an integer, got {count!r}')
        if count < 0:
            raise HetlinkError(f'{manifest_path}: "{key}" must be >= 0, got {count}')
    if listed[0] == 0:
        raise HetlinkError(f"{manifest_path}: lists 0 nodes")
    path = os.path.join(bundle_dir, "kb.npz")
    arrays = read_npz(path)
    for name, (dtype, ndim) in KB_ARRAYS.items():
        if name not in arrays:
            raise HetlinkError(f"{path}: no {name!r} array")
        if arrays[name].dtype != dtype or arrays[name].ndim != ndim:
            raise HetlinkError(f"{path}: {name!r} must be a {ndim}-D {np.dtype(dtype)} array, "
                               f"got {arrays[name].dtype} of shape {arrays[name].shape}")
    kb = graph_from_columns(arrays, path)
    loaded = len(kb), len(kb.edge_columns()[0])
    if listed != loaded:
        raise HetlinkError(f"{manifest_path}: lists {listed[0]} nodes and {listed[1]} edges, "
                           f"its files hold {loaded[0]} and {loaded[1]}")
    return kb, WordVectorStore.from_columns(arrays, path), kb.token_frequencies


def _load_snippets(path) -> list[TextSnippet]:
    data = read_json(path)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise HetlinkError(f"a snippet file holds a JSON object or list, "
                           f"not {type(data).__name__}")
    snippets: dict[str, TextSnippet] = {}
    for i, d in enumerate(data):
        try:
            snippet = TextSnippet.from_json(d, f"s{i:04d}")
        except KeyError as exc:
            raise HetlinkError(f"snippet {i}: missing key {exc}") from None
        except HetlinkError as exc:
            raise HetlinkError(f"snippet {i}: {exc}") from None
        if snippet.id in snippets:
            raise HetlinkError(f"duplicate snippet id {snippet.id!r}")
        snippets[snippet.id] = snippet
    return list(snippets.values())


def _bundle_items(args, kb, store, gold_required: bool):
    """An item per snippet of args.snippets that has an ambiguous mention,
    from the bundle's KB and word vectors, and the snippet count."""
    index = build_inverted_index(kb)
    items = []
    snippets = _load_snippets(args.snippets)
    for snippet in snippets:
        item = matcher.snippet_item(kb, index, store, snippet, augment_query_graph)
        if item is None:
            log.warning("snippet %s has no ambiguous mention; skipped", snippet.id)
            continue
        if gold_required and item.qgraph.mentions[item.mention_node].link_id is None:
            raise HetlinkError(f"snippet {snippet.id}: ambiguous mention lacks link_id")
        if gold_required and item.gold not in kb:
            raise HetlinkError(f"snippet {snippet.id}: link_id {item.gold} "
                               f"is not a node of the bundle's KB")
        items.append(item)
    return items, len(snippets)


def _served(args, gold_required: bool):
    """The model in args.model, the bundle's KB, its unit KB rows and the
    items of args.snippets.  The rows are those the model directory kept for
    this bundle's kb.npz, else kb_embeddings of the bundle's node features.
    HetlinkError when the model was trained on another kb.npz."""
    model, manifest = load_model(args.model)
    kb, store, freqs = read_bundle(args.bundle)
    trained_on = manifest.get("kb_sha256")
    if trained_on is None:
        log.warning("%s records no kb.npz sha256: the model is not checked against the "
                    "bundle, and no kept KB rows are read",
                    os.path.join(args.model, "manifest.json"))
    elif (digest := file_sha256(os.path.join(args.bundle, "kb.npz"))) != trained_on:
        raise HetlinkError(f"{args.model} was trained on a kb.npz of sha256 "
                           f"{trained_on}, not on {args.bundle}'s ({digest})")
    items, _ = _bundle_items(args, kb, store, gold_required)
    rows = None if trained_on is None else matcher.kept_kb_rows(model, args.model, kb, trained_on)
    if rows is None:
        rows = matcher.kb_embeddings(model, kb, init_node_features(kb, store, freqs))
    return model, kb, rows, items


# -- subcommands -----------------------------------------------------------

def cmd_ingest(args) -> int:
    kb = load_graph(args.nodes, args.edges)
    if not len(kb):
        raise HetlinkError(f"{args.nodes}: no nodes")
    if args.wordvecs:
        store = load_word_vectors(args.wordvecs)
    elif args.dim < 1:
        raise HetlinkError(f"--dim must be >= 1, got {args.dim}")
    else:
        vocab = " ".join(kb.node_columns()[2]).split()
        store = random_word_vectors(vocab, args.dim, seed=args.seed or 0)
    write_bundle(args.out, kb, store)
    log.info("wrote bundle with %d nodes / %d edges to %s",
             len(kb), len(kb.edge_columns()[0]), args.out)
    return 0


def cmd_gen_synth(args) -> int:
    cfg = evalgen.SynthConfig.from_dict(_config(args, ("seed", "snippets")))
    corpus = evalgen.generate_synthetic_kb(cfg)
    write_bundle(args.out, corpus.kb, corpus.store)
    with open(os.path.join(args.out, "snippets.json"), "w", encoding="utf-8") as fh:
        json.dump([s.to_json() for s in corpus.snippets], fh, indent=2)
    log.info("generated %d nodes, %d snippets into %s",
             len(corpus.kb), len(corpus.snippets), args.out)
    return 0


def cmd_train(args) -> int:
    train_config, encoder_options = _train_settings(_config(args, CONFIG_KEYS))
    kb, store, freqs = read_bundle(args.bundle)
    items, n_snippets = _bundle_items(args, kb, store, gold_required=True)
    # the split puts at least one snippet in each of its parts
    if len(items) < len(evalgen.SPLIT_RATIOS):
        raise HetlinkError(f"{len(items)} of {n_snippets} snippets have an ambiguous mention; "
                           f"training needs at least {len(evalgen.SPLIT_RATIOS)}")
    split = evalgen.split_dataset([it.snippet_id for it in items],
                                  seed=train_config.seed)
    by_id = {it.snippet_id: it for it in items}
    model = evalgen.build_model(kb, store.dim, encoder_options.pop("kind", EncoderConfig.kind),
                                seed=train_config.seed, **encoder_options)
    model.kb_sha256 = file_sha256(os.path.join(args.bundle, "kb.npz"))
    result = matcher.train(model, kb, init_node_features(kb, store, freqs),
                           [by_id[s] for s in split.train],
                           [by_id[s] for s in split.validation],
                           train_config)
    save_model(model, args.out, result)
    log.info("best epoch %d metric %.4f; model saved to %s",
             result.best_epoch, result.best_metric, args.out)
    return 0


def cmd_eval(args) -> int:
    model, kb, kb_rows, items = _served(args, gold_required=True)
    report = evalgen.score_items(kb, items, evalgen.predict_batch(model, kb, kb_rows, items,
                                                                  candidates="lexical"))
    json.dump(report.to_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_disambiguate(args) -> int:
    model, kb, kb_rows, items = _served(args, gold_required=False)
    batch = matcher.build_query_batch(items, model.encoder.feature_dim)
    ranked = matcher.rank_items(model, kb, kb_rows, batch,
                                [matcher.candidate_pool(kb, it) for it in items], args.top_k)
    out = []
    for item, (ids, scores) in zip(items, ranked):
        mention = item.qgraph.mentions[item.mention_node]
        out.append({"snippet": item.snippet_id, "mention": mention.surface,
                    "candidates": [{"id": nid, "name": kb.node_name(nid),
                                    "score": score}
                                   for nid, score in zip(ids.tolist(), scores.tolist())]})
    json.dump(out, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


# -- parser ----------------------------------------------------------------

def _flag_bool(text: str) -> bool:
    """1/true/yes or 0/false/no, in any case; argparse rejects anything else."""
    words = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    if text.lower() not in words:
        raise argparse.ArgumentTypeError(f"expected one of {'/'.join(words)}, got {text!r}")
    return words[text.lower()]


def _flag_count(text: str) -> int:
    """A non-negative integer, ASCII digits as a node id's (INT_RE) with no
    sign; argparse rejects anything else."""
    if not INT_RE.fullmatch(text) or text.startswith("-"):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    """A flag per config key but metapaths, typed as the field it sets."""
    for cls, keys in ((EncoderConfig, ENCODER_KEYS), (TrainConfig, TRAIN_KEYS)):
        hints = typing.get_type_hints(cls)
        for key, name in keys.items():
            if key != "metapaths":
                kind = hints[name]
                p.add_argument("--" + key.replace("_", "-"),
                               choices={"encoder": ENCODER_KINDS, "sampler": SAMPLERS}.get(key),
                               type={bool: _flag_bool, int: _flag_count}.get(kind, kind))
    p.add_argument("--config", help="JSON config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hetlink",
                                     description="Graph-based entity disambiguation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a KB bundle from TSV files")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--wordvecs")
    p.add_argument("--dim", type=_flag_count, default=64)
    p.add_argument("--seed", type=_flag_count)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gen-synth", help="generate a synthetic KB + snippet corpus")
    p.add_argument("--config", help="JSON file with generator settings")
    p.add_argument("--seed", type=_flag_count)
    p.add_argument("--snippets", type=_flag_count)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train a disambiguation model")
    p.add_argument("--bundle", required=True)
    p.add_argument("--snippets", required=True, help="snippet JSON file")
    p.add_argument("--out", required=True)
    _add_model_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a trained model on labeled snippets")
    p.add_argument("--bundle", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--snippets", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("disambiguate", help="rank candidates for new snippets")
    p.add_argument("--bundle", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--snippets", required=True)
    p.add_argument("--top-k", dest="top_k", type=_flag_count, default=5)
    p.set_defaults(func=cmd_disambiguate)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("HETLINK_LOG", "INFO").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # structured error reporting, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
