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

from . import evalgen, matcher
from .encoders import ENCODER_KINDS, EncoderConfig
from .hetgraph import (HeteroGraph, Metapath, build_inverted_index, load_graph,
                       save_graph)
from .matcher import TrainConfig, load_model, save_model
from .querygraph import QueryGraphError, TextSnippet, augment_query_graph
from .termembed import (FrequencyTable, WordVectorStore, init_node_features,
                        load_word_vectors, random_word_vectors)

log = logging.getLogger("hetlink")

BUNDLE_VERSION = "1"

# Config keys: every TrainConfig field under its own name, plus these keys
# for EncoderConfig fields.  The encoder's seed is TrainConfig's.
ENCODER_KEYS = {"encoder": "kind", "layers": "num_layers", "dim": "dim",
                "heads": "heads", "dropout": "dropout", "metapaths": "metapaths"}
TRAIN_KEYS = {f.name: f.name for f in fields(TrainConfig)}
CONFIG_KEYS = set(ENCODER_KEYS) | set(TRAIN_KEYS)

# the CLI's embedding width; EncoderConfig's own default is wider
CLI_DIM = 64


class CliError(Exception):
    pass


def _load_config(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise CliError("config file must hold a JSON object")
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise CliError(f"unknown config keys: {sorted(unknown)}")
    return data


def _merged_options(args) -> dict:
    """The config file's keys with the flags that were given laid over them."""
    opts = _load_config(args.config) if args.config else {}
    opts.update((key, getattr(args, key)) for key in CONFIG_KEYS
                if getattr(args, key, None) is not None)
    return opts


def _cast(key: str, kind, value):
    """`value` of config key `key` as `kind`, the type of the field it sets;
    CliError when the cast would change the value."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if (number and (kind is float or kind is int and float(value).is_integer())
            or kind in (bool, str) and isinstance(value, kind)):
        return kind(value)
    if kind == list[Metapath] and isinstance(value, list) and all(
            isinstance(m, str) for m in value):
        return [Metapath.parse(m) for m in value]       # metapaths are written as labels
    raise CliError(f"config key {key!r} must be {kind.__name__}, got {value!r}")


def _settings(cls, opts: dict, keys: dict) -> dict:
    """Fields of dataclass `cls` set by `opts`, whose `keys` maps config keys
    to field names, each cast to its field's type."""
    types = typing.get_type_hints(cls)
    return {field: _cast(key, types[field], opts[key])
            for key, field in keys.items() if key in opts}


# -- KB bundle -------------------------------------------------------------

def write_bundle(outdir, kb: HeteroGraph, store: WordVectorStore,
                 freqs: FrequencyTable) -> None:
    os.makedirs(outdir, exist_ok=True)
    save_graph(kb, os.path.join(outdir, "nodes.tsv"),
               os.path.join(outdir, "edges.tsv"))
    store.save(os.path.join(outdir, "wordvecs.txt"))
    freqs.save_tsv(os.path.join(outdir, "freqs.tsv"))
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump({"bundle_version": BUNDLE_VERSION, "nodes": len(kb),
                   "edges": len(kb.edges)}, fh, indent=2)


def read_bundle(bundle_dir):
    manifest_path = os.path.join(bundle_dir, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise CliError(f"bundle manifest must be a JSON object, got {type(manifest).__name__}")
    if manifest.get("bundle_version") != BUNDLE_VERSION:
        raise CliError(f"unsupported bundle version {manifest.get('bundle_version')!r}")
    kb = load_graph(os.path.join(bundle_dir, "nodes.tsv"),
                    os.path.join(bundle_dir, "edges.tsv"))
    store = load_word_vectors(os.path.join(bundle_dir, "wordvecs.txt"))
    freqs = FrequencyTable.load_tsv(os.path.join(bundle_dir, "freqs.tsv"))
    return kb, store, freqs


def _load_snippets(path) -> list[TextSnippet]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise CliError(f"a snippet file holds a JSON object or list, "
                       f"not {type(data).__name__}")
    snippets: dict[str, TextSnippet] = {}
    for i, d in enumerate(data):
        try:
            snippet = TextSnippet.from_json(d, f"s{i:04d}")
        except KeyError as exc:
            raise CliError(f"snippet {i}: missing key {exc}") from None
        except QueryGraphError as exc:
            raise CliError(f"snippet {i}: {exc}") from None
        if snippet.id in snippets:
            raise CliError(f"duplicate snippet id {snippet.id!r}")
        snippets[snippet.id] = snippet
    return list(snippets.values())


def _bundle_items(args, gold_required: bool):
    """The bundle's KB and word vectors, an item per snippet of args.snippets
    that has an ambiguous mention, and the KB node features."""
    kb, store, freqs = read_bundle(args.bundle)
    index = build_inverted_index(kb)
    items = []
    for snippet in _load_snippets(args.snippets):
        item = matcher.snippet_item(kb, index, store, freqs, snippet, augment_query_graph)
        if item is None:
            log.warning("snippet %s has no ambiguous mention; skipped", snippet.id)
            continue
        if gold_required and item.qgraph.mentions[item.mention_node].link_id is None:
            raise CliError(f"snippet {snippet.id}: ambiguous mention lacks link_id")
        items.append(item)
    return kb, store, items, init_node_features(kb, store, freqs)


# -- subcommands -----------------------------------------------------------

def cmd_ingest(args) -> int:
    kb = load_graph(args.nodes, args.edges)
    if args.wordvecs:
        store = load_word_vectors(args.wordvecs)
    else:
        vocab = {t for n in kb.nodes() for t in n.name}
        store = random_word_vectors(vocab, args.dim, seed=args.seed or 0)
    freqs = FrequencyTable.from_graph(kb)
    write_bundle(args.out, kb, store, freqs)
    log.info("wrote bundle with %d nodes / %d edges to %s",
             len(kb), len(kb.edges), args.out)
    return 0


def cmd_gen_synth(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = evalgen.SynthConfig.from_dict(json.load(fh))
    else:
        cfg = evalgen.SynthConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.snippets is not None:
        cfg.snippets = args.snippets
    corpus = evalgen.generate_synthetic_kb(cfg)
    write_bundle(args.out, corpus.kb, corpus.store, corpus.freqs)
    with open(os.path.join(args.out, "snippets.json"), "w", encoding="utf-8") as fh:
        json.dump([s.to_json() for s in corpus.snippets], fh, indent=2)
    log.info("generated %d nodes, %d snippets into %s",
             len(corpus.kb), len(corpus.snippets), args.out)
    return 0


def cmd_train(args) -> int:
    opts = _merged_options(args)
    train_config = TrainConfig(**_settings(TrainConfig, opts, TRAIN_KEYS))
    train_config.validate()
    encoder_options = {"dim": CLI_DIM, **_settings(EncoderConfig, opts, ENCODER_KEYS)}
    kb, store, items, kb_feats = _bundle_items(args, gold_required=True)
    if not items:
        raise CliError("no trainable snippets found")
    split = evalgen.split_dataset([it.snippet_id for it in items],
                                  seed=train_config.seed)
    by_id = {it.snippet_id: it for it in items}
    model = evalgen.build_model(kb, store.dim, encoder_options.pop("kind", EncoderConfig.kind),
                                seed=train_config.seed, **encoder_options)
    result = matcher.train(model, kb, kb_feats,
                           [by_id[s] for s in split.train],
                           [by_id[s] for s in split.validation],
                           train_config)
    save_model(model, args.out, train_config=train_config)
    result.write_history_csv(os.path.join(args.out, "history.csv"))
    log.info("best epoch %d metric %.4f; model saved to %s",
             result.best_epoch, result.best_metric, args.out)
    return 0


def cmd_eval(args) -> int:
    model, _ = load_model(args.model)
    kb, _, items, kb_feats = _bundle_items(args, gold_required=True)
    report = evalgen.score_items(kb, items, evalgen.predict_batch(model, kb, kb_feats, items))
    json.dump(report.to_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_disambiguate(args) -> int:
    model, _ = load_model(args.model)
    kb, _, items, kb_feats = _bundle_items(args, gold_required=False)
    batch = matcher.build_query_batch(items, model.encoder.feature_dim)
    ranked = matcher.rank_items(model, kb, kb_feats, batch,
                                [matcher.candidate_ids(kb, it) for it in items], args.top_k)
    out = []
    for item, (ids, scores) in zip(items, ranked):
        mention = item.qgraph.mentions[item.mention_node]
        out.append({"snippet": item.snippet_id, "mention": mention.surface,
                    "candidates": [{"id": nid, "name": kb.node(nid).surface,
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
    """A non-negative integer; argparse rejects anything else."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--encoder", choices=ENCODER_KINDS)
    p.add_argument("--layers", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--heads", type=int)
    p.add_argument("--dropout", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--sampler", choices=("uniform", "hard"))
    p.add_argument("--curriculum", type=_flag_bool)
    p.add_argument("--negatives-per-positive", dest="negatives_per_positive", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hetlink",
                                     description="Graph-based entity disambiguation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a KB bundle from TSV files")
    p.add_argument("--nodes", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--wordvecs")
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gen-synth", help="generate a synthetic KB + snippet corpus")
    p.add_argument("--config", help="JSON file with generator settings")
    p.add_argument("--seed", type=int)
    p.add_argument("--snippets", type=int)
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
