"""End-to-end tests for the command line interface."""

import contextlib
import io
import json
import os
import shutil
import tempfile
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hetlink import HetlinkError, evalgen
from hetlink.cli import (CONFIG_KEYS, KB_ARRAYS, _flag_count, _load_snippets, _train_settings,
                         build_parser, main, read_bundle, write_bundle)
from hetlink.encoders import EncoderConfig
from hetlink.hetgraph import HeteroGraph, tokenize
from hetlink.matcher import candidate_pool, load_model
from hetlink.termembed import init_node_features, load_word_vectors, random_word_vectors

from conftest import MANIFEST_BREAKS, break_manifest, break_params, cli_items, save_graph


SMALL_GEN = {
    "node_counts": {"Drug": 15, "AdverseEffect": 20, "Symptom": 15, "Finding": 30},
    "vocab_size": 150,
    "snippets": 24,
    "seed": 5,
}

TRAIN_CONFIG = {"encoder": "graphsage", "layers": 1, "dim": 32,
                "epochs": 2, "patience": 2, "seed": 0}


def write_word_vector_text(npz_path, path) -> None:
    """The vectors of the bundle file `npz_path` in the text format that
    `ingest --wordvecs` reads: a `token f1 f2 ...` line per token, each float
    as repr prints it, so the text holds every bit."""
    with np.load(npz_path) as npz:
        rows = zip(_lines(npz["tokens"]), npz["vectors"].tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(" ".join([tok, *map(repr, vec)]) + "\n" for tok, vec in rows)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Generated corpus plus a trained model, shared across CLI tests, and the
    corpus's word vectors and KB as the text files ingest reads (wordvecs.txt,
    nodes.tsv and edges.tsv)."""
    root = tmp_path_factory.mktemp("cli")
    gen_cfg = root / "gen.json"
    gen_cfg.write_text(json.dumps(SMALL_GEN))
    assert main(["gen-synth", "--config", str(gen_cfg),
                 "--out", str(root / "corpus")]) == 0
    write_word_vector_text(root / "corpus" / "kb.npz", root / "wordvecs.txt")
    save_graph(read_bundle(root / "corpus")[0], root / "nodes.tsv", root / "edges.tsv")
    train_cfg = root / "train.json"
    train_cfg.write_text(json.dumps(TRAIN_CONFIG))
    assert main(["train", "--bundle", str(root / "corpus"),
                 "--snippets", str(root / "corpus" / "snippets.json"),
                 "--config", str(train_cfg),
                 "--out", str(root / "model")]) == 0
    return root


@pytest.mark.parametrize("config, error", [
    ({"bogus": 1, "seed": 2}, "unknown synth config keys ['bogus']"),
    ([1], "synth config must be a JSON object, got list"),
    ({"node_counts": 5}, "synth config key 'node_counts' must be dict[str, int], got 5"),
    ({"seed": "x"}, "synth config key 'seed' must be int, got 'x'"),
    ({"name_tokens": [2]}, "synth config key 'name_tokens' must be tuple[int, int], got [2]"),
    ({"snippets": -1}, "snippets must be >= 0"),
    ({"triples": [["Nope", "X", "Drug", 1]]},
     "triple Nope-X-Drug names node types ['Nope'] that node_counts lacks"),
    ({"ambiguity_mix": {"bogus": 1.0}},
     "unknown ambiguity kinds ['bogus']; known: ['abbreviation', 'acronym', 'simplification', "
     "'synonym', 'twin', 'typo']"),
    ({"max_retries": 50}, "unknown synth config keys ['max_retries']"),
])
def test_gen_synth_rejects_a_malformed_config(tmp_path, capsys, config, error):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(config))
    assert main(["gen-synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


def _cli_train_config(opts):
    train_config, encoder_options = _train_settings(opts)
    EncoderConfig(**encoder_options)
    return train_config


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8)
# reader, and the keys it takes
CONFIG_READERS = {
    "gen-synth": (evalgen.SynthConfig.from_dict, [f.name for f in fields(evalgen.SynthConfig)]),
    "manifest-encoder": (EncoderConfig.from_dict,
                         [f.name for f in fields(EncoderConfig)] + ["layers", "attn_dim"]),
    "cli-train": (_cli_train_config, sorted(CONFIG_KEYS)),
}


@pytest.mark.parametrize("reader", CONFIG_READERS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_any_json_value_at_any_key_builds_a_config_or_fails_in_one_line(reader, data):
    read, keys = CONFIG_READERS[reader]
    config = data.draw(st.dictionaries(st.sampled_from(keys + ["bogus"]), JSON_VALUES,
                                       max_size=3) | JSON_VALUES)
    try:
        read(config)
    except HetlinkError as exc:
        assert "\n" not in str(exc)


def test_gen_synth_writes_bundle_and_snippets(workdir):
    corpus = workdir / "corpus"
    assert sorted(os.listdir(corpus)) == ["kb.npz", "manifest.json", "snippets.json"]
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert manifest["bundle_version"] == "6"
    assert manifest["nodes"] == sum(SMALL_GEN["node_counts"].values())
    with np.load(corpus / "kb.npz") as npz:
        assert sorted(npz.files) == sorted(KB_ARRAYS)


def test_write_bundle_writes_the_same_bytes_at_any_clock_time(toy_kb, tmp_path, monkeypatch):
    store = random_word_vectors(["alpha", "beta"], dim=4, seed=1)
    write_bundle(tmp_path / "now", toy_kb, store)
    monkeypatch.setattr(time, "time", lambda: 2.0e9)
    write_bundle(tmp_path / "later", toy_kb, store)
    for name in ("kb.npz", "manifest.json"):
        assert (tmp_path / "now" / name).read_bytes() == (tmp_path / "later" / name).read_bytes()


def test_reloaded_bundle_embeds_unseen_tokens_as_the_generator_did(tmp_path):
    # acronyms, abbreviations and typos are mention tokens with no word vector
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps(SMALL_GEN))
    assert main(["gen-synth", "--config", str(gen_cfg), "--seed", "1",
                 "--out", str(tmp_path / "corpus")]) == 0
    corpus = evalgen.generate_synthetic_kb(
        evalgen.SynthConfig.from_dict({**SMALL_GEN, "seed": 1}))
    _, store, _ = read_bundle(tmp_path / "corpus")
    unseen = sorted({t for s in corpus.snippets for m in s.mentions
                     for t in tokenize(m.surface) if t not in corpus.store})
    assert unseen
    for tok in unseen:
        np.testing.assert_array_equal(store.get(tok), corpus.store.get(tok))


def test_cli_kb_features_equal_the_librarys_bit_for_bit(tmp_path):
    # a bundle holds no frequencies: read_bundle derives them from the KB, as
    # the generator does, so no weight passes through a decimal text
    gen_cfg = tmp_path / "gen.json"
    gen_cfg.write_text(json.dumps(SMALL_GEN))
    assert main(["gen-synth", "--config", str(gen_cfg), "--seed", "1",
                 "--out", str(tmp_path / "corpus")]) == 0
    corpus = evalgen.generate_synthetic_kb(
        evalgen.SynthConfig.from_dict({**SMALL_GEN, "seed": 1}))
    kb, store, freqs = read_bundle(tmp_path / "corpus")
    cli_feats, lib_feats = init_node_features(kb, store, freqs), evalgen.kb_features(corpus)
    assert (cli_feats.shape, cli_feats.dtype) == (lib_feats.shape, lib_feats.dtype)
    assert cli_feats.tobytes() == lib_feats.tobytes()


def test_a_freqs_file_left_in_a_bundle_is_not_read(workdir, tmp_path, capsys):
    # bundles written before frequencies were derived hold a freqs.tsv
    bundle = tmp_path / "bundle"
    shutil.copytree(workdir / "corpus", bundle)
    outputs = []
    for garbage in (None, b"fever\tnan\n-0.25\nnot a row\n\xff\n"):
        if garbage is not None:
            (bundle / "freqs.tsv").write_bytes(garbage)
        assert main(["eval", "--bundle", str(bundle), "--model", str(workdir / "model"),
                     "--snippets", str(bundle / "snippets.json")]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and '"f1"' in outputs[0]


def test_train_writes_model_and_history(workdir):
    model = workdir / "model"
    assert (model / "params.npz").exists()
    assert (model / "history.csv").exists()
    header, *rows = (model / "history.csv").read_text().splitlines()
    assert header == "epoch,loss,val_f1"
    assert 1 <= len(rows) <= TRAIN_CONFIG["epochs"]
    manifest = json.loads((model / "manifest.json").read_text())
    assert manifest["encoder"]["kind"] == "graphsage"


def test_eval_reports_metrics_json(workdir, capsys):
    assert main(["eval", "--bundle", str(workdir / "corpus"),
                 "--model", str(workdir / "model"),
                 "--snippets", str(workdir / "corpus" / "snippets.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) >= {"precision", "recall", "f1", "n_gold"}
    assert 0.0 <= report["f1"] <= 1.0
    # acronym-corrupted mentions resolve through the index's acronym rule
    # and are skipped as unambiguous, so n_gold can be below the snippet count
    assert 1 <= report["n_gold"] <= SMALL_GEN["snippets"]


def test_eval_attributes_every_error(workdir, capsys):
    assert main(["eval", "--bundle", str(workdir / "corpus"),
                 "--model", str(workdir / "model"),
                 "--snippets", str(workdir / "corpus" / "snippets.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_correct"] < report["n_gold"]
    assert sum(report["errors"].values()) == report["n_gold"] - report["n_correct"]


def test_disambiguate_ranks_candidates(workdir, capsys):
    kb, _, _, items = cli_items(workdir / "corpus")
    # a snippet whose candidate pool holds more than the top 3
    sid = next(it.snippet_id for it in items if len(candidate_pool(kb, it)) > 3)
    snippets = json.loads((workdir / "corpus" / "snippets.json").read_text())
    one = workdir / "one.json"
    one.write_text(json.dumps([row for row in snippets if row["id"] == sid]))
    assert main(["disambiguate", "--bundle", str(workdir / "corpus"),
                 "--model", str(workdir / "model"),
                 "--snippets", str(one), "--top-k", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 1
    cands = out[0]["candidates"]
    assert len(cands) == 3
    scores = [c["score"] for c in cands]
    assert scores == sorted(scores, reverse=True)
    assert all(set(c) == {"id", "name", "score"} for c in cands)


def _disambiguated(workdir, capsys, top_k: str) -> list[dict]:
    assert main(["disambiguate", "--bundle", str(workdir / "corpus"),
                 "--model", str(workdir / "model"),
                 "--snippets", str(workdir / "corpus" / "snippets.json"),
                 "--top-k", top_k]) == 0
    return json.loads(capsys.readouterr().out)


def test_disambiguate_top_k_zero_and_above_the_pool(workdir, capsys):
    answers = _disambiguated(workdir, capsys, "0")
    assert answers and all(row["candidates"] == [] for row in answers)
    kb, _, _, items = cli_items(workdir / "corpus")
    whole = _disambiguated(workdir, capsys, str(len(kb) + 1))
    assert [row["snippet"] for row in whole] == [it.snippet_id for it in items]
    for row, item in zip(whole, items):
        assert sorted(c["id"] for c in row["candidates"]) == candidate_pool(kb, item).tolist()
    top = _disambiguated(workdir, capsys, "3")
    assert [row["candidates"] for row in top] == [row["candidates"][:3] for row in whole]


def test_eval_and_disambiguate_rank_the_candidate_pool(workdir, capsys):
    """CLI eval scores what evaluate_model scores on lexical pools, and CLI
    disambiguate lists only members of each item's candidate_pool."""
    corpus = evalgen.generate_synthetic_kb(evalgen.SynthConfig(**SMALL_GEN))
    kb, store, freqs, items = cli_items(workdir / "corpus")
    model, _ = load_model(workdir / "model")
    expected = evalgen.evaluate_model(model, corpus, items,
                                      init_node_features(kb, store, freqs),
                                      candidates="lexical")
    assert main(["eval", "--bundle", str(workdir / "corpus"),
                 "--model", str(workdir / "model"),
                 "--snippets", str(workdir / "corpus" / "snippets.json")]) == 0
    assert json.loads(capsys.readouterr().out) == expected.to_dict()
    pools = {it.snippet_id: set(candidate_pool(kb, it).tolist()) for it in items}
    assert any(len(pool) < len(kb.ids_of_type("Finding")) for pool in pools.values())
    for row in _disambiguated(workdir, capsys, "5"):
        ids = [c["id"] for c in row["candidates"]]
        assert ids and set(ids) <= pools[row["snippet"]]


@pytest.mark.parametrize("top_k", ["-1", "two", "\u0665"])
def test_disambiguate_rejects_a_top_k_that_is_not_a_count(workdir, capsys, top_k):
    with pytest.raises(SystemExit) as info:
        main(["disambiguate", "--bundle", str(workdir / "corpus"),
              "--model", str(workdir / "model"),
              "--snippets", str(workdir / "corpus" / "snippets.json"), "--top-k", top_k])
    assert info.value.code == 2
    assert (f"argument --top-k: expected a non-negative integer, got '{top_k}'"
            in capsys.readouterr().err)


# each subcommand's required flags, and every integer flag of each
REQUIRED_FLAGS = {"ingest": ["--nodes", "n", "--edges", "e", "--out", "o"],
                  "gen-synth": ["--out", "o"],
                  "train": ["--bundle", "b", "--snippets", "s", "--out", "o"],
                  "disambiguate": ["--bundle", "b", "--model", "m", "--snippets", "s"]}
INT_FLAGS = [("ingest", "--dim"), ("ingest", "--seed"), ("gen-synth", "--seed"),
             ("gen-synth", "--snippets"), ("train", "--layers"), ("train", "--dim"),
             ("train", "--heads"), ("train", "--epochs"), ("train", "--patience"),
             ("train", "--negatives-per-positive"), ("train", "--seed"),
             ("disambiguate", "--top-k")]


@pytest.mark.parametrize("command, flag", INT_FLAGS)
def test_an_integer_flag_takes_only_ascii_digits(capsys, command, flag):
    def parse(value):
        return vars(build_parser().parse_args([command, *REQUIRED_FLAGS[command], flag, value]))

    assert parse("12")[flag[2:].replace("-", "_")] == 12
    assert parse("0")[flag[2:].replace("-", "_")] == 0
    # int() reads all but the last two: other scripts' digits, "_" between
    # digits, a sign, spaces around
    for value in ("\u0665", "\u0668", "1_0", " +3", "+3", "3 ", "-1", "two", ""):
        with pytest.raises(SystemExit) as info:
            parse(value)
        assert info.value.code == 2
        assert (f"argument {flag}: expected a non-negative integer, got {value!r}"
                in capsys.readouterr().err)


def test_no_flag_is_read_by_int():
    parser = build_parser()
    subcommands = next(a for a in parser._actions if a.choices and a.dest == "command")
    flags = {(command, action.option_strings[0]) for command, sub in subcommands.choices.items()
             for action in sub._actions if action.type in (int, _flag_count)}
    assert sorted(flags) == sorted(INT_FLAGS)
    assert all(action.type is not int for sub in subcommands.choices.values()
               for action in sub._actions)


def test_ingest_roundtrips_tsv_bundle(workdir, tmp_path):
    corpus = workdir / "corpus"
    assert main(["ingest", "--nodes", str(workdir / "nodes.tsv"),
                 "--edges", str(workdir / "edges.tsv"),
                 "--wordvecs", str(workdir / "wordvecs.txt"),
                 "--out", str(tmp_path / "bundle")]) == 0
    manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
    assert manifest["nodes"] == sum(SMALL_GEN["node_counts"].values())
    # the text's vectors and graph, read back, are the generator's to the bit
    assert sorted(os.listdir(tmp_path / "bundle")) == ["kb.npz", "manifest.json"]
    assert (tmp_path / "bundle" / "kb.npz").read_bytes() == (corpus / "kb.npz").read_bytes()


@pytest.mark.parametrize("field, value", [(1, "nan"), (3, "inf")])
def test_ingest_rejects_a_word_vector_number_that_is_not_finite(workdir, tmp_path, capsys,
                                                                 field, value):
    path = tmp_path / "wordvecs.txt"
    first, rest = (workdir / "wordvecs.txt").read_text().split("\n", 1)
    fields = first.split(" ")
    fields[field] = value
    path.write_text(" ".join(fields) + "\n" + rest)
    assert main(["ingest", "--nodes", str(workdir / "nodes.tsv"),
                 "--edges", str(workdir / "edges.tsv"), "--wordvecs", str(path),
                 "--out", str(tmp_path / "bundle")]) == 1
    assert capsys.readouterr().err == f"error: {path}:1: non-finite float\n"
    assert not (tmp_path / "bundle").exists()


def test_ingest_refuses_a_repeated_word_vector_token(workdir, tmp_path, capsys):
    path = tmp_path / "wordvecs.txt"
    path.write_text("a 1 2\nb 3 4\n\na 5 6\n")
    assert main(["ingest", "--nodes", str(workdir / "nodes.tsv"),
                 "--edges", str(workdir / "edges.tsv"), "--wordvecs", str(path),
                 "--out", str(tmp_path / "bundle")]) == 1
    assert capsys.readouterr().err == f"error: {path}:4: duplicate token 'a'\n"
    assert not (tmp_path / "bundle").exists()


def test_a_token_a_bundle_cannot_hold_leaves_out_as_it_was(toy_kb, tmp_path):
    """A refused store leaves the bundle directory as it was: a missing one
    (its parent too) is not made, and an existing one keeps just the file it
    held."""
    # a text column holds its strings one a line
    store = random_word_vectors({"fever", "fe\nver"}, 4)
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("kept\n")
    for bundle in (tmp_path / "bundle", tmp_path / "new" / "bundle", kept):
        with pytest.raises(HetlinkError) as exc:
            write_bundle(bundle, toy_kb, store)
        assert str(exc.value) == f"{bundle / 'kb.npz'}: a 'tokens' string holds a line break"
    assert os.listdir(tmp_path) == ["kept"]
    assert os.listdir(kept) == ["notes.txt"]
    assert (kept / "notes.txt").read_text() == "kept\n"


@pytest.mark.parametrize("nodes, column", [
    ([(0, "Drug\nX", "aspirin", ())], "types"),
])
def test_a_kb_string_that_kb_npz_cannot_hold_is_refused_before_any_file(tmp_path, nodes, column):
    # a text column holds its strings one a line
    kb = HeteroGraph.from_rows(nodes, [])
    with pytest.raises(HetlinkError) as exc:
        write_bundle(tmp_path / "bundle", kb, random_word_vectors({"aspirin"}, 4))
    assert str(exc.value) == (f"{tmp_path / 'bundle' / 'kb.npz'}: a {column!r} string holds "
                              f"a line break")
    assert not (tmp_path / "bundle").exists()


def test_an_edge_type_with_a_line_break_is_refused_and_a_name_with_one_is_normalized(tmp_path):
    kb = HeteroGraph.from_rows([(0, "Drug", "aspi\nrin", ["as\npirin"])],
                               [(0, 0, "CAUSE\nX")])
    assert kb.node(0).name == ("aspi", "rin") and kb.node(0).synonyms == (("as", "pirin"),)
    with pytest.raises(HetlinkError) as exc:
        write_bundle(tmp_path / "bundle", kb, random_word_vectors({"aspirin"}, 4))
    assert str(exc.value) == (f"{tmp_path / 'bundle' / 'kb.npz'}: a 'edge_types' string "
                              f"holds a line break")
    assert not (tmp_path / "bundle").exists()


@pytest.mark.parametrize("nodes, dim, error", [
    ("0\tDrug\taspirin\n", "0", "--dim must be >= 1, got 0"),
    ("# id\ttype\tname\n", "8", "{nodes}: no nodes"),
])
def test_ingest_rejects_a_bundle_train_could_not_read(tmp_path, capsys, nodes, dim, error):
    (tmp_path / "nodes.tsv").write_text(nodes)
    (tmp_path / "edges.tsv").write_text("")
    assert main(["ingest", "--nodes", str(tmp_path / "nodes.tsv"),
                 "--edges", str(tmp_path / "edges.tsv"), "--dim", dim,
                 "--out", str(tmp_path / "bundle")]) == 1
    assert capsys.readouterr().err == f"error: {error.format(nodes=tmp_path / 'nodes.tsv')}\n"
    assert not (tmp_path / "bundle").exists()


TWO_NODES = "0\tDrug\taspirin\n1\tFinding\tfever\n"


@pytest.mark.parametrize("nodes, edges, error", [
    ("0\tDrug\taspirin\n", "0\t5\tCAUSE\n",
     "{edges}:1: edge (0, 5, CAUSE) references unknown node"),
    ("# id\ttype\tname\n0\tDrug\taspirin\n0\tFinding\tfever\n", "",
     "{nodes}:3: duplicate node id 0"),
    ("0\tDrug\taspirin\n\n# no type\n1\t\tfever\n", "", "{nodes}:4: empty node type"),
    ("0\tDrug\taspirin\n1\tFinding\t?!\n", "",
     "{nodes}:2: node name must have at least one token"),
    (TWO_NODES, "# src\tdst\ttype\n0\t1\tCAUSE\n1\t0\t\n", "{edges}:3: empty edge type"),
    (TWO_NODES, "0\t1\tCAUSE\n\n0\t1\tCAUSE\n", "{edges}:3: duplicate edge (0, 1, 'CAUSE')"),
    (TWO_NODES, "0\t1\tCAUSE\n1\t1\tSELF\n",
     "{edges}:2: edge type 'SELF' is reserved for query graphs"),
    ("0\tDrug\taspirin\n99999999999999999999\tFinding\tfever\n", "",
     "{nodes}:2: node id 99999999999999999999 out of range"),
    ("-9223372036854775809\tDrug\taspirin\n", "",
     "{nodes}:1: node id -9223372036854775809 out of range"),
    (TWO_NODES, "0\t1\tCAUSE\n0\t99999999999999999999\tCAUSE\n",
     "{edges}:2: node id 99999999999999999999 out of range"),
    # an id is ASCII digits after an optional "-", not all that int() takes
    ("0\tDrug\taspirin\n1_0\tFinding\tfever\n", "", "{nodes}:2: bad node id '1_0'"),
    ("\u0665\tDrug\taspirin\n", "", "{nodes}:1: bad node id '\u0665'"),
    (" +7\tDrug\taspirin\n", "", "{nodes}:1: bad node id ' +7'"),
    (TWO_NODES, "0\t1\tCAUSE\n1_0\t1\tCAUSE\n", "{edges}:2: bad endpoint id '1_0'"),
    (TWO_NODES, "0\t\u0661\tCAUSE\n", "{edges}:1: bad endpoint id '\u0661'"),
    (TWO_NODES, " +1\t0\tCAUSE\n", "{edges}:1: bad endpoint id ' +1'"),
    ("0\tDrug\taspirin\t\t0.5,0.25\n", "", "{nodes}:1: expected 3 or 4 columns"),
    ("0\tDrug\taspirin\t\t\n", "", "{nodes}:1: expected 3 or 4 columns"),
    ("0\tDrug\taspirin\n1\tFinding\n", "", "{nodes}:2: expected 3 or 4 columns"),
])
def test_ingest_names_the_file_and_line_of_a_row_the_graph_rejects(tmp_path, capsys,
                                                                  nodes, edges, error):
    paths = {name: tmp_path / f"{name}.tsv" for name in ("nodes", "edges")}
    paths["nodes"].write_text(nodes)
    paths["edges"].write_text(edges)
    assert main(["ingest", "--nodes", str(paths["nodes"]), "--edges", str(paths["edges"]),
                 "--out", str(tmp_path / "bundle")]) == 1
    assert capsys.readouterr().err == f"error: {error.format(**paths)}\n"
    assert not (tmp_path / "bundle").exists()


def test_a_bundle_whose_manifest_lists_no_nodes_is_rejected(workdir, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(workdir / "corpus", bundle)
    write_bundle(bundle, HeteroGraph.from_rows([], []), random_word_vectors({"fever"}, 4))
    assert json.loads((bundle / "manifest.json").read_text())["nodes"] == 0
    for command in (["eval", "--model", str(workdir / "model")],
                    ["disambiguate", "--model", str(workdir / "model")],
                    ["train", "--out", str(tmp_path / "model")]):
        assert main([*command, "--bundle", str(bundle),
                     "--snippets", str(bundle / "snippets.json")]) == 1
        assert capsys.readouterr().err == f"error: {bundle / 'manifest.json'}: lists 0 nodes\n"
    assert not (tmp_path / "model").exists()


def test_unknown_config_key_is_rejected(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"encoder": "graphsage", "banana": 1}))
    code = main(["train", "--bundle", str(workdir / "corpus"),
                 "--snippets", str(workdir / "corpus" / "snippets.json"),
                 "--config", str(bad), "--out", str(tmp_path / "m")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "banana" in err


# every config key at a value neither the CLI nor the library defaults to,
# and where the model manifest records it
EVERY_KEY = {
    "encoder": ("encoder", "kind", "magnn"),
    "layers": ("encoder", "num_layers", 3),
    "dim": ("encoder", "dim", 24),
    "heads": ("encoder", "heads", 3),
    "dropout": ("encoder", "dropout", 0.25),
    "metapaths": ("encoder", "metapaths", ["Drug-CAUSE-AdverseEffect"]),
    "lr": ("train", "lr", 0.01),
    "weight_decay": ("train", "weight_decay", 0.0),
    "epochs": ("train", "epochs", 3),
    "patience": ("train", "patience", 2),
    "sampler": ("train", "sampler", "hard"),
    "curriculum": ("train", "curriculum", False),
    "negatives_per_positive": ("train", "negatives_per_positive", 2),
    "seed": ("train", "seed", 4),
}


def test_every_config_key_reaches_the_model_manifest(workdir, tmp_path):
    config = tmp_path / "every.json"
    config.write_text(json.dumps({key: value for key, (_, _, value) in EVERY_KEY.items()}))
    assert main(["train", "--bundle", str(workdir / "corpus"),
                 "--snippets", str(workdir / "corpus" / "snippets.json"),
                 "--config", str(config), "--out", str(tmp_path / "m")]) == 0
    manifest = json.loads((tmp_path / "m" / "manifest.json").read_text())
    for key, (section, name, value) in EVERY_KEY.items():
        assert manifest[section][name] == value, key
    assert manifest["encoder"]["seed"] == EVERY_KEY["seed"][2]


@pytest.mark.parametrize("setting", [{"curriculum": "false"}, {"curriculum": 1},
                                     {"epochs": 2.9}, {"epochs": True}, {"epochs": "3"},
                                     {"lr": False}, {"lr": float("inf")}, {"sampler": 1},
                                     {"metapaths": "x"}],
                         ids=lambda setting: "{}={!r}".format(*next(iter(setting.items()))))
def test_config_value_its_setting_would_change_is_rejected(workdir, tmp_path, capsys,
                                                           setting):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({**TRAIN_CONFIG, **setting}))
    code = main(["train", "--bundle", str(workdir / "corpus"),
                 "--snippets", str(workdir / "corpus" / "snippets.json"),
                 "--config", str(config), "--out", str(tmp_path / "m")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(next(iter(setting))) in err
    assert err.count("\n") == 1
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("label", ["Drug-FOO-Finding", "AdverseEffect-CAUSE-Drug",
                                   "Drug-CAUSE-AdverseEffect-FOO-Finding"])
def test_train_refuses_a_metapath_with_an_edge_the_kb_lacks(workdir, tmp_path, capsys, label):
    # the KB has no FOO edge, and its CAUSE edges run from Drug to AdverseEffect
    config = tmp_path / "paths.json"
    config.write_text(json.dumps({**TRAIN_CONFIG, "encoder": "magnn", "metapaths": [label]}))
    code = main(["train", "--bundle", str(workdir / "corpus"),
                 "--snippets", str(workdir / "corpus" / "snippets.json"),
                 "--config", str(config), "--out", str(tmp_path / "m")])
    assert code == 1
    assert capsys.readouterr().err == f"error: metapath {label} has an edge the KB schema lacks\n"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("old, new", [("AdverseEffect", "Adverse-Effect"), ("CAUSE", "MAY-CAUSE"),
                                      ("Drug", "Drug ")])
def test_train_magnn_refuses_a_kb_type_a_metapath_label_cannot_carry(tmp_path, capsys, old, new):
    # a MAGNN model's metapaths are saved as labels, which parse back only
    # types without '-' and without leading or trailing whitespace
    def rename(t):
        return new if t == old else t
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({
        **SMALL_GEN,
        "node_counts": {rename(t): n for t, n in SMALL_GEN["node_counts"].items()},
        "triples": [[rename(s), rename(e), rename(d), k]
                    for s, e, d, k in evalgen.DEFAULT_TRIPLES]}))
    bundle = tmp_path / "bundle"
    assert main(["gen-synth", "--config", str(gen), "--out", str(bundle)]) == 0
    train = ["train", "--bundle", str(bundle), "--snippets", str(bundle / "snippets.json"),
             "--config", str(tmp_path / "train.json")]
    (tmp_path / "train.json").write_text(json.dumps({**TRAIN_CONFIG, "epochs": 1}))
    capsys.readouterr()
    assert main([*train, "--encoder", "magnn", "--out", str(tmp_path / "m")]) == 1
    assert capsys.readouterr().err == (f"error: metapath type {new!r} holds '-' or leading "
                                       f"or trailing whitespace, which a metapath label "
                                       f"cannot carry\n")
    assert not (tmp_path / "m").exists()
    for kind in ("graphsage", "rgcn"):
        assert main([*train, "--encoder", kind, "--out", str(tmp_path / kind)]) == 0


def test_whole_float_config_value_sets_an_int(workdir, tmp_path):
    config = tmp_path / "whole.json"
    config.write_text(json.dumps({**TRAIN_CONFIG, "epochs": 2.0, "lr": 1}))
    assert main(["train", "--bundle", str(workdir / "corpus"),
                 "--snippets", str(workdir / "corpus" / "snippets.json"),
                 "--config", str(config), "--out", str(tmp_path / "m")]) == 0
    train = json.loads((tmp_path / "m" / "manifest.json").read_text())["train"]
    assert train["epochs"] == 2 and isinstance(train["epochs"], int)
    assert train["lr"] == 1.0 and isinstance(train["lr"], float)


def test_curriculum_flag_takes_only_yes_no_words():
    def curriculum(word):
        return build_parser().parse_args(["train", "--bundle", "b", "--snippets", "s",
                                          "--out", "o", "--curriculum", word]).curriculum

    for word, value in [("1", True), ("true", True), ("YES", True),
                        ("0", False), ("False", False), ("no", False)]:
        assert curriculum(word) is value
    for word in ("on", "off", "ture", ""):
        with pytest.raises(SystemExit):
            curriculum(word)


def test_missing_bundle_fails_cleanly(tmp_path, capsys):
    code = main(["eval", "--bundle", str(tmp_path / "nope"),
                 "--model", str(tmp_path / "nope"),
                 "--snippets", str(tmp_path / "nope.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("case", ["missing", "directory"])
def test_a_bundle_manifest_that_cannot_be_opened_ends_in_one_line_that_names_it(
        workdir, tmp_path, capsys, case):
    manifest = tmp_path / "bundle" / "manifest.json"
    if case == "directory":
        manifest.mkdir(parents=True)
    code = main(["eval", "--bundle", str(tmp_path / "bundle"), "--model", str(workdir / "model"),
                 "--snippets", str(workdir / "corpus" / "snippets.json")])
    assert code == 1
    reason = "Is a directory" if case == "directory" else "No such file or directory"
    assert capsys.readouterr().err == f"error: {manifest}: {reason}\n"


REBUILD = ("(this hetlink reads version 6): re-run gen-synth or ingest to rebuild the "
           "bundle\n")


def test_bad_bundle_version_rejected(workdir, tmp_path, capsys):
    # a version-2 bundle holds its KB as nodes.tsv and edges.tsv, a version-3
    # graph.npz may hold preset feature rows, and a version-4 one holds type
    # codes and synonym counts: each is refused
    bundle = tmp_path / "bundle"
    shutil.copytree(workdir / "corpus", bundle)
    os.remove(bundle / "kb.npz")
    for name in ("nodes.tsv", "edges.tsv"):
        shutil.copy(workdir / name, bundle / name)
    manifest = json.loads((bundle / "manifest.json").read_text())
    for version in ("2", "3", "4", "99"):
        (bundle / "manifest.json").write_text(json.dumps({**manifest,
                                                          "bundle_version": version}))
        code = main(["eval", "--bundle", str(bundle),
                     "--model", str(workdir / "model"),
                     "--snippets", str(bundle / "snippets.json")])
        assert code == 1
        assert capsys.readouterr().err == (f"error: unsupported bundle version {version!r} "
                                           f"{REBUILD}")


def test_a_version_1_bundle_ends_in_one_line_that_says_how_to_rebuild_it(workdir, tmp_path,
                                                                        capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(workdir / "corpus", bundle)
    os.remove(bundle / "kb.npz")
    shutil.copy(workdir / "wordvecs.txt", bundle / "wordvecs.txt")
    manifest = json.loads((bundle / "manifest.json").read_text())
    (bundle / "manifest.json").write_text(json.dumps({**manifest, "bundle_version": "1"}))
    code = main(["eval", "--bundle", str(bundle), "--model", str(workdir / "model"),
                 "--snippets", str(bundle / "snippets.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: unsupported bundle version '1' {REBUILD}"


def test_a_version_5_bundle_ends_in_one_line_that_says_how_to_rebuild_it(workdir, tmp_path,
                                                                        capsys):
    # version 5 held kb.npz's arrays in two archives: the graph's columns as
    # graph.npz and the word vectors' as wordvecs.npz
    bundle = tmp_path / "bundle"
    shutil.copytree(workdir / "corpus", bundle)
    arrays = _arrays(bundle / "kb.npz")
    os.remove(bundle / "kb.npz")
    vectors = {"tokens", "vectors"}
    _save_arrays(bundle / "graph.npz", {k: v for k, v in arrays.items() if k not in vectors})
    _save_arrays(bundle / "wordvecs.npz", {k: v for k, v in arrays.items() if k in vectors})
    manifest = json.loads((bundle / "manifest.json").read_text())
    (bundle / "manifest.json").write_text(json.dumps({**manifest, "bundle_version": "5"}))
    code = main(["eval", "--bundle", str(bundle), "--model", str(workdir / "model"),
                 "--snippets", str(bundle / "snippets.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: unsupported bundle version '5' {REBUILD}"


def _with_row(vectors, row, value):
    out = vectors.copy()
    out[row] = value
    return out


# how kb.npz's word-vector columns break: (tokens, vectors) -> (the arrays
# written in their place, what the error says after the file's path)
VECTOR_BREAKS = {
    "no tokens": lambda t, v: ({"vectors": v}, "no 'tokens' array"),
    "no vectors": lambda t, v: ({"tokens": t}, "no 'vectors' array"),
    "float32 vectors": lambda t, v: (
        {"tokens": t, "vectors": v.astype(np.float32)},
        f"'vectors' must be a 2-D float64 array, got float32 of shape {v.shape}"),
    "1-D vectors": lambda t, v: (
        {"tokens": t, "vectors": v.ravel()},
        f"'vectors' must be a 2-D float64 array, got float64 of shape ({v.size},)"),
    "no columns": lambda t, v: ({"tokens": t, "vectors": v[:, :0]}, "'vectors' has no columns"),
    "numeric tokens": lambda t, v: (
        {"tokens": np.arange(len(v), dtype=np.int64), "vectors": v},
        f"'tokens' must be a 1-D uint8 array, got int64 of shape ({len(v)},)"),
    "tokens not UTF-8": lambda t, v: (
        {"tokens": np.append(t, np.uint8(0xff)), "vectors": v}, "'tokens' is not UTF-8 text"),
    "a row short": lambda t, v: (
        {"tokens": t, "vectors": v[:-1]}, f"'tokens' holds {len(v)} lines, not {len(v) - 1}"),
    "nan": lambda t, v: (
        {"tokens": t, "vectors": _with_row(v, 3, np.nan)},
        f"row 3 ({_lines(t)[3]!r}): non-finite float"),
    "inf": lambda t, v: (
        {"tokens": t, "vectors": _with_row(v, -1, -np.inf)},
        f"row {len(v) - 1} ({_lines(t)[-1]!r}): non-finite float"),
    "duplicate token": lambda t, v: (
        _with_line({"tokens": t, "vectors": v}, "tokens", 5, _lines(t)[4]),
        f"duplicate token {_lines(t)[4]!r}"),
}


def test_bundle_manifest_that_is_not_an_object_is_rejected(workdir, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(workdir / "corpus", bundle)
    (bundle / "manifest.json").write_text("[1]")
    code = main(["eval", "--bundle", str(bundle), "--model", str(workdir / "model"),
                 "--snippets", str(bundle / "snippets.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bundle / 'manifest.json'}: bundle manifest must be a JSON object, got list\n")


def _arrays(path) -> dict:
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


def _save_arrays(path, arrays) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _lines(text: np.ndarray) -> list[str]:
    return text.tobytes().decode("utf-8").split("\n")


def _text(lines) -> np.ndarray:
    return np.frombuffer("\n".join(lines).encode("utf-8"), dtype=np.uint8)


def _added_node(a) -> dict:
    """kb.npz columns `a` with one more node, 99999 "extra", of the first
    node's type and with no synonyms."""
    return {**a, "ids": np.append(a["ids"], 99999),
            **{name: _text(_lines(a[name]) + [line])
               for name, line in (("types", _lines(a["types"])[0]), ("names", "extra"),
                                  ("synonyms", ""))}}


def _edge_rows(a, rows) -> dict:
    """kb.npz columns `a` with its edges `rows`, in that order."""
    return {**a, "src": a["src"][rows], "dst": a["dst"][rows],
            "edge_types": _text([_lines(a["edge_types"])[row] for row in rows])}


# (graph part, how kb.npz's columns change) for files that disagree with the manifest
ROW_CUTS = {"edges": lambda a: _edge_rows(a, list(range(len(a["src"]) * 2 // 3))),
            "nodes": _added_node}


@pytest.mark.parametrize("part", sorted(ROW_CUTS))
def test_eval_rejects_a_bundle_whose_files_disagree_with_its_manifest(workdir, tmp_path,
                                                                       capsys, part):
    bundle = tmp_path / "bundle"
    shutil.copytree(workdir / "corpus", bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    arrays = ROW_CUTS[part](_arrays(bundle / "kb.npz"))
    _save_arrays(bundle / "kb.npz", arrays)
    held = {"nodes": len(arrays["ids"]), "edges": len(arrays["src"])}
    assert held != {key: manifest[key] for key in held}
    code = main(["eval", "--bundle", str(bundle), "--model", str(workdir / "model"),
                 "--snippets", str(bundle / "snippets.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bundle / 'manifest.json'}: lists {manifest['nodes']} nodes and "
        f"{manifest['edges']} edges, its files hold {held['nodes']} and {held['edges']}\n")


def _with_line(a, name, row, line) -> dict:
    """kb.npz columns `a` with line `row` of text column `name` set to `line`."""
    lines = _lines(a[name])
    lines[row] = line
    return {**a, name: _text(lines)}


def _set(a, name, row, value) -> dict:
    changed = a[name].copy()
    changed[row] = value
    return {**a, name: changed}


def _edge(a, row) -> tuple:
    """Edge `row` of kb.npz columns `a` as (src, dst, type)."""
    return int(a["src"][row]), int(a["dst"][row]), _lines(a["edge_types"])[row]


# kb.npz broken in each way read_bundle refuses: columns -> (broken columns,
# what the error says after the path); an edge rule breaks edge row 5, after
# a node rule breaks node row 3, and a word-vector break replaces the columns
# tokens and vectors as VECTOR_BREAKS says
KB_BREAKS = {
    "no src": lambda a: ({k: v for k, v in a.items() if k != "src"}, "no 'src' array"),
    "float ids": lambda a: ({**a, "ids": a["ids"].astype(np.float64)},
                            f"'ids' must be a 1-D int64 array, got float64 of shape "
                            f"({len(a['ids'])},)"),
    "2-D ids": lambda a: ({**a, "ids": a["ids"][:, None]},
                          f"'ids' must be a 1-D int64 array, got int64 of shape "
                          f"({len(a['ids'])}, 1)"),
    "a dst short": lambda a: ({**a, "dst": a["dst"][:-1]},
                              f"'dst' has {len(a['src']) - 1} rows, 'src' {len(a['src'])}"),
    "a type short": lambda a: ({**a, "types": _text(_lines(a["types"])[:-1])},
                               f"'types' holds {len(a['ids']) - 1} lines, not {len(a['ids'])}"),
    "an edge type short": lambda a: ({**a, "edge_types": _text(_lines(a["edge_types"])[:-1])},
                                     f"'edge_types' holds {len(a['src']) - 1} lines, "
                                     f"not {len(a['src'])}"),
    "a name short": lambda a: ({**a, "names": _text(_lines(a["names"])[:-1])},
                               f"'names' holds {len(a['ids']) - 1} lines, not {len(a['ids'])}"),
    "a synonym line more": lambda a: ({**a, "synonyms": _text(_lines(a["synonyms"]) + ["x"])},
                                      f"'synonyms' holds {len(a['ids']) + 1} lines, "
                                      f"not {len(a['ids'])}"),
    "names not UTF-8": lambda a: ({**a, "names": np.append(a["names"], np.uint8(0xff))},
                                  "'names' is not UTF-8 text"),
    "empty node type": lambda a: (_with_line(a, "types", 3, ""), "node row 3: empty node type"),
    "no name token": lambda a: (_with_line(a, "names", 3, "?!"),
                                "node row 3: node name must have at least one token"),
    "duplicate id": lambda a: (_set(a, "ids", 3, a["ids"][2]),
                               f"node row 3: duplicate node id {a['ids'][2]}"),
    "unknown end": lambda a: (_set(a, "dst", 5, 99999),
                              f"edge row 5: edge ({_edge(a, 5)[0]}, 99999, {_edge(a, 5)[2]}) "
                              f"references unknown node"),
    "empty edge type": lambda a: (_with_line(a, "edge_types", 5, ""),
                                  "edge row 5: empty edge type"),
    "duplicate edge": lambda a: (_edge_rows(a, [*range(5), *range(4, len(a["src"]) - 1)]),
                                 f"edge row 5: duplicate edge {_edge(a, 4)}"),
    "SELF edge": lambda a: (_with_line(a, "edge_types", 5, "SELF"),
                            "edge row 5: edge type 'SELF' is reserved for query graphs"),
    **{case: lambda a, case=case: _broken_vectors(a, case) for case in VECTOR_BREAKS},
}


def _broken_vectors(a, case) -> tuple[dict, str]:
    graph = {k: v for k, v in a.items() if k not in ("tokens", "vectors")}
    arrays, error = VECTOR_BREAKS[case](a["tokens"], a["vectors"])
    return {**graph, **arrays}, error


@pytest.mark.parametrize("case", ["truncated", "not a zip", "one .npy array", *KB_BREAKS])
def test_a_broken_kb_file_ends_in_one_line_that_names_it(workdir, tmp_path, capsys, case):
    bundle = tmp_path / "bundle"
    shutil.copytree(workdir / "corpus", bundle)
    path = bundle / "kb.npz"
    error = "not a readable .npz archive"
    if case == "truncated":
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    elif case == "not a zip":
        path.write_bytes(b"0\tDrug\ta\n")
    elif case == "one .npy array":
        vectors = _arrays(path)["vectors"]
        with open(path, "wb") as fh:
            np.save(fh, vectors)
    else:
        arrays, error = KB_BREAKS[case](_arrays(path))
        _save_arrays(path, arrays)
    code = main(["eval", "--bundle", str(bundle), "--model", str(workdir / "model"),
                 "--snippets", str(bundle / "snippets.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: {error}\n"


# a manifest count that is not an integer: (key, value, its repr; None: drop the key)
COUNT_BREAKS = [("nodes", "900", "'900'"), ("nodes", True, "True"), ("edges", 2250.5, "2250.5"),
                ("nodes", 900.0, "900.0"), ("edges", None, "None"), ("nodes", False, "False")]


@pytest.mark.parametrize("key, value, shown", COUNT_BREAKS)
def test_eval_rejects_a_manifest_count_that_is_not_an_integer(workdir, tmp_path, capsys,
                                                              key, value, shown):
    bundle = tmp_path / "bundle"
    shutil.copytree(workdir / "corpus", bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    if value is None:
        del manifest[key]
    else:
        manifest[key] = value
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    code = main(["eval", "--bundle", str(bundle), "--model", str(workdir / "model"),
                 "--snippets", str(bundle / "snippets.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        f'error: {bundle / "manifest.json"}: "{key}" must be an integer, got {shown}\n')


@pytest.mark.parametrize("key, value", [("edges", -3), ("nodes", -1)])
def test_eval_rejects_a_negative_manifest_count(workdir, tmp_path, capsys, key, value):
    bundle = tmp_path / "bundle"
    shutil.copytree(workdir / "corpus", bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    (bundle / "manifest.json").write_text(json.dumps({**manifest, key: value}))
    code = main(["eval", "--bundle", str(bundle), "--model", str(workdir / "model"),
                 "--snippets", str(bundle / "snippets.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        f'error: {bundle / "manifest.json"}: "{key}" must be >= 0, got {value}\n')


NOT_JSON = '[{"Text": "x"\n]'


def _put_ff(path, line) -> int:
    """`path` with a byte 0xff put at the start of its line `line`, which may
    be one past its last line; returns `line`."""
    lines = path.read_bytes().splitlines(keepends=True) + [b""]
    lines[line - 1] = b"\xff" + lines[line - 1]
    path.write_bytes(b"".join(lines))
    return line


def _unreadable_file(case, workdir, tmp_path):
    """(argv, the file `case` breaks, what main's error says after its path)."""
    bundle, model = tmp_path / "bundle", tmp_path / "model"
    shutil.copytree(workdir / "corpus", bundle)
    shutil.copytree(workdir / "model", model)
    nodes = shutil.copy(workdir / "nodes.tsv", tmp_path / "nodes.tsv")
    snippets = bundle / "snippets.json"
    run = {"eval": ["eval", "--bundle", str(bundle), "--model", str(model),
                    "--snippets", str(snippets)],
           "train": ["train", "--bundle", str(bundle), "--snippets", str(snippets),
                     "--out", str(tmp_path / "out"), "--config", str(tmp_path / "train.json")],
           "ingest": ["ingest", "--nodes", str(nodes),
                      "--edges", str(workdir / "edges.tsv"), "--out", str(tmp_path / "out")]}
    try:
        json.loads(NOT_JSON)
    except json.JSONDecodeError as exc:
        not_json = f": not JSON: {exc}"
    if case == "snippets not UTF-8":
        return run["eval"], snippets, f":{_put_ff(snippets, 3)}: not UTF-8"
    if case == "snippets not JSON":
        snippets.write_text(NOT_JSON)
        return run["eval"], snippets, not_json
    if case == "wordvecs.txt not UTF-8":
        path = tmp_path / "wordvecs.txt"
        shutil.copy(workdir / "wordvecs.txt", path)
        n_lines = len(path.read_bytes().splitlines())
        return (run["ingest"] + ["--wordvecs", str(path)], path,
                f":{_put_ff(path, n_lines + 1)}: not UTF-8")
    if case == "train config not JSON":
        (tmp_path / "train.json").write_text(NOT_JSON)
        return run["train"], tmp_path / "train.json", not_json
    if case == "model manifest not JSON":
        (model / "manifest.json").write_text(NOT_JSON)
        return run["eval"], model / "manifest.json", not_json
    assert case == "ingest nodes not UTF-8"
    return run["ingest"], nodes, f":{_put_ff(nodes, 5)}: not UTF-8"


@pytest.mark.parametrize("case", ["snippets not UTF-8", "snippets not JSON",
                                  "wordvecs.txt not UTF-8", "train config not JSON",
                                  "model manifest not JSON", "ingest nodes not UTF-8"])
def test_an_unreadable_file_ends_in_one_line_that_names_it(workdir, tmp_path, capsys, case):
    argv, path, error = _unreadable_file(case, workdir, tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}{error}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["eval", "disambiguate"])
def test_model_with_unexpected_parameters_is_rejected(workdir, tmp_path, capsys, command):
    model = tmp_path / "model"
    shutil.copytree(workdir / "model", model)
    with np.load(model / "params.npz") as npz:
        params = {name: npz[name] for name in npz.files}
    params["stray"] = np.zeros(2)
    np.savez(model / "params.npz", **params)
    code = main([command, "--bundle", str(workdir / "corpus"), "--model", str(model),
                 "--snippets", str(workdir / "corpus" / "snippets.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "stray" in err
    assert err.count("\n") == 1


def _break_params_archive(path, case) -> None:
    """Rewrite the model file `path` as a file np.load cannot read as a
    parameter archive without pickle."""
    if case == "truncated":
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
        return
    with np.load(path) as npz:
        params = {name: npz[name] for name in npz.files}
    with open(path, "wb") as fh:
        if case == "one .npy array":
            np.save(fh, params["head.tau"])
        else:
            np.savez(fh, **{**params, "head.tau": np.array([0.5, None], dtype=object)})


@pytest.mark.parametrize("command", ["eval", "disambiguate"])
@pytest.mark.parametrize("case", ["truncated", "one .npy array", "object array"])
def test_a_broken_params_file_ends_in_one_line_that_names_it(workdir, tmp_path, capsys,
                                                              command, case):
    model = tmp_path / "model"
    shutil.copytree(workdir / "model", model)
    _break_params_archive(model / "params.npz", case)
    code = main([command, "--bundle", str(workdir / "corpus"), "--model", str(model),
                 "--snippets", str(workdir / "corpus" / "snippets.json")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {model / 'params.npz'}: not a readable .npz archive\n")


@pytest.mark.parametrize("command", ["eval", "disambiguate"])
@pytest.mark.parametrize("how", MANIFEST_BREAKS)
def test_model_with_a_malformed_manifest_is_rejected(workdir, tmp_path, capsys,
                                                     command, how):
    shutil.copytree(workdir / "model", tmp_path / "model")
    error = break_manifest(tmp_path / "model", how)
    code = main([command, "--bundle", str(workdir / "corpus"),
                 "--model", str(tmp_path / "model"),
                 "--snippets", str(workdir / "corpus" / "snippets.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {error}\n"


def test_zero_epochs_is_rejected_before_any_model_is_written(workdir, tmp_path, capsys):
    config = tmp_path / "zero.json"
    config.write_text(json.dumps({**TRAIN_CONFIG, "epochs": 0, "patience": 0}))
    code = main(["train", "--bundle", str(workdir / "corpus"),
                 "--snippets", str(workdir / "corpus" / "snippets.json"),
                 "--config", str(config), "--out", str(tmp_path / "m")])
    assert code == 1
    assert capsys.readouterr().err == "error: epochs must be >= 1\n"
    assert not (tmp_path / "m").exists()


def test_patience_above_epochs_trains_every_epoch(tmp_path):
    # the default patience, 30, is above --epochs 2: early stopping never fires
    assert main(["gen-synth", "--seed", "1", "--snippets", "60",
                 "--out", str(tmp_path / "bundle")]) == 0
    assert main(["train", "--bundle", str(tmp_path / "bundle"),
                 "--snippets", str(tmp_path / "bundle" / "snippets.json"),
                 "--epochs", "2", "--out", str(tmp_path / "m")]) == 0
    assert json.loads((tmp_path / "m" / "manifest.json").read_text())["train"]["patience"] == 30
    header, *rows = (tmp_path / "m" / "history.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["0", "1"]


@pytest.mark.parametrize("sampler", ["uniform", "hard"])
def test_train_on_a_kb_smaller_than_the_negatives_asked_for(tmp_path, sampler):
    # 9 nodes, 10 negatives per positive: each draw takes every node but the gold
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"node_counts": {"Drug": 1, "AdverseEffect": 3, "Symptom": 2,
                                               "Finding": 3},
                               "vocab_size": 40, "snippets": 20, "seed": 1}))
    assert main(["gen-synth", "--config", str(gen), "--out", str(tmp_path / "bundle")]) == 0
    assert len(read_bundle(tmp_path / "bundle")[0]) == 9
    assert main(["train", "--bundle", str(tmp_path / "bundle"),
                 "--snippets", str(tmp_path / "bundle" / "snippets.json"),
                 "--sampler", sampler, "--negatives-per-positive", "10", "--epochs", "3",
                 "--encoder", "graphsage", "--layers", "1", "--dim", "8",
                 "--out", str(tmp_path / "m")]) == 0
    header, *rows = (tmp_path / "m" / "history.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["0", "1", "2"]


def _snippet_rows(workdir):
    return json.loads((workdir / "corpus" / "snippets.json").read_text())


def _run_on_rows(workdir, tmp_path, command, rows):
    path = tmp_path / "snippets.json"
    path.write_text(json.dumps(rows))
    target = (["--config", str(workdir / "train.json"), "--out", str(tmp_path / "m")]
              if command == "train" else ["--model", str(workdir / "model")])
    return main([command, "--bundle", str(workdir / "corpus"), "--snippets", str(path)]
                + target)


@pytest.mark.parametrize("command", ["train", "eval", "disambiguate"])
def test_repeated_snippet_id_is_rejected(workdir, tmp_path, capsys, command):
    rows = [{**row, "id": "dup"} for row in _snippet_rows(workdir)]
    assert _run_on_rows(workdir, tmp_path, command, rows) == 1
    assert capsys.readouterr().err == "error: duplicate snippet id 'dup'\n"
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("kept", [0, 2])
def test_train_says_how_many_snippets_have_an_ambiguous_mention(workdir, tmp_path, capsys,
                                                                kept):
    # the index matches every mention of a skipped snippet
    ambiguous = {it.snippet_id for it in cli_items(workdir / "corpus")[3]}
    rows = _snippet_rows(workdir)
    skipped = [row for row in rows if row["id"] not in ambiguous][:3]
    rows = skipped + [row for row in rows if row["id"] in ambiguous][:kept]
    assert _run_on_rows(workdir, tmp_path, "train", rows) == 1
    assert capsys.readouterr().err == (f"error: {kept} of {len(rows)} snippets have an "
                                       f"ambiguous mention; training needs at least 3\n")
    assert len(skipped) == 3 and not (tmp_path / "m").exists()


# how snippet 3 (or the whole file) is broken: the error it ends in
SNIPPET_ERRORS = {
    "Text": "snippet 3: missing key 'Text'",
    "end_offset": "snippet 3: missing key 'end_offset'",
    "snippet=oops": "snippet 3: expected a JSON object, got str",
    "file=7": "a snippet file holds a JSON object or list, not int",
    "start_offset=str": "snippet 3: key 'start_offset' has the wrong type (str)",
    "link_id=C426": "snippet 3: key 'link_id' is not an integer: 'C426'",
    "link_id=1_0": "snippet 3: key 'link_id' is not an integer: '1_0'",
    "link_id=\u0665": "snippet 3: key 'link_id' is not an integer: '\u0665'",
    "link_id= +7": "snippet 3: key 'link_id' is not an integer: ' +7'",
    "Text=5": "snippet 3: key 'Text' has the wrong type (int)",
    "Mentions=x": "snippet 3: key 'Mentions' has the wrong type (str)",
    "mention=--": "snippet 3: mention surface has no word character: Mention(surface='--', "
                  "start_offset=2, end_offset=4, category=None, link_id=None)",
}


@pytest.mark.parametrize("key", SNIPPET_ERRORS)
def test_snippet_missing_a_key_names_it_and_its_index(workdir, tmp_path, capsys, key):
    rows = _snippet_rows(workdir)
    bad, mention = rows[3], rows[3]["Mentions"][0]
    if key == "Text":
        del bad["Text"]
    elif key == "end_offset":
        del mention["end_offset"]
    elif key == "snippet=oops":
        rows[3] = "oops"
    elif key == "file=7":
        rows = 7
    elif key == "start_offset=str":
        mention["start_offset"] = str(mention["start_offset"])
    elif key.startswith("link_id="):
        mention["link_id"] = key.split("=", 1)[1]
    elif key == "Text=5":
        bad["Text"] = 5
    elif key == "mention=--":
        bad["Text"], bad["Mentions"] = "x --", [{"mention": "--", "start_offset": 2,
                                                 "end_offset": 4}]
    else:
        bad["Mentions"] = "x"
    assert _run_on_rows(workdir, tmp_path, "eval", rows) == 1
    assert capsys.readouterr().err == f"error: {SNIPPET_ERRORS[key]}\n"


def test_eval_refuses_a_snippet_whose_mentions_overlap(workdir, tmp_path, capsys):
    rows = _snippet_rows(workdir)
    mention = rows[0]["Mentions"][-1]
    start, end = mention["start_offset"], mention["end_offset"] - 1
    prefix = rows[0]["Text"][start:end]         # the mention less its last letter
    rows[0]["Mentions"].insert(0, {"mention": prefix, "start_offset": start, "end_offset": end})
    assert _run_on_rows(workdir, tmp_path, "eval", rows) == 1
    assert capsys.readouterr().err == (f"error: snippet 0: mentions {prefix!r} and "
                                       f"{mention['mention']!r} overlap\n")


@pytest.mark.parametrize("command", ["train", "eval"])
def test_gold_link_id_outside_the_kb_is_rejected(workdir, tmp_path, capsys, command):
    rows = _snippet_rows(workdir)
    for mention in rows[3]["Mentions"]:
        mention["link_id"] = 99999
    assert _run_on_rows(workdir, tmp_path, command, rows) == 1
    assert capsys.readouterr().err == (f"error: snippet {rows[3]['id']}: link_id 99999 "
                                       f"is not a node of the bundle's KB\n")
    assert not (tmp_path / "m").exists()


@pytest.mark.parametrize("how", ["missing", "misshapen", "nan", "inf"])
def test_eval_rejects_a_model_with_a_broken_parameter(workdir, tmp_path, capsys, how):
    shutil.copytree(workdir / "model", tmp_path / "model")
    error = break_params(tmp_path / "model", how)
    code = main(["eval", "--bundle", str(workdir / "corpus"),
                 "--model", str(tmp_path / "model"),
                 "--snippets", str(workdir / "corpus" / "snippets.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {error}\n"


def test_train_flags_are_the_config_keys_but_metapaths():
    args = build_parser().parse_args(["train", "--bundle", "b", "--snippets", "s",
                                      "--out", "o"])
    flags = set(vars(args)) - {"command", "func", "bundle", "snippets", "out", "config"}
    assert flags == CONFIG_KEYS - {"metapaths"}


# -- fuzzed loaders: whatever a file holds, the CLI ends in one line --------

def _main_quietly(argv) -> tuple[int, str]:
    """main(argv)'s exit code and stderr, its stdout dropped."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _assert_one_line_exit(code, err, error):
    """`error`, a loader's message, is what main printed; with none, main
    exited 0 or printed one error line."""
    if error is not None:
        assert "\n" not in error
        assert (code, err) == (1, f"error: {error}\n")
    elif code:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1


ANY_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_snippet_file_loads_or_ends_in_one_line_and_exit_1(workdir, data):
    rows = _snippet_rows(workdir)[:3]
    i = data.draw(st.integers(0, len(rows) - 1))
    row, mention = rows[i], rows[i]["Mentions"][0]
    where = data.draw(st.sampled_from(["text", "file", "row", *row, *mention]))
    value = data.draw(JSON_VALUES)
    if where == "file":
        rows = value
    elif where == "row":
        rows[i] = value
    elif where != "text":
        obj = row if where in row else mention
        if data.draw(st.booleans()):
            del obj[where]
        else:
            obj[where] = value
    text = data.draw(ANY_TEXT) if where == "text" else json.dumps(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "snippets.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            _load_snippets(path)
            error = None
        except (HetlinkError, json.JSONDecodeError) as exc:
            error = str(exc)
        code, err = _main_quietly(["eval", "--bundle", str(workdir / "corpus"),
                                   "--model", str(workdir / "model"), "--snippets", path])
    _assert_one_line_exit(code, err, error)


WORDVEC_PARTS = st.sampled_from(["tok", "1.0", "-2.5e-3", "1_0", "nan", "-inf", "1e999",
                                 "0x10", "1,0", "x", ""]) | ANY_TEXT


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_word_vector_file_loads_or_ends_in_one_line_and_exit_1(workdir, data):
    lines = (workdir / "wordvecs.txt").read_text(encoding="utf-8").splitlines()
    drawn = [data.draw(st.lists(WORDVEC_PARTS, max_size=5).map(" ".join))
             for _ in range(data.draw(st.integers(1, 3)))]
    at = data.draw(st.integers(0, len(lines)))
    lines = drawn if data.draw(st.booleans()) else lines[:at] + drawn + lines[at:]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "wordvecs.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        try:
            load_word_vectors(path)
            error = None
        except HetlinkError as exc:
            error = str(exc)
        code, err = _main_quietly(["ingest", "--nodes", str(workdir / "nodes.tsv"),
                                   "--edges", str(workdir / "edges.tsv"), "--wordvecs", path,
                                   "--out", os.path.join(tmp, "bundle")])
    _assert_one_line_exit(code, err, error)
