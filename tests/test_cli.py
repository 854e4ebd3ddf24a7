"""End-to-end tests for the command line interface."""

import json
import shutil

import numpy as np
import pytest

from hetlink import evalgen
from hetlink.cli import CONFIG_KEYS, _load_snippets, build_parser, main, read_bundle
from hetlink.hetgraph import build_inverted_index, tokenize
from hetlink.matcher import candidate_ids, snippet_item
from hetlink.querygraph import augment_query_graph

from conftest import MANIFEST_BREAKS, break_manifest, break_params


SMALL_GEN = {
    "node_counts": {"Drug": 15, "AdverseEffect": 20, "Symptom": 15, "Finding": 30},
    "vocab_size": 150,
    "snippets": 24,
    "seed": 5,
}

TRAIN_CONFIG = {"encoder": "graphsage", "layers": 1, "dim": 32,
                "epochs": 2, "patience": 2, "seed": 0}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Generated corpus plus a trained model, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    gen_cfg = root / "gen.json"
    gen_cfg.write_text(json.dumps(SMALL_GEN))
    assert main(["gen-synth", "--config", str(gen_cfg),
                 "--out", str(root / "corpus")]) == 0
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
])
def test_gen_synth_rejects_a_malformed_config(tmp_path, capsys, config, error):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(config))
    assert main(["gen-synth", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not (tmp_path / "out").exists()


def test_gen_synth_writes_bundle_and_snippets(workdir):
    corpus = workdir / "corpus"
    for name in ("nodes.tsv", "edges.tsv", "wordvecs.txt", "freqs.tsv",
                 "manifest.json", "snippets.json"):
        assert (corpus / name).exists(), name
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert manifest["bundle_version"] == "1"
    assert manifest["nodes"] == sum(SMALL_GEN["node_counts"].values())


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
    snippets = json.loads((workdir / "corpus" / "snippets.json").read_text())
    one = workdir / "one.json"
    one.write_text(json.dumps([snippets[0]]))
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
    kb, store, freqs = read_bundle(workdir / "corpus")
    index = build_inverted_index(kb)
    items = [item for snippet in _load_snippets(workdir / "corpus" / "snippets.json")
             if (item := snippet_item(kb, index, store, freqs, snippet,
                                      augment_query_graph))]
    whole = _disambiguated(workdir, capsys, str(len(kb) + 1))
    assert [row["snippet"] for row in whole] == [it.snippet_id for it in items]
    for row, item in zip(whole, items):
        assert sorted(c["id"] for c in row["candidates"]) == candidate_ids(kb, item).tolist()
    top = _disambiguated(workdir, capsys, "3")
    assert [row["candidates"] for row in top] == [row["candidates"][:3] for row in whole]


@pytest.mark.parametrize("top_k", ["-1", "two"])
def test_disambiguate_rejects_a_top_k_that_is_not_a_count(workdir, capsys, top_k):
    with pytest.raises(SystemExit) as info:
        main(["disambiguate", "--bundle", str(workdir / "corpus"),
              "--model", str(workdir / "model"),
              "--snippets", str(workdir / "corpus" / "snippets.json"), "--top-k", top_k])
    assert info.value.code == 2
    assert (f"argument --top-k: expected a non-negative integer, got '{top_k}'"
            in capsys.readouterr().err)


def test_ingest_roundtrips_tsv_bundle(workdir, tmp_path):
    corpus = workdir / "corpus"
    assert main(["ingest", "--nodes", str(corpus / "nodes.tsv"),
                 "--edges", str(corpus / "edges.tsv"),
                 "--wordvecs", str(corpus / "wordvecs.txt"),
                 "--out", str(tmp_path / "bundle")]) == 0
    manifest = json.loads((tmp_path / "bundle" / "manifest.json").read_text())
    assert manifest["nodes"] == sum(SMALL_GEN["node_counts"].values())


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
                                     {"lr": False}, {"sampler": 1}, {"metapaths": "x"}],
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


def test_bad_bundle_version_rejected(workdir, tmp_path, capsys):
    import shutil

    bundle = tmp_path / "bundle"
    shutil.copytree(workdir / "corpus", bundle)
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["bundle_version"] = "99"
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    code = main(["eval", "--bundle", str(bundle),
                 "--model", str(workdir / "model"),
                 "--snippets", str(bundle / "snippets.json")])
    assert code == 1
    assert "bundle version" in capsys.readouterr().err


def test_bundle_manifest_that_is_not_an_object_is_rejected(workdir, tmp_path, capsys):
    bundle = tmp_path / "bundle"
    shutil.copytree(workdir / "corpus", bundle)
    (bundle / "manifest.json").write_text("[1]")
    code = main(["eval", "--bundle", str(bundle), "--model", str(workdir / "model"),
                 "--snippets", str(bundle / "snippets.json")])
    assert code == 1
    assert capsys.readouterr().err == "error: bundle manifest must be a JSON object, got list\n"


# (bundle file, the field of its first line that is set, the value, the error)
BUNDLE_NUMBER_BREAKS = [
    ("wordvecs.txt", 1, "nan", "non-finite float"),
    ("wordvecs.txt", 3, "inf", "non-finite float"),
    ("freqs.tsv", 1, "nan", "frequency must be finite and >= 0, got 'nan'"),
    ("freqs.tsv", 1, "inf", "frequency must be finite and >= 0, got 'inf'"),
    ("freqs.tsv", 1, "-0.25", "frequency must be finite and >= 0, got '-0.25'"),
    ("nodes.tsv", 4, "0.5,nan", "non-finite feature float"),
    ("nodes.tsv", 4, "-inf", "non-finite feature float"),
]


@pytest.mark.parametrize("name, field, value, error", BUNDLE_NUMBER_BREAKS)
def test_eval_rejects_a_bundle_number_that_is_not_finite(workdir, tmp_path, capsys,
                                                         name, field, value, error):
    bundle = tmp_path / "bundle"
    shutil.copytree(workdir / "corpus", bundle)
    path = bundle / name
    sep = " " if name == "wordvecs.txt" else "\t"
    first, rest = path.read_text().split("\n", 1)
    fields = first.split(sep)
    fields[field] = value
    path.write_text(sep.join(fields) + "\n" + rest)
    code = main(["eval", "--bundle", str(bundle), "--model", str(workdir / "model"),
                 "--snippets", str(bundle / "snippets.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}:1: {error}\n"


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


# how snippet 3 (or the whole file) is broken: the error it ends in
SNIPPET_ERRORS = {
    "Text": "snippet 3: missing key 'Text'",
    "end_offset": "snippet 3: missing key 'end_offset'",
    "snippet=oops": "snippet 3: expected a JSON object, got str",
    "file=7": "a snippet file holds a JSON object or list, not int",
    "start_offset=str": "snippet 3: key 'start_offset' has the wrong type (str)",
    "link_id=C426": "snippet 3: key 'link_id' is not an integer: 'C426'",
    "Text=5": "snippet 3: key 'Text' has the wrong type (int)",
    "Mentions=x": "snippet 3: key 'Mentions' has the wrong type (str)",
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
    elif key == "link_id=C426":
        mention["link_id"] = "C426"
    elif key == "Text=5":
        bad["Text"] = 5
    else:
        bad["Mentions"] = "x"
    assert _run_on_rows(workdir, tmp_path, "eval", rows) == 1
    assert capsys.readouterr().err == f"error: {SNIPPET_ERRORS[key]}\n"


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
