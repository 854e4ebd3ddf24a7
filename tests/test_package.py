"""Tests for the package's top-level exports and its import hygiene."""

import ast
import json
import re
from collections.abc import Mapping
from dataclasses import FrozenInstanceError, fields
from pathlib import Path

import numpy as np
import pytest

import hetlink
from hetlink import EncoderConfig, HetlinkError, Metapath, SynthConfig, TrainConfig
from hetlink.cli import read_bundle
from hetlink.evalgen import build_model
from hetlink.hetgraph import read_json, read_settings
from hetlink.termembed import load_word_vectors

MODULES = sorted(Path(hetlink.__file__).parent.glob("*.py"))

# Optional settings under src/hetlink: raise this only in the diff that adds one.
OPTIONAL_SETTINGS = 61
# Lines of src/hetlink/*.py: raise this only in a diff that says what the new
# lines buy.
SRC_LINES = 3673


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(tree):
    """(bound name, imported name, module, level, line) of every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                yield bound, alias.name, None, 0, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.name, node.module, node.level, node.lineno


def _used_names(tree):
    """Names read anywhere, including string annotations and __all__."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in (*args.posonlyargs, *args.args,
                                                  *args.kwonlyargs, args.vararg,
                                                  args.kwarg) if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return used


def test_every_exported_name_resolves():
    missing = [name for name in hetlink.__all__ if not hasattr(hetlink, name)]
    assert missing == []
    assert len(set(hetlink.__all__)) == len(hetlink.__all__)


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        used = _used_names(tree)
        unused += [f"{path.name}:{line}: {bound}"
                   for bound, _, _, _, line in _imports(tree) if bound not in used]
    assert unused == []


def test_no_module_imports_a_private_name_of_another_hetlink_module():
    private = []
    for path in MODULES:
        for _, name, module, level, line in _imports(_tree(path)):
            ours = level > 0 or (module or name).split(".")[0] == "hetlink"
            if ours and any(part.startswith("_") for part in name.split(".")):
                private.append(f"{path.name}:{line}: {name}")
    assert private == []


# modules that define an exception class, and the classes each defines
ERROR_CLASSES = {"hetgraph.py": ["HetlinkError", "GraphRowError"], "ndiff.py": ["NdiffError"]}


def test_only_hetgraph_and_ndiff_define_an_exception_class():
    defined = {}
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", "").endswith(("Exception", "Error")) for base in node.bases):
                defined.setdefault(path.name, []).append(node.name)
    assert defined == ERROR_CLASSES


def test_no_function_takes_an_exception_class():
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.arg) and node.annotation is not None \
                    and "type[Exception]" in ast.unparse(node.annotation):
                found.append(f"{path.name}:{node.lineno}: {node.arg}")
    assert found == []


def _write(path, text):
    path.write_text(text)
    return path


# one failure of each module that raised an exception class of its own
FAILURES = {
    "hetgraph": lambda tmp: hetlink.HeteroGraph.from_rows([(0, "", "a", ())], []),
    "termembed": lambda tmp: hetlink.WordVectorStore({"fever": np.zeros(2)}, 3),
    "encoders": lambda tmp: EncoderConfig(kind="x"),
    "querygraph": lambda tmp: hetlink.TextSnippet("s", ""),
    "matcher": lambda tmp: hetlink.load_model(_write(tmp / "manifest.json", "{}").parent),
    "evalgen": lambda tmp: hetlink.split_dataset(["a"]),
    "cli": lambda tmp: read_bundle(_write(tmp / "manifest.json", "[1]").parent),
}


@pytest.mark.parametrize("module", FAILURES)
def test_every_module_fails_with_a_hetlink_error(tmp_path, module):
    assert "HetlinkError" in hetlink.__all__
    with pytest.raises(HetlinkError) as exc:
        FAILURES[module](tmp_path)
    assert "\n" not in str(exc.value)


# each reader, and the file in the directory it is given that it opens
UNOPENABLE = {
    "read_json": (lambda d: read_json(d / "f.json"), "f.json"),
    "load_graph": (lambda d: hetlink.load_graph(d / "nodes.tsv", d / "edges.tsv"), "nodes.tsv"),
    "load_word_vectors": (lambda d: load_word_vectors(d / "v.txt"), "v.txt"),
    "load_model": (hetlink.load_model, "params.npz"),      # its manifest.json is there
    "read_bundle": (read_bundle, "manifest.json"),
    # its manifest.json lists one node
    "read_bundle kb": (lambda d: read_bundle(_write(d / "manifest.json", json.dumps(
        {"bundle_version": "6", "nodes": 1, "edges": 0})).parent), "kb.npz"),
}


@pytest.mark.parametrize("case", ["missing", "directory"])
@pytest.mark.parametrize("reader", UNOPENABLE)
def test_a_file_that_cannot_be_opened_fails_with_a_hetlink_error_naming_it(
        tmp_path, toy_kb, reader, case):
    call, name = UNOPENABLE[reader]
    path = tmp_path / name
    if reader == "load_model":
        hetlink.save_model(build_model(toy_kb, 4, "graphsage", dim=4), tmp_path)
        path.unlink()
    if case == "directory":
        path.mkdir()
    with pytest.raises(HetlinkError) as exc:
        call(tmp_path)
    reason = "Is a directory" if case == "directory" else "No such file or directory"
    assert str(exc.value) == f"{path}: {reason}"


# what a scipy matrix is made of: only ndiff, whose SparseOperator holds one,
# reads these; every other module multiplies by an operator through @ and .T
CSR_PARTS = {"matrix", "indptr", "indices", "tocsr", "nnz", "transpose"}


def test_only_ndiff_knows_how_a_sparse_operator_is_stored():
    found = []
    for path in MODULES:
        if path.name == "ndiff.py":
            continue
        tree = _tree(path)
        found += [f"{path.name}:{line}: imports {module or name}"
                  for _, name, module, _, line in _imports(tree)
                  if (module or name).split(".")[0] == "scipy"]
        found += [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in CSR_PARTS]
    assert found == []


def test_only_kb_embeddings_assigns_or_reads_the_kb_memo():
    """SiameseModel._kb_memo has one owner: matcher.kb_embeddings assigns it,
    and no other code names it, as an attribute or as a string (setattr)."""
    found, assigned = [], []
    for path in MODULES:
        tree = _tree(path)
        owner = {id(node) for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef)
                 and (path.name, fn.name) == ("matcher.py", "kb_embeddings")
                 for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not ((isinstance(node, ast.Attribute) and node.attr == "_kb_memo")
                    or (isinstance(node, ast.Constant) and node.value == "_kb_memo")):
                continue
            if id(node) not in owner:
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(getattr(node, "ctx", None), ast.Store):
                assigned.append(node.lineno)
    assert found == [] and assigned


def _is_dataclass(cls):
    for deco in cls.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _init_false(value):
    return (isinstance(value, ast.Call)
            and getattr(value.func, "id", getattr(value.func, "attr", None)) == "field"
            and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                    and k.value.value is False for k in value.keywords))


def _optional_settings(tree):
    """Parameters with a default, plus dataclass fields with a default that
    are not init=False."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(1 for stmt in node.body
                         if isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         and not _init_false(stmt.value))
    return count


def test_optional_settings_do_not_grow():
    count = sum(_optional_settings(_tree(path)) for path in MODULES)
    assert count <= OPTIONAL_SETTINGS, (
        f"{count} optional settings, {OPTIONAL_SETTINGS} recorded: make the new "
        f"ones constants, or raise OPTIONAL_SETTINGS in the same change")


def test_source_lines_do_not_grow():
    count = sum(len(path.read_text(encoding="utf-8").splitlines()) for path in MODULES)
    assert count <= SRC_LINES, (
        f"{count} lines under src/hetlink, {SRC_LINES} recorded: say what the new "
        f"lines buy and raise SRC_LINES in the same change")


TESTS = Path(__file__).parent


def test_every_test_the_floor_job_names_is_defined():
    """The floor job's comment in the CI workflow names test modules and the
    tests it runs on the oldest numpy and scipy: each is a tests/ module or a
    def in one, so a renamed or deleted test leaves no stale name there."""
    text = (TESTS.parent / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    comment = " ".join(line.strip() for line in text[text.index("\n  floor:"):].splitlines()
                       if line.strip().startswith("#"))
    modules = sorted(TESTS.glob("test_*.py"))
    defined = {path.stem for path in modules} | {
        node.name for path in modules for node in ast.walk(_tree(path))
        if isinstance(node, ast.FunctionDef)}
    named = set(re.findall(r"\btest_\w+", comment))
    assert named and sorted(named - defined) == []


def test_the_optional_settings_rule_counts_defaults_and_dataclass_fields():
    tree = ast.parse(
        "@dataclass\n"
        "class C:\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: list = field(default_factory=list)\n"
        "    d: int = field(default=0, init=False)\n"
        "class D:\n"
        "    e: int = 2\n"
        "def f(x, y=1, *, z=2, w):\n"
        "    return lambda q=3: q\n")
    assert _optional_settings(tree) == 2 + 2 + 1


@pytest.mark.parametrize("cls", [TrainConfig, EncoderConfig, SynthConfig])
def test_every_setting_default_reads_back_from_json(cls):
    # a field whose type read_settings cannot cast (a bare tuple, say) fails here
    default = cls()
    keys = {f.name: f.name for f in fields(cls)}
    text = json.dumps({name: getattr(default, name) for name in keys},
                      default=lambda v: dict(v) if isinstance(v, Mapping) else v.label())
    assert cls(**read_settings(cls, json.loads(text), keys, cls.__name__)) == default


_MIX = ["abbreviation", "acronym", "simplification", "synonym", "twin", "typo"]
_PATHS = [Metapath.parse("Drug-CAUSE-AdverseEffect")]
# each rule of each config: a setting that breaks it, and the whole message
BAD_SETTINGS = {
    EncoderConfig: [
        ({"kind": "gcn"}, "unknown encoder kind 'gcn'"),
        ({"num_layers": 0}, "num_layers must be in [1, 4]"),
        ({"num_layers": 5}, "num_layers must be in [1, 4]"),
        ({"dim": 0}, "dim must be >= 1"),
        ({"dropout": 1.0}, "dropout must be in [0, 1)"),
        ({"heads": 0}, "heads must be >= 1"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"kind": "magnn"}, "magnn needs at least one metapath"),
        ({"kind": "magnn", "metapaths": _PATHS, "dim": 10, "heads": 4},
         "dim must be divisible by heads"),
    ],
    TrainConfig: [
        ({"epochs": 0}, "epochs must be >= 1"),
        ({"patience": -1}, "patience must be >= 0"),
        ({"lr": 0.0}, "lr must be > 0"),
        ({"weight_decay": -1.0}, "weight_decay must be >= 0"),
        ({"sampler": "x"}, "unknown sampler 'x'"),
        ({"negatives_per_positive": -1}, "negatives_per_positive must be >= 0"),
        ({"seed": -1}, "seed must be >= 0"),
    ],
    SynthConfig: [
        ({"ambiguity_mix": {"bogus": 1.0}}, f"unknown ambiguity kinds ['bogus']; known: {_MIX}"),
        ({"ambiguity_mix": {"acronym": 0.5}}, "ambiguity mix probabilities must sum to 1"),
        ({"ambiguity_mix": {"acronym": 1.5, "twin": -0.5}},
         "ambiguity mix probabilities must be >= 0"),
        ({"synonym_fraction": 2.0}, "synonym_fraction must be in [0, 1]"),
        ({"two_hop_fraction": -1.0}, "two_hop_fraction must be in [0, 1]"),
        ({"twin_fraction": 1.5}, "twin_fraction must be in [0, 1]"),
        ({"snippets": -1}, "snippets must be >= 0"),
        ({"vocab_size": 0}, "vocab_size must be >= 1"),
        ({"feature_dim": 0}, "feature_dim must be >= 1"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"name_tokens": (2, 1)}, "name_tokens must be [lo, hi] with 1 <= lo <= hi"),
        ({"context_mentions": (-1, 2)}, "context_mentions must be [lo, hi] with 0 <= lo <= hi"),
        ({"twin_fraction": 0.0}, "twin ambiguity needs twin_fraction > 0 and >= 2 Findings"),
        ({"node_counts": {"Drug": 0, "Finding": 2}}, "node counts must be positive"),
        ({"triples": (("Drug", "SELF", "Drug", 1),)},
         "triple Drug-SELF-Drug: edge type 'SELF' is reserved for query graphs"),
        ({"triples": (("Drug", "X", "Gene", 1),)},
         "triple Drug-X-Gene names node types ['Gene'] that node_counts lacks"),
        ({"triples": (("Drug", "X", "Drug", 150),)}, "unsatisfiable density: 150 out-edges to Drug"),
    ],
}


@pytest.mark.parametrize("cls", BAD_SETTINGS, ids=lambda cls: cls.__name__)
def test_a_config_is_checked_when_built_and_frozen(cls):
    for setting, error in BAD_SETTINGS[cls]:
        with pytest.raises(HetlinkError) as exc:
            cls(**setting)
        assert str(exc.value) == error
    config = cls()
    for f in fields(cls):
        with pytest.raises(FrozenInstanceError):
            setattr(config, f.name, getattr(config, f.name))


@pytest.mark.parametrize("write", [
    lambda: EncoderConfig(kind="magnn", metapaths=list(_PATHS)).metapaths.clear(),
    lambda: SynthConfig().node_counts.__setitem__("Drug", 0),
    lambda: SynthConfig().ambiguity_mix.__setitem__("twin", 1.0),
], ids=["metapaths", "node_counts", "ambiguity_mix"])
def test_a_config_container_refuses_writes(write):
    with pytest.raises((AttributeError, TypeError)):
        write()


def test_a_config_keeps_its_own_copy_of_the_containers_it_is_given():
    paths, counts = list(_PATHS), {"Drug": 3, "Finding": 4}
    encoder = EncoderConfig(kind="magnn", metapaths=paths)
    synth = SynthConfig(node_counts=counts, triples=(), ambiguity_mix={"acronym": 1.0})
    paths.clear()
    counts["Drug"] = 0
    assert encoder.metapaths == tuple(_PATHS)
    assert synth.node_counts == {"Drug": 3, "Finding": 4}


def _frozen(decorator):
    return isinstance(decorator, ast.Call) and any(
        k.arg == "frozen" and getattr(k.value, "value", None) is True for k in decorator.keywords)


def test_every_config_is_frozen_and_checked_when_built():
    configs, found = [], []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.FunctionDef) and node.name == "validate":
                found.append(f"{path.name}:{node.lineno}: def validate")
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config") \
                    and _is_dataclass(node):
                configs.append(node.name)
                if not any(map(_frozen, node.decorator_list)):
                    found.append(f"{path.name}:{node.lineno}: {node.name} is not frozen")
                if not any(isinstance(stmt, ast.FunctionDef) and stmt.name == "__post_init__"
                           for stmt in node.body):
                    found.append(f"{path.name}:{node.lineno}: {node.name} has no __post_init__")
    assert sorted(configs) == ["EncoderConfig", "SynthConfig", "TrainConfig"]
    assert found == []
