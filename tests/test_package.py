"""Tests for the package's top-level exports and its import hygiene."""

import ast
from pathlib import Path

import hetlink

MODULES = sorted(Path(hetlink.__file__).parent.glob("*.py"))

# Optional settings under src/hetlink: raise this only in the diff that adds one.
OPTIONAL_SETTINGS = 76
# Lines of src/hetlink/*.py: raise this only in a diff that says what the new
# lines buy.
SRC_LINES = 3307


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
