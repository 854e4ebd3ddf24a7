"""Tests for the package's top-level exports and its import hygiene."""

import ast
from pathlib import Path

import hetlink

MODULES = sorted(Path(hetlink.__file__).parent.glob("*.py"))


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
