"""No dead code in the package: every import is used, and every private
top-level name is referred to somewhere in ``src/``."""

import ast
from pathlib import Path

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "reviewlake").glob("*.py"))
TREES = {path.name: ast.parse(path.read_text("utf-8"), str(path)) for path in SRC}


def _bound_by_import(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


def _all_of(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_imported_name_is_used():
    unused = []
    for name, tree in TREES.items():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _all_of(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                unused += [f"{name}: {_bound_by_import(a)}" for a in node.names if _bound_by_import(a) not in used]
    assert unused == []


def _private_top_level(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_every_private_top_level_name_is_referred_to():
    referred = set()
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referred.add(node.id)
            elif isinstance(node, ast.Attribute):
                referred.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referred |= {a.name for a in node.names}
    unreferred = [f"{name}: {n}" for name, tree in TREES.items() for n in sorted(_private_top_level(tree) - referred)]
    assert unreferred == []
