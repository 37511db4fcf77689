"""Library code that only tests call belongs in tests/oracles.py, not src/,
and the package runs on numpy alone."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chevalley"


def public_definitions(tree):
    """Top-level functions, classes and assigned names without a leading _."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if not name.startswith("_")}


def references(tree):
    """Names read anywhere in the module, as bare names or as attributes."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def test_every_public_name_is_used_in_src_or_by_acceptance():
    # __init__ only re-exports, so its imports do not count as uses
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    used = set().union(*(references(tree) for tree in trees.values()))
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    used |= {alias.name for node in ast.walk(acceptance)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = sorted(f"{module}:{name}" for module, tree in trees.items()
                    for name in public_definitions(tree) - used)
    assert not unused, f"defined in src/ but used only outside it: {unused}"


def test_src_never_imports_scipy():
    # any import statement counts, also one inside a function
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, f"scipy imported in src/: {found}"
