"""Every function, class and method in ``src/fedgbt`` has a caller outside
the tests: something in ``src/``, ``scripts/`` or ``perfbench/`` references
it by name, attribute, import alias or identifier string (``getattr`` and
patch tables).  References from inside a definition's own body do not count.

Trees grow in one place: outside ``gbt.py`` no module builds tree nodes,
searches splits or weighs leaves.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fedgbt"


def _definitions(tree):
    """(qualified name, name, node) of top-level functions, classes and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item


def _references(tree):
    """(name, line) of every name, attribute, import alias and identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
            if node.asname:
                yield node.asname, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def _unreferenced():
    files = sorted(SRC.glob("*.py"))
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    refs = {path: list(_references(tree)) for path, tree in trees.items()}
    dead = []
    for path in sorted(SRC.glob("*.py")):
        for qualname, name, node in _definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the interpreter
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and (other != path or line not in own)
                       for other, found in refs.items() for ref, line in found):
                dead.append(f"{path.name}:{qualname}")
    return dead


def test_no_src_definition_is_reached_only_from_tests():
    dead = _unreferenced()
    assert not dead, "no caller outside the tests: " + ", ".join(dead)


GROWER_CALLS = {"TreeNode", "find_best_split", "leaf_weight", "leaf_value"}


def test_only_gbt_grows_trees():
    # calls only: hfl and vfl keep find_best_split importable for perfbench
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "gbt.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in GROWER_CALLS:
                    found.append(f"{path.name}:{node.lineno} {name}(...)")
    assert not found, "trees grow only in gbt.grow_tree: " + ", ".join(found)
