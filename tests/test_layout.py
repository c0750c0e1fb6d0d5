"""Every function, class and method in ``src/fedgbt`` has a caller outside
the tests: something in ``src/``, ``scripts/`` or ``perfbench/`` references
it by name, attribute, import alias or identifier string (``getattr`` and
patch tables).  References from inside a definition's own body do not count.

Trees grow in one place: outside ``gbt.py`` no module builds tree nodes,
searches splits, weighs leaves or derives a sibling's histogram.  Histograms are int64 everywhere: no
module builds an object-dtype (Python big-int) array.  The fixed-point scale
is spelled only as ``GRAD_SCALE_BITS``, the int64 capacity only as
``INT64_MODULUS``, and the float64 bound (2^53) only as
``FLOAT64_MODULUS``.  The protocol modules draw mask material only from
``fedgbt.seeding``: neither imports ``hashlib``.  One slot layout,
``PackedLayout``, is defined in ``gbt.py`` alone, and both protocol modules
import it from there.
"""

import ast
import re
from pathlib import Path

from fedgbt.gbt import GRAD_SCALE_BITS

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


GROWER_CALLS = {"TreeNode", "find_best_split", "leaf_weight", "leaf_value", "subtract",
                "sibling_histogram"}


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


def _is_object_dtype(node):
    return ((isinstance(node, ast.Name) and node.id == "object")
            or (isinstance(node, ast.Constant) and node.value in ("O", "object")))


def test_no_src_module_builds_object_arrays():
    # a dtype passed by keyword, by position (np.array(x, object)) or to astype
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"] + node.args
                if any(_is_object_dtype(d) for d in dtypes):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, "object-dtype arrays in src: " + ", ".join(found)


# powers of two that spell the scale (g), its half (g = 1/2) or its quarter
# (the largest h): at 2^40, where it stood, and at GRAD_SCALE_BITS
_SCALE_POWERS = sorted({str(b) for s in (40, GRAD_SCALE_BITS) for b in (s, s - 1, s - 2)})
_SCALE_LITERAL = re.compile(r"\b2(?:\.0)?\s*(?:\*\*|\^)\s*\(?\s*(?:{0})\b|\b1\s*<<\s*(?:{0})\b"
                            .format("|".join(_SCALE_POWERS)))


def test_no_src_module_spells_the_fixed_point_scale():
    # in code, comments and docstrings alike; GRAD_SCALE_BITS's own
    # definition is the one place that names a number
    found = []
    for path in sorted(SRC.glob("*.py")):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if _SCALE_LITERAL.search(line) and not line.startswith("GRAD_SCALE_BITS = "):
                found.append(f"{path.name}:{n}")
    assert not found, "the scale spelled as a literal: " + ", ".join(found)


def test_the_scale_guard_sees_each_spelling():
    for text in ("c * 2**40", "2 ** 39", "2^38", "1 << 40", "2.0**40",
                 f"2**{GRAD_SCALE_BITS}", f"1 << {GRAD_SCALE_BITS}", f"2^{GRAD_SCALE_BITS - 2}"):
        assert _SCALE_LITERAL.search(text), text
    for text in ("2**400", "12**40", "2**GRAD_SCALE_BITS", "1 << 64", "2^63"):
        assert not _SCALE_LITERAL.search(text), text


# 2^64 as a literal, or the mask-only ring standing in for int64, which
# would widen the capacity check with the ring
_INT64_SPELLING = re.compile(r"\b2(?:\.0)?\s*(?:\*\*|\^)\s*\(?\s*64\b|\b1\s*<<\s*64\b"
                             r"|check_capacity\(\s*MASK_ONLY_MODULUS\b")


def test_no_src_module_spells_the_int64_capacity():
    for text in ("1 << 64", "2**64", "2 ** 64", "2^64", "check_capacity(MASK_ONLY_MODULUS, n)"):
        assert _INT64_SPELLING.search(text), text
    for text in ("1 << 640", "2**640", "check_capacity(INT64_MODULUS, n)", "MASK_ONLY_MODULUS"):
        assert not _INT64_SPELLING.search(text), text
    found = []
    for path in sorted(SRC.glob("*.py")):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if _INT64_SPELLING.search(line) and not line.startswith("INT64_MODULUS = "):
                found.append(f"{path.name}:{n}")
    assert not found, "the int64 capacity spelled other than INT64_MODULUS: " + ", ".join(found)


# 2^53 (float64's last exact integer) or twice it as a literal in code; a
# comment may write 2^53
_FLOAT64_SPELLING = re.compile(r"\b2(?:\.0)?\s*\*\*\s*\(?\s*5[34]\b|\b1\s*<<\s*5[34]\b")


def test_no_src_module_spells_the_float64_bound():
    for text in ("1 << 53", "1<<54", "2**53", "2 ** 53", "2.0**53", "2**(53 - S)", "2**54"):
        assert _FLOAT64_SPELLING.search(text), text
    for text in ("1 << 530", "2**530", "12**53", "2^53", "check_capacity(FLOAT64_MODULUS, n)"):
        assert not _FLOAT64_SPELLING.search(text), text
    found = []
    for path in sorted(SRC.glob("*.py")):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if _FLOAT64_SPELLING.search(line) and not line.startswith("FLOAT64_MODULUS = "):
                found.append(f"{path.name}:{n}")
    assert not found, "the float64 bound spelled other than FLOAT64_MODULUS: " + ", ".join(found)


def _hashlib_imports(source: str) -> list[int]:
    """Lines that import ``hashlib`` or a submodule of it, by statement or
    by ``__import__``/``import_module`` with the name as a string."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            continue
        if any(n.split(".")[0] == "hashlib" for n in names):
            found.append(node.lineno)
    return found


def test_the_hashlib_guard_sees_each_import():
    for text in ("import hashlib", "import os, hashlib", "import hashlib as h",
                 "from hashlib import sha512", "from hashlib import shake_256 as prg",
                 "h = __import__('hashlib')", "importlib.import_module('hashlib')"):
        assert _hashlib_imports(text), text
    for text in ("from .seeding import derive_seed", "from . import seeding",
                 "import hmac  # not hashlib", "hashlib_free = 1", "import fedgbt.hashlib_x"):
        assert not _hashlib_imports(text), text


def test_protocol_modules_take_masks_only_from_seeding():
    found = [f"{name}:{line}" for name in ("hfl.py", "vfl.py")
             for line in _hashlib_imports((SRC / name).read_text())]
    assert not found, "hashlib imported outside fedgbt.seeding: " + ", ".join(found)


def _layout_homes(src: Path) -> tuple[list[str], list[str]]:
    """(modules under ``src`` that define a ``PackedLayout`` class, protocol
    modules that do not import it from ``gbt``)."""
    defined, strays = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if any(isinstance(node, ast.ClassDef) and node.name == "PackedLayout"
               for node in ast.walk(tree)):
            defined.append(path.name)
        if path.name in ("hfl.py", "vfl.py") and not any(
                isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "gbt"
                and any(alias.name == "PackedLayout" for alias in node.names)
                for node in ast.walk(tree)):
            strays.append(path.name)
    return defined, strays


def test_one_slot_layout_serves_both_protocols():
    assert _layout_homes(SRC) == (["gbt.py"], [])


def test_the_layout_guard_sees_a_second_definition(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    assert _layout_homes(tmp_path) == (["gbt.py"], [])
    vfl = tmp_path / "vfl.py"
    vfl.write_text(vfl.read_text().replace("    PackedLayout,\n", "", 1)
                   + "\n\n@dataclass(frozen=True)\nclass PackedLayout:\n    offset: int\n")
    assert _layout_homes(tmp_path) == (["gbt.py", "vfl.py"], ["vfl.py"])
