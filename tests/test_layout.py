"""Every function, class and method in ``src/fedgbt`` has a caller outside
the tests: something in ``src/``, ``scripts/`` or ``perfbench/`` references
it by name, attribute, import alias or identifier string (``getattr`` and
patch tables).  A method or property counts only through an attribute or an
identifier string: a bare name of the same spelling, such as a local
variable, does not reach it.  References from inside a definition's own
body do not count.

Trees grow in one place: outside ``gbt.py`` no module builds tree nodes,
searches splits, weighs leaves or derives a sibling's histogram.  Histograms are int64 everywhere: no
module builds an object-dtype (Python big-int) array.  The fixed-point scale
is spelled only as ``GRAD_SCALE_BITS``, the int64 capacity only as
``INT64_MODULUS``, and the float64 bound (2^53) only as
``FLOAT64_MODULUS``.  The protocol modules draw mask material only from
``fedgbt.seeding``: neither imports ``hashlib``.  One function computes
modular powers, ``paillier._powmod``, and only ``paillier.py`` imports
``ctypes``, to load the libcrypto behind it.  One slot layout,
``PackedLayout``, is defined in ``gbt.py`` alone, and one slot rule builds
every instance: nothing but ``gbt.level_layouts`` constructs one, and both
protocol modules import that function from ``gbt``.  One serializer writes
tree-node documents: outside ``gbt.py`` no module builds a dict with a
``"leaf"`` key.  One table spells the wire format: no module but
``transport.py`` keys a dict by a message type, and neither protocol module
converts to or from hex itself.  No module imports ``scipy.stats``, and
importing every module of the package does not load it.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fedgbt.gbt import GRAD_SCALE_BITS
from fedgbt.transport import MESSAGES

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


def _references(tree, members_only=False):
    """(name, line) of every name, attribute, import alias and identifier
    string; with ``members_only``, of the attributes and identifier strings
    alone, the ways a method or property is reached."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno
        elif members_only:
            continue
        elif isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
            if node.asname:
                yield node.asname, node.lineno


def _unreferenced(src: Path) -> list[str]:
    """Definitions in modules under ``src`` that nothing there, in
    ``scripts/`` or in ``perfbench/`` reaches."""
    files = sorted(src.glob("*.py"))
    files += sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    refs = {members_only: {path: list(_references(tree, members_only))
                           for path, tree in trees.items()}
            for members_only in (False, True)}
    dead = []
    for path in sorted(src.glob("*.py")):
        for qualname, name, node in _definitions(trees[path]):
            if name.startswith("__") and name.endswith("__"):
                continue  # called by the interpreter
            own = range(node.lineno, node.end_lineno + 1)
            if not any(ref == name and (other != path or line not in own)
                       for other, found in refs["." in qualname].items() for ref, line in found):
                dead.append(f"{path.name}:{qualname}")
    return dead


def test_no_src_definition_is_reached_only_from_tests():
    dead = _unreferenced(SRC)
    assert not dead, "no caller outside the tests: " + ", ".join(dead)


def test_the_dead_code_guard_sees_a_method_that_only_a_local_name_matches(tmp_path):
    # ``predict_margin`` has an ``n_trees`` argument and the scripts a local
    # ``names``: neither reaches a method of that name
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    assert _unreferenced(tmp_path) == []
    gbt = tmp_path / "gbt.py"
    gbt.write_text(gbt.read_text().replace(
        "    def compiled(self, n_features: int)",
        "    @property\n    def n_trees(self) -> int:\n        return len(self.trees)\n\n"
        "    def compiled(self, n_features: int)", 1))
    hpo = tmp_path / "hpo.py"
    hpo.write_text(hpo.read_text().replace(
        "    def normalize(self, vector",
        "    @property\n    def names(self):\n        return tuple(d.name for d in self.dimensions)\n\n"
        "    def normalize(self, vector", 1))
    assert _unreferenced(tmp_path) == ["gbt.py:BoostedEnsemble.n_trees", "hpo.py:SearchSpace.names"]


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


# 2^64 as a literal
_INT64_SPELLING = re.compile(r"\b2(?:\.0)?\s*(?:\*\*|\^)\s*\(?\s*64\b|\b1\s*<<\s*64\b")


def test_no_src_module_spells_the_int64_capacity():
    for text in ("1 << 64", "2**64", "2 ** 64", "2^64"):
        assert _INT64_SPELLING.search(text), text
    for text in ("1 << 640", "2**640", "check_capacity(INT64_MODULUS, n)"):
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


def _imports(source: str, module: str) -> list[int]:
    """Lines that import ``module`` or a submodule of it, by statement or
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
        if any(n.split(".")[0] == module for n in names):
            found.append(node.lineno)
    return found


def test_the_hashlib_guard_sees_each_import():
    for text in ("import hashlib", "import os, hashlib", "import hashlib as h",
                 "from hashlib import sha512", "from hashlib import shake_256 as prg",
                 "h = __import__('hashlib')", "importlib.import_module('hashlib')"):
        assert _imports(text, "hashlib"), text
    for text in ("from .seeding import derive_seed", "from . import seeding",
                 "import hmac  # not hashlib", "hashlib_free = 1", "import fedgbt.hashlib_x"):
        assert not _imports(text, "hashlib"), text


def test_protocol_modules_take_masks_only_from_seeding():
    found = [f"{name}:{line}" for name in ("hfl.py", "vfl.py")
             for line in _imports((SRC / name).read_text(), "hashlib")]
    assert not found, "hashlib imported outside fedgbt.seeding: " + ", ".join(found)


def test_only_paillier_loads_a_native_library():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) if path.name != "paillier.py"
             for line in _imports(path.read_text(), "ctypes")]
    assert not found, "ctypes imported outside fedgbt.paillier: " + ", ".join(found)


@pytest.mark.parametrize("text", [
    "import ctypes", "import os, ctypes", "import ctypes.util", "from ctypes import CDLL",
    "from ctypes.util import find_library as find", "lib = __import__('ctypes')",
    "importlib.import_module('ctypes')"])
def test_the_ctypes_guard_sees_each_import(text):
    assert _imports(text, "ctypes") == [1]
    assert not _imports(text.replace("ctypes", "ctypes_free"), "ctypes")


# the two places that may compute a modular power other than by calling
# paillier._powmod: its fallback to the builtin pow, and the inverse
_POWER_HOMES = {"_load_powmod", "_invert"}


def _is_power_call(node, min_args):
    """A call of ``pow`` or of an attribute ``pow`` or ``powmod`` (a
    library's modular power) with at least ``min_args`` arguments."""
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("pow", "powmod")
            and len(node.args) + len(node.keywords) >= min_args)


def _modular_powers(src: Path) -> list[str]:
    """Places in modules under ``src`` that compute a modular power other
    than through ``paillier._powmod``: a three-argument ``pow`` (by position
    or keyword), a ``powmod`` call, or a power or ``pow`` call taken modulo
    something, outside ``_load_powmod`` and ``_invert`` in ``paillier.py``."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        homes = {id(node) for top in tree.body if path.name == "paillier.py"
                 and isinstance(top, ast.FunctionDef) and top.name in _POWER_HOMES
                 for node in ast.walk(top)}
        for node in ast.walk(tree):
            if id(node) in homes:
                continue
            if _is_power_call(node, 3) or (
                    isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
                    and (isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Pow)
                         or _is_power_call(node.left, 2))):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_one_modular_exponentiation_serves_the_package():
    found = _modular_powers(SRC)
    assert not found, "modular powers outside paillier._powmod: " + ", ".join(found)


@pytest.mark.parametrize("line", [
    "x = pow(c, d, n)", "x = pow(c, d, mod=n)", "x = pow(base=c, exp=d, mod=n)",
    "x = builtins.pow(c, d, n)", "x = gmpy2.powmod(c, d, n)", "x = (c ** d) % n",
    "x = pow(c, d) % n"])
def test_the_modular_power_guard_sees_each_spelling(tmp_path, line):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    assert _modular_powers(tmp_path) == []
    for name in ("vfl.py", "paillier.py"):
        target = tmp_path / name
        source = target.read_text()
        target.write_text(source + "\n" + line + "\n")
        assert _modular_powers(tmp_path) == [f"{name}:{len(source.splitlines()) + 2}"]
        target.write_text(source)


def test_the_modular_power_guard_passes_what_is_not_one(tmp_path):
    (tmp_path / "gbt.py").write_text("x = pow(c, d)\ny = x * x % n\nz = 2 ** 8\n"
                                     "w = c % n ** 2\nv = np.power(c, d)\n"
                                     "u = paillier._powmod(c, d, n)\n")
    assert _modular_powers(tmp_path) == []


def _layout_homes(src: Path) -> tuple[list[str], list[str], list[str]]:
    """(modules under ``src`` that define a ``PackedLayout`` class, places
    that construct one outside ``gbt.level_layouts``, protocol modules that
    do not import ``level_layouts`` from ``gbt``)."""
    defined, built, strays = [], [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        rule = {id(node) for top in tree.body if path.name == "gbt.py"
                and isinstance(top, ast.FunctionDef) and top.name == "level_layouts"
                for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "PackedLayout":
                defined.append(path.name)
            if (isinstance(node, ast.Call) and id(node) not in rule and "PackedLayout" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None))):
                built.append((path.name, node.lineno))
        if path.name in ("hfl.py", "vfl.py") and not any(
                isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "gbt"
                and any(alias.name == "level_layouts" for alias in node.names)
                for node in ast.walk(tree)):
            strays.append(path.name)
    return defined, [f"{name}:{line}" for name, line in sorted(built)], strays


def test_one_slot_layout_serves_both_protocols():
    assert _layout_homes(SRC) == (["gbt.py"], [], [])


def _copy_src(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    assert _layout_homes(tmp_path) == (["gbt.py"], [], [])


def test_the_layout_guard_sees_a_second_definition(tmp_path):
    _copy_src(tmp_path)
    vfl = tmp_path / "vfl.py"
    vfl.write_text(vfl.read_text().replace("    level_layouts,\n", "", 1)
                   + "\n\n@dataclass(frozen=True)\nclass PackedLayout:\n    offset: int\n")
    assert _layout_homes(tmp_path) == (["gbt.py", "vfl.py"], [], ["vfl.py"])


def test_the_layout_guard_sees_a_second_constructor(tmp_path):
    _copy_src(tmp_path)
    vfl = tmp_path / "vfl.py"
    source = vfl.read_text()
    vfl.write_text(source + "\n\ndef histogram_layout(n_samples, slots):\n"
                   "    return PackedLayout(offset=1 << 27, width=28, slots=slots)\n"
                   "\n\nWIDE = gbt.PackedLayout(0, 64, 1)\n")
    lines = len(source.splitlines())
    assert _layout_homes(tmp_path) == (["gbt.py"], [f"vfl.py:{lines + 4}", f"vfl.py:{lines + 7}"],
                                       [])


def _node_documents(src: Path) -> list[str]:
    """Places in modules under ``src``, ``gbt.py`` aside, that build a dict
    with a ``"leaf"`` key: a dict display or a ``dict(leaf=...)`` call."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "gbt.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Dict):
                keys = [k.value for k in node.keys if isinstance(k, ast.Constant)]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
                keys = [kw.arg for kw in node.keywords]
            else:
                continue
            if "leaf" in keys:
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_only_gbt_writes_tree_node_documents():
    found = _node_documents(SRC)
    assert not found, "tree-node documents outside gbt.node_to_dict: " + ", ".join(found)


def test_the_node_document_guard_sees_a_second_serializer(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    assert _node_documents(tmp_path) == []
    hfl = tmp_path / "hfl.py"
    source = hfl.read_text()
    hfl.write_text(source + '\n\ndef _leaf_doc(node):\n    return {"id": node.node_id, "leaf": True}\n'
                   '\n\ndef _split_doc(node):\n    return dict(id=node.node_id, leaf=False)\n')
    lines = len(source.splitlines())
    assert _node_documents(tmp_path) == [f"hfl.py:{lines + 4}", f"hfl.py:{lines + 8}"]


HEX_CODECS = {"int_to_hex", "hex_to_int"}


def _wire_strays(src: Path) -> list[str]:
    """Places in modules under ``src`` that spell the wire format outside
    ``transport.py``: a dict display keyed by a message type of
    ``transport.MESSAGES`` (a second schema), or, in ``hfl.py`` and
    ``vfl.py``, any import or use of the hex conversions."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "transport.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        found += [f"{path.name}:{node.lineno} message fields" for node in ast.walk(tree)
                  if isinstance(node, ast.Dict) and any(
                      isinstance(k, ast.Constant) and k.value in MESSAGES for k in node.keys)]
        if path.name in ("hfl.py", "vfl.py"):
            found += [f"{path.name}:{line} {name}" for name, line in _references(tree)
                      if name in HEX_CODECS]
    return found


def test_only_the_transport_table_spells_the_wire_format():
    found = _wire_strays(SRC)
    assert not found, "the wire format spelled outside transport.MESSAGES: " + ", ".join(found)


@pytest.mark.parametrize("module, addition, stray", [
    ("vfl.py", "from .paillier import hex_to_int\n", "hex_to_int"),
    ("scanner.py", 'FIELDS = {"SPLIT_NOTICE": {"tree", "node"}}\n', "message fields"),
])
def test_the_wire_format_guard_sees_a_second_spelling(tmp_path, module, addition, stray):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text())
    assert _wire_strays(tmp_path) == []
    target = tmp_path / module
    source = target.read_text()
    target.write_text(source + "\n" + addition)
    assert _wire_strays(tmp_path) == [f"{module}:{len(source.splitlines()) + 2} {stray}"]


def _stats_importers(src: Path) -> list[str]:
    """Modules under ``src`` that import ``scipy.stats`` or a name from it."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "scipy.stats" or name.startswith("scipy.stats.") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_src_module_imports_scipy_stats():
    found = _stats_importers(SRC)
    assert not found, "scipy.stats imported at " + ", ".join(found)


@pytest.mark.parametrize("line", [
    "from scipy.stats import beta", "from scipy import stats", "import scipy.stats as ss"])
def test_the_scipy_stats_guard_sees_each_import(tmp_path, line):
    (tmp_path / "data.py").write_text("import numpy as np\n" + line + "\n")
    assert _stats_importers(tmp_path) == ["data.py:2"]


def test_no_fedgbt_module_loads_scipy_stats():
    """A fresh interpreter that imports every module of the package has no
    ``scipy.stats``, which alone adds about 45 MB of resident memory
    (``scripts/import_footprint.py``)."""
    code = "".join(f"import fedgbt.{path.stem}\n" for path in sorted(SRC.glob("[!_]*.py"))) + (
        "import sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    path = os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert run.stdout.strip() == "[]"
