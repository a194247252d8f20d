"""Source hygiene: no unused imports, layered imports, independent oracles, checked record
readers, one JSON parser, one text decoder, a public API that resolves, no definition nothing
uses."""
import ast
from pathlib import Path

import pytest

import nst

SOURCE_DIR = Path(nst.__file__).resolve().parent
MODULES = sorted(SOURCE_DIR.glob("*.py"))

# For each module, the sibling modules it may not import from, mapped to the
# names it may import from them anyway. The data-side modules know nothing of
# the recognizer, the loop or the CLI; the loop knows the recognizer only
# through its protocol and its default implementation. The CLI balances and
# mixes through the loop's helpers, so the two cannot drift apart.
LAYERING = {
    **{
        name: {"recognizer": (), "pipeline": (), "cli": ()}
        for name in ("corpus", "scoring", "filtering", "balancing", "augment", "mixing")
    },
    "recognizer": {"pipeline": (), "cli": ()},
    "pipeline": {"recognizer": ("Recognizer", "ToyRecognizer"), "cli": ()},
    "cli": {"mixing": ("MixPlan",), "balancing": ()},
}


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Local name bound by each import, with the line it is imported on."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name loaded anywhere, including inside string annotations and ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Quoted annotations such as "Dataset" or "list[Utterance]".
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used_names(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in sorted(_imported_names(tree).items())
        if name not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_unused_import_is_detected():
    tree = ast.parse("from typing import Mapping, Sequence\nx: Sequence[int] = []\n")
    assert set(_imported_names(tree)) - _used_names(tree) == {"Mapping"}


def _sibling_imports(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(sibling module, imported name, line) of every import from within ``nst``.

    A whole-module import (``from . import cli``, ``import nst.cli``) has the
    name ``*``.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "nst" and not module.startswith("nst."):
                    continue
                module = module[len("nst.") :]
            if module:
                found += [(module, alias.name, node.lineno) for alias in node.names]
            else:
                found += [(alias.name, "*", node.lineno) for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("nst."):
                    found.append((alias.name.split(".")[1], "*", node.lineno))
    return found


def _layering_violations(module: str, tree: ast.Module) -> list[str]:
    rules = LAYERING.get(module, {})
    return [
        f"{name} from {source} (line {line})"
        for source, name, line in _sibling_imports(tree)
        if source in rules and name not in rules[source]
    ]


@pytest.mark.parametrize("module", sorted(LAYERING))
def test_imports_follow_the_layering(module):
    path = SOURCE_DIR / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    violations = _layering_violations(module, tree)
    assert not violations, f"{module} imports across the layering: {', '.join(violations)}"


def test_layering_violation_is_detected():
    tree = ast.parse(
        "from .recognizer import ToyRecognizer, load_model\n"
        "from . import cli\n"
        "import nst.pipeline\n"
        "from nst.corpus import Dataset\n"
    )
    assert _layering_violations("pipeline", tree) == [
        "load_model from recognizer (line 1)",
        "* from cli (line 2)",
    ]
    assert len(_layering_violations("scoring", tree)) == 4
    assert _layering_violations("cli", tree) == []


TESTS_DIR = Path(__file__).resolve().parent
ORACLES = TESTS_DIR / "oracles.py"


def _package_imports(tree: ast.Module) -> list[str]:
    """Every import of ``nst`` or of a module inside it, with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [
            f"{module} (line {node.lineno})"
            for module in modules
            if module == "nst" or module.startswith("nst.")
        ]
    return found


def test_oracles_import_nothing_from_the_package():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"), filename=str(ORACLES))
    imports = _package_imports(tree)
    assert not imports, f"oracles.py imports from the package it judges: {', '.join(imports)}"


def test_oracle_import_from_the_package_is_detected():
    tree = ast.parse(
        "import numpy as np\n"
        "from nst.recognizer import _am_matrix\n"
        "import math, nst.scoring\n"
        "from nst import corpus\n"
        "from .conftest import helper\n"
        "import nstx\n"
    )
    assert _package_imports(tree) == ["nst.recognizer (line 2)", "nst.scoring (line 3)", "nst (line 4)"]


def _unchecked_readers(tree: ast.Module) -> list[str]:
    """Every ``from_dict`` method, with its class and line, that never calls ``read_record``."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and method.name == "from_dict":
                calls = {
                    node.func.id
                    for node in ast.walk(method)
                    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                }
                if "read_record" not in calls:
                    found.append(f"{cls.name}.from_dict (line {method.lineno})")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_record_readers_check_keys_and_types(path):
    # One helper checks every record's keys and value types; a reader that skips it
    # would let a mistyped value run another setting.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unchecked = _unchecked_readers(tree)
    assert not unchecked, f"{path.name} reads records without read_record: {', '.join(unchecked)}"


def test_unchecked_reader_is_detected():
    tree = ast.parse(
        "class A:\n"
        "    @classmethod\n"
        "    def from_dict(cls, record):\n"
        "        return cls(**read_record(record, SPEC, E, 'a'))\n"
        "class B:\n"
        "    @classmethod\n"
        "    def from_dict(cls, record):\n"
        "        check_keys(record, KEYS, E, 'b')\n"
        "        return cls(x=int(record.get('x', 0)))\n"
        "    def to_dict(self):\n"
        "        return {}\n"
    )
    assert _unchecked_readers(tree) == ["B.from_dict (line 7)"]


# The only functions that parse JSON text; every file format is read through them.
JSON_PARSERS = {"corpus.read_json", "corpus.read_jsonl"}


def _sites(module: str, tree: ast.Module, matches) -> list[str]:
    """``<module>.<function> (line)`` of every node for which ``matches`` holds."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}.{child.name}")
                continue
            if matches(child):
                found.append(f"{where} (line {child.lineno})")
            visit(child, where)

    visit(tree, module)
    return found


def _parses_json(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr in ("loads", "load")
        and isinstance(node.value, ast.Name) and node.value.id == "json"
    ) or (
        isinstance(node, ast.ImportFrom) and node.module == "json"
        and any(alias.name in ("loads", "load") for alias in node.names)
    )


def _json_parse_sites(module: str, tree: ast.Module) -> list[str]:
    """``<module>.<function> (line)`` of every use of ``json.loads``/``json.load``."""
    return _sites(module, tree, _parses_json)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_json_is_parsed_only_by_the_corpus_readers(path):
    # A hand-written parse skips read_record and the file-naming error of the readers.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    stray = [site for site in _json_parse_sites(path.stem, tree)
             if site.split(" ")[0] not in JSON_PARSERS]
    assert not stray, f"JSON parsed outside {sorted(JSON_PARSERS)}: {', '.join(stray)}"


def test_stray_json_parse_is_detected():
    tree = ast.parse(
        "import json\n"
        "from json import loads\n"
        "def read_json(path):\n"
        "    return json.loads(path.read_text())\n"
        "class Model:\n"
        "    def from_file(cls, path):\n"
        "        return cls.from_dict(json.loads(open(path).read()))\n"
        "    def save(self, path):\n"
        "        path.write_text(json.dumps(self.to_dict()))\n"
        "state = json.load(open('state.json'))\n"
    )
    assert _json_parse_sites("corpus", tree) == [
        "corpus (line 2)", "corpus.read_json (line 4)", "corpus.from_file (line 7)",
        "corpus (line 10)",
    ]


# The only function that turns file bytes into text; every text file is read through it.
TEXT_DECODERS = {"corpus.text_lines"}


def _decodes_text(node: ast.AST) -> bool:
    """A text-mode ``open``, ``read_text``, ``bytes.decode`` or a catch of its failure."""
    if isinstance(node, ast.Name):
        return node.id == "UnicodeDecodeError"
    if isinstance(node, ast.Attribute):
        return node.attr == "read_text"
    if not isinstance(node, ast.Call):
        return False
    if isinstance(node.func, ast.Attribute) and node.func.attr == "decode":
        # ``bytes.decode(encoding)``, not ``TokenVocab.decode(ids)``
        return not node.args or isinstance(node.args[0], ast.Constant)
    if isinstance(node.func, ast.Name) and node.func.id == "open":
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        return not (isinstance(mode, ast.Constant) and "b" in mode.value)
    return False


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_text_is_decoded_only_by_the_corpus_reader(path):
    # Each reader once refused a byte that is not UTF-8 its own way, or named no file.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    stray = [site for site in _sites(path.stem, tree, _decodes_text)
             if site.split(" ")[0] not in TEXT_DECODERS]
    assert not stray, f"text decoded outside {sorted(TEXT_DECODERS)}: {', '.join(stray)}"


def test_stray_text_decode_is_detected():
    tree = ast.parse(
        "def load(path, vocab, ids):\n"
        "    vocab.decode(ids)\n"
        "    open(path, 'rb').read().decode('utf-8')\n"
        "    open(path, mode='wb')\n"
        "    open(path)\n"
        "    return path.read_text()\n"
        "try:\n"
        "    b''.decode()\n"
        "except UnicodeDecodeError:\n"
        "    pass\n"
    )
    assert _sites("pipeline", tree, _decodes_text) == [
        "pipeline.load (line 3)", "pipeline.load (line 5)", "pipeline.load (line 6)",
        "pipeline (line 8)", "pipeline (line 9)",
    ]


def test_public_names_resolve():
    missing = [name for name in nst.__all__ if not hasattr(nst, name)]
    assert not missing, f"nst.__all__ lists names the package lacks: {missing}"
    assert len(set(nst.__all__)) == len(nst.__all__)


def _targets(node: ast.stmt) -> list[str]:
    """The plain names an assignment statement binds."""
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _defined_names(node: ast.stmt) -> list[str]:
    """Names a top-level statement defines that must be used: a function or class, or a
    private constant (``_NAME = ...``). Dunder names such as ``__all__`` are exempt."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    return [name for name in _targets(node) if name.startswith("_") and not _is_dunder(name)]


def _uses(nodes: list[ast.AST], own: set[str]) -> tuple[set[str], set[str]]:
    """The names and the attribute names ``nodes`` use, leaving out ``own``."""
    names, attrs = set(), set()
    for node in nodes:
        names |= _used_names(node)
        attrs |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    return names - own, attrs - own


def _parts(tree: ast.Module):
    """(definitions, used names, used attributes) of each top-level statement but
    ``__all__``, with a class split into each method and the rest of the class.

    A definition is (qualified name, the name a use carries, line). A method is
    ``Class.method``; dunder methods are exempt. A part's uses of what it defines,
    and a method's uses of its own class, are left out: self-use is not use.
    """
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [m for m in node.body
                       if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            rest = [*node.decorator_list, *node.bases, *node.keywords,
                    *(s for s in node.body if s not in methods)]
            yield [(node.name, node.name, node.lineno)], *_uses(rest, {node.name})
            for m in methods:
                qualified = f"{node.name}.{m.name}"
                defined = [] if _is_dunder(m.name) else [(qualified, m.name, m.lineno)]
                yield defined, *_uses([m], {node.name, m.name})
        elif "__all__" not in _targets(node):
            defined = _defined_names(node)
            yield [(name, name, node.lineno) for name in defined], *_uses([node], set(defined))


def _unreferenced_definitions(
    package: dict[str, ast.Module], users: list[ast.Module]
) -> list[str]:
    """``<module>.<name> (line)`` of every top-level function, class, private constant or
    non-dunder method of ``package`` that nothing else uses. A use is a reference from
    another part of the package or from ``users``; a method is used only through an
    attribute (``x.method``). ``__all__`` and imports are not uses."""
    names, attrs, definitions = set(), set(), []
    for module, tree in [*sorted(package.items()), *((None, tree) for tree in users)]:
        for defined, used_names, used_attrs in _parts(tree):
            names |= used_names
            attrs |= used_attrs
            if module is not None:
                definitions += [(module, *d) for d in defined]
    return [
        f"{module}.{qualified} (line {line})"
        for module, qualified, name, line in definitions
        if name not in (attrs if "." in qualified else names | attrs)
    ]


# Code outside the package whose uses count: the benchmark and the acceptance suite.
# Unit tests do not count; a definition only they reach is not part of the system.
USERS = [*sorted((TESTS_DIR.parent / "bench").rglob("*.py")), TESTS_DIR / "test_acceptance.py"]


def test_every_definition_is_used_by_the_system():
    # A definition nothing calls is a second way to do a thing, kept only by its tests;
    # a private one nothing calls is a leftover.
    def parse(path: Path) -> ast.Module:
        return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    unused = _unreferenced_definitions(
        {path.stem: parse(path) for path in MODULES}, [parse(path) for path in USERS]
    )
    assert not unused, (
        f"definitions nothing in nst, bench/ or the acceptance suite uses: {', '.join(unused)}"
    )


def test_unused_definition_is_detected():
    package = {
        "a": ast.parse(
            "__all__ = ['only_exported']\n"
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "def used():\n"
            "    return helper() + _LIMIT\n"
            "def helper():\n"
            "    return _kernel()\n"
            "def unused(n):\n"
            "    return unused(n - 1)\n"
            "def only_exported():\n"
            "    pass\n"
            "def _kernel():\n"
            "    return Box().called(1)\n"
            "class Box:\n"
            "    limit = _LIMIT\n"
            "    def __len__(self):\n"
            "        return 0\n"
            "    def called(self, n):\n"
            "        return self.helper_method(n)\n"
            "    def helper_method(self, n):\n"
            "        return n\n"
            "    def recursive(self, n):\n"
            "        return self.recursive(n - 1)\n"
            "    @classmethod\n"
            "    def make(cls):\n"
            "        return cls()\n"
            "    def by_user(self):\n"
            "        return Box.make()\n"
            "class _Hidden:\n"
            "    def copy(self):\n"
            "        return _Hidden()\n"
            "def length(items):\n"
            "    return len(items)\n"
        ),
        "__init__": ast.parse(
            "from .a import only_exported, used\n__all__ = ['only_exported', 'used']\n"),
        "b": ast.parse("from .a import used\nx = used()\n"),
    }
    user = ast.parse("from nst.a import Box, length\nBox().by_user()\nn = length([])\n")
    assert _unreferenced_definitions(package, [user]) == [
        "a._UNUSED (line 3)", "a.unused (line 8)", "a.only_exported (line 10)",
        "a.Box.recursive (line 22)", "a._Hidden (line 29)", "a._Hidden.copy (line 30)",
    ]
    # Without the user, ``by_user`` and ``length`` are unused. ``make`` still counts as
    # used, by ``by_user``: the rule is not transitive.
    assert _unreferenced_definitions(package, []) == [
        "a._UNUSED (line 3)", "a.unused (line 8)", "a.only_exported (line 10)",
        "a.Box.recursive (line 22)", "a.Box.by_user (line 27)", "a._Hidden (line 29)",
        "a._Hidden.copy (line 30)", "a.length (line 32)",
    ]
