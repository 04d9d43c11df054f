"""Every module-level import in ``src/reedychain`` is used by its module.

No linter is part of the toolchain, so this is the offline gate for
unused imports: each module is parsed with ``ast``, and a name bound by a
top-level ``import`` or ``from ... import`` must occur as a name somewhere
in the module (or in its ``__all__``)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "reedychain"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path) == []


def test_gate_sees_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import os\nfrom sys import path, argv\n\nprint(argv)\n", encoding="utf-8")
    assert unused_imports(mod) == ["os", "path"]


# Where a library name may be used: the library, the benchmark and the
# scripts.  Tests do not count, so a definition only tests call belongs in
# the tests.  A definition counts as used where a ``Name`` or ``Attribute``
# node names it outside its own body, or a string constant equals its name
# or ends in ``.name``, so the benchmark tracer's ``SPANS`` table keeps its
# entries; prose in a docstring or comment does not count.  ``KEEP`` holds
# the public names the README documents that no user calls yet.
ROOT = SRC.parent.parent
USERS = ("src", "perfbench", "scripts")
KEEP = ("chain.tensor_maps", "ssets.product")


def mentions(path: Path) -> list[tuple[str, int]]:
    """(text, line) of every Name, Attribute and string constant in path;
    a Name or Attribute gives its identifier, a string its whole value."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.append((node.value, node.lineno))
    return out


def unused_definitions(src: Path, users: list[Path]) -> list[str]:
    """``module.name`` of every module-level function or class under ``src``
    that no file in ``users`` names outside the definition itself."""
    found = {path: mentions(path) for path in users}
    out = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name, dotted = node.name, "." + node.name
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            used = any(
                (text == name or text.endswith(dotted))
                and not (user == path and first <= no <= node.end_lineno)
                for user, texts in found.items()
                for text, no in texts
            )
            if not used:
                out.append(f"{path.stem}.{name}")
    return out


def test_every_definition_is_used():
    users = [path for d in USERS for path in (ROOT / d).rglob("*.py")]
    assert unused_definitions(SRC, users) == list(KEEP)


def test_gate_sees_an_unused_definition(tmp_path):
    lib = tmp_path / "lib"
    lib.mkdir()
    (lib / "mod.py").write_text(
        "def dead(n):\n    return dead(n - 1)  # only itself\n\n\n"
        "def traced():\n    pass\n\n\n"
        "def dotted():\n    pass\n\n\n"
        "def prose():\n    pass\n\n\n"
        "class Used:\n    pass\n\n\n"
        "@staticmethod\ndef decorated():\n    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "user.py").write_text(
        '"""Calls prose() and lib.mod.prose in a docstring only."""\n'
        "# decorated() in a comment\n"
        "SPANS = {'mod': ('traced', 'Used.dotted')}\n"
        "from lib.mod import Used\n\nUsed()\n",
        encoding="utf-8",
    )
    users = [lib / "mod.py", tmp_path / "user.py"]
    assert unused_definitions(lib, users) == ["mod.dead", "mod.prose", "mod.decorated"]


def test_kron_flattening_lives_in_system():
    """vec(L X R) = kron(L, R^T) vec(X) is stated in one module: every hom,
    tensor and chain-map matrix is assembled by ``system.BlockSystem``."""
    users = [path.name for path in sorted(SRC.glob("*.py")) if "kron" in path.read_text("utf-8")]
    assert users == ["system.py"]
