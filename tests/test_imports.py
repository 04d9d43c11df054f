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
