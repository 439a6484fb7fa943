"""Every name a package module imports at top level is used in that module,
so no re-export layer or leftover import survives a change."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "omegaprm"


def unused_imports(source):
    """The names that ``source`` imports at top level (``from __future__``
    aside) and never reads, in an expression or an annotation."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_top_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source,unused", [
    ("import os.path\nos.sep", []),
    ("from a import b as c\nc()", []),
    ("from __future__ import annotations", []),
    ("from a import T\ndef f() -> T: pass", []),
    ("from a import T\n__all__ = ['T']", ["T"]),
    ("import os\nimport sys\nsys.exit", ["os"]),
])
def test_unused_imports(source, unused):
    assert unused_imports(source) == unused
