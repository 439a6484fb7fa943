"""Every name a package module imports is read where it is imported: a
top-level import somewhere in its module, an import inside a function in
that function. So no re-export layer, leftover import or stale deferred
import survives a change."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "omegaprm"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports(scope):
    """The names that the import statements of ``scope`` (a module or a
    function) bind outside the functions nested in it, and those nested
    functions."""
    names, nested = [], []
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTIONS):
            nested.append(node)
        elif isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
        else:
            stack.extend(ast.iter_child_nodes(node))
    return names, nested


def unused_imports(source):
    """The names that ``source`` imports (``from __future__`` aside) and
    never reads, in an expression or an annotation, in the scope of the
    import: the innermost function around it, else the whole module."""
    unused, scopes = [], [ast.parse(source)]
    while scopes:
        scope = scopes.pop()
        names, nested = _imports(scope)
        scopes += nested
        used = {node.id for node in ast.walk(scope)
                if isinstance(node, ast.Name)}
        unused += [name for name in names if name not in used]
    return sorted(unused)


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
    ("def f():\n    import os\n    return os.sep", []),
    ("def f():\n    import os\n    if x:\n        from a import b", ["b", "os"]),
    ("def f():\n    import os\ndef g():\n    return os.sep", ["os"]),
    ("import os\nos.sep\ndef f():\n    import os", ["os"]),
    ("def f():\n    from a import b\n    def g():\n        b()", []),
    ("class C:\n    async def m(self):\n        import os", ["os"]),
    ("if T:\n    import numpy as np\ndef f(z: np.ndarray): pass", []),
    ("try:\n    import os\nexcept ImportError:\n    pass", ["os"]),
])
def test_unused_imports(source, unused):
    assert unused_imports(source) == unused


def test_dataset_import_leaves_mcts_unloaded():
    # dataset names mcts.Tree only in annotations, so dataset, and the
    # benchmark's stub server that imports it, load no search engine.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    code = ("import sys, omegaprm.dataset\n"
            "sys.exit('omegaprm.mcts' in sys.modules)")
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)
