"""Every parameter with a default in the package is passed by some call in
the package or the benchmark, so no knob that only the tests turn survives
in ``src/``."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "omegaprm"
CALLERS = [*sorted(PACKAGE.glob("*.py")),
           *sorted((ROOT / "perfbench").glob("*.py"))]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def defaulted_parameters(source, module):
    """``{qualified name: (call name, bound, {parameter: position})}`` for
    each function of ``source`` with a defaulted parameter, where call name
    is the name a call spells (a class's for ``__init__``), ``bound`` is
    the count of leading parameters a call does not spell (``self``), and
    position is None for a keyword-only parameter."""
    found = {}

    def visit(node, qualname, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{qualname}{child.name}.", child.name)
            elif isinstance(child, FUNCTIONS):
                args = child.args
                positional = args.posonlyargs + args.args
                params = {a.arg: i for i, a in enumerate(positional)
                          if i >= len(positional) - len(args.defaults)}
                params.update({a.arg: None for a, d in zip(
                    args.kwonlyargs, args.kw_defaults) if d is not None})
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                bound = int(cls is not None and not static)
                called = cls if child.name == "__init__" else child.name
                if params:
                    found[f"{module}.{qualname}{child.name}"] = (
                        called, bound, params)
                visit(child, f"{qualname}{child.name}.", None)

    visit(ast.parse(source), "", None)
    return found


def passed(sources):
    """``{call name: (positions passed, keywords passed)}`` over every call
    in ``sources``; a ``*`` argument passes every position and a ``**``
    argument every keyword (both as None)."""
    calls = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            positions, keywords = calls.setdefault(name, (set(), set()))
            if any(isinstance(a, ast.Starred) for a in node.args):
                positions.add(None)
            positions.update(range(len(node.args)))
            keywords.update(k.arg for k in node.keywords)
    return calls


def unpassed_parameters(package, callers):
    """The ``module.function:parameter`` names of the defaulted parameters
    of the ``package`` sources (module name: source) that no call in the
    ``callers`` sources passes, by position or by keyword."""
    calls = passed(callers)
    unpassed = []
    for module, source in package.items():
        for qualname, (called, bound, params) in defaulted_parameters(
                source, module).items():
            positions, keywords = calls.get(called, (set(), set()))
            for param, index in params.items():
                by_position = index is not None and (
                    None in positions or index - bound in positions)
                if not (by_position or param in keywords or None in keywords):
                    unpassed.append(f"{qualname}:{param}")
    return sorted(unpassed)


def test_only_the_aggregation_mode_is_never_passed():
    # ``mode`` waits for an ``eval.aggregate`` config key to pass it.
    package = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(PACKAGE.glob("*.py"))}
    callers = [p.read_text(encoding="utf-8") for p in CALLERS]
    assert unpassed_parameters(package, callers) == [
        "prm.score_solution:mode"]


@pytest.mark.parametrize("source,unpassed", [
    ("def f(a, b=1): pass\nf(1)", ["m.f:b"]),
    ("def f(a, b=1): pass\nf(1, 2)", []),
    ("def f(a, b=1): pass\nf(1, b=2)", []),
    ("def f(a, b=1): pass\nf(*xs)", []),
    ("def f(a, *, b=1): pass\nf(*xs)", ["m.f:b"]),
    ("def f(a, *, b=1): pass\nf(**kw)", []),
    ("class C:\n    def __init__(self, a, b=1): pass\nC(1, 2)", []),
    ("class C:\n    def __init__(self, a, b=1): pass\nC(1)",
     ["m.C.__init__:b"]),
    ("class C:\n    def m(self, a=1): pass\nC().m(1)", []),
    ("class C:\n    @staticmethod\n    def m(a, b=1): pass\nC.m(1)",
     ["m.C.m:b"]),
    ("def f(a=1):\n    def g(b=2): pass\n    g(3)\nf()", ["m.f:a"]),
])
def test_unpassed_parameters(source, unpassed):
    assert unpassed_parameters({"m": source}, [source]) == unpassed
