"""The benchmark uses names of the package: every name
``perfbench/tracing.py`` patches must exist, and ``uninstall`` must put each
one back; every name ``perfbench/stub.py`` and ``perfbench/run.py`` take from
it must exist, so a deletion that breaks the benchmark fails here by name."""
import ast
import importlib
import importlib.util
import os
from types import SimpleNamespace

import pytest

from omegaprm import cli, core, evaluate, mcts, policy, prm

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_and_uninstall_restores():
    tracing = _load_tracing()
    tracer = tracing.Tracer(run_id="t")
    pkg = SimpleNamespace(cli=cli, core=core, evaluate=evaluate, mcts=mcts,
                          policy=policy, prm=prm)
    try:
        tracing.install(tracer, pkg)
        # The first patch of an attribute records its value before install.
        before = {}
        for owner, attr, original in tracer._patches:
            before.setdefault((owner, attr), original)
        assert ((cli, "accuracy_curve") in before
                and (evaluate, "sample_candidates") in before)
        for (owner, attr), original in before.items():
            assert getattr(owner, attr) != original, attr
    finally:
        tracer.uninstall()
    for (owner, attr), original in before.items():
        assert getattr(owner, attr) == original, attr


def package_names(source):
    """The (module, name) pairs that ``source`` takes from the package, name
    None for a whole module: ``from omegaprm.<m> import <name>``, ``import
    omegaprm.<m>``, ``importlib.import_module(f"omegaprm.{name}")`` over a
    literal tuple of names, and ``pkg.<m>.<name>`` (``run.py`` passes the
    imported modules around as ``pkg``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.ImportFrom)
                and (node.module or "").startswith("omegaprm")):
            names.update((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            names.update((a.name, None) for a in node.names
                         if a.name.startswith("omegaprm"))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Attribute)
              and isinstance(node.value.value, ast.Name)
              and node.value.value.id == "pkg"):
            names.add((f"omegaprm.{node.value.attr}", node.attr))
        elif isinstance(node, (ast.DictComp, ast.ListComp, ast.SetComp)):
            head = [n.values[0].value for n in ast.walk(node)
                    if isinstance(n, ast.JoinedStr)
                    and isinstance(n.values[0], ast.Constant)]
            if head != ["omegaprm."]:
                continue
            for gen in node.generators:
                if isinstance(gen.iter, ast.Tuple):
                    names.update((f"omegaprm.{elt.value}", None)
                                 for elt in gen.iter.elts)
    return names


@pytest.mark.parametrize("script,expected", [
    ("stub.py", {("omegaprm.core", "make_step")}),
    ("run.py", {("omegaprm.cli", "main"), ("omegaprm.prm", None)}),
])
def test_every_package_name_the_benchmark_imports_exists(script, expected):
    with open(os.path.join(PERFBENCH, script), encoding="utf-8") as fh:
        names = package_names(fh.read())
    assert expected <= names  # each form of use is recognised
    missing = []
    for module, name in sorted(names, key=str):
        try:
            found = importlib.import_module(module)
        except ImportError:
            missing.append(module)
            continue
        if name is not None and not hasattr(found, name):
            missing.append(f"{module}.{name}")
    assert missing == [], f"perfbench/{script} uses names the package lacks"

