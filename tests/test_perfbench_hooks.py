"""The benchmark's traced runs patch names in the package: every name
``perfbench/tracing.py`` patches must exist, and ``uninstall`` must put each
one back."""
import importlib.util
import os
from types import SimpleNamespace

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
