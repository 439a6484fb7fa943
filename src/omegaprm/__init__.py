"""Automatic process supervision via divide-and-conquer Monte Carlo Tree
Search, plus PRM training objectives and weighted self-consistency."""

from .core import (
    EngineConfig,
    NodeStats,
    Question,
    Rollout,
    State,
    Step,
    TreeNode,
    make_rollout,
    make_step,
    state_transition,
)
from .mcts import (
    OmegaPRMEngine,
    SearchBudget,
    Tree,
    build_tree,
    exploration_bonus,
    load_tree,
    monte_carlo_estimate,
    rollout_value,
    save_tree,
)
from .policy import (
    CompleterRequest,
    RemoteCompleter,
    RemoteSettings,
    SimPolicySpec,
    SimulatedCompleter,
    answers_equivalent,
    extract_final_answer,
    render_prompt,
)

__all__ = [
    "EngineConfig",
    "NodeStats",
    "Question",
    "Rollout",
    "State",
    "Step",
    "TreeNode",
    "make_rollout",
    "make_step",
    "state_transition",
    "OmegaPRMEngine",
    "SearchBudget",
    "Tree",
    "build_tree",
    "exploration_bonus",
    "load_tree",
    "monte_carlo_estimate",
    "rollout_value",
    "save_tree",
    "CompleterRequest",
    "RemoteCompleter",
    "RemoteSettings",
    "SimPolicySpec",
    "SimulatedCompleter",
    "answers_equivalent",
    "extract_final_answer",
    "render_prompt",
]

__version__ = "0.1.0"
