"""Shared domain types: questions, steps, rollouts, states, tree nodes;
and the writer every artifact goes through.

Monte Carlo estimates are stored as exact rationals (``fractions.Fraction``)
so that the boundary predicates ``MC == 0`` and ``MC == 1`` are exact; they
are converted to float only at export time.
"""
from __future__ import annotations

import os
import re
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import UpstreamError

# The temporary file of ``open_replacing``: <name>.<pid>.tmp.
_TMP_NAME = re.compile(r".+\.([0-9]+)\.tmp")


@contextmanager
def open_replacing(path, newline=None):
    """A text file to write whose content replaces ``path`` when the block
    ends without error: it is written as ``<path>.<pid>.tmp`` and renamed
    over ``path``, so ``path`` holds either its previous content or the
    whole new one, whenever the process dies. A block that raises removes
    the temporary file, and an ``OSError`` (``path`` is a directory, say)
    is raised as an ``UpstreamError`` that names ``path``. Each process
    writes its own temporary file, so two writers of one path never share
    one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8", newline=newline)
        try:
            with fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise
    except OSError as exc:
        raise UpstreamError(
            f"cannot write artifact: {path}: {exc.strerror}") from None


def remove_stale_tmp(directory):
    """Remove each ``<name>.<pid>.tmp`` in ``directory`` whose pid is no
    live process: what a writer killed before its rename left. The file
    of a live pid is kept, since that process (an orphaned worker, say)
    may still be writing it."""
    if os.name != "posix":  # elsewhere os.kill(pid, 0) ends the process
        return
    try:
        names = os.listdir(directory)
    except OSError:  # no directory yet: nothing was written there
        return
    for match in filter(None, map(_TMP_NAME.fullmatch, names)):
        try:
            os.kill(int(match[1]), 0)
        except ProcessLookupError:
            with suppress(FileNotFoundError):  # another rerun removed it first
                os.remove(os.path.join(directory, match[0]))
        except (OSError, OverflowError):  # alive, or not a pid at all
            pass


@dataclass(frozen=True)
class Question:
    id: str
    statement: str
    golden_answer: str

    def __post_init__(self):
        for name in ("id", "statement", "golden_answer"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a string")
        if not self.id:
            raise ValueError("question id must be nonempty")
        if not self.golden_answer:
            raise ValueError("golden answer must be nonempty")


@dataclass(frozen=True)
class Step:
    text: str
    token_len: int

    def __post_init__(self):
        if not self.text:
            raise ValueError("step text must be nonempty")
        if self.token_len < 0:
            raise ValueError("token_len must be nonnegative")


def make_step(text: str) -> Step:
    """A step whose length is its count of whitespace-separated tokens."""
    return Step(text=text, token_len=len(text.split()))


@dataclass(frozen=True)
class Rollout:
    """A sampled completion: ordered steps plus the extracted final answer.
    ``steps`` is kept as a tuple, and ``token_len`` is derived from it."""

    steps: tuple
    final_answer: str
    is_correct: bool
    token_len: int = field(init=False)

    def __post_init__(self):
        steps = tuple(self.steps)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "token_len", sum(s.token_len for s in steps))

    @property
    def text(self) -> str:
        return " ".join(s.text for s in self.steps)


@dataclass(frozen=True)
class State:
    question_id: str
    prefix_steps: tuple = ()
    # ``key()`` computed on first use; a derived value, so it takes no part
    # in equality, hashing or repr.
    _key: Optional[tuple] = field(
        default=None, init=False, compare=False, hash=False, repr=False
    )

    @property
    def prefix_text(self) -> str:
        return " ".join(s.text for s in self.prefix_steps)

    def key(self) -> tuple:
        """Node identity: the prefix token sequence."""
        key = self._key
        if key is None:
            key = tuple(self.prefix_text.split())
            object.__setattr__(self, "_key", key)
        return key


def state_transition(state: State, action_steps) -> State:
    """Concatenate an action (one or more steps) onto a state's prefix."""
    action_steps = tuple(action_steps)
    if not action_steps:
        raise ValueError("state transition requires a nonempty action")
    child = State(
        question_id=state.question_id,
        prefix_steps=state.prefix_steps + action_steps,
    )
    # The child's key extends the parent's: only the action is tokenized.
    object.__setattr__(child, "_key", state.key() + tuple(
        " ".join(s.text for s in action_steps).split()))
    return child


class NodeStats:
    """Visit count, rollouts and the derived Monte Carlo estimate.

    ``forced_wrong`` marks a terminal wrong-answer state, whose MC is known
    to be zero without any rollouts of its own. Rollouts are only ever
    added, through ``add_rollouts``, which keeps a running count of the
    correct ones and the MC they give, so reading ``mc`` recounts nothing.
    """

    __slots__ = ("visit_count", "forced_wrong", "_rollouts", "_correct", "_mc")

    def __init__(self):
        self.visit_count = 0
        self.forced_wrong = False
        self._rollouts = ()
        self._correct = 0
        self._mc = None

    @property
    def rollouts(self) -> tuple:
        return self._rollouts

    def add_rollouts(self, rollouts):
        rollouts = tuple(rollouts)
        if not rollouts:
            return
        self._rollouts += rollouts
        self._correct += sum(1 for r in rollouts if r.is_correct)
        self._mc = Fraction(self._correct, len(self._rollouts))

    @property
    def mc(self) -> Optional[Fraction]:
        if self._rollouts:
            return self._mc
        return Fraction(0) if self.forced_wrong else None


@dataclass
class TreeNode:
    """A state and its statistics, the action of its one parent edge (set
    when it is linked; ``()`` at the root), and its child nodes."""

    state: State
    action_steps: tuple = field(default=(), init=False)
    stats: NodeStats = field(default_factory=NodeStats)
    children: list = field(default_factory=list)

    @property
    def mc(self) -> Optional[Fraction]:
        return self.stats.mc

    @property
    def action_text(self) -> str:
        return " ".join(s.text for s in self.action_steps)

    @property
    def action_token_len(self) -> int:
        return sum(s.token_len for s in self.action_steps)


@dataclass
class EngineConfig:
    """Every tunable of the search: value function, PUCT, budgets."""

    alpha: float = 0.5
    beta: float = 0.9
    len_scale_L: float = 500.0
    c_puct: float = 0.125
    k_rollouts: int = 8
    search_limit: int = 100
    step_split_target: int = 16

    def __post_init__(self):
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must be in (0, 1]")
        if not (0 < self.beta <= 1):
            raise ValueError("beta must be in (0, 1]")
        if self.len_scale_L <= 0:
            raise ValueError("len_scale_L must be positive")
        if self.c_puct < 0:
            raise ValueError("c_puct must be nonnegative")
        if self.k_rollouts < 1:
            raise ValueError("k_rollouts must be a positive integer")
        if self.search_limit < 1:
            raise ValueError("search_limit must be a positive integer")
        if self.step_split_target < 1:
            raise ValueError("step_split_target must be a positive integer")
