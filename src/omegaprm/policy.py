"""Completer abstractions: answer handling, a simulated policy, and a remote client.

The "completer" is the policy pi(a|s) that samples full continuations
(rollouts) from a partial solution. The simulated completer provides a
deterministic, seeded stand-in for desk-scale verification; the remote
completer speaks a small JSON-over-HTTP protocol.
"""
from __future__ import annotations

import bisect
import functools
import hashlib
import json
import math
import random
import re
import select
import time
from dataclasses import dataclass
from typing import Optional
from urllib.parse import urlsplit

from .core import Question, Rollout, State, make_step
from .errors import CompleterUnavailable

PROMPT_TEMPLATE = "Question: {statement}\nSolution so far: {prefix}\n"
RETRY_BACKOFF = 0.5  # seconds before the first retry; doubles per retry

_BOXED_RE = re.compile(r"\\boxed\{([^{}]*)\}")
_MARKER_RE = re.compile(
    r"(?:answer\s+is|answer:|####)\s*(\S+)", re.IGNORECASE
)
_NUMBER_RE = re.compile(r"-?\d[\d,]*(?:\.\d+)?(?:/\d+)?")


def extract_final_answer(text: str) -> str:
    """Pull the last marked answer span, else the last number-like token."""
    boxed = _BOXED_RE.findall(text)
    if boxed:
        return boxed[-1].strip()
    marked = _MARKER_RE.findall(text)
    if marked:
        return marked[-1].strip().rstrip(".,;")
    numbers = _NUMBER_RE.findall(text)
    if numbers:
        return numbers[-1]
    return ""


def _normalize_answer(ans: str) -> str:
    ans = ans.strip().replace(",", "").replace(" ", "")
    ans = ans.rstrip(".")
    return ans


def _parse_number(ans: str) -> Optional[float]:
    """The numeric value of ``ans``, or None. NaN counts as no number, so
    "NAN" compares as a string and stays equivalent to itself."""
    try:
        if "/" in ans:
            num, den = ans.split("/", 1)
            value = float(num) / float(den)
        else:
            value = float(ans)
    except (ValueError, ZeroDivisionError):
        return None
    return None if math.isnan(value) else value


@functools.lru_cache(maxsize=1 << 12)  # pools repeat a few answers
def answer_key(ans: str):
    """The canonical form of an answer: None when it is empty, else the
    number its normalized form parses as, else that form case-folded."""
    if not ans:
        return None
    norm = _normalize_answer(ans)
    value = _parse_number(norm)
    return norm.casefold() if value is None else value


def answers_equivalent(a: str, b: str) -> bool:
    """Whether two nonempty answers have the same ``answer_key``: numbers
    compare by value, anything else as normalized case-folded text."""
    key = answer_key(a)
    return key is not None and key == answer_key(b)


def stable_int(*parts) -> int:
    """A 64-bit integer hashed from ``parts``, the same in every process
    (unlike ``hash``); seeds every simulated RNG stream."""
    material = "\x1f".join(str(p) for p in parts)
    return int.from_bytes(
        hashlib.blake2b(material.encode(), digest_size=8).digest(), "big"
    )


def render_prompt(state: State, question: Question) -> str:
    return PROMPT_TEMPLATE.format(statement=question.statement,
                                  prefix=state.prefix_text)


@dataclass(frozen=True)
class CompleterRequest:
    state: State
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


class Completer:
    """Interface: sample rollouts from a state of a known question."""

    def sample_rollouts(self, request: CompleterRequest):
        raise NotImplementedError

    def reset(self):
        """Forget per-call state so an identical call sequence replays; a
        completer without such state has nothing to forget."""

    def close(self):
        """Release what the completer holds open; one that holds nothing
        has nothing to release."""


@dataclass
class SimPolicySpec:
    """Settings of the simulated policy.

    ``per_step_error_prob`` is the chance each generated step is corrupted;
    ``recovery_prob`` is the chance a rollout carrying an error still lands
    on the golden answer (models false positives; 0 = noiseless oracle).
    Wrong final answers are drawn from ``wrong_answer_pool`` when given
    (this is how clustered distractors are modeled), otherwise derived from
    the first corrupted step.
    """

    per_step_error_prob: float = 0.1
    recovery_prob: float = 0.0
    seed: int = 0
    wrong_answer_pool: Optional[list] = None
    wrong_answer_weights: Optional[list] = None

    def __post_init__(self):
        if not (0 <= self.per_step_error_prob <= 1):
            raise ValueError("per_step_error_prob must be in [0, 1]")
        if not (0 <= self.recovery_prob <= 1):
            raise ValueError("recovery_prob must be in [0, 1]")
        pool = self.wrong_answer_pool or []
        weights = self.wrong_answer_weights
        if not all(isinstance(answer, str) for answer in pool):
            raise ValueError("wrong_answer_pool must hold strings")
        if weights is not None and not (
                len(weights) == len(pool)
                and all(isinstance(w, (int, float)) and not isinstance(w, bool)
                        and 0 <= w < math.inf for w in weights)
                and sum(weights) > 0):
            raise ValueError("wrong_answer_weights needs one weight >= 0 "
                             "per wrong answer, not all 0")


class SimulatedCompleter(Completer):
    """Deterministic seeded policy over per-question ground-truth chains.

    Each question has a ground-truth step chain. A rollout continues the
    prefix with the remaining ground steps, corrupting each one
    independently with ``per_step_error_prob``; a corrupted step keeps its
    token count but replaces every token with a distinctive ``errNNN``
    token, so any prefix can later be judged by comparing tokens against
    the ground chain. Per-call RNG streams are derived from
    (seed, prefix tokens, call ordinal), so identical call sequences are
    bit-reproducible.
    """

    def __init__(self, questions, chains, spec: SimPolicySpec):
        self.questions = dict(questions)
        self.chains = {qid: list(chain) for qid, chain in chains.items()}
        self.spec = spec
        self._call_ordinals = {}
        self._grounds = {}

    def _ground(self, qid):
        """(step token lists, cumulative token counts, all tokens, ground
        ``Step``s) of a question's chain, built on first use."""
        ground = self._grounds.get(qid)
        if ground is None:
            chain_tokens = [step.split() for step in self.chains[qid]]
            cum = [0]
            for toks in chain_tokens:
                cum.append(cum[-1] + len(toks))
            ground = (
                chain_tokens,
                cum,
                tuple(t for toks in chain_tokens for t in toks),
                [make_step(" ".join(toks)) for toks in chain_tokens],
            )
            self._grounds[qid] = ground
        return ground

    def _rng_for(self, state: State) -> random.Random:
        key = (state.question_id,) + state.key()
        ordinal = self._call_ordinals.get(key, 0)
        self._call_ordinals[key] = ordinal + 1
        return random.Random(stable_int(self.spec.seed, ordinal,
                                        "\x1f".join(key)))

    def reset(self):
        """Forget call ordinals so an identical call sequence replays."""
        self._call_ordinals = {}

    def sample_rollouts(self, request: CompleterRequest):
        state = request.state
        question = self.questions[state.question_id]
        chain_tokens, cum, ground_tokens, ground_steps = self._ground(
            state.question_id
        )
        prefix_tokens = state.key()
        # Number of whole ground steps covered by the prefix; snapped
        # boundaries keep prefixes aligned to ground step boundaries.
        consumed = bisect.bisect_right(cum, len(prefix_tokens)) - 1
        covered = cum[consumed]
        prefix_has_error = prefix_tokens[:covered] != ground_tokens[:covered]

        rng = self._rng_for(state)
        spec = self.spec
        rollouts = []
        for _ in range(request.n_samples):
            steps = []
            error_steps = []
            for idx in range(consumed, len(chain_tokens)):
                if rng.random() < spec.per_step_error_prob:
                    toks = [f"err{rng.randrange(1_000_000)}"
                            for _ in chain_tokens[idx]]
                    error_steps.append(idx + 1)
                    steps.append(make_step(" ".join(toks)))
                else:
                    steps.append(ground_steps[idx])
            has_error = prefix_has_error or bool(error_steps)
            if not has_error or rng.random() < spec.recovery_prob:
                final = question.golden_answer
            elif spec.wrong_answer_pool:
                final = rng.choices(
                    spec.wrong_answer_pool, weights=spec.wrong_answer_weights
                )[0]
            else:
                first = error_steps[0] if error_steps else 0
                final = f"wrong{first}"
            rollouts.append(Rollout(
                steps, final, answers_equivalent(final, question.golden_answer)
            ))
        return rollouts


def _dropped(sock) -> bool:
    """True when an idle kept-alive socket is readable: the server closed it
    (or sent something unasked), so it must not carry the next request."""
    try:
        poller = select.poll()
    except AttributeError:  # no poll() on this platform
        return bool(select.select([sock], [], [], 0)[0])
    poller.register(sock, select.POLLIN)
    return bool(poller.poll(0))


@dataclass
class RemoteSettings:
    """Settings of the remote completer. ``endpoint`` must be an http:// or
    https:// URL with a host; a ``RemoteCompleter`` needs one."""

    endpoint: Optional[str] = None
    timeout: float = 30.0
    max_retries: int = 3
    batch_size: int = 8
    temperature: float = 1.0
    max_tokens: int = 1024

    def __post_init__(self):
        if self.timeout <= 0:  # every request would fail
            raise ValueError("timeout must be > 0")
        if self.max_retries < 1:
            raise ValueError("max_retries must be a positive integer")
        if self.batch_size < 1:
            raise ValueError("batch_size must be a positive integer")
        if self.temperature < 0:
            raise ValueError("temperature must be nonnegative")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be a positive integer")
        if self.endpoint is None:
            return
        try:
            url = urlsplit(self.endpoint)
            url.port  # raises ValueError for a port that is not a number
        except ValueError as exc:
            raise ValueError(f"bad endpoint {self.endpoint!r}: {exc}") from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(
                f"endpoint must be an http:// or https:// URL with a host, "
                f"got {self.endpoint!r}"
            )


class RemoteCompleter(Completer):
    """HTTP client for a completion server at ``settings.endpoint``.

    Wire protocol: POST {"prompt", "n", "temperature", "max_tokens"},
    response {"completions": [text, ...]}; every payload carries the
    settings' ``temperature`` and ``max_tokens``. Large requests are
    split into batches of ``batch_size`` transparently. Malformed
    completions, and the unfilled slots of a reply that is short or whose
    ``completions`` is not a list, are kept as incorrect rollouts with an
    empty final answer.
    Connection errors, timeouts, 429 and 5xx replies and unparsable bodies
    are retried with exponential backoff; any other non-2xx status fails at
    once.

    Keep-alive ``http.client`` connections wait in one idle list: a request
    takes one, or opens one when none is idle, and puts it back when done,
    so it holds no more connections than its peak of requests in flight.
    One the server closed while idle is reopened before use (not a retry).
    ``close`` closes the idle ones. Proxy environment variables are not
    consulted.
    """

    def __init__(self, questions, settings: RemoteSettings, *,
                 auth_token=None):
        from http.client import HTTPConnection, HTTPSConnection

        if settings.endpoint is None:
            raise ValueError("a remote completer needs an endpoint")
        url = urlsplit(settings.endpoint)
        connection = HTTPSConnection if url.scheme == "https" else HTTPConnection
        self._connect = lambda: connection(url.hostname, url.port,
                                           timeout=settings.timeout)
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._idle = []  # list.pop and list.append are atomic: no lock
        self._steps = {}
        self.questions = dict(questions)
        self.settings = settings
        self._headers = {"Content-Type": "application/json"}
        if auth_token:
            self._headers["Authorization"] = f"Bearer {auth_token}"

    def close(self):
        while self._idle:
            self._idle.pop().close()

    def _post(self, payload):
        from http.client import HTTPException

        body = json.dumps(payload, allow_nan=False).encode()
        last_error = None
        try:
            conn = self._idle.pop()
        except IndexError:
            conn = self._connect()
        try:
            for attempt in range(self.settings.max_retries):
                if conn.sock is not None and _dropped(conn.sock):
                    conn.close()  # closed while idle: the request reopens it
                try:
                    conn.request("POST", self._path, body, self._headers)
                    resp = conn.getresponse()
                    data = resp.read()
                    if resp.status >= 500 or resp.status == 429:
                        last_error = f"server returned {resp.status}"
                    elif not 200 <= resp.status < 300:
                        raise CompleterUnavailable(
                            f"completer rejected request: {resp.status}"
                        )
                    else:
                        return json.loads(data)
                except (OSError, HTTPException, ValueError) as exc:
                    conn.close()
                    last_error = str(exc)
                if attempt + 1 < self.settings.max_retries:
                    time.sleep(RETRY_BACKOFF * 2 ** attempt)
        finally:
            self._idle.append(conn)
        raise CompleterUnavailable(f"completer unreachable: {last_error}")

    def _to_rollout(self, completion, question):
        if not isinstance(completion, str) or not completion.strip():
            return Rollout((), "", False)
        # One step per whitespace token: any consecutive token span is a
        # valid step, so binary search may cut anywhere. Each distinct token
        # has one shared ``Step``.
        steps = self._steps
        answer = extract_final_answer(completion)
        return Rollout(
            [steps.get(tok) or steps.setdefault(tok, make_step(tok))
             for tok in completion.split()],
            answer, answers_equivalent(answer, question.golden_answer),
        )

    def sample_rollouts(self, request: CompleterRequest):
        question = self.questions[request.state.question_id]
        prompt = render_prompt(request.state, question)
        completions = []
        remaining = request.n_samples
        while remaining > 0:
            n = min(remaining, self.settings.batch_size)
            data = self._post({
                "prompt": prompt,
                "n": n,
                "temperature": self.settings.temperature,
                "max_tokens": self.settings.max_tokens,
            })
            batch = data.get("completions") if isinstance(data, dict) else None
            batch = batch[:n] if isinstance(batch, list) else []
            # A short reply, or one without a list of completions, still
            # consumes its slots; pad with failures.
            completions.extend(batch + [None] * (n - len(batch)))
            remaining -= n
        return [self._to_rollout(c, question) for c in completions]
