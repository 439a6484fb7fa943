"""Loopback stub completion server for the ``remote`` workload.

Speaks the wire protocol of ``omegaprm.policy.RemoteCompleter``: POST
``{"prompt", "n", "temperature", "max_tokens"}`` and reply
``{"completions": [text, ...]}``. Replies come from a seeded
``SimulatedCompleter``, keyed by the question and prefix parsed out of the
prompt. The simulator's streams are keyed by (question, prefix, call
ordinal), and each question's requests arrive in order, so the replies do
not depend on how client threads interleave.

Each request costs a fixed service time. A fixed number of first attempts,
at seeded arrival positions, are refused with 503 so the client's retry
path runs; a refused request does not advance the simulator, so its retry
gets the reply the first attempt would have had. ``GET /stats`` reports
server-side counts of requests, refusals and TCP connections.

Run: ``python3 perfbench/stub.py --corpus stub_corpus.jsonl --seed 0
--refusal-window 40``.
It prints ``READY <port>`` once it listens on 127.0.0.1 and serves until
it receives SIGTERM.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from omegaprm.core import State, make_step  # noqa: E402
from omegaprm.dataset import import_corpus_jsonl  # noqa: E402
from omegaprm.policy import (  # noqa: E402
    CompleterRequest,
    SimPolicySpec,
    SimulatedCompleter,
)

SERVICE_S = 0.005
REFUSALS = 2

_PROMPT_HEAD = "Question: "
_PROMPT_SEP = "\nSolution so far: "


def _seed_int(*parts) -> int:
    material = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.blake2b(material, digest_size=8).digest(), "big")


class StubState:
    """Everything the handler threads share, guarded by one lock."""

    def __init__(self, corpus_path, seed, per_step_error_prob, window):
        questions, chains = import_corpus_jsonl(corpus_path)
        self.by_statement = {q.statement: q for q in questions}
        self.completer = SimulatedCompleter(
            {q.id: q for q in questions}, chains,
            SimPolicySpec(per_step_error_prob=per_step_error_prob,
                          seed=_seed_int("stub", seed)),
        )
        rng = random.Random(_seed_int("refusals", seed))
        self.refuse_at = set(rng.sample(range(window), min(REFUSALS, window)))
        self.lock = threading.Lock()
        self.arrivals = 0
        self.due_refusals = 0
        self.refused_keys = set()
        self.served = {}
        self.counts = {"requests": 0, "refused": 0, "connections": 0}

    def parse(self, prompt):
        if not prompt.startswith(_PROMPT_HEAD) or _PROMPT_SEP not in prompt:
            return None
        statement, prefix = prompt[len(_PROMPT_HEAD):].split(_PROMPT_SEP, 1)
        question = self.by_statement.get(statement)
        if question is None:
            return None
        prefix = prefix[:-1] if prefix.endswith("\n") else prefix
        steps = (make_step(prefix),) if prefix.strip() else ()
        return question, State(question_id=question.id, prefix_steps=steps)

    def complete(self, question, state, n):
        """Return completions, or None when this attempt is refused."""
        with self.lock:
            self.counts["requests"] += 1
            if self.arrivals in self.refuse_at:
                self.due_refusals += 1
            self.arrivals += 1
            key = (question.id,) + state.key()
            ident = (key, n, self.served.get(key, 0))
            if self.due_refusals and ident not in self.refused_keys:
                self.due_refusals -= 1
                self.refused_keys.add(ident)
                self.counts["refused"] += 1
                return None
            self.served[key] = ident[2] + 1
            rollouts = self.completer.sample_rollouts(
                CompleterRequest(state=state, n_samples=n))
        return [
            " ".join([s.text for s in r.steps] + ["####", r.final_answer])
            for r in rollouts
        ]


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    stub: StubState = None

    def setup(self):
        super().setup()
        with self.stub.lock:
            self.stub.counts["connections"] += 1

    def log_message(self, fmt, *args):
        pass

    def _reply(self, status, reason, doc):
        # One write per response: separate header and body writes stall on
        # delayed ACKs.
        body = json.dumps(doc).encode()
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        self.wfile.write(head + body)

    def do_GET(self):
        if self.path != "/stats":
            self._reply(404, "Not Found", {"error": "unknown path"})
            return
        with self.stub.lock:
            counts = dict(self.stub.counts)
        self._reply(200, "OK", counts)

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        try:
            doc = json.loads(self.rfile.read(length))
            parsed = self.stub.parse(doc["prompt"])
            n = int(doc["n"])
        except (ValueError, KeyError, TypeError):
            parsed, n = None, 0
        if parsed is None or n < 1:
            self._reply(400, "Bad Request", {"error": "malformed request"})
            return
        time.sleep(SERVICE_S)
        completions = self.stub.complete(*parsed, n)
        if completions is None:
            self._reply(503, "Service Unavailable", {"error": "busy"})
        else:
            self._reply(200, "OK", {"completions": completions})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--per-step-error-prob", type=float, default=0.05)
    parser.add_argument("--refusal-window", type=int, required=True,
                        help="draw refusal positions from this many first "
                             "arrivals")
    args = parser.parse_args(argv)

    Handler.stub = StubState(args.corpus, args.seed,
                             args.per_step_error_prob, args.refusal_window)
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True

    def stop(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
