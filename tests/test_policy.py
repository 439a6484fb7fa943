import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import example, given, strategies as st

from omegaprm.core import Question, State, make_step
from omegaprm.errors import CompleterUnavailable, TemplateError
from omegaprm.policy import (
    CompleterRequest,
    RemoteCompleter,
    SimPolicySpec,
    SimulatedCompleter,
    answers_equivalent,
    extract_final_answer,
    render_prompt,
)


class TestExtractFinalAnswer:
    def test_answer_marker(self):
        assert extract_final_answer("some steps. The answer is 42.") == "42"

    def test_boxed_takes_precedence(self):
        assert extract_final_answer("x=3 so \\boxed{3}") == "3"
        assert extract_final_answer("the answer is 5, i.e. \\boxed{7}") == "7"

    def test_no_answer_present(self):
        assert extract_final_answer("no conclusion reached") == ""

    def test_falls_back_to_last_number(self):
        assert extract_final_answer("we get 12 then 15 finally") == "15"

    def test_hash_marker(self):
        assert extract_final_answer("steps...\n#### 1,234") == "1,234"


class TestAnswersEquivalent:
    def test_fraction_vs_decimal(self):
        assert answers_equivalent("1/2", "0.5")

    def test_formatting_only(self):
        assert answers_equivalent("42", "42.")
        assert answers_equivalent("1,000", "1000")

    def test_empty_never_correct(self):
        assert not answers_equivalent("", "anything")
        assert not answers_equivalent("x", "")

    def test_numeric_mismatch(self):
        assert not answers_equivalent("42", "43")

    def test_string_fallback(self):
        assert answers_equivalent("yes", "Yes")
        assert not answers_equivalent("yes", "no")

    @given(st.text(min_size=1, max_size=20))
    @example("NAN")
    def test_reflexive(self, s):
        assert answers_equivalent(s, s)

    @given(st.text(min_size=1, max_size=20), st.text(min_size=1, max_size=20))
    def test_symmetric(self, a, b):
        assert answers_equivalent(a, b) == answers_equivalent(b, a)


class TestRenderPrompt:
    QUESTION = Question("q1", "What is 2+2?", "4")

    def test_empty_prefix(self):
        text = render_prompt(State("q1"), self.QUESTION,
                             "{statement}|{prefix}")
        assert text == "What is 2+2?|"

    def test_prefix_steps_in_order(self):
        state = State("q1", (make_step("first"), make_step("second")))
        text = render_prompt(state, self.QUESTION, "{statement}|{prefix}")
        assert text == "What is 2+2?|first second"

    def test_missing_placeholder(self):
        with pytest.raises(TemplateError):
            render_prompt(State("q1"), self.QUESTION, "{statement} only")

    def test_injective_over_prefixes(self):
        s1 = State("q1", (make_step("a"), make_step("b")))
        s2 = State("q1", (make_step("a b"), make_step("c")))
        t = "{statement}|{prefix}"
        assert render_prompt(s1, self.QUESTION, t) != \
            render_prompt(s2, self.QUESTION, t)


def make_sim(error_prob=0.0, recovery=0.0, seed=0, n_steps=6, **kwargs):
    q = Question("q1", "toy question", "10")
    chain = {"q1": [f"s{i}" for i in range(1, n_steps + 1)]}
    spec = SimPolicySpec(per_step_error_prob=error_prob, recovery_prob=recovery,
                         seed=seed, **kwargs)
    return q, SimulatedCompleter({"q1": q}, chain, spec)


class TestSimulatedCompleter:
    def test_noiseless_rollouts_all_correct(self):
        q, comp = make_sim(error_prob=0.0)
        state = State("q1", (make_step("s1"), make_step("s2")))
        rollouts = comp.sample_rollouts(CompleterRequest(state, n_samples=8))
        assert len(rollouts) == 8
        assert all(r.is_correct for r in rollouts)
        assert all(r.final_answer == "10" for r in rollouts)

    def test_erroneous_prefix_unrecoverable(self):
        q, comp = make_sim(error_prob=0.0, recovery=0.0)
        state = State("q1", (make_step("s1"), make_step("err123")))
        rollouts = comp.sample_rollouts(CompleterRequest(state, n_samples=8))
        assert all(not r.is_correct for r in rollouts)

    def test_seeded_determinism(self):
        q, c1 = make_sim(error_prob=0.4, seed=11)
        _, c2 = make_sim(error_prob=0.4, seed=11)
        state = State("q1")
        req = CompleterRequest(state, n_samples=16)
        first = c1.sample_rollouts(req)
        assert first == c2.sample_rollouts(req)
        # Successive calls on one completer draw fresh streams.
        assert c1.sample_rollouts(req) != first

    def test_reset_replays_streams(self):
        q, comp = make_sim(error_prob=0.4, seed=3)
        req = CompleterRequest(State("q1"), n_samples=8)
        first = comp.sample_rollouts(req)
        comp.sample_rollouts(req)
        comp.reset()
        assert comp.sample_rollouts(req) == first

    def test_error_metadata_matches_correctness(self):
        q, comp = make_sim(error_prob=0.5, recovery=0.0, seed=2)
        rollouts = comp.sample_rollouts(
            CompleterRequest(State("q1"), n_samples=50)
        )
        for r in rollouts:
            assert r.is_correct == (not r.meta["error_steps"])

    def test_survival_probability_statistics(self):
        # 3 remaining steps, each failing with probability 1/3:
        # expected correct fraction (2/3)^3 = 0.2962..., tolerance 0.015.
        q, comp = make_sim(error_prob=1 / 3, recovery=0.0, seed=7, n_steps=6)
        state = State("q1", tuple(make_step(f"s{i}") for i in (1, 2, 3)))
        rollouts = comp.sample_rollouts(
            CompleterRequest(state, n_samples=10000)
        )
        frac = sum(r.is_correct for r in rollouts) / len(rollouts)
        assert abs(frac - 0.2962962962962963) < 0.015

    def test_wrong_answer_pool(self):
        q, comp = make_sim(error_prob=1.0, seed=4,
                           wrong_answer_pool=["7", "8"],
                           wrong_answer_weights=[0.9, 0.1])
        rollouts = comp.sample_rollouts(CompleterRequest(State("q1"), 200))
        answers = {r.final_answer for r in rollouts}
        assert answers <= {"7", "8"}
        n7 = sum(r.final_answer == "7" for r in rollouts)
        assert n7 > 140


class _FakeCompletionHandler(BaseHTTPRequestHandler):
    fail_times = 0
    requests_seen = []
    completions = None

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append(body)
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            self.send_response(500)
            self.end_headers()
            return
        n = body["n"]
        if type(self).completions is not None:
            out = type(self).completions[:n]
        else:
            out = [f"step one step two the answer is 4" for _ in range(n)]
        payload = json.dumps({"completions": out}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def fake_server():
    _FakeCompletionHandler.fail_times = 0
    _FakeCompletionHandler.requests_seen = []
    _FakeCompletionHandler.completions = None
    server = ThreadingHTTPServer(("127.0.0.1", 0), _FakeCompletionHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/complete"
    server.shutdown()


class TestRemoteCompleter:
    QUESTION = Question("q1", "What is 2+2?", "4")

    def make(self, endpoint, **kwargs):
        kwargs.setdefault("retry_backoff", 0.0)
        return RemoteCompleter({"q1": self.QUESTION}, endpoint, **kwargs)

    def test_basic_request(self, fake_server):
        comp = self.make(fake_server)
        rollouts = comp.sample_rollouts(CompleterRequest(State("q1"), 3))
        assert len(rollouts) == 3
        assert all(r.is_correct for r in rollouts)
        assert all(r.final_answer == "4" for r in rollouts)

    def test_batching_splits_requests(self, fake_server):
        comp = self.make(fake_server, batch_size=4)
        comp.sample_rollouts(CompleterRequest(State("q1"), 10))
        sizes = [b["n"] for b in _FakeCompletionHandler.requests_seen]
        assert sizes == [4, 4, 2]

    def test_retries_transient_errors(self, fake_server):
        _FakeCompletionHandler.fail_times = 2
        comp = self.make(fake_server, max_retries=3)
        rollouts = comp.sample_rollouts(CompleterRequest(State("q1"), 2))
        assert len(rollouts) == 2

    def test_unavailable_after_retry_budget(self, fake_server):
        _FakeCompletionHandler.fail_times = 10
        comp = self.make(fake_server, max_retries=2)
        with pytest.raises(CompleterUnavailable):
            comp.sample_rollouts(CompleterRequest(State("q1"), 2))

    def test_unreachable_endpoint(self):
        comp = self.make("http://127.0.0.1:1/complete", max_retries=2)
        with pytest.raises(CompleterUnavailable):
            comp.sample_rollouts(CompleterRequest(State("q1"), 1))

    def test_malformed_completion_kept_as_incorrect(self, fake_server):
        _FakeCompletionHandler.completions = ["the answer is 4", "", 17]
        comp = self.make(fake_server)
        rollouts = comp.sample_rollouts(CompleterRequest(State("q1"), 3))
        assert [r.is_correct for r in rollouts] == [True, False, False]
        assert rollouts[1].final_answer == ""
        assert rollouts[2].final_answer == ""

    def test_auth_header_sent(self, fake_server):
        comp = self.make(fake_server, auth_token="sekrit")
        headers = comp._headers()
        assert headers["Authorization"] == "Bearer sekrit"

    def test_request_carries_sampling_params(self, fake_server):
        comp = self.make(fake_server)
        comp.sample_rollouts(
            CompleterRequest(State("q1"), 1, temperature=0.7, max_tokens=99)
        )
        body = _FakeCompletionHandler.requests_seen[-1]
        assert body["temperature"] == 0.7
        assert body["max_tokens"] == 99
        assert "What is 2+2?" in body["prompt"]
