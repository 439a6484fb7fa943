import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings, strategies as st

from omegaprm import policy
from omegaprm.core import Question, Rollout, State, make_step
from omegaprm.errors import CompleterUnavailable
from omegaprm.policy import (
    CompleterRequest,
    RemoteCompleter,
    RemoteSettings,
    SimPolicySpec,
    SimulatedCompleter,
    answer_key,
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

    # Numeric spellings that share a value or lie within 1e-9 of each
    # other, case variants, the empty answer, and arbitrary text.
    ANSWERS = st.one_of(
        st.sampled_from(["1/2", "0.5", ".5", "0.50", "2/4", "1,000", "1000.",
                         "1000", "1e3", "1E3", "1", "1.0000000005",
                         "1.0000000015", "NaN", "nan", "inf", "INF", "Yes",
                         "yes", "", " ", "."]),
        st.text(max_size=8),
    )

    @given(ANSWERS, ANSWERS, ANSWERS)
    @example("1", "1.0000000005", "1.0000000015")
    def test_transitive(self, a, b, c):
        if answers_equivalent(a, b) and answers_equivalent(b, c):
            assert answers_equivalent(a, c)

    def test_close_values_are_not_equal(self):
        # Equal values match; values within 1e-9 that differ do not.
        assert answers_equivalent("1/2", "0.5")
        assert not answers_equivalent("0.3333333333", "1/3")
        assert answer_key("") is None


class TestRenderPrompt:
    QUESTION = Question("q1", "What is 2+2?", "4")

    def test_empty_prefix(self):
        text = render_prompt(State("q1"), self.QUESTION)
        assert text == "Question: What is 2+2?\nSolution so far: \n"

    def test_prefix_steps_in_order(self):
        state = State("q1", (make_step("first"), make_step("second")))
        text = render_prompt(state, self.QUESTION)
        assert text == "Question: What is 2+2?\nSolution so far: first second\n"

    def test_braces_in_statement_are_literal(self):
        state = State("q", (make_step("x y"),))
        text = render_prompt(state, Question("q", "what is {prefix}?", "1"))
        assert text == "Question: what is {prefix}?\nSolution so far: x y\n"

    def test_injective_over_prefixes(self):
        s1 = State("q1", (make_step("a"), make_step("b")))
        s2 = State("q1", (make_step("a b"), make_step("c")))
        assert render_prompt(s1, self.QUESTION) != \
            render_prompt(s2, self.QUESTION)


def is_error_step(step):
    """The simulator writes a corrupted step as ``err<n>`` tokens."""
    return step.text.startswith("err")


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
            assert r.is_correct == (not any(is_error_step(s) for s in r.steps))

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


def reference_sample_rollouts(comp, request):
    """``SimulatedCompleter.sample_rollouts`` before the ground chain was
    built once per question: the chain is re-split on every call and every
    step is a fresh ``make_step``. The RNG draws are the ones to preserve."""
    state = request.state
    question = comp.questions[state.question_id]
    chain_tokens = [step.split() for step in comp.chains[state.question_id]]
    cum = [0]
    for toks in chain_tokens:
        cum.append(cum[-1] + len(toks))
    prefix_tokens = list(state.key())
    consumed = 0
    while consumed < len(chain_tokens) and cum[consumed + 1] <= len(prefix_tokens):
        consumed += 1
    ground_prefix = [t for toks in chain_tokens[:consumed] for t in toks]
    prefix_has_error = prefix_tokens[: len(ground_prefix)] != ground_prefix
    rng = comp._rng_for(state)
    spec = comp.spec
    rollouts = []
    for _ in range(request.n_samples):
        steps = []
        error_steps = []
        for idx in range(consumed, len(chain_tokens)):
            ground = chain_tokens[idx]
            if rng.random() < spec.per_step_error_prob:
                toks = [f"err{rng.randrange(1_000_000)}" for _ in ground]
                error_steps.append(idx + 1)
            else:
                toks = ground
            steps.append(make_step(" ".join(toks)))
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
            steps, final, answers_equivalent(final, question.golden_answer),
        ))
    return rollouts


class TestSimulatorMatchesReference:
    @settings(deadline=None, max_examples=60)
    @given(
        seed=st.integers(0, 10_000),
        error_prob=st.sampled_from([0.0, 0.15, 0.5, 1.0]),
        recovery=st.sampled_from([0.0, 0.3]),
        pool=st.sampled_from([None, ["7", "8"]]),
        tokens=st.lists(st.integers(1, 3), min_size=1, max_size=8),
        calls=st.lists(
            st.tuples(st.integers(0, 30), st.booleans(), st.integers(1, 6)),
            min_size=1, max_size=6,
        ),
    )
    def test_rollouts_equal_reference(self, seed, error_prob, recovery, pool,
                                      tokens, calls):
        # Chain steps with doubled spaces check whitespace normalization;
        # prefixes cut anywhere in the token stream, some with a bad token.
        chain = ["  ".join(f"s{i}t{j}" for j in range(n))
                 for i, n in enumerate(tokens, start=1)]
        ground = [t for step in chain for t in step.split()]
        q = Question("q1", "toy", "10")
        spec = dict(per_step_error_prob=error_prob, recovery_prob=recovery,
                    seed=seed, wrong_answer_pool=pool)
        new = SimulatedCompleter({"q1": q}, {"q1": chain}, SimPolicySpec(**spec))
        ref = SimulatedCompleter({"q1": q}, {"q1": chain}, SimPolicySpec(**spec))
        ground_steps = {}
        for cut, corrupt, n in calls:
            toks = ground[: cut % (len(ground) + 1)]
            if corrupt and toks:
                toks = toks[:-1] + ["bad"]
            state = State("q1", tuple(make_step(t) for t in toks))
            request = CompleterRequest(state, n_samples=n)
            got = new.sample_rollouts(request)
            want = reference_sample_rollouts(ref, request)
            assert got == want
            for r in got:
                # An uncorrupted step is the question's one ground Step.
                first = len(chain) - len(r.steps) + 1
                for idx, step in enumerate(r.steps, start=first):
                    if not is_error_step(step):
                        assert ground_steps.setdefault(idx, step) is step


class TestRemoteCompleter:
    QUESTION = Question("q1", "What is 2+2?", "4")

    @pytest.fixture(autouse=True)
    def sleeps(self, monkeypatch):
        """The backoff of each retry, recorded instead of slept."""
        sleeps = []
        monkeypatch.setattr(policy.time, "sleep", sleeps.append)
        return sleeps

    def make(self, endpoint, auth_token=None, **settings):
        return RemoteCompleter({"q1": self.QUESTION},
                               RemoteSettings(endpoint, **settings),
                               auth_token=auth_token)

    def test_basic_request(self, fake_server):
        comp = self.make(fake_server.url)
        rollouts = comp.sample_rollouts(CompleterRequest(State("q1"), 3))
        assert len(rollouts) == 3
        assert all(r.is_correct for r in rollouts)
        assert all(r.final_answer == "4" for r in rollouts)

    def test_batching_splits_requests(self, fake_server):
        comp = self.make(fake_server.url, batch_size=4)
        comp.sample_rollouts(CompleterRequest(State("q1"), 10))
        sizes = [b["n"] for b in fake_server.requests_seen]
        assert sizes == [4, 4, 2]

    def test_retries_transient_errors(self, fake_server, sleeps):
        fake_server.fail_times = 2
        comp = self.make(fake_server.url, max_retries=3)
        rollouts = comp.sample_rollouts(CompleterRequest(State("q1"), 2))
        assert len(rollouts) == 2
        # 0.5 s before the first retry, doubling per retry.
        assert sleeps == [0.5, 1.0]

    def test_unavailable_after_retry_budget(self, fake_server, sleeps):
        fake_server.fail_times = 10
        comp = self.make(fake_server.url, max_retries=2)
        with pytest.raises(CompleterUnavailable):
            comp.sample_rollouts(CompleterRequest(State("q1"), 2))
        assert sleeps == [0.5]  # no wait after the last attempt

    def test_unreachable_endpoint(self):
        comp = self.make("http://127.0.0.1:1/complete", max_retries=2)
        with pytest.raises(CompleterUnavailable):
            comp.sample_rollouts(CompleterRequest(State("q1"), 1))

    def test_malformed_completion_kept_as_incorrect(self, fake_server):
        fake_server.completions = ["the answer is 4", "", 17]
        comp = self.make(fake_server.url)
        rollouts = comp.sample_rollouts(CompleterRequest(State("q1"), 3))
        assert [r.is_correct for r in rollouts] == [True, False, False]
        assert rollouts[1].final_answer == ""
        assert rollouts[2].final_answer == ""

    @pytest.mark.parametrize("completions", [5, "4 4", {"text": "4"}, None])
    def test_completions_not_a_list_are_failed_slots(self, fake_server,
                                                      completions):
        # Each slot of such a reply is a failed rollout, as for a short
        # reply; the reply is not retried.
        fake_server.respond = lambda body: completions
        comp = self.make(fake_server.url, batch_size=2)
        rollouts = comp.sample_rollouts(CompleterRequest(State("q1"), 3))
        assert rollouts == [Rollout((), "", False)] * 3
        assert [b["n"] for b in fake_server.requests_seen] == [2, 1]

    def test_auth_header_sent(self, fake_server):
        comp = self.make(fake_server.url, auth_token="sekrit")
        assert comp._headers["Authorization"] == "Bearer sekrit"

    def test_request_carries_sampling_params(self, fake_server):
        comp = self.make(fake_server.url)
        comp.sample_rollouts(CompleterRequest(State("q1"), 1))
        body = fake_server.requests_seen[-1]
        assert body["temperature"] == 1.0
        assert body["max_tokens"] == 1024
        assert "What is 2+2?" in body["prompt"]

    def test_configured_sampling_params_replace_request_values(self, fake_server):
        comp = self.make(fake_server.url, temperature=0.2, max_tokens=5)
        comp.sample_rollouts(CompleterRequest(State("q1"), 1))
        body = fake_server.requests_seen[-1]
        assert body["temperature"] == 0.2
        assert body["max_tokens"] == 5

    def test_retries_429_like_5xx(self, fake_server):
        fake_server.fail_status = 429
        fake_server.fail_times = 2
        comp = self.make(fake_server.url, max_retries=3)
        rollouts = comp.sample_rollouts(CompleterRequest(State("q1"), 2))
        assert len(rollouts) == 2
        assert len(fake_server.requests_seen) == 3

    def test_other_client_errors_fail_at_once(self, fake_server):
        fake_server.fail_status = 400
        fake_server.fail_times = 1
        comp = self.make(fake_server.url, max_retries=3)
        with pytest.raises(CompleterUnavailable):
            comp.sample_rollouts(CompleterRequest(State("q1"), 2))
        assert len(fake_server.requests_seen) == 1

    def test_auth_header_reaches_server(self, fake_server):
        comp = self.make(fake_server.url, auth_token="sekrit")
        comp.sample_rollouts(CompleterRequest(State("q1"), 1))
        headers = fake_server.headers_seen[-1]
        assert headers["Authorization"] == "Bearer sekrit"
        assert headers["Content-Type"] == "application/json"

    @pytest.mark.parametrize("endpoint", [
        "localhost:9/complete",
        "ftp://127.0.0.1/complete",
        "http:///complete",
        "http://127.0.0.1:port/complete",
        "127.0.0.1",
    ])
    def test_malformed_endpoint_is_config_error(self, endpoint):
        with pytest.raises(ValueError):
            self.make(endpoint)

    def test_endpoint_required(self):
        with pytest.raises(ValueError, match="endpoint"):
            RemoteCompleter({"q1": self.QUESTION}, RemoteSettings())

    @pytest.mark.parametrize("key", ["batch_size", "max_retries"])
    def test_nonpositive_batch_size_or_retries_is_config_error(self, key):
        # batch_size 0 would post n=0 forever; max_retries 0 would fail
        # every request without one attempt.
        with pytest.raises(ValueError, match=key):
            self.make("http://127.0.0.1:9/complete", **{key: 0})


class TestRemoteTransport:
    """The keep-alive connections a completer keeps idle between requests,
    whichever thread sent them."""

    QUESTIONS = {
        "q1": Question("q1", "What is 2+2?", "4"),
        "q2": Question("q2", "What is 3+3?", "6"),
    }

    def make(self, endpoint, **settings):
        return RemoteCompleter(self.QUESTIONS,
                               RemoteSettings(endpoint, **settings))

    @staticmethod
    def answer_prompt(body):
        answer = "6" if "3+3" in body["prompt"] else "4"
        return [f"so the answer is {answer}"] * body["n"]

    def test_sequential_requests_share_one_connection(self, fake_server_11):
        comp = self.make(fake_server_11.url, batch_size=2)
        for _ in range(5):
            rollouts = comp.sample_rollouts(CompleterRequest(State("q1"), 4))
            assert all(r.is_correct for r in rollouts)
        assert len(fake_server_11.requests_seen) == 10
        assert fake_server_11.connections == 1

    def test_connection_closed_while_idle_is_reopened(self, fake_server_11,
                                                      monkeypatch):
        sleeps = []
        monkeypatch.setattr(policy.time, "sleep", sleeps.append)
        fake_server_11.close_idle = True
        # One attempt only: a failed send on the dead socket would raise.
        comp = self.make(fake_server_11.url, max_retries=1)
        comp.sample_rollouts(CompleterRequest(State("q1"), 1))
        assert fake_server_11.closed.wait(5)
        rollouts = comp.sample_rollouts(CompleterRequest(State("q1"), 1))
        assert rollouts[0].is_correct
        assert len(fake_server_11.requests_seen) == 2
        assert fake_server_11.connections == 2
        assert sleeps == []

    def test_threads_sharing_a_completer(self, fake_server_11):
        # Each request waits for one of the other thread's, so two are
        # always in flight at once and need two connections.
        both = threading.Barrier(2, timeout=10)

        def respond(body):
            both.wait()
            return self.answer_prompt(body)

        fake_server_11.respond = respond
        comp = self.make(fake_server_11.url)
        answers = {}

        def work(qid):
            answers[qid] = [
                r.final_answer
                for _ in range(20)
                for r in comp.sample_rollouts(CompleterRequest(State(qid), 2))
            ]

        threads = [threading.Thread(target=work, args=(q,)) for q in ("q1", "q2")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert answers == {"q1": ["4"] * 40, "q2": ["6"] * 40}
        assert fake_server_11.connections == 2

    def test_successive_thread_pools_reuse_idle_connections(
            self, fake_server_11):
        # Each pool's threads are new, but they take the connections that
        # the threads before them left idle.
        fake_server_11.respond = self.answer_prompt
        comp = self.make(fake_server_11.url)

        def answer(qid):
            rollouts = comp.sample_rollouts(CompleterRequest(State(qid), 2))
            return [r.final_answer for r in rollouts]

        for _ in range(3):
            with ThreadPoolExecutor(2) as pool:
                assert list(pool.map(answer, ["q1", "q2"] * 4)) == \
                    [["4", "4"], ["6", "6"]] * 4
        assert len(fake_server_11.requests_seen) == 24
        assert 1 <= fake_server_11.connections <= 2
        comp.close()
        assert comp._idle == []

    def test_server_closing_after_every_reply(self, fake_server):
        comp = self.make(fake_server.url, max_retries=1)
        for _ in range(3):
            rollouts = comp.sample_rollouts(CompleterRequest(State("q1"), 2))
            assert [r.final_answer for r in rollouts] == ["4", "4"]
        assert fake_server.connections == 3

    @given(st.lists(st.text(alphabet="ab 4\n", max_size=12), max_size=6))
    def test_interned_rollouts_equal_per_token_steps(self, completions):
        comp = self.make("http://127.0.0.1:1/complete")
        question = self.QUESTIONS["q1"]
        for text in completions + completions:
            rollout = comp._to_rollout(text, question)
            answer = extract_final_answer(text)
            assert rollout == Rollout(
                [make_step(tok) for tok in text.split()], answer,
                bool(text.strip()) and answers_equivalent(answer, "4"),
            )
        for step in comp._steps.values():
            assert comp._steps[step.text] is step
        for text in completions:
            first, again = (comp._to_rollout(text, question) for _ in "ab")
            assert all(a is b for a, b in zip(first.steps, again.steps))

    def test_cli_import_leaves_requests_out(self):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, omegaprm.cli; sys.exit('requests' in sys.modules)"
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
