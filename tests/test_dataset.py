"""Filtering, tree-to-dataset conversion, and JSONL I/O."""
import itertools
import json

import pytest

from omegaprm.core import Question, Rollout, make_step, state_transition
from omegaprm.dataset import (
    export_corpus_jsonl,
    export_examples_jsonl,
    export_filter_report,
    export_pairs_jsonl,
    filter_questions,
    import_corpus_jsonl,
    import_examples_jsonl,
    import_pairs_jsonl,
    normalize_pair,
    PreferencePair,
    tree_to_examples,
    tree_to_pairs,
)
from omegaprm.errors import CompleterUnavailable, ParseError
from omegaprm.mcts import Tree, build_tree

from test_mcts import make_setup


class _FixedCompleter:
    """Returns a prescribed correct-count out of every n-sample request."""

    def __init__(self, correct_by_question):
        self.correct_by_question = correct_by_question

    def sample_rollouts(self, request):
        n_correct = self.correct_by_question[request.state.question_id]
        if n_correct is None:
            raise CompleterUnavailable("offline")
        out = []
        for i in range(request.n_samples):
            ok = i < n_correct
            out.append(Rollout(
                (make_step("z"),), "9" if ok else "0", ok
            ))
        return out


class TestFilterQuestions:
    CORPUS = [
        Question("easy", "e", "9"),
        Question("hard", "h", "9"),
        Question("good", "g", "9"),
    ]

    def test_drops_extremes_keeps_middle(self):
        comp = _FixedCompleter({"easy": 32, "hard": 0, "good": 11})
        kept, report = filter_questions(self.CORPUS, comp, k_filter=32)
        assert [q.id for q in kept] == ["good"]
        by_id = {r.question_id: r for r in report}
        assert by_id["easy"].reason == "too_easy"
        assert by_id["easy"].correct_count == 32
        assert by_id["hard"].reason == "too_hard"
        assert by_id["hard"].correct_count == 0
        assert by_id["good"].kept and by_id["good"].reason == ""
        assert by_id["good"].correct_count == 11

    def test_single_success_is_enough(self):
        comp = _FixedCompleter({"good": 1})
        kept, _ = filter_questions([self.CORPUS[2]], comp, k_filter=32)
        assert len(kept) == 1

    def test_unreachable_completer_marks_unresolved(self):
        comp = _FixedCompleter({"good": None})
        kept, report = filter_questions([self.CORPUS[2]], comp)
        assert kept == []
        assert report[0].reason == "unresolved"
        assert not report[0].kept

    def test_k_filter_lower_bound(self):
        with pytest.raises(ValueError):
            filter_questions([], _FixedCompleter({}), k_filter=1)


def toy_tree():
    """Root with three sibling single-step children (MC 1/4, 1/2, 0) and one
    excluded multi-step child."""
    q = Question("q1", "toy statement", "9")
    tree = Tree(q)
    tree.threshold = 2.0

    def add(parent, text, n_correct, n_total):
        action = (make_step(text),)
        state = state_transition(parent.state, action)
        node = tree.ensure_child(parent, action, state)
        node.stats.add_rollouts(
            Rollout((make_step("z"),), "9" if i < n_correct else "0",
                         i < n_correct)
            for i in range(n_total)
        )
        return node

    add(tree.root, "alpha", 1, 4)
    add(tree.root, "beta", 2, 4)
    add(tree.root, "gamma", 0, 4)
    add(tree.root, "long three tokens", 3, 4)  # token_len 3 >= threshold
    return tree


class TestTreeToExamples:
    def test_single_step_edges_with_reference_mcs(self):
        examples = tree_to_examples(toy_tree())
        by_step = {ex.step: ex for ex in examples}
        assert set(by_step) == {"alpha", "beta", "gamma"}
        assert by_step["alpha"].mc == 0.25
        assert by_step["beta"].mc == 0.5
        assert by_step["gamma"].mc == 0.0
        assert by_step["alpha"].hard_label == 1
        assert by_step["beta"].hard_label == 1
        assert by_step["gamma"].hard_label == 0
        assert all(ex.prefix == "" for ex in examples)
        assert all(ex.question == "toy statement" for ex in examples)

    def test_threshold_is_strict(self):
        tree = toy_tree()
        tree.threshold = 1.0  # single tokens are no longer strictly below
        assert tree_to_examples(tree) == []

    def test_unestimated_children_skipped(self):
        tree = toy_tree()
        action = (make_step("mystery"),)
        state = state_transition(tree.root.state, action)
        tree.ensure_child(tree.root, action, state)  # no rollouts, no MC
        steps = {ex.step for ex in tree_to_examples(tree)}
        assert "mystery" not in steps


def sibling_edge_pairs(tree):
    """Every pair of sibling single-step edges, walked from the tree: the
    reference that ``tree_to_pairs`` of the tree's examples must equal."""
    pairs = []
    for parent in tree.nodes.values():
        children = [child for child in parent.children
                    if child.mc is not None
                    and child.action_token_len < tree.threshold]
        for a, b in itertools.combinations(children, 2):
            pairs.append(PreferencePair(
                tree.question.id, tree.question.statement,
                parent.state.prefix_text, a.action_text, b.action_text,
                normalize_pair(a.mc, b.mc)[0]))
    return pairs


class TestTreeToPairs:
    def test_all_sibling_pairs(self):
        pairs = tree_to_pairs(tree_to_examples(toy_tree()))
        assert len(pairs) == 3  # C(3, 2) over the single-step siblings
        by_key = {(p.step_a, p.step_b): p for p in pairs}
        ab = by_key[("alpha", "beta")]
        assert ab.pref_a == pytest.approx((1 + 0.25 - 0.5) / 2)
        ag = by_key[("alpha", "gamma")]
        assert ag.pref_a == pytest.approx((1 + 0.25 - 0.0) / 2)
        bg = by_key[("beta", "gamma")]
        assert bg.pref_a == pytest.approx(0.75)

    def test_no_pairs_without_siblings(self):
        q = Question("q1", "s", "9")
        tree = Tree(q)
        tree.threshold = 2.0
        assert tree_to_pairs(tree_to_examples(tree)) == []

    def test_built_trees_give_the_sibling_edge_pairs(self):
        # Pairs come from the examples alone; on built trees, with both
        # single- and multi-step edges, they are the sibling-edge pairs.
        multi_step = 0
        for seed in range(4):
            q, chain, comp, cfg = make_setup(
                error_prob=0.1, seed=seed, tokens_per_step=2,
                step_split_target=4)
            tree, _ = build_tree(q, comp, cfg)
            pairs = tree_to_pairs(tree_to_examples(tree))
            assert pairs and pairs == sibling_edge_pairs(tree)
            multi_step += sum(child.action_token_len >= tree.threshold
                              for child in tree.nodes.values())
        assert multi_step > 0


class TestJsonlIO:
    def test_examples_round_trip(self, tmp_path):
        examples = tree_to_examples(toy_tree())
        path = tmp_path / "examples.jsonl"
        # export appends each tree's records to one open file.
        with open(path, "w", encoding="utf-8") as fh:
            export_examples_jsonl(examples[:1], fh)
            export_examples_jsonl(examples[1:], fh)
        assert len(examples) > 1 and import_examples_jsonl(path) == examples

    def test_pairs_round_trip(self, tmp_path):
        pairs = tree_to_pairs(tree_to_examples(toy_tree()))
        path = tmp_path / "pairs.jsonl"
        # export appends each tree's records to one open file.
        with open(path, "w", encoding="utf-8") as fh:
            export_pairs_jsonl(pairs[:1], fh)
            export_pairs_jsonl(pairs[1:], fh)
        assert len(pairs) > 1 and import_pairs_jsonl(path) == pairs

    def test_corpus_round_trip_with_chains(self, tmp_path):
        questions = [Question("a", "sa", "1"), Question("b", "sb", "2")]
        chains = {"a": ["s1", "s2"]}
        path = tmp_path / "corpus.jsonl"
        export_corpus_jsonl(questions, path, chains=chains)
        q2, c2 = import_corpus_jsonl(path)
        assert q2 == questions
        assert c2 == chains

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "statement": "s", "golden_answer": "1"}\n'
                        "{not json\n")
        with pytest.raises(ParseError) as err:
            import_corpus_jsonl(path)
        assert str(err.value).startswith("line 2:")

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "short.jsonl"
        path.write_text('{"id": "a", "statement": "s"}\n')
        with pytest.raises(ParseError):
            import_corpus_jsonl(path)

    @pytest.mark.parametrize("second_id", ['"a"', '["a"]'])
    def test_duplicate_or_unhashable_id_rejected(self, tmp_path, second_id):
        path = tmp_path / "dup.jsonl"
        path.write_text(
            '{"id": "a", "statement": "s", "golden_answer": "1"}\n'
            f'{{"id": {second_id}, "statement": "t", "golden_answer": "2"}}\n')
        with pytest.raises(ParseError, match="record 2"):
            import_corpus_jsonl(path)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('\n{"id": "a", "statement": "s", "golden_answer": "1"}\n\n')
        questions, _ = import_corpus_jsonl(path)
        assert len(questions) == 1

    def test_filter_report_export(self, tmp_path):
        comp = _FixedCompleter({"easy": 32, "hard": 0, "good": 11})
        _, report = filter_questions(TestFilterQuestions.CORPUS, comp)
        path = tmp_path / "report.jsonl"
        export_filter_report(report, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert [l["question_id"] for l in lines] == ["easy", "hard", "good"]
        assert lines[1] == {"question_id": "hard", "kept": False,
                            "correct_count": 0, "reason": "too_hard"}
