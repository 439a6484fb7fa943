"""Question filtering, tree-to-dataset conversion, and JSON/JSONL I/O.

A tree edge becomes a pointwise training example when its action is a
single step, i.e. its token length is below the tree's binary-search
threshold. Sibling single-step edges of a node additionally yield pairwise
preference examples via the Bernoulli normalization (1 + p - q) / 2.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, fields

from .core import Question, State, open_replacing
from .errors import CompleterUnavailable, ParseError
from .mcts import Tree
from .policy import CompleterRequest


# The JSON types that a field annotation (a string, as every module here
# postpones annotations) admits: a string is not a number, a float is not
# an integer, and true is not a number.
JSON_TYPES = {"int": int, "float": (int, float), "str": str, "dict": dict,
              "Optional[int]": (int, type(None)),
              "Optional[str]": (str, type(None)),
              "Optional[list]": (list, type(None))}


def checked(doc: dict, types, where):
    """``doc``, once each of its keys is one of ``types`` and holds a finite
    value of the JSON type it names there; else a ValueError that names the
    key at ``where``."""
    for key, value in doc.items():
        if key not in types:
            raise ValueError(f"unknown key in {where}: {key!r}")
        if (isinstance(value, bool)
                or not isinstance(value, JSON_TYPES[types[key]])
                or isinstance(value, float) and not math.isfinite(value)):
            raise ValueError(
                f"{where}.{key} must be {types[key]}, got {value!r}")
    return doc


# The record classes are the JSONL records: their fields are the keys, in
# order, so renaming or reordering a field changes the file format.

@dataclass(frozen=True)
class TrainingExample:
    question_id: str
    question: str
    prefix: str
    step: str
    mc: float
    hard_label: int

    def __post_init__(self):
        # The labels export writes: a share of rollouts, and whether it is
        # above 0.
        if not 0 <= self.mc <= 1 or self.hard_label != int(self.mc > 0):
            raise ValueError(f"need 0 <= mc <= 1 and hard_label == "
                             f"int(mc > 0), got mc {self.mc!r} and "
                             f"hard_label {self.hard_label!r}")


@dataclass(frozen=True)
class PreferencePair:
    question_id: str
    question: str
    prefix: str
    step_a: str
    step_b: str
    pref_a: float

    def __post_init__(self):
        if not 0 <= self.pref_a <= 1:
            raise ValueError(f"need 0 <= pref_a <= 1, got {self.pref_a!r}")


@dataclass
class FilterRecord:
    question_id: str
    kept: bool
    correct_count: int
    reason: str  # "", "too_hard", "too_easy", or "unresolved"


def filter_questions(corpus, completer, k_filter: int = 32):
    """Drop questions that are too hard (0 correct of k_filter root
    rollouts) or too easy (all correct). Returns (kept, report)."""
    if k_filter < 2:
        raise ValueError("k_filter must be >= 2")
    kept = []
    report = []
    for question in corpus:
        root = State(question_id=question.id)
        try:
            rollouts = completer.sample_rollouts(
                CompleterRequest(state=root, n_samples=k_filter))
        except CompleterUnavailable:
            report.append(FilterRecord(question.id, False, -1, "unresolved"))
            continue
        correct = sum(1 for r in rollouts if r.is_correct)
        if correct == 0:
            report.append(FilterRecord(question.id, False, correct, "too_hard"))
        elif correct == k_filter:
            report.append(FilterRecord(question.id, False, correct, "too_easy"))
        else:
            kept.append(question)
            report.append(FilterRecord(question.id, True, correct, ""))
    return kept, report


def _single_step_edges(tree: Tree):
    """Each node of ``tree``, in tree order, with its children that have an
    MC and are reached by a single-step action, in edge order."""
    for node in tree.nodes.values():
        yield node, [child for child in node.children
                     if child.mc is not None
                     and child.action_token_len < tree.threshold]


def tree_to_examples(tree: Tree):
    """One pointwise example per single-step edge; multi-step edges are
    skipped rather than re-split (their interior MC was never computed)."""
    examples = []
    for parent, children in _single_step_edges(tree):
        for child in children:
            mc = child.mc
            examples.append(TrainingExample(
                question_id=tree.question.id,
                question=tree.question.statement,
                prefix=parent.state.prefix_text,
                step=child.action_text,
                mc=mc,
                hard_label=int(mc > 0),
            ))
    return examples


def normalize_pair(p: float, q: float):
    """Bernoulli preference normalization: ((1+p-q)/2, (1+q-p)/2)."""
    if not (0 <= p <= 1) or not (0 <= q <= 1):
        raise ValueError("pair probabilities must lie in [0, 1]")
    pref_x = (1.0 + p - q) / 2.0
    return pref_x, 1.0 - pref_x


def tree_to_pairs(tree: Tree):
    """All unordered pairs of sibling single-step actions."""
    pairs = []
    for parent, children in _single_step_edges(tree):
        for a, b in itertools.combinations(children, 2):
            pref_a, _ = normalize_pair(a.mc, b.mc)
            pairs.append(PreferencePair(
                question_id=tree.question.id,
                question=tree.question.statement,
                prefix=parent.state.prefix_text,
                step_a=a.action_text,
                step_b=b.action_text,
                pref_a=pref_a,
            ))
    return pairs


# -- JSONL I/O -------------------------------------------------------------

def write_json(doc, path):
    """Write one JSON document to ``path``, indented, with a final newline,
    through a temporary file (``core.open_replacing``)."""
    with open_replacing(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_jsonl(records, path):
    with open_replacing(path) as fh:
        for rec in records:
            fh.write(json.dumps(rec, ensure_ascii=False))
            fh.write("\n")


def _read_jsonl(path, required_fields):
    """Each (line number, JSON object) of the JSONL file ``path``, skipping
    blank lines; an object must hold each of ``required_fields``."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except (json.JSONDecodeError, RecursionError) as exc:
                    raise ParseError(f"line {lineno}: {exc}") from exc
                if not isinstance(rec, dict):
                    raise ParseError(f"line {lineno}: not a JSON object")
                missing = [f for f in required_fields if f not in rec]
                if missing:
                    raise ParseError(f"line {lineno}: missing fields {missing}")
                yield lineno, rec
    except UnicodeDecodeError as exc:
        # Decoding runs ahead of the lines, so no line number is known.
        raise ParseError(f"not UTF-8 text: {exc}") from exc


def _import_records(cls, path):
    """The ``cls`` records of ``path``: each field of the JSON type its
    annotation names and in the range ``cls`` admits; other keys are
    ignored."""
    types = {f.name: f.type for f in fields(cls)}
    records = []
    for lineno, rec in _read_jsonl(path, types):
        try:
            records.append(cls(**checked(
                {name: rec[name] for name in types}, types, cls.__name__)))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return records


def export_examples_jsonl(examples, path):
    _write_jsonl(map(vars, examples), path)


def import_examples_jsonl(path):
    return _import_records(TrainingExample, path)


def export_pairs_jsonl(pairs, path):
    _write_jsonl(map(vars, pairs), path)


def import_pairs_jsonl(path):
    return _import_records(PreferencePair, path)


def export_filter_report(report, path):
    _write_jsonl(map(vars, report), path)


def export_corpus_jsonl(questions, path, chains=None):
    records = []
    for q in questions:
        rec = {
            "id": q.id,
            "statement": q.statement,
            "golden_answer": q.golden_answer,
        }
        if chains and q.id in chains:
            rec["chain"] = chains[q.id]
        records.append(rec)
    _write_jsonl(records, path)


def import_corpus_jsonl(path):
    """Read questions (and, when present, simulator ground chains). Each
    id must be unique and a plain file name, as it names the question's
    tree; a chain is a list of step strings of at least one token each."""
    questions = []
    chains = {}
    ids = set()
    for n, (_, rec) in enumerate(
            _read_jsonl(path, ("id", "statement", "golden_answer")), start=1):
        try:
            questions.append(Question(
                id=rec["id"],
                statement=rec["statement"],
                golden_answer=rec["golden_answer"],
            ))
            if rec["id"] in ids:
                raise ValueError(f"duplicate id {rec['id']!r}")
            if rec["id"] in (".", "..") or (
                    {"/", os.sep, os.altsep, "\0"} & set(rec["id"])):
                raise ValueError(f"id {rec['id']!r} is not a plain file name")
            chain = rec.get("chain", [])
            if not isinstance(chain, list) or not all(
                    isinstance(step, str) and step.split() for step in chain):
                raise ValueError("chain must be a list of nonempty step strings")
        except ValueError as exc:
            raise ParseError(f"record {n}: {exc}") from exc
        ids.add(rec["id"])
        if "chain" in rec:
            chains[rec["id"]] = rec["chain"]
    return questions, chains
