"""The names `perfbench/tracing.py` wraps. The tracer skips a name missing
from the package without a word, so a moved import would turn the counts it
feeds (`lexer.tokens` and `lexer.tokenize_s` for `tokenize`) to 0 unseen."""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from gluesem import lexer
from gluesem.lexer import tokenize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Targets that already name nothing (the probe's repair is ROADMAP item 2).
STALE = {
    ("gluesem.lexicon", "typecheck"),
    ("gluesem.diagnostics", "derive"),
    ("gluesem.prover", "canonical_form"),
}


@pytest.fixture(scope="module")
def targets():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return [(owner, attr) for owner, attr, *_ in importlib.import_module("tracing").TARGETS]
    finally:
        sys.path.remove(str(PERFBENCH))


def _owner(path: str):
    """The object an owner path of `TARGETS` names: a module, a class in it
    ("module:Class"), or a module object that another module refers to by
    name ("module/attr")."""
    if "/" in path:
        module_name, attr = path.split("/")
        return getattr(importlib.import_module(module_name), attr)
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def test_every_target_but_the_stale_ones_resolves(targets):
    missing = [
        (owner, attr) for owner, attr in targets
        if (owner, attr) not in STALE and not hasattr(_owner(owner), attr)
    ]
    assert missing == []


def test_each_wrapped_tokenize_is_the_lexer_s(targets):
    owners = [owner for owner, attr in targets if attr == "tokenize"]
    assert owners == ["gluesem.fstruct", "gluesem.lexicon", "gluesem.termsyntax"]
    assert all(_owner(owner).tokenize is lexer.tokenize for owner in owners)


@pytest.mark.parametrize(
    "text,count",
    [("", 1), ("f:[PRED 'a'; SPEC every]", 10), ("e -> t # note", 4), (r"\x. f(x)", 8)],
)
def test_the_length_of_tokens_is_the_token_count_with_eof(text, count):
    tokens = tokenize(text)
    assert len(tokens) == len(tokens.kinds) == count
