"""Tokenizer: kinds, texts and positions, and the characters it rejects."""

from __future__ import annotations

import pytest

from gluesem.errors import SyntaxErrorAt
from gluesem.lexer import Token, tokenize

# (text, start line, start column, tokens as (kind, text, line, column));
# the last token is always EOF.
POSITIONS = [
    (
        "a\tb\n\t c",
        1, 1,
        [("IDENT", "a", 1, 1), ("IDENT", "b", 1, 3), ("IDENT", "c", 2, 3), ("EOF", "", 2, 4)],
    ),
    (
        "a # note ] 'x\n# whole line\n  b",
        1, 1,
        [("IDENT", "a", 1, 1), ("IDENT", "b", 3, 3), ("EOF", "", 3, 4)],
    ),
    (
        "PRED 'appoint'; x:''",
        1, 1,
        [
            ("IDENT", "PRED", 1, 1), ("QUOTED", "appoint", 1, 6), (";", ";", 1, 15),
            ("IDENT", "x", 1, 17), (":", ":", 1, 18), ("QUOTED", "", 1, 19), ("EOF", "", 1, 21),
        ],
    ),
    (
        "e->t -o ^~>x",
        1, 1,
        [
            ("IDENT", "e", 1, 1), ("->", "->", 1, 2), ("IDENT", "t", 1, 4), ("-o", "-o", 1, 6),
            ("^", "^", 1, 9), ("~>", "~>", 1, 10), ("IDENT", "x", 1, 12), ("EOF", "", 1, 13),
        ],
    ),
    (
        "a_b _a x2",
        1, 1,
        [
            ("IDENT", "a_b", 1, 1), ("_", "_", 1, 5), ("IDENT", "a", 1, 6),
            ("IDENT", "x2", 1, 8), ("EOF", "", 1, 10),
        ],
    ),
    (
        "(\\x. f(x, y))",
        1, 1,
        [
            ("(", "(", 1, 1), ("\\", "\\", 1, 2), ("IDENT", "x", 1, 3), (".", ".", 1, 4),
            ("IDENT", "f", 1, 6), ("(", "(", 1, 7), ("IDENT", "x", 1, 8), (",", ",", 1, 9),
            ("IDENT", "y", 1, 11), (")", ")", 1, 12), (")", ")", 1, 13), ("EOF", "", 1, 14),
        ],
    ),
    (
        "a\n b",
        4, 11,
        [("IDENT", "a", 4, 11), ("IDENT", "b", 5, 2), ("EOF", "", 5, 3)],
    ),
    # The EOF column counts a trailing comment.
    ("a # c", 1, 1, [("IDENT", "a", 1, 1), ("EOF", "", 1, 6)]),
    ("", 2, 5, [("EOF", "", 2, 5)]),
]


@pytest.mark.parametrize("text,line,col,expected", POSITIONS)
def test_token_kinds_texts_and_positions(text, line, col, expected):
    tokens = tokenize(text, "t", line, col)
    assert [(t.kind, t.text, t.line, t.column) for t in tokens] == expected


# (text, start line, start column, error message including its position).
ERRORS = [
    ("x 1a", 1, 1, "t:1:3: unexpected character '1'"),
    ("²", 1, 1, "t:1:1: unexpected character '²'"),
    ("a ½", 1, 1, "t:1:3: unexpected character '½'"),
    ("a\n  - b", 1, 1, "t:2:3: unexpected character '-'"),
    ("a 'b\n'", 1, 1, "t:1:3: unterminated quoted symbol"),
    ("x\n'b", 3, 7, "t:4:1: unterminated quoted symbol"),
    ("ab @", 3, 7, "t:3:10: unexpected character '@'"),
]


@pytest.mark.parametrize("text,line,col,message", ERRORS)
def test_rejected_characters_are_reported_where_they_stand(text, line, col, message):
    with pytest.raises(SyntaxErrorAt) as err:
        tokenize(text, "t", line, col)
    assert str(err.value) == message


def test_the_cursor_leaves_indexing_and_iterating_whole():
    """`tokenize`'s result is also the parsers' cursor: stepping it past
    tokens changes neither what indexing and iterating yield nor their
    positions; `position()` is the current token's."""
    text = "a\n  b (c)"
    fresh = list(tokenize(text, "t", 3, 5))
    tokens = tokenize(text, "t", 3, 5)
    assert tokens.next() == "a"
    assert tokens.accept("IDENT") == "b"
    assert tokens.accept(")") is None
    assert tokens.position() == (fresh[2].line, fresh[2].column) == (4, 5)
    assert [tokens[i] for i in range(len(tokens))] == list(tokens) == fresh
    assert fresh[0] == Token("IDENT", "a", 3, 5)
