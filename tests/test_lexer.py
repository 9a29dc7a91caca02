"""Tokenizer: kinds, texts and positions, and the characters it rejects;
and the position of each parser's errors."""

from __future__ import annotations

import pytest

from gluesem.errors import SyntaxErrorAt
from gluesem.fstruct import parse_fstructure
from gluesem.lexer import tokenize
from gluesem.lexicon import parse_lexicon
from gluesem.semtypes import E, T, arrow, parse_type
from gluesem.termsyntax import parse_term

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
    assert [
        (kind, token, *tokens.position(i))
        for i, (kind, token) in enumerate(zip(tokens.kinds, tokens.texts))
    ] == expected


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



# (parser, text, error including its position): an error each parser raises
# at a token index of its own, in a branch that deleting one token from a
# well-formed input does not reach. Every text is parsed with the source
# name "in".
PARSER_ERRORS = [
    (parse_fstructure, "f:[PRED 'a';\n  SUBJ g:[PRED 'b'];\n  OBJ g:[PRED 'c']]",
     "in:3:7: duplicate label 'g'"),
    (parse_fstructure, "f:[PRED 'a';\n  SUBJ g:[PRED 'b'; pred 'c']]",
     "in:2:21: duplicate attribute PRED in 'g'"),
    (parse_fstructure, "f:[PRED 'a'] ]", "in:1:14: unexpected ']' after f-structure"),
    (parse_fstructure, "f:[PRED 'a'; MODS { m:[PRED 'b']; 'c' }]",
     "in:1:35: set members must be f-structures or label references"),
    (parse_fstructure, "f:[PRED 'a'; SUBJ ;]", "in:1:19: expected a value for attribute SUBJ"),
    (parse_lexicon,
     "constant Bill : e\nconstant see : e -> e -> t\nsee: forall X:e, Y:e, X:e. ^ ~> see(X, Y)",
     "in:3:23: variable 'X' already bound"),
    (parse_lexicon, "constant Bill : e\nb: forall H. forall H. H ~> Bill",
     "in:2:21: variable 'H' already bound"),
    (parse_lexicon, "constant Bill : e\nb: G ~> Bill", "in:2:4: unbound structure variable 'G'"),
    (parse_lexicon, "constant Bill : e\nb: ^ ~>_t Bill -o ^ ~> Bill",
     "in:2:16: type index t conflicts with meaning type e"),
    (parse_lexicon, "constant Bill : e\n  constant sleep : e -> t) -> t\nb: ^ ~> Bill",
     "in:2:26: trailing input after type"),
    (lambda text, source: parse_term(text, {"f": arrow(E, T), "a": E}, source=source),
     "f(a) a", "in:1:6: unexpected 'a' after term"),
    (lambda text, _: parse_type(text), "e -> t)", "1:7: unexpected ')' in type"),
]


@pytest.mark.parametrize(
    "parse,text,message",
    PARSER_ERRORS,
    ids=["duplicate-label", "duplicate-attribute", "after-f-structure", "set-member",
         "missing-value", "rebound-meaning", "rebound-structure", "unbound-structure",
         "type-index", "after-type", "after-term", "in-type"],
)
def test_parser_errors_stand_at_their_tokens(parse, text, message):
    with pytest.raises(SyntaxErrorAt) as err:
        parse(text, "in")
    assert str(err.value) == message
