"""The tokenizer against a plain per-character reference scanner, and the
exact text of errors whose positions are worked out after the scan."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluesem.errors import SyntaxErrorAt, TermTypeError, UnboundVariableError
from gluesem.fstruct import parse_fstructure
from gluesem.lexer import tokenize
from gluesem.lexicon import parse_lexicon

SYMBOLS = ("->", "-o", "~>", *"()[]{};:,.\\*^_")


def reference_tokens(text: str, source: str | None, line: int, column: int):
    """The tokens of `text` as (kind, text, line, column), EOF last, read one
    character at a time with no regular expression; raises the tokenizer's `SyntaxErrorAt` for a
    character no token can start with."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            i, line, column = i + 1, line + 1, 1
            continue
        if c.isspace():
            i, column = i + 1, column + 1
            continue
        if c == "#":  # a comment runs to the end of the line
            end = text.find("\n", i)
            end = len(text) if end < 0 else end
            i, column = end, column + end - i
            continue
        if c == "'":
            end = i + 1
            while end < len(text) and text[end] not in "'\n":
                end += 1
            if end == len(text) or text[end] == "\n":
                raise SyntaxErrorAt("unterminated quoted symbol", line, column, source)
            tokens.append(("QUOTED", text[i + 1:end], line, column))
            i, column = end + 1, column + end + 1 - i
            continue
        symbol = next((s for s in SYMBOLS if text.startswith(s, i)), None)
        if symbol:
            tokens.append((symbol, symbol, line, column))
            i, column = i + len(symbol), column + len(symbol)
            continue
        if c.isalnum():  # a word: letters, digits, numerics and `_`
            end = i
            while end < len(text) and (text[end].isalnum() or text[end] == "_"):
                end += 1
            if c.isalpha():
                tokens.append(("IDENT", text[i:end], line, column))
                i, column = end, column + end - i
                continue
        raise SyntaxErrorAt(f"unexpected character {c!r}", line, column, source)
    tokens.append(("EOF", "", line, column))
    return tokens


PIECES = [
    "a", "Bill", "x2", "a_b", "_", "é", "éa", "aé", "²", "x²", "½", "9", "9a", "'", "''", "'q'",
    "'a b'", "'é²'", "#", "# c", "# 'x\n", "->", "-o", "~>", "-", "~", ">", "(", ")", "[", "]",
    "{", "}", ";", ":", ",", ".", "\\", "*", "^", "@", "\x00", " ", "  ", "\t", "\r", "\r\n",
    "\n", "\x0b", "\x85", "\xa0", "\u2028", "\u3000",
]


def scanned(text, source, line, column):
    """`tokenize`'s result as (kind, text, line, column) tuples."""
    tokens = tokenize(text, source, line, column)
    return [
        (kind, token, *tokens.position(i))
        for i, (kind, token) in enumerate(zip(tokens.kinds, tokens.texts))
    ]


def outcome(scan, text, line, column):
    try:
        return scan(text, "t", line, column)
    except SyntaxErrorAt as err:
        return str(err)


@settings(max_examples=400, deadline=None, database=None)
@given(
    st.lists(st.one_of(st.sampled_from(PIECES), st.text(max_size=2)), max_size=30).map("".join),
    st.integers(1, 40),
    st.integers(1, 40),
)
def test_tokenize_agrees_with_the_reference_scanner(text, line, column):
    """Every token's kind, text, line and column, and every rejection
    message, from any start position."""
    assert outcome(scanned, text, line, column) == outcome(reference_tokens, text, line, column)


def _generated_lexicon() -> str:
    lines = ["# generated"]
    for i in range(1000):
        lines += [
            f"constant c{i} : e -> t",
            f"w{i}: forall X:e. (^ SUBJ) ~> X -o ^ ~> c{i}(X)",
            "",
            f"# entry {i}",
        ]
    lines.append("last: forall X:e. (^ SUBJ) ~> X -o ^ ~> c0(X) @")
    return "\n".join(lines)


# (parser, text, error class, message), each message as the per-token
# tokenizer, which computed every position as it read, reported it. Every
# text is parsed with the source name "in".
LATE_ERRORS = [
    (
        parse_lexicon, _generated_lexicon(), SyntaxErrorAt,
        "in:4002:47: unexpected character '@'",
    ),
    (
        parse_lexicon,
        "constant Bill : e\nconstant see : e -> e -> t\n\n"
        "  seen,  see ,saw:\tforall X:e. (^ SUBJ) ~> X -o\t^ ~> see(X, Bil)",
        UnboundVariableError, "unknown name 'Bil' at line 4, column 61",
    ),
    (
        parse_lexicon,
        "constant Bill : e\nconstant see : e -> e -> t\n# note\n"
        "seen, see, saw: forall X:e.\t(^ SUBJ) ~> X -o ^ ~> see(X)(Bill)\t(X)",
        TermTypeError, "ill-typed application at line 4, column 64: type mismatch: t vs e -> ?3",
    ),
    (
        parse_lexicon,
        "constant Bill : e\nconstant see : e -> e -> t\n\n"
        "seen, see, saw: forall X:e. (^ SUBJ) ~> X -o ^ ~> see(X, see)",
        TermTypeError, "ill-typed application at line 4, column 54: type mismatch: e vs e -> e -> t",
    ),
    (
        parse_lexicon, "constant Bill : e\n\nb, bb: ^ ~> (\\f. \\x. Bill)(\\y.  y)",
        TermTypeError, "cannot infer the type of binder 'f' at line 3, column 15; annotate it",
    ),
    (
        parse_fstructure,
        "f:[PRED 'appoint';\n   SUBJ g:[PRED 'Bill'];\n   # a comment\n"
        "   OBJ h:[PRED 'Hillary';\n          ADJ { m1:[PRED 'x'];\n                m2 }];\n"
        "   MODS { m3:[PRED 'obviously'];\n\t  m9 }]",
        SyntaxErrorAt, "in:6:17: set member 'm2' is not a defined label",
    ),
]


@pytest.mark.parametrize(
    "parse, text, error, message",
    LATE_ERRORS,
    ids=["last-line-of-4002", "unknown-name", "ill-typed-curried", "ill-typed-argument",
         "uninferable-binder", "undefined-set-member"],
)
def test_errors_located_after_the_scan_keep_their_positions(parse, text, error, message):
    with pytest.raises(error) as err:
        parse(text, "in")
    assert str(err.value) == message
