"""Tokenizer shared by the term, lexicon, and f-structure parsers.

Tokens are `'quoted symbols'`, the symbols `->`, `-o`, `~>` and single
punctuation marks, and identifiers (a letter, then letters, digits and `_`).
Spaces, newlines and `#` comments to the end of the line separate them.
Symbols are tried before identifiers, so `_a` is `_`, `a`.

One compiled scan reads a text: a single `findall`, run in C, returns each
token with the blanks and comments before it skipped inside the match, and
the kinds and texts go into two parallel lists. No position is computed.
Only an error asks for a token's line and column, and they are worked out
then from the same scan, run again match by match up to that token: its
offset, turned into a line and column by counting newlines. A text with no
tokenization (a stray character, a word that starts with a digit or another
numeric character like `²`, an unterminated quote) raises the error at its
first bad token.

The result, `Tokens`, is every parser's cursor and nothing else.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NoReturn

from .errors import SyntaxErrorAt

# Input nested deeper than this is rejected as a syntax error rather than left
# to exhaust the interpreter's stack in the recursive parsers and walkers.
MAX_NESTING = 100

_SYMBOL = r"->|-o|~>|[()\[\]{};:,.\\*^_]"
# An identifier: a letter, then letters, digits and `_`. The lexicon splits a
# template into words with it too.
IDENTIFIER = r"[^\W\d_]\w*"

# One match per token, after the blanks and comments before it. A token lands
# in the group of its kind: a symbol, the inside of a quoted symbol, an
# identifier, or any other single character (an error, or the end marker).
_SCAN = re.compile(rf"\s*(?:#[^\n]*\s*)*(?:({_SYMBOL})|'([^'\n]*)'|({IDENTIFIER})|([\s\S]))")
# Appended to every scanned text: the newline ends a comment on the last
# line, and the NUL is the last match, so every match before it is contiguous.
_END = "\n\0"
_KINDS = frozenset(("->", "-o", "~>", *r"()[]{};:,.\*^_", "IDENT", "QUOTED", "EOF"))


class Tokens:
    """The tokens of one text as parallel `kinds` and `texts` lists that end
    in EOF, and the parsers' cursor over them (`pos`, `depth`). `accept` and
    `expect` compare kinds and return the token's text. The parsers look past
    the current token only when it is not EOF and advance only past tokens
    they have matched, so every index stays in bounds."""

    __slots__ = ("kinds", "texts", "source", "pos", "depth", "_text", "_start")

    def __init__(self, kinds, texts, text, source, start):
        self.kinds = kinds
        self.texts = texts
        self.source = source
        self.pos = 0
        self.depth = 0
        self._text = text
        self._start = start  # (line, column) at which the text begins

    def __len__(self) -> int:
        """The number of tokens, EOF included (the count `perfbench`'s
        tracer reports as `lexer.tokens`)."""
        return len(self.kinds)

    def peek(self, offset: int = 0) -> str:
        """The kind of the token `offset` places ahead."""
        return self.kinds[self.pos + offset]

    def text(self, offset: int = 0) -> str:
        return self.texts[self.pos + offset]

    def next(self) -> str:
        self.pos += 1
        return self.texts[self.pos - 1]

    def accept(self, kind: str) -> str | None:
        """The current token's text, stepping past it, if it is a `kind`;
        else None. Only a QUOTED text can be empty."""
        if self.kinds[self.pos] != kind:
            return None
        self.pos += 1
        return self.texts[self.pos - 1]

    def expect(self, kind: str, what: str | None = None) -> str:
        if self.kinds[self.pos] != kind:
            found = "end of input" if self.kinds[self.pos] == "EOF" else repr(self.texts[self.pos])
            self.fail(f"expected {what or repr(kind)}, found {found}")
        self.pos += 1
        return self.texts[self.pos - 1]

    def at_end(self) -> bool:
        return self.kinds[self.pos] == "EOF"

    def descend(self, what: str, at: int | None = None):
        """Open one nesting level (a group, an operand, a binder) at the token
        index `at`; `what` names the construct in the error raised past
        MAX_NESTING levels."""
        if self.depth == MAX_NESTING:
            self.fail(f"{what} nest deeper than {MAX_NESTING} levels", at)
        self.depth += 1

    def ascend(self, levels: int = 1):
        self.depth -= levels

    def position(self, at: int | None = None) -> tuple[int, int]:
        """The line and column of the token at index `at` (default: the
        current one), from the scan run again up to it."""
        text = self._text
        match = next(islice(_SCAN.finditer(text + _END), self.pos if at is None else at, None))
        # A token starts where its group does, a quoted one at the quote
        # before its group; EOF at the end of the text, past any trailing
        # blanks and comment, not at the end marker.
        group = match.lastindex
        offset = min(match.start(group) - (group == 2), len(text))
        line, col = self._start
        newlines = text.count("\n", 0, offset)
        if not newlines:
            return line, col + offset
        return line + newlines, offset - text.rfind("\n", 0, offset)

    def fail(self, message: str, at: int | None = None) -> NoReturn:
        raise SyntaxErrorAt(message, *self.position(at), self.source)


def tokenize(text: str, source: str | None = None, line: int = 1, col: int = 1) -> Tokens:
    """Tokens of `text`, positioned as if it began at `line`:`col` of `source`."""
    found = _SCAN.findall(text + _END)
    kinds = [symbol or (word and "IDENT") or other or "QUOTED" for symbol, _, word, other in found]
    kinds[-1] = "EOF"  # the end marker
    texts = [symbol or word or quoted for symbol, quoted, word, _ in found]
    tokens = Tokens(kinds, texts, text, source, (line, col))
    if not _KINDS.issuperset(kinds) or (
        not text.isascii() and not all(word[0].isalpha() for _, _, word, _ in found if word)
    ):
        # A stray character or quote, or a numeric that `[^\W\d_]` lets
        # start a word: the error stands at the first.
        index, bad = next(
            (i, kind if kind not in _KINDS else texts[i][0])
            for i, kind in enumerate(kinds)
            if kind not in _KINDS or kind == "IDENT" and not texts[i][0].isalpha()
        )
        message = "unterminated quoted symbol" if bad == "'" else f"unexpected character {bad!r}"
        tokens.fail(message, index)
    return tokens
