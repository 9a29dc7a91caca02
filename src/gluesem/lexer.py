"""Tokenizer shared by the term, lexicon, and f-structure parsers.

Tokens are `'quoted symbols'`, the symbols `->`, `-o`, `~>` and single
punctuation marks, and identifiers (a letter, then letters, digits and `_`).
Spaces, newlines and `#` comments to the end of the line separate them.
Symbols are tried before identifiers, so `_a` is `_`, `a`.

One compiled scan reads a text: a single `findall`, run in C, returns each
token with the blanks and comments before it skipped inside the match, and
the kinds and texts go into two parallel lists. No position is computed
then. A token's line and column are worked out only when something asks for
one (an error message, or a `Token` read from the result), from the same
scan run match by match: each match's token offset, turned into a line and
column by counting newlines. A text with no tokenization (a stray character,
a word that starts with a digit or another numeric character like `²`, an
unterminated quote) raises the error at its first bad token.

Every parser reads `tokenize`'s result directly, as its cursor.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .errors import SyntaxErrorAt
from .node import Node

# Input nested deeper than this is rejected as a syntax error rather than left
# to exhaust the interpreter's stack in the recursive parsers and walkers.
MAX_NESTING = 100

_SYMBOL = r"->|-o|~>|[()\[\]{};:,.\\*^_]"

# One match per token, after the blanks and comments before it. A token lands
# in the group of its kind: a symbol, the inside of a quoted symbol, an
# identifier, or any other single character (an error, or the end marker).
_SCAN = re.compile(rf"\s*(?:#[^\n]*\s*)*(?:({_SYMBOL})|'([^'\n]*)'|([^\W\d_]\w*)|([\s\S]))")
# Appended to every scanned text: the newline ends a comment on the last
# line, and the NUL is the last match, so every match before it is contiguous.
_END = "\n\0"
_KINDS = frozenset(("->", "-o", "~>", *r"()[]{};:,.\*^_", "IDENT", "QUOTED", "EOF"))


class Token(Node):
    __slots__ = ()
    # kind: IDENT | QUOTED | symbol text | EOF
    __match_args__ = ("kind", "text", "line", "column")


class Tokens:
    """The tokens of one text as parallel `kinds` and `texts` lists that end
    in EOF, and the parsers' cursor over them (`pos`, `depth`). Indexing or
    iterating yields every `Token` with its position, wherever the cursor
    stands; positions are computed for the whole text on the first request.
    `accept` and `expect` compare kinds and return the token's text. The
    parsers look past the current token only when it is not EOF and advance
    only past tokens they have matched, so every index stays in bounds."""

    __slots__ = ("kinds", "texts", "source", "pos", "depth", "_text", "_start", "_positions")

    def __init__(self, kinds, texts, text, source, start):
        self.kinds = kinds
        self.texts = texts
        self.source = source
        self.pos = 0
        self.depth = 0
        self._text = text
        self._start = start  # (line, column) at which the text begins
        self._positions = None

    def __len__(self) -> int:
        return len(self.kinds)

    def __getitem__(self, index: int) -> Token:
        return Token(self.kinds[index], self.texts[index], *self.position(index))

    def __iter__(self):
        return map(self.__getitem__, range(len(self.kinds)))

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
        current one)."""
        if self._positions is None:
            text = self._text
            line, col = self._start
            line_start = 1 - col  # offset of the current line's column 1
            last = 0
            self._positions = []
            for match in _SCAN.finditer(text + _END):
                # A token starts where its group does, a quoted one at the
                # quote before its group; EOF at the end of the text, past
                # any trailing blanks and comment, not at the end marker.
                group = match.lastindex
                offset = min(match.start(group) - (group == 2), len(text))
                newlines = text.count("\n", last, offset)
                if newlines:
                    line += newlines
                    line_start = text.rfind("\n", last, offset) + 1
                self._positions.append((line, offset - line_start + 1))
                last = offset
        return self._positions[self.pos if at is None else at]

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
