"""Tokenizer shared by the term, lexicon, and f-structure parsers.

One regular expression reads the text: spaces, newlines, `#` comments to the
end of the line, `'quoted symbols'`, the symbols `->`, `-o`, `~>` and single
punctuation marks, and identifiers (a letter, then letters, digits and `_`).
Anything else is an error at its line and column. Symbols are tried before
identifiers, so `_a` is `_`, `a`.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .errors import SyntaxErrorAt
from .node import Node

# Input nested deeper than this is rejected as a syntax error rather than left
# to exhaust the interpreter's stack in the recursive parsers and walkers.
MAX_NESTING = 100

_TOKEN = re.compile(
    r"(?P<space>[^\S\n]+)|(?P<newline>\n)|(?P<comment>#[^\n]*)"
    r"|'(?P<QUOTED>[^'\n]*)'|(?P<symbol>->|-o|~>|[()\[\]{};:,.\\*^_])"
    r"|(?P<IDENT>\w+)|(?P<bad>.)",
    re.DOTALL,
)


class Token(Node):
    __slots__ = ()
    __match_args__ = ("kind", "text", "line", "column")

    def __new__(cls, kind: str, text: str, line: int, column: int):
        # kind: IDENT | QUOTED | symbol text | EOF
        return tuple.__new__(cls, ("Token", kind, text, line, column))


def tokenize(text: str, source: str | None = None, line: int = 1, col: int = 1) -> list[Token]:
    """Tokens of `text`, positioned as if it began at `line`:`col` of `source`."""
    tokens: list[Token] = []
    line_start = 1 - col  # offset of the current line's column 1
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "space" or kind == "comment":
            continue
        if kind == "newline":
            line += 1
            line_start = match.end()
            continue
        column = match.start() - line_start + 1
        if kind == "symbol":
            tokens.append(Token(match.group(), match.group(), line, column))
        elif kind == "QUOTED" or kind == "IDENT" and match.group()[0].isalpha():
            tokens.append(Token(kind, match.group(kind), line, column))
        elif match.group() == "'":
            raise SyntaxErrorAt("unterminated quoted symbol", line, column, source)
        else:  # a stray character, or a word that starts with a digit
            raise SyntaxErrorAt(f"unexpected character {match.group()[0]!r}", line, column, source)
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens


class TokenStream:
    """A cursor over a token list that ends in its EOF token. The parsers
    look past the current token only when it is not EOF and advance only
    past tokens they have matched, so every index stays in bounds."""

    def __init__(self, tokens: list[Token], source: str | None = None):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.depth = 0

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def next(self) -> Token:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def accept(self, kind: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            return None
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            found = "end of input" if tok.kind == "EOF" else repr(tok.text)
            self.fail(f"expected {what or repr(kind)}, found {found}", tok)
        self.pos += 1
        return tok

    def at_end(self) -> bool:
        return self.tokens[self.pos].kind == "EOF"

    def descend(self, what: str, tok: Token | None = None):
        """Open one nesting level (a group, an operand, a binder); `what`
        names the construct in the error raised past MAX_NESTING levels."""
        if self.depth == MAX_NESTING:
            self.fail(f"{what} nest deeper than {MAX_NESTING} levels", tok)
        self.depth += 1

    def ascend(self, levels: int = 1):
        self.depth -= levels

    def fail(self, message: str, tok: Token | None = None) -> NoReturn:
        tok = tok or self.tokens[self.pos]
        raise SyntaxErrorAt(message, tok.line, tok.column, self.source)
