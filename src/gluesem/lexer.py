"""Tokenizer shared by the term, lexicon, and f-structure parsers.

One regular expression reads the text: spaces, newlines, `#` comments to the
end of the line, `'quoted symbols'`, the symbols `->`, `-o`, `~>` and single
punctuation marks, and identifiers (a letter, then letters, digits and `_`).
Anything else is an error at its line and column. Symbols are tried before
identifiers, so `_a` is `_`, `a`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import SyntaxErrorAt

# Input nested deeper than this is rejected as a syntax error rather than left
# to exhaust the interpreter's stack in the recursive parsers and walkers.
MAX_NESTING = 100

_TOKEN = re.compile(
    r"(?P<space>[^\S\n]+)|(?P<newline>\n)|(?P<comment>#[^\n]*)"
    r"|'(?P<QUOTED>[^'\n]*)'|(?P<symbol>->|-o|~>|[()\[\]{};:,.\\*^_])"
    r"|(?P<IDENT>\w+)|(?P<bad>.)",
    re.DOTALL,
)


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | QUOTED | symbol text | EOF
    text: str
    line: int
    column: int


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
    def __init__(self, tokens: list[Token], source: str | None = None):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.depth = 0

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, kind: str) -> Token | None:
        if self.peek().kind == kind:
            return self.next()
        return None

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or f"'{kind}'"
            got = tok.text if tok.kind != "EOF" else "end of input"
            self.fail(f"expected {want}, found {got!r}" if tok.kind != "EOF"
                      else f"expected {want}, found end of input", tok)
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind == "EOF"

    def descend(self, what: str, tok: Token | None = None):
        """Open one nesting level (a group, an operand, a binder); `what`
        names the construct in the error raised past MAX_NESTING levels."""
        if self.depth == MAX_NESTING:
            self.fail(f"{what} nest deeper than {MAX_NESTING} levels", tok)
        self.depth += 1

    def ascend(self, levels: int = 1):
        self.depth -= levels

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise SyntaxErrorAt(message, tok.line, tok.column, self.source)
