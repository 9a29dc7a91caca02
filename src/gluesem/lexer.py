"""Tokenizer shared by the term, lexicon, and f-structure parsers."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SyntaxErrorAt

# Input nested deeper than this is rejected as a syntax error rather than left
# to exhaust the interpreter's stack in the recursive parsers and walkers.
MAX_NESTING = 100

_SYMBOLS = ("->", "-o", "~>", "(", ")", "[", "]", "{", "}", ";", ":", ",", ".", "\\", "*", "^", "_")


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT | QUOTED | symbol text | EOF
    text: str
    line: int
    column: int


def tokenize(text: str, source: str | None = None, line: int = 1, col: int = 1) -> list[Token]:
    """Tokens of `text`, positioned as if it began at `line`:`col` of `source`."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "'":
            j = i + 1
            while j < n and text[j] not in "'\n":
                j += 1
            if j >= n or text[j] != "'":
                raise SyntaxErrorAt("unterminated quoted symbol", line, col, source)
            tokens.append(Token("QUOTED", text[i + 1 : j], line, col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise SyntaxErrorAt(f"unexpected character {c!r}", line, col, source)
    tokens.append(Token("EOF", "", line, col))
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
