"""Tokenizer shared by the term, lexicon, and f-structure parsers.

Tokens are `'quoted symbols'`, the symbols `->`, `-o`, `~>` and single
punctuation marks, and identifiers (a letter, then letters, digits and `_`).
Spaces, newlines and `#` comments to the end of the line separate them.
Symbols are tried before identifiers, so `_a` is `_`, `a`.

One compiled scan reads a text: a single `findall`, run in C, returns the
text of each token, with the blanks and comments before it skipped inside
the match. The scan has one group, so that list is the texts themselves,
and a character outside every token comes back as "". A symbol's kind is its
text, looked up in one `map` run in C, and any other token is an identifier,
except in a text holding a quote: there the tokens that start with one are
marked quoted and lose their quotes. No position is computed. Only an
error asks for a token's line and column, and they are worked out then from
the same scan, run again match by match up to that token: its offset,
turned into a line and column by counting newlines. A text with no
tokenization (a stray character, a word that starts with a digit or another
numeric character like `²`, an unterminated quote) raises the error at its
first bad token.

The result, `Tokens`, holds the kind and text lists and works out positions
for errors; it has no cursor. Each parser keeps its place in a local index,
which it takes and returns, and passes its nesting depth down the same way.
`expected` and `too_deep` raise the errors every parser shares.
"""

from __future__ import annotations

import re
from itertools import islice, repeat
from operator import itemgetter
from typing import NoReturn

from .errors import SyntaxErrorAt

# Input nested deeper than this is rejected as a syntax error rather than left
# to exhaust the interpreter's stack in the recursive parsers and walkers.
MAX_NESTING = 100

_SYMBOL = r"->|-o|~>|[()\[\]{};:,.\\*^_]"
# An identifier: a letter, then letters, digits and `_`. The lexicon splits a
# template into words with it too.
IDENTIFIER = r"[^\W\d_]\w*"

# One match per token, after the blanks and comments before it. The one
# group holds a symbol, a quoted symbol with its quotes, or an identifier; any
# other single character (an error, or the end marker) is matched outside it,
# so `findall` gives it as "", which no token's text is.
_SCAN = re.compile(rf"\s*(?:#[^\n]*\s*)*(?:({_SYMBOL}|'[^'\n]*'|{IDENTIFIER})|[\s\S])")
# Appended to every scanned text: the newline ends a comment on the last
# line, and the NUL is the last match, so every match before it is contiguous.
_END = "\n\0"
# The kind of each token text that is a symbol; any other text is an
# identifier or, if it starts with a quote, a quoted symbol.
_KINDS = {symbol: symbol for symbol in ("->", "-o", "~>", *r"()[]{};:,.\*^_")}
_FIRST = itemgetter(slice(1))  # a text's first character, "" for ""


class Tokens:
    """The tokens of one text as parallel `kinds` and `texts` lists that end
    in EOF. Each parser keeps its own index into them and looks past a token
    only when it is not EOF, so every index stays in bounds."""

    __slots__ = ("kinds", "texts", "source", "_text", "_start")

    def __init__(self, kinds, texts, text, source, start):
        self.kinds = kinds
        self.texts = texts
        self.source = source
        self._text = text
        self._start = start  # (line, column) at which the text begins

    def __len__(self) -> int:
        """The number of tokens, EOF included (the count `perfbench`'s
        tracer reports as `lexer.tokens`)."""
        return len(self.kinds)

    def position(self, at: int) -> tuple[int, int]:
        """The line and column of the token at index `at`, from the scan run
        again up to it."""
        text = self._text
        match = next(islice(_SCAN.finditer(text + _END), at, None))
        # A token starts where its group does, a quoted one at its quote; a
        # character outside the group at its own place, EOF at the end of the
        # text, past any trailing blanks and comment, not at the end marker.
        offset = match.start(1)
        if offset < 0:
            offset = min(match.end() - 1, len(text))
        line, col = self._start
        newlines = text.count("\n", 0, offset)
        if not newlines:
            return line, col + offset
        return line + newlines, offset - text.rfind("\n", 0, offset)

    def fail(self, message: str, at: int) -> NoReturn:
        raise SyntaxErrorAt(message, *self.position(at), self.source)


def expected(ts: Tokens, at: int, what: str) -> NoReturn:
    """Fail at the token at index `at`, which is not the `what` expected."""
    found = "end of input" if ts.kinds[at] == "EOF" else repr(ts.texts[at])
    ts.fail(f"expected {what}, found {found}", at)


def too_deep(ts: Tokens, at: int, what: str) -> NoReturn:
    """Fail at the token at index `at`, which opens a construct (named by
    `what`) one level deeper than MAX_NESTING."""
    ts.fail(f"{what} nest deeper than {MAX_NESTING} levels", at)


def tokenize(text: str, source: str | None = None, line: int = 1, col: int = 1) -> Tokens:
    """Tokens of `text`, positioned as if it began at `line`:`col` of `source`."""
    texts = _SCAN.findall(text + _END)
    kinds = list(map(_KINDS.get, texts, repeat("IDENT")))
    kinds[-1] = "EOF"  # the end marker
    tokens = Tokens(kinds, texts, text, source, (line, col))
    # A stray character or quote, outside the group, or a numeric that
    # `[^\W\d_]` lets start a word: the error stands at the first.
    bad = texts.index("")
    if not text.isascii():
        bad = next((i for i, word in enumerate(texts[:bad]) if word[0].isnumeric()), bad)
    if bad < len(texts) - 1:
        # a character outside the group ends its match
        char = texts[bad][:1] or next(islice(_SCAN.finditer(text + _END), bad, None))[0][-1]
        message = "unterminated quoted symbol" if char == "'" else f"unexpected character {char!r}"
        tokens.fail(message, bad)
    if "'" in text:
        firsts = "".join(map(_FIRST, texts))
        quoted = firsts.find("'")
        while quoted >= 0:
            kinds[quoted] = "QUOTED"
            texts[quoted] = texts[quoted][1:-1]
            quoted = firsts.find("'", quoted + 1)
    return tokens
