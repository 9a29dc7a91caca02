"""Exception types shared across the package."""

from __future__ import annotations


class GlueError(Exception):
    """Base class for all errors raised by this package."""


class SyntaxErrorAt(GlueError):
    """Syntax error in one of the textual input formats, with position."""

    def __init__(self, message: str, line: int, column: int, source: str | None = None):
        self.line = line
        self.column = column
        self.source = source
        where = f"{source}:" if source else ""
        super().__init__(f"{where}{line}:{column}: {message}")


class TermTypeError(GlueError):
    """Ill-typed meaning term (bad application, type mismatch)."""


class UnboundVariableError(GlueError):
    """A variable occurs free where no binding or declaration supplies it."""


class MissingAttributeError(GlueError):
    """Path resolution hit an f-structure lacking the requested attribute."""

    def __init__(self, attribute: str, label: str):
        self.attribute = attribute
        self.label = label
        super().__init__(f"f-structure '{label}' has no attribute {attribute}")


class UninstantiableEntryError(GlueError):
    """A lexical entry could not be instantiated at its f-structure node."""

    def __init__(self, headword: str, label: str, attribute: str):
        self.headword = headword
        self.label = label
        self.attribute = attribute
        super().__init__(
            f"entry '{headword}' is uninstantiable at '{label}': "
            f"missing attribute {attribute}"
        )


class MissingEntryError(GlueError):
    """An f-structure predicate has no lexicon entry."""

    def __init__(self, key: str, label: str):
        self.key = key
        self.label = label
        super().__init__(f"no lexicon entry for '{key}' (f-structure '{label}')")


class NonPatternError(GlueError):
    """A unification problem falls outside the supported pattern fragment."""


class SearchBoundError(GlueError):
    """A derivation nested too deeply for the interpreter's stack."""
