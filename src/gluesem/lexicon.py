"""The lexicon: meaning-constructor templates keyed by headword, their
instantiation against f-structure nodes, and premise collection.

Lexicon file format, one declaration per line::

    constant appoint : e -> e -> t
    appointed, appoint: forall X:e, Y:e. (^ SUBJ) ~> X * (^ OBJ) ~> Y -o ^ ~> appoint(X, Y)

`constant` lines build the signature that types the meaning side. An entry
line names one or more headwords (names for the same constructor, covering
word-form vs semantic-form naming like appointed/appoint), then a template:
`~>` relates a structure expression to a meaning, `~>_t` forces the type
index, `*` is multiplicative conjunction, `-o` linear implication
(right-associative), `forall v:τ.` binds a meaning variable and a bare
`forall H.` a structure variable. `^` is the word's own node, `(^ SUBJ)` a
path from it, `(mod ^)` the node whose MODS set contains it.

A lexicon's templates fall into a few shapes, read off their text: split
into words (the tokenizer's identifiers; the `o` of `-o` is none) and the
text between them, two templates share a shape when they differ only in
words that name constants of the same types. Since a word runs to the first
character that cannot continue an identifier, class-mates' tokens differ
only at those words, and since no template position takes a quoted symbol,
a template that parses has its words as its identifier tokens. Within one
`parse_lexicon` call only the first template of each shape is tokenized and
parsed. At the shape's first reuse, its `Const` leaves are counted: if there
are as many as words that name constants, every later class-mate is that
result with its constants renamed in word order, rebuilding only the nodes
above them. Fewer leaves mean a word naming a constant was read as a binder,
keyword, type or path attribute, or under a binder of its name; each
class-mate has such a word at the same place, so every later one is parsed
in full. Errors therefore come only from the parser, with their own line and
column, which are worked out only for an error. The template parser reads
the tokenizer's kind and text lists at an index it takes and returns, and
hands that index and its nesting depth to the type and term parsers.

A constant line is read by one regular-expression match into its name and
its type text; a line that starts with the keyword and does not match is
an error, reported at the name. Each type text is tokenized and parsed once
per `parse_lexicon` call, and shared by every constant declared with it.

Parsing compiles nothing. `premises` compiles each entry's template at its
first instantiation through a lexicon (see `formulas.compile_formula`),
with its paths as slots, and keeps it in the lexicon; every instantiation
resolves the slots at its node and fills them. A template's faults are
found by that compile but raised only by the search, for the first faulty
premise in index order, so a lexicon with an unused faulty entry works.
"""

from __future__ import annotations

import re
from typing import NoReturn

from .errors import (
    MissingAttributeError,
    MissingEntryError,
    SyntaxErrorAt,
    UninstantiableEntryError,
)
from .formulas import (
    Atom,
    Compiled,
    Forall,
    GlueFormula,
    Limp,
    MeaningVar,
    PathRef,
    SemVar,
    Tensor,
    compile_formula,
    fill,
)
from .fstruct import FStructure, resolve_path, sigma
from .lexer import IDENTIFIER, MAX_NESTING, Tokens, expected, too_deep, tokenize
from .node import Node
from .semtypes import SemType, parse_type_at
from .terms import App, Const, Lam
from .termsyntax import parse_term_at

_HEADWORD = re.compile(r"^[A-Za-z][A-Za-z0-9_-]*$")
# A word of a template's text: an identifier, as the tokenizer reads one,
# except after a `-`, so the `o` of `-o` is no word.
_SPLIT = re.compile(rf"(?<!-)({IDENTIFIER})")
_UNREAD = object()  # the constant paths of a shape not yet reused
# A constant line: the part before its first `:`, right-stripped, starts with
# the keyword and a blank (a headword named `constant` stands alone there).
_CONSTANT_KEYWORD = re.compile(r"\s*constant\s")
# A constant line that is well formed up to its type text: the keyword, the
# constant's name, and the first `:`, after which the type text starts.
_CONSTANT = re.compile(r"\s*constant\s+([A-Za-z][A-Za-z0-9_]*)\s*:")


class LexicalEntry(Node):
    __slots__ = ()
    __match_args__ = ("headword", "template")

    def __str__(self) -> str:
        return f"{self.headword}: {self.template}"


class Lexicon(dict):
    """Map from each headword of an entry line to its LexicalEntry, plus the
    constant signature used to type meaning terms, and `compiled`: for each
    entry instantiated so far, by its headword, its template and the
    template compiled at its first instantiation (see `premises`)."""

    def __init__(self):
        super().__init__()
        self.signature: dict[str, SemType] = {}
        self.compiled: dict[str, tuple[GlueFormula, Compiled]] = {}


def parse_lexicon(text: str, source: str | None = None) -> Lexicon:
    lexicon = Lexicon()
    signature = lexicon.signature
    types: dict[str, SemType] = {}  # each constant line's type, by its text
    entries_pending: list[tuple[list[str], str, str, int]] = []
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line:
            continue
        constant = _CONSTANT.match(line)
        if constant:
            name = constant[1]
            if name in signature:
                message = f"duplicate constant '{name}'"
                raise SyntaxErrorAt(message, lineno, constant.start(1) + 1, source)
            type_part = line[constant.end():]
            ty = types.get(type_part)
            if ty is None:
                ts = tokenize(type_part, source, lineno, constant.end() + 1)
                ty, pos = parse_type_at(ts, 0)
                if ts.kinds[pos] != "EOF":
                    ts.fail("trailing input after type", pos)
                types[type_part] = ty
            signature[name] = ty
            continue
        head_part, colon, template_part = line.partition(":")
        if _CONSTANT_KEYWORD.match(head_part.rstrip()):
            _constant_line_error(line, lineno, source)
        if not colon:
            raise SyntaxErrorAt("expected 'headword: template'", lineno, 1, source)
        words = [part.strip() for part in head_part.split(",")]
        if not all(map(_HEADWORD.match, words)):
            k = next(k for k, word in enumerate(words) if not _HEADWORD.match(word))
            column = _headword_column(line, k)
            raise SyntaxErrorAt(f"bad headword {words[k]!r}", lineno, column, source)
        # Constants may be declared anywhere in the file; parse templates after.
        entries_pending.append((words, template_part, line, lineno))
    # shape -> [its first template, where that holds its constants (read at
    # the first reuse)], or None once every template of it is parsed
    shapes: dict[tuple, list | None] = {}
    for words, template_part, line, lineno in entries_pending:
        parts = _SPLIT.split(template_part)
        # The text, each word that names a constant replaced by its type.
        shape = tuple(map(signature.get, parts, parts))
        kept = shapes.get(shape)
        if kept is not None and kept[1] is _UNREAD:
            # The first reuse: is each word naming a constant a `Const` leaf?
            paths = _const_paths(kept[0])
            if _leaves(paths) == sum(map(signature.__contains__, parts[1::2])):
                kept[1] = paths
            else:
                kept = shapes[shape] = None
        if kept is None:
            ts = tokenize(template_part, source, lineno, len(line) - len(template_part) + 1)
            template = _TemplateParser(ts, signature).parse_template()
            shapes.setdefault(shape, [template, _UNREAD])
        else:
            template, paths = kept
            if paths is not None:
                constants = iter([word for word in parts[1::2] if word in signature])
                template = _rename(template, paths, constants)
        entry = LexicalEntry(words[0], template)
        for k, word in enumerate(words):
            key = word.casefold()
            if key in lexicon:
                column = _headword_column(line, k)
                raise SyntaxErrorAt(f"duplicate entry for '{word}'", lineno, column, source)
            lexicon[key] = entry
    return lexicon


def _column(line: str, start: int) -> int:
    """The column of the first non-blank character of `line` from `start`."""
    return len(line) - len(line[start:].lstrip()) + 1


def _headword_column(line: str, k: int) -> int:
    """The column of the `k`th headword (from 0) of an entry line."""
    parts = line.partition(":")[0].split(",")
    return _column(line, sum(len(part) + 1 for part in parts[:k]))


def _constant_line_error(line: str, lineno: int, source: str | None) -> NoReturn:
    """Raise the error of a constant line that `_CONSTANT` does not read:
    it has no `:`, or no constant name before its first."""
    after = line.index("constant") + len("constant")  # errors stand at the name
    if ":" not in line:
        message = "expected 'constant name : type'"
        raise SyntaxErrorAt(message, lineno, _column(line, after), source)
    name = line[after:].split(":", 1)[0].strip()
    raise SyntaxErrorAt(f"bad constant name {name!r}", lineno, _column(line, after), source)


class _TemplateParser:
    """Reads a template's formulas at token indices it is given, each
    `depth` levels deep, and returns the index after what it read."""

    def __init__(self, ts: Tokens, signature: dict[str, SemType]):
        self.ts = ts
        self.kinds = ts.kinds
        self.texts = ts.texts
        self.signature = signature
        self.meaning_scope: dict[str, SemType] = {}
        self.sem_scope: set[str] = set()

    def parse_template(self) -> GlueFormula:
        template, pos = self.parse_formula(0, 0)
        if self.kinds[pos] != "EOF":
            self.ts.fail(f"unexpected {self.texts[pos]!r} after template", pos)
        return template

    def parse_formula(self, pos: int, depth: int) -> tuple[GlueFormula, int]:
        """A `forall`, or units joined by `*` (right-associative), then an
        optional `-o` and the formula it implies."""
        kinds = self.kinds
        if kinds[pos] == "IDENT" and self.texts[pos] == "forall":
            return self.parse_forall(pos + 1, depth)
        formula, pos = self.parse_unit(pos, depth)
        units = []  # the units before the last
        inner = depth
        while kinds[pos] == "*":
            if inner == MAX_NESTING:
                too_deep(self.ts, pos, "formulas")
            inner += 1
            units.append(formula)
            formula, pos = self.parse_unit(pos + 1, inner)
        while units:
            formula = Tensor(units.pop(), formula)
        if kinds[pos] != "-o":
            return formula, pos
        if depth == MAX_NESTING:
            too_deep(self.ts, pos, "formulas")
        consequent, pos = self.parse_formula(pos + 1, depth + 1)
        return Limp(formula, consequent), pos

    def parse_forall(self, pos: int, depth: int) -> tuple[GlueFormula, int]:
        """The binders after a `forall` at `pos - 1`, then its body."""
        ts, kinds = self.ts, self.kinds
        binders: list[object] = []
        while True:
            if kinds[pos] != "IDENT":
                expected(ts, pos, "a quantifier variable")
            name = self.texts[pos]
            at = pos
            if name in self.meaning_scope or name in self.sem_scope:
                ts.fail(f"variable '{name}' already bound", at)
            if kinds[pos + 1] == ":":
                ty, pos = parse_type_at(ts, pos + 2, depth)
                binders.append(MeaningVar(name, ty))
                self.meaning_scope[name] = ty
            else:
                pos += 1
                binders.append(SemVar(name))
                self.sem_scope.add(name)
            if depth == MAX_NESTING:
                too_deep(ts, at, "formulas")
            depth += 1
            if kinds[pos] != ",":
                break
            pos += 1
        if kinds[pos] != ".":
            expected(ts, pos, "'.'")
        body, pos = self.parse_formula(pos + 1, depth)
        for binder in reversed(binders):
            body = Forall(binder, body)
            if isinstance(binder, MeaningVar):
                del self.meaning_scope[binder.name]
            else:
                self.sem_scope.discard(binder.name)
        return body, pos

    def parse_unit(self, pos: int, depth: int) -> tuple[GlueFormula, int]:
        """An atom, or a formula in parentheses. An atom's structure
        expression is `^`, a bound structure variable, `(^ PATH)` or
        `(mod ^)`; a `(` opens one of the last two or a group, told apart by
        the tokens after it (`(^ ~>` opens a group whose first atom is on
        `^`)."""
        ts, kinds = self.ts, self.kinds
        kind = kinds[pos]
        if kind == "^":
            sem = PathRef("up")
            pos += 1
        elif kind != "(":
            if kind != "IDENT":
                expected(ts, pos, "a structure expression")
            name = self.texts[pos]
            if name not in self.sem_scope:
                ts.fail(f"unbound structure variable '{name}'", pos)
            sem = SemVar(name)
            pos += 1
        elif kinds[pos + 1] == "^" and kinds[pos + 2] != "~>":
            pos += 2
            path = []
            while kinds[pos] == "IDENT":
                path.append(self.texts[pos].upper())
                pos += 1
            if kinds[pos] != ")":
                expected(ts, pos, "')'")
            sem = PathRef("up", tuple(path))
            pos += 1
        elif kinds[pos + 1] == "IDENT" and self.texts[pos + 1] == "mod" and kinds[pos + 2] == "^":
            if kinds[pos + 3] != ")":
                expected(ts, pos + 3, "')'")
            sem = PathRef("mod")
            pos += 4
        else:
            if depth == MAX_NESTING:
                too_deep(ts, pos, "formulas")
            inner, pos = self.parse_formula(pos + 1, depth + 1)
            if kinds[pos] != ")":
                expected(ts, pos, "')'")
            return inner, pos + 1
        if kinds[pos] != "~>":
            expected(ts, pos, "'~>'")
        explicit: SemType | None = None
        if kinds[pos + 1] == "_":
            explicit, pos = parse_type_at(ts, pos + 2, depth)
        else:
            pos += 1
        meaning, meaning_ty, pos = parse_term_at(ts, pos, depth, self.signature, self.meaning_scope)
        if explicit is not None and explicit != meaning_ty:
            ts.fail(f"type index {explicit} conflicts with meaning type {meaning_ty}", pos)
        return Atom(sem, explicit if explicit is not None else meaning_ty, meaning), pos


def _const_paths(node):
    """Where `node` holds `Const` leaves: () at one, None where there is
    none, else a (field index, paths) pair for each field holding one, a
    function before its argument and a left operand before its right one,
    which is the order of their tokens."""
    kind = type(node)
    if kind is Const:
        return ()
    if kind is App or kind is Tensor or kind is Limp:
        fields = (1, 2)
    elif kind is Atom:
        fields = (3,)
    elif kind is Forall or kind is Lam:
        fields = (2,)
    else:
        return None  # a variable
    paths = []
    for i in fields:
        inner = _const_paths(node[i])
        if inner is not None:
            paths.append((i, inner))
    return tuple(paths) or None


def _leaves(paths) -> int:
    """The number of `Const` leaves on `paths` (see `_const_paths`)."""
    if paths is None:
        return 0
    return sum(_leaves(inner) for _, inner in paths) if paths else 1


def _rename(node, paths, names):
    """`node` with each `Const` leaf on `paths` (see `_const_paths`)
    renamed to the next of `names`; only the nodes on those paths are
    rebuilt, the rest is shared."""
    if not paths:
        return Const(next(names), node[2])
    fields = list(node)  # the tag, then the fields
    for i, inner in paths:
        fields[i] = _rename(node[i], inner, names)
    return type(node)(*fields[1:])


def instantiate(entry: LexicalEntry, node: FStructure) -> GlueFormula:
    """Resolve the template's paths at `node` and sigma-project them; the
    result is a closed formula with the template's connective shape."""
    compiled = compile_formula(entry.template, template=True)
    return fill(entry.template, _slot_values(compiled, entry, node))


def _slot_values(compiled: Compiled, entry: LexicalEntry, node: FStructure) -> dict:
    """Each slot of the compiled template of `entry` resolved at `node`;
    the first that cannot be raises `UninstantiableEntryError`."""
    return {ref: _resolve_ref(ref, entry, node) for ref in compiled.slots}


def _resolve_ref(ref: PathRef, entry: LexicalEntry, node: FStructure):
    if ref.anchor == "mod":
        container = node.mod_container
        if container is None:
            raise UninstantiableEntryError(entry.headword, node.label, "(mod ^)")
        return sigma(container)
    if not ref.path:
        return sigma(node)
    try:
        target = resolve_path(node, ref.path)
    except MissingAttributeError as exc:
        raise UninstantiableEntryError(
            entry.headword, node.label, exc.attribute
        ) from exc
    if not isinstance(target, FStructure):
        raise UninstantiableEntryError(entry.headword, node.label, ref.path[-1])
    return sigma(target)


class Premise(Node):
    __slots__ = ()
    # index: 1-based, in document order; word: the contributing entry's
    # headword; label: the f-structure node the word heads
    __match_args__ = ("index", "formula", "word", "label")

    def tag(self) -> str:
        return f"{self.word}[{self.index}]"

    def __str__(self) -> str:
        return f"[{self.index}] {self.word}: {self.formula}"


def entry_key(node: FStructure) -> str | None:
    """Lookup key for the word heading `node`: its PRED, prefixed by SPEC for
    pre-combined quantified nominals (every-candidate, a-manager)."""
    pred = node.get("PRED")
    if not isinstance(pred, str):
        return None
    spec = node.get("SPEC")
    if isinstance(spec, str):
        return f"{spec}-{pred}".casefold()
    return pred.casefold()


def premises(root: FStructure, lexicon: Lexicon) -> tuple[Premise, ...]:
    """One instantiated premise per word occurrence (PRED-bearing node,
    including each MODS member), in document order. Each template is
    compiled at its first instantiation through `lexicon` and kept in
    `lexicon.compiled`, under its headword with the template, which a later
    entry of that headword must be to share it; after that, instantiating
    it only resolves its slots and fills them. The tuple also holds, for
    the search, each premise with its compiled template and slot values
    (see `Premises`)."""
    out: list[Premise] = []
    instances = []
    compiled_entries = lexicon.compiled
    for node in root.nodes():
        key = entry_key(node)
        if key is None:
            continue
        entry = lexicon.get(key)
        if entry is None:
            raise MissingEntryError(key, node.label)
        template = entry.template
        kept = compiled_entries.get(entry.headword)
        if kept is not None and kept[0] is template:
            compiled = kept[1]
        else:
            # A compile is idempotent and one store is atomic, so threads
            # that compile the same template at once store equal values.
            compiled = compile_formula(template, template=True)
            compiled_entries[entry.headword] = (template, compiled)
        values = _slot_values(compiled, entry, node)
        premise = Premise(len(out) + 1, fill(template, values), entry.headword, node.label)
        out.append(premise)
        instances.append((premise, compiled, values))
    result = Premises(out)
    result.instances = instances
    return result


class Premises(tuple):
    """The premises `premises` instantiated, and in `instances`, for each
    one, (premise, its template's compiled form, the structure each slot
    names), which the search reads rather than compiling the premise
    again."""
