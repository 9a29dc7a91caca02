"""Front-end fuzzing: text built from the input grammars' tokens ends in a
result or a `GlueError`, and `gluesem derive` on it in an exit code."""

from __future__ import annotations

import io
import pathlib
import tempfile

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gluesem.cli import RunConfig, run
from gluesem.errors import GlueError
from gluesem.fstruct import FStructure, format_fstructure, parse_fstructure
from gluesem.lexicon import parse_lexicon
from gluesem.semtypes import ArrowType, E, SemType, T, arrow
from gluesem.terms import App, BoundVar, Const, Lam, MeaningTerm, format_term
from gluesem.termsyntax import parse_term

from conftest import FIXTURES
from test_fstruct import same_structure

FUZZ = settings(max_examples=200, deadline=None, database=None)
ROUND_TRIP = settings(FUZZ, max_examples=100)


def soup(tokens: list[str], max_size: int = 40):
    """Texts that concatenate tokens; separators are tokens too, so some
    neighbours fuse (`f` `g` reads `fg`)."""
    return st.lists(st.sampled_from(tokens), max_size=max_size).map("".join)


FS_TOKENS = [
    "f", "g", "h", "PRED", "SUBJ", "OBJ", "MODS", "SPEC", "every", "'appoint'", "'Bill'",
    "'", ":", "[", "]", "{", "}", ";", "-", " ", " ", "\n", "# c\n",
]
LEX_TOKENS = [
    "constant", "Bill", "f", "e", "t", "->", ":", ",", ".", "forall", "X", "H", "^", "(", ")",
    "SUBJ", "mod", "~>", "_", "-o", "*", "\\", "x", "'q'", "#", " ", " ", " ", "\n", "x:",
]
TERM_TOKENS = [
    "\\", "x", "y", "Bill", "f", "g", "every", ".", ":", "e", "t", "->", "(", ")", ",", " ", " ",
]
SIGNATURE = {"Bill": E, "f": arrow(E, T), "every": arrow(arrow(E, T), arrow(E, T), T)}


@FUZZ
@given(soup(FS_TOKENS))
def test_parse_fstructure_raises_only_glue_errors(text):
    try:
        parse_fstructure(text)
    except GlueError:
        pass


@FUZZ
@given(soup(LEX_TOKENS))
def test_parse_lexicon_raises_only_glue_errors(text):
    try:
        parse_lexicon(text)
    except GlueError:
        pass


@FUZZ
@given(soup(TERM_TOKENS))
def test_parse_term_raises_only_glue_errors(text):
    try:
        parse_term(text, SIGNATURE, {"X": E})
    except GlueError:
        pass


# Meaning terms over core.lex's constants, template variables, binders and
# names nothing declares.
TERM_NAMES = ["Bill", "appoint", "arrive", "every", "person", "obviously", "X", "P", "x", "nobody"]
terms = st.recursive(
    st.sampled_from(TERM_NAMES),
    lambda inner: st.one_of(
        st.builds(lambda fun, args: f"{fun}({', '.join(args)})", inner,
                  st.lists(inner, min_size=1, max_size=3)),
        st.builds(lambda var, annot, body: f"\\{var}{annot}. {body}",
                  st.sampled_from(["x", "y"]), st.sampled_from(["", ":e", ":e->t"]), inner),
    ),
    max_leaves=6,
)
atoms = st.builds(
    lambda sem, index, term: f"{sem} ~>{index} {term}",
    st.sampled_from(["^", "(^ SUBJ)", "(^ OBJ)", "(mod ^)", "H"]),
    st.sampled_from(["", "_e", "_t", "_e->t"]),
    terms,
)
formulas = st.recursive(
    atoms,
    lambda inner: st.builds(lambda a, op, b: f"{a} {op} {b}", inner,
                            st.sampled_from(["-o", "*"]), inner),
    max_leaves=3,
)
templates = st.builds(
    lambda prefix, body: prefix + body,
    st.sampled_from(["", "forall X:e. ", "forall H, X:e, P:t. ", "forall X. "]),
    formulas,
)
SENTENCE = "f:[PRED 'zz'; SUBJ g:[PRED 'Bill']; OBJ h:[PRED 'Hillary']]"


@FUZZ
@given(st.one_of(templates, soup(LEX_TOKENS, max_size=12)))
def test_run_with_a_generated_entry_ends_in_an_exit_code(template):
    core = (FIXTURES / "core.lex").read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        lexicon, fs = pathlib.Path(tmp, "zz.lex"), pathlib.Path(tmp, "zz.fs")
        lexicon.write_text(f"{core}zz: {template}\n", encoding="utf-8")
        fs.write_text(SENTENCE, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        code = run(RunConfig(str(fs), str(lexicon)), out, err)
    assert code in range(6)
    if code == 1:
        assert err.getvalue().startswith("error: ") and out.getvalue() == ""


# --- format-then-parse round trips -------------------------------------------

NAMES = ["f", "g", "h", "m", "n", "every", "PRED"]  # labels, and bare values that may clash
ATTRS = ["PRED", "SUBJ", "OBJ", "SPEC", "MODS", "ADJ"]
SYMBOL_TEXT = st.text(st.characters(blacklist_characters="'\n", blacklist_categories=["Cs"]), max_size=5)


@st.composite
def fstructures(draw):
    """A root over uniquely labelled nodes: nested nodes, quoted and bare
    values, sets, and label references to any node (forward, backward or
    cyclic)."""
    labels = iter(draw(st.permutations(NAMES)))
    nodes: list[FStructure] = []
    refs: list[tuple[FStructure, str, int | None]] = []  # slots to fill with a node

    def node(depth: int) -> FStructure:
        current = FStructure(next(labels))
        nodes.append(current)
        for attribute in draw(st.lists(st.sampled_from(ATTRS), unique=True, max_size=3)):
            room = len(nodes) < len(NAMES) and depth < 3
            kind = draw(st.sampled_from(["quoted", "bare", "ref"] + ["node", "set"] * room))
            if kind == "quoted":
                current.attrs[attribute] = draw(SYMBOL_TEXT)
            elif kind == "bare":
                current.attrs[attribute] = draw(st.sampled_from(NAMES))
            elif kind == "node":
                current.attrs[attribute] = node(depth + 1)
            elif kind == "ref":
                current.attrs[attribute] = None
                refs.append((current, attribute, None))
            else:
                members = []
                for index in range(draw(st.integers(0, 2))):
                    if len(nodes) < len(NAMES) and draw(st.booleans()):
                        members.append(node(depth + 1))
                    else:
                        members.append(None)
                        refs.append((current, attribute, index))
                current.attrs[attribute] = tuple(members)
        return current

    root = node(0)
    for container, attribute, index in refs:
        target = draw(st.sampled_from(nodes))
        if index is None:
            container.attrs[attribute] = target
        else:
            members = list(container.attrs[attribute])
            members[index] = target
            container.attrs[attribute] = tuple(members)
    return root


@ROUND_TRIP
@given(fstructures())
def test_fstructure_format_then_parse_is_isomorphic(root):
    assert same_structure(root, parse_fstructure(format_fstructure(root)))


# Every binder occurs, and only as an argument of a constant or of an
# abstraction, which fixes its type: the printer drops binder types and the
# parser infers them.
ROUND_TRIP_SIGNATURE = {
    "Bill": E, "rain": T, "person": arrow(E, T), "appoint": arrow(E, E, T),
    "obviously": arrow(T, T), "someone": arrow(arrow(E, T), T),
    "every": arrow(arrow(E, T), arrow(E, T), T),
}
HINTS = ["x", "y", "x1", "P", "Bill"]  # a constant's name and a freshened name too


@st.composite
def closed_terms(draw):
    def term(ty: SemType, scope: list[SemType], depth: int, needs: frozenset, as_arg: bool):
        """A term of type `ty` in which the bound variables `needs` (indices
        into `scope`, innermost first) occur."""
        if as_arg and len(needs) < 2:
            bound = [i for i, t in enumerate(scope) if t == ty and needs <= {i}]
            if bound and (needs or draw(st.booleans())):
                return BoundVar(draw(st.sampled_from(bound)))
        options = [] if needs else [("const", n) for n, t in ROUND_TRIP_SIGNATURE.items() if t == ty]
        if depth > 0:
            for name, t in ROUND_TRIP_SIGNATURE.items():
                arity = 0
                while isinstance(t, ArrowType):
                    t, arity = t.result, arity + 1
                    if t == ty:
                        options.append(("app", name, arity))
            if isinstance(ty, ArrowType):
                options.append(("lam",))
            if ty == T:
                options.append(("redex",))
        assume(options)
        kind, *rest = draw(st.sampled_from(options))
        if kind == "const":
            return Const(rest[0], ty)
        if kind == "lam":
            return abstraction(ty, scope, depth, needs)
        if kind == "redex":
            arg_ty = draw(st.sampled_from([E, arrow(E, T)]))
            into_head = frozenset(i for i in needs if draw(st.booleans()))
            head = abstraction(ArrowType(arg_ty, ty), scope, depth, into_head)
            return App(head, term(arg_ty, scope, depth - 1, needs - into_head, True))
        name, arity = rest
        fun_ty = ROUND_TRIP_SIGNATURE[name]
        where = {i: draw(st.integers(0, arity - 1)) for i in needs}  # the argument each need goes to
        out: MeaningTerm = Const(name, fun_ty)
        for position in range(arity):
            arg_needs = frozenset(i for i, p in where.items() if p == position)
            out = App(out, term(fun_ty.arg, scope, depth - 1, arg_needs, True))
            fun_ty = fun_ty.result
        return out

    def abstraction(ty: ArrowType, scope, depth, needs) -> Lam:
        inner = frozenset({0} | {i + 1 for i in needs})
        body = term(ty.result, [ty.arg, *scope], depth - 1, inner, False)
        return Lam(ty.arg, body, draw(st.sampled_from(HINTS)))

    ty = draw(st.sampled_from([T, arrow(E, T), arrow(arrow(E, T), T)]))
    return term(ty, [], 4, frozenset(), False)


@ROUND_TRIP
@given(closed_terms())
def test_term_format_then_parse_is_identity(term):
    assert parse_term(format_term(term), ROUND_TRIP_SIGNATURE) == term
