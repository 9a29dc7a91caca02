"""Front-end fuzzing: text built from the input grammars' tokens ends in a
result or a `GlueError`, and `gluesem derive` on it in an exit code."""

from __future__ import annotations

import io
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from gluesem.cli import RunConfig, run
from gluesem.errors import GlueError
from gluesem.fstruct import parse_fstructure
from gluesem.lexicon import parse_lexicon
from gluesem.semtypes import E, T, arrow
from gluesem.termsyntax import parse_term

from conftest import FIXTURES

FUZZ = settings(max_examples=200, deadline=None, database=None)


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
