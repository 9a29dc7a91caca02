"""What one `Lexicon` serves does not depend on what it served before: each
sentence reads the same, and raises the same error, whether the lexicon is
new or has served other sentences, in either order, and after a copy or a
pickle round-trip. A lexicon that has served nothing is a new `Lexicon`
holding a parse's entries and signature, so these tests pin what a lexicon
keeps; what a process keeps reaches both sides alike, and is the
differential's to find (its reversed `corpus` family)."""

from __future__ import annotations

import copy
import pickle
import sys
from pathlib import Path

import pytest

from gluesem.diagnostics import UNINSTANTIABLE, diagnose
from gluesem.errors import GlueError
from gluesem.formulas import Atom, PathRef, SemVar
from gluesem.fstruct import parse_fstructure
from gluesem.lexicon import LexicalEntry, Lexicon, entry_key, parse_lexicon
from gluesem.semtypes import E, T
from gluesem.terms import Const

from conftest import FIXTURES
from test_diagnostics import compile_calls

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402


def unused(lexicon: Lexicon) -> Lexicon:
    """A new lexicon with the entries and signature of `lexicon`."""
    fresh = Lexicon()
    fresh.update(lexicon)
    fresh.signature.update(lexicon.signature)
    return fresh


def printed(root, lexicon, all_traces) -> list[str]:
    """The diagnosis, each reading's text and every line of every trace it
    holds."""
    diagnosis = diagnose(root, lexicon, all_traces=all_traces)
    lines = [str(diagnosis)]
    for reading in diagnosis.readings:
        lines.append(str(reading))
        lines += [step.line() for trace in reading.traces for step in trace]
    return lines


@pytest.fixture(scope="module")
def corpus():
    """The seed-1 `corpus` sentences, parsed, each with its output from a
    lexicon that has served nothing, by default and with every trace."""
    workload = workloads.corpus(1)
    parsed = parse_lexicon(workload.lexicon_text)
    roots = [parse_fstructure(s.text) for s in workload.sentences]
    expected = {
        (n, all_traces): printed(root, unused(parsed), all_traces)
        for n, root in enumerate(roots)
        for all_traces in (False, True)
    }
    return workload.lexicon_text, roots, expected


def test_one_lexicon_serves_the_corpus_forward_then_reversed(corpus):
    text, roots, expected = corpus
    lexicon = parse_lexicon(text)
    order = [*range(len(roots)), *reversed(range(len(roots)))]
    for k, n in enumerate(order):
        all_traces = bool(k % 2)
        assert printed(roots[n], lexicon, all_traces) == expected[n, all_traces], n


@pytest.mark.parametrize("duplicate", ["copy", "pickle"])
def test_a_used_lexicon_derives_the_same_after_a_copy(corpus, duplicate):
    text, roots, expected = corpus
    lexicon = parse_lexicon(text)
    for root in roots:
        diagnose(root, lexicon)
    if duplicate == "copy":
        other = copy.copy(lexicon)
    else:
        other = pickle.loads(pickle.dumps(lexicon))
    for n in reversed(range(len(roots))):
        assert printed(roots[n], other, True) == expected[n, True], n
        assert printed(roots[n], lexicon, False) == expected[n, False], n


def test_a_second_corpus_pass_compiles_nothing(corpus, monkeypatch):
    text, roots, _ = corpus
    lexicon = parse_lexicon(text)
    compiled = compile_calls(monkeypatch)
    for root in roots:
        diagnose(root, lexicon)
    used = {id(entry): entry for entry in (
        lexicon[entry_key(node)] for root in roots for node in root.nodes() if entry_key(node)
    )}
    assert len(compiled) == len(used)
    assert set(compiled) == {entry.template for entry in used.values()}
    compiled.clear()
    for root in roots:
        diagnose(root, lexicon, all_traces=True)
    assert compiled == []


# ---------------------------------------------------------------------------
# Errors: each at search time, for the first faulty premise in index order,
# with that premise's tag, however often its entry was met before.

ILL_TYPED = "premise {word}[{index}] is ill-typed: c has type e, not its index type t"
NOT_CLOSED = "premise {word}[{index}] is not closed"
GIVE = "f:[PRED 'give'; SUBJ g:[PRED '{}']; OBJ h:[PRED 'Hillary']; OBJ2 i:[PRED '{}']]"


@pytest.fixture()
def faulty():
    """`core.lex` with two entries that parse could not make: `illtyped`,
    whose meaning is not of its index type, and `open`, whose structure
    variable no quantifier binds."""
    lexicon = parse_lexicon((FIXTURES / "core.lex").read_text(encoding="utf-8"))
    c = Const("c", E)
    lexicon["illtyped"] = LexicalEntry("illtyped", Atom(PathRef("up"), T, c))
    lexicon["open"] = LexicalEntry("open", Atom(SemVar("H"), E, c))
    return lexicon


def test_unused_faulty_entries_leave_the_lexicon_usable(faulty, lexicon):
    root = parse_fstructure(GIVE.format("Bill", "John"))
    assert printed(root, faulty, True) == printed(root, unused(lexicon), True)


@pytest.mark.parametrize(
    "second,fourth,message",
    [
        ("illtyped", "open", ILL_TYPED.format(word="illtyped", index=2)),
        ("open", "illtyped", NOT_CLOSED.format(word="open", index=2)),
    ],
)
def test_the_first_faulty_premise_is_reported_each_time(faulty, second, fourth, message):
    root = parse_fstructure(GIVE.format(second, fourth))
    for _ in range(2):
        with pytest.raises(GlueError) as err:
            diagnose(root, faulty)
        assert str(err.value) == message
    # The same entry met at another index is reported with that index.
    root = parse_fstructure(GIVE.format("Bill", second))
    with pytest.raises(GlueError) as err:
        diagnose(root, faulty)
    assert str(err.value) == message.replace("[2]", "[4]")


def test_an_entry_that_cannot_be_instantiated_reads_the_same_each_time(lexicon):
    outside_mods = parse_fstructure(
        "f:[PRED 'arrive'; SUBJ g:[PRED 'Bill'; ADJ m:[PRED 'obviously']]]"
    )
    no_obj = parse_fstructure("f:[PRED 'devour'; SUBJ g:[PRED 'John']]")
    notes = [
        (outside_mods, "entry 'obviously' is uninstantiable at 'm': missing attribute (mod ^)"),
        (no_obj, "entry 'devoured' is uninstantiable at 'f': missing attribute OBJ"),
    ]
    lexicon = unused(lexicon)
    for root, note in notes + notes:
        diagnosis = diagnose(root, lexicon)
        assert (diagnosis.status, diagnosis.note) == (UNINSTANTIABLE, note)
