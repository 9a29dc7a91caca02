"""Completeness/coherence diagnostics."""

from __future__ import annotations

import gc
import importlib
import sys
from pathlib import Path

import pytest

from gluesem import formulas, prover
from gluesem import lexicon as lexicon_module
from gluesem.errors import MissingEntryError
from gluesem.diagnostics import (
    INCOHERENT,
    INCOMPLETE,
    INCOMPLETE_INCOHERENT,
    OK,
    UNINSTANTIABLE,
    diagnose,
)
from gluesem.fstruct import parse_fstructure, sigma
from gluesem.lexicon import entry_key, parse_lexicon, premises
from gluesem.prover import Goal, search

from conftest import FIXTURES, load_fs

UNRELATED_PREMISE = (
    "f:[PRED 'appoint'; SUBJ g:[PRED 'Bill']; OBJ h:[PRED 'Hillary'];"
    " ADJ i:[PRED 'sink']]"
)
EMPTY_OBJ = "f:[PRED 'appoint'; SUBJ g:[PRED 'Bill']; OBJ h:[]]"
EMPTY_OBJ_AND_EXTRA = (
    "f:[PRED 'devour'; SUBJ g:[PRED 'John']; OBJ h:[]; ADJ i:[PRED 'sink']]"
)
FAILING = [
    pytest.param("john_devoured.fs", id="incomplete"),
    pytest.param("john_arrived_extras.fs", id="incoherent"),
    pytest.param(UNRELATED_PREMISE, id="unrelated-premise"),
    pytest.param(EMPTY_OBJ, id="empty-obj"),
    pytest.param(EMPTY_OBJ_AND_EXTRA, id="incomplete+incoherent"),
]


def load_case(case: str):
    return load_fs(case) if case.endswith(".fs") else parse_fstructure(case)


def test_well_formed_is_ok_with_readings(lexicon, bah):
    diagnosis = diagnose(bah, lexicon)
    assert diagnosis.status == OK
    assert len(diagnosis.readings) == 1


def test_unsaturated_transitive_is_incomplete(lexicon):
    # OBJ present but contributing no meaning: the verb's demand goes unmet.
    fs = load_fs("john_devoured.fs")
    diagnosis = diagnose(fs, lexicon)
    assert diagnosis.status == INCOMPLETE
    assert any(d.sem == "h" and d.ty == "e" for d in diagnosis.unsatisfied_demands)
    assert any("devoured" in tag for d in diagnosis.unsatisfied_demands for tag in d.needed_by)
    assert diagnosis.leftover_resources == ()


def test_missing_obj_attribute_is_uninstantiable(lexicon):
    fs = load_fs("john_devoured_no_obj.fs")
    diagnosis = diagnose(fs, lexicon)
    assert diagnosis.status == UNINSTANTIABLE
    assert "OBJ" in diagnosis.note


def test_extra_arguments_are_incoherent(lexicon):
    fs = load_fs("john_arrived_extras.fs")
    diagnosis = diagnose(fs, lexicon)
    assert diagnosis.status == INCOHERENT
    leftovers = {l.word for l in diagnosis.leftover_resources}
    assert leftovers == {"bill", "sink"}
    assert diagnosis.unsatisfied_demands == ()


def test_adding_unrelated_premise_flips_ok_to_incoherent(lexicon):
    fs = parse_fstructure(UNRELATED_PREMISE)
    diagnosis = diagnose(fs, lexicon)
    assert diagnosis.status == INCOHERENT
    assert [l.word for l in diagnosis.leftover_resources] == ["sink"]


def test_removing_consumed_premise_flips_ok_to_incomplete(lexicon):
    fs = parse_fstructure(EMPTY_OBJ)
    diagnosis = diagnose(fs, lexicon)
    assert diagnosis.status == INCOMPLETE
    assert any(d.sem == "h" for d in diagnosis.unsatisfied_demands)


def test_combined_status_both_kinds_of_evidence(lexicon):
    fs = parse_fstructure(EMPTY_OBJ_AND_EXTRA)
    diagnosis = diagnose(fs, lexicon)
    assert diagnosis.status == INCOMPLETE_INCOHERENT
    assert any(d.sem == "h" for d in diagnosis.unsatisfied_demands)
    assert [l.word for l in diagnosis.leftover_resources] == ["sink"]


def test_never_ok_with_empty_derivation(lexicon):
    fs = load_fs("john_devoured.fs")
    assert diagnose(fs, lexicon).status != OK


def test_missing_entry_propagates(lexicon):
    fs = parse_fstructure("f:[PRED 'vanish'; SUBJ g:[PRED 'Bill']]")
    with pytest.raises(MissingEntryError):
        diagnose(fs, lexicon)


def test_ok_carries_all_readings(lexicon, scope_fs):
    diagnosis = diagnose(scope_fs, lexicon)
    assert diagnosis.status == OK
    assert len(diagnosis.readings) == 2


@pytest.mark.parametrize(
    "case,status,all_traces",
    [
        ("bah.fs", OK, False),
        ("john_devoured.fs", INCOMPLETE, False),
        ("john_arrived_extras.fs", INCOHERENT, False),
        (EMPTY_OBJ_AND_EXTRA, INCOMPLETE_INCOHERENT, False),
        # A failure is diagnosed from the canonical-order search alone; only
        # a sentence with readings is searched again in every order.
        ("john_devoured.fs", INCOMPLETE, True),
        ("john_arrived_extras.fs", INCOHERENT, True),
        (EMPTY_OBJ_AND_EXTRA, INCOMPLETE_INCOHERENT, True),
    ],
    ids=[
        OK, INCOMPLETE, INCOHERENT, INCOMPLETE_INCOHERENT,
        f"{INCOMPLETE}-all-traces", f"{INCOHERENT}-all-traces",
        f"{INCOMPLETE_INCOHERENT}-all-traces",
    ],
)
def test_diagnose_runs_one_proof_search(lexicon, monkeypatch, case, status, all_traces):
    searches = []  # the all_orders flag of each search run
    run_search = prover._run_search

    def counting(engine, *args, **kwargs):
        searches.append(engine.all_orders)
        return run_search(engine, *args, **kwargs)

    monkeypatch.setattr(prover, "_run_search", counting)
    assert diagnose(load_case(case), lexicon, all_traces=all_traces).status == status
    assert searches == [False]


SET_UP_CASES = ["scope.fs", "john_devoured.fs", "john_arrived_extras.fs", "modified.fs"]


@pytest.mark.parametrize(
    "name,all_traces",
    [(name, all_traces) for all_traces in (False, True) for name in SET_UP_CASES],
    ids=SET_UP_CASES + [f"{name}-all-traces" for name in SET_UP_CASES],
)
def test_set_up_reads_each_premise_once(monkeypatch, name, all_traces):
    # Set-up reads each premise's compiled form once and compiles nothing
    # that a lexicon compiled before: each template compiles at its first
    # instantiation through a lexicon, which keeps it, so a failure's
    # second search, the search in every order and a second diagnosis
    # compile nothing. A premise made any other way compiles at search time.
    compiled = compile_calls(monkeypatch)
    lexicon = parse_lexicon((FIXTURES / "core.lex").read_text(encoding="utf-8"))
    fs = load_fs(name)
    diagnose(fs, lexicon, all_traces=all_traces)
    used = [lexicon[entry_key(node)].template for node in fs.nodes() if entry_key(node)]
    assert compiled == list(dict.fromkeys(used))
    compiled.clear()
    diagnose(fs, lexicon, all_traces=all_traces)
    diagnose(fs, lexicon, all_traces=not all_traces)
    assert compiled == []
    premise_list = list(premises(fs, lexicon))
    search(premise_list, Goal(sigma(fs)), all_traces=all_traces)
    assert compiled == [p.formula for p in premise_list]


def compile_calls(monkeypatch) -> list:
    """A list that gains each formula compiled from now on."""
    compiled = []
    compile_formula = formulas.compile_formula

    def recording(formula, *args, **kwargs):
        compiled.append(formula)
        return compile_formula(formula, *args, **kwargs)

    for module in (lexicon_module, prover):
        monkeypatch.setattr(module, "compile_formula", recording)
    return compiled


@pytest.mark.parametrize("case", FAILING)
def test_failure_evidence_same_from_all_orders_search(lexicon, case):
    fs = load_case(case)
    assert diagnose(fs, lexicon, all_traces=True) == diagnose(fs, lexicon)


def twin_case(twins: int, taken: int):
    """`take` consumes `taken` of `twins` identical `thing` premises, which
    are premises 2 to twins + 1; every one is a leftover of some derivation."""
    names = [f"X{i}" for i in range(taken)]
    lexicon = (
        "constant c : e\n"
        f"constant take : {' -> '.join(['e'] * taken)} -> t\n"
        f"take: forall {', '.join(f'{x}:e' for x in names)}. "
        + " -o ".join(f"^ ~>_e {x}" for x in names)
        + f" -o ^ ~>_t take({', '.join(names)})\n"
        "thing: (mod ^) ~>_e c\n"
    )
    mods = "; ".join(f"m{i}:[PRED 'thing']" for i in range(twins))
    fstructure = f"f:[PRED 'take'; MODS {{ {mods} }}]"
    leftovers = ", ".join(f"thing[{i}]" for i in range(2, twins + 2))
    return fstructure, lexicon, f"incoherent\nleftover: {leftovers}"


@pytest.mark.parametrize(
    "twins,taken,all_traces",
    [
        (2, 1, False),
        (2, 1, True),
        (20, 10, False),
        (6, 3, True),
        # A failure never reaches the all-orders search, which would explore
        # all 20!/10! ways to feed `take` from 20 twins.
        (20, 10, True),
    ],
    ids=[
        "default", "all-orders", "20-take-10-default", "6-take-3-all-orders",
        "20-take-10-all-orders",
    ],
)
def test_twin_leftovers_are_all_named(twins, taken, all_traces):
    # The default search focuses twins in index order only, yet every twin is
    # a leftover of some derivation; 20 take 10 leaves C(20, 10) such sets.
    fstructure, lexicon, expected = twin_case(twins, taken)
    diagnosis = diagnose(
        parse_fstructure(fstructure), parse_lexicon(lexicon), all_traces=all_traces
    )
    assert str(diagnosis) == expected


def test_an_unused_tensor_component_names_its_premise():
    # `split` supplies both components of its head; the derivation of f ~>_t
    # leaves the `e` component, derived from premise 1, unused.
    lexicon = parse_lexicon(
        "constant c : t\nconstant Bill : e\nsplit: ^ ~>_t c * ^ ~>_e Bill\n"
    )
    diagnosis = diagnose(parse_fstructure("f:[PRED 'split']"), lexicon)
    assert str(diagnosis) == "incoherent\nleftover: split[1]"


WILDCARD_LEXICON = """\
constant Bill : e
constant c : t
constant p : e -> t
bill: ^ ~> Bill
c: forall H. H ~>_t c
any: forall H, X:e. H ~> X -o ^ ~> p(X)
"""


@pytest.mark.parametrize(
    "fstructure,expected",
    [
        # `c` supplies `H ~>_t`, a structure variable, which meets the goal's
        # demand for `f ~>_t`.
        ("f:[PRED 'c'; SUBJ g:[PRED 'bill']]", "incoherent\nleftover: bill[2]"),
        # `any` demands `H ~>_e`, which the labelled `g ~>_e` and `h ~>_e` meet.
        (
            "f:[PRED 'any'; SUBJ g:[PRED 'bill']; OBJ h:[PRED 'bill']]",
            "incoherent\nleftover: bill[2], bill[3]",
        ),
    ],
    ids=["variable-supply", "variable-demand"],
)
def test_a_structure_variable_matches_any_label_of_its_type(fstructure, expected):
    diagnosis = diagnose(parse_fstructure(fstructure), parse_lexicon(WILDCARD_LEXICON))
    assert str(diagnosis) == expected



def test_diagnosing_leaves_no_garbage_for_the_cycle_collector(lexicon):
    # No walk builds a self-recursive closure per call, so a diagnosis frees
    # everything it made by reference counting alone.
    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        corpus = importlib.import_module("workloads").corpus(1)
    finally:
        sys.path.remove(perfbench)
    corpus_lexicon = parse_lexicon(corpus.lexicon_text)
    cases = [(load_fs(path.name), lexicon) for path in sorted(FIXTURES.glob("*.fs"))]
    cases += [(parse_fstructure(s.text), corpus_lexicon) for s in corpus.sentences]
    gc.collect()
    gc.disable()
    try:
        for root, words in cases:
            diagnose(root, words)
        assert gc.collect() == 0
    finally:
        gc.enable()
