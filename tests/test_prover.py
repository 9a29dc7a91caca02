"""Derivation engine: the golden sentences, the resource-usage table,
hypothetical reasoning, and the property suites (linearity, permutation and
currying invariance, oracle agreement)."""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluesem import cli, prover, terms
from gluesem import lexicon as lexicon_module
from gluesem.cli import RunConfig, run
from gluesem.diagnostics import (
    INCOHERENT,
    INCOMPLETE,
    INCOMPLETE_INCOHERENT,
    OK,
    UNINSTANTIABLE,
    diagnose,
)
from gluesem.errors import GlueError, NonPatternError, SearchBoundError
from gluesem.formulas import Atom, Forall, Limp, MeaningVar, PathRef, SemVar, Tensor
from gluesem.fstruct import SemStructure, format_fstructure, parse_fstructure, sigma
from gluesem.lexicon import Lexicon, Premise, parse_lexicon, premises
from gluesem.prover import Goal, derive, entails, prop, unify
from gluesem.semtypes import E, T, arrow
from gluesem.terms import (
    App,
    BoundVar,
    Const,
    Lam,
    Var,
    apply,
    canonical_form,
    equivalent,
    format_term,
    free_vars,
    hyp_consts,
)

from conftest import FIXTURES
from oracles import enumerate_readings
from search_inputs import deep_clause, grid_cells, grid_fstructure, structure_variable_sets

CORE = (FIXTURES / "core.lex").read_text(encoding="utf-8")


def parse_core(extra: str = ""):
    return parse_lexicon(CORE + extra, source="core.lex")


def readings_of(fs, lexicon, ty=T, **kw):
    return derive(premises(fs, lexicon), Goal(sigma(fs), ty), **kw)


def meanings(readings):
    return {canonical_form(r.meaning) for r in readings}


def audit_linearity(reading, premise_indices):
    """Each premise consumed exactly once; each hypothesis assumed, consumed,
    and discharged exactly once."""
    for trace in reading.traces:
        consumed = [s.resource for s in trace if s.kind == "apply" and isinstance(s.resource, int)]
        assert sorted(consumed) == sorted(premise_indices)
        introduced = [s.resource for s in trace if s.kind in ("assume", "derive")]
        used = [s.resource for s in trace if s.kind == "apply" and isinstance(s.resource, str)]
        assert sorted(introduced) == sorted(used)
        assert len(set(introduced)) == len(introduced)
        discharged = [s for s in trace if s.kind == "discharge"]
        assumed = [s for s in trace if s.kind == "assume"]
        assert len(discharged) == len(assumed)


# --- paper goldens -----------------------------------------------------------


def test_transitive_golden_single_reading(lexicon, bah):
    rs = readings_of(bah, lexicon)
    assert len(rs) == 1
    assert rs[0].meaning == apply(Const("appoint", arrow(E, E, T)), Const("Bill", E), Const("Hillary", E))


def test_transitive_two_derivation_orders_collapse(lexicon, bah):
    rs = readings_of(bah, lexicon, all_traces=True)
    assert len(rs) == 1
    assert len(rs[0].traces) >= 2
    lines = ["\n".join(s.line() for s in t) for t in rs[0].traces]
    assert any(l.index("apply [2] bill") < l.index("apply [3] hillary") for l in lines)
    assert any(l.index("apply [3] hillary") < l.index("apply [2] bill") for l in lines)


def test_modifier_golden(lexicon, modified):
    rs = readings_of(modified, lexicon)
    assert [format_term(r.meaning) for r in rs] == ["obviously(appoint(Bill, Hillary))"]
    # Stopping before the modifier is consumed is not a reading.
    unmodified = parse_core()  # fresh parse, same content
    plain = apply(Const("appoint", arrow(E, E, T)), Const("Bill", E), Const("Hillary", E))
    assert not any(equivalent(r.meaning, plain) for r in rs)
    del unmodified


def test_quantifier_golden(lexicon, everyone_fs):
    rs = readings_of(everyone_fs, lexicon)
    assert len(rs) == 1
    sig = {"every": arrow(arrow(E, T), arrow(E, T), T), "person": arrow(E, T),
           "convince": arrow(E, E, T), "Bill": E}
    from gluesem.termsyntax import parse_term
    expected = parse_term("every(person, \\z. convince(Bill, z))", sig)
    assert equivalent(rs[0].meaning, expected)


def test_quantifier_trace_shows_scope_substitutions(lexicon, everyone_fs):
    rs = readings_of(everyone_fs, lexicon)
    text = "\n".join(s.line() for s in rs[0].trace)
    assert "H ↦ f_σ" in text
    assert "S ↦ \\z. convince(Bill, z)" in text
    assert "assume" in text and "discharge" in text


def test_scope_ambiguity_golden(lexicon, scope_fs):
    rs = readings_of(scope_fs, lexicon)
    assert [format_term(r.meaning) for r in rs] == [
        "a(manager, \\v. every(candidate, \\u. appoint(u, v)))",
        "every(candidate, \\u. a(manager, \\v. appoint(u, v)))",
    ]


def test_axiom_case(lexicon):
    sem = SemStructure("f")
    premise = Premise(1, Atom(sem, E, Const("Bill", E)), "bill", "f")
    rs = derive([premise], Goal(sem, E))
    assert [r.meaning for r in rs] == [Const("Bill", E)]


def test_goal_at_t_never_admits_type_e_meaning(lexicon):
    sem = SemStructure("f")
    premise = Premise(1, Atom(sem, E, Const("Bill", E)), "bill", "f")
    assert derive([premise], Goal(sem, T)) == ()


def test_identity_scope_rejected_by_typing(lexicon):
    # A quantifier alone cannot take its own referential import as scope.
    fs_text = "f:[PRED 'everyone']"
    from gluesem.fstruct import parse_fstructure
    fs = parse_fstructure(fs_text)
    rs = readings_of(fs, lexicon)
    assert rs == ()


def test_three_stacked_quantifiers_all_orders(lexicon, ditransitive_fs):
    rs = readings_of(ditransitive_fs, lexicon)
    assert len(rs) == 6  # 3! scope orders over the ditransitive


# --- resource usage table ----------------------------------------------------


def test_entailment_table():
    A, B = prop("A"), prop("B")
    a_imp_b = Limp(A, B)
    assert entails(Tensor(A, a_imp_b), B) is True
    assert entails(A, Tensor(A, A)) is False
    assert entails(Tensor(A, B), A) is False
    assert entails(Tensor(A, a_imp_b), Tensor(A, B)) is False
    assert entails(Tensor(A, a_imp_b), Tensor(a_imp_b, B)) is False
    C = prop("C")  # a tensor head yields both of its components
    assert entails(Tensor(A, Limp(A, Tensor(B, C))), Tensor(B, C)) is True
    assert entails(Tensor(A, Limp(A, Tensor(B, C))), B) is False
    # A consequent's meaning is normalized before the search.
    identity = Lam(T, BoundVar(0), "p")
    assert entails(Tensor(A, a_imp_b), Atom(B.sem, T, App(identity, B.meaning))) is True
    assert entails(Tensor(A, a_imp_b), Atom(B.sem, T, App(identity, A.meaning))) is False


@pytest.mark.parametrize("sem", [PathRef("up"), SemVar("H")], ids=["path", "variable"])
def test_entailment_rejects_a_formula_that_is_not_closed(sem):
    A, open_atom = prop("A"), Atom(sem, T, Const("A", T))
    for antecedent, consequent in [(A, open_atom), (open_atom, A)]:
        with pytest.raises(GlueError, match="is not closed"):
            entails(antecedent, consequent)


def test_entailment_identity():
    A = prop("A")
    assert entails(A, A) is True


def test_entailment_leftover_copy():
    A, B = prop("A"), prop("B")
    two_As = Tensor(A, Tensor(A, Limp(A, B)))
    assert entails(two_As, Tensor(A, B)) is True
    assert entails(two_As, B) is False


def test_entailment_nested_consequent():
    A, B = prop("A"), prop("B")
    assert entails(Limp(A, B), Limp(A, B)) is True
    assert entails(Tensor(A, Limp(A, Limp(A, B))), Limp(A, B)) is True


def test_entailment_higher_order_hypotheses():
    # Premises whose antecedents are implications: proving them assumes
    # hypotheses that are themselves implications.
    A, B, C, D = (prop(name) for name in "ABCD")
    a_b_c = Limp(Limp(A, B), C)
    assert entails(Tensor(a_b_c, Limp(A, B)), C) is True
    assert entails(Tensor(Limp(a_b_c, D), a_b_c), D) is True
    assert entails(Tensor(Limp(Limp(Limp(A, B), B), C), A), C) is True
    assert entails(Limp(Limp(A, A), B), B) is True
    assert entails(a_b_c, C) is False
    assert entails(Tensor(Limp(Limp(A, A), B), A), B) is False


def test_tensor_head_splits_into_a_derived_resource():
    # The middle premise's head is a tensor: applying it yields `l` for the
    # focus at hand and leaves `r` over as the derived resource d1.
    a, l, r, f = (SemStructure(name) for name in "alrf")
    X, P, Q = Var("X", E), Var("P", E), Var("Q", E)
    lf, rf = Const("lf", arrow(E, E)), Const("rf", arrow(E, E))
    split = Forall(
        MeaningVar("X", E),
        Limp(Atom(a, E, X), Tensor(Atom(l, E, App(lf, X)), Atom(r, E, App(rf, X)))),
    )
    join = Forall(MeaningVar("P", E), Forall(MeaningVar("Q", E), Limp(
        Tensor(Atom(l, E, P), Atom(r, E, Q)),
        Atom(f, T, apply(Const("j", arrow(E, E, T)), P, Q)),
    )))
    (reading,) = derive([Atom(a, E, Const("c", E)), split, join], Goal(f))
    assert format_term(reading.meaning) == "j(lf(c), rf(c))"
    assert "derive [d1] p2: r_σ ~>_e rf(c)" in [s.line() for s in reading.trace]
    audit_linearity(reading, [1, 2, 3])


def test_head_variable_no_antecedent_binds_is_a_non_pattern_error():
    f = SemStructure("f")
    unbound = Forall(MeaningVar("X", E), Atom(f, T, App(Const("p", arrow(E, T)), Var("X", E))))
    with pytest.raises(NonPatternError, match="metavariable\\(s\\) X after"):
        derive([unbound], Goal(f))


# --- search properties -------------------------------------------------------


def _shuffled(premise_set, rng):
    ps = list(premise_set)
    rng.shuffle(ps)
    return [Premise(i + 1, p.formula, p.word, p.label) for i, p in enumerate(ps)]


def test_premise_permutation_invariance(lexicon, bah, modified, everyone_fs, scope_fs):
    rng = random.Random(424242)
    total = 0
    for fs in (bah, modified, everyone_fs, scope_fs):
        base = premises(fs, lexicon)
        expected = meanings(derive(base, Goal(sigma(fs))))
        for _ in range(30):
            shuffled = _shuffled(base, rng)
            assert meanings(derive(shuffled, Goal(sigma(fs)))) == expected
            total += 1
    assert total >= 100


def test_currying_invariance(bah, scope_fs):
    curried_subj_first = (
        "appointed, appoint: forall X:e. (^ SUBJ) ~> X -o"
        " (forall Y:e. (^ OBJ) ~> Y -o ^ ~> appoint(X, Y))"
    )
    curried_obj_first = (
        "appointed, appoint: forall Y:e. (^ OBJ) ~> Y -o"
        " (forall X:e. (^ SUBJ) ~> X -o ^ ~> appoint(X, Y))"
    )
    base_lex = parse_core()
    for fs in (bah, scope_fs):
        expected = meanings(readings_of(fs, base_lex))
        for variant in (curried_subj_first, curried_obj_first):
            lines = [
                line
                for line in CORE.splitlines()
                if not line.startswith("appointed, appoint:")
            ]
            lex = parse_lexicon("\n".join(lines) + "\n" + variant)
            assert meanings(readings_of(fs, lex)) == expected


def test_linearity_audit_on_all_goldens(lexicon, bah, modified, everyone_fs, scope_fs, ditransitive_fs):
    for fs in (bah, modified, everyone_fs, scope_fs, ditransitive_fs):
        ps = premises(fs, lexicon)
        for reading in derive(ps, Goal(sigma(fs)), all_traces=True):
            audit_linearity(reading, [p.index for p in ps])


def test_readings_typecheck_at_goal_type(lexicon, scope_fs, everyone_fs):
    from gluesem.terms import typecheck
    for fs in (scope_fs, everyone_fs):
        for reading in readings_of(fs, lexicon):
            assert typecheck(reading.meaning) == T


def test_readings_pairwise_non_equivalent(lexicon, ditransitive_fs):
    rs = readings_of(ditransitive_fs, lexicon)
    for r1, r2 in itertools.combinations(rs, 2):
        assert not equivalent(r1.meaning, r2.meaning)


def test_hypothesis_constants_cannot_escape_their_scope():
    # forall Y. (forall x. a~>x -o b~>Y) -o d~>r(Y), with a premise that maps
    # a~>Z to b~>Z. The only way to prove the nested antecedent binds Y to the
    # fresh hypothesis itself, which would leak it outside its subproof; the
    # branch must be abandoned, leaving no readings.
    from gluesem.formulas import Forall, MeaningVar

    a, b, d = SemStructure("a"), SemStructure("b"), SemStructure("d")
    r = Const("r", arrow(E, T))
    y, z, x = Var("Y", E), Var("Z", E), Var("x", E)
    quantified = Forall(
        MeaningVar("Y", E),
        Limp(
            Forall(MeaningVar("x", E), Limp(Atom(a, E, x), Atom(b, E, y))),
            Atom(d, T, apply(r, y)),
        ),
    )
    mapper = Forall(MeaningVar("Z", E), Limp(Atom(a, E, z), Atom(b, E, z)))
    ps = [Premise(1, quantified, "quant", ""), Premise(2, mapper, "map", "")]
    assert derive(ps, Goal(d, T)) == ()


def test_open_premises_are_rejected():
    from gluesem.errors import GlueError

    sem = SemStructure("f")
    open_premise = Premise(1, Atom(sem, E, Var("X", E)), "bad", "f")
    with pytest.raises(GlueError):
        derive([open_premise], Goal(sem, E))


@pytest.mark.parametrize("first", ["premise", "bare formula"])
def test_premises_sharing_an_index_are_rejected(first):
    # One premise must not silently stand in for another of the same index;
    # a bare formula is numbered by its position in the list.
    f, g, X = SemStructure("f"), SemStructure("g"), Var("X", E)
    arrive = Forall(MeaningVar("X", E), Limp(
        Atom(g, E, X), Atom(f, T, App(Const("arrive", arrow(E, T)), X))
    ))
    bill = Premise(1, Atom(g, E, Const("Bill", E)), "bill", "g")
    item = Premise(1, arrive, "arrive", "f") if first == "premise" else arrive
    assert derive([Premise(2, arrive, "arrive", "f"), bill], Goal(f))
    with pytest.raises(GlueError, match="share the index 1"):
        derive([item, bill], Goal(f))


_F, _H, _X, _C = SemStructure("f"), SemVar("H"), Var("X", E), Const("c", E)
_SCOPED = Forall(_H, Atom(_H, E, _C))
_UNDER = Lam(E, apply(Const("r", arrow(E, E, T)), BoundVar(0), _X))
_NOT_CLOSED = "premise c[1] is not closed"


@pytest.mark.parametrize(
    "formula,goal,message",
    [
        (Atom(_F, E, _C), Goal("f", E), "goal structure 'f' is not a semantic structure"),
        (Atom(PathRef("up"), E, _C), Goal(_F, E), _NOT_CLOSED),
        (Atom(PathRef("up", ("SUBJ",)), E, _C), Goal(_F, E), _NOT_CLOSED),
        (Atom(_H, E, _C), Goal(_F, E), _NOT_CLOSED),
        (Atom(_F, E, _X), Goal(_F, E), _NOT_CLOSED),
        (Forall(_H, Atom(_H, E, _C)), Goal(_F, E), None),
        (Forall(MeaningVar("X", E), Atom(_F, E, _X)), Goal(_F, E), None),
        # Each binder is scoped to its body.
        (Tensor(_SCOPED, Atom(_F, E, _C)), Goal(_F, E), None),
        (Tensor(_SCOPED, Atom(_H, E, _C)), Goal(_F, E), _NOT_CLOSED),
        (
            Limp(Forall(MeaningVar("X", E), Atom(_F, E, _X)), Atom(_F, E, _X)),
            Goal(_F, E),
            _NOT_CLOSED,
        ),
        # A meaning variable is bound by its name and its type, under
        # abstractions too.
        (Forall(MeaningVar("X", T), Atom(_F, E, _X)), Goal(_F, E), _NOT_CLOSED),
        (Atom(_F, arrow(E, T), _UNDER), Goal(_F, E), _NOT_CLOSED),
        (Forall(MeaningVar("X", E), Atom(_F, arrow(E, T), _UNDER)), Goal(_F, E), None),
    ],
    ids=[
        "goal", "up", "path", "free-structure-variable", "free-meaning-variable",
        "bound-structure-variable", "bound-meaning-variable", "tensor-beside-binder",
        "tensor-past-binder", "antecedent-binder", "binder-of-another-type",
        "free-under-abstraction", "bound-under-abstraction",
    ],
)
def test_uninstantiated_goals_and_premises_are_input_errors(formula, goal, message):
    premise = Premise(1, formula, "c", "f")
    if message is None:
        prover._Search([premise], [goal.sem])  # set-up accepts a closed premise
        return
    with pytest.raises(GlueError) as err:
        derive([premise], goal)
    assert str(err.value) == message


_OPEN = Atom(_H, E, _C)
_ILL = Atom(_F, T, _C)


@pytest.mark.parametrize(
    "premise_list,goal,message",
    [
        # The goal, then the indices, then each premise in index order, its
        # atoms left to right: the first fault met wins.
        ([Premise(1, _ILL, "ill", "f"), Premise(2, _OPEN, "open", "g")], Goal(_F),
         "premise ill[1] is ill-typed: c has type e, not its index type t"),
        ([Premise(1, _OPEN, "open", "g"), Premise(2, _ILL, "ill", "f")], Goal(_F),
         "premise open[1] is not closed"),
        ([Premise(1, Tensor(_ILL, _OPEN), "both", "f")], Goal(_F),
         "premise both[1] is ill-typed: c has type e, not its index type t"),
        ([Premise(1, Atom(PathRef("up"), T, _C), "both", "f")], Goal(_F),
         "premise both[1] is not closed"),
        ([Premise(2, Atom(_F, E, _C), "c", "f"), Premise(2, _OPEN, "open", "g")], Goal(_F),
         "premises c[2] and open[2] share the index 2"),
        ([Premise(1, _OPEN, "open", "g")], Goal("f"),
         "goal structure 'f' is not a semantic structure"),
    ],
    ids=["ill-typed-first", "not-closed-first", "ill-typed-atom-first", "one-atom-both",
         "shared-index", "goal"],
)
def test_the_first_fault_of_a_premise_set_wins(premise_list, goal, message):
    with pytest.raises(GlueError) as err:
        derive(premise_list, goal)
    assert str(err.value) == message


def test_entails_reads_the_consequent_before_the_antecedent():
    open_prop = Atom(_H, T, Const("A", T))
    for antecedent, consequent, message in [
        (open_prop, _ILL, "the consequent is ill-typed: c has type e, not its index type t"),
        (_ILL, open_prop, "formula H ~>_t A is not closed"),
        # A fault in a tensor part names the whole antecedent.
        (Tensor(prop("A"), open_prop), prop("A"), "formula A_σ ~>_t A * H ~>_t A is not closed"),
    ]:
        with pytest.raises(GlueError) as err:
            entails(antecedent, consequent)
        assert str(err.value) == message


def test_a_metavariable_that_normalization_erases_still_derives():
    lexicon = parse_lexicon(
        "constant p : e -> t\nconstant c : e\nx: forall X:e. ^ ~> (\\y:e. p(c))(X)\n"
    )
    fs = parse_fstructure("f:[PRED 'x']")
    (reading,) = derive(premises(fs, lexicon), Goal(sigma(fs)))
    assert str(reading) == "p(c)"


# Entries whose templates take the search off its plain-substitution path:
# `takes` applies its metavariable in its head and, already bound, in its
# second antecedent; `same` meets its bound metavariable again; `applies`
# holds a redex of its own in its head, `redex` in its antecedent; `under`
# binds its metavariable under a binder.
PATHS_LEXICON = r"""constant p : e -> t
constant c : e
constant d : e
constant q : t -> t
constant both : t -> t -> t
takes: forall S:e->t. (^ OBJ) ~>_(e->t) S * (^ SUBJ) ~> S(c) -o ^ ~> q(S(c))
applies: forall S:e->t. (^ OBJ) ~>_(e->t) S -o ^ ~> both(S(c), (\y:e. S(y))(c))
redex: forall X:e. (^ SUBJ) ~> (\y:e. y)(X) -o ^ ~> p(X)
same: forall X:e. (^ SUBJ) ~> X * (^ OBJ) ~> X -o ^ ~> p(X)
under: forall X:t. (^ OBJ) ~>_(e->t) \x:e. X -o ^ ~> X
prop: ^ ~>_(e->t) \x:e. p(x)
name: ^ ~> c
dee: ^ ~> d
claim: ^ ~> p(c)
other: ^ ~> q(p(c))
"""


def paths_trace(text):
    fs = parse_fstructure(text)
    readings = derive(premises(fs, parse_lexicon(PATHS_LEXICON)), Goal(sigma(fs)))
    return [(str(r), [step.line() for step in r.trace]) for r in readings]


def test_a_head_that_applies_a_solved_metavariable_reduces_there():
    # The head `q(S(c))` reduces where the solved `S` is put in. The bound
    # `S` meets `S(c)` in the second antecedent: it is put in and that spine
    # reduced to `p(c)`, which `claim` supplies and `other` does not.
    assert paths_trace("f:[PRED 'takes'; OBJ g:[PRED 'prop']; SUBJ h:[PRED 'claim']]") == [
        (
            "q(p(c))",
            [
                "apply [2] prop: g_σ ~>_(e -> t) \\x. p(x)",
                "apply [3] claim: h_σ ~>_t p(c)",
                "apply [1] takes: f_σ ~>_t q(p(c))  S ↦ \\x. p(x)",
            ],
        )
    ]
    assert paths_trace("f:[PRED 'takes'; OBJ g:[PRED 'prop']; SUBJ h:[PRED 'other']]") == []


def test_a_bound_metavariable_matches_only_its_value():
    (reading,) = paths_trace("f:[PRED 'same'; SUBJ g:[PRED 'name']; OBJ h:[PRED 'name']]")
    assert reading[0] == "p(c)"
    assert paths_trace("f:[PRED 'same'; SUBJ g:[PRED 'name']; OBJ h:[PRED 'dee']]") == []


def test_a_head_with_a_redex_of_its_own_is_normalized():
    assert paths_trace("f:[PRED 'applies'; OBJ g:[PRED 'prop']]") == [
        (
            "both(p(c), p(c))",
            [
                "apply [2] prop: g_σ ~>_(e -> t) \\x. p(x)",
                "apply [1] applies: f_σ ~>_t both(p(c), p(c))  S ↦ \\x. p(x)",
            ],
        )
    ]


def test_an_antecedent_pattern_with_a_redex_of_its_own_is_normalized():
    assert paths_trace("f:[PRED 'redex'; SUBJ g:[PRED 'name']]") == [
        (
            "p(c)",
            ["apply [2] name: g_σ ~>_e c", "apply [1] redex: f_σ ~>_t p(c)  X ↦ c"],
        )
    ]


def test_a_search_binding_that_would_capture_a_bound_variable_is_an_explicit_error():
    with pytest.raises(NonPatternError, match="capture a bound variable"):
        paths_trace("f:[PRED 'under'; OBJ g:[PRED 'prop']]")


def test_an_ill_typed_premise_is_an_error_before_the_search():
    f, g = SemStructure("f"), SemStructure("g")
    X, p = Var("X", E), Const("p", arrow(E, T))
    plain = [Atom(f, T, Const("c", E))]
    templated = [
        Atom(g, T, Const("c", T)),
        Forall(MeaningVar("X", E), Limp(Atom(g, T, X), Atom(f, T, App(p, X)))),
    ]
    unappliable = [Atom(f, T, App(Const("c", E), Const("d", E)))]
    with pytest.raises(GlueError, match=r"p1\[1\] is ill-typed: c has type e, not its index type t"):
        derive(plain, Goal(f))
    with pytest.raises(GlueError, match=r"p2\[2\] is ill-typed: X has type e, not its index type t"):
        derive(templated, Goal(f))
    with pytest.raises(GlueError, match=r"premise p1\[1\] is ill-typed: cannot apply"):
        derive(unappliable, Goal(f))
    with pytest.raises(GlueError, match="ill-typed"):
        entails(Atom(f, T, Const("c", E)), prop("f"))
    # The consequent's antecedent is assumed as a hypothesis: it is checked too.
    Xt, c = Var("X", T), Const("c", E)
    with pytest.raises(GlueError, match="the consequent is ill-typed: c has type e"):
        entails(
            Forall(MeaningVar("X", T), Limp(Atom(g, T, Xt), Atom(f, T, Xt))),
            Limp(Atom(g, T, c), Atom(f, T, c)),
        )


def test_tidy_hints_rebuilds_only_suffixed_binders():
    r = Const("r", arrow(E, E, T))
    tidy = Lam(E, Lam(E, apply(r, BoundVar(1), BoundVar(0)), "y"), "x")
    assert prover._tidy_hints(tidy) is tidy
    suffixed = Lam(E, tidy[2], "x2")
    tidied = prover._tidy_hints(suffixed)
    assert tidied.hint == "x" and tidied.body is tidy.body


def test_a_reading_is_the_meaning_its_last_step_applied(lexicon, everyone_fs, modified):
    # Binder hints without a suffix are kept as they are, so printing a
    # reading and its trace formats its meaning once.
    for fs, text in [
        (everyone_fs, "every(person, \\z. convince(Bill, z))"),
        (modified, "obviously(appoint(Bill, Hillary))"),
    ]:
        (reading,) = readings_of(fs, lexicon)
        last = reading.trace[-1]
        assert last.kind == "apply" and last.atom.meaning is reading.meaning
        assert format_term(reading.meaning) == text


def test_substitute_meanings_crosses_tensors_and_respects_rebinding():
    f, H = SemStructure("f"), SemVar("H")
    X, Y, bill = Var("X", E), Var("Y", E), Const("Bill", E)
    pair = Tensor(Atom(f, E, X), Atom(f, E, Y))
    assert pair.substitute_meanings({X: bill}) == Tensor(Atom(f, E, bill), Atom(f, E, Y))
    rebound = Forall(MeaningVar("X", E), Atom(f, E, X))
    assert rebound.substitute_meanings({X: bill}) is rebound
    assert Forall(MeaningVar("X", E), pair).substitute_meanings({X: bill, Y: bill}) == Forall(
        MeaningVar("X", E), Tensor(Atom(f, E, X), Atom(f, E, bill))
    )
    assert Forall(H, Forall(MeaningVar("Y", E), pair)).substitute_meanings({X: bill}) == Forall(
        H, Forall(MeaningVar("Y", E), Tensor(Atom(f, E, bill), Atom(f, E, Y)))
    )


def test_substitute_meanings_is_hereditary():
    f, c = SemStructure("f"), Const("c", E)
    S, p = Var("S", arrow(E, T)), Const("p", arrow(E, T))
    body = Lam(E, App(p, BoundVar(0)), "y")
    formula = Limp(Atom(f, T, App(S, c)), Atom(f, T, App(Const("q", arrow(T, T)), App(S, c))))
    assert formula.substitute_meanings({S: body}) == Limp(
        Atom(f, T, App(p, c)), Atom(f, T, App(Const("q", arrow(T, T)), App(p, c)))
    )


def test_derive_is_deterministic(lexicon, scope_fs):
    first = readings_of(scope_fs, lexicon, all_traces=True)
    second = readings_of(scope_fs, lexicon, all_traces=True)
    assert [r.meaning for r in first] == [r.meaning for r in second]
    assert [r.traces for r in first] == [r.traces for r in second]


# --- oracle agreement --------------------------------------------------------


def oracle_meanings(premise_set, goal):
    formulas = tuple(p.formula for p in premise_set)
    universe = {goal.sem}  # and every structure an atom of a premise names
    stack = list(formulas)
    while stack:
        match stack.pop():
            case Atom(sem):
                if isinstance(sem, SemStructure):
                    universe.add(sem)
            case Tensor(left, right) | Limp(left, right):
                stack += (left, right)
            case Forall(_, body):
                stack.append(body)
    universe = sorted(universe, key=lambda s: s.label)
    return enumerate_readings(formulas, goal.sem, goal.ty, universe)


def test_oracle_agreement_on_golden_premise_subsets(lexicon, bah, modified, everyone_fs, scope_fs):
    for fs in (bah, modified, everyone_fs, scope_fs):
        ps = list(premises(fs, lexicon))
        goal = Goal(sigma(fs))
        for r in range(1, len(ps) + 1):
            for chosen in itertools.combinations(ps, r):
                subset = [Premise(i + 1, p.formula, p.word, p.label) for i, p in enumerate(chosen)]
                mine = meanings(derive(subset, goal))
                assert mine == oracle_meanings(subset, goal), (
                    f"disagreement on {[p.word for p in subset]}"
                )


def _random_premise_set(rng: random.Random):
    sems = [SemStructure(f"s{i}") for i in range(4)]
    root = sems[0]
    consts = {"c1": Const("c1", E), "c2": Const("c2", E)}
    fns = {
        "p": Const("p", arrow(E, T)),
        "q": Const("q", arrow(E, T)),
        "join": Const("join", arrow(E, E, T)),
        "lift": Const("lift", arrow(T, T)),
        "quant": Const("quant", arrow(arrow(E, T), T)),
    }
    out = []
    n = rng.randint(2, 6)
    for i in range(n):
        kind = rng.choice(["atom", "imp1", "imp2", "mod", "quantifier"])
        if kind == "atom":
            out.append(Atom(rng.choice(sems[1:]), E, rng.choice(list(consts.values()))))
        elif kind == "imp1":
            x = Var("X", E)
            src = rng.choice(sems[1:])
            out.append(
                _forall_meaning(
                    "X", E, Limp(Atom(src, E, x), Atom(root, T, apply(fns["p"], x)))
                )
            )
        elif kind == "imp2":
            x, y = Var("X", E), Var("Y", E)
            s1, s2 = rng.sample(sems[1:], 2)
            body = Limp(
                Tensor(Atom(s1, E, x), Atom(s2, E, y)),
                Atom(root, T, apply(fns["join"], x, y)),
            )
            out.append(_forall_meaning("X", E, _forall_meaning("Y", E, body)))
        elif kind == "mod":
            p = Var("P", T)
            out.append(
                _forall_meaning("P", T, Limp(Atom(root, T, p), Atom(root, T, apply(fns["lift"], p))))
            )
        else:
            src = rng.choice(sems[1:])
            s = Var("S", arrow(E, T))
            x = Var("x", E)
            inner = Limp(Atom(src, E, x), Atom(root, T, apply(s, x)))
            body = Limp(
                _forall_meaning("x", E, inner), Atom(root, T, apply(fns["quant"], s))
            )
            out.append(_forall_meaning("S", arrow(E, T), body))
    return [Premise(i + 1, f, f"p{i + 1}", "") for i, f in enumerate(out)], Goal(root, T)


def _forall_meaning(name, ty, body):
    from gluesem.formulas import Forall, MeaningVar

    return Forall(MeaningVar(name, ty), body)


def test_oracle_agreement_on_stacked_quantifiers(lexicon, ditransitive_fs):
    # Reading count for three stacked quantified NPs over a ditransitive
    # must equal the brute-force enumerator's count.
    ps = premises(ditransitive_fs, lexicon)
    goal = Goal(sigma(ditransitive_fs))
    mine = meanings(derive(ps, goal))
    oracle = oracle_meanings(list(ps), goal)
    assert mine == oracle
    assert len(mine) == 6


# Random sentences over core.lex: a verb, a name or a quantified nominal for
# each argument, up to three `obviously` modifiers, and sometimes an argument
# absent, empty or extra. The expected status follows from the f-structure
# alone.
VERBS = {1: ["arrive"], 2: ["appoint", "convince", "devour"], 3: ["give"]}
NOMINALS = {
    "PRED 'Bill'": False, "PRED 'Hillary'": False, "PRED 'John'": False,
    "PRED 'everyone'": True, "SPEC every; PRED 'candidate'": True,
    "SPEC a; PRED 'manager'": True, "SPEC some; PRED 'brief'": True,
}  # attributes -> whether the nominal is quantified


@st.composite
def core_sentences(draw):
    """(f-structure text, expected status, quantified arguments, modifiers)."""
    arity = draw(st.integers(1, 3))
    functions = ["SUBJ", "OBJ", "OBJ2"][:arity]
    args = {fn: draw(st.sampled_from(sorted(NOMINALS))) for fn in functions}
    defect = draw(st.sampled_from([None, None, "absent", "empty"]))
    if defect:
        fn = draw(st.sampled_from(functions))
        if defect == "absent":
            del args[fn]
        else:
            args[fn] = ""
    extra = draw(st.none() | st.sampled_from(sorted(NOMINALS)))
    k = draw(st.integers(0, 3))
    parts = [f"PRED '{draw(st.sampled_from(VERBS[arity]))}'"]
    parts += [f"{fn} a{i}:[{attrs}]" for i, (fn, attrs) in enumerate(args.items())]
    if extra:
        parts.append(f"ADJ x:[{extra}]")
    if k:
        parts.append("MODS { " + "; ".join(f"m{j}:[PRED 'obviously']" for j in range(k)) + " }")
    if defect == "absent":
        status = UNINSTANTIABLE
    elif defect == "empty":
        status = INCOMPLETE_INCOHERENT if extra else INCOMPLETE
    else:
        status = INCOHERENT if extra else OK
    q = sum(NOMINALS.get(attrs, False) for attrs in args.values())
    return "f:[" + "; ".join(parts) + "]", status, q, k


@settings(max_examples=60, deadline=None, database=None)
@given(core_sentences())
def test_core_sentences_match_the_oracle_and_the_expected_status(lexicon, sentence):
    text, status, q, k = sentence
    root = parse_fstructure(text)
    diagnosis = diagnose(root, lexicon)
    assert diagnosis.status == status, text
    if status != OK:
        assert diagnosis.readings == ()
        return
    # One scope order of the q quantifiers interleaved with k identical
    # modifiers per reading.
    count = math.factorial(q + k) // math.factorial(k)
    assert len(diagnosis.readings) == count, text
    if count <= 20:  # beyond that the brute-force oracle takes seconds
        premise_set = list(premises(root, lexicon))
        expected = oracle_meanings(premise_set, Goal(sigma(root)))
        assert {canonical_form(r.meaning) for r in diagnosis.readings} == expected, text


def test_oracle_agreement_on_random_mixes():
    rng = random.Random(20240808)
    checked = 0
    for _ in range(60):
        premise_set, goal = _random_premise_set(rng)
        mine = meanings(derive(premise_set, goal))
        assert mine == oracle_meanings(premise_set, goal)
        checked += 1
    assert checked == 60


# --- unify inside derivations -------------------------------------------------


def test_unify_consistent_with_derived_scope(lexicon, everyone_fs):
    # The scope the prover reports must be reproducible by the public unify op.
    rs = readings_of(everyone_fs, lexicon)
    meaning = rs[0].meaning
    sig = arrow(arrow(E, T), arrow(E, T), T)
    head, args = meaning, []
    from gluesem.terms import spine
    head, args = spine(meaning)
    assert head == Const("every", sig)
    scope = args[1]
    s = Var("S", arrow(E, T))
    from gluesem.terms import HypConst, normalize
    c = HypConst("z", E, 1)
    subst = unify(apply(s, c), normalize(apply(scope, c)))
    assert equivalent(subst[s], scope)


# --- cost: one derivation per reading -----------------------------------------


def obviously_appoint(k: int):
    return parse_fstructure(deep_clause(k))


def counted_prove_atom_calls(monkeypatch) -> list:
    """A list that gains an item at each later `prove_atom` call."""
    calls = []
    prove_atom = prover._Search.prove_atom

    def counting(self, *args, **kwargs):
        calls.append(None)
        return prove_atom(self, *args, **kwargs)

    monkeypatch.setattr(prover._Search, "prove_atom", counting)
    return calls


def test_twin_modifiers_cost_grows_linearly(lexicon, monkeypatch):
    # k identical `obviously` premises have k! derivations of one reading;
    # the default search explores one of them.
    calls = counted_prove_atom_calls(monkeypatch)
    counts = []
    for k in range(1, 7):
        calls.clear()
        (reading,) = readings_of(obviously_appoint(k), lexicon)
        assert len(reading.traces) == 1
        counts.append(len(calls))
    assert counts == [3 * k + 3 for k in range(1, 7)]


AGAIN = """
constant again : t -> t
again: forall P:t. (forall w:e. (mod ^) ~>_e w -o (mod ^) ~>_e w) -o (mod ^) ~> P -o (mod ^) ~> again(P)
"""


def test_twin_premises_with_a_goal_binder_stay_one_twin_class(monkeypatch):
    # Set-up renames the five `w` binders apart (`w` to `w5`), but twin
    # classes come from the formulas as written, so the five copies are
    # still consumed in index order and one derivation is explored.
    calls = counted_prove_atom_calls(monkeypatch)
    mods = "; ".join(f"m{i}:[PRED 'again']" for i in range(5))
    fs = parse_fstructure(
        f"f:[PRED 'appoint'; SUBJ g:[PRED 'Bill']; OBJ h:[PRED 'Hillary']; MODS {{ {mods} }}]"
    )
    (reading,) = readings_of(fs, parse_core(AGAIN))
    assert str(reading) == "again(again(again(again(again(appoint(Bill, Hillary))))))"
    assert len(calls) == 23
    discharged = [s.word for s in reading.trace if s.kind == "discharge"]
    assert sorted(discharged) == ["w", "w2", "w3", "w4", "w5"]


def discharged_by(trace):
    """(hypothesis name, index of the premise whose binder it instantiates)
    for each `discharge` step, read from the `apply` step that follows it."""
    lines = [step.line() for step in trace]
    return {
        (line.split()[1], int(after.split()[1].strip("[]")))
        for line, after in zip(lines, lines[1:])
        if line.startswith("discharge ")
    }


def test_hypotheses_take_their_binders_names_per_sentence(lexicon):
    # Both quantifiers bind `u`: the earlier premise keeps it and the later
    # one's binder is renamed `u2` once, so every reading shows the same
    # names, whichever scope it gives them.
    fs = parse_fstructure(
        "f:[PRED 'appoint'; SUBJ g:[SPEC every; PRED 'candidate'];"
        " OBJ h:[SPEC every; PRED 'candidate']]"
    )
    readings = readings_of(fs, lexicon, all_traces=True)
    assert len(readings) == 2
    for reading in readings:
        for trace in reading.traces:
            assert discharged_by(trace) == {("u", 2), ("u2", 3)}


def test_a_renamed_binder_skips_a_name_another_binder_has():
    # Premise 4's quantifier binds `u2` itself, so premise 3's second `u`
    # becomes `u3`, not a second `u2`.
    lexicon = parse_core(
        "every-manager: forall G, R:e->t. (forall u2:e. ^ ~> u2 -o G ~>_t R(u2))"
        " -o G ~>_t every(manager, R)\n"
    )
    fs = parse_fstructure(
        "f:[PRED 'give'; SUBJ g:[SPEC every; PRED 'candidate'];"
        " OBJ h:[SPEC every; PRED 'candidate']; OBJ2 i:[SPEC every; PRED 'manager']]"
    )
    readings = readings_of(fs, lexicon)
    assert len(readings) == 6
    for reading in readings:
        assert discharged_by(reading.trace) == {("u", 2), ("u3", 3), ("u2", 4)}


@pytest.mark.parametrize("q,k", [(q, k) for q, k in grid_cells() if q + k <= 5])
def test_the_canonical_trace_is_the_first_of_all_traces(lexicon, q, k):
    # A trace shows only what its derivation holds, so the canonical search
    # and the search in every order print the same first trace.
    root = parse_fstructure(grid_fstructure(q, k))
    premise_list, goal = premises(root, lexicon), Goal(sigma(root))
    canonical = derive(premise_list, goal)
    every = derive(premise_list, goal, all_traces=True)
    assert [str(r) for r in canonical] == [str(r) for r in every]
    for one, all_of_them in zip(canonical, every):
        assert [s.line() for s in one.trace] == [s.line() for s in all_of_them.traces[0]]


def test_modifier_chain_term_work_grows_less_than_fourfold_per_doubling(lexicon, monkeypatch):
    # Each modifier hands the clause meaning back. Substituting it into
    # `obviously(P)` makes no redex and `P` takes its type from the goal atom,
    # so no level re-normalizes or re-typechecks the meaning it was given;
    # when every level did, the work grew about sevenfold per doubling. The
    # work counted runs from instantiation on, each template's compile
    # included.
    counts = {"_beta": 0, "_typecheck": 0}
    for name in counts:
        walk = getattr(terms, name)

        def counting(*args, name=name, walk=walk):
            counts[name] += 1
            return walk(*args)

        monkeypatch.setattr(terms, name, counting)
    work = []
    for k in (40, 80):
        fs = obviously_appoint(k)
        for name in counts:
            counts[name] = 0
        # Through a lexicon that has compiled nothing, so that each
        # template's one compile counts too.
        fresh = Lexicon()
        fresh.update(lexicon)
        premise_set = premises(fs, fresh)
        (reading,) = derive(premise_set, Goal(sigma(fs)))
        work.append(dict(counts))
    for name in counts:
        assert 0 < work[1][name] < 4 * work[0][name], (name, work)


# --- nesting: stack cost per focus, and running out of stack -----------------


def deepest_stack(fn) -> int:
    """The most Python frames (generator resumptions included) stacked
    below the caller while `fn()` runs."""
    depth = deepest = 0

    def profile(frame, event, arg):
        nonlocal depth, deepest
        if event == "call":
            depth += 1
            deepest = max(deepest, depth)
        elif event == "return":
            depth -= 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return deepest


def test_each_nested_focus_costs_at_most_two_frames(lexicon):
    # Each modifier's antecedent is proved inside the next modifier's focus;
    # one level is one goal routine and one focus routine.
    deepest = {}
    for k in (10, 20):
        fs = obviously_appoint(k)
        premise_set = premises(fs, lexicon)
        deepest[k] = deepest_stack(lambda: derive(premise_set, Goal(sigma(fs))))
    assert deepest[20] - deepest[10] <= 2 * 10


@contextlib.contextmanager
def stack_headroom(frames: int):
    """Lower the recursion limit to `frames` above the current stack."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_running_out_of_stack_is_a_search_bound_error(lexicon):
    fs = obviously_appoint(100)
    with stack_headroom(150), pytest.raises(SearchBoundError, match="too deep for the interpreter"):
        diagnose(fs, lexicon)


def test_cli_reports_running_out_of_stack_as_an_input_error(tmp_path):
    path = tmp_path / "deep.fs"
    path.write_text(format_fstructure(obviously_appoint(100)), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with stack_headroom(150):
        code = run(RunConfig(str(path), str(FIXTURES / "core.lex")), out, err)
    assert code == 1
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_all_traces_keeps_every_twin_order(lexicon, k):
    (reading,) = readings_of(obviously_appoint(k), lexicon, all_traces=True)
    # Each of the k! orders of the modifiers, times both argument orders.
    assert len(set(reading.traces)) == len(reading.traces) == 2 * math.factorial(k)
    modifier_orders = {
        tuple(s.resource for s in trace if s.kind == "apply" and s.word == "obviously")
        for trace in reading.traces
    }
    assert len(modifier_orders) == math.factorial(k)


def test_default_mode_keeps_only_the_canonical_trace():
    # Two equal formulas under different words are not twins: both orders
    # are derived, but only the first-found derivation is rendered.
    A, B = prop("A"), prop("B")
    premise_set = [A, A, Limp(A, Limp(A, B))]
    (reading,) = derive(premise_set, Goal(B.sem))
    (every,) = derive(premise_set, Goal(B.sem), all_traces=True)
    assert len(every.traces) == 2
    assert reading.traces == every.traces[:1]


def test_default_mode_formats_no_formula_until_a_trace_is_read(lexicon, scope_fs, monkeypatch):
    # The search records trace steps; only `line()` formats them. With
    # `all_traces` too: derivations are told apart by their steps.
    from gluesem import formulas
    from search_inputs import grid_fstructure

    calls = []
    format_formula = formulas.format_formula

    def counting(formula):
        calls.append(formula)
        return format_formula(formula)

    monkeypatch.setattr(formulas, "format_formula", counting)
    for fs in (scope_fs, parse_fstructure(grid_fstructure(2, 2))):
        premise_set = premises(fs, lexicon)
        for all_traces in (False, True):
            calls.clear()
            readings = derive(premise_set, Goal(sigma(fs)), all_traces=all_traces)
            assert readings and calls == []
            lines = [step.line() for step in readings[0].trace]
            assert lines and calls


# --- atomic subproofs hand back closed meanings -------------------------------


def test_prove_atom_yields_closed_meanings_equal_to_readings(lexicon, scope_fs):
    # A focus solves its own metavariables, so what an atomic goal yields is
    # a closed meaning the caller unifies with its pattern.
    premise_list = list(premises(scope_fs, lexicon))
    goal = sigma(scope_fs)
    engine = prover._Search(premise_list, [goal])
    complete = []
    for meaning, avail, _steps in engine.prove_atom(goal, T, engine.premise_mask, True):
        assert not free_vars(meaning) and not hyp_consts(meaning)
        if not avail:
            complete.append(canonical_form(meaning))
    assert set(complete) == meanings(derive(premise_list, Goal(goal)))
    assert len(set(complete)) == 2


def test_hypothesis_must_not_leak_into_its_focus_bindings():
    # P is bound outside `forall x`, so it may not absorb x: the only proof
    # of f ~> P under g ~> x gives P = arrive(x), and there is no reading.
    g, f = SemStructure("g"), SemStructure("f")
    X, P, x = Var("X", E), Var("P", T), Var("x", E)
    arrive = Forall(
        MeaningVar("X", E), Limp(Atom(g, E, X), Atom(f, T, App(Const("arrive", arrow(E, T)), X)))
    )
    ignore = Forall(
        MeaningVar("P", T),
        Limp(
            Forall(MeaningVar("x", E), Limp(Atom(g, E, x), Atom(f, T, P))),
            Atom(f, T, Const("done", T)),
        ),
    )
    assert derive([arrive, ignore], Goal(f)) == ()


def test_premise_rebinding_a_meaning_variable_is_an_explicit_error():
    # A focus solves its metavariables under their declared names, so a
    # quantifier that shadows one along the premise's spine is refused
    # rather than merged with it.
    g, h, f = SemStructure("g"), SemStructure("h"), SemStructure("f")
    X = Var("X", E)
    shadowing = Forall(
        MeaningVar("X", E),
        Limp(
            Atom(g, E, X),
            Forall(MeaningVar("X", E), Limp(Atom(h, E, X), Atom(f, T, App(Const("arrive", arrow(E, T)), X)))),
        ),
    )
    names = [Atom(g, E, Const("Bill", E)), Atom(h, E, Const("John", E))]
    with pytest.raises(GlueError, match="rebinds the meaning variable X:e"):
        derive([shadowing, *names], Goal(f))


def test_an_inner_structure_quantifier_on_the_spine_shadows_the_outer_one():
    # The outer H reaches the antecedent before the inner quantifier, the
    # inner one the antecedent and head after it; the apply line shows both.
    g, a, f = SemStructure("g"), SemStructure("a"), SemStructure("f")
    H, c, done = SemVar("H"), Const("c", E), Const("done", T)
    shadowing = Forall(H, Limp(Atom(H, E, c), Forall(H, Limp(Atom(a, E, c), Atom(H, T, done)))))
    (reading,) = derive([Atom(g, E, c), Atom(a, E, c), shadowing], Goal(f))
    assert reading.trace[-1].line() == "apply [3] p3: f_σ ~>_t done  H ↦ g_σ, H ↦ f_σ"
    # In a tensor head the inner H reaches the other component too, which
    # the focus derives at f: by default p3 applies its d head, and in
    # every order its done head as well.
    sets = {name: (premise_list, goal) for name, premise_list, goal in structure_variable_sets()}
    premise_list, goal = sets["shadowed tensor head"]
    for all_traces, count, heads in [
        (False, 1, {"f_σ ~>_e d"}), (True, 4, {"f_σ ~>_e d", "f_σ ~>_t done"})
    ]:
        (reading,) = derive(premise_list, goal, all_traces)
        assert str(reading) == "both(d, done)" and len(reading.traces) == count
        applied = set()
        for trace in reading.traces:
            lines = [step.line() for step in trace]
            assert len([line for line in lines if line.startswith("derive [d1] p3: f_σ ~>_")]) == 1
            (line,) = [line for line in lines if line.startswith("apply [3] p3: ")]
            head, bindings = line.removeprefix("apply [3] p3: ").split("  ")
            assert bindings == "H ↦ g_σ, H ↦ f_σ"
            applied.add(head)
        assert applied == heads


# --- set-up normalizes once; the search never again -----------------------------


FIXTURE_NAMES = sorted(path.name for path in FIXTURES.glob("*.fs"))


def test_the_search_normalizes_nothing_after_set_up(lexicon, monkeypatch):
    # A template's meanings are normalized once, when it compiles; set-up
    # fills compiled forms, and every substitution after it is hereditary,
    # so no goal, head, trace step or reading is normalized, and nothing is
    # compiled, whether a lexicon compiled the premises or the search did.
    calls = {"normalize": 0, "canonical_form": 0, "compile_formula": 0}
    set_up = [False]
    init = prover._Search.__init__

    def initialize(self, *args, **kwargs):
        set_up[0] = False
        init(self, *args, **kwargs)
        set_up[0] = True

    monkeypatch.setattr(prover._Search, "__init__", initialize)
    for name, owners in [
        ("normalize", (prover, terms)),
        ("canonical_form", (prover, terms)),
        ("compile_formula", (prover, lexicon_module)),
    ]:
        walk = getattr(owners[0], name, None) or getattr(owners[1], name)

        def counting(*args, name=name, walk=walk, **kwargs):
            calls[name] += set_up[0]
            return walk(*args, **kwargs)

        for owner in owners:
            monkeypatch.setattr(owner, name, counting, raising=False)
    for name in FIXTURE_NAMES:
        fs = parse_fstructure((FIXTURES / name).read_text(encoding="utf-8"))
        for all_traces in (False, True):
            set_up[0] = False  # instantiation compiles what is new
            diagnosis = diagnose(fs, lexicon, all_traces=all_traces)
            for reading in diagnosis.readings:
                for trace in reading.traces:
                    assert all(step.line() for step in trace)
            with contextlib.suppress(GlueError):
                premise_list = list(premises(fs, lexicon))
                set_up[0] = False
                derive(premise_list, Goal(sigma(fs)), all_traces)
    assert set_up[0] and calls == {"normalize": 0, "canonical_form": 0, "compile_formula": 0}


@pytest.mark.parametrize("name", ["scope.fs", "twin_scope.fs", "ditransitive_scope.fs"])
def test_no_failure_is_recorded_after_the_first_reading(lexicon, monkeypatch, name):
    # A search with readings reports no frontier, so once it has one it
    # records no failed goal.
    late = []
    record = prover._Search.record_failure

    def recording(self, *args):
        if self.strict:
            late.append(args)
        return record(self, *args)

    monkeypatch.setattr(prover._Search, "record_failure", recording)
    fs = parse_fstructure((FIXTURES / name).read_text(encoding="utf-8"))
    assert diagnose(fs, lexicon).readings
    assert late == []


# `obviously` and `every-candidate` with redexes in every position the search
# meets: a modifier's antecedent and head, a quantifier's assumed hypothesis
# and the scope it proves.
REDEX_TEMPLATES = {
    "obviously: forall P:t. (mod ^) ~> P -o (mod ^) ~> obviously(P)":
        r"obviously: forall P:t. (mod ^) ~> (\p. p)(P) -o (mod ^) ~> (\q. obviously(q))(P)",
    "every-candidate: forall G, R:e->t. (forall u:e. ^ ~> u -o G ~>_t R(u))"
    " -o G ~>_t every(candidate, R)":
        r"every-candidate: forall G, R:e->t. (forall u:e. ^ ~> (\y. y)(u)"
        r" -o G ~>_t (\s. s)(R(u))) -o G ~>_t every(candidate, R)",
}


@pytest.mark.parametrize("name", ["scope.fs", "twin_scope.fs", "modified.fs"])
@pytest.mark.parametrize(
    "flags", [(), ("--trace",), ("--all-traces",), ("--json", "--all-traces")], ids=" ".join
)
def test_templates_with_redexes_print_what_their_normal_forms_print(tmp_path, name, flags):
    text = CORE
    for plain, redex in REDEX_TEMPLATES.items():
        assert text.count(plain) == 1
        text = text.replace(plain, redex)
    (tmp_path / "redex.lex").write_text(text, encoding="utf-8")
    outputs = []
    for lex in (FIXTURES / "core.lex", tmp_path / "redex.lex"):
        out, err = io.StringIO(), io.StringIO()
        argv = ["derive", "--fstructure", str(FIXTURES / name), "--lexicon", str(lex), *flags]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        outputs.append((code, out.getvalue(), err.getvalue()))
    assert outputs[0][1] and outputs[1] == outputs[0]
