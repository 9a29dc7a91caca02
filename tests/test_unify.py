"""Pattern unification for meaning terms."""

from __future__ import annotations

import itertools

import pytest

from gluesem.errors import NonPatternError
from gluesem.semtypes import E, T, arrow
from gluesem.terms import (
    BoundVar,
    Const,
    HypConst,
    Lam,
    Var,
    apply,
    equivalent,
    normalize,
    substitute,
)
from gluesem.prover import unify

BILL = Const("Bill", E)
CONVINCE = Const("convince", arrow(E, E, T))
APPOINT = Const("appoint", arrow(E, E, T))
HILLARY = Const("Hillary", E)
_STAMPS = itertools.count(1)


def hyp(name="x"):
    return HypConst(name, E, next(_STAMPS))


def test_first_order_binding():
    x = Var("X", E)
    subst = unify(x, BILL)
    assert subst == {x: BILL}


def test_pattern_solution_abstracts_the_hypothesis():
    x = hyp()
    s = Var("S", arrow(E, T))
    subst = unify(apply(s, x), apply(CONVINCE, BILL, x))
    assert subst is not None
    solution = subst[s]
    # Beta-expanding the solution at the hypothesis reproduces the input.
    assert normalize(apply(solution, x)) == apply(CONVINCE, BILL, x)
    assert equivalent(solution, unify(apply(Var("S", arrow(E, T)), x), apply(CONVINCE, BILL, x))[Var("S", arrow(E, T))])


def test_pattern_solution_abstracts_every_occurrence():
    x = hyp()
    s = Var("S", arrow(E, T))
    subst = unify(apply(s, x), apply(APPOINT, x, x))
    assert normalize(apply(subst[s], BILL)) == apply(APPOINT, BILL, BILL)


def test_unique_solution_under_pattern_restriction():
    x = hyp()
    s = Var("S", arrow(E, T))
    first = unify(apply(s, x), apply(CONVINCE, BILL, x))
    second = unify(apply(s, x), apply(CONVINCE, BILL, x))
    assert first == second


def test_structural_failure_returns_none():
    assert unify(BILL, Const("Hillary", E)) is None


def test_type_mismatch_fails_rather_than_binding():
    assert unify(Var("X", T), BILL) is None


def test_non_pattern_application_is_an_explicit_error():
    s = Var("S", arrow(E, T))
    with pytest.raises(NonPatternError):
        unify(apply(s, BILL), apply(CONVINCE, BILL, BILL))


def test_repeated_pattern_arguments_are_an_explicit_error():
    x = hyp()
    s = Var("S", arrow(E, arrow(E, T)))
    with pytest.raises(NonPatternError):
        unify(apply(s, x, x), apply(APPOINT, x, x))


def test_metavariables_on_closed_side_are_an_explicit_error():
    with pytest.raises(NonPatternError):
        unify(Var("X", E), Var("Y", E))


def test_binding_that_would_capture_a_bound_variable_is_an_explicit_error():
    # Unifying under the binders leaves X facing the dangling index #0.
    with pytest.raises(NonPatternError, match="capture a bound variable"):
        unify(Lam(E, Var("X", E)), Lam(E, BoundVar(0)))


def test_occurs_through_substitution():
    x, y = Var("X", E), BILL
    subst = unify(x, y)
    assert substitute(x, subst) == BILL


def test_rigid_application_pattern_unifies_argument_by_argument():
    x = Var("X", E)
    assert unify(apply(APPOINT, x, BILL), apply(APPOINT, HILLARY, BILL)) == {x: HILLARY}
    assert unify(apply(APPOINT, x, BILL), apply(APPOINT, HILLARY, HILLARY)) is None
    assert unify(apply(APPOINT, x, BILL), apply(CONVINCE, HILLARY, BILL)) is None


def test_binder_type_clash_under_an_abstraction_fails():
    assert unify(Lam(E, Var("Q", T)), Lam(T, Const("rain", T))) is None
    assert unify(Lam(E, Var("Q", T)), Lam(E, Const("rain", T))) == {Var("Q", T): Const("rain", T)}
