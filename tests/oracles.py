"""Independent oracles the test suite checks the package against.

Three deliberately naive implementations live here so the real code never
checks itself: a named-variable lambda evaluator (explicit capture-avoiding
substitution, one redex at a time), a forward-chaining enumerator for linear
deductions that replaces unification with exhaustive matching and, last, the
scope-grid readings in closed form, built from strings alone.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from gluesem.semtypes import ArrowType, E, SemType, T
from gluesem import terms
from gluesem.formulas import Atom, Forall, Limp, MeaningVar, Tensor
from gluesem.terms import MeaningTerm

# Stamps for the oracle's hypothesis constants, unique within the process.
_STAMPS = itertools.count(1)

# ---------------------------------------------------------------------------
# Named lambda terms and a one-step-at-a-time beta/eta normalizer.


@dataclass(frozen=True)
class NConst:
    name: str
    ty: SemType


@dataclass(frozen=True)
class NVar:
    name: str
    ty: SemType


@dataclass(frozen=True)
class NLam:
    var: str
    var_ty: SemType
    body: object


@dataclass(frozen=True)
class NApp:
    fun: object
    arg: object


_rename_counter = itertools.count(1)


def n_free(t) -> set[str]:
    if isinstance(t, NVar):
        return {t.name}
    if isinstance(t, NConst):
        return set()
    if isinstance(t, NLam):
        return n_free(t.body) - {t.var}
    return n_free(t.fun) | n_free(t.arg)


def n_subst(t, name: str, repl):
    if isinstance(t, NVar):
        return repl if t.name == name else t
    if isinstance(t, NConst):
        return t
    if isinstance(t, NApp):
        return NApp(n_subst(t.fun, name, repl), n_subst(t.arg, name, repl))
    if isinstance(t, NLam):
        if t.var == name:
            return t
        if t.var in n_free(repl):
            fresh = f"{t.var}_{next(_rename_counter)}"
            renamed = n_subst(t.body, t.var, NVar(fresh, t.var_ty))
            return NLam(fresh, t.var_ty, n_subst(renamed, name, repl))
        return NLam(t.var, t.var_ty, n_subst(t.body, name, repl))
    raise AssertionError(t)


def n_beta_step(t):
    """Contract the leftmost-outermost beta redex, or return None."""
    if isinstance(t, NApp):
        if isinstance(t.fun, NLam):
            return n_subst(t.fun.body, t.fun.var, t.arg)
        fun = n_beta_step(t.fun)
        if fun is not None:
            return NApp(fun, t.arg)
        arg = n_beta_step(t.arg)
        if arg is not None:
            return NApp(t.fun, arg)
        return None
    if isinstance(t, NLam):
        body = n_beta_step(t.body)
        return NLam(t.var, t.var_ty, body) if body is not None else None
    return None


def n_eta_step(t):
    """Contract one eta redex, or return None."""
    if isinstance(t, NLam):
        b = t.body
        if isinstance(b, NApp) and isinstance(b.arg, NVar) and b.arg.name == t.var \
                and t.var not in n_free(b.fun):
            return b.fun
        body = n_eta_step(t.body)
        return NLam(t.var, t.var_ty, body) if body is not None else None
    if isinstance(t, NApp):
        fun = n_eta_step(t.fun)
        if fun is not None:
            return NApp(fun, t.arg)
        arg = n_eta_step(t.arg)
        if arg is not None:
            return NApp(t.fun, arg)
    return None


def oracle_beta_normal(t):
    while True:
        nxt = n_beta_step(t)
        if nxt is None:
            return t
        t = nxt


def oracle_canonical(t):
    t = oracle_beta_normal(t)
    while True:
        nxt = n_eta_step(t)
        if nxt is None:
            return t
        t = nxt
        t = oracle_beta_normal(t)


# ---------------------------------------------------------------------------
# Conversions between the named representation and the package's terms.


def named_to_core(t, stack=()) -> MeaningTerm:
    if isinstance(t, NVar):
        for index, name in enumerate(stack):
            if name == t.name:
                return terms.BoundVar(index)
        return terms.Var(t.name, t.ty)
    if isinstance(t, NConst):
        return terms.Const(t.name, t.ty)
    if isinstance(t, NApp):
        return terms.App(named_to_core(t.fun, stack), named_to_core(t.arg, stack))
    if isinstance(t, NLam):
        return terms.Lam(t.var_ty, named_to_core(t.body, (t.var,) + tuple(stack)), t.var)
    raise AssertionError(t)


# ---------------------------------------------------------------------------
# Random well-typed named terms. Constants cover both base types so
# generation always bottoms out.

ORACLE_SIGNATURE = {
    "a0": E,
    "b0": E,
    "p0": T,
    "f1": ArrowType(E, E),
    "g1": ArrowType(E, T),
    "h1": ArrowType(T, T),
    "r2": ArrowType(E, ArrowType(E, T)),
    "k2": ArrowType(ArrowType(E, T), T),
}


def random_type(rng: random.Random, depth: int) -> SemType:
    if depth <= 0 or rng.random() < 0.6:
        return rng.choice([E, T])
    return ArrowType(random_type(rng, depth - 1), random_type(rng, depth - 1))


def random_named_term(rng: random.Random, ty: SemType, env=(), depth: int = 6):
    atoms = [NConst(n, t) for n, t in ORACLE_SIGNATURE.items() if t == ty]
    atoms += [NVar(n, t) for n, t in env if t == ty]
    choices = []
    if atoms:
        choices.append("atom")
    if isinstance(ty, ArrowType):
        choices.append("lam")
    if depth > 0:
        choices.append("app")
    pick = rng.choice(choices)
    if pick == "atom":
        return rng.choice(atoms)
    if pick == "lam":
        var = f"v{next(_rename_counter)}"
        body = random_named_term(rng, ty.result, ((var, ty.arg),) + tuple(env), depth - 1)
        return NLam(var, ty.arg, body)
    arg_ty = random_type(rng, 1)
    fun = random_named_term(rng, ArrowType(arg_ty, ty), env, depth - 1)
    arg = random_named_term(rng, arg_ty, env, depth - 1)
    return NApp(fun, arg)


# ---------------------------------------------------------------------------
# Forward-chaining enumerator for linear deductions.
#
# State: a multiset of closed formulas. A step picks an implication (or a
# tensor), matches its flattened antecedent atoms against atomic formulas in
# the rest of the state (binding template variables by plain first-order
# matching), satisfies any nested-implication antecedent by a hypothetical
# sub-derivation, and replaces everything consumed with the instantiated
# head's tensor components. A meaning is derived when the state shrinks to
# exactly the goal atom.


def _strip_quantifiers(formula, universe):
    """Yield (body, sem_bindings) for every finite-domain choice of
    sem-structure variables; meaning variables stay as template variables."""
    if isinstance(formula, Forall):
        if isinstance(formula.var, MeaningVar):
            for body, binds in _strip_quantifiers(formula.body, universe):
                yield body, binds
        else:
            for sem in universe:
                inner = formula.body.substitute_sem(formula.var.name, sem)
                for body, binds in _strip_quantifiers(inner, universe):
                    yield body, {formula.var.name: sem, **binds}
    else:
        yield formula, {}


def _flatten_tensor(formula):
    if isinstance(formula, Tensor):
        return _flatten_tensor(formula.left) + _flatten_tensor(formula.right)
    return [formula]


def _collect_antecedents(formula):
    """Split a (possibly nested) implication into antecedent list and head."""
    antecedents = []
    while isinstance(formula, Limp):
        antecedents.extend(_flatten_tensor(formula.antecedent))
        formula = formula.consequent
    return antecedents, formula


def _match_meaning(pattern: MeaningTerm, value: MeaningTerm, binds):
    """First-order matching: template variables in the pattern bind to the
    value; anything else must be structurally equal after substitution."""
    pattern = terms.substitute(pattern, binds)
    if isinstance(pattern, terms.Var):
        new = dict(binds)
        new[pattern] = value
        return new
    if terms.canonical_form(pattern) == terms.canonical_form(value):
        return binds
    return None


def enumerate_readings(premises, goal_sem, goal_ty, universe, _depth=0):
    """All meanings derivable for `goal_sem` at `goal_ty`, consuming every
    premise exactly once. Returns a set of canonical-form terms."""
    out = set()
    state = tuple(premises)
    if len(state) == 1 and isinstance(state[0], Atom):
        atom = state[0]
        if atom.sem == goal_sem and atom.ty == goal_ty:
            out.add(terms.canonical_form(atom.meaning))
    if _depth > 40:
        raise AssertionError("oracle runaway")
    for i, formula in enumerate(state):
        rest = state[:i] + state[i + 1 :]
        if isinstance(formula, Atom):
            continue
        for body, _sem_binds in _strip_quantifiers(formula, universe):
            antecedents, head = _collect_antecedents(body)
            for new_states in _satisfy(antecedents, rest, {}, universe, _depth):
                for binds, remaining in new_states:
                    heads = tuple(part.substitute_meanings(binds) for part in _flatten_tensor(head))
                    out |= enumerate_readings(
                        remaining + heads, goal_sem, goal_ty, universe, _depth + 1
                    )
    return out


def _satisfy(antecedents, state, binds, universe, depth):
    """Yield singleton lists of (bindings, remaining-state) for each way of
    consuming resources from `state` to satisfy all antecedents in order."""
    if not antecedents:
        yield [(binds, state)]
        return
    first, rest_ants = antecedents[0], antecedents[1:]
    if isinstance(first, Atom):
        for j, candidate in enumerate(state):
            if not isinstance(candidate, Atom):
                continue
            if candidate.sem != first.sem or candidate.ty != first.ty:
                continue
            new_binds = _match_meaning(first.meaning, candidate.meaning, binds)
            if new_binds is None:
                continue
            remaining = state[:j] + state[j + 1 :]
            yield from _satisfy(rest_ants, remaining, new_binds, universe, depth)
    elif isinstance(first, Forall) and isinstance(first.var, MeaningVar):
        # Hypothetical sub-derivation: assume a fresh constant, derive the
        # inner consequent consuming the whole remaining state, discharge by
        # abstracting the constant.
        inner = first.body
        if not (isinstance(inner, Limp) and isinstance(inner.antecedent, Atom)
                and isinstance(inner.consequent, Atom)):
            raise AssertionError("oracle limited to quantifier-shaped antecedents")
        hyp = terms.HypConst(first.var.name, first.var.ty, next(_STAMPS))
        assumption = inner.antecedent.substitute_meanings(
            {terms.Var(first.var.name, first.var.ty): hyp}
        )
        target = inner.consequent
        scope_pattern = terms.substitute(target.meaning, binds)
        head_var, args = terms.spine(scope_pattern)
        if not (isinstance(head_var, terms.Var) and args == [terms.Var(first.var.name, first.var.ty)]):
            raise AssertionError("oracle limited to S(x)-shaped scope meanings")
        # Try every split: the sub-derivation must consume all of `state`
        # plus the assumption; what it does not consume stays outside.
        for consumed_ids in _sublists(range(len(state))):
            consumed = tuple(state[k] for k in consumed_ids)
            remaining = tuple(s for k, s in enumerate(state) if k not in consumed_ids)
            for meaning in enumerate_readings(
                consumed + (assumption,), target.sem, target.ty, universe, depth + 1
            ):
                if hyp in terms.hyp_consts(terms.abstract_over(meaning, hyp)):
                    continue
                new_binds = dict(binds)
                new_binds[head_var] = terms.abstract_over(meaning, hyp)
                yield from _satisfy(rest_ants, remaining, new_binds, universe, depth)
    elif isinstance(first, Limp):
        # Hypothetical sub-derivation whose assumptions have closed meanings:
        # assume them, derive the consequent from a subset of the state plus
        # the assumptions, consuming all of them, and match its pattern.
        assumptions = tuple(_flatten_tensor(first.antecedent))
        target = first.consequent
        if not (isinstance(target, Atom) and all(
            isinstance(a, Atom) and not terms.free_vars(a.meaning) for a in assumptions
        )):
            raise AssertionError("oracle limited to closed atomic assumptions and consequents")
        for consumed_ids in _sublists(range(len(state))):
            consumed = tuple(state[k] for k in consumed_ids)
            remaining = tuple(s for k, s in enumerate(state) if k not in consumed_ids)
            for meaning in enumerate_readings(
                consumed + assumptions, target.sem, target.ty, universe, depth + 1
            ):
                new_binds = _match_meaning(target.meaning, meaning, binds)
                if new_binds is not None:
                    yield from _satisfy(rest_ants, remaining, new_binds, universe, depth)
    else:
        raise AssertionError(f"oracle cannot satisfy antecedent {first!r}")


def _sublists(indices):
    indices = list(indices)
    for mask in range(1 << len(indices)):
        yield {indices[k] for k in range(len(indices)) if mask >> k & 1}


# ---------------------------------------------------------------------------
# The scope grid in closed form: `give` whose first q arguments are the
# quantified nominals below (the rest are names), modified k times by
# `obviously`. Every reading is one interleaving, outermost first, of the q
# quantifiers in some order with the k identical modifiers, so there are
# (q+k)!/k! of them. Nothing here touches gluesem.

GRID_QUANTIFIERS = (("every", "candidate", "u"), ("a", "manager", "v"), ("some", "brief", "w"))
GRID_NAMES = ("Bill", "Hillary", "John")


def grid_readings_closed_form(q: int, k: int) -> list[str]:
    """The sorted reading strings of grid cell (q, k)."""
    args = [
        quant[2] if i < q else name
        for i, (quant, name) in enumerate(zip(GRID_QUANTIFIERS, GRID_NAMES))
    ]
    core = f"give({', '.join(args)})"
    out = set()
    for order in itertools.permutations(GRID_QUANTIFIERS[:q]):
        for modifier_slots in itertools.combinations(range(q + k), k):
            scopes = iter(order)
            operators = [None if i in modifier_slots else next(scopes) for i in range(q + k)]
            body = core
            for operator in reversed(operators):
                if operator is None:
                    body = f"obviously({body})"
                else:
                    det, noun, binder = operator
                    body = f"{det}({noun}, \\{binder}. {body})"
            out.add(body)
    expected = math.factorial(q + k) // math.factorial(k)
    assert len(out) == expected, f"enumerated {len(out)} readings, expected {expected}"
    return sorted(out)
