"""Linear-logic proof search over a premise multiset.

Backward natural-deduction search with explicit resource threading: an atomic
goal is proved by focusing one available resource, proving the antecedents
collected along its implication spine (lazy tensor splitting falls out of
threading the availability set through those subproofs), and handing the
head's meaning back to the caller, which unifies its pattern with it.
Universal meaning variables become metavariables solved by pattern
unification; each premise is consumed once, so a focus's metavariables are
its own, solved in a substitution of its own, and its head meaning comes back
closed. Universal structure variables range over the finite structure
universe of the analysis. Nested implication antecedents are proved
hypothetically: assume a fresh tagged constant, prove the inner consequent
consuming the assumption exactly once, discharge by abstraction.

Each resource's focus table (its antecedents and head for every choice of
structure variables, keyed by head structure and type) is built once per
search, so an atomic goal only looks at entries whose head can match it.
Premises with equal formulas and words (twins, such as k identical modifiers)
are interchangeable: by default they are consumed in index order, so the k!
derivations that differ only by swapping twins are explored once and the
search pays per reading rather than per derivation. `all_traces` explores
every order.

A derivation's trace is a by-product of the search: each inference is
recorded as a `TraceStep` holding its formula and binding values, and is
formatted only when its `line()` is called. The search formats nothing: it
tells derivations apart by their recorded steps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from .errors import GlueError, NonPatternError, SearchBoundError, UnboundVariableError
from .formulas import Atom, Forall, GlueFormula, Limp, MeaningVar, Tensor, flatten_tensor
from .fstruct import SemStructure
from .lexicon import Premise
from .semtypes import SemType, T
from .terms import (
    App,
    Const,
    HypConst,
    Lam,
    MeaningTerm,
    Var,
    abstract_over,
    canonical_form,
    format_term,
    free_vars,
    hyp_consts,
    normalize,
    spine,
    substitute,
    typecheck,
)


@dataclass(frozen=True)
class Goal:
    """Prove `sem ~>_ty M` for some term M, consuming every premise."""

    sem: SemStructure
    ty: SemType = T

    def __str__(self) -> str:
        return f"{self.sem} ~>_{self.ty} ?"


@dataclass(frozen=True)
class TraceStep:
    """One inference of a derivation, as the search records it: the glue
    atom assumed, derived or applied (None for a discharge) and the values
    (meaning terms or structures) bound to the focused premise's variables.
    Nothing is formatted until `line()` is called."""

    kind: str  # assume | apply | derive | discharge
    resource: int | str | None  # premise index or hypothesis id
    word: str  # premise headword or hypothesis constant name
    atom: GlueFormula | None = None
    bindings: tuple[tuple[str, object], ...] = ()

    def line(self) -> str:
        ref = f"[{self.resource}]" if self.resource is not None else ""
        text = " ".join(p for p in (self.kind, ref, self.word) if p)
        if self.atom is not None:
            atom = self.atom
            if isinstance(atom, Atom):
                # The atoms of `assume` and `derive` steps can hold redexes.
                atom = Atom(atom.sem, atom.ty, normalize(atom.meaning))
            text += f": {atom}"
        if self.bindings:
            # Bindings are already beta-normal: subterms of normal closed
            # meanings, or abstractions of them that create no redex.
            text += "  " + ", ".join(
                f"{n} ↦ {format_term(v) if isinstance(v, MeaningTerm) else v}"
                for n, v in self.bindings
            )
        return text


Trace = tuple[TraceStep, ...]


@dataclass(frozen=True)
class Reading:
    """One derived meaning for the goal. By default `traces` holds just the
    canonical (first-found) derivation; with `all_traces` it holds every
    derivation that produced the meaning with distinct recorded steps,
    canonical first, including those that differ only by swapping twin
    premises. Each trace is the steps as the search recorded them; reading
    it formats nothing until a step's `line()` is called."""

    meaning: MeaningTerm
    ty: SemType
    traces: tuple[Trace, ...]

    @property
    def trace(self) -> Trace:
        return self.traces[0]

    def __str__(self) -> str:
        return format_term(self.meaning)


# ---------------------------------------------------------------------------
# Pattern unification.


def unify(pattern: MeaningTerm, term: MeaningTerm, subst: dict | None = None):
    """Most general substitution making `pattern` equal `term`, or None.

    Metavariables live in the pattern only; a higher-order metavariable must
    be applied to distinct hypothesis constants (the pattern restriction) and
    is solved by abstracting them out of `term`. Anything outside that
    fragment raises NonPatternError rather than guessing. Bindings passed in
    `subst` must be closed terms.
    """
    subst = dict(subst) if subst else {}
    closed = normalize(substitute(term, subst))
    if free_vars(closed):
        raise NonPatternError("the closed side of a unification contains metavariables")
    return _unify(pattern, closed, subst)


def _unify(pattern, term, subst):
    pattern = normalize(substitute(pattern, subst))
    if isinstance(pattern, Var):
        return _bind(subst, pattern, term)
    head, args = spine(pattern)
    if isinstance(head, Var) and args:
        if all(isinstance(a, HypConst) for a in args) and len(set(args)) == len(args):
            solution = term
            for arg in reversed(args):
                solution = abstract_over(solution, arg)
            return _bind(subst, head, solution)
        raise NonPatternError(
            f"metavariable {head.name} applied to arguments that are not "
            "distinct hypothesis constants"
        )
    match pattern, term:
        case (App(), App()):
            out = _unify(pattern.fun, term.fun, subst)
            if out is None:
                return None
            return _unify(pattern.arg, term.arg, out)
        case (Lam(), Lam()):
            if pattern.var_type != term.var_type:
                return None
            return _unify(pattern.body, term.body, subst)
        case _:
            return subst if pattern == term else None


def _bind(subst, var: Var, term: MeaningTerm):
    # The term side is closed, so `var` occurs neither in it nor in any
    # existing binding; a dangling index means the binding would capture.
    try:
        ty = typecheck(term)
    except UnboundVariableError:
        raise NonPatternError("binding would capture a bound variable") from None
    if ty != var.ty:
        return None
    return {**subst, var: term}


# ---------------------------------------------------------------------------
# The search engine.


class _Search:
    """One search over `premise_list`. Structure variables range over every
    structure the premises or `goal_sems` mention. Hypothesis stamps are
    numbered by this search alone, so no result depends on what ran earlier
    in the process; metavariables keep their declared names, since each
    focus solves its own in a substitution of its own. Each atomic goal whose
    pattern no supplied meaning matched is kept in `frontier` with the most
    premises consumed when it failed.

    Premises with equal formulas and words are *twins*. Unless `all_orders`
    is set, a premise is focused only once every earlier twin is consumed, so
    twins are used in index order and derivations that differ only by
    swapping twins are explored once."""

    def __init__(self, premise_list, goal_sems, all_orders=False, depth_bound=None):
        # resource id (premise index or hypothesis id) -> (formula, word)
        self.registry: dict[int | str, tuple[GlueFormula, str]] = {
            p.index: (p.formula, p.word) for p in premise_list
        }
        self.premise_ids = frozenset(p.index for p in premise_list)
        sems = {a.sem for p in premise_list for a in p.formula.atoms()} | set(goal_sems)
        self.universe = sorted(
            (s for s in sems if isinstance(s, SemStructure)), key=lambda s: s.label
        )
        if depth_bound is None:
            depth_bound = sum(p.formula.connectives() + 1 for p in premise_list) + 2
        self.bound = depth_bound
        self.all_orders = all_orders
        self.frontier: dict[tuple[str, str], int] = {}
        self.hyp_counter = itertools.count(1)
        self.stamps = itertools.count(1)
        self.name_counts: dict[str, int] = {}
        self.focus_tables: dict[int | str, dict] = {}
        classes: dict[tuple, list[int]] = {}
        if not all_orders:
            for p in premise_list:
                classes.setdefault((p.formula, p.word), []).append(p.index)
        twins = [sorted(c) for c in classes.values() if len(c) > 1]
        self.twin_classes = [frozenset(c) for c in twins]
        # Twins are consumed in index order, so the available members of a
        # class are always its highest indices: a premise waits exactly when
        # its predecessor in the class is still available.
        self.prior_twin = {later: earlier for c in twins for earlier, later in zip(c, c[1:])}

    # -- goal dispatch ------------------------------------------------------

    def prove(self, goal: GlueFormula, avail: frozenset, subst, depth, steps):
        match goal:
            case Atom():
                matched = False
                for meaning, a2, e2 in self.prove_atom(goal.sem, goal.ty, avail, depth, steps):
                    s2 = _unify(goal.meaning, meaning, subst)
                    if s2 is None:
                        continue
                    matched = True
                    solved = sorted(
                        ((v.name, t) for v, t in s2.items() if v not in subst),
                        key=lambda b: b[0],
                    )
                    applied = e2[-1]
                    yield s2, a2, e2[:-1] + (
                        replace(applied, bindings=applied.bindings + tuple(solved)),
                    )
                if not matched:
                    self.record_failure(goal.sem, goal.ty, avail)
            case Tensor():
                yield from self.prove_all(flatten_tensor(goal), avail, subst, depth, steps)
            case Limp():
                yield from self.prove_limp(goal, avail, subst, depth, steps)
            case Forall(var, _) if isinstance(var, MeaningVar):
                yield from self.prove_forall(goal, avail, subst, depth, steps)
            case _:
                raise GlueError(f"unsupported goal form: {goal}")

    def record_failure(self, sem, ty, avail):
        key = (sem.label, str(ty))
        consumed = len(self.premise_ids - avail)
        self.frontier[key] = max(consumed, self.frontier.get(key, -1))

    def prove_all(self, goals, avail, subst, depth, steps):
        if self.all_orders and len(goals) > 1:
            orders = itertools.permutations(range(len(goals)))
        else:
            orders = [tuple(range(len(goals)))]
        for order in orders:
            yield from self._seq(goals, order, 0, avail, subst, depth, steps)

    def _seq(self, goals, order, i, avail, subst, depth, steps):
        if i == len(order):
            yield subst, avail, steps
            return
        for s2, a2, e2 in self.prove(goals[order[i]], avail, subst, depth, steps):
            yield from self._seq(goals, order, i + 1, a2, s2, depth, e2)

    def prove_limp(self, goal: Limp, avail, subst, depth, steps):
        new_ids = []
        for part in flatten_tensor(goal.antecedent):
            part = part.substitute_meanings(subst)
            rid = f"h{next(self.hyp_counter)}"
            word = self._hyp_word(part)
            self.registry[rid] = (part, word)
            new_ids.append(rid)
            steps = steps + (TraceStep("assume", rid, word, part),)
        avail = avail | frozenset(new_ids)
        for s2, a2, e2 in self.prove(goal.consequent, avail, subst, depth, steps):
            if any(rid in a2 for rid in new_ids):
                continue  # the hypothesis must be consumed exactly once
            yield s2, a2, e2

    def _hyp_word(self, formula) -> str:
        if isinstance(formula, Atom):
            consts = sorted(hyp_consts(formula.meaning), key=lambda c: c.stamp)
            if consts:
                return consts[-1].name
        return "hyp"

    def prove_forall(self, goal: Forall, avail, subst, depth, steps):
        var: MeaningVar = goal.var
        hyp = self._fresh_hyp(var.name, var.ty)
        body = goal.body.substitute_meanings({Var(var.name, var.ty): hyp})
        for s2, a2, e2 in self.prove(body, avail, subst, depth, steps):
            # The owning focus's bindings are visible outside the
            # hypothesis's scope, so none of them may mention it.
            if any(hyp in hyp_consts(term) for term in s2.values()):
                continue
            yield s2, a2, e2 + (TraceStep("discharge", None, hyp.name),)

    def _fresh_hyp(self, base, ty) -> HypConst:
        n = self.name_counts.get(base, 0) + 1
        self.name_counts[base] = n
        name = base if n == 1 else f"{base}{n}"
        return HypConst(name, ty, next(self.stamps))

    # -- atomic goals: focus a resource --------------------------------------

    def prove_atom(self, sem, ty, avail, depth, steps):
        """Focus each available resource whose head can be `sem ~>_ty`, proving
        its antecedents in a substitution that starts empty: yield (closed
        meaning, remaining resources, steps), the last step being the
        focus's `apply`."""
        if depth > self.bound:
            raise SearchBoundError(
                f"derivation depth exceeded the bound of {self.bound}"
            )
        assert isinstance(sem, SemStructure), "goals must have concrete structures"
        for rid in sorted(avail, key=_rid_order):
            if self.prior_twin.get(rid) in avail:
                continue
            word = self.registry[rid][1]
            for antecedents, head, rest, displays in self._focus_table(rid).get((sem, ty), ()):
                yield from self._finish_focus(
                    rid, word, antecedents, head, rest, displays,
                    avail - {rid}, depth, steps,
                )

    def _finish_focus(self, rid, word, antecedents, head, rest, displays, avail, depth, steps):
        for s1, a1, e1 in self.prove_all(antecedents, avail, {}, depth + 1, steps):
            meaning = normalize(substitute(head.meaning, s1))
            if free_vars(meaning):
                names = ", ".join(sorted(v.name for v in free_vars(meaning)))
                raise NonPatternError(
                    f"head of '{word}' still contains metavariable(s) "
                    f"{names} after its antecedents were proved"
                )
            for extra in rest:
                extra = extra.substitute_meanings(s1)
                rid2 = f"d{next(self.hyp_counter)}"
                self.registry[rid2] = (extra, word)
                a1 = a1 | {rid2}
                e1 = e1 + (TraceStep("derive", rid2, word, extra),)
            shown = tuple(
                (name, substitute(v, s1) if isinstance(v, Var) else v) for name, v in displays
            )
            applied = Atom(head.sem, head.ty, meaning)
            yield meaning, a1, e1 + (TraceStep("apply", rid, word, applied, shown),)

    def _focus_table(self, rid):
        """The focus entries of resource `rid`, built on its first use and
        keyed by head (structure, type): (antecedents, head, other head
        components, display bindings), in universe then component order."""
        table = self.focus_tables.get(rid)
        if table is None:
            table = {}
            for antecedents, components, displays in self._focus(self.registry[rid][0]):
                for k, head in enumerate(components):
                    if isinstance(head, Atom):
                        rest = components[:k] + components[k + 1 :]
                        table.setdefault((head.sem, head.ty), []).append(
                            (antecedents, head, rest, displays)
                        )
            self.focus_tables[rid] = table
        return table

    def _focus(self, formula, displays=()):
        """Strip quantifiers and implications: yield (antecedents, head
        components, display bindings) for every finite-domain choice of
        structure variables."""
        match formula:
            case Forall(var, body):
                if isinstance(var, MeaningVar):
                    # A focus solves its metavariables in a substitution of
                    # its own, so the declared variable serves as one as is,
                    # provided no inner quantifier shadows it.
                    meta = Var(var.name, var.ty)
                    if any(v == meta for _, v in displays):
                        raise GlueError(f"a premise rebinds the meaning variable {var}")
                    yield from self._focus(body, displays + ((var.name, meta),))
                else:
                    for sem in self.universe:
                        yield from self._focus(
                            body.substitute_sem(var.name, sem),
                            displays + ((var.name, sem),),
                        )
            case Limp(antecedent, consequent):
                for antecedents, components, disp in self._focus(consequent, displays):
                    yield flatten_tensor(antecedent) + antecedents, components, disp
            case _:
                yield [], flatten_tensor(formula), displays


def _rid_order(rid):
    return (0, rid, "") if isinstance(rid, int) else (1, 0, rid)


# ---------------------------------------------------------------------------
# Public operations.


def _as_premises(items) -> list[Premise]:
    return [
        item if isinstance(item, Premise) else Premise(i, item, f"p{i}", "")
        for i, item in enumerate(items, start=1)
    ]


@dataclass(frozen=True)
class SearchResult:
    """What one proof search found. `readings` use every premise exactly
    once. `leftover` is None when no derivation reached the goal; otherwise
    it pools the unused premise ids of the goal-reaching derivations that
    left the fewest over, widened by every twin class it meets, since the
    search skipped the derivations that swap twins. `frontier` lists, as
    (structure label, type, premises consumed), each atomic goal for which no
    resource supplied a meaning its pattern matches (the sentence goal: no
    meaning at all), with the most premises consumed when it failed."""

    readings: tuple[Reading, ...]
    leftover: frozenset[int] | None
    frontier: tuple[tuple[str, str, int], ...]


def search(
    premise_set,
    goal: Goal,
    all_traces: bool = False,
    depth_bound: int | None = None,
) -> SearchResult:
    """One proof search for `goal` from the premises; `derive` and
    `diagnose` read what they need from its result."""
    premise_list = _as_premises(premise_set)
    for premise in premise_list:
        if not premise.formula.is_closed():
            raise GlueError(f"premise {premise.tag()} is not closed")
    engine = _Search(premise_list, [goal.sem], all_traces, depth_bound)

    # canonical meaning -> (meaning, {trace, or () by default: trace})
    found: dict[MeaningTerm, tuple[MeaningTerm, dict]] = {}
    fewest: int | None = None  # the fewest premises a goal-reaching derivation left
    pooled: set[int] = set()
    supplied = False
    for meaning, avail, steps in engine.prove_atom(goal.sem, goal.ty, engine.premise_ids, 0, ()):
        supplied = True
        if hyp_consts(meaning):
            continue
        if avail:
            unused = avail & engine.premise_ids
            if fewest is None or len(unused) < fewest:
                fewest, pooled = len(unused), set(unused)
            elif len(unused) == fewest:
                pooled |= unused
            continue
        key = canonical_form(meaning)
        entry = found.get(key)
        if entry is None:
            entry = found[key] = (_tidy_hints(meaning), {})
        elif not all_traces:
            continue  # default mode keeps the canonical (first) trace only
        # Distinct derivations are those whose recorded steps differ.
        entry[1].setdefault(steps if all_traces else (), steps)
    if not supplied:
        engine.record_failure(goal.sem, goal.ty, engine.premise_ids)
    readings = tuple(
        sorted(
            (
                Reading(meaning, goal.ty, tuple(traces.values()))
                for meaning, traces in found.values()
            ),
            key=lambda r: format_term(r.meaning),
        )
    )
    frontier = tuple(sorted((sem, ty, n) for (sem, ty), n in engine.frontier.items()))
    leftover = None
    if fewest is not None:
        for members in engine.twin_classes:
            if pooled & members:
                pooled |= members
        leftover = frozenset(pooled)
    return SearchResult(readings, leftover, frontier)


def derive(
    premise_set,
    goal: Goal,
    all_traces: bool = False,
    depth_bound: int | None = None,
) -> tuple[Reading, ...]:
    """All readings of `goal` derivable from the premises, each premise used
    exactly once, deduplicated up to alpha-beta-eta equivalence and sorted by
    their printed form."""
    return search(premise_set, goal, all_traces, depth_bound).readings


def _tidy_hints(term: MeaningTerm) -> MeaningTerm:
    """Drop the freshness suffix from binder hints; printing re-freshens only
    on actual collisions."""
    match term:
        case App(fun, arg):
            return App(_tidy_hints(fun), _tidy_hints(arg))
        case Lam(ty, body, hint):
            base = hint.rstrip("0123456789") or hint
            return Lam(ty, _tidy_hints(body), base)
        case _:
            return term


def entails(antecedent: GlueFormula, consequent: GlueFormula) -> bool:
    """Linear entailment with exact resource usage for propositional
    tensor-fragment formulas."""
    engine = _Search(
        _as_premises(flatten_tensor(antecedent)), [a.sem for a in consequent.atoms()]
    )
    return any(
        not avail
        for _subst, avail, _steps in engine.prove(
            consequent, engine.premise_ids, {}, 0, ()
        )
    )


def prop(name: str) -> Atom:
    """A propositional atom for entailment checks."""
    return Atom(SemStructure(name), T, Const(name, T))
