"""Linear-logic proof search over a premise multiset.

Backward natural-deduction search with explicit resource threading, in two
routines. `prove` proves a list of goals left to right, each from the
resources the ones before it left, with one case per goal form: an atom's
pattern is unified with each meaning `prove_atom` supplies; a tensor's
components join the list; an implication assumes its antecedent's parts,
which its consequent must consume exactly once, along with whatever depends
on them (see below); a universal meaning variable is proved of its binder's
hypothesis constant, which set-up put in its body and which must not leak,
then discharged by abstraction. `prove_atom`, the one focusing step, picks
an available resource, proves the antecedents along its implication spine
as one goal list and hands the head's meaning back, so a nested focus holds
two frames.
Universal meaning variables become metavariables solved by pattern
unification; each premise is consumed once, so a focus's metavariables are
its own, solved in a substitution of its own, and its head meaning comes
back closed. Universal structure variables range over the finite structure
universe of the analysis.

Set-up walks no premise. What the search reads of a formula that does not
depend on the sentence is compiled once (`formulas.compile_formula`, after
Hepple 1996's compilation before search): whether it is closed and well
typed, its atoms with their polarity, its binder names, its meanings
normalized with each goal binder's hypothesis constant in the binder's
body, and its focus skeleton: the antecedents and head components a focus
on it uses, as subformulas, whose structures are slots. A lexicon
compiles each template at its first instantiation and keeps it, so
instantiating it only resolves and fills its path slots; a premise made
any other way (and `entails`'s consequent) is compiled at search time, as
a formula with no slots. Set-up reads the compiled forms: it raises the
first premise's fault, collects the structure universe and the polarity
table, renames goal binders apart across the sentence (recompiling a
premise whose binder it renames) and fills the parts of each focus
skeleton with the premise's slot values and each choice of its structure
variables, and after that the search normalizes nothing.
Every substitution it makes is hereditary (Watkins, Cervesato, Pfenning &
Walker 2002): closed normal values put into a normal meaning can only make
a redex where a solved metavariable is applied, so only such a spine is
reduced, and every meaning the search builds is normal. A reading is only
eta-contracted to key it. Unification reads a solved metavariable from the
substitution where it meets one, comparing it with `==`, and reduces only a
spine whose head it solved. A binding made outside every binder is not
typechecked: the read walk checks that each atom's meaning has the atom's
type index, so both sides of a goal have the goal's type, and each step
down an application passed equal heads. A binding made under a binder is
typechecked, which reports a capture as `NonPatternError`.

The search terminates by linearity alone, so it has no depth bound. A focus
takes its resource out of the available set for everything nested inside
it, so the resources on one chain of nested focuses are distinct, and
between two focuses a goal only shrinks. A branch only ever holds the
premises, the hypotheses a `-o` goal assumes (one per tensor part of its
antecedent) and the head components a focus derives; each hypothesis and
each derived component can be charged to its own connective, in a
subformula of a premise that was focused at most once. So one branch holds
at most one resource per premise plus one per connective in the premises,
and no chain of nested focuses is longer. The one bound left is the
interpreter's stack, which `search` reports as `SearchBoundError`.

Resources are the bits of an int availability mask: premises first, by index,
then each hypothesis and derived resource as it is first drawn; a focus tries
them in that order. A hypothesis or derived resource has one id per search
for its formula, word and origin, and draws another only while that one is
available, so equal subproofs hold equal ids. Each resource's focus table
(its antecedents and head for every choice of structure variables, keyed by
head structure and type) is built when the resource gets its id: a
premise's at set-up, a hypothesis's or derived resource's when it is first
drawn. So an atomic goal only looks at entries whose head can match it.
Premises with equal formulas and words (twins, such as k identical modifiers)
are interchangeable: by default they are consumed in index order, so the k!
derivations that differ only by swapping twins are explored once and the
search pays per reading rather than per derivation. `all_traces` explores
every order once the canonical order has found a reading, on that search's
set-up.

A derivation that leaves a premise unused is worth something only as
evidence when the sentence has no reading. So a strict search cuts a proof
of the last goal a derivation has left, where nothing after it can consume a
resource, when it leaves resources unused (the strictness of the
input/output resource model of Cervesato, Hodas & Pfenning 2000), and
records no failed atomic goal. The search in every order and `entails` are
strict from the start. So is the canonical search when the atom count
balances: set-up counts each atom +1 where a premise supplies it and -1
where one demands it, the goal counts -1, and a derivation that uses each
premise once exists only if every count is 0 (van Benthem's 1991 count
invariant). Otherwise it turns strict at its first reading, and one that
finds none has cut nothing, so its evidence is complete: `_classify` reads
it off the polarity table, the failed goals and the premises the
goal-reaching derivations left, and `search` returns one `Diagnosis` either
way. A search strict from the start that finds no reading kept no evidence,
so a balanced failure runs two searches: that one, then one that is not
strict on the same set-up (`_Search.fresh`). The count decides only how to
search, never what is found: a wrong count costs time alone.

Every strict search answers atomic goals from a table of its own, from the
goal it turns strict at on (Hepple 1998's memoisation, exact rather than
modulo hypothesis names): what `prove_atom` yields depends only on the goal's
structure and type, the available resources and whether it is the last goal,
since a focus starts from an empty substitution, each goal binder has one
constant and each drawn formula one id. The first use of a key fills its
entry with every answer, and later uses replay them in order. No key recurs
while its entry fills: within a focus, the available set regains a resource
it gave up only by drawing an equal formula, a strict subformula of some
resource focused there; that one was given up too and must be regained the
same way, and formulas cannot keep growing.

A resource that depends on a `-o` goal's hypotheses may not outlive the
consequent's proof, or it would carry the hypothesis out of its scope. A
focus inside the scope depends on them when its resource or anything its
antecedents consumed does, and then so do the tensor components it derives
(`_dependents` walks the proof's rope to find them). What a focus that
consumed nothing dependent derives may outlive the scope: in linear logic
that focus could as well have been made before the scope opened. An id
drawn inside the scope may be one that a resource consumed there held
before it, so ids alone cannot tell what the scope derived.

A derivation's trace is recorded lazily: subproofs hand up a rope (see
`_trace`), which joins two subproofs in O(1) and holds only what the search
already has: registry ids, hypothesis names and a focus's data. The search
builds no `TraceStep`: `_trace` builds each one once, for a derivation
`_run_search` keeps, and a step is formatted only when its `line()` is
called. Derivations are told apart by their unrolled steps. Nothing a trace
prints depends on the search's history: `_trace` numbers the hypotheses and
derived resources of each trace by first appearance, and a hypothesis
constant is its binder's, named after it, and set-up renames the binders
apart once per search (see `_Search._claim`).
"""

from __future__ import annotations

import copy
import itertools

from . import formulas
from .errors import (
    GlueError,
    NonPatternError,
    SearchBoundError,
    UnboundVariableError,
)
from .formulas import (
    NOT_CLOSED,
    Atom,
    Forall,
    GlueFormula,
    Limp,
    MeaningVar,
    Tensor,
    compile_formula,
    fill,
    flatten_tensor,
    focus_skeleton,
)
from .fstruct import SemStructure
from .lexicon import Premise, Premises
from .node import Node
from .semtypes import T
from .terms import (
    App,
    Const,
    HypConst,
    Lam,
    MeaningTerm,
    Var,
    _app,
    _eta,
    abstract_over,
    format_term,
    free_vars,
    has_leaf,
    hyp_consts,
    normalize,
    occurs,
    spine,
    substitute,
    substitute_normal,
    typecheck,
)


class Goal(Node, ty=T):
    """Prove `sem ~>_ty M` for some term M, consuming every premise."""

    __slots__ = ()
    __match_args__ = ("sem", "ty")


class TraceStep(Node, atom=None, bindings=()):
    """One inference of a derivation, built by `_trace`: the resource's label
    (a premise's index, or a hypothesis's or derived resource's kind and
    number; None for a discharge), the glue atom assumed, derived or applied
    (None for a discharge) and the values (meaning terms or structures)
    bound to the focused resource's own variables. Its meanings are normal
    as the search built them, so `line()` only formats, and nothing is
    formatted until it is called."""

    __slots__ = ()
    # kind: assume | apply | derive | discharge; word: the premise's
    # headword or the hypothesis constant's name
    __match_args__ = ("kind", "resource", "word", "atom", "bindings")

    def line(self) -> str:
        _, kind, resource, word, atom, bindings = self
        text = kind if resource is None else f"{kind} [{resource}]"
        if word:
            text += f" {word}"
        if atom is not None:
            text += ": " + formulas.format_formula(atom)
        if bindings:
            # Bindings are already beta-normal: subterms of normal closed
            # meanings, or abstractions of them that create no redex.
            text += "  " + ", ".join([
                f"{n} ↦ {format_term(v) if isinstance(v, MeaningTerm) else v}"
                for n, v in bindings
            ])
        return text


Trace = tuple[TraceStep, ...]


class Reading(Node):
    """One derived meaning for the goal. By default `traces` holds just the
    canonical (first-found) derivation; with `all_traces` it holds every
    derivation that produced the meaning with distinct recorded steps,
    canonical first, including those that differ only by swapping twin
    premises. Each trace is a tuple of the derivation's steps, built from
    what the search recorded and labelled by `_trace`, so it depends on the
    derivation alone; reading it formats nothing until a step's `line()` is
    called."""

    __slots__ = ()
    __match_args__ = ("meaning", "ty", "traces")

    @property
    def trace(self) -> Trace:
        return self.traces[0]

    def __str__(self) -> str:
        return format_term(self.meaning)


OK = "ok"
INCOMPLETE = "incomplete"
INCOHERENT = "incoherent"
INCOMPLETE_INCOHERENT = "incomplete+incoherent"
UNINSTANTIABLE = "uninstantiable"


class Demand(Node, needed_by=()):
    __slots__ = ()
    __match_args__ = ("sem", "ty", "needed_by")

    def __str__(self) -> str:
        where = f" needed by {', '.join(self.needed_by)}" if self.needed_by else ""
        return f"{self.sem} : {self.ty}{where}"


class Leftover(Node):
    __slots__ = ()
    __match_args__ = ("index", "word")

    def __str__(self) -> str:
        return f"{self.word}[{self.index}]"


class Diagnosis(Node, unsatisfied_demands=(), leftover_resources=(), readings=(), note=""):
    """What one search found: its readings, or why it has none (see
    `_classify`); or, with a `note`, why no search could run."""

    __slots__ = ()
    __match_args__ = ("status", "unsatisfied_demands", "leftover_resources", "readings", "note")

    def __str__(self) -> str:
        if self.status == OK:
            return f"ok ({len(self.readings)} reading(s))"
        parts = [self.status]
        if self.note:
            parts.append(self.note)
        if self.unsatisfied_demands:
            parts.append(
                "unsatisfied: " + "; ".join(str(d) for d in self.unsatisfied_demands)
            )
        if self.leftover_resources:
            parts.append(
                "leftover: " + ", ".join(str(l) for l in self.leftover_resources)
            )
        return "\n".join(parts)


# ---------------------------------------------------------------------------
# Pattern unification.


def unify(pattern: MeaningTerm, term: MeaningTerm, subst: dict | None = None):
    """Most general substitution making `pattern` equal `term`, or None.

    Metavariables live in the pattern only; a higher-order metavariable must
    be applied to distinct hypothesis constants (the pattern restriction) and
    is solved by abstracting them out of `term`. Anything outside that
    fragment raises NonPatternError rather than guessing. Bindings passed in
    `subst` must be closed terms. Both sides must be well typed; sides of
    different types do not unify.
    """
    subst = {var: normalize(value) for var, value in subst.items()} if subst else {}
    closed = normalize(substitute(term, subst))
    if has_leaf(closed, Var):
        raise NonPatternError("the closed side of a unification contains metavariables")
    # With both sides of one type, every binding outside a binder has its
    # variable's type, as in the search (see `_bind`).
    if typecheck(pattern) != typecheck(closed):
        return None
    return _unify(normalize(pattern), closed, subst, False)


def _unify(pattern, term, subst, under_binder):
    """Unify the normal `pattern`, whose solved metavariables are read from
    `subst` where they occur, with the closed normal `term` of the same type;
    `under_binder` says whether the walk has passed a binder."""
    kind = type(pattern)
    if kind is Var:
        value = subst.get(pattern)
        if value is not None:
            return subst if value == term else None
        return _bind(subst, pattern, term, under_binder)
    if kind is App and type(spine(pattern)[0]) is Var:
        # Only this spine can reduce once its solved metavariables are put in.
        pattern = substitute_normal(pattern, subst)
        kind = type(pattern)
        head, args = spine(pattern)
        if type(head) is Var:
            if all(type(a) is HypConst for a in args) and len(set(args)) == len(args):
                solution = term
                for arg in reversed(args):
                    solution = abstract_over(solution, arg)
                return _bind(subst, head, solution, under_binder)
            raise NonPatternError(
                f"metavariable {head.name} applied to arguments that are not "
                "distinct hypothesis constants"
            )
    if kind is App and type(term) is App:
        out = _unify(pattern[1], term[1], subst, under_binder)
        if out is None:
            return None
        return _unify(pattern[2], term[2], out, under_binder)
    if kind is Lam and type(term) is Lam:
        if pattern[1] != term[1]:
            return None
        return _unify(pattern[2], term[2], subst, True)
    return subst if pattern == term else None


def _bind(subst, var: Var, term: MeaningTerm, under_binder):
    # The term side is closed, so `var` occurs neither in it nor in any
    # existing binding. Outside every binder the value has `var`'s type: the
    # two sides of a unification have one type (the goal atom's type index,
    # in the search), and each step down an application passed equal heads.
    # Under a binder the value may hold a dangling index, and binding it
    # would capture.
    if under_binder:
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
    """One search over the premises of `premise_set` (see `_instances`).
    Structure variables range over every structure the premises or
    `goal_sems` mention. Set-up reads each premise's compiled form once,
    filling the polarity table `polarity`, and claims its goal-position
    meaning binders, renamed apart, each with one hypothesis constant
    (`hyps`, by name, in claim order) in its body, which has the binder's
    name in every reading.
    A binder is proved at most once on a branch, each occurrence in a
    premise that is focused at most once, so one constant per binder keeps
    hypotheses apart.
    Metavariables keep their declared names, since each focus solves its own
    in a substitution of its own. `prove` is the goal routine and
    `prove_atom` the focus routine; nothing else proves a goal. Until
    `strict` is set, each atomic goal whose pattern no supplied meaning
    matched is kept in `frontier`, under its (structure label, type), with
    the most premises consumed when it failed; once it is set, `prove`
    serves atomic goals from `table`. `counts` holds the atom count
    `balances` reads. A resource's id is its bit in the availability masks
    (premises first, by index: `premise_mask`; then each resource as it is
    first drawn, its ids listed in `drawn`) and indexes `registry`:
    (formula, word, the premise's index or the kind "h" or "d", bit of the
    premise it comes from or 0, bits of its earlier twins), and
    `focus_tables`, the focus table `_focus` built when it got the id.

    Premises with equal formulas and words are *twins*. A premise is focused
    only once every earlier twin is consumed, so twins are used in index
    order and derivations that differ only by swapping twins are explored
    once; `in_every_order` gives the search that explores every order."""

    def __init__(self, premise_set, goal_sems):
        instances = _instances(premise_set)
        for (p, _, _), (q, _, _) in zip(instances, instances[1:]):
            if p.index == q.index:
                raise GlueError(f"premises {p.tag()} and {q.tag()} share the index {p.index}")
        sems = set(goal_sems)
        taken: set[str] = set()  # every meaning binder's name
        # (structure label, or None for a structure variable; type) ->
        # [tags of the premises that demand it, bits of those that supply it]
        self.polarity: dict[tuple, list] = {}
        # +1 per supply, -1 per demand, by (structure label, type), or by
        # (bit, variable, type) on a structure variable, which each premise
        # binds apart
        self.counts: dict[tuple, int] = {}
        for i, (p, compiled, values) in enumerate(instances):
            if compiled.fault:
                error = _NotClosed if compiled.fault == NOT_CLOSED else GlueError
                raise error(f"premise {p.tag()} {compiled.fault}")
            taken.update(compiled.binders)
            for sem, ty, positive in compiled.atoms:
                sem = values.get(sem, sem)
                label = None
                if type(sem) is SemStructure:
                    sems.add(sem)
                    label = sem.label
                entry = self.polarity.setdefault((label, ty), [[], 0])
                if positive:
                    entry[1] |= 1 << i
                else:
                    entry[0].append(p.tag())
                key = (1 << i, sem, ty) if label is None else (label, ty)
                self.counts[key] = self.counts.get(key, 0) + (1 if positive else -1)
        self.universe = sorted(sems, key=lambda s: s.label)
        self.registry: list[tuple[GlueFormula, str, int | str, int, int]] = []
        self.focus_tables: list[dict] = []  # by id, as `registry`
        classes: dict[tuple, int] = {}  # (formula, word) -> bits of its premises
        self.hyps: dict[str, HypConst] = {}  # goal binder name -> its constant
        for i, (p, compiled, values) in enumerate(instances):
            twins = classes.get((p.formula, p.word), 0)
            classes[p.formula, p.word] = twins | 1 << i
            names = self._claim(compiled, taken)
            if names:  # its formula with the binders renamed apart
                compiled, values = compile_formula(p.formula, names=names), {}
            if compiled.rebinds:
                raise GlueError(compiled.rebinds)
            self.registry.append((p.formula, p.word, p.index, 1 << i, twins))
            self.focus_tables.append(self._focus(compiled.skeleton, values))
        self.premise_mask = (1 << len(instances)) - 1
        self.all_orders = False
        # A derivation that leaves resources unused is worth something only
        # as a failure's evidence: `search` sets this from the start when
        # the count balances, `_run_search` at the first reading, and the
        # all-orders search runs only after the canonical one found one.
        self.strict = False
        self.frontier: dict[tuple, int] = {}
        self.drawn: dict[tuple, list[int]] = {}  # registry entry -> its ids
        # (structure, type, available mask, last-goal flag) -> the answers
        # of `prove_atom`
        self.table: dict[tuple, list] = {}

    def _claim(self, compiled, taken: set):
        """Claim the goal binders of `compiled` in `hyps`, in order: a name
        already claimed becomes the first of `<base>2`, `<base>3`, ... not
        in `taken`, which it joins, `<base>` being the name without trailing
        digits. The names claimed, if one was renamed, else None."""
        names, renamed = [], False
        for hyp in compiled.claims:
            name = hyp.name
            if name in self.hyps:
                base = name.rstrip("0123456789") or name
                name = next(f"{base}{n}" for n in itertools.count(2) if f"{base}{n}" not in taken)
                taken.add(name)
                hyp, renamed = HypConst(name, hyp.ty, hyp.stamp), True
            self.hyps[name] = hyp
            names.append(name)
        return names if renamed else None

    def balances(self, goal: Goal) -> bool:
        """Whether every atom count (see `counts`) is 0 once `goal` counts
        -1: van Benthem's (1991) count invariant, which every derivation that
        uses each premise once satisfies. It decides only how to search."""
        return {k: n for k, n in self.counts.items() if n} == {(goal.sem.label, goal.ty): 1}

    def fresh(self) -> _Search:
        """A search over the same premises from the start, not strict, on
        this search's set-up: the premises' registry entries and focus
        tables, the structure universe, the goal binders' constants, the
        polarity table and the counts. It has drawn nothing, recorded no
        failure and tabled no goal."""
        other = copy.copy(self)
        count = self.premise_mask.bit_length()
        other.registry = self.registry[:count]
        other.focus_tables = self.focus_tables[:count]
        other.strict = False
        other.frontier = {}
        other.drawn = {}
        other.table = {}
        return other

    def in_every_order(self) -> _Search:
        """A fresh search (see `fresh`) that tries every order of every goal
        list and every twin, strict from the start: its premises have no
        earlier twins."""
        other = self.fresh()
        other.registry = [entry[:4] + (0,) for entry in other.registry]
        other.all_orders = other.strict = True
        return other

    # -- goals ----------------------------------------------------------------

    def prove(self, goals, avail: int, subst, tail):
        """Yield (substitution, remaining resources, steps) for each proof of
        `goals`, proved left to right, each from what the ones before it left;
        the steps are this subproof's own, as a rope (see `_trace`). `tail`
        says that nothing after these goals consumes a resource: there, once
        `strict` is set, a proof that leaves resources unused is cut."""
        if not goals:
            if not (tail and avail and self.strict):
                yield subst, avail, None
            return
        goal, rest = goals[0], goals[1:]
        match goal:
            case Atom():
                key = (goal.sem, goal.ty, avail, tail and not rest)
                if self.strict:
                    answers = self.table.get(key)
                    if answers is None:
                        answers = self.table[key] = list(self.prove_atom(*key))
                else:
                    answers = self.prove_atom(*key)
                matched = False
                for meaning, a2, e2 in answers:
                    s2 = _unify(goal.meaning, meaning, subst, False)
                    if s2 is None:
                        continue
                    matched = True
                    yield from self._then(rest, a2, s2, e2, tail)
                if not matched and not self.strict:
                    self.record_failure(goal.sem, goal.ty, avail)
            case Tensor():
                for parts in self._orders(flatten_tensor(goal)):
                    yield from self.prove(parts + rest, avail, subst, tail)
            case Limp():
                new = 0
                assumed = None
                for part in flatten_tensor(goal.antecedent):
                    part = part.substitute_meanings(subst)
                    rid = self._draw((part, self._hyp_word(part), "h", 0, 0), avail | new)
                    new |= 1 << rid
                    assumed = (assumed, rid)
                avail |= new
                for s2, a2, e2 in self.prove([goal.consequent], avail, subst, tail and not rest):
                    # Premises never depend on a hypothesis: only walk the
                    # proof when it leaves a hypothesis or derived resource.
                    if a2 & ~self.premise_mask and a2 & _dependents(e2, new, self.registry)[0]:
                        continue
                    yield from self._then(rest, a2, s2, (assumed, e2), tail)
            case Forall(var, body) if isinstance(var, MeaningVar):
                hyp = self.hyps[var.name]
                for s2, a2, e2 in self.prove([body], avail, subst, tail and not rest):
                    # The owning focus's bindings are visible outside the
                    # hypothesis's scope, so none of them may mention it.
                    if any(occurs(hyp, term) for term in s2.values()):
                        continue
                    yield from self._then(rest, a2, s2, (e2, hyp.name), tail)
            case _:
                raise GlueError(f"unsupported goal form: {goal}")

    def _then(self, goals, avail, subst, steps, tail):
        """Go on with `goals` after a proof that took `steps`."""
        if not goals:
            yield subst, avail, steps
            return
        for s2, a2, e2 in self.prove(goals, avail, subst, tail):
            yield s2, a2, (steps, e2)

    def _orders(self, goals):
        """The orders to prove `goals` in: all of them under `all_orders`."""
        if self.all_orders and len(goals) > 1:
            return map(list, itertools.permutations(goals))
        return [goals]

    def record_failure(self, sem, ty, avail):
        key = (sem.label, ty)
        consumed = (self.premise_mask & ~avail).bit_count()
        self.frontier[key] = max(consumed, self.frontier.get(key, -1))

    def _hyp_word(self, formula) -> str:
        """The name of the hypothesis constant in an atom's meaning whose
        binder set-up claimed last (an inner binder after its outer ones),
        else "hyp"."""
        if isinstance(formula, Atom):
            consts = hyp_consts(formula.meaning)
            if len(consts) > 1:
                order = {name: k for k, name in enumerate(self.hyps)}
                return max(consts, key=lambda c: (order.get(c.name, -1), c.stamp)).name
            for const in consts:
                return const.name
        return "hyp"

    def _draw(self, entry, avail) -> int:
        """The id of the hypothesis or derived resource `entry`: the first id
        of an equal entry whose bit `avail` does not hold, else a new one."""
        ids = self.drawn.setdefault(entry, [])
        for rid in ids:
            if not avail >> rid & 1:
                return rid
        ids.append(len(self.registry))
        self.registry.append(entry)
        self.focus_tables.append(self._focus(focus_skeleton(entry[0]), {}))
        return ids[-1]

    # -- atomic goals: focus a resource --------------------------------------

    def prove_atom(self, sem, ty, avail, tail):
        """Focus each available resource whose head can be `sem ~>_ty`, proving
        its antecedents in a substitution that starts empty: yield (closed
        meaning, remaining resources, steps), the steps ending in the focus's
        `apply` step, handed up as data (see `_trace`). The head's other
        tensor components become derived resources. `tail` is as for
        `prove`."""
        for rid in _ids(avail):
            _, word, _, origin, earlier = self.registry[rid]
            if avail & earlier:
                continue  # twins go in index order: an earlier one is available
            entries = self.focus_tables[rid].get((sem, ty), ())
            for antecedents, head, metas, others, displays in entries:
                for goals in self._orders(antecedents):
                    for s1, a1, e1 in self.prove(goals, avail ^ 1 << rid, {}, tail):
                        meaning = substitute_normal(head.meaning, s1)
                        # Bindings are closed: so is a head once every
                        # metavariable is bound.
                        if not s1.keys() >= metas and has_leaf(meaning, Var):
                            names = ", ".join(sorted(v.name for v in free_vars(meaning)))
                            raise NonPatternError(
                                f"head of '{word}' still contains metavariable(s) "
                                f"{names} after its antecedents were proved"
                            )
                        for extra in others:
                            extra = extra.substitute_meanings(s1)
                            derived = self._draw((extra, word, "d", origin, 0), a1)
                            a1 |= 1 << derived
                            e1 = (e1, derived)
                        yield meaning, a1, (e1, rid, head, meaning, displays, s1)

    def _focus(self, skeleton, values) -> dict:
        """The focus table of a resource with the focus `skeleton` (see
        `formulas.focus_skeleton`), its slots filled from `values` and its
        structure variables from every choice of structures in the universe:
        (antecedents, head, metavariables, other head components, display
        bindings), keyed by the head's (structure, type), in universe then
        component order."""
        semvars, entries = skeleton
        table: dict[tuple, list] = {}
        for choice in itertools.product(self.universe, repeat=len(semvars)) if semvars else [()]:
            slots = values
            if choice:
                slots = dict(values)
                slots.update(zip(semvars, choice))
            for antecedents, head, metas, others, displays in entries:
                if slots:
                    antecedents = [fill(part, slots) for part in antecedents]
                    head = fill(head, slots)
                    others = tuple([fill(part, slots) for part in others])
                    if choice:
                        displays = tuple([(n, slots.get(v, v)) for n, v in displays])
                table.setdefault((head[1], head[2]), []).append(
                    (antecedents, head, metas, others, displays)
                )
        return table


class _NotClosed(GlueError):
    """A formula holds a template path or a variable no quantifier binds."""


def _ids(mask):
    """The resource ids whose bits are set in `mask`, lowest first."""
    while mask:
        bit = mask & -mask
        yield bit.bit_length() - 1
        mask ^= bit


# ---------------------------------------------------------------------------
# Public operations.


def _instances(premise_set):
    """(premise, compiled form, slot values) for each premise, in index
    order: as `premises` made them, or for any other premise (a bare
    formula is numbered by its position), compiled here as a formula with
    no slots."""
    if type(premise_set) is Premises:
        return premise_set.instances
    premise_list = sorted(_as_premises(premise_set), key=lambda p: p.index)
    return [(p, compile_formula(p.formula), {}) for p in premise_list]


def _as_premises(items) -> list[Premise]:
    return [
        item if isinstance(item, Premise) else Premise(i, item, f"p{i}", "")
        for i, item in enumerate(items, start=1)
    ]


def search(premise_set, goal: Goal, all_traces: bool = False) -> Diagnosis:
    """A proof search for `goal` from the premises: its readings, or the
    classified failure (see `_classify`). Without `all_traces`, the search
    is strict from the start when the atom count balances (see
    `_Search.balances`); if it then finds no reading, it kept no evidence,
    and a search that is not strict gathers it on the same set-up. With
    `all_traces`, the search in every order runs only once the
    canonical-order search has found a reading: a failure is that search's,
    so its diagnosis does not depend on `all_traces`. A goal structure that
    is not a semantic structure, premises that share an index, and then, in
    index order, the first premise that is not closed or holds a meaning not
    of its atom's type index (see `formulas.compile_formula`) raise
    `GlueError`; a derivation nested too deeply for the interpreter's stack
    raises `SearchBoundError`."""
    if not isinstance(goal.sem, SemStructure):
        raise GlueError(f"goal structure {goal.sem!r} is not a semantic structure")
    try:
        engine = _Search(premise_set, [goal.sem])
        # The probe `all_traces` runs stops at its first reading, before
        # which a strict table would fill whole entries.
        engine.strict = not all_traces and engine.balances(goal)
        result = _run_search(engine, goal, probe=all_traces)
        if result is None:  # the canonical search found a reading
            result = _run_search(engine.in_every_order(), goal)
        elif engine.strict and result.status != OK:
            result = _run_search(engine.fresh(), goal)
    except RecursionError:
        raise SearchBoundError("derivation too deep for the interpreter's stack") from None
    return result


def _run_search(engine, goal, probe=False) -> Diagnosis | None:
    all_traces = engine.all_orders

    # canonical meaning -> (meaning, {trace, or () by default: trace})
    found: dict[MeaningTerm, tuple[MeaningTerm, dict]] = {}
    fewest: int | None = None  # the fewest premises a goal-reaching derivation left
    pooled = 0  # mask of their unused premises
    supplied = False
    for meaning, avail, steps in engine.prove_atom(goal.sem, goal.ty, engine.premise_mask, True):
        supplied = True
        if has_leaf(meaning, HypConst):
            continue
        if avail:
            unused = 0  # a derived resource counts as the premise it comes from
            for rid in _ids(avail):
                unused |= engine.registry[rid][3]
            if fewest is None or unused.bit_count() < fewest:
                fewest, pooled = unused.bit_count(), unused
            elif unused.bit_count() == fewest:
                pooled |= unused
            continue
        if probe:  # its caller reads only that a reading exists
            return None
        engine.strict = True
        key = _eta(meaning)
        entry = found.get(key)
        if entry is None:
            entry = found[key] = (_tidy_hints(meaning), {})
        elif not all_traces:
            continue  # default mode keeps the canonical (first) trace only
        # Distinct derivations are those whose steps differ.
        trace = _trace(steps, engine.registry)
        entry[1].setdefault(trace if all_traces else (), trace)
    if found:
        # After the first reading the search no longer hands partial
        # derivations up, and its failure evidence is not read.
        readings = sorted(
            (
                Reading(meaning, goal.ty, tuple(traces.values()))
                for meaning, traces in found.values()
            ),
            key=lambda r: format_term(r.meaning),
        )
        return Diagnosis(OK, readings=tuple(readings))
    if not supplied:
        engine.record_failure(goal.sem, goal.ty, engine.premise_mask)
    # The search skipped the derivations that swap twins, so the pool is
    # widened by every twin class it meets.
    for _, _, _, own, earlier in engine.registry[: engine.premise_mask.bit_length()]:
        if pooled & (own | earlier):  # a twin-class prefix, whole at its last premise
            pooled |= own | earlier
    return _classify(engine, goal, fewest is not None, pooled)


def _classify(engine, goal, reached, unused) -> Diagnosis:
    """The diagnosis of a search that found no reading, from what it saw.
    Static polarity gives the first cut: a demand in `engine.polarity` (or the
    goal) is unsatisfied when no supply matches it, by key, not by count, a
    structure variable matching any structure of its type. When a derivation
    reached the goal, it left premises over: `unused` pools those of the
    derivations that left the fewest. Otherwise the supplies no demand
    matches are left over, and if polarity finds every demand met, the
    failed goals of the deepest frontier (`engine.frontier`) are named:
    polarity cannot see a circularity, say."""
    table = dict(engine.polarity)
    key = (goal.sem.label, goal.ty)
    tags, bits = table.get(key, ((), 0))
    table[key] = (["goal", *tags], bits)
    unsat = {k: tags for k, (tags, _) in table.items() if tags and not _met(k, table, 1)}
    if not reached:
        for k, (_, bits) in table.items():
            if bits and not _met(k, table, 0):
                unused |= bits
        if not unsat and engine.frontier:
            deepest = max(engine.frontier.values())
            unsat = {k: () for k, n in engine.frontier.items() if n == deepest}
    leftovers = tuple(
        Leftover(engine.registry[rid][2], engine.registry[rid][1]) for rid in _ids(unused)
    )
    incomplete = bool(unsat) or not reached
    incoherent = reached or bool(leftovers)
    status = INCOMPLETE_INCOHERENT if incomplete and incoherent else (
        INCOMPLETE if incomplete else INCOHERENT
    )
    demands = tuple(
        Demand("*" if sem is None else sem, str(ty), tuple(tags))
        for (sem, ty), tags in sorted(unsat.items(), key=lambda kv: (kv[0][0] or "", str(kv[0][1])))
    )
    return Diagnosis(status, unsatisfied_demands=demands, leftover_resources=leftovers)


def _met(key, table, side) -> bool:
    """Whether an entry of `table` has a nonempty `side` (0: demands, 1:
    supplies) under a key that matches `key`; a None label matches any label
    of the same type."""
    sem, ty = key
    if sem is None:
        return any(entry[side] for (_, other), entry in table.items() if other == ty)
    return any(table.get(k, ((), 0))[side] for k in (key, (None, ty)))


def _dependents(rope, live, registry, dependent=False):
    """The mask `live` of the resources that depend on a scope's hypotheses,
    after the subproof `rope` (see `_trace`), walked in derivation order,
    and `dependent`, which turns true once the focus the walk is in depends
    on them. A focus depends on them when its resource or anything its
    antecedents consumed does, and then so does what it derives. An id
    leaves `live` when it is consumed, so one drawn again later holds a new
    resource."""
    if type(rope) is not tuple:  # none, a discharge, or a hypothesis or derived id
        if dependent and type(rope) is int and registry[rope][2] == "d":
            live |= 1 << rope
        return live, dependent
    if len(rope) == 2:
        live, dependent = _dependents(rope[0], live, registry, dependent)
        return _dependents(rope[1], live, registry, dependent)
    rid = rope[1]  # a focus consumes its resource before its antecedents
    live, used = _dependents(rope[0], live & ~(1 << rid), registry, bool(live >> rid & 1))
    return live, dependent or used


def _trace(rope, registry) -> Trace:
    """The steps of a rope, in derivation order, each built here once. A rope
    is None (no steps); the `registry` id of a hypothesis or derived
    resource (its `assume` or `derive` step); the name of a discharged
    hypothesis (its `discharge` step); a (left, right) pair of ropes; or
    (rope, resource id, head, meaning, display bindings, substitution): a
    focused resource's antecedent steps, then its `apply` step, which shows
    only that resource's own bindings. A premise is labelled by its index, a
    hypothesis or derived resource by its kind and its number in order of
    first appearance in this trace (`h1`, `h2`, ...; `d1`, ...). The search
    joins ropes in O(1); only a derivation `_run_search` keeps is
    unrolled."""
    steps = []
    labels: dict[int, str] = {}
    counts = {"h": 0, "d": 0}
    stack = [rope]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        cls = type(node)
        if cls is int:  # a hypothesis assumed or a resource derived
            formula, word, kind, _, _ = registry[node]
            counts[kind] += 1
            labels[node] = f"{kind}{counts[kind]}"
            step = "assume" if kind == "h" else "derive"
            steps.append(TraceStep(step, labels[node], word, formula))
        elif cls is str:
            steps.append(TraceStep("discharge", None, node))
        elif cls is TraceStep:  # a focus's `apply` step, after its antecedents'
            steps.append(node)
        elif len(node) == 2:
            stack += (node[1], node[0])
        else:
            inner, rid, head, meaning, displays, s1 = node
            _, word, label, _, _ = registry[rid]
            bindings = tuple((name, s1.get(v, v)) for name, v in displays)
            atom = Atom(head.sem, head.ty, meaning)
            stack += (TraceStep("apply", labels.get(rid, label), word, atom, bindings), inner)
    return tuple(steps)


def derive(premise_set, goal: Goal, all_traces: bool = False) -> tuple[Reading, ...]:
    """All readings of `goal` derivable from the premises, each premise used
    exactly once, deduplicated up to alpha-beta-eta equivalence and sorted by
    their printed form."""
    return search(premise_set, goal, all_traces).readings


def _tidy_hints(term: MeaningTerm) -> MeaningTerm:
    """Drop the freshness suffix from binder hints; printing re-freshens only
    on actual collisions. A subterm with no suffixed hint comes back as it
    is."""
    kind = type(term)
    if kind is App:
        return _app(term, _tidy_hints(term[1]), _tidy_hints(term[2]))
    if kind is Lam:
        hint = term[3]
        tidy = hint.rstrip("0123456789") or hint
        body = _tidy_hints(term[2])
        return term if tidy == hint and body is term[2] else Lam(term[1], body, tidy)
    return term


def entails(antecedent: GlueFormula, consequent: GlueFormula) -> bool:
    """Linear entailment with exact resource usage for propositional
    tensor-fragment formulas. A formula that is not closed, or one atom's
    meaning not of its type index, raises `GlueError`: the consequent's
    first, then the antecedent's (see `formulas.compile_formula`)."""
    goal = compile_formula(consequent, positive=False)
    if goal.fault == NOT_CLOSED:
        raise _NotClosed(f"formula {consequent} is not closed")
    if goal.fault:
        raise GlueError(f"the consequent {goal.fault}")
    sems = [sem for sem, _, _ in goal.atoms if type(sem) is SemStructure]
    try:
        engine = _Search(flatten_tensor(antecedent), sems)
    except _NotClosed:
        raise GlueError(f"formula {antecedent} is not closed") from None
    # Normal from set-up on, as the premises are, and its goal binders
    # renamed apart from theirs.
    names = engine._claim(goal, {*goal.binders, *engine.hyps})
    if names:
        goal = compile_formula(consequent, positive=False, names=names)
    engine.strict = True  # only a proof that uses every premise counts
    return any(
        not avail
        for _subst, avail, _steps in engine.prove([goal.formula], engine.premise_mask, {}, True)
    )


def prop(name: str) -> Atom:
    """A propositional atom for entailment checks."""
    return Atom(SemStructure(name), T, Const(name, T))
