"""Linear-logic glue formulas: typed means-atoms, tensor, linear implication,
and universal quantification over meaning and semantic-structure variables.

Atoms relate a semantic-structure expression to a meaning term at a type
index. Before instantiation the structure side may be a path (`^`,
`(^ SUBJ)`, `(mod ^)`); afterwards only concrete structures and
quantifier-bound structure variables remain.

What the proof search reads of a formula that does not depend on the
sentence is worked out once, by `compile_formula`: a lexicon does so once
per template, the search for a premise made any other way. That includes
its focus skeleton (`focus_skeleton`), which holds the subformulas a focus
on it uses. Their structures are slots, which `fill` fills per sentence,
and per choice of structure variables when the search builds a focus
table.
"""

from __future__ import annotations

from . import terms
from .errors import GlueError, TermTypeError, UnboundVariableError
from .fstruct import SemStructure
from .node import Node
from .semtypes import BaseType
from .terms import HypConst, MeaningTerm, Var


class SemVar(Node):
    """A quantifier-bound semantic-structure variable (a possible scope)."""

    __slots__ = ()
    __match_args__ = ("name",)

    def __str__(self) -> str:
        return self.name


class PathRef(Node, path=()):
    """Template-only structure expression: `^` or `(^ SUBJ OBJ)` (anchor "up"),
    or `(mod ^)` (anchor "mod")."""

    __slots__ = ()
    __match_args__ = ("anchor", "path")

    def __str__(self) -> str:
        if self.anchor == "mod":
            return "(mod ^)"
        if not self.path:
            return "^"
        return f"(^ {' '.join(self.path)})"


class MeaningVar(Node):
    """Quantifier binder for a typed meaning variable."""

    __slots__ = ()
    __match_args__ = ("name", "ty")

    def __str__(self) -> str:
        return f"{self.name}:{self.ty}"


class GlueFormula(Node):
    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)

    # --- structural helpers -------------------------------------------------

    def substitute_sem(self, name: str, sem) -> "GlueFormula":
        """Replace the structure variable `name` with a concrete structure."""
        return fill(self, {SemVar(name): sem})

    def substitute_meanings(self, mapping: dict[Var, MeaningTerm]) -> "GlueFormula":
        """Put closed values in for meaning variables by hereditary
        substitution: normal meanings and values give normal meanings."""
        match self:
            case Atom(sem, ty, meaning):
                return Atom(sem, ty, terms.substitute_normal(meaning, mapping))
            case Tensor(left, right):
                return Tensor(
                    left.substitute_meanings(mapping), right.substitute_meanings(mapping)
                )
            case Limp(antecedent, consequent):
                return Limp(
                    antecedent.substitute_meanings(mapping),
                    consequent.substitute_meanings(mapping),
                )
            case Forall(var, body):
                if isinstance(var, MeaningVar):
                    rebound = Var(var.name, var.ty)
                    mapping = {v: t for v, t in mapping.items() if v != rebound}
                    if not mapping:
                        return self
                return Forall(var, body.substitute_meanings(mapping))
        return self


class Atom(GlueFormula):
    __slots__ = ()
    __match_args__ = ("sem", "ty", "meaning")


class Tensor(GlueFormula):
    __slots__ = ()
    __match_args__ = ("left", "right")


class Limp(GlueFormula):
    __slots__ = ()
    __match_args__ = ("antecedent", "consequent")


class Forall(GlueFormula):
    __slots__ = ()
    __match_args__ = ("var", "body")


def fill(formula: GlueFormula, values: dict) -> GlueFormula:
    """`formula` with each atom's structure that is a key of `values` (a
    template path, or a structure variable no quantifier inside rebinds)
    replaced by its value. A subformula that this changes nowhere comes back
    as it is."""
    kind = type(formula)
    if kind is Atom:
        sem = values.get(formula[1])
        return formula if sem is None else Atom(sem, formula[2], formula[3])
    if kind is Forall:
        var, body = formula[1], formula[2]
        if type(var) is SemVar and var in values:
            values = {k: v for k, v in values.items() if k != var}
        filled = fill(body, values)
        return formula if filled is body else Forall(var, filled)
    if kind is Tensor or kind is Limp:
        left, right = fill(formula[1], values), fill(formula[2], values)
        return formula if left is formula[1] and right is formula[2] else kind(left, right)
    return formula


NOT_CLOSED = "is not closed"
_NO_METAS: frozenset = frozenset()  # shared by every focus that solves no metavariable


class Compiled(Node):
    """What the search reads of a formula that does not depend on the
    sentence (see `compile_formula`): its `slots`, the distinct template
    paths its atoms name, in walk order; its first `fault`, or ""; its
    `atoms`, each as (structure, type, whether it is positive), in walk
    order; the names of its meaning `binders`; its set-up `formula`, which
    is the formula itself where set-up changed nothing; the hypothesis
    constants it `claims`, in claim order; and a premise's focus `skeleton`
    (see `focus_skeleton`), whose entries hold subformulas of the set-up
    formula, or the error building it raised (`rebinds`). A faulty formula
    is compiled no further than its atoms: its `formula` is the one given."""

    __slots__ = ()
    __match_args__ = (
        "slots", "fault", "atoms", "binders", "formula", "claims", "skeleton", "rebinds"
    )


def compile_formula(formula, template=False, positive=True, names=()) -> Compiled:
    """`formula` compiled for the search, `positive` saying whether it is a
    premise (True) or a goal. One walk lists its atoms and its meaning
    binders' names, finds its first fault, left to right, and sets it up.
    An atom whose structure is neither a semantic structure, nor a bound
    structure variable, nor (in a `template`) a path, or whose meaning holds
    a variable not bound (by name and type) around it, is not closed; one
    whose meaning does not have the atom's type index is ill-typed. The
    search relies on the last, binding a metavariable outside every binder
    without typechecking the value. Set-up normalizes each atom's meaning
    and gives each meaning binder the search proves as a goal (in an odd
    number of antecedents of a premise, an even one of a goal) its one
    hypothesis constant, which replaces the binder's variable in its body
    and joins the claims, stamped with its place there. The constant is
    named after the binder, or by `names` (one name per claim, in order),
    which renames the binder too. Nothing is normalized from the first fault
    on: an ill-typed term may not halt."""
    walk = _Walk(template, names)
    set_up = walk.set_up(formula, positive, frozenset(), {})
    read = (tuple(walk.slots), walk.fault, tuple(walk.atoms), tuple(walk.binders))
    if walk.fault:
        return Compiled(*read, formula, (), None, "")
    skeleton, rebinds = None, ""
    if positive:
        try:
            skeleton = focus_skeleton(set_up)
        except GlueError as exc:
            rebinds = str(exc)
    return Compiled(*read, set_up, tuple(walk.claims), skeleton, rebinds)


class _Walk:
    """The one walk of `compile_formula`, and what it has found so far."""

    __slots__ = ("template", "names", "slots", "atoms", "binders", "claims", "fault")

    def __init__(self, template, names):
        self.template, self.names = template, names
        self.slots, self.atoms, self.binders, self.claims = [], [], [], []
        self.fault = ""

    def set_up(self, part, positive, bound, hyps):
        """`part` set up, where `hyps` maps goal binders' variables to their
        constants; one that this changes nowhere comes back as it is."""
        kind = type(part)
        if kind is Atom:
            _, sem, ty, meaning = part
            self.atoms.append((sem, ty, positive))
            if type(sem) is PathRef and self.template:
                closed = True
                if sem not in self.slots:
                    self.slots.append(sem)
            else:
                closed = type(sem) is SemStructure or sem in bound
            if self.fault:
                return part
            for leaf in terms._leaves(meaning) if closed else ():
                if type(leaf) is Var and leaf not in bound:
                    closed = False
                    break
            if not closed:
                self.fault = NOT_CLOSED
                return part
            try:
                found = terms.typecheck(meaning)
            except (TermTypeError, UnboundVariableError) as exc:
                self.fault = f"is ill-typed: {exc}"
                return part
            if found != ty:
                self.fault = (
                    f"is ill-typed: {terms.format_term(meaning)} has type {found}, "
                    f"not its index type {ty}"
                )
                return part
            normal = terms.normalize(terms.substitute_normal(meaning, hyps) if hyps else meaning)
            return part if normal is meaning else Atom(sem, ty, normal)
        if kind is Forall:
            var, body = part[1], part[2]
            if type(var) is MeaningVar:
                self.binders.append(var.name)
                own = Var(var.name, var.ty)
                if own in hyps:  # an inner binder of the same variable
                    hyps = {v: c for v, c in hyps.items() if v != own}
                if not positive:
                    claims = self.claims
                    name = self.names[len(claims)] if self.names else var.name
                    claims.append(HypConst(name, var.ty, len(claims) + 1))
                    hyps = {**hyps, own: claims[-1]}
                    var = MeaningVar(name, var.ty)
                bound = bound | {own}
            else:
                bound = bound | {var}
            inner = self.set_up(body, positive, bound, hyps)
            return part if var is part[1] and inner is body else Forall(var, inner)
        if kind is Tensor or kind is Limp:
            left = self.set_up(part[1], positive if kind is Tensor else not positive, bound, hyps)
            right = self.set_up(part[2], positive, bound, hyps)
            return part if left is part[1] and right is part[2] else kind(left, right)
        return part


def focus_skeleton(formula):
    """(structure variables, entries): what a focus on a resource with
    `formula` can use, its quantifiers and implications stripped. An entry
    is (its antecedents, an atomic head component, the focus's
    metavariables, the other head components, display bindings), each a
    subformula of `formula`, for each atomic head component in component
    order. A structure variable stays in them as a slot, filled per choice
    of it (see `prover._Search._focus`); an inner quantifier on the spine
    that rebinds one is renamed apart in its body, which the walk goes on
    with. A meaning variable serves as the focus's metavariable as is, since
    a focus solves its metavariables in a substitution of its own, so a
    premise whose spine rebinds one raises `GlueError`."""
    semvars: list[SemVar] = []
    displays: tuple = ()
    antecedents: list[GlueFormula] = []
    part = formula
    while True:
        kind = type(part)
        if kind is Forall:
            var, part = part[1], part[2]
            if isinstance(var, MeaningVar):
                meta = Var(var.name, var.ty)
                if any(v == meta for _, v in displays):
                    raise GlueError(f"a premise rebinds the meaning variable {var}")
                displays += ((var.name, meta),)
            else:
                slot = var
                if var in semvars:
                    slot = SemVar(len(semvars))  # no name a quantifier binds
                    part = fill(part, {var: slot})
                semvars.append(slot)
                displays += ((var.name, slot),)
        elif kind is Limp:
            antecedents += flatten_tensor(part[1])
            part = part[2]
        else:
            break
    metas = frozenset([v for _, v in displays if type(v) is Var]) if displays else None
    metas = metas or _NO_METAS
    components = flatten_tensor(part)
    entries = [
        (antecedents, head, metas, (*components[:k], *components[k + 1 :]), displays)
        for k, head in enumerate(components)
        if type(head) is Atom
    ]
    return tuple(semvars), entries


def flatten_tensor(formula: GlueFormula) -> list[GlueFormula]:
    if isinstance(formula, Tensor):
        return flatten_tensor(formula.left) + flatten_tensor(formula.right)
    return [formula]


def format_formula(formula: GlueFormula) -> str:
    kind = type(formula)
    if kind is Atom:
        _, sem, ty, meaning = formula
        sem = sem[1] + "_σ" if type(sem) is SemStructure else str(sem)  # as its __str__
        ty = ty[1] if type(ty) is BaseType else f"({ty})"  # an arrow
        return sem + " ~>_" + ty + " " + terms.format_term(meaning)
    if kind is Tensor:
        return f"{_wrap(formula[1])} * {_wrap(formula[2])}"
    if kind is Limp:
        return f"{_wrap(formula[1])} -o {format_formula(formula[2])}"
    if kind is Forall:
        binders = []
        while type(formula) is Forall:
            binders.append(str(formula[1]))
            formula = formula[2]
        return f"forall {', '.join(binders)}. {format_formula(formula)}"
    return repr(formula)


def _wrap(formula: GlueFormula) -> str:
    kind = type(formula)
    if kind is Limp or kind is Forall or kind is Tensor:
        return f"({format_formula(formula)})"
    return format_formula(formula)


__all__ = [
    "Atom",
    "Forall",
    "GlueFormula",
    "Limp",
    "MeaningVar",
    "PathRef",
    "SemStructure",
    "SemVar",
    "Tensor",
    "flatten_tensor",
    "format_formula",
]
