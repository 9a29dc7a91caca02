"""Linear-logic glue formulas: typed means-atoms, tensor, linear implication,
and universal quantification over meaning and semantic-structure variables.

Atoms relate a semantic-structure expression to a meaning term at a type
index. Before instantiation the structure side may be a path (`^`,
`(^ SUBJ)`, `(mod ^)`); afterwards only concrete structures and
quantifier-bound structure variables remain.
"""

from __future__ import annotations

from . import terms
from .fstruct import SemStructure
from .node import Node
from .semtypes import BaseType
from .terms import MeaningTerm, Var


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
        match self:
            case Atom(s, ty, meaning):
                if isinstance(s, SemVar) and s.name == name:
                    return Atom(sem, ty, meaning)
                return self
            case Tensor(left, right):
                return Tensor(left.substitute_sem(name, sem), right.substitute_sem(name, sem))
            case Limp(antecedent, consequent):
                return Limp(
                    antecedent.substitute_sem(name, sem),
                    consequent.substitute_sem(name, sem),
                )
            case Forall(var, body):
                if isinstance(var, SemVar) and var.name == name:
                    return self
                return Forall(var, body.substitute_sem(name, sem))
        return self

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
