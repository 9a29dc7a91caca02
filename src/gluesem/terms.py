"""Simply-typed lambda terms for the meaning language.

Bound variables are de Bruijn indices (locally nameless): alpha-equivalence
is plain structural equality and substitution cannot capture. Binder names
survive only as printing hints.

Each node is a tagged tuple (see `node`): the class's name, then its fields.
Construction, equality and hashing are the tuple's, in C, and the tag keeps
nodes of different classes apart, so `Const("a", e) != Var("a", e)`. The one
exception is `Lam`, whose hint is left out of its equality and hashing.
"""

from __future__ import annotations

from operator import itemgetter

from .errors import TermTypeError, UnboundVariableError
from .node import Node
from .semtypes import ArrowType, SemType

_new = tuple.__new__


class MeaningTerm(Node):
    __slots__ = ()

    def __str__(self) -> str:
        return format_term(self)


class Const(MeaningTerm):
    __slots__ = ()
    __match_args__ = ("name", "ty")
    name = property(itemgetter(1))
    ty = property(itemgetter(2))

    def __new__(cls, name: str, ty: SemType):
        return _new(cls, ("Const", name, ty))


class HypConst(MeaningTerm):
    """Fresh constant standing for a hypothetical referent in a derivation.

    A distinct node kind so a finished reading can be audited not to leak one.
    The stamp makes each introduction unique; the name is for display.
    """

    __slots__ = ()
    __match_args__ = ("name", "ty", "stamp")
    name = property(itemgetter(1))
    ty = property(itemgetter(2))
    stamp = property(itemgetter(3))

    def __new__(cls, name: str, ty: SemType, stamp: int):
        return _new(cls, ("HypConst", name, ty, stamp))


class Var(MeaningTerm):
    """Named variable: a template variable, which the prover also uses as the
    metavariable of a focus (each focus solves its own, so no renaming)."""

    __slots__ = ()
    __match_args__ = ("name", "ty")
    name = property(itemgetter(1))
    ty = property(itemgetter(2))

    def __new__(cls, name: str, ty: SemType):
        return _new(cls, ("Var", name, ty))


class BoundVar(MeaningTerm):
    __slots__ = ()
    __match_args__ = ("index",)
    index = property(itemgetter(1))

    def __new__(cls, index: int):
        return _new(cls, ("BoundVar", index))


class App(MeaningTerm):
    __slots__ = ()
    __match_args__ = ("fun", "arg")
    fun = property(itemgetter(1))
    arg = property(itemgetter(2))

    def __new__(cls, fun: MeaningTerm, arg: MeaningTerm):
        return _new(cls, ("App", fun, arg))


class Lam(MeaningTerm):
    """Abstraction; `hint` names the binder for printing only, so equality
    and hashing compare the tag, type and body alone."""

    __slots__ = ()
    __match_args__ = ("var_type", "body", "hint")
    var_type = property(itemgetter(1))
    body = property(itemgetter(2))
    hint = property(itemgetter(3))

    def __new__(cls, var_type: SemType, body: MeaningTerm, hint: str = "x"):
        return _new(cls, ("Lam", var_type, body, hint))

    def __eq__(self, other):
        if type(other) is not Lam:
            return NotImplemented
        return self[:3] == other[:3]

    def __ne__(self, other):
        # Needed: the inherited tuple `__ne__` would compare the hint.
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        return hash(self[:3])


def apply(fun: MeaningTerm, *args: MeaningTerm) -> MeaningTerm:
    for arg in args:
        fun = App(fun, arg)
    return fun


def spine(term: MeaningTerm) -> tuple[MeaningTerm, list[MeaningTerm]]:
    """Split nested applications into (head, [arg1, ..., argn])."""
    args: list[MeaningTerm] = []
    while isinstance(term, App):
        args.append(term.arg)
        term = term.fun
    args.reverse()
    return term, args


def _leaves(term: MeaningTerm, kinds: tuple[type, ...]) -> list[MeaningTerm]:
    """The leaves of `term` whose class is one of `kinds`, in pre-order. The
    walk keeps its own stack, so no depth overflows the interpreter's stack."""
    found = []
    stack = [term]
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is App:
            stack.append(t.arg)
            stack.append(t.fun)
        elif kind is Lam:
            stack.append(t.body)
        elif kind in kinds:
            found.append(t)
    return found


def free_vars(term: MeaningTerm) -> frozenset[Var]:
    return frozenset(_leaves(term, (Var,)))


def hyp_consts(term: MeaningTerm) -> frozenset[HypConst]:
    return frozenset(_leaves(term, (HypConst,)))


def substitute(term: MeaningTerm, mapping: dict[Var, MeaningTerm]) -> MeaningTerm:
    """Replace named variables; replacements must be locally closed."""
    if not mapping:
        return term
    match term:
        case Var():
            return mapping.get(term, term)
        case App(fun, arg):
            return App(substitute(fun, mapping), substitute(arg, mapping))
        case Lam(ty, body, hint):
            return Lam(ty, substitute(body, mapping), hint)
        case _:
            return term


def typecheck(term: MeaningTerm) -> SemType:
    """Return the term's unique type; a named variable has the type it
    carries."""
    return _typecheck(term, [])


def _typecheck(term, stack) -> SemType:
    match term:
        case Const(_, ty) | HypConst(_, ty, _) | Var(_, ty):
            return ty
        case BoundVar(index):
            if index >= len(stack):
                raise UnboundVariableError(f"dangling bound variable #{index}")
            return stack[index]
        case App(fun, arg):
            fun_ty = _typecheck(fun, stack)
            arg_ty = _typecheck(arg, stack)
            if not isinstance(fun_ty, ArrowType):
                raise TermTypeError(f"cannot apply a term of type {fun_ty}")
            if fun_ty.arg != arg_ty:
                raise TermTypeError(
                    f"argument type {arg_ty} does not match expected {fun_ty.arg}"
                )
            return fun_ty.result
        case Lam(var_type, body, _):
            return ArrowType(var_type, _typecheck(body, [var_type] + stack))
    raise TermTypeError(f"not a meaning term: {term!r}")


def open_binder(body: MeaningTerm, replacement: MeaningTerm) -> MeaningTerm:
    """Substitute `replacement` for the stripped binder's variable."""
    return _subst_index(body, replacement, 0)


def _shift(term, by, cutoff=0):
    match term:
        case BoundVar(index):
            return BoundVar(index + by) if index >= cutoff else term
        case App(fun, arg):
            return App(_shift(fun, by, cutoff), _shift(arg, by, cutoff))
        case Lam(ty, body, hint):
            return Lam(ty, _shift(body, by, cutoff + 1), hint)
        case _:
            return term


def _subst_index(term, replacement, depth):
    match term:
        case BoundVar(index):
            if index == depth:
                return _shift(replacement, depth)
            if index > depth:
                return BoundVar(index - 1)
            return term
        case App(fun, arg):
            return App(
                _subst_index(fun, replacement, depth),
                _subst_index(arg, replacement, depth),
            )
        case Lam(ty, body, hint):
            return Lam(ty, _subst_index(body, replacement, depth + 1), hint)
        case _:
            return term


def abstract_over(term: MeaningTerm, target: Var | HypConst) -> Lam:
    """Lambda-abstract `term` over every occurrence of `target`."""

    def go(t, depth):
        if t == target:
            return BoundVar(depth)
        match t:
            case App(fun, arg):
                return App(go(fun, depth), go(arg, depth))
            case Lam(ty, body, h):
                return Lam(ty, go(body, depth + 1), h)
            case _:
                return t

    return Lam(target.ty, go(term, 0), target.name)


def _occurs_index(term, target) -> bool:
    match term:
        case BoundVar(index):
            return index == target
        case App(fun, arg):
            return _occurs_index(fun, target) or _occurs_index(arg, target)
        case Lam(_, body):
            return _occurs_index(body, target + 1)
        case _:
            return False


def _beta(term):
    match term:
        case App(fun, arg):
            fun = _beta(fun)
            if isinstance(fun, Lam):
                return _beta(open_binder(fun.body, arg))
            return App(fun, _beta(arg))
        case Lam(ty, body, hint):
            return Lam(ty, _beta(body), hint)
        case _:
            return term


def _eta(term):
    # Assumes beta-normal input, where contraction cannot create a redex.
    match term:
        case App(fun, arg):
            return App(_eta(fun), _eta(arg))
        case Lam(ty, body, hint):
            body = _eta(body)
            if (
                isinstance(body, App)
                and body.arg == BoundVar(0)
                and not _occurs_index(body.fun, 0)
            ):
                # Index 0 does not occur in body.fun, so opening the binder
                # only shifts the outer indices down: the contraction.
                return open_binder(body.fun, body.arg)
            return Lam(ty, body, hint)
        case _:
            return term


def normalize(term: MeaningTerm) -> MeaningTerm:
    """Beta-normal form; terminates on every well-typed term.

    Abstractions are left as constructed (no eta rewriting), so normal forms
    read the way derivations build them; eta enters only through
    `equivalent`, which identifies terms up to it.
    """
    return _beta(term)


def canonical_form(term: MeaningTerm) -> MeaningTerm:
    """Eta-contracted beta-normal form: the representative used to decide
    alpha-beta-eta equivalence."""
    return _eta(_beta(term))


def equivalent(t1: MeaningTerm, t2: MeaningTerm) -> bool:
    """Alpha-beta-eta equivalence of two well-typed terms of the same type."""
    ty1 = typecheck(t1)
    ty2 = typecheck(t2)
    if ty1 != ty2:
        raise TermTypeError(f"cannot compare terms of types {ty1} and {ty2}")
    return canonical_form(t1) == canonical_form(t2)


def format_term(term: MeaningTerm) -> str:
    """The term as text. A binder is annotated with its type (`\\x:e. x`)
    unless its variable occurs as an argument of an application headed by a
    name, whose type then fixes the binder's when the text is read back."""
    used = {t.name for t in _leaves(term, (Const, Var, HypConst))}
    return _fmt(term, [], used)


def _pick_name(hint: str, used, stack) -> str:
    """`hint`, or else the first of hint1, hint2, ... that is neither a name
    in the term nor an enclosing binder's name."""
    name, i = hint, 0
    while name in used or any(b[0] == name for b in stack):
        i += 1
        name = f"{hint}{i}"
    return name


def _fmt(term, stack, used, named_arg=False) -> str:
    # `stack` holds each enclosing binder, innermost first, as [name, whether
    # its variable occurred as an argument of a name-headed application];
    # `named_arg` says whether `term` is such an argument.
    match term:
        case Const(name, _) | Var(name, _) | HypConst(name, _, _):
            return name
        case BoundVar(index):
            if index < len(stack):
                if named_arg:
                    stack[index][1] = True
                return stack[index][0]
            return f"#{index}"
        case App():
            head, args = spine(term)
            head_s = _fmt(head, stack, used)
            if isinstance(head, Lam):
                head_s = f"({head_s})"
            named = not isinstance(head, (Lam, BoundVar))
            args_s = ", ".join(_fmt(a, stack, used, named) for a in args)
            return f"{head_s}({args_s})"
        case Lam(ty, body, hint):
            name = _pick_name(hint, used, stack)
            binder = [name, False]
            body_s = _fmt(body, [binder] + stack, used)
            if not binder[1]:
                name += f":{ty}"
            return f"\\{name}. {body_s}"
    return repr(term)
