"""Simply-typed lambda terms for the meaning language.

Bound variables are de Bruijn indices (locally nameless): alpha-equivalence
is plain structural equality and substitution cannot capture. Binder names
survive only as printing hints.

Each node is a tagged tuple (see `node`): the class's name, then its fields.
Construction, equality and hashing are the tuple's, in C, and the tag keeps
nodes of different classes apart, so `Const("a", e) != Var("a", e)`. The one
exception is `Lam`, whose hint is left out of its equality and hashing.

The walks here dispatch on `type(t)` and read fields by index (`t[1]`,
`t[2]`); the classes keep `__match_args__`, so callers can still `match` on
them. A walk that changes no child returns the node it was given, so a term
that substitution or normalization leaves alone comes back as it is, with
its subterms shared. Every question about a term's leaves (its free
variables, its hypotheses, whether a leaf occurs) is asked of one pre-order
leaf walk, `_leaves`. The printer walks a term once: it learns the names a
binder must avoid as it prints them, and prints again only when a binder
took a name that the rest of the term turned out to use.
"""

from __future__ import annotations

from .errors import TermTypeError, UnboundVariableError
from .node import Node
from .semtypes import ArrowType, BaseType, SemType


class MeaningTerm(Node):
    __slots__ = ()

    def __str__(self) -> str:
        return format_term(self)


class Const(MeaningTerm):
    __slots__ = ()
    __match_args__ = ("name", "ty")


class HypConst(MeaningTerm):
    """Constant standing for a hypothetical referent in a derivation.

    A distinct node kind so a finished reading can be audited not to leak one.
    The prover makes one per goal binder and search, named after the binder
    and stamped with its place among the goal binders of its formula.
    """

    __slots__ = ()
    __match_args__ = ("name", "ty", "stamp")


class Var(MeaningTerm):
    """Named variable: a template variable, which the prover also uses as the
    metavariable of a focus (each focus solves its own, so no renaming)."""

    __slots__ = ()
    __match_args__ = ("name", "ty")


class BoundVar(MeaningTerm):
    __slots__ = ()
    __match_args__ = ("index",)


class App(MeaningTerm):
    __slots__ = ()
    __match_args__ = ("fun", "arg")


class Lam(MeaningTerm, hint="x"):
    """Abstraction; `hint` names the binder for printing only, so equality
    and hashing compare the tag, type and body alone."""

    __slots__ = ()
    __match_args__ = ("var_type", "body", "hint")

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
    while type(term) is App:
        args.append(term[2])
        term = term[1]
    args.reverse()
    return term, args


def _leaves(term: MeaningTerm):
    """The leaves of `term` (constants, variables, bound variables), in
    pre-order. The walk keeps its own stack, so no depth overflows the
    interpreter's stack, and a caller that stops early stops the walk."""
    stack = [term]
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is App:
            stack.append(t[2])
            stack.append(t[1])
        elif kind is Lam:
            stack.append(t[2])
        else:
            yield t


def free_vars(term: MeaningTerm) -> frozenset[Var]:
    return frozenset(t for t in _leaves(term) if type(t) is Var)


def hyp_consts(term: MeaningTerm) -> frozenset[HypConst]:
    return frozenset(t for t in _leaves(term) if type(t) is HypConst)


def has_leaf(term: MeaningTerm, kind: type) -> bool:
    """Whether a leaf of `term` is of class `kind` (`Var` for a free named
    variable, `HypConst` for a hypothesis); the walk stops at the first."""
    return kind in map(type, _leaves(term))


def occurs(leaf: MeaningTerm, term: MeaningTerm) -> bool:
    """Whether the leaf node `leaf` (a variable or constant) occurs in `term`;
    the walk stops at the first occurrence."""
    return leaf in _leaves(term)


def substitute(term: MeaningTerm, mapping: dict[Var, MeaningTerm]) -> MeaningTerm:
    """Replace named variables; replacements must be locally closed. A
    subterm that holds no mapped variable comes back as it is."""
    if not mapping:
        return term
    return _substitute(term, mapping)


# The walks rebuild an application or abstraction only when a child changed.


def _app(t, fun, arg):
    return t if fun is t[1] and arg is t[2] else App(fun, arg)


def _lam(t, body):
    return t if body is t[2] else Lam(t[1], body, t[3])


def _substitute(t, mapping):
    kind = type(t)
    if kind is App:
        return _app(t, _substitute(t[1], mapping), _substitute(t[2], mapping))
    if kind is Lam:
        return _lam(t, _substitute(t[2], mapping))
    if kind is Var:
        return mapping.get(t, t)
    return t


def substitute_normal(term: MeaningTerm, mapping: dict[Var, MeaningTerm]) -> MeaningTerm:
    """`normalize(substitute(term, mapping))` for a beta-normal `term` and
    closed beta-normal replacements, by hereditary substitution: the walk
    substitutes as `substitute` does, and reduces only where an application's
    function, a variable or application in the normal `term`, has become an
    abstraction."""
    if not mapping:
        return term
    return _substitute_normal(term, mapping)


def _substitute_normal(t, mapping):
    kind = type(t)
    if kind is App:
        fun = _substitute_normal(t[1], mapping)
        arg = _substitute_normal(t[2], mapping)
        if type(fun) is Lam:
            return _beta(open_binder(fun[2], arg))
        return _app(t, fun, arg)
    if kind is Lam:
        return _lam(t, _substitute_normal(t[2], mapping))
    if kind is Var:
        return mapping.get(t, t)
    return t


def typecheck(term: MeaningTerm) -> SemType:
    """Return the term's unique type; a named variable has the type it
    carries."""
    return _typecheck(term, [])


def _typecheck(t, binders) -> SemType:
    # `binders` holds the enclosing binders' types, innermost last.
    kind = type(t)
    if kind is App:
        fun_ty = _typecheck(t[1], binders)
        arg_ty = _typecheck(t[2], binders)
        if type(fun_ty) is not ArrowType:
            raise TermTypeError(f"cannot apply a term of type {fun_ty}")
        if fun_ty[1] != arg_ty:
            raise TermTypeError(
                f"argument type {arg_ty} does not match expected {fun_ty[1]}"
            )
        return fun_ty[2]
    if kind is Lam:
        binders.append(t[1])
        body_ty = _typecheck(t[2], binders)
        binders.pop()
        return ArrowType(t[1], body_ty)
    if kind is BoundVar:
        index = t[1]
        if index >= len(binders):
            raise UnboundVariableError(f"dangling bound variable #{index}")
        return binders[-1 - index]
    if kind is Const or kind is Var or kind is HypConst:
        return t[2]
    raise TermTypeError(f"not a meaning term: {t!r}")


def open_binder(body: MeaningTerm, replacement: MeaningTerm) -> MeaningTerm:
    """Substitute `replacement` for the stripped binder's variable."""
    return _subst_index(body, replacement, 0)


def _shift(t, by, cutoff=0):
    """`t` with every bound index at or above `cutoff` raised by `by`."""
    if by == 0:
        return t
    kind = type(t)
    if kind is App:
        return _app(t, _shift(t[1], by, cutoff), _shift(t[2], by, cutoff))
    if kind is Lam:
        return _lam(t, _shift(t[2], by, cutoff + 1))
    if kind is BoundVar and t[1] >= cutoff:
        return BoundVar(t[1] + by)
    return t


def _subst_index(t, replacement, depth):
    kind = type(t)
    if kind is App:
        return _app(
            t, _subst_index(t[1], replacement, depth), _subst_index(t[2], replacement, depth)
        )
    if kind is Lam:
        return _lam(t, _subst_index(t[2], replacement, depth + 1))
    if kind is BoundVar:
        index = t[1]
        if index == depth:
            return _shift(replacement, depth)
        if index > depth:
            return BoundVar(index - 1)
    return t


def abstract_over(term: MeaningTerm, target: Var | HypConst) -> Lam:
    """Lambda-abstract `term` over every occurrence of `target`."""
    return Lam(target.ty, _abstract(term, target, 0), target.name)


def _abstract(t, target, depth):
    kind = type(t)
    if kind is App:
        return _app(t, _abstract(t[1], target, depth), _abstract(t[2], target, depth))
    if kind is Lam:
        return _lam(t, _abstract(t[2], target, depth + 1))
    return BoundVar(depth) if t == target else t


def _occurs_index(t, target) -> bool:
    kind = type(t)
    if kind is App:
        return _occurs_index(t[1], target) or _occurs_index(t[2], target)
    if kind is Lam:
        return _occurs_index(t[2], target + 1)
    return kind is BoundVar and t[1] == target


def _beta(t):
    kind = type(t)
    if kind is App:
        fun = _beta(t[1])
        if type(fun) is Lam:
            return _beta(_subst_index(fun[2], t[2], 0))
        return _app(t, fun, _beta(t[2]))
    if kind is Lam:
        return _lam(t, _beta(t[2]))
    return t


def _eta(t):
    # Assumes beta-normal input, where contraction cannot create a redex.
    kind = type(t)
    if kind is App:
        return _app(t, _eta(t[1]), _eta(t[2]))
    if kind is Lam:
        body = _eta(t[2])
        if type(body) is App:
            fun, arg = body[1], body[2]
            if type(arg) is BoundVar and arg[1] == 0 and not _occurs_index(fun, 0):
                # Index 0 does not occur in the function, so opening the
                # binder only shifts the outer indices down: the contraction.
                return open_binder(fun, arg)
        return _lam(t, body)
    return t


def normalize(term: MeaningTerm) -> MeaningTerm:
    """Beta-normal form; terminates on every well-typed term. A term already
    in normal form comes back as it is.

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


# id(term) -> (term, text) for the terms printed last. An entry holds its
# term, so while it exists no other object can have that id.
_FORMATTED: dict[int, tuple[MeaningTerm, str]] = {}
_FORMATTED_BOUND = 512


def format_term(term: MeaningTerm) -> str:
    """The term as text. A binder is annotated with its type (`\\x:e. x`)
    unless its variable occurs as an argument of an application headed by a
    name, whose type then fixes the binder's when the text is read back. A
    binder prints as its hint, or else as the first of hint1, hint2, ...
    that is no name of the term and no enclosing binder's name; a bound
    variable with no binder in the term prints as `#index`.

    One walk prints the term, learning the term's names as it meets them; a
    second walk, with every name known, runs only when a binder took a name
    met later in the first.

    The text of the last few hundred term objects printed is remembered,
    keyed by the object's identity, so a term printed again (a reading's
    meaning on its trace's last step, a binding on every later step) is
    printed once. Equal terms are not merged: `Lam` equality ignores binder
    hints, which the text shows. The memo is emptied whenever it reaches its
    bound, so it stays small and never changes what is printed."""
    entry = _FORMATTED.get(id(term))
    if entry is not None:
        return entry[1]
    used: set[str] = set()
    chosen: list[str] = []
    text = _fmt(term, [], [], used, chosen)
    if not used.isdisjoint(chosen):
        # A binder took a name met only later in the walk: print again, with
        # every name of the term in `used` from the start.
        text = _fmt(term, [], [], used, chosen)
    if len(_FORMATTED) >= _FORMATTED_BOUND:
        _FORMATTED.clear()
    _FORMATTED[id(term)] = (term, text)
    return text


def _fmt(t, names, flags, used, chosen, named_arg=False) -> str:
    # `names` holds the enclosing binders' names, innermost last, and
    # `flags`, beside it, whether each binder's variable occurred as an
    # argument of a name-headed application; `named_arg` says whether `t` is
    # such an argument. Each name printed is added to `used` and each binder
    # name picked to `chosen`. A name that `used` rejects is a name of the
    # term, so the picks are those of the whole term's names unless some pick
    # is met later in the walk.
    kind = type(t)
    if kind is App:
        args = []
        while type(t) is App:
            args.append(t[2])
            t = t[1]
        kind = type(t)
        text = _fmt(t, names, flags, used, chosen)
        if kind is Lam:
            text = "(" + text + ")"
        named = kind is not Lam and kind is not BoundVar
        sep = "("
        for arg in reversed(args):
            text += sep + _fmt(arg, names, flags, used, chosen, named)
            sep = ", "
        return text + ")"
    if kind is Lam:
        hint = name = t[3]
        i = 0
        while name in used or name in names:
            i += 1
            name = hint + str(i)
        chosen.append(name)
        names.append(name)
        flags.append(False)
        body = _fmt(t[2], names, flags, used, chosen)
        names.pop()
        if not flags.pop():
            ty = t[1]
            name += ":" + (ty[1] if type(ty) is BaseType else str(ty))
        return "\\" + name + ". " + body
    if kind is BoundVar:
        index = t[1]
        if index < len(names):
            if named_arg:
                flags[-1 - index] = True
            return names[-1 - index]
        return "#" + str(index)
    if kind is Const or kind is Var or kind is HypConst:
        used.add(t[1])
        return t[1]
    return repr(t)
