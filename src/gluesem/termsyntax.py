"""Concrete syntax for meaning terms.

Application is written `f(a, b)` (sugar for curried application), abstraction
`\\x. body` with an optional annotation `\\x:e. body`. Constants take their
types from a signature.

One recursive descent reads, resolves and types a term: each identifier is
resolved at its token (binders, then `env`, then the signature), an
unannotated binder gets a type variable, and each argument is unified with
its function's type as soon as it is read. Once the whole term is read, the
solved type variables are substituted into the binders (zonking).
"""

from __future__ import annotations

from .errors import TermTypeError, UnboundVariableError
from .lexer import Tokens, tokenize
from .semtypes import ArrowType, SemType, parse_type_at
from .terms import App, BoundVar, Const, Lam, MeaningTerm, Var


class _TypeMeta(SemType):
    __slots__ = ()
    __match_args__ = ("ident",)

    def __str__(self) -> str:
        return f"?{self.ident}"


def parse_term(
    text: str,
    signature: dict[str, SemType],
    env: dict[str, SemType] | None = None,
    source: str | None = None,
) -> MeaningTerm:
    """Parse and type a term; free names resolve via env (variables) then
    signature (constants)."""
    ts = tokenize(text, source)
    term, _ = parse_term_at(ts, signature, env)
    if not ts.at_end():
        ts.fail(f"unexpected {ts.text()!r} after term")
    return term


def parse_term_at(
    ts: Tokens,
    signature: dict[str, SemType],
    env: dict[str, SemType] | None = None,
) -> tuple[MeaningTerm, SemType]:
    """The term at the current position and its type."""
    parser = _TermParser(ts, signature, env or {})
    term, ty = parser.parse()
    if parser.binder_at:  # annotated binders already hold their final types
        term = parser.zonk_term(term)
    return term, parser.zonk_type(ty)


class _TermParser:
    def __init__(self, ts: Tokens, signature, env):
        self.ts = ts
        self.signature = signature
        self.env = env
        self.binders: list[tuple[str, SemType]] = []  # innermost last
        self.bindings: dict[int, SemType] = {}
        self.counter = 0
        self.binder_at = {}  # type-variable ident -> its unannotated binder's token index

    def parse(self) -> tuple[MeaningTerm, SemType]:
        ts = self.ts
        if not ts.accept("\\"):
            return self._parse_applied()
        lam_at = ts.pos - 1
        name = ts.expect("IDENT", "a variable name")
        if ts.accept(":"):
            var_ty = parse_type_at(ts)
        else:
            var_ty = self.fresh()
            self.binder_at[var_ty.ident] = lam_at + 1  # the name's token
        ts.expect(".")
        ts.descend("meaning terms", lam_at)
        self.binders.append((name, var_ty))
        body, body_ty = self.parse()
        self.binders.pop()
        ts.ascend()
        return Lam(var_ty, body, name), ArrowType(var_ty, body_ty)

    def _parse_applied(self) -> tuple[MeaningTerm, SemType]:
        ts = self.ts
        fun, fun_ty = self._parse_atom()
        levels = 0  # each argument list nests the application one level deeper
        while ts.accept("("):
            open_at = ts.pos - 1
            ts.descend("meaning terms", open_at)
            levels += 1
            while True:
                arg, arg_ty = self.parse()
                try:
                    fun_ty = self.apply(fun_ty, arg_ty)
                except TermTypeError as exc:
                    line, column = ts.position(open_at)
                    raise TermTypeError(
                        f"ill-typed application at line {line}, column {column}: {exc}"
                    ) from exc
                fun = App(fun, arg)
                if not ts.accept(","):
                    break
            ts.expect(")")
        ts.ascend(levels)
        return fun, fun_ty

    def _parse_atom(self) -> tuple[MeaningTerm, SemType]:
        ts = self.ts
        if ts.accept("("):
            ts.descend("meaning terms", ts.pos - 1)
            inner = self.parse()
            ts.ascend()
            ts.expect(")")
            return inner
        name = ts.expect("IDENT", "a term")
        for index, (bound, ty) in enumerate(reversed(self.binders)):
            if bound == name:
                return BoundVar(index), ty
        if name in self.env:
            return Var(name, self.env[name]), self.env[name]
        if name in self.signature:
            return Const(name, self.signature[name]), self.signature[name]
        line, column = ts.position(ts.pos - 1)
        raise UnboundVariableError(f"unknown name '{name}' at line {line}, column {column}")

    def apply(self, fun_ty: SemType, arg_ty: SemType) -> SemType:
        """The type of a function of type `fun_ty` applied to an argument of
        type `arg_ty`: a fresh type variable `r`, once `fun_ty` is unified
        with `arg_ty -> r`. A function type that already resolves to an arrow
        whose result is no type variable gives that result directly, which is
        what `r` would be bound to; `r` is still counted, so every `?n` in an
        error message keeps its number."""
        fun_ty = self.resolve(fun_ty)
        if type(fun_ty) is ArrowType and type(self.resolve(fun_ty.result)) is not _TypeMeta:
            self.counter += 1
            self.unify(fun_ty.arg, arg_ty)
            return fun_ty.result
        result = self.fresh()
        self.unify(fun_ty, ArrowType(arg_ty, result))
        return result

    def fresh(self) -> _TypeMeta:
        self.counter += 1
        return _TypeMeta(self.counter)

    def resolve(self, ty: SemType) -> SemType:
        while isinstance(ty, _TypeMeta) and ty.ident in self.bindings:
            ty = self.bindings[ty.ident]
        return ty

    def unify(self, a: SemType, b: SemType):
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return
        if isinstance(a, _TypeMeta):
            if self._occurs(a, b):
                raise TermTypeError("circular type constraint")
            self.bindings[a.ident] = b
            return
        if isinstance(b, _TypeMeta):
            self.unify(b, a)
            return
        if isinstance(a, ArrowType) and isinstance(b, ArrowType):
            self.unify(a.arg, b.arg)
            self.unify(a.result, b.result)
            return
        raise TermTypeError(f"type mismatch: {self.zonk_type(a)} vs {self.zonk_type(b)}")

    def _occurs(self, meta: _TypeMeta, ty: SemType) -> bool:
        ty = self.resolve(ty)
        if ty == meta:
            return True
        if isinstance(ty, ArrowType):
            return self._occurs(meta, ty.arg) or self._occurs(meta, ty.result)
        return False

    def zonk_type(self, ty: SemType) -> SemType:
        ty = self.resolve(ty)
        if isinstance(ty, ArrowType):
            return ArrowType(self.zonk_type(ty.arg), self.zonk_type(ty.result))
        return ty

    def zonk_term(self, term: MeaningTerm) -> MeaningTerm:
        match term:
            case App(fun, arg):
                return App(self.zonk_term(fun), self.zonk_term(arg))
            case Lam(var_ty, body, hint):
                ty = self.zonk_type(var_ty)
                if _has_meta(ty):
                    # only unannotated binders get type variables
                    line, column = self.ts.position(self.binder_at[var_ty.ident])
                    raise TermTypeError(
                        f"cannot infer the type of binder '{hint}' at line {line}, "
                        f"column {column}; annotate it"
                    )
                return Lam(ty, self.zonk_term(body), hint)
            case _:
                return term


def _has_meta(ty: SemType) -> bool:
    if isinstance(ty, ArrowType):
        return _has_meta(ty.arg) or _has_meta(ty.result)
    return isinstance(ty, _TypeMeta)
