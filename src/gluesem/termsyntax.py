"""Concrete syntax for meaning terms.

Application is written `f(a, b)` (sugar for curried application), abstraction
`\\x. body` with an optional annotation `\\x:e. body`. Unannotated binder types
are inferred by unification; constants take their types from a signature.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TermTypeError, UnboundVariableError
from .lexer import TokenStream, tokenize
from .semtypes import ArrowType, SemType, parse_type_at
from .terms import App, BoundVar, Const, Lam, MeaningTerm, Var


@dataclass(frozen=True)
class _TypeMeta(SemType):
    ident: int


class _RVar:
    def __init__(self, name, tok):
        self.name = name
        self.tok = tok


class _RApp:
    def __init__(self, fun, args):
        self.fun = fun
        self.args = args


class _RLam:
    def __init__(self, name, annot, body):
        self.name = name
        self.annot = annot
        self.body = body


def parse_term(
    text: str,
    signature: dict[str, SemType],
    env: dict[str, SemType] | None = None,
    source: str | None = None,
) -> MeaningTerm:
    """Parse and type a term; free names resolve via env (variables) then
    signature (constants)."""
    ts = TokenStream(tokenize(text, source), source)
    term = parse_term_at(ts, signature, env)
    if not ts.at_end():
        ts.fail(f"unexpected {ts.peek().text!r} after term")
    return term


def parse_term_at(
    ts: TokenStream,
    signature: dict[str, SemType],
    env: dict[str, SemType] | None = None,
) -> MeaningTerm:
    raw = _parse_raw(ts)
    inference = _Inference(signature, env or {})
    term, _ = inference.elaborate(raw, [])
    return inference.zonk_term(term, ts)


def _parse_raw(ts: TokenStream):
    lam_tok = ts.accept("\\")
    if lam_tok:
        name = ts.expect("IDENT", "a variable name").text
        annot = None
        if ts.accept(":"):
            annot = parse_type_at(ts)
        ts.expect(".")
        ts.descend("meaning terms", lam_tok)
        body = _parse_raw(ts)
        ts.ascend()
        return _RLam(name, annot, body)
    return _parse_applied(ts)


def _parse_applied(ts: TokenStream):
    term = _parse_atom(ts)
    levels = 0  # each argument list nests the application one level deeper
    while ts.peek().kind == "(":
        ts.descend("meaning terms", ts.next())
        levels += 1
        args = [_parse_raw(ts)]
        while ts.accept(","):
            args.append(_parse_raw(ts))
        ts.expect(")")
        term = _RApp(term, args)
    ts.ascend(levels)
    return term


def _parse_atom(ts: TokenStream):
    open_tok = ts.accept("(")
    if open_tok:
        ts.descend("meaning terms", open_tok)
        term = _parse_raw(ts)
        ts.ascend()
        ts.expect(")")
        return term
    tok = ts.expect("IDENT", "a term")
    return _RVar(tok.text, tok)


class _Inference:
    def __init__(self, signature, env):
        self.signature = signature
        self.env = env
        self.bindings: dict[int, SemType] = {}
        self.counter = 0

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

    def elaborate(self, raw, stack) -> tuple[MeaningTerm, SemType]:
        if isinstance(raw, _RVar):
            for index, (name, ty) in enumerate(stack):
                if name == raw.name:
                    return BoundVar(index), ty
            if raw.name in self.env:
                return Var(raw.name, self.env[raw.name]), self.env[raw.name]
            if raw.name in self.signature:
                return Const(raw.name, self.signature[raw.name]), self.signature[raw.name]
            raise UnboundVariableError(
                f"unknown name '{raw.name}' at line {raw.tok.line}, column {raw.tok.column}"
            )
        if isinstance(raw, _RApp):
            fun, fun_ty = self.elaborate(raw.fun, stack)
            for arg in raw.args:
                arg_term, arg_ty = self.elaborate(arg, stack)
                result = self.fresh()
                try:
                    self.unify(fun_ty, ArrowType(arg_ty, result))
                except TermTypeError as exc:
                    raise TermTypeError(f"ill-typed application: {exc}") from exc
                fun = App(fun, arg_term)
                fun_ty = result
            return fun, fun_ty
        if isinstance(raw, _RLam):
            var_ty = raw.annot if raw.annot is not None else self.fresh()
            body, body_ty = self.elaborate(raw.body, [(raw.name, var_ty)] + stack)
            return Lam(var_ty, body, raw.name), ArrowType(var_ty, body_ty)
        raise AssertionError(f"bad raw term {raw!r}")

    def zonk_type(self, ty: SemType) -> SemType:
        ty = self.resolve(ty)
        if isinstance(ty, ArrowType):
            return ArrowType(self.zonk_type(ty.arg), self.zonk_type(ty.result))
        return ty

    def zonk_term(self, term: MeaningTerm, ts: TokenStream) -> MeaningTerm:
        match term:
            case App(fun, arg):
                return App(self.zonk_term(fun, ts), self.zonk_term(arg, ts))
            case Lam(var_ty, body, hint):
                ty = self.zonk_type(var_ty)
                if isinstance(ty, _TypeMeta) or any(
                    isinstance(part, _TypeMeta) for part in _type_parts(ty)
                ):
                    raise TermTypeError(
                        f"cannot infer the type of binder '{hint}'; annotate it"
                    )
                return Lam(ty, self.zonk_term(body, ts), hint)
            case _:
                return term


def _type_parts(ty: SemType):
    yield ty
    if isinstance(ty, ArrowType):
        yield from _type_parts(ty.arg)
        yield from _type_parts(ty.result)
