"""Immutable records as tagged tuples: every immutable value in the package
(types, terms, formulas, tokens, premises, trace steps, readings, diagnoses).

A node is a tuple whose first item is a tag naming its class and whose other
items are its fields, so construction, equality and hashing run in C and
nodes of different classes never compare equal. Each class declares
`__slots__ = ()` (`__init_subclass__` rejects a class without) and its
fields, once, in `__match_args__`; defaults for the last fields are class
keywords, as in `class Goal(Node, ty=T)`. From these `__init_subclass__`
makes `property(itemgetter(i))` fields and the constructor
`__new__(cls, <fields>)`, which runs the bytecode a hand-written one would;
a class may not write its own. Nodes print as `Class(field=value, ...)`,
cannot be assigned to and, unlike tuples, have no order.
"""

from __future__ import annotations

from functools import cache
from operator import itemgetter
from types import CodeType, FunctionType

_GLOBALS = {"_new": tuple.__new__}
_TAG = "\0tag"


def _unordered(op: str):
    def compare(self, other):
        raise TypeError(
            f"{op!r} not supported between instances of "
            f"{type(self).__name__!r} and {type(other).__name__!r}"
        )

    return compare


@cache
def _template(arity: int) -> CodeType:
    """The code of `__new__(cls, _0, ..., _<arity - 1>)`, which returns
    `_new(cls, (_TAG, _0, ...))`. Compiling it takes about 60 µs and
    renaming a copy about 1.4 µs (CPython 3.11, x86-64), so it is compiled
    once per arity, not once per class."""
    args = ", ".join(f"_{i}" for i in range(arity))
    source = f"def __new__(cls, {args}):\n    return _new(cls, ({_TAG!r}, {args}))"
    namespace: dict[str, FunctionType] = {}
    exec(source, _GLOBALS, namespace)
    return namespace["__new__"].__code__


def _constructor(cls, fields: tuple[str, ...], defaults: dict[str, object]):
    """`__new__(cls, <fields>)` building the tuple `(<class name>, <fields>)`:
    the bytecode of a hand-written one, with the field names as parameters."""
    if tuple(defaults) != fields[len(fields) - len(defaults):]:
        raise TypeError(f"{cls.__qualname__}: defaults must be for its last fields, in order")
    template = _template(len(fields))
    code = template.replace(
        co_varnames=("cls", *fields),
        co_consts=tuple(cls.__name__ if c == _TAG else c for c in template.co_consts),
    )
    new = FunctionType(code, _GLOBALS, "__new__", tuple(defaults.values()) or None)
    new.__qualname__ = f"{cls.__qualname__}.__new__"
    return staticmethod(new)


class Node(tuple):
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **defaults):
        super().__init_subclass__()
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} must declare __slots__")
        if "__new__" in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} must not define __new__: Node builds it")
        fields = cls.__dict__.get("__match_args__")
        if fields is None:
            return
        for i, name in enumerate(fields, start=1):
            setattr(cls, name, property(itemgetter(i)))
        cls.__new__ = _constructor(cls, fields, defaults)

    __lt__ = _unordered("<")
    __le__ = _unordered("<=")
    __gt__ = _unordered(">")
    __ge__ = _unordered(">=")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __getnewargs__(self):
        # Copying and pickling rebuild a node from its fields, not its tuple.
        return self[1:]
