"""Immutable records as tagged tuples: every immutable value in the package
(types, terms, formulas, tokens, premises, trace steps, readings, diagnoses).

A node is a tuple whose first item is a tag naming its class and whose other
items are its fields, so construction, equality and hashing run in C and
nodes of different classes never compare equal. Each class declares
`__slots__ = ()` (`__init_subclass__` rejects a class without), its fields
in `__match_args__`, which `__init_subclass__` turns into
`property(itemgetter(i))` fields, and a `__new__` that builds the tuple.
Nodes print as `Class(field=value, ...)`, cannot be assigned to and, unlike
tuples, have no order.
"""

from __future__ import annotations

from operator import itemgetter


def _unordered(op: str):
    def compare(self, other):
        raise TypeError(
            f"{op!r} not supported between instances of "
            f"{type(self).__name__!r} and {type(other).__name__!r}"
        )

    return compare


class Node(tuple):
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__qualname__} must declare __slots__")
        for i, name in enumerate(cls.__dict__.get("__match_args__", ()), start=1):
            setattr(cls, name, property(itemgetter(i)))

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
