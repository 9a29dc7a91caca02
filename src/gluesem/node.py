"""Immutable tree nodes as tagged tuples: the representation of semantic
types and meaning terms.

A node is a tuple whose first item is a tag naming its class and whose other
items are its fields, so construction, equality and hashing run in C and
nodes of different classes never compare equal. Each class declares
`__slots__ = ()`, a `__new__` that builds the tuple, its fields as
`property(itemgetter(i))` and `__match_args__`, so `match` patterns work as
on any class. Nodes print like dataclasses, cannot be assigned to and, unlike
tuples, have no order.
"""

from __future__ import annotations


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
