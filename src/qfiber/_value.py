"""The base of the package's value classes.

A value class names its fields once, as `__slots__ = __match_args__ =
(...)`, and writes its own `__init__`, which checks its arguments and then
stores them.  Subclassing `Value` gives it what `dataclasses.dataclass`
would generate: a repr `Name(field=value, ...)`; `==` that holds only
between two values of exactly the same class with equal field tuples; and
pickling and copying that rebuild a value through its constructor from its
fields.  Two class keywords choose the rest, as the arguments of `dataclass`
do:

- `order=True` compares two values of exactly the same class by their field
  tuples under `<`, `<=`, `>` and `>=`; any other pair, and every pair of a
  class without it, is a TypeError.
- `frozen=True`, the default, makes assigning or deleting any attribute an
  AttributeError and hashes a value as its field tuple; `frozen=False`
  leaves the fields assignable and the values unhashable.

A method the class writes itself is kept.  Writing these out once keeps
`dataclasses`, with the `inspect`, `ast` and `dis` it imports, out of the
package's start-up: with the generation of seven classes, it took about
14 ms of each `qfiber` spawn (Python 3.11, 2 cores).
"""

from __future__ import annotations

from operator import attrgetter, ge, gt, le, lt


def _assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _comparison(key, compare):
    """An ordering method: `compare` on the keys of two values of exactly
    the same class, NotImplemented for any other pair."""

    def method(self, other):
        if other.__class__ is self.__class__:
            return compare(key(self), key(other))
        return NotImplemented

    method.__name__ = f"__{compare.__name__}__"
    return method


def _methods(names: tuple[str, ...], order: bool, frozen: bool) -> dict:
    """The methods of a value class with fields `names`, each a closure over
    the fields' getter rather than a lookup of it on every call."""
    # the field itself when there is one, which compares as its 1-tuple does
    key = attrgetter(*names)
    if len(names) == 1:
        def fields(value):
            return (key(value),)
    else:
        fields = key

    def __repr__(self):
        pairs = ", ".join(map("%s=%r".__mod__, zip(names, fields(self))))
        return f"{type(self).__qualname__}({pairs})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __reduce__(self):
        return type(self), fields(self)

    methods = {"__repr__": __repr__, "__eq__": __eq__, "__reduce__": __reduce__}
    if order:
        methods.update({f"__{compare.__name__}__": _comparison(key, compare)
                        for compare in (lt, le, gt, ge)})
    if frozen:
        methods.update(__setattr__=_assign, __delattr__=_delete, __hash__=__hash__)
    else:
        methods["__hash__"] = None
    return methods


class Value:
    """A record of the fields named in its class's `__match_args__`."""

    __slots__ = ()

    def __init_subclass__(cls, *, order: bool = False, frozen: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        if "__match_args__" not in own:
            return  # a subclass of a value class inherits its methods
        for name, method in _methods(cls.__match_args__, order, frozen).items():
            # a class that writes __eq__ has its __hash__ set to None for it
            if own.get(name) is None:
                setattr(cls, name, method)
