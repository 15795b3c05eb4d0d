"""Frozen value types, built without generated code.

A subclass of ``Value`` compares equal only to an instance of its own
class with equal fields, hashes as the tuple of its fields, prints as
``Name(field=value, ...)`` and refuses to have an attribute assigned
or deleted.  Its ``__eq__``, ``__hash__`` and ``__repr__`` are made
once per class from one ``operator.attrgetter``, so no source is
exec'd and importing the package loads neither ``inspect`` nor ``ast``.

A subclass declares ``__slots__`` and an ``__init__`` that takes its
fields in order and sets them with ``object.__setattr__``.  ``_fields``
names the slots that take part in eq, hash and repr (default: all of
``__slots__``); copies and pickles are rebuilt through ``__init__``.

>>> class Point(Value):
...     __slots__ = ("x", "y")
...     def __init__(self, x, y=0):
...         object.__setattr__(self, "x", x)
...         object.__setattr__(self, "y", y)
>>> Point(1), Point(1) == Point(1, 0), hash(Point(1, 2)) == hash((1, 2))
(Point(x=1, y=0), True, True)
>>> Point(1).x = 2
Traceback (most recent call last):
AttributeError: cannot assign to field 'x'
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Value"]


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(cls.__dict__.get("_fields", cls.__slots__))
        get = attrgetter(*fields)
        if len(fields) == 1:
            # attrgetter of one name returns the value, not a 1-tuple
            def key(self):
                return (get(self),)

            def __hash__(self):
                return hash((get(self),))

        else:
            key = get

            def __hash__(self):
                return hash(get(self))

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        template = f"{cls.__qualname__}({', '.join(f + '=%r' for f in fields)})"

        def __repr__(self):
            return template % key(self)

        def __reduce__(self):
            return self.__class__, key(self)

        cls.__eq__, cls.__hash__, cls.__repr__ = __eq__, __hash__, __repr__
        cls.__reduce__ = __reduce__

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
