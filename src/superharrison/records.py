"""Immutable value classes without code generation.

A subclass declares each field once, as a class annotation, in order.
``Record.__init__`` stores the fields by position or by name, and a class
attribute with a field's name is that field's default.  A subclass writes
its own ``__init__`` only to check or normalise its arguments, and then
ends with ``super().__init__(...)``.  Assigning or deleting an attribute
otherwise raises ``AttributeError``; ``set_field(self, name, value)``
stores past that guard, and ``functools.cached_property`` still works,
since it writes to ``__dict__`` directly.  Two records are equal when they
have the same class and equal fields, and the hash is that of the fields.
The package avoids ``dataclasses`` because every CLI call is a fresh
process: importing it pulls in ``inspect``, ``ast`` and ``dis``, and each
decorated class compiles generated code at import.  For the same reason it
avoids ``hashlib``, which loads OpenSSL (see ``cli._digest``).

``HashOnceRecord`` keeps its hash after the first call, for records whose
fields are large tuples that an ``lru_cache`` key would rehash per lookup.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

__all__ = ["Record", "HashOnceRecord", "set_field"]

# Stores a field past ``Record.__setattr__``; the instance keeps Python's
# compact attribute layout, which ``self.__dict__.update`` would give up.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if fields:
            cls._fields = fields
            cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
            # The field values (a tuple, for more than one field).  An
            # attrgetter is no descriptor, so ``self._values`` is the getter.
            cls._values = attrgetter(*fields)

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)} positional values")
        for name, value in zip(fields, args):
            set_field(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            set_field(self, name, value)
        if kwargs:
            name = next(iter(kwargs))
            problem = f"was given field {name!r} twice" if name in fields else f"has no field {name!r}"
            raise TypeError(f"{type(self).__name__} {problem}")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of immutable {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of immutable {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class HashOnceRecord(Record):
    """A record hashed once per instance: a tuple does not keep its hash."""

    @cached_property
    def _hash(self) -> int:
        return hash(self._values(self))

    def __hash__(self) -> int:
        return self._hash
