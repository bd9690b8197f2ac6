"""Immutable value classes without code generation.

A subclass declares its fields as class annotations, in order, and stores
each in ``__init__`` with ``set_field(self, name, value)``.  Assigning or
deleting an attribute otherwise raises ``AttributeError``;
``functools.cached_property`` still works, since it writes to ``__dict__``
directly.  Two records are
equal when they have the same class and equal fields, and the hash is that
of the fields.  The package avoids ``dataclasses`` because every CLI call is a
fresh process: importing it pulls in ``inspect``, ``ast`` and ``dis``, and
each decorated class compiles generated code at import.

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

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if fields:
            cls._fields = fields
            # The field values (a tuple, for more than one field).  An
            # attrgetter is no descriptor, so ``self._values`` is the getter.
            cls._values = attrgetter(*fields)

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
