"""Plain record classes, written out by hand: each is built from its
``_fields``, and has a field-wise repr and equality, and a frozen one a
field-wise hash and no assignment after construction.  Generating them at
import time would cost every command the generator's import chain
(``inspect``, ``ast``, ``dis``, ``tokenize``) and its code generation, tens
of milliseconds of start-up in all."""

from __future__ import annotations


class Record:
    """Fields named by ``_fields``, given to the constructor by position or
    by keyword; a missing, extra, unknown or repeated field is a TypeError.
    The repr lists them as ``name=value``; two records are equal when they
    are of one class and their fields are equal in order.  A record is
    mutable, and unhashable: it defines ``__eq__`` alone."""

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) == len(fields) and not kwargs:
            vars(self).update(zip(fields, args))
            return
        name = type(self).__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected field {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for field {key!r}")
            values[key] = value
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name}() missing fields: {', '.join(missing)}")
        vars(self).update(values)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class FrozenRecord(Record):
    """A record that refuses assignment and deletion after construction and
    hashes by its fields.  The constructor writes the instance's dict
    directly, past ``__setattr__``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
