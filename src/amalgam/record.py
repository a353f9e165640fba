"""Plain record classes, written out by hand: each has a field-wise repr and
equality, and a frozen one a field-wise hash and no assignment after
``__init__``.  Generating them at import time would cost every command the
generator's import chain (``inspect``, ``ast``, ``dis``, ``tokenize``) and
its code generation, tens of milliseconds of start-up in all."""

from __future__ import annotations

# A frozen record's __init__ sets its fields through this; the record's own
# __setattr__ refuses every assignment.
set_field = object.__setattr__


class Record:
    """Fields named by ``_fields`` and set by the subclass's own
    ``__init__``.  The repr lists them as ``name=value``; two records are
    equal when they are of one class and their fields are equal in order.
    A record is mutable, and unhashable: it defines ``__eq__`` alone."""

    _fields: tuple[str, ...] = ()

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
    """A record that refuses assignment and deletion after ``__init__`` and
    hashes by its fields."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._values())
