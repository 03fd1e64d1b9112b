"""Immutable value records, the package's small data classes.

A subclass names its fields in ``fields``.  A record is built from them
by position or keyword, is equal to a record of the same class with equal
fields, hashes its fields, shows as ``Name(field=value, ...)`` and
rejects assignment.  The package defines them here rather than with
``dataclasses``, which would load ``inspect`` and ``ast`` on import.
"""

from __future__ import annotations


class Record:
    __slots__ = ()
    fields: tuple = ()

    def __init__(self, *args, **kwargs):
        values = dict(zip(self.fields, args))
        if len(args) > len(self.fields) or values.keys() & kwargs.keys():
            raise TypeError(f"{type(self).__name__}() got repeated or extra arguments")
        values.update(kwargs)
        if values.keys() != set(self.fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {self.fields}")
        for name in self.fields:
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(getattr(self, name) for name in self.fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.fields)
        return f"{type(self).__name__}({args})"
