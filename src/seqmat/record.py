"""Immutable value records: the base of seqmat's data types.

A record class names its fields in __slots__ and sets each of them in
its own __init__ with set_field, because assigning or deleting an
attribute of a record raises AttributeError.  Two records are equal when
they are of the same class and their fields are equal; a record is never
equal to a record of another class or to a tuple.  A record hashes as
its fields, so one with an unhashable field is unhashable.  repr names
every field, as a dataclass does, and pickle and copy rebuild a record
through its __init__, which checks the fields again.
"""

from operator import attrgetter

#: Sets a field from a record's __init__, past Record.__setattr__.
set_field = object.__setattr__


class Record:
    """Base of an immutable value type whose fields are its __slots__."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # The fields' values, as a tuple (one field: the value itself).
        cls._values = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
