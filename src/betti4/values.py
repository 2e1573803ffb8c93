"""The immutable base of the package's checked value types.

A value type is one whose constructor checks an invariant and raises on
bad input: MonomialIdeal, SquarefreeIdeal, FieldSpec, SimplicialComplex
and BettiTable.  Equality between values is type-strict.  A record
whose fields need no check (Shape, AtlasEntry, TwinBundle) is a
collections.namedtuple instead, and equals the plain tuple of its
fields.

The value types are plain __slots__ classes rather than dataclasses:
importing dataclasses pulls in inspect, ast and dis, and decorating a
class generates and compiles its methods, which together made up about
a quarter of the command line's start-up.
"""

# sets a field from a value type's own __init__, past Value.__setattr__
set_field = object.__setattr__


class Value:
    """Base of an immutable type whose fields are its __slots__.

    A subclass names its fields in __slots__ and sets each one once, in
    its own __init__, with set_field.  Equality holds only between
    instances of the same type with equal fields, equal values hash
    equal, the repr lists the fields, and assigning or deleting a field
    afterwards raises AttributeError.
    """

    __slots__ = ()

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, so its checks run again
        return type(self), self._fields()
