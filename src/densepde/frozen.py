"""Immutability for the package's records, and value semantics for its
value types."""


class Frozen:
    """Base of the immutable classes: assignment and deletion raise
    AttributeError.  Their __init__ writes the fields into the instance
    __dict__, as functools.cached_property does with what it caches.
    Equality and hash stay those of object: a Frozen record is itself."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Value(Frozen):
    """Base of the immutable value types.  A subclass names its compared
    fields in the class-level tuple `_fields`; two values are equal when
    they are of one class with equal fields, and a value hashes to
    hash((fields...)).  A subclass that holds an unhashable field sets
    __hash__ = None.

    The hash is cached in the instance __dict__ on first use: the jet
    coordinates key the dicts of every jet solve."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            h = d["_hash"] = hash(self._key())
        return h
