"""Immutability for the package's value types and records."""


class Frozen:
    """Base of the immutable classes: assignment and deletion raise
    AttributeError.  Their __init__ writes the fields into the instance
    __dict__, as functools.cached_property does with what it caches."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
