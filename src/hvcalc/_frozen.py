"""The one immutable base of hvcalc's value classes."""


class Frozen:
    """A value whose fields are its class's ``__slots__``.

    ``__init__`` sets each field once, through ``object.__setattr__``;
    after that no field can be assigned or deleted.  Values are equal when
    they are of one class with equal fields, and hash as their field tuple.
    Cached values are shared by every caller in the process, so this is
    what keeps one caller's edit out of another's answer.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"
