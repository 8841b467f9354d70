"""Immutable value classes.

A subclass of Record lists its two or more fields in __slots__ and gets
construction from them, equality with its own class only, a hash and a repr
of its field values, and no assignment or deletion.  A class with its own
__init__ sets its fields with object.__setattr__.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _defaults: dict = {}  # field -> default value of the generic __init__

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the field values as a tuple, compared and hashed as one
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} "
                            f"fields, {len(args)} given")
        given = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in given:
                raise TypeError(f"{type(self).__name__}: unexpected or "
                                f"repeated field {name!r}")
            given[name] = value
        for name in names:
            if name not in given:
                if name not in self._defaults:
                    raise TypeError(f"{type(self).__name__}: missing field "
                                    f"{name!r}")
                given[name] = self._defaults[name]
            object.__setattr__(self, name, given[name])

    @classmethod
    def _make(cls, *values):
        """An instance with these field values, not passed through
        __init__: for values that are already checked."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __reduce__(self):
        return self._make, self._values(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: "
                             f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: "
                             f"{type(self).__name__} is immutable")
