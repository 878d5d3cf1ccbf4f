"""Small immutable records.

A record's fields are the ``__slots__`` of its class, set once by its
``__init__``.  Two records of the same class are equal when their fields
are, and a record shows as ``Name(field=value, ...)``.
"""


class Record:
    """Base of the package's result records; see the module docstring."""

    __slots__ = ()

    def _set(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value
                          in zip(self.__slots__, self._fields()))
        return f"{type(self).__qualname__}({shown})"
