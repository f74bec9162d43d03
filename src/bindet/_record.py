"""Immutable records, the base of bindet's parameter and result types.

A record's fields are its ``__slots__`` not named with a leading underscore.
They are set once, by position or keyword; assigning or deleting raises
AttributeError.  Records compare and hash by field values and repr as
``Name(field=value, ...)``.  Unlike the standard library's frozen record
generator, importing this loads no ``inspect``.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        own = cls.__dict__.get("__slots__", ())
        cls._fields += tuple(s for s in own if not s.startswith("_"))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:  # a missing field leaves args short, an unknown one in kwargs
            args += tuple(kwargs.pop(f) for f in fields[len(args):] if f in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for name, value in zip(fields, args):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), self._astuple()
