"""The base of the package's records: the immutable values of the
calculus (sets, functions, certificates, diagram edges) as plain classes
whose ``__slots__`` list their fields, and which compare, hash, print
and pickle by them.  A record holds its fields and nothing else: its
hash is computed from them on every call.

Equality, the hash of the field tuple and the ``Name(field=value, ...)``
repr are those of a frozen dataclass, so set and dict orders and printed
outputs match, without the code a dataclass generates at import.  A
record is built from its field values by position, in ``__slots__``
order, through ``Record.__init__``.  A record writes its own
``__init__`` only to check, convert or default an argument, or to take
keywords.  The fields are stored once, at construction, with
``set_field``, past the frozen ``__setattr__``.  What holds changing
state, such as the adversary's query meter and the handles over a child
process in ``wire``, is a plain class, not a record.
"""

from operator import attrgetter

set_field = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls.__slots__
        get = attrgetter(*fields)
        # the field values as a tuple; attrgetter of one name gives the
        # value, and a plain function would bind as a method
        cls._values = get if len(fields) > 1 else staticmethod(lambda r: (get(r),))

    def __init__(self, *values) -> None:
        fields = self.__slots__
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__name__} takes {len(fields)} values "
                f"({', '.join(fields)}), got {len(values)}"
            )
        for field, value in zip(fields, values):
            set_field(self, field, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def __reduce__(self):
        return (type(self), self._values(self))
