"""The base of the result records: plain classes whose `__slots__` name
their fields in order.  Importing `dataclasses` (with `inspect`, `ast` and
`dis`) and generating each class's methods would cost a CLI run more
start-up time than most commands spend on their work."""


class Record:
    """Field-wise `==`, `hash` and `repr`, as a dataclass has; a `__dict__`
    slot holds no field."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))
