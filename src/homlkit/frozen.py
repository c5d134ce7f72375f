"""One frozen base for the value classes, built without generated code.

A subclass declares its fields as annotations, in order, and a default as a
class attribute (``hint: str = "x"``). Its instances behave as those of a
``@dataclass(frozen=True)``: built by position or keyword, equal only to an
instance of the same class with equal compared fields, hashed as the tuple of
those fields (kept once computed), shown field by field, and raising
``FrozenInstanceError`` on assignment or deletion. A base names the fields
that ``==`` and ``hash`` leave out in ``_uncompared``; a method that a class
defines itself stays.
The methods are closures over the field names; ``dataclasses`` compiles
source for each class, a millisecond apiece, and is imported only to raise.

Derived data (a term's type and closures, a cached hash, a model's checked
form) sits in the instance dict under underscore names, and copies and
pickles carry the fields only: ``Ind`` and ``Prop`` hash by identity, so a
hash is not valid in another process.
"""

from operator import attrgetter

_set = object.__setattr__


class Frozen:
    __slots__ = ()
    _fields = ()
    _uncompared = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        names = tuple(cls.__dict__.get("__annotations__", ()))
        if not names:
            return
        defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        compared = [name for name in names if name not in cls._uncompared]
        key, single = attrgetter(*compared), len(compared) == 1

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != len(names):
                args = _bind(cls, defaults, args, kwargs)
            for name, value in zip(names, args):
                _set(self, name, value)

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return key(self) == key(other)
            return NotImplemented

        def __hash__(self):
            try:
                return self._hash
            except AttributeError:
                # An attrgetter of one name gives the bare value, not a 1-tuple.
                h = self.__dict__["_hash"] = hash((key(self),) if single else key(self))
                return h

        def __repr__(self):
            fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
            return f"{type(self).__qualname__}({fields})"

        cls._fields = names
        for method in (__init__, __eq__, __hash__, __repr__):
            if method.__name__ not in cls.__dict__:
                method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
                setattr(cls, method.__name__, method)

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def replace(obj, **changes):
    """obj's class called on obj's fields, with ``changes`` in place of some."""
    return type(obj)(**{**{name: getattr(obj, name) for name in obj._fields}, **changes})


def _bind(cls, defaults, args, kwargs):
    """The field values of a call that does not pass each field by position."""
    given = dict(zip(cls._fields, args))
    values = {**defaults, **given, **kwargs}
    if len(args) > len(cls._fields) or given.keys() & kwargs.keys() \
            or values.keys() != set(cls._fields):
        raise TypeError(f"{cls.__name__}() takes {', '.join(cls._fields)}, each once")
    return [values[name] for name in cls._fields]
