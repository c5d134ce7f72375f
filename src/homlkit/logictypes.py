"""Object-level simple types: individuals, modal propositions, and function types.

The world type of the semantics never appears here; surface types are built
from ``i`` and ``prop`` with a right-associative arrow.
"""

from __future__ import annotations

from .errors import TypeCheckError
from .frozen import Frozen

MAX_TYPE_DEPTH = 32


class LogicType:
    """Base class; instances are Ind, Prop, or Fun(a, b)."""

    __slots__ = ()

    def __str__(self):
        return format_type(self)


class _Base(LogicType):
    """A base type: a singleton, equal only to itself and hashed by identity,
    so that type-keyed dicts never compare Ind with Prop."""

    __slots__ = ()

    def __reduce__(self):
        # Copies and pickles resolve to the module-level singleton.
        return repr(self)

    def __repr__(self):
        return type(self).__name__[1:]


class _Ind(_Base):
    __slots__ = ()


class _Prop(_Base):
    __slots__ = ()


Ind = _Ind()
Prop = _Prop()


class Fun(LogicType, Frozen):
    domain: LogicType
    codomain: LogicType

    def __repr__(self):
        return f"Fun({self.domain!r}, {self.codomain!r})"


def type_depth(t: LogicType) -> int:
    if isinstance(t, Fun):
        return 1 + max(type_depth(t.domain), type_depth(t.codomain))
    return 0


def check_type_depth(t: LogicType) -> None:
    if type_depth(t) > MAX_TYPE_DEPTH:
        raise TypeCheckError(f"type nesting exceeds depth limit {MAX_TYPE_DEPTH}: {t}")


def type_order(t: LogicType) -> int:
    """Order of a type: base types are first order, Fun(a, b) bumps a's order."""
    if isinstance(t, Fun):
        return max(type_order(t.domain) + 1, type_order(t.codomain))
    return 1


def format_type(t: LogicType) -> str:
    """Render in surface syntax: ``i``, ``prop``, ``a > b`` (right-associative)."""
    if t is Ind:
        return "i"
    if t is Prop:
        return "prop"
    assert isinstance(t, Fun)
    dom = format_type(t.domain)
    if isinstance(t.domain, Fun):
        dom = f"({dom})"
    return f"{dom} > {format_type(t.codomain)}"
