"""Core typed lambda terms with modal connectives and both quantifier families.

Binders use de Bruijn indices internally; structural equality is therefore
alpha-equivalence (binder name hints are kept only for printing and are
excluded from comparisons).
"""

from __future__ import annotations

from typing import Optional

from .errors import TypeCheckError
from .frozen import Frozen
from .logictypes import Fun, Ind, LogicType, Prop

# Distinguished constant interpreted by the model's existence table; it is
# always in scope and underwrites the actualist quantifiers.
EXISTS_AT = "existsAt"
EXISTS_AT_TYPE = Fun(Ind, Prop)


class Term(Frozen):
    __slots__ = ()
    _uncompared = ("hint",)  # a binder's name, kept for printing only

    @property
    def ty(self) -> LogicType:
        """The type that the node kind's typing rule gives this node, computed
        once; raises TypeCheckError when the children do not fit the rule."""
        ty = self.__dict__.get("_ty")
        if ty is None:
            ty = self.__dict__["_ty"] = _TYPE_RULES[type(self)](self)
        return ty

    def __str__(self):
        return format_term(self)


class Var(Term):
    index: int
    var_type: LogicType
    hint: str = "x"


class Const(Term):
    name: str
    const_type: LogicType


class Lam(Term):
    var_type: LogicType
    body: Term
    hint: str = "x"


class App(Term):
    fn: Term
    arg: Term


class Not(Term):
    arg: Term


class Box(Term):
    arg: Term


class Diamond(Term):
    arg: Term


class And(Term):
    left: Term
    right: Term


class Or(Term):
    left: Term
    right: Term


class Implies(Term):
    left: Term
    right: Term


class Iff(Term):
    left: Term
    right: Term


class ForallP(Term):
    var_type: LogicType
    body: Term
    hint: str = "x"


class ExistsP(Term):
    var_type: LogicType
    body: Term
    hint: str = "x"


class ForallA(Term):
    var_type: LogicType
    body: Term
    hint: str = "x"


class ExistsA(Term):
    var_type: LogicType
    body: Term
    hint: str = "x"


class LeibnizEq(Term):
    left: Term
    right: Term


def existence_guard(hint: str = "x") -> Term:
    """``existsAt x`` for the innermost bound individual x: the guard that
    restricts an actualist quantifier to the individuals of its world."""
    return App(Const(EXISTS_AT, EXISTS_AT_TYPE), Var(0, Ind, hint))


UNARY_CONNECTIVES = (Not, Box, Diamond)
BINARY_CONNECTIVES = (And, Or, Implies, Iff)
QUANTIFIERS = (ForallP, ExistsP, ForallA, ExistsA)

# The surface keyword of each node kind that has one. The parser reads
# source through this table and format_term writes through it.
KEYWORD = {
    Lam: "\\", ForallP: "forallP", ExistsP: "existsP", ForallA: "forallA", ExistsA: "existsA",
    Not: "not", Box: "box", Diamond: "dia",
    And: "&", Or: "|", Implies: "->", Iff: "<->", LeibnizEq: "==",
}


# ---------------------------------------------------------------------------
# Typing: one rule per node kind. A rule takes a node whose children are well
# typed and returns its type, or raises TypeCheckError with the message the
# surface checker places at the node's source position.

def check_bound_type(kind: type, var_type: LogicType) -> None:
    """The restriction a binder kind puts on its variable's type; the surface
    checker applies it before it checks the binder's body."""
    if kind in (ForallA, ExistsA) and var_type != Ind:
        raise TypeCheckError("actualist quantifier restricted to individuals")


def _app_type(t: App) -> LogicType:
    fn, arg = t.fn.ty, t.arg.ty
    if not isinstance(fn, Fun):
        raise TypeCheckError(f"cannot apply a term of type {fn}")
    if fn.domain != arg:
        raise TypeCheckError(f"type mismatch: expected {fn.domain}, actual {arg}")
    return fn.codomain


def _connective_type(t: Term) -> LogicType:
    for side in children(t):
        if side.ty != Prop:
            raise TypeCheckError(f"type mismatch: expected prop, actual {side.ty}")
    return Prop


def _quantifier_type(t: Term) -> LogicType:
    check_bound_type(type(t), t.var_type)
    if t.body.ty != Prop:
        raise TypeCheckError(f"quantifier body must have type prop, got {t.body.ty}")
    return Prop


def _equality_type(t: LeibnizEq) -> LogicType:
    if t.left.ty != t.right.ty:
        raise TypeCheckError(f"equality between distinct types {t.left.ty} and {t.right.ty}")
    return Prop


_TYPE_RULES = {
    Var: lambda t: t.var_type,
    Const: lambda t: t.const_type,
    Lam: lambda t: Fun(t.var_type, t.body.ty),
    App: _app_type,
    **dict.fromkeys(UNARY_CONNECTIVES + BINARY_CONNECTIVES, _connective_type),
    **dict.fromkeys(QUANTIFIERS, _quantifier_type),
    LeibnizEq: _equality_type,
}


def check_term(term: Term, ctx: Optional[list[LogicType]] = None) -> LogicType:
    """The type of an already-built term, once every variable is checked
    against its binder in ``ctx`` (ctx[0] is the innermost binder's type)."""
    ctx = ctx if ctx is not None else []
    if type(term) is Var:
        if term.index < 0 or term.index >= len(ctx):
            raise TypeCheckError(f"unbound de Bruijn index {term.index}")
        if ctx[term.index] != term.var_type:
            raise TypeCheckError(
                f"variable type mismatch: expected {ctx[term.index]}, got {term.var_type}"
            )
    if type(term) in BINDERS:
        ctx = [term.var_type] + ctx
    for kid in children(term):
        check_term(kid, ctx)
    return term.ty


# ---------------------------------------------------------------------------
# Traversal: every structural walker goes through children/rebuild, so the
# node types are enumerated once, here.

# Every binder has exactly one child, its body, which sees one more index.
BINDERS = frozenset((Lam,) + QUANTIFIERS)
_BINARY = BINARY_CONNECTIVES + (LeibnizEq,)
_CHILDREN = {
    Var: lambda t: (),
    Const: lambda t: (),
    App: lambda t: (t.fn, t.arg),
    **dict.fromkeys(BINDERS, lambda t: (t.body,)),
    **dict.fromkeys(UNARY_CONNECTIVES, lambda t: (t.arg,)),
    **dict.fromkeys(_BINARY, lambda t: (t.left, t.right)),
}
# How to build a node of the same kind as t from new children.
_MAKE = {
    App: lambda t, fn, arg: App(fn, arg),
    **dict.fromkeys(BINDERS, lambda t, body: type(t)(t.var_type, body, t.hint)),
    **dict.fromkeys(UNARY_CONNECTIVES, lambda t, arg: type(t)(arg)),
    **dict.fromkeys(_BINARY, lambda t, left, right: type(t)(left, right)),
}


def children(term: Term) -> tuple:
    """The immediate subterms of a node, left to right."""
    return _CHILDREN[type(term)](term)


def rebuild(term: Term, kids) -> Term:
    """``term`` with its children replaced by ``kids``; ``term`` itself when
    every kid is the child it replaces, so unchanged subtrees stay shared."""
    for new, old in zip(kids, _CHILDREN[type(term)](term)):
        if new is not old:
            return _MAKE[type(term)](term, *kids)
    return term


def subterms(term: Term):
    """Every subterm of ``term``, itself first, in pre-order."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(reversed(children(t)))


def _map_vars(term: Term, on_var, depth: int = 0) -> Term:
    """Rebuild ``term`` with every Var v replaced by ``on_var(v, depth)``,
    where depth counts the binders above v."""
    if type(term) is Var:
        return on_var(term, depth)
    kids = children(term)
    if not kids:
        return term
    if type(term) in BINDERS:
        depth += 1
    return rebuild(term, [_map_vars(k, on_var, depth) for k in kids])


def shift(term: Term, by: int) -> Term:
    """Shift free de Bruijn indices by ``by``."""

    def on_var(v: Var, depth: int) -> Term:
        if v.index >= depth:
            return Var(v.index + by, v.var_type, v.hint)
        return v

    return _map_vars(term, on_var)


def subst_top(body: Term, value: Term) -> Term:
    """Substitute ``value`` for index 0 in ``body`` (beta-reduction helper)."""

    def on_var(v: Var, depth: int) -> Term:
        if v.index == depth:
            return shift(value, depth)
        if v.index > depth:
            return Var(v.index - 1, v.var_type, v.hint)
        return v

    return _map_vars(body, on_var)


def beta_normalize(term: Term) -> Term:
    """Reduce all beta redexes; terminates because terms are simply typed."""
    kids = children(term)
    if not kids:
        return term
    kids = [beta_normalize(k) for k in kids]
    if type(term) is App and type(kids[0]) is Lam:
        return beta_normalize(subst_top(kids[0].body, kids[1]))
    return rebuild(term, kids)


def replace_consts(term: Term, values: dict[str, Term]) -> Term:
    """Replace every constant named in ``values`` by its closed term."""
    if type(term) is Const:
        return values.get(term.name, term)
    return rebuild(term, [replace_consts(k, values) for k in children(term)])


def free_vars(term: Term) -> dict[int, LogicType]:
    """Types of the free de Bruijn indices, relative to the outermost level."""
    out: dict[int, LogicType] = {}
    _collect_free_vars(term, 0, out)
    return out


def _collect_free_vars(t: Term, depth: int, out: dict) -> None:
    if type(t) is Var:
        if t.index >= depth:
            out[t.index - depth] = t.var_type
        return
    if type(t) in BINDERS:
        depth += 1
    for k in children(t):
        _collect_free_vars(k, depth, out)


def is_closed(term: Term) -> bool:
    return not free_vars(term)


def constants_of(term: Term) -> set[str]:
    return {t.name for t in subterms(term) if type(t) is Const}


# ---------------------------------------------------------------------------
# Printing (surface syntax; parse(format_term(t)) is alpha-equivalent to t)

def _fresh(hint: str, used) -> str:
    name = hint or "x"
    while name in used:
        name += "'"
    return name


def format_term(term: Term, names: Optional[list[str]] = None) -> str:
    """Render a term in the theory DSL's concrete syntax, fully parenthesized."""
    names = names if names is not None else []
    kind = type(term)
    if kind is Var:
        return names[term.index] if 0 <= term.index < len(names) else f"#{term.index}"
    if kind is Const:
        return term.name
    if kind in BINDERS:
        # A binder named after a constant of its body would capture it.
        name = _fresh(term.hint, {*names, *constants_of(term.body)})
        keyword = KEYWORD[kind] + (" " if kind is not Lam else "")
        body = format_term(term.body, [name] + names)
        return f"({keyword}{name}:{term.var_type}. {body})"
    args = [format_term(kid, names) for kid in children(term)]
    if kind is App:
        return f"({args[0]} {args[1]})"
    if len(args) == 1:
        return f"({KEYWORD[kind]} {args[0]})"
    return f"({args[0]} {KEYWORD[kind]} {args[1]})"
