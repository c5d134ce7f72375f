"""Core typed lambda terms with modal connectives and both quantifier families.

Binders use de Bruijn indices internally; structural equality is therefore
alpha-equivalence (binder name hints are kept only for printing and are
excluded from comparisons).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import TypeCheckError
from .logictypes import Fun, Ind, LogicType, Prop

# Distinguished constant interpreted by the model's existence table; it is
# always in scope and underwrites the actualist quantifiers.
EXISTS_AT = "existsAt"
EXISTS_AT_TYPE = Fun(Ind, Prop)


class Term:
    __slots__ = ()

    @property
    def ty(self) -> LogicType:
        raise NotImplementedError

    def __str__(self):
        return format_term(self)

    def __getstate__(self):
        # The evaluator caches closures in a term's instance dict under
        # underscore names; copies and pickles carry the fields only.
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


@dataclass(frozen=True)
class Var(Term):
    index: int
    var_type: LogicType
    hint: str = field(default="x", compare=False)

    @property
    def ty(self):
        return self.var_type


@dataclass(frozen=True)
class Const(Term):
    name: str
    const_type: LogicType

    @property
    def ty(self):
        return self.const_type


@dataclass(frozen=True)
class Lam(Term):
    var_type: LogicType
    body: Term
    hint: str = field(default="x", compare=False)

    @property
    def ty(self):
        return Fun(self.var_type, self.body.ty)


@dataclass(frozen=True)
class App(Term):
    fn: Term
    arg: Term

    @property
    def ty(self):
        return self.fn.ty.codomain


class _Unary(Term):
    __slots__ = ()

    @property
    def ty(self):
        return Prop


@dataclass(frozen=True)
class Not(_Unary):
    arg: Term


@dataclass(frozen=True)
class Box(_Unary):
    arg: Term


@dataclass(frozen=True)
class Diamond(_Unary):
    arg: Term


class _Binary(Term):
    __slots__ = ()

    @property
    def ty(self):
        return Prop


@dataclass(frozen=True)
class And(_Binary):
    left: Term
    right: Term


@dataclass(frozen=True)
class Or(_Binary):
    left: Term
    right: Term


@dataclass(frozen=True)
class Implies(_Binary):
    left: Term
    right: Term


@dataclass(frozen=True)
class Iff(_Binary):
    left: Term
    right: Term


class _Quant(Term):
    __slots__ = ()

    @property
    def ty(self):
        return Prop


@dataclass(frozen=True)
class ForallP(_Quant):
    var_type: LogicType
    body: Term
    hint: str = field(default="x", compare=False)


@dataclass(frozen=True)
class ExistsP(_Quant):
    var_type: LogicType
    body: Term
    hint: str = field(default="x", compare=False)


@dataclass(frozen=True)
class ForallA(_Quant):
    var_type: LogicType
    body: Term
    hint: str = field(default="x", compare=False)


@dataclass(frozen=True)
class ExistsA(_Quant):
    var_type: LogicType
    body: Term
    hint: str = field(default="x", compare=False)


@dataclass(frozen=True)
class LeibnizEq(Term):
    left: Term
    right: Term

    @property
    def ty(self):
        return Prop


def existence_guard(hint: str = "x") -> Term:
    """``existsAt x`` for the innermost bound individual x: the guard that
    restricts an actualist quantifier to the individuals of its world."""
    return App(Const(EXISTS_AT, EXISTS_AT_TYPE), Var(0, Ind, hint))


UNARY_CONNECTIVES = (Not, Box, Diamond)
BINARY_CONNECTIVES = (And, Or, Implies, Iff)
QUANTIFIERS = (ForallP, ExistsP, ForallA, ExistsA)


def check_term(term: Term, ctx: Optional[list[LogicType]] = None) -> LogicType:
    """Validate the typing invariants of an already-built term; returns its type.

    ctx[0] is the innermost binder's type.
    """
    ctx = ctx if ctx is not None else []
    if isinstance(term, Var):
        if term.index < 0 or term.index >= len(ctx):
            raise TypeCheckError(f"unbound de Bruijn index {term.index}")
        if ctx[term.index] != term.var_type:
            raise TypeCheckError(
                f"variable type mismatch: expected {ctx[term.index]}, got {term.var_type}"
            )
        return term.var_type
    if isinstance(term, Const):
        return term.const_type
    if isinstance(term, Lam):
        body_ty = check_term(term.body, [term.var_type] + ctx)
        return Fun(term.var_type, body_ty)
    if isinstance(term, App):
        fn_ty = check_term(term.fn, ctx)
        arg_ty = check_term(term.arg, ctx)
        if not isinstance(fn_ty, Fun):
            raise TypeCheckError(f"application of non-function of type {fn_ty}")
        if fn_ty.domain != arg_ty:
            raise TypeCheckError(
                f"argument type mismatch: expected {fn_ty.domain}, got {arg_ty}"
            )
        return fn_ty.codomain
    if isinstance(term, UNARY_CONNECTIVES):
        if check_term(term.arg, ctx) != Prop:
            raise TypeCheckError(f"{type(term).__name__} applied to non-proposition")
        return Prop
    if isinstance(term, BINARY_CONNECTIVES):
        for side in (term.left, term.right):
            if check_term(side, ctx) != Prop:
                raise TypeCheckError(f"{type(term).__name__} applied to non-proposition")
        return Prop
    if isinstance(term, QUANTIFIERS):
        if isinstance(term, (ForallA, ExistsA)) and term.var_type != Ind:
            raise TypeCheckError("actualist quantifier restricted to individuals")
        if check_term(term.body, [term.var_type] + ctx) != Prop:
            raise TypeCheckError("quantifier body must be a proposition")
        return Prop
    if isinstance(term, LeibnizEq):
        lt = check_term(term.left, ctx)
        rt = check_term(term.right, ctx)
        if lt != rt:
            raise TypeCheckError(f"equality between distinct types {lt} and {rt}")
        return Prop
    raise TypeCheckError(f"unknown term node {term!r}")


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


def shift(term: Term, by: int, cutoff: int = 0) -> Term:
    """Shift free de Bruijn indices >= cutoff by ``by``."""

    def on_var(v: Var, depth: int) -> Term:
        if v.index >= cutoff + depth:
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

_QUANT_KEYWORD = {ForallP: "forallP", ExistsP: "existsP", ForallA: "forallA", ExistsA: "existsA"}
_BINOP_SYMBOL = {And: "&", Or: "|", Implies: "->", Iff: "<->"}


def _fresh(hint: str, used: list[str]) -> str:
    name = hint or "x"
    while name in used:
        name += "'"
    return name


def format_term(term: Term, names: Optional[list[str]] = None) -> str:
    """Render a term in the theory DSL's concrete syntax, fully parenthesized."""
    names = names if names is not None else []
    if isinstance(term, Var):
        if 0 <= term.index < len(names):
            return names[term.index]
        return f"#{term.index}"
    if isinstance(term, Const):
        return term.name
    if isinstance(term, Lam):
        name = _fresh(term.hint, names)
        body = format_term(term.body, [name] + names)
        return f"(\\{name}:{term.var_type}. {body})"
    if isinstance(term, QUANTIFIERS):
        name = _fresh(term.hint, names)
        body = format_term(term.body, [name] + names)
        return f"({_QUANT_KEYWORD[type(term)]} {name}:{term.var_type}. {body})"
    if isinstance(term, App):
        return f"({format_term(term.fn, names)} {format_term(term.arg, names)})"
    if isinstance(term, Not):
        return f"(not {format_term(term.arg, names)})"
    if isinstance(term, Box):
        return f"(box {format_term(term.arg, names)})"
    if isinstance(term, Diamond):
        return f"(dia {format_term(term.arg, names)})"
    if isinstance(term, BINARY_CONNECTIVES):
        sym = _BINOP_SYMBOL[type(term)]
        return f"({format_term(term.left, names)} {sym} {format_term(term.right, names)})"
    if isinstance(term, LeibnizEq):
        return f"({format_term(term.left, names)} == {format_term(term.right, names)})"
    raise AssertionError(f"unhandled node {term!r}")
