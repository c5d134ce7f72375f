"""Finite-scope denotational semantics over explicit Kripke models.

Denotations are enumerated: individuals are entity indices, propositions are
world-indexed truth tables, and function types are full (standard) function
spaces. Every value of a type has a canonical position in a deterministic
enumeration, and the evaluator works on those integer positions internally.

A value of a table type is a row of entries, and its position is the row
read as a number in base |entry| (``table_view``):

* a ``prop`` is a table of n world bits: its entry for world w is bit
  (n-1-w) of the position (world 0 is the most significant bit);
* a ``Fun(a, b)`` is a table of |a| entries of b, the j-th domain element's
  entry first-most-significant.

``digits(i, length, base)`` splits a position into its entries and
``position(entries, base)`` joins them back. The order is the one
itertools.product gives over the entries.

The evaluator states the meaning of each term node kind once, as one rule
in ``_RULES``, keyed by the node's type. A rule computes through a carrier,
which supplies the value operations (``var``, ``const``, ``apply``, ``lam``,
the connectives ``not_``/``and_``/``or_``/``implies``/``iff``, ``box``,
``diamond``, the quantifiers ``forall``/``exists`` and ``equal``), and it
evaluates subterms with ``c.eval``. There are two carriers. ``_EvalCtx``
is concrete: a value is its position, a proposition its world mask, so
``mvalid`` and ``holds_at`` run on it. The grounder's ``_Grounding`` is
symbolic: a value is a tuple of formula nodes over the model's unknowns.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import HomlError, ScopeCapError
from .logictypes import Fun, Ind, LogicType, Prop
from .terms import (
    EXISTS_AT,
    And,
    App,
    Box,
    Const,
    Diamond,
    ExistsA,
    ExistsP,
    ForallA,
    ForallP,
    Iff,
    Implies,
    Lam,
    LeibnizEq,
    Not,
    Or,
    Term,
    Var,
    existence_guard,
    free_vars,
    shift,
)

DEFAULT_CAP = 2 ** 20


@dataclass(frozen=True)
class Scope:
    """Finite bound at which model finding and evaluation are exhaustive."""

    num_worlds: int
    num_entities: int

    def __post_init__(self):
        if self.num_worlds < 1 or self.num_entities < 1:
            raise HomlError("scope requires at least one world and one entity")

    def __str__(self):
        return f"(n={self.num_worlds}, m={self.num_entities})"


# ---------------------------------------------------------------------------
# Semantic values

class SemValue:
    __slots__ = ()


@dataclass(frozen=True)
class SBool(SemValue):
    value: bool


@dataclass(frozen=True)
class SEntity(SemValue):
    index: int


@dataclass(frozen=True)
class STable(SemValue):
    """Total function value; entries follow the domain type's enumeration order."""

    entries: tuple[SemValue, ...]


TRUE = SBool(True)
FALSE = SBool(False)


def digits(i: int, length: int, base: int) -> list[int]:
    """The entries of position i of a table: ``length`` base-``base`` digits,
    the first entry most significant."""
    out = [0] * length
    for k in range(length - 1, -1, -1):
        i, out[k] = divmod(i, base)
    return out


def position(entries, base: int) -> int:
    """Inverse of digits: the position of a table with these entries."""
    acc = 0
    for entry in entries:
        acc = acc * base + entry
    return acc


def table_view(ty: LogicType, scope: Scope) -> Optional[tuple[int, int, object]]:
    """(length, base, entry) of a table type: ``Fun(a, b)`` is |a| entries
    of b and ``prop`` is n world bits (entry type ``bool``). None for
    ``Ind``, whose values are entity indices."""
    if isinstance(ty, Fun):
        return denotation_size(ty.domain, scope), denotation_size(ty.codomain, scope), ty.codomain
    if ty == Prop:
        return scope.num_worlds, 2, bool
    return None


def denotation_size(ty: LogicType, scope: Scope) -> int:
    """|Ind| = m, |prop| = 2^n, |Fun(a, b)| = |b|^|a|; errors past the cap."""
    view = table_view(ty, scope)
    if view is None:
        size = scope.num_entities
    else:
        length, base, _ = view
        # Guard the power to avoid computing astronomically large ints.
        if length * (base.bit_length() - 1) > DEFAULT_CAP.bit_length() + 64:
            raise ScopeCapError(ty, f">2^{length * (base.bit_length() - 1)}", DEFAULT_CAP)
        size = base ** length
    if size > DEFAULT_CAP:
        raise ScopeCapError(ty, size, DEFAULT_CAP)
    return size


def index_value(i: int, ty: LogicType, scope: Scope) -> SemValue:
    """Canonical SemValue at position i of the enumeration of ty."""
    if ty is bool:
        return (FALSE, TRUE)[i]
    view = table_view(ty, scope)
    if view is None:
        return SEntity(i)
    length, base, entry = view
    return STable(tuple(index_value(d, entry, scope) for d in digits(i, length, base)))


def value_index(value: SemValue, ty: LogicType, scope: Scope) -> int:
    """Inverse of index_value."""
    if ty is bool:
        if not isinstance(value, SBool):
            raise HomlError(f"proposition table entry is not a Bool: {value!r}")
        return value.value
    view = table_view(ty, scope)
    if view is None:
        if not isinstance(value, SEntity) or not 0 <= value.index < scope.num_entities:
            raise HomlError(f"not an entity of scope {scope}: {value!r}")
        return value.index
    length, base, entry = view
    if not isinstance(value, STable) or len(value.entries) != length:
        raise HomlError(f"not a table of {length} entries at scope {scope}: {value!r}")
    found = []
    for e in value.entries:
        found.append(value_index(e, entry, scope))
    return position(found, base)


def enumerate_denotation(ty: LogicType, scope: Scope) -> Iterator[SemValue]:
    """All values of ty at the scope, in canonical order, without duplicates."""
    size = denotation_size(ty, scope)
    for i in range(size):
        yield index_value(i, ty, scope)


# ---------------------------------------------------------------------------
# Kripke models

@dataclass(frozen=True)
class KripkeModel:
    """Finite model: worlds, accessibility, existence table, interpretations.

    ``accessibility[w][w']`` is True iff world w sees w'. ``exists_at[e][w]``
    is True iff entity e exists at world w. ``constants`` maps each signature
    constant to a canonical SemValue of its type in ``constant_types``; its
    enumeration position is validated once and kept for the evaluator.
    """

    scope: Scope
    accessibility: tuple[tuple[bool, ...], ...]
    exists_at: tuple[tuple[bool, ...], ...]
    constants: dict[str, SemValue] = field(default_factory=dict)
    constant_types: dict[str, LogicType] = field(default_factory=dict)

    def __post_init__(self):
        n, m = self.scope.num_worlds, self.scope.num_entities
        if list(map(len, self.accessibility)) != [n] * n:
            raise HomlError("accessibility relation has wrong shape")
        if list(map(len, self.exists_at)) != [n] * m:
            raise HomlError("existence table has wrong shape")
        positions = []
        for name, value in self.constants.items():
            if name not in self.constant_types:
                raise HomlError(f"constant {name!r} has no declared type")
            # Raises if the value does not inhabit the declared type.
            positions.append(value_index(value, self.constant_types[name], self.scope))
        # In the order of ``constants``; a tuple keeps each model small.
        object.__setattr__(self, "_positions", tuple(positions))

    def satisfies_frame(self, flags) -> bool:
        n = self.scope.num_worlds
        r = self.accessibility
        if "refl" in flags and any(not r[w][w] for w in range(n)):
            return False
        if "symm" in flags and any(r[w][v] and not r[v][w] for w in range(n) for v in range(n)):
            return False
        if "trans" in flags:
            for u in range(n):
                for v in range(n):
                    if not r[u][v]:
                        continue
                    if any(r[v][w] and not r[u][w] for w in range(n)):
                        return False
        return True

    def _ctx(self) -> "_EvalCtx":
        ctx = self.__dict__.get("_cached_ctx")
        if ctx is None:
            ctx = _EvalCtx(self)
            object.__setattr__(self, "_cached_ctx", ctx)
        return ctx


def _eval(c, term: Term, env: list):
    """The value of ``term`` in carrier ``c``, where ``env[-1 - k]`` is the
    value of de Bruijn index k: the rule of the term's node kind."""
    return _RULES[type(term)](c, term, env)


class _EvalCtx:
    """The concrete carrier: a model in integer form. A value is its position
    in its type's enumeration, so a proposition's value is its world mask."""

    def __init__(self, model: KripkeModel):
        self.scope = model.scope
        self.n = model.scope.num_worlds
        self.full = (1 << self.n) - 1
        self.sizes: dict[LogicType, int] = {}
        self.tables: dict[LogicType, Optional[tuple[int, int, object]]] = {}
        self.leib_cache: dict[int, tuple] = {}
        # A row of the accessibility or existence table is a prop's table of
        # world bits, so its position is the world mask.
        self.acc_masks = [position(row, 2) for row in model.accessibility]
        self.exists_masks = [position(row, 2) for row in model.exists_at]
        self.const_idx = dict(zip(model.constants, model._positions))
        # existsAt as a Fun(Ind, Prop) position: one prop entry per entity.
        self.const_idx[EXISTS_AT] = position(self.exists_masks, self.full + 1)

    def size(self, ty: LogicType) -> int:
        s = self.sizes.get(ty)
        if s is None:
            s = denotation_size(ty, self.scope)
            self.sizes[ty] = s
        return s

    def table(self, ty: LogicType) -> Optional[tuple[int, int, object]]:
        try:
            return self.tables[ty]
        except KeyError:
            view = self.tables[ty] = table_view(ty, self.scope)
            return view

    eval = _eval
    var = staticmethod(lambda j, ty: j)
    and_ = staticmethod(operator.and_)
    or_ = staticmethod(operator.or_)

    def const(self, name: str) -> int:
        try:
            return self.const_idx[name]
        except KeyError:
            raise HomlError(f"model does not interpret constant {name!r}") from None

    def apply(self, f: int, a: int, fn_ty: Fun) -> int:
        dom = self.size(fn_ty.domain)
        cod = self.size(fn_ty.codomain)
        return (f // cod ** (dom - 1 - a)) % cod

    def lam(self, ty: LogicType, body: Term, env: list) -> int:
        acc = 0
        cod = self.size(body.ty)
        for j in range(self.size(ty)):
            env.append(j)
            acc = acc * cod + self.eval(body, env)
            env.pop()
        return acc

    def not_(self, a: int) -> int:
        return self.full ^ a

    def implies(self, a: int, b: int) -> int:
        return (self.full ^ a) | b

    def iff(self, a: int, b: int) -> int:
        return self.full ^ a ^ b

    def box(self, a: int) -> int:
        return position([a & row == row for row in self.acc_masks], 2)

    def diamond(self, a: int) -> int:
        return position([a & row != 0 for row in self.acc_masks], 2)

    def forall(self, ty: LogicType, body: Term, env: list) -> int:
        out = self.full
        for j in range(self.size(ty)):
            env.append(j)
            out &= self.eval(body, env)
            env.pop()
            if out == 0:
                break
        return out

    def exists(self, ty: LogicType, body: Term, env: list) -> int:
        out = 0
        for j in range(self.size(ty)):
            env.append(j)
            out |= self.eval(body, env)
            env.pop()
            if out == self.full:
                break
        return out

    def equal(self, a: int, b: int, ty: LogicType) -> int:
        return self.full if a == b else 0


def leibniz_shape(term: Term):
    """Recognize the expansion of Leibniz equality.

    ForallP(q: Fun(T, prop), (q a) -> (q b)) with q not free in a or b is,
    over full function spaces, equivalent to identity of a and b; returns the
    unshifted (a, b) or None. Used to evaluate such quantifiers in O(1).
    """
    if not isinstance(term, ForallP) or not isinstance(term.var_type, Fun):
        return None
    if term.var_type.codomain != Prop:
        return None
    body = term.body
    if not (isinstance(body, Implies) and isinstance(body.left, App)
            and isinstance(body.right, App)):
        return None
    lf, rf = body.left.fn, body.right.fn
    if not (isinstance(lf, Var) and lf.index == 0 and isinstance(rf, Var) and rf.index == 0):
        return None
    a, b = body.left.arg, body.right.arg
    if a.ty != b.ty or a.ty != term.var_type.domain:
        return None
    if 0 in free_vars(a) or 0 in free_vars(b):
        return None
    return shift(a, -1), shift(b, -1)


def _forall_p(c, t: ForallP, env: list):
    # Over full function spaces a discriminating property always exists, so
    # Leibniz equality's expansion holds iff its two sides are identical.
    cached = c.leib_cache.get(id(t))
    if cached is None or cached[0] is not t:
        cached = c.leib_cache[id(t)] = (t, leibniz_shape(t))
    pair = cached[1]
    if pair is not None:
        return c.equal(c.eval(pair[0], env), c.eval(pair[1], env), pair[0].ty)
    return c.forall(t.var_type, t.body, env)


# One rule per node kind; each computes through the carrier ``c``. The
# sugar nodes mean what elaborate expands them to: an actualist quantifier
# ranges over Ind guarded by existsAt, and Leibniz equality is identity.
_RULES = {
    Var: lambda c, t, env: c.var(env[-1 - t.index], t.var_type),
    Const: lambda c, t, env: c.const(t.name),
    App: lambda c, t, env: c.apply(c.eval(t.fn, env), c.eval(t.arg, env), t.fn.ty),
    Lam: lambda c, t, env: c.lam(t.var_type, t.body, env),
    Not: lambda c, t, env: c.not_(c.eval(t.arg, env)),
    And: lambda c, t, env: c.and_(c.eval(t.left, env), c.eval(t.right, env)),
    Or: lambda c, t, env: c.or_(c.eval(t.left, env), c.eval(t.right, env)),
    Implies: lambda c, t, env: c.implies(c.eval(t.left, env), c.eval(t.right, env)),
    Iff: lambda c, t, env: c.iff(c.eval(t.left, env), c.eval(t.right, env)),
    Box: lambda c, t, env: c.box(c.eval(t.arg, env)),
    Diamond: lambda c, t, env: c.diamond(c.eval(t.arg, env)),
    ForallP: _forall_p,
    ExistsP: lambda c, t, env: c.exists(t.var_type, t.body, env),
    ForallA: lambda c, t, env: c.forall(Ind, Implies(existence_guard(t.hint), t.body), env),
    ExistsA: lambda c, t, env: c.exists(Ind, And(existence_guard(t.hint), t.body), env),
    LeibnizEq: lambda c, t, env: c.equal(c.eval(t.left, env), c.eval(t.right, env), t.left.ty),
}


def eval_term(model: KripkeModel, env: Sequence[SemValue], term: Term) -> SemValue:
    """Denotation of term under env (env[k] interprets de Bruijn index k)."""
    ctx = model._ctx()
    var_types = free_vars(term)
    if var_types and (not env or max(var_types) >= len(env)):
        raise HomlError("term is not closed under the supplied environment")
    int_env = [0] * len(env)
    for k, ty in var_types.items():
        int_env[len(env) - 1 - k] = value_index(env[k], ty, model.scope)
    return index_value(ctx.eval(term, int_env), term.ty, model.scope)


def holds_at(model: KripkeModel, formula: Term, world: int) -> bool:
    """Truth of a prop-typed closed formula at one world."""
    if formula.ty != Prop:
        raise HomlError(f"holds_at requires a prop-typed term, got {formula.ty}")
    ctx = model._ctx()
    if not 0 <= world < ctx.n:
        raise HomlError(f"world {world} is outside 0..{ctx.n - 1}")
    return bool((ctx.eval(formula, []) >> (ctx.n - 1 - world)) & 1)


def mvalid(model: KripkeModel, formula: Term) -> bool:
    """Global validity: truth at every world of the model."""
    if formula.ty != Prop:
        raise HomlError(f"mvalid requires a prop-typed term, got {formula.ty}")
    ctx = model._ctx()
    return ctx.eval(formula, []) == ctx.full


def eval_mask(model: KripkeModel, formula: Term) -> int:
    """World bitmask of a closed prop formula (bit n-1-w set iff true at w)."""
    return model._ctx().eval(formula, [])


# ---------------------------------------------------------------------------
# Verdicts

@dataclass(frozen=True)
class ValidUpToScope:
    scope: Scope


@dataclass(frozen=True)
class Countermodel:
    model: KripkeModel
    world: int


@dataclass(frozen=True)
class Satisfiable:
    model: KripkeModel


@dataclass(frozen=True)
class Unsatisfiable:
    scope: Scope


@dataclass(frozen=True)
class Indeterminate:
    reason: str


# ---------------------------------------------------------------------------
# JSON serialization (deterministic: arrays follow the enumeration order)

def value_to_json(value: SemValue):
    if isinstance(value, SBool):
        return value.value
    if isinstance(value, SEntity):
        return value.index
    assert isinstance(value, STable)
    return [value_to_json(entry) for entry in value.entries]


def value_from_json(data, ty: LogicType, scope: Scope) -> SemValue:
    if ty is bool:
        return TRUE if data else FALSE
    view = table_view(ty, scope)
    if view is None:
        return SEntity(int(data))
    return STable(tuple(value_from_json(e, view[2], scope) for e in data))


def model_to_json(model: KripkeModel) -> dict:
    n, m = model.scope.num_worlds, model.scope.num_entities
    pairs = [[w, w2] for w in range(n) for w2 in range(n) if model.accessibility[w][w2]]
    constants = {}
    for name in sorted(model.constants):
        constants[name] = {
            "type": str(model.constant_types[name]),
            "value": value_to_json(model.constants[name]),
        }
    return {
        "num_worlds": n,
        "num_entities": m,
        "accessibility": pairs,
        "exists_at": [[bool(v) for v in row] for row in model.exists_at],
        "constants": constants,
    }


def model_to_json_str(model: KripkeModel) -> str:
    return json.dumps(model_to_json(model), sort_keys=True, separators=(",", ":"))


def model_from_json(data: dict) -> KripkeModel:
    from .surface import parse_type_text

    scope = Scope(data["num_worlds"], data["num_entities"])
    n, m = scope.num_worlds, scope.num_entities
    acc = [[False] * n for _ in range(n)]
    for w, w2 in data["accessibility"]:
        acc[w][w2] = True
    exists = tuple(tuple(bool(v) for v in row) for row in data["exists_at"])
    constants = {}
    types = {}
    for name, entry in data.get("constants", {}).items():
        ty = parse_type_text(entry["type"])
        types[name] = ty
        constants[name] = value_from_json(entry["value"], ty, scope)
    return KripkeModel(scope, tuple(tuple(row) for row in acc), exists, constants, types)
