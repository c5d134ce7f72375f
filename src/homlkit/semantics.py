"""Finite-scope denotational semantics over explicit Kripke models.

Denotations are enumerated: individuals are entity indices, propositions are
world-indexed truth tables, and function types are full (standard) function
spaces. A value is its position in a deterministic enumeration of its type,
an int; its one structured form is the nested JSON lists of
``position_to_json``, which ``position_from_json`` reads back with checks.

A value of a table type is a row of entries, and its position is the row
read as a number in base |entry| (``table_view``):

* a ``prop`` is a table of n world bits: its entry for world w is bit
  (n-1-w) of the position (world 0 is the most significant bit);
* a ``Fun(a, b)`` is a table of |a| entries of b, the j-th domain element's
  entry first-most-significant.

``digits(i, length, base)`` splits a position into its entries and
``position(entries, base)`` joins them back. The order is the one
itertools.product gives over the entries.

The evaluator states the meaning of each term node kind once, as one
compile rule in ``_RULES``, keyed by the node's type. ``rule(k, t)`` builds
t's closure ``code(c, env)`` from the closures of its parts, once per term
and scope: sizes of types and the shape of Leibniz equality are resolved
then, not on each evaluation. A closure computes through a carrier ``c``,
which supplies the value operations (``const``, ``apply``, ``lam``, the
connectives ``not_``/``and_``/``or_``/``implies``/``iff``, ``box``,
``diamond``, the quantifiers ``forall``/``exists``, ``equal`` and
``model_free``). There are two carriers:

* ``_EvalCtx`` is concrete: a value is its position, a proposition its world
  mask, so ``mvalid``, ``holds_at`` and ``eval_term`` run on it. It skips
  the right side of ``&`` and ``->`` once the left mask is 0, and of ``|``
  once it is full; the constants of the whole term are checked before it
  runs, so a skipped side cannot turn an error into a verdict.
* The grounder's ``_Grounding`` is symbolic: a value is a tuple of formula
  nodes over the model's unknowns. It evaluates left before right, always.

Whether a subterm can depend on the model is decided at compile time: a
maximal model-free subterm runs in the concrete carrier, and the symbolic
carrier lifts its value once (``model_free``). ``Lam`` and the quantifiers
memoise their value on the values of their free de Bruijn slots. The memo
belongs to the carrier of one top-level call (``mvalid``, ``holds_at``,
``eval_term`` or a ``ground``) and is emptied whenever it reaches
``MEMO_BOUND`` entries; nothing of it stays on a model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Optional, Sequence

from .errors import HomlError, ScopeCapError, depth_guarded
from .frozen import Frozen
from .logictypes import Fun, LogicType, Prop
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
    children,
    constants_of,
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
        if type(self.num_worlds) is not int or type(self.num_entities) is not int:
            raise HomlError(f"scope ({self.num_worlds!r}, {self.num_entities!r}) is not two ints")
        if self.num_worlds < 1 or self.num_entities < 1:
            raise HomlError("scope requires at least one world and one entity")

    def __str__(self):
        return f"(n={self.num_worlds}, m={self.num_entities})"


# ---------------------------------------------------------------------------
# Semantic values

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


def _check_position(i, ty: LogicType, scope: Scope, what: str) -> None:
    """Raise unless i, the value of ``what``, is a position of ty's values.
    A value may lie past the denotation cap, which bounds only what is
    enumerated, so the bound is read from ty's table view."""
    view = table_view(ty, scope)
    size = scope.num_entities if view is None else view[1] ** view[0]
    if type(i) is not int or not 0 <= i < size:
        raise HomlError(f"{what} has position {i!r}, not one of the {ty} values at scope {scope}")


# ---------------------------------------------------------------------------
# Kripke models

@dataclass(frozen=True, init=False)
class KripkeModel:
    """Finite model: worlds, accessibility, existence table, interpretations.

    ``accessibility[w][w']`` is True iff world w sees w'. ``exists_at[e][w]``
    is True iff entity e exists at world w. ``positions`` maps each constant
    to its value's position in the enumeration of its type in
    ``constant_types``; two models are equal when these five fields are.

    The constructor checks nothing, so `GroundProblem.decode` pays only for
    the build; the first evaluation checks the model (``_int_form``).
    """

    scope: Scope
    accessibility: tuple[tuple[bool, ...], ...]
    exists_at: tuple[tuple[bool, ...], ...]
    positions: dict[str, int]
    constant_types: dict[str, LogicType]

    def __init__(self, scope: Scope, accessibility, exists_at, positions=None, constant_types=None):
        self.__dict__.update(scope=scope, accessibility=accessibility, exists_at=exists_at,
                             positions=positions or {}, constant_types=constant_types or {})

    def satisfies_frame(self, flags) -> bool:
        n = self.scope.num_worlds
        r = self.accessibility
        if "refl" in flags and any(not r[w][w] for w in range(n)):
            return False
        if "symm" in flags and any(r[w][v] and not r[v][w] for w in range(n) for v in range(n)):
            return False
        if "trans" in flags and any(r[u][v] and r[v][w] and not r[u][w]
                                    for u in range(n) for v in range(n) for w in range(n)):
            return False
        return True

    @cached_property
    def _int_form(self) -> tuple[int, tuple[int, ...], dict[str, int]]:
        """(full world mask, accessibility masks, constant positions), the
        model in integer form. Every evaluation reads it, so the model is
        checked here, once: the shape of both tables, and each constant's
        position against its declared type."""
        scope, types = self.scope, self.constant_types
        n, m = scope.num_worlds, scope.num_entities
        if list(map(len, self.accessibility)) != [n] * n:
            raise HomlError("accessibility relation has wrong shape")
        if list(map(len, self.exists_at)) != [n] * m:
            raise HomlError("existence table has wrong shape")
        for name, i in self.positions.items():
            if name not in types:
                raise HomlError(f"constant {name!r} has no declared type")
            _check_position(i, types[name], scope, f"constant {name!r}")
        full = (1 << n) - 1
        # A row of the accessibility or existence table is a prop's table of
        # world bits, so its position is the world mask.
        acc_masks = tuple(position(row, 2) for row in self.accessibility)
        exists_masks = [position(row, 2) for row in self.exists_at]
        # existsAt as a Fun(Ind, Prop) position: one prop entry per entity.
        return full, acc_masks, {**self.positions, EXISTS_AT: position(exists_masks, full + 1)}


# ---------------------------------------------------------------------------
# The compiled evaluator

# Entries a binder memo holds within one top-level call before it is emptied.
MEMO_BOUND = 4096

# Node kinds whose value depends on the model: a constant, the accessibility
# relation, or the existence table.
_MODEL_READERS = frozenset((Const, Box, Diamond, ForallA, ExistsA))


class _Compiler:
    """The compile rules' view of one scope: sizes and table views of types,
    and each term's closure, built once and kept in the term's instance dict
    (outside its fields, so equality and hashing ignore it).

    A compiler comes with a twin that shares its tables: ``free`` says
    whether the node being compiled is model-free, and the rule of a node
    gets the one of the two that says so.
    """

    def __init__(self, scope: Scope, twin: Optional["_Compiler"] = None):
        self.scope = scope
        if twin is None:
            self.free = False
            self.sizes: dict[LogicType, int] = {}
            self.tables: dict[LogicType, Optional[tuple[int, int, object]]] = {}
            self.twin = _Compiler(scope, self)
        else:
            self.free = not twin.free
            self.sizes, self.tables, self.twin = twin.sizes, twin.tables, twin

    def size(self, ty: LogicType) -> int:
        s = self.sizes.get(ty)
        if s is None:
            s = self.sizes[ty] = denotation_size(ty, self.scope)
        return s

    def table(self, ty: LogicType) -> Optional[tuple[int, int, object]]:
        try:
            return self.tables[ty]
        except KeyError:
            view = self.tables[ty] = table_view(ty, self.scope)
            return view

    def code(self, t: Term):
        """The closure ``code(c, env)`` computing t's value in carrier c."""
        codes = t.__dict__.setdefault("_codes", {})
        code = codes.get(self.scope)
        if code is None:
            k = self if self.free == _model_free(t) else self.twin
            code = codes[self.scope] = _RULES[type(t)](k, t)
        return code

    def __call__(self, t: Term):
        """The closure of a part of the node being compiled, or of a root. A
        maximal model-free subterm runs in the concrete carrier, and
        ``c.model_free`` hands its value over: the symbolic carrier lifts it
        once."""
        code = self.code(t)
        if self.free or not _model_free(t):
            return code
        ty = t.ty
        return lambda c, env: c.model_free(code, ty, env)


def _memoised(t: Term, run):
    """``run`` memoised on the values of t's free de Bruijn slots, in the
    carrier's per-call memo (``c.memo``)."""
    slots = [-1 - k for k in sorted(free_vars(t))]
    get = itemgetter(*slots) if slots else None

    def code(c, env):
        key = (run, get(env)) if get else run
        memo = c.memo
        value = memo.get(key)
        if value is None:
            value = run(c, env)
            if len(memo) >= MEMO_BOUND:
                memo.clear()
            memo[key] = value
        return value

    return code


def _model_free(t: Term) -> bool:
    """True when t's value cannot depend on the model: it mentions no
    constant, no existence, and no modal operator."""
    free = t.__dict__.get("_model_free")
    if free is None:
        free = t.__dict__["_model_free"] = (
            type(t) not in _MODEL_READERS and all(map(_model_free, children(t))))
    return free


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


# One compile rule per node kind: ``rule(k, t)`` returns t's closure
# ``code(c, env)``, where ``env[-1 - i]`` is the value of de Bruijn index i
# and ``c`` is the carrier that supplies the value operations. Sizes are
# resolved here, once per scope. The sugar nodes mean what elaborate expands
# them to: an actualist quantifier ranges over Ind guarded by existsAt, and
# Leibniz equality is identity.

def _var(k, t: Var):
    slot = -1 - t.index
    return lambda c, env: env[slot]


def _const(k, t: Const):
    name = t.name
    return lambda c, env: c.const(name)


def _app(k, t: App):
    fn, arg = k(t.fn), k(t.arg)
    ty = t.fn.ty
    length, base = k.size(ty.domain), k.size(ty.codomain)
    return lambda c, env: c.apply(fn(c, env), arg(c, env), ty, length, base)


def _lam(k, t: Lam):
    body = k(t.body)
    length, base = k.size(t.var_type), k.size(t.body.ty)
    return _memoised(t, lambda c, env: c.lam(length, base, body, env))


def _not(k, t: Not):
    arg = k(t.arg)
    return lambda c, env: c.not_(arg(c, env))


def _box(k, t: Box):
    arg = k(t.arg)
    return lambda c, env: c.box(arg(c, env))


def _diamond(k, t: Diamond):
    arg = k(t.arg)
    return lambda c, env: c.diamond(arg(c, env))


# The connectives hand their right side to the carrier unevaluated, so that
# the concrete carrier can skip it once the left side decides the mask.

def _and(k, t: And):
    left, right = k(t.left), k(t.right)
    return lambda c, env: c.and_(left(c, env), right, env)


def _or(k, t: Or):
    left, right = k(t.left), k(t.right)
    return lambda c, env: c.or_(left(c, env), right, env)


def _implies(k, t: Implies):
    left, right = k(t.left), k(t.right)
    return lambda c, env: c.implies(left(c, env), right, env)


def _iff(k, t: Iff):
    left, right = k(t.left), k(t.right)
    return lambda c, env: c.iff(left(c, env), right(c, env))


def _equal(k, left: Term, right: Term):
    a, b = k(left), k(right)
    ty = left.ty
    return lambda c, env: c.equal(a(c, env), b(c, env), ty)


def _forall(k, t, body: Term):
    body, size = k(body), k.size(t.var_type)
    return _memoised(t, lambda c, env: c.forall(size, body, env))


def _exists(k, t, body: Term):
    body, size = k(body), k.size(t.var_type)
    return _memoised(t, lambda c, env: c.exists(size, body, env))


def _forall_p(k, t: ForallP):
    # Over full function spaces a discriminating property always exists, so
    # Leibniz equality's expansion holds iff its two sides are identical.
    pair = leibniz_shape(t)
    if pair is not None:
        return _equal(k, *pair)
    return _forall(k, t, t.body)


_RULES = {
    Var: _var,
    Const: _const,
    App: _app,
    Lam: _lam,
    Not: _not,
    Box: _box,
    Diamond: _diamond,
    And: _and,
    Or: _or,
    Implies: _implies,
    Iff: _iff,
    ForallP: _forall_p,
    ExistsP: lambda k, t: _exists(k, t, t.body),
    ForallA: lambda k, t: _forall(k, t, Implies(existence_guard(t.hint), t.body)),
    ExistsA: lambda k, t: _exists(k, t, And(existence_guard(t.hint), t.body)),
    LeibnizEq: lambda k, t: _equal(k, t.left, t.right),
}


class _EvalCtx:
    """The concrete carrier for one top-level call: a model in integer form,
    and the binder memo of the call. A value is its position in its type's
    enumeration, so a proposition's value is its world mask."""

    def __init__(self, model: KripkeModel):
        self.full, self.acc_masks, self.const_idx = model._int_form
        self.memo: dict = {}

    def const(self, name: str) -> int:
        try:
            return self.const_idx[name]
        except KeyError:
            raise HomlError(f"model does not interpret constant {name!r}") from None

    def model_free(self, code, ty, env: list) -> int:
        return code(self, env)

    def apply(self, f: int, a: int, ty, length: int, base: int) -> int:
        return f // base ** (length - 1 - a) % base

    def lam(self, length: int, base: int, body, env: list) -> int:
        acc = 0
        for j in range(length):
            env.append(j)
            acc = acc * base + body(self, env)
            env.pop()
        return acc

    def not_(self, a: int) -> int:
        return self.full ^ a

    def and_(self, a: int, right, env: list) -> int:
        return a and a & right(self, env)

    def or_(self, a: int, right, env: list) -> int:
        return a if a == self.full else a | right(self, env)

    def implies(self, a: int, right, env: list) -> int:
        a ^= self.full
        return a if a == self.full else a | right(self, env)

    def iff(self, a: int, b: int) -> int:
        return self.full ^ a ^ b

    def box(self, a: int) -> int:
        return position([a & row == row for row in self.acc_masks], 2)

    def diamond(self, a: int) -> int:
        return position([a & row != 0 for row in self.acc_masks], 2)

    def forall(self, size: int, body, env: list) -> int:
        out = self.full
        for j in range(size):
            env.append(j)
            out &= body(self, env)
            env.pop()
            if out == 0:
                break
        return out

    def exists(self, size: int, body, env: list) -> int:
        out = 0
        for j in range(size):
            env.append(j)
            out |= body(self, env)
            env.pop()
            if out == self.full:
                break
        return out

    def equal(self, a: int, b: int, ty: LogicType) -> int:
        return self.full if a == b else 0


@depth_guarded
def _run(model: KripkeModel, term: Term, env: list) -> int:
    """The position of term's value in the model, compiled at its scope.
    Every constant is checked first, since a connective may skip the
    subterm that mentions it."""
    constants = term.__dict__.get("_constants")
    if constants is None:
        constants = term.__dict__["_constants"] = sorted(constants_of(term))
    ctx = _EvalCtx(model)
    for name in constants:
        ctx.const(name)
    return _Compiler(model.scope).code(term)(ctx, env)


def eval_term(model: KripkeModel, env: Sequence[int], term: Term) -> int:
    """The position of term's value in the model, env[k] the position of de
    Bruijn index k's value; a closed prop term's position is its world mask."""
    var_types = free_vars(term)
    if var_types and (not env or max(var_types) >= len(env)):
        raise HomlError("term is not closed under the supplied environment")
    for k, ty in var_types.items():
        _check_position(env[k], ty, model.scope, f"de Bruijn index {k}")
    return _run(model, term, list(reversed(env)))


def holds_at(model: KripkeModel, formula: Term, world: int) -> bool:
    """Truth of a prop-typed closed formula at one world."""
    if formula.ty != Prop:
        raise HomlError(f"holds_at requires a prop-typed term, got {formula.ty}")
    n = model.scope.num_worlds
    if not 0 <= world < n:
        raise HomlError(f"world {world} is outside 0..{n - 1}")
    return bool((_run(model, formula, []) >> (n - 1 - world)) & 1)


def mvalid(model: KripkeModel, formula: Term) -> bool:
    """Global validity: truth at every world of the model."""
    if formula.ty != Prop:
        raise HomlError(f"mvalid requires a prop-typed term, got {formula.ty}")
    return _run(model, formula, []) == (1 << model.scope.num_worlds) - 1


# ---------------------------------------------------------------------------
# Verdicts

class ValidUpToScope(Frozen):
    scope: Scope


class Countermodel(Frozen):
    model: KripkeModel
    world: int


class Satisfiable(Frozen):
    model: KripkeModel


class Unsatisfiable(Frozen):
    scope: Scope


class Indeterminate(Frozen):
    reason: str


# ---------------------------------------------------------------------------
# JSON serialization (deterministic: arrays follow the enumeration order)

def position_to_json(i: int, ty: LogicType, scope: Scope):
    """The JSON of position i of ty: a bool, an entity, or a list of entries."""
    if ty is bool:
        return i == 1
    view = table_view(ty, scope)
    return i if view is None else [position_to_json(d, view[2], scope)
                                   for d in digits(i, view[0], view[1])]


def position_from_json(data, ty: LogicType, scope: Scope) -> int:
    """Inverse of position_to_json, checking the shape: a world bit is a JSON
    boolean, an entity an int of the scope, a table a list of its length."""
    if ty is bool:
        if type(data) is not bool:
            raise HomlError(f"world bit {data!r} is not a boolean")
        return int(data)
    view = table_view(ty, scope)
    if view is None:
        if type(data) is not int or not 0 <= data < scope.num_entities:
            raise HomlError(f"not an entity of scope {scope}: {data!r}")
        return data
    length, base, entry = view
    if type(data) is not list or len(data) != length:
        raise HomlError(f"not a table of {length} entries at scope {scope}: {data!r}")
    return position([position_from_json(e, entry, scope) for e in data], base)


def model_to_json(model: KripkeModel) -> dict:
    n, m = model.scope.num_worlds, model.scope.num_entities
    pairs = [[w, w2] for w in range(n) for w2 in range(n) if model.accessibility[w][w2]]
    scope, types = model.scope, model.constant_types
    constants = {name: {"type": str(types[name]), "value": position_to_json(i, types[name], scope)}
                 for name, i in sorted(model.positions.items())}
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
    """The model of a document in model_to_json's form, checking its
    structure and every value; anything else raises HomlError."""
    from .surface import parse_type_text

    if type(data) is not dict:
        raise HomlError(f"model document {data!r} is not a JSON object")
    missing = [key for key in ("num_worlds", "num_entities", "accessibility", "exists_at")
               if key not in data]
    if missing:
        raise HomlError(f"model document has no {', '.join(missing)}")
    scope = Scope(data["num_worlds"], data["num_entities"])
    n, m = scope.num_worlds, scope.num_entities
    pairs = data["accessibility"]
    if type(pairs) is not list:
        raise HomlError(f"accessibility {pairs!r} is not a list of pairs")
    acc = [[False] * n for _ in range(n)]
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(type(w) is int and 0 <= w < n for w in pair)):
            raise HomlError(f"accessibility pair {pair!r} is not two worlds of 0..{n - 1}")
        acc[pair[0]][pair[1]] = True
    rows = data["exists_at"]
    if type(rows) is not list or len(rows) != m:
        raise HomlError(f"existence table {rows!r} is not {m} rows")
    # An entity's row is a prop's table of world bits.
    exists = tuple(tuple(d == 1 for d in digits(position_from_json(row, Prop, scope), n, 2))
                   for row in rows)
    entries = data.get("constants", {})
    if type(entries) is not dict:
        raise HomlError(f"constants {entries!r} is not an object")
    types, positions = {}, {}
    for name, entry in entries.items():
        if type(entry) is not dict or type(entry.get("type")) is not str or "value" not in entry:
            raise HomlError(f"constant {name!r} is not an object with a type and a value: {entry!r}")
        types[name] = parse_type_text(entry["type"])
        positions[name] = position_from_json(entry["value"], types[name], scope)
    return KripkeModel(scope, tuple(tuple(row) for row in acc), exists, positions, types)
