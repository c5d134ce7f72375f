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
itertools.product gives over the entries. A type's view and its size
(``denotation_size``) are derived here and memoised per (type, scope), so
every reader of a type, here and in the grounder, shares one derivation.

The evaluator states the meaning of each term node kind once, as one
compile rule in ``_RULES``, keyed by the node's type. ``rule(k, t)`` builds
t's closure ``code(c, env)`` from the closures of its parts, once per term
and scope: the size of each type it reads and the shape of Leibniz
equality are resolved then, not on each evaluation. A closure computes through a
carrier ``c``, which supplies the value operations (``const``, ``apply``,
``at``, ``lam``, the connectives ``not_``/``and_``/``or_``/``implies``/``iff``,
``box``, ``diamond``, the quantifiers ``forall``/``exists``, ``equal``
and ``model_free``). There are two carriers:

* ``_EvalCtx`` is concrete: a value is its position, a proposition its world
  mask, so ``mvalid``, ``holds_at`` and ``eval_term`` run on it. It skips
  the right side of ``&`` and ``->`` once the left mask is 0, and of ``|``
  once it is full; the constants of the whole term are checked before it
  runs, so a skipped side cannot turn an error into a verdict.
* The grounder's ``_Grounding`` is symbolic: a value is a tuple of formula
  nodes over the model's unknowns. It evaluates left before right, always.
  Its equality and an application's case split walk a value by its
  nesting, so ``equal`` takes no type.

Whether a subterm can depend on the model is decided at compile time: a
maximal model-free subterm runs in the concrete carrier, and the symbolic
carrier lifts its value once (``model_free``), a bare bound variable's
too. A model-free application or equality also reads a bare bound
variable operand in place. A bound value is a position in either
carrier, so every application to a bare bound variable reads its argument
in place: ``at(f, j, ...)`` is f's entry at position j, which the concrete
carrier computes as ``apply`` does and the symbolic one reads off f's
tuple, with nothing lifted.

A prop-typed model-free subterm t is world-invariant (``_world_invariant``)
when its types and its free variables let every node act on each world
alone:

* every subterm type and bound variable type splits (``_splits``): it is
  ``i``, ``prop``, or ``Fun(a, b)`` with a prop-free (no ``prop`` in a)
  and b splitting;
* every ``==`` compares prop-free types;
* every free variable has a prop-free type.

Then t has one truth value at every world. At n worlds a value of a
splitting type is n independent one-world values, one per world bit, and a
prop-free type has the same values, at the same positions, at every n. Each
node kind acts on each world's part alone: a connective bit by bit, an
application or abstraction entry by entry over a prop-free domain, a
quantifier over the product of the per-world ranges (every range being
nonempty), and ``==`` of prop-free values yields 0 or the full mask. The
env, having prop-free types only, is the same at one world. So t's mask at
world w is its one-world value run on the w-th parts, which are the env
itself. Where a binder of t ranges over a type that contains prop, the
boundary of ``_Compiler.__call__`` compiles t at ``Scope(1, m)`` and runs it
in a one-world concrete carrier (``_EvalCtx.one_world``), which shares the
call's binder memo, and spreads the bit to 0 or the full mask: a
``p : i>prop`` ranges over 2^m values there, not 2^(n·m). t is compiled at
its own scope first, so a binder past the cap still raises `ScopeCapError`.
Every top-level call, the concrete ones and a ``ground``, reaches t through
that one boundary.

``Lam`` and the quantifiers memoise their value on the values of their free
de Bruijn slots, but only where that key can repeat (``_memoised``). A
top-level term is closed under its env, so a binder's free slots are some of
the env; when they are all of it, the key is the whole env, which recurs
only where one term instance sits twice under the same binders, and the
binder runs unmemoised. A binder with no free slots stays memoised. This is
read from the env's length at run time: a closure is compiled once per term
instance, and a shared subtree can sit at two binder depths. The memo
belongs to the carrier of one top-level call (``mvalid``, ``holds_at``,
``eval_term`` or a ``ground``) and is emptied whenever it reaches
``MEMO_BOUND`` entries; nothing of it stays on a model.
"""

from __future__ import annotations

from functools import cache, cached_property
from operator import itemgetter
from typing import Optional, Sequence

from .errors import HomlError, ScopeCapError, depth_guarded
from .frozen import Frozen
from .logictypes import Fun, Ind, LogicType, Prop
from .terms import (
    BINDERS,
    EXISTS_AT,
    EXISTS_AT_TYPE,
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
    is_closed,
    shift,
)
from .theory import frame_clauses

DEFAULT_CAP = 2 ** 20


class Scope(Frozen):
    """Finite bound at which model finding and evaluation are exhaustive."""

    num_worlds: int
    num_entities: int

    def __init__(self, num_worlds: int, num_entities: int):
        if type(num_worlds) is not int or type(num_entities) is not int:
            raise HomlError(f"scope ({num_worlds!r}, {num_entities!r}) is not two ints")
        if num_worlds < 1 or num_entities < 1:
            raise HomlError("scope requires at least one world and one entity")
        object.__setattr__(self, "num_worlds", num_worlds)
        object.__setattr__(self, "num_entities", num_entities)

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


# A type's view and size are derived once per (type, scope), here, and every
# caller reads them from these two caches. A call that raises ScopeCapError
# stores nothing, so it raises again on every call.

@cache
def table_view(ty: LogicType, scope: Scope) -> Optional[tuple[int, int, object]]:
    """(length, base, entry) of a table type: ``Fun(a, b)`` is |a| entries
    of b and ``prop`` is n world bits (entry type ``bool``). None for
    ``Ind``, whose values are entity indices."""
    if isinstance(ty, Fun):
        return denotation_size(ty.domain, scope), denotation_size(ty.codomain, scope), ty.codomain
    if ty == Prop:
        return scope.num_worlds, 2, bool
    return None


@cache
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

class KripkeModel(Frozen):
    """Finite model, held as positions: worlds, accessibility, existence,
    interpretations. ``accessibility`` is a tuple of n world masks: bit
    n-1-v of ``accessibility[w]`` is set iff world w sees v. ``exists_at``
    is the position of ``existsAt : Fun(Ind, Prop)``. ``positions`` maps
    each constant to its value's position in the enumeration of its type in
    ``constant_types``; two models are equal when these five fields are.

    The constructor checks nothing, so `GroundProblem.decode` pays only for
    the build; the first evaluation, ``satisfies_frame`` or `model_to_json`
    checks the model (``_int_form``). It copies the two dicts, so a caller
    that changes its own afterwards changes nothing here.
    """

    scope: Scope
    accessibility: tuple[int, ...]
    exists_at: int
    positions: dict[str, int]
    constant_types: dict[str, LogicType]

    def __init__(self, scope: Scope, accessibility, exists_at, positions=None, constant_types=None):
        self.__dict__.update(scope=scope, accessibility=accessibility, exists_at=exists_at,
                             positions=dict(positions or {}),
                             constant_types=dict(constant_types or {}))

    def satisfies_frame(self, flags) -> bool:
        """Whether every clause of the frame conditions of ``flags``
        (`frame_clauses`) holds on the model's masks."""
        n, acc = self.scope.num_worlds, self._int_form[1]
        # Literal w*n + v + 1 says that w sees v: bit n-1-v of acc[w].
        sees = [None] + [acc[w] >> (n - 1 - v) & 1 for w in range(n) for v in range(n)]
        cells = [[w * n + v + 1 for v in range(n)] for w in range(n)]
        return all(any(sees[lit] if lit > 0 else not sees[-lit] for lit in clause)
                   for clause in frame_clauses(flags, cells))

    @cached_property
    def _int_form(self) -> tuple[int, tuple[int, ...], dict[str, int]]:
        """(full world mask, accessibility masks, constant positions with
        existsAt's), the model in integer form. Every evaluation reads it, so
        the model is checked here, once, by range: a tuple of n masks, each
        an int in 0..2^n-1, and the position of existsAt and of each
        constant, none of which may be named existsAt."""
        scope, types, acc = self.scope, self.constant_types, self.accessibility
        n, full = scope.num_worlds, (1 << scope.num_worlds) - 1
        if type(acc) is not tuple or len(acc) != n or not all(
                type(mask) is int and 0 <= mask <= full for mask in acc):
            raise HomlError(f"accessibility relation has wrong shape: {acc!r} "
                            f"is not a tuple of {n} masks of 0..{full}")
        exists = self.exists_at  # m entity rows of n world bits
        if type(exists) is not int or not 0 <= exists < (full + 1) ** scope.num_entities:
            raise HomlError(f"existence table has wrong shape: {exists!r} "
                            f"is not a position of {EXISTS_AT} : {EXISTS_AT_TYPE}")
        if EXISTS_AT in self.positions:
            raise HomlError(f"constant {EXISTS_AT!r} is reserved: the existence "
                            "table is the model's exists_at")
        for name, i in self.positions.items():
            if name not in types:
                raise HomlError(f"constant {name!r} has no declared type")
            _check_position(i, types[name], scope, f"constant {name!r}")
        return full, acc, {**self.positions, EXISTS_AT: exists}


# ---------------------------------------------------------------------------
# The compiled evaluator

# Entries a binder memo holds within one top-level call before it is emptied.
MEMO_BOUND = 4096

# Node kinds whose value depends on the model: a constant, the accessibility
# relation, or the existence table.
_MODEL_READERS = frozenset((Const, Box, Diamond, ForallA, ExistsA))


class _Compiler:
    """The compile rules' view of one scope: each term's closure, built once
    and kept in the term's instance dict (outside its fields, so equality
    and hashing ignore it). A type's size is read from ``denotation_size``,
    memoised per (type, scope).

    A compiler comes with a twin: ``free`` says whether the node being
    compiled is model-free, and the rule of a node gets the one of the two
    that says so.
    """

    def __init__(self, scope: Scope, twin: Optional["_Compiler"] = None):
        self.scope = scope
        self.free = twin is not None
        self.twin = twin or _Compiler(scope, self)

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
        maximal model-free subterm, a bare bound variable too, runs in the
        concrete carrier, and ``c.model_free`` hands its value over: the
        symbolic carrier lifts it once. A world-invariant one
        (``_world_invariant``) runs at one world, and its bit is spread to
        every world; it is compiled at this scope first all the same, so its
        binder sizes raise `ScopeCapError` where they always did."""
        code = self.code(t)
        if self.free or not _model_free(t):
            return code
        ty = t.ty
        if self.scope.num_worlds > 1 and _world_invariant(t):
            one = _Compiler(Scope(1, self.scope.num_entities)).code(t)

            def code(c, env):
                return c.full if one(c.one_world, env) else 0
        return lambda c, env: c.model_free(code, ty, env)

    def slot(self, t: Term) -> Optional[int]:
        """The env slot of t when t is a bare bound variable that a model-free
        node reads in place, else None."""
        return -1 - t.index if self.free and type(t) is Var else None


def _memoised(t: Term, run):
    """``run`` memoised on the values of t's free de Bruijn slots, in the
    carrier's per-call memo (``c.memo``), where its key can repeat.

    A top-level term is closed under the caller's env, which stays fixed
    for the call, so t's free slots are some of ``env``. When they are all
    of it, the key is the whole env, which recurs only where the same term
    instance sits twice under the same binders: the body runs and nothing
    is stored. This is read from ``len(env)`` at run time, not fixed at
    compile time from t's depth: a closure is compiled once per term
    instance (``_codes``), and ``rebuild`` shares unchanged subtrees, so one
    instance can sit at two depths. A closed t stays memoised."""
    slots = [-1 - k for k in sorted(free_vars(t))]
    get = itemgetter(*slots) if slots else None
    n = len(slots)

    def code(c, env):
        if get:
            if len(env) == n:
                return run(c, env)
            key = (run, get(env))
        else:
            key = run
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


@cache
def _prop_free(ty: LogicType) -> bool:
    """Whether prop occurs nowhere in ty, so that its values, and their
    positions, are the same at every number of worlds."""
    if isinstance(ty, Fun):
        return _prop_free(ty.domain) and _prop_free(ty.codomain)
    return ty is not Prop


@cache
def _splits(ty: LogicType) -> bool:
    """Whether a value of ty at n worlds is n one-world values, one per world
    bit: ty is i, prop, or ``Fun(a, b)`` with a prop-free and b splitting."""
    if isinstance(ty, Fun):
        return _prop_free(ty.domain) and _splits(ty.codomain)
    return True


def _world_split(t: Term) -> int:
    """For a model-free t, cached on the instance as ``_model_free`` is: 0
    unless every node of t acts on each world's part of its values alone,
    that is, every subterm and binder variable type splits (``_splits``) and
    every ``==`` compares prop-free types; else 2 when some binder of t
    ranges over a type that contains prop, and 1 when none does."""
    split = t.__dict__.get("_world_split")
    if split is None:
        var_type = t.var_type if type(t) in BINDERS else Ind
        split = 0
        if (_splits(t.ty) and _splits(var_type)
                and (type(t) is not LeibnizEq or _prop_free(t.left.ty))):
            kids = [_world_split(kid) for kid in children(t)]
            if 0 not in kids:
                split = max([1 if _prop_free(var_type) else 2, *kids])
        t.__dict__["_world_split"] = split
    return split


def _world_invariant(t: Term) -> bool:
    """Whether the model-free t has one truth value at every world, and a
    one-world run enumerates fewer values than the n-world one: t is
    prop-typed, splits per world (``_world_split``) with a binder over a type
    containing prop, and each of its free variables has a prop-free type.
    Cached on the instance, since every top-level call asks it of its root."""
    invariant = t.__dict__.get("_world_invariant")
    if invariant is None:
        invariant = t.__dict__["_world_invariant"] = (
            t.ty is Prop and _world_split(t) == 2
            and all(map(_prop_free, free_vars(t).values())))
    return invariant


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
# resolved here, once per scope. The sugar nodes, which elaborate keeps, get
# their only meaning here: an actualist quantifier ranges over Ind guarded by
# existsAt, and Leibniz equality is identity.

def _var(k, t: Var):
    slot = -1 - t.index
    return lambda c, env: env[slot]


def _const(k, t: Const):
    name = t.name
    return lambda c, env: c.const(name)


def _places(length: int, base: int):
    """The place values of a table of ``length`` entries in base ``base``:
    entry a is ``base ** (length - 1 - a)``, the first most significant.
    Listed, they take about length² · log2(base) / 2 bits, so where
    length² times the bit length of base passes ``DEFAULT_CAP``, each one
    is computed when it is read."""
    if length * length * base.bit_length() > DEFAULT_CAP:
        return _Places(length, base)
    return tuple([base ** e for e in range(length - 1, -1, -1)])


class _Places:
    """The place values of a long table (``_places``), one per read."""

    __slots__ = ("length", "base")

    def __init__(self, length: int, base: int):
        self.length, self.base = length, base

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, a: int) -> int:
        return self.base ** (self.length - 1 - a)


def _app(k, t: App):
    fn, ty = k(t.fn), t.fn.ty
    base = denotation_size(ty.codomain, k.scope)
    divs = _places(denotation_size(ty.domain, k.scope), base)
    f = k.slot(t.fn)
    if type(t.arg) is Var:
        # A bound value is a position in either carrier: read in place.
        a = -1 - t.arg.index
        if f is not None:
            return lambda c, env: c.apply(env[f], env[a], ty, divs, base)
        return lambda c, env: c.at(fn(c, env), env[a], ty, divs, base)
    arg = k(t.arg)
    if f is not None:
        return lambda c, env: c.apply(env[f], arg(c, env), ty, divs, base)
    return lambda c, env: c.apply(fn(c, env), arg(c, env), ty, divs, base)


def _lam(k, t: Lam):
    body = k(t.body)
    length, base = denotation_size(t.var_type, k.scope), denotation_size(t.body.ty, k.scope)
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
    i, j = k.slot(left), k.slot(right)
    if i is not None and j is not None:
        return lambda c, env: c.equal(env[i], env[j])
    if i is not None:
        return lambda c, env: c.equal(env[i], b(c, env))
    if j is not None:
        return lambda c, env: c.equal(a(c, env), env[j])
    return lambda c, env: c.equal(a(c, env), b(c, env))


def _forall(k, t, body: Term):
    body, size = k(body), denotation_size(t.var_type, k.scope)
    return _memoised(t, lambda c, env: c.forall(size, body, env))


def _exists(k, t, body: Term):
    body, size = k(body), denotation_size(t.var_type, k.scope)
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

    def __init__(self, model: KripkeModel, memo: Optional[dict] = None):
        self.scope = model.scope
        self.full, self.acc_masks, self.const_idx = model._int_form
        self.memo: dict = {} if memo is None else memo

    @cached_property
    def one_world(self) -> "_EvalCtx":
        """The carrier of a world-invariant subterm: a one-world model, read
        by nothing, and this call's memo. A closure compiled at one world is
        its own key there, so its entries cannot meet this carrier's."""
        return _EvalCtx(KripkeModel(Scope(1, self.scope.num_entities), (0,), 0), self.memo)

    def const(self, name: str) -> int:
        try:
            return self.const_idx[name]
        except KeyError:
            raise HomlError(f"model does not interpret constant {name!r}") from None

    def model_free(self, code, ty, env: list) -> int:
        return code(self, env)

    def apply(self, f: int, a: int, ty, divs, base: int) -> int:
        return f // divs[a] % base

    at = apply

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

    def equal(self, a: int, b: int) -> int:
        return self.full if a == b else 0


def _check_closed(term: Term, error: type = HomlError) -> None:
    """Raise ``error``, naming a free de Bruijn index, unless the term is
    closed; a term found closed is not walked again."""
    if "_closed" not in term.__dict__:
        if not is_closed(term):
            raise error(f"formula is not closed: de Bruijn index {min(free_vars(term))} is free")
        term.__dict__["_closed"] = True


@depth_guarded
def _run(model: KripkeModel, term: Term, env: list) -> int:
    """The position of term's value in the model, compiled at its scope.
    A term run without an env must be closed. Every constant is checked
    first, since a connective may skip the subterm that mentions it."""
    if not env:
        _check_closed(term)
    constants = term.__dict__.get("_constants")
    if constants is None:
        constants = term.__dict__["_constants"] = sorted(constants_of(term))
    ctx = _EvalCtx(model)
    for name in constants:
        ctx.const(name)
    return _Compiler(model.scope)(term)(ctx, env)


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
    """The model's document, read through its one check (``_int_form``)."""
    scope, types, n = model.scope, model.constant_types, model.scope.num_worlds
    pairs = [[w, v] for w, mask in enumerate(model._int_form[1])
             for v in range(n) if mask >> (n - 1 - v) & 1]
    constants = {name: {"type": str(types[name]), "value": position_to_json(i, types[name], scope)}
                 for name, i in sorted(model.positions.items())}
    return {
        "num_worlds": n,
        "num_entities": scope.num_entities,
        "accessibility": pairs,
        "exists_at": position_to_json(model.exists_at, EXISTS_AT_TYPE, scope),
        "constants": constants,
    }


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
    n = scope.num_worlds
    pairs = data["accessibility"]
    if type(pairs) is not list:
        raise HomlError(f"accessibility {pairs!r} is not a list of pairs")
    acc = [0] * n
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and all(type(w) is int and 0 <= w < n for w in pair)):
            raise HomlError(f"accessibility pair {pair!r} is not two worlds of 0..{n - 1}")
        acc[pair[0]] |= 1 << (n - 1 - pair[1])
    exists = position_from_json(data["exists_at"], EXISTS_AT_TYPE, scope)
    entries = data.get("constants", {})
    if type(entries) is not dict:
        raise HomlError(f"constants {entries!r} is not an object")
    types, positions = {}, {}
    for name, entry in entries.items():
        if type(entry) is not dict or type(entry.get("type")) is not str or "value" not in entry:
            raise HomlError(f"constant {name!r} is not an object with a type and a value: {entry!r}")
        types[name] = parse_type_text(entry["type"])
        positions[name] = position_from_json(entry["value"], types[name], scope)
    return KripkeModel(scope, tuple(acc), exists, positions, types)
