"""Finite-scope denotational semantics over explicit Kripke models.

Denotations are enumerated: individuals are entity indices, propositions are
world-indexed truth tables, and function types are full (standard) function
spaces. Every value of a type has a canonical position in a deterministic
enumeration, and the evaluator works on those integer positions internally:

* a ``prop`` value with position p is true at world w iff bit (n-1-w) of p
  is set (world 0 is the most significant bit);
* a ``Fun(a, b)`` value with position f maps the j-th domain element to the
  b-value at position (f // |b|^(|a|-1-j)) % |b| (first domain element most
  significant).

This matches the order produced by itertools.product over the codomain.
"""

from __future__ import annotations

import json
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
    constants_of,
    free_vars,
    shift,
    subterms,
)

DEFAULT_CAP = 2 ** 20


@dataclass(frozen=True)
class Scope:
    """Finite bound at which model finding and evaluation are exhaustive."""

    num_worlds: int
    num_entities: int
    max_denotation_size: int = DEFAULT_CAP

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


def denotation_size(ty: LogicType, scope: Scope) -> int:
    """|Ind| = m, |Prop| = 2^n, |Fun(a, b)| = |b|^|a|; errors past the cap."""
    cap = scope.max_denotation_size
    if ty is Ind or ty == Ind:
        size = scope.num_entities
    elif ty is Prop or ty == Prop:
        size = 2 ** scope.num_worlds
    else:
        assert isinstance(ty, Fun)
        dom = denotation_size(ty.domain, scope)
        cod = denotation_size(ty.codomain, scope)
        # Guard the power to avoid computing astronomically large ints.
        if dom * (cod.bit_length() - 1) > cap.bit_length() + 64:
            raise ScopeCapError(ty, f">2^{dom * (cod.bit_length() - 1)}", cap)
        size = cod ** dom
    if size > cap:
        raise ScopeCapError(ty, size, cap)
    return size


def index_value(i: int, ty: LogicType, scope: Scope) -> SemValue:
    """Canonical SemValue at position i of the enumeration of ty."""
    if ty == Ind:
        return SEntity(i)
    n = scope.num_worlds
    if ty == Prop:
        return STable(tuple(SBool(bool((i >> (n - 1 - w)) & 1)) for w in range(n)))
    assert isinstance(ty, Fun)
    dom = denotation_size(ty.domain, scope)
    cod = denotation_size(ty.codomain, scope)
    entries = []
    for j in range(dom):
        digit = (i // cod ** (dom - 1 - j)) % cod
        entries.append(index_value(digit, ty.codomain, scope))
    return STable(tuple(entries))


def value_index(value: SemValue, ty: LogicType, scope: Scope) -> int:
    """Inverse of index_value."""
    if ty == Ind:
        if not isinstance(value, SEntity) or not 0 <= value.index < scope.num_entities:
            raise HomlError(f"not an entity of scope {scope}: {value!r}")
        return value.index
    if ty == Prop:
        n = scope.num_worlds
        if not isinstance(value, STable) or len(value.entries) != n:
            raise HomlError(f"not a proposition table at scope {scope}: {value!r}")
        acc = 0
        for entry in value.entries:
            if not isinstance(entry, SBool):
                raise HomlError(f"proposition table entry is not a Bool: {entry!r}")
            acc = (acc << 1) | int(entry.value)
        return acc
    assert isinstance(ty, Fun)
    dom = denotation_size(ty.domain, scope)
    cod = denotation_size(ty.codomain, scope)
    if not isinstance(value, STable) or len(value.entries) != dom:
        raise HomlError(f"not a table of {dom} entries: {value!r}")
    acc = 0
    for entry in value.entries:
        acc = acc * cod + value_index(entry, ty.codomain, scope)
    return acc


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
    constant to a canonical SemValue of its type in ``constant_types``.
    """

    scope: Scope
    accessibility: tuple[tuple[bool, ...], ...]
    exists_at: tuple[tuple[bool, ...], ...]
    constants: dict[str, SemValue] = field(default_factory=dict)
    constant_types: dict[str, LogicType] = field(default_factory=dict)

    def __post_init__(self):
        n, m = self.scope.num_worlds, self.scope.num_entities
        if len(self.accessibility) != n or any(len(row) != n for row in self.accessibility):
            raise HomlError("accessibility relation has wrong shape")
        if len(self.exists_at) != m or any(len(row) != n for row in self.exists_at):
            raise HomlError("existence table has wrong shape")
        for name, value in self.constants.items():
            if name not in self.constant_types:
                raise HomlError(f"constant {name!r} has no declared type")
            # Raises if the value does not inhabit the declared type.
            value_index(value, self.constant_types[name], self.scope)

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


class _EvalCtx:
    """Precomputed integer form of a model for the fast evaluator."""

    def __init__(self, model: KripkeModel):
        scope = model.scope
        n, m = scope.num_worlds, scope.num_entities
        self.scope = scope
        self.n = n
        self.full = (1 << n) - 1
        self.acc_masks = []
        for w in range(n):
            mask = 0
            for w2 in range(n):
                if model.accessibility[w][w2]:
                    mask |= 1 << (n - 1 - w2)
            self.acc_masks.append(mask)
        self.exists_masks = []
        for e in range(m):
            mask = 0
            for w in range(n):
                if model.exists_at[e][w]:
                    mask |= 1 << (n - 1 - w)
            self.exists_masks.append(mask)
        self.const_idx = {}
        for name, value in model.constants.items():
            self.const_idx[name] = value_index(value, model.constant_types[name], scope)
        # existsAt as a Fun(Ind, Prop) position, derived from the table.
        acc = 0
        for e in range(m):
            acc = acc * (self.full + 1) + self.exists_masks[e]
        self.const_idx[EXISTS_AT] = acc
        self.sizes: dict[LogicType, int] = {}
        self.leib_cache: dict[int, tuple] = {}

    def size(self, ty: LogicType) -> int:
        s = self.sizes.get(ty)
        if s is None:
            s = denotation_size(ty, self.scope)
            self.sizes[ty] = s
        return s


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


def _eval(term: Term, env: list[int], ctx: _EvalCtx) -> int:
    """Evaluate to the integer position of the term's value in its type."""
    if isinstance(term, Var):
        return env[len(env) - 1 - term.index]
    if isinstance(term, Const):
        try:
            return ctx.const_idx[term.name]
        except KeyError:
            raise HomlError(f"model does not interpret constant {term.name!r}") from None
    if isinstance(term, App):
        f = _eval(term.fn, env, ctx)
        a = _eval(term.arg, env, ctx)
        dom = ctx.size(term.fn.ty.domain)
        cod = ctx.size(term.fn.ty.codomain)
        return (f // cod ** (dom - 1 - a)) % cod
    if isinstance(term, Lam):
        dom = ctx.size(term.var_type)
        acc = 0
        cod = ctx.size(term.body.ty)
        for j in range(dom):
            env.append(j)
            acc = acc * cod + _eval(term.body, env, ctx)
            env.pop()
        return acc
    if isinstance(term, Not):
        return ctx.full ^ _eval(term.arg, env, ctx)
    if isinstance(term, And):
        return _eval(term.left, env, ctx) & _eval(term.right, env, ctx)
    if isinstance(term, Or):
        return _eval(term.left, env, ctx) | _eval(term.right, env, ctx)
    if isinstance(term, Implies):
        return (ctx.full ^ _eval(term.left, env, ctx)) | _eval(term.right, env, ctx)
    if isinstance(term, Iff):
        return ctx.full ^ _eval(term.left, env, ctx) ^ _eval(term.right, env, ctx)
    if isinstance(term, Box):
        v = _eval(term.arg, env, ctx)
        out = 0
        for w in range(ctx.n):
            acc = ctx.acc_masks[w]
            if v & acc == acc:
                out |= 1 << (ctx.n - 1 - w)
        return out
    if isinstance(term, Diamond):
        v = _eval(term.arg, env, ctx)
        out = 0
        for w in range(ctx.n):
            if v & ctx.acc_masks[w]:
                out |= 1 << (ctx.n - 1 - w)
        return out
    if isinstance(term, ForallP):
        cached = ctx.leib_cache.get(id(term))
        if cached is None or cached[0] is not term:
            pair = leibniz_shape(term)
            cached = (term, pair)
            ctx.leib_cache[id(term)] = cached
        pair = cached[1]
        if pair is not None:
            same = _eval(pair[0], env, ctx) == _eval(pair[1], env, ctx)
            return ctx.full if same else 0
        size = ctx.size(term.var_type)
        out = ctx.full
        for j in range(size):
            env.append(j)
            out &= _eval(term.body, env, ctx)
            env.pop()
            if out == 0:
                break
        return out
    if isinstance(term, ExistsP):
        size = ctx.size(term.var_type)
        out = 0
        for j in range(size):
            env.append(j)
            out |= _eval(term.body, env, ctx)
            env.pop()
            if out == ctx.full:
                break
        return out
    if isinstance(term, ForallA):
        out = ctx.full
        for e, guard in enumerate(ctx.exists_masks):
            env.append(e)
            out &= (ctx.full ^ guard) | _eval(term.body, env, ctx)
            env.pop()
            if out == 0:
                break
        return out
    if isinstance(term, ExistsA):
        out = 0
        for e, guard in enumerate(ctx.exists_masks):
            env.append(e)
            out |= guard & _eval(term.body, env, ctx)
            env.pop()
            if out == ctx.full:
                break
        return out
    if isinstance(term, LeibnizEq):
        # In full function spaces a discriminating property always exists, so
        # Leibniz equality coincides with identity of canonical values.
        same = _eval(term.left, env, ctx) == _eval(term.right, env, ctx)
        return ctx.full if same else 0
    raise HomlError(f"cannot evaluate term node {term!r}")


def eval_term(model: KripkeModel, env: Sequence[SemValue], term: Term) -> SemValue:
    """Denotation of term under env (env[k] interprets de Bruijn index k)."""
    ctx = model._ctx()
    var_types = free_vars(term)
    if var_types and (not env or max(var_types) >= len(env)):
        raise HomlError("term is not closed under the supplied environment")
    int_env = [0] * len(env)
    for k, ty in var_types.items():
        int_env[len(env) - 1 - k] = value_index(env[k], ty, model.scope)
    pos = _eval(term, int_env, ctx)
    return index_value(pos, term.ty, model.scope)


def holds_at(model: KripkeModel, formula: Term, world: int) -> bool:
    """Truth of a prop-typed closed formula at one world."""
    if formula.ty != Prop:
        raise HomlError(f"holds_at requires a prop-typed term, got {formula.ty}")
    ctx = model._ctx()
    mask = _eval(formula, [], ctx)
    return bool((mask >> (ctx.n - 1 - world)) & 1)


def mvalid(model: KripkeModel, formula: Term) -> bool:
    """Global validity: truth at every world of the model."""
    if formula.ty != Prop:
        raise HomlError(f"mvalid requires a prop-typed term, got {formula.ty}")
    ctx = model._ctx()
    return _eval(formula, [], ctx) == ctx.full


def eval_mask(model: KripkeModel, formula: Term) -> int:
    """World bitmask of a closed prop formula (bit n-1-w set iff true at w)."""
    return _eval(formula, [], model._ctx())


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
    if ty == Ind:
        return SEntity(int(data))
    if ty == Prop:
        return STable(tuple(SBool(bool(b)) for b in data))
    assert isinstance(ty, Fun)
    return STable(tuple(value_from_json(entry, ty.codomain, scope) for entry in data))


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


def model_from_json(data: dict, cap: int = DEFAULT_CAP) -> KripkeModel:
    from .surface import parse_type_text

    scope = Scope(data["num_worlds"], data["num_entities"], cap)
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


# ---------------------------------------------------------------------------
# Exhaustive model enumeration (the semantic-side oracle)

def relation_from_bits(bits: int, n: int) -> tuple[tuple[bool, ...], ...]:
    return tuple(tuple(bool((bits >> (w * n + w2)) & 1) for w2 in range(n)) for w in range(n))


def exists_from_bits(bits: int, m: int, n: int) -> tuple[tuple[bool, ...], ...]:
    return tuple(tuple(bool((bits >> (e * n + w)) & 1) for w in range(n)) for e in range(m))


def count_full_models(signature, scope: Scope) -> int:
    """Number of candidate models the exhaustive enumeration would visit."""
    n, m = scope.num_worlds, scope.num_entities
    total = 2 ** (n * n) * 2 ** (m * n)
    for _, ty in signature:
        total *= denotation_size(ty, scope)
    return total


def enumerate_full_models(signature, scope: Scope) -> Iterator[KripkeModel]:
    """Every model at the scope, in a fixed deterministic order.

    Intended for small scopes only; callers should bound the total via
    count_full_models first.
    """
    n, m = scope.num_worlds, scope.num_entities
    names = [name for name, _ in signature]
    types = {name: ty for name, ty in signature}
    sizes = [denotation_size(ty, scope) for _, ty in signature]
    for r_bits in range(2 ** (n * n)):
        acc = relation_from_bits(r_bits, n)
        for e_bits in range(2 ** (m * n)):
            exists = exists_from_bits(e_bits, m, n)
            idx = [0] * len(sizes)
            while True:
                constants = {
                    name: index_value(idx[k], types[name], scope)
                    for k, name in enumerate(names)
                }
                yield KripkeModel(scope, acc, exists, constants, dict(types))
                k = len(sizes) - 1
                while k >= 0:
                    idx[k] += 1
                    if idx[k] < sizes[k]:
                        break
                    idx[k] = 0
                    k -= 1
                if k < 0:
                    break


def term_dependencies(term) -> tuple[bool, bool, frozenset]:
    """(uses Box/Diamond, uses the existence table, constants mentioned)."""
    consts = constants_of(term)
    kinds = {type(t) for t in subterms(term)}
    uses_modal = bool(kinds & {Box, Diamond})
    uses_exists = EXISTS_AT in consts or bool(kinds & {ForallA, ExistsA})
    return uses_modal, uses_exists, consts - {EXISTS_AT}


def brute_force_find_model(theory, scope: Scope) -> Optional[KripkeModel]:
    """First model (in enumeration order) satisfying frame flags and axioms.

    This is the independent oracle for the grounder: it relies only on eval.
    Axiom results are memoized on the model components each axiom actually
    depends on, which keeps exhaustive sweeps at unsatisfiable theories cheap.
    """
    n, m = scope.num_worlds, scope.num_entities
    names = [name for name, _ in theory.signature]
    types = dict(theory.signature)
    sizes = [denotation_size(ty, scope) for _, ty in theory.signature]
    deps = [term_dependencies(ax) for ax in theory.axioms]
    caches: list[dict] = [{} for _ in theory.axioms]
    for r_bits in range(2 ** (n * n)):
        acc = relation_from_bits(r_bits, n)
        probe = KripkeModel(scope, acc, tuple(tuple(True for _ in range(n)) for _ in range(m)))
        if not probe.satisfies_frame(theory.frame_flags):
            continue
        for e_bits in range(2 ** (m * n)):
            exists = exists_from_bits(e_bits, m, n)
            idx = [0] * len(sizes)
            while True:
                model = None
                ok = True
                for k, ax in enumerate(theory.axioms):
                    uses_box, uses_exists, consts = deps[k]
                    key = (
                        r_bits if uses_box else 0,
                        e_bits if uses_exists else 0,
                        tuple(idx[j] for j, name in enumerate(names) if name in consts),
                    )
                    hit = caches[k].get(key)
                    if hit is None:
                        if model is None:
                            constants = {
                                name: index_value(idx[j], types[name], scope)
                                for j, name in enumerate(names)
                            }
                            model = KripkeModel(scope, acc, exists, constants, dict(types))
                        hit = mvalid(model, ax)
                        caches[k][key] = hit
                    if not hit:
                        ok = False
                        break
                if ok:
                    if model is None:
                        constants = {
                            name: index_value(idx[j], types[name], scope)
                            for j, name in enumerate(names)
                        }
                        model = KripkeModel(scope, acc, exists, constants, dict(types))
                    return model
                k = len(sizes) - 1
                while k >= 0:
                    idx[k] += 1
                    if idx[k] < sizes[k]:
                        break
                    idx[k] = 0
                    k -= 1
                if k < 0:
                    break
