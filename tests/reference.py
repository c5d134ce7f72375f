"""Reference semantics and the brute-force model oracle, for tests only.

``_eval`` is an evaluator written independently of the library's rule table
and carriers: one ``isinstance`` ladder over the node kinds, on positions
and world masks, with its own model context. The oracle tests check the
library (grounder, solver, rule table, both carriers) against it, so no
oracle compares the library's evaluator with itself. It shares with the
library only what defines a value: ``KripkeModel`` (whose ``positions`` it
reads unchecked), ``denotation_size`` and ``position`` (a value is its
position in its type's enumeration), and ``leibniz_shape``.

``brute_force_find_model`` visits every candidate model of a signature in a
fixed order and checks the axioms with this ``mvalid``.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from homlkit.errors import HomlError
from homlkit.logictypes import LogicType
from homlkit.semantics import (
    KripkeModel,
    Scope,
    denotation_size,
    leibniz_shape,
    position,
)
from homlkit.terms import (
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
    subterms,
)


class _EvalCtx:
    """A model in integer form: constant positions and world masks (bit
    n-1-w for world w)."""

    def __init__(self, model: KripkeModel):
        self.n = model.scope.num_worlds
        self.scope = model.scope
        self.full = (1 << self.n) - 1
        self.sizes: dict[LogicType, int] = {}
        self.leib_cache: dict[int, tuple] = {}
        self.acc_masks = [position(row, 2) for row in model.accessibility]
        self.exists_masks = [position(row, 2) for row in model.exists_at]
        self.const_idx = dict(model.positions)
        self.const_idx[EXISTS_AT] = position(self.exists_masks, self.full + 1)

    def size(self, ty: LogicType) -> int:
        s = self.sizes.get(ty)
        if s is None:
            s = self.sizes[ty] = denotation_size(ty, self.scope)
        return s


def _ctx(model: KripkeModel) -> _EvalCtx:
    """The model's reference context, built once per model."""
    ctx = model.__dict__.get("_reference_ctx")
    if ctx is None:
        ctx = model.__dict__["_reference_ctx"] = _EvalCtx(model)
    return ctx


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


def eval_term(model: KripkeModel, env: list[int], term: Term) -> int:
    """The position of term's value, env[k] the position of de Bruijn index
    k's value; a closed prop formula's is its world mask (bit n-1-w set iff
    true at w)."""
    return _eval(term, env[::-1], _ctx(model))


def holds_at(model: KripkeModel, formula: Term, world: int) -> bool:
    """Truth of a closed prop formula at one world."""
    n = model.scope.num_worlds
    assert 0 <= world < n, world
    return bool((eval_term(model, [], formula) >> (n - 1 - world)) & 1)


def mvalid(model: KripkeModel, formula: Term) -> bool:
    """Global validity: truth at every world of the model."""
    ctx = _ctx(model)
    return _eval(formula, [], ctx) == ctx.full


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


def _candidates(signature, scope: Scope, frame_flags=frozenset()):
    """(r_bits, relation, e_bits, existence, positions) of every candidate
    model in the fixed enumeration order: relations, then existence tables,
    then the constants' positions with the last constant fastest. Relations
    that violate the frame flags are skipped."""
    n, m = scope.num_worlds, scope.num_entities
    ranges = [range(denotation_size(ty, scope)) for _, ty in signature]
    everyone = tuple(tuple(True for _ in range(n)) for _ in range(m))
    for r_bits in range(2 ** (n * n)):
        relation = relation_from_bits(r_bits, n)
        if not KripkeModel(scope, relation, everyone).satisfies_frame(frame_flags):
            continue
        for e_bits in range(2 ** (m * n)):
            existence = exists_from_bits(e_bits, m, n)
            for positions in itertools.product(*ranges):
                yield r_bits, relation, e_bits, existence, positions


def _candidate_model(signature, scope: Scope, relation, existence, positions) -> KripkeModel:
    by_name = {name: p for (name, _), p in zip(signature, positions)}
    return KripkeModel(scope, relation, existence, by_name, dict(signature))


def enumerate_full_models(signature, scope: Scope) -> Iterator[KripkeModel]:
    """Every model at the scope, in a fixed deterministic order.

    Intended for small scopes only; callers should bound the total via
    count_full_models first.
    """
    for _, relation, _, existence, positions in _candidates(signature, scope):
        yield _candidate_model(signature, scope, relation, existence, positions)


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
    signature = theory.signature
    names = [name for name, _ in signature]
    deps = [term_dependencies(ax) for ax in theory.axioms]
    caches: list[dict] = [{} for _ in theory.axioms]
    for r_bits, relation, e_bits, existence, positions in _candidates(
            signature, scope, theory.frame_flags):
        model = None
        for ax, (uses_box, uses_exists, consts), cache in zip(theory.axioms, deps, caches):
            key = (
                r_bits if uses_box else 0,
                e_bits if uses_exists else 0,
                tuple(p for p, name in zip(positions, names) if name in consts),
            )
            hit = cache.get(key)
            if hit is None:
                if model is None:
                    model = _candidate_model(signature, scope, relation, existence, positions)
                hit = cache[key] = mvalid(model, ax)
            if not hit:
                break
        else:
            if model is None:
                model = _candidate_model(signature, scope, relation, existence, positions)
            return model
    return None
