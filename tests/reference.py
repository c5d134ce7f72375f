"""Reference semantics and the brute-force model oracle, for tests only.

``_eval`` is an evaluator written independently of the library's rule table
and carriers: one ``isinstance`` ladder over the node kinds, on positions
and world masks, with its own model context. The oracle tests check the
library (grounder, solver, rule table, both carriers) against it, so no
oracle compares the library's evaluator with itself. It shares with the
library only what defines a value: ``KripkeModel`` (whose fields it reads
unchecked), ``denotation_size``, ``digits`` and ``position`` (a value is its
position in its type's enumeration), and ``leibniz_shape``.

``expand_sugar`` is the textbook expansion of the sugar nodes into core
terms; the library keeps the nodes and gives them their meaning through its
compile rules, and the oracle tests check the two against each other.

``TextbookSolver`` is the library's solver with the textbook clause loader:
each clause on its own is range-checked, de-duplicated and simplified at
decision level 0, as MiniSat's ``addClause`` does. The solver tests check
that ``Solver.add_clauses`` builds the same watch lists, trail and values.

``ListFormulas`` is the grounder's formula store with ``implies`` and
``iff`` built through the list-based ``disj`` and ``conj``, as the textbook
encodings ¬a ∨ b and (¬a ∨ b) ∧ (¬b ∨ a). The grounder tests check that
the store's binary paths make the same nodes in the same order.

``decode`` is ``GroundProblem.decode`` as a recursion over each
constant's cells: a table's entries in base |entry|, a world bit 0/1, an
individual its one selector bit. The grounder tests check the library's
reader, which cuts each part out of one binary numeral, against it.

``brute_force_find_model`` visits every candidate model of a signature in a
fixed order, keeps the relations that ``frame_holds`` (the textbook frame
conditions over the relation's rows) accepts, and checks the axioms with
this ``mvalid``. ``random_models`` draws models at random, and
``bundle_variants`` loads every variant of every bundle, for sweeps over all
of them.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from homlkit.errors import HomlError
from homlkit.grounder import _TRUE, _Formulas
from homlkit.logictypes import Fun, Ind, LogicType, Prop
from homlkit.semantics import (
    KripkeModel,
    Scope,
    denotation_size,
    digits,
    leibniz_shape,
    position,
)
from homlkit.solver import Solver
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
    children,
    constants_of,
    rebuild,
    shift,
    subterms,
)
from homlkit.theories import BUNDLE_IDS, Bundle, load_bundle


class TextbookSolver(Solver):
    """The solver, loading its clauses one at a time."""

    def add_clauses(self, clauses):
        for clause in clauses:
            self._add_one(clause)

    def _add_one(self, clause):
        lits = list(dict.fromkeys(clause))
        num_vars = self.num_vars
        for lit in lits:
            if lit == 0 or abs(lit) > num_vars:
                raise ValueError(f"literal {lit} out of range")
        if self._trail_lim:
            self._backjump(0)
        if not self._ok or len(set(map(abs, lits))) < len(lits):
            return  # already unsatisfiable, or a tautology
        if self._trail:
            value = self._value
            if any(value[lit] == 1 for lit in lits):
                return  # satisfied at level 0
            lits = [lit for lit in lits if value[lit] == 0]
        if not lits:
            self._ok = False
        elif len(lits) == 1:
            self._assign(lits[0], None)
        else:
            self._watches[lits[0]].append(lits)
            self._watches[lits[1]].append(lits)


class ListFormulas(_Formulas):
    """The formula store, its binary connectives built from lists."""

    def implies(self, a: int, b: int) -> int:
        return self.disj([self.neg(a), b])

    def iff(self, a: int, b: int) -> int:
        if a == b:
            return _TRUE
        return self.conj([self.disj([self.neg(a), b]), self.disj([self.neg(b), a])])


def decode(problem, model: list[int]) -> KripkeModel:
    """The Kripke model of a solver model, read cell by cell: world w's mask
    from ``r_vars[w]``, existsAt's from ``ex_vars`` and each constant's
    position from its cells, first bit most significant."""
    bit = lambda v: model[v - 1]
    scope = problem.scope
    acc = tuple(position(map(bit, row), 2) for row in problem.r_vars)
    exists = position([bit(v) for row in problem.ex_vars for v in row], 2)
    positions = {name: _position(problem.const_cells[name], ty, bit, scope)
                 for name, ty in problem.signature}
    return KripkeModel(scope, acc, exists, positions, dict(problem.signature))


def _position(cells, ty: LogicType, bit, scope: Scope) -> int:
    """The position of the ty-value that ``bit`` gives a constant's cells."""
    if isinstance(ty, Fun):
        base = denotation_size(ty.codomain, scope)
        return position([_position(sub, ty.codomain, bit, scope) for sub in cells], base)
    if ty == Prop:
        return position(map(bit, cells), 2)
    chosen = [e for e, v in enumerate(cells) if bit(v)]
    if len(chosen) != 1:
        raise HomlError("selector bits violate the exactly-one constraint")
    return chosen[0]


class _EvalCtx:
    """A model in integer form: constant positions and world masks (bit
    n-1-w for world w)."""

    def __init__(self, model: KripkeModel):
        self.n = model.scope.num_worlds
        self.scope = model.scope
        self.full = (1 << self.n) - 1
        self.sizes: dict[LogicType, int] = {}
        self.leib_cache: dict[int, tuple] = {}
        self.acc_masks = list(model.accessibility)
        self.exists_masks = digits(model.exists_at, self.scope.num_entities, self.full + 1)
        self.const_idx = dict(model.positions)
        self.const_idx[EXISTS_AT] = model.exists_at

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


def expand_sugar(term: Term) -> Term:
    """Bottom-up expansion of the sugar nodes: an actualist quantifier ranges
    over Ind guarded by existsAt, and Leibniz equality says that every
    property of the left side holds of the right side."""
    kids = [expand_sugar(k) for k in children(term)]
    if isinstance(term, (ForallA, ExistsA)):
        guard = App(Const(EXISTS_AT, Fun(Ind, Prop)), Var(0, Ind, term.hint))
        if isinstance(term, ForallA):
            return ForallP(Ind, Implies(guard, kids[0]), term.hint)
        return ExistsP(Ind, And(guard, kids[0]), term.hint)
    if isinstance(term, LeibnizEq):
        left, right = shift(kids[0], 1), shift(kids[1], 1)
        qty = Fun(term.left.ty, Prop)
        q = Var(0, qty, "q")
        return ForallP(qty, Implies(App(q, left), App(q, right)), "q")
    return rebuild(term, kids)


# ---------------------------------------------------------------------------
# Exhaustive model enumeration (the semantic-side oracle)

def relation_from_bits(bits: int, n: int) -> tuple[tuple[bool, ...], ...]:
    """The rows of a relation: ``r[w][w2]`` iff w sees w2."""
    return tuple(tuple(bool((bits >> (w * n + w2)) & 1) for w2 in range(n)) for w in range(n))


def exists_from_bits(bits: int, m: int, n: int) -> tuple[tuple[bool, ...], ...]:
    """The rows of an existence table: ``x[e][w]`` iff entity e exists at w."""
    return tuple(tuple(bool((bits >> (e * n + w)) & 1) for w in range(n)) for e in range(m))


def frame_holds(r, flags) -> bool:
    """The textbook frame conditions on a relation's rows, written apart
    from the library's clause templates."""
    n = len(r)
    if "refl" in flags and any(not r[w][w] for w in range(n)):
        return False
    if "symm" in flags and any(r[w][v] and not r[v][w] for w in range(n) for v in range(n)):
        return False
    if "trans" in flags and any(r[u][v] and r[v][w] and not r[u][w]
                                for u in range(n) for v in range(n) for w in range(n)):
        return False
    return True


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
    that violate the frame flags (``frame_holds``) are skipped."""
    n, m = scope.num_worlds, scope.num_entities
    ranges = [range(denotation_size(ty, scope)) for _, ty in signature]
    for r_bits in range(2 ** (n * n)):
        relation = relation_from_bits(r_bits, n)
        if not frame_holds(relation, frame_flags):
            continue
        for e_bits in range(2 ** (m * n)):
            existence = exists_from_bits(e_bits, m, n)
            for positions in itertools.product(*ranges):
                yield r_bits, relation, e_bits, existence, positions


def _candidate_model(signature, scope: Scope, relation, existence, positions) -> KripkeModel:
    """The model of a relation's and an existence table's rows: a row of
    world bits is a prop's table, so its position is the world mask."""
    by_name = {name: p for (name, _), p in zip(signature, positions)}
    masks = [position(row, 2) for row in existence]
    return KripkeModel(scope, tuple(position(row, 2) for row in relation),
                       position(masks, 1 << scope.num_worlds), by_name, dict(signature))


def enumerate_full_models(signature, scope: Scope) -> Iterator[KripkeModel]:
    """Every model at the scope, in a fixed deterministic order.

    Intended for small scopes only; callers should bound the total via
    count_full_models first.
    """
    for _, relation, _, existence, positions in _candidates(signature, scope):
        yield _candidate_model(signature, scope, relation, existence, positions)


def random_models(signature, scope: Scope, rng, count: int) -> Iterator[KripkeModel]:
    """``count`` models at the scope with every component drawn at random."""
    n, m = scope.num_worlds, scope.num_entities
    for _ in range(count):
        positions = [rng.randrange(denotation_size(ty, scope)) for _, ty in signature]
        yield _candidate_model(signature, scope,
                               relation_from_bits(rng.getrandbits(n * n), n),
                               exists_from_bits(rng.getrandbits(m * n), m, n), positions)


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


def bundle_variants() -> Iterator[Bundle]:
    """Every variant of every bundle, in manifest order."""
    for bundle_id in BUNDLE_IDS:
        entry = load_bundle(bundle_id).manifest
        keys = entry.get("params") or {}
        for variant in entry["files"]:
            yield load_bundle(bundle_id, **dict(zip(keys, variant.split(":"))))
