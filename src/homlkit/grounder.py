"""Bounded model finding: compile a theory at a scope into CNF and solve.

Unknowns are the accessibility relation, the existence table, and one Boolean
per constant "cell": prop-valued cells get one variable per world, individual-
valued cells get selector bits with an exactly-one constraint, and the frame
flags get `theory.frame_clauses` over the relation. ``_layout`` states once
how these decision variables are numbered, 1..d in a fixed order, from the
scope and signature alone: the grounder allocates through it, and a
`GroundProblem`, which is its scope, signature, variable count and clauses,
derives its views and its reader from it. Formulas are grounded by
full expansion of quantifiers over enumerated denotations, then converted to
clauses by a Tseitin transform over hash-consed formula nodes, so identical
inputs always produce identical problems. The transform collects the nodes
the roots need, then numbers and emits them in one pass in ascending id
order: a node's children are older than it, so their literals are known
when it is reached, and each and/or node gets the next variable.

Grounding is evaluation in a symbolic carrier: ``_Grounding`` runs the
closures that the evaluator's compile rules (``semantics._RULES``) build for
the scope, with a value being a tuple of formula node ids. Which subterms
mention no unknown is decided when they are compiled: a maximal such subterm
runs in the concrete carrier over an empty frame, at one world when it is
world-invariant (see `semantics`), and its value is lifted once. Nodes are
created left before right, with no short-circuit, and bound values in
ascending order, which fixes the Tseitin numbering.

Two memos live as long as one ``ground`` call. A binder's value is memoised
on its free variables where that key can repeat (``semantics._memoised``),
and ``_per_grounding`` memoises operations on their arguments: ``lift``,
the position of ``apply``'s argument, ``box``, ``diamond``, and the node
building of ``&``, ``|``, ``->`` and the quantifiers once all their operands
are evaluated. An argument that is a bare bound variable needs neither
``lift`` nor ``apply``: its position is in the env, and ``at`` reads that
entry of the function's tuple. ``_Formulas`` is hash-consed and each of
these is a pure function of the node ids it receives, so a hit returns the
ids that interning would have returned anyway, and the numbering does not
move. Its ``implies`` and ``iff`` build their two-child nodes directly, in
the order and with the folds of ``disj`` and ``conj`` over a pair.

A solver answer reaches a model or a verdict by one path. ``_model`` reads
the answer's status, raising `BudgetExceededError` when the budget ran out,
and decodes the solver's 0/1 list with `GroundProblem.decode`. A problem
builds its reader on its first decode, and reads every later model through
it: the first d bits as one binary numeral, and each part (a world's mask,
existsAt, a constant) cut out of it as a mixed-radix number over its leaves,
world bits of radix 2 or selector rows of radix m. `solve`
answers a problem in one call, `iterate_models` answers each step of one
incremental solver, and `refute` turns the answer to a problem that negates
a goal into a verdict; `find_model` and `check_validity_bounded` ground and
then call them.
"""

from __future__ import annotations

from functools import cached_property, wraps
from itertools import combinations
from typing import Iterator, Optional

from .errors import BudgetExceededError, GroundingError, HomlError, depth_guarded
from .frozen import Frozen
from .logictypes import Fun, Ind, LogicType, Prop, type_order
from .semantics import (
    Countermodel,
    Indeterminate,
    KripkeModel,
    Scope,
    ValidUpToScope,
    _check_closed,
    _Compiler,
    _EvalCtx,
    denotation_size,
    digits,
    holds_at,
    position,
    table_view,
)
from .solver import DEFAULT_CONFLICT_BUDGET, UNKNOWN, UNSAT, Solver, solve_cnf
from .terms import EXISTS_AT, Term
from .theory import Theory, frame_clauses

MAX_CONSTANT_ORDER = 3

_TRUE = 0
_FALSE = 1


class _Formulas:
    """Hash-consed and/or/not/var nodes over CNF decision variables."""

    def __init__(self):
        self.nodes = [("true",), ("false",)]
        self.intern = {("true",): _TRUE, ("false",): _FALSE}

    def _mk(self, node):
        nid = self.intern.get(node)
        if nid is None:
            nid = len(self.nodes)
            self.nodes.append(node)
            self.intern[node] = nid
        return nid

    def var(self, v: int) -> int:
        return self._mk(("var", v))

    def neg(self, a: int) -> int:
        if a == _TRUE:
            return _FALSE
        if a == _FALSE:
            return _TRUE
        node = self.nodes[a]
        if node[0] == "not":
            return node[1]
        return self._mk(("not", a))

    def conj(self, args) -> int:
        out = []
        for a in args:
            if a == _FALSE:
                return _FALSE
            if a != _TRUE:
                out.append(a)
        out = sorted(set(out))
        if not out:
            return _TRUE
        if len(out) == 1:
            return out[0]
        return self._mk(("and", tuple(out)))

    def disj(self, args) -> int:
        out = []
        for a in args:
            if a == _TRUE:
                return _TRUE
            if a != _FALSE:
                out.append(a)
        out = sorted(set(out))
        if not out:
            return _FALSE
        if len(out) == 1:
            return out[0]
        return self._mk(("or", tuple(out)))

    def implies(self, a: int, b: int) -> int:
        """disj([neg(a), b]), without its list, set and sort."""
        a = self.neg(a)
        if a == _TRUE or b == _TRUE:
            return _TRUE
        if a == _FALSE or a == b:
            return b
        if b == _FALSE:
            return a
        return self._mk(("or", (a, b) if a < b else (b, a)))

    def iff(self, a: int, b: int) -> int:
        """conj([implies(a, b), implies(b, a)]), and true when a is b.

        For a other than b, x = implies(a, b) is false only when a is true
        and b false, and then y = implies(b, a) is true, and the other way
        round; nor is x ever y. So of conj's folds only the true ones can
        apply."""
        if a == b:
            return _TRUE
        x, y = self.implies(a, b), self.implies(b, a)
        if x == _TRUE:
            return y
        if y == _TRUE:
            return x
        return self._mk(("and", (x, y) if x < y else (y, x)))


def _per_grounding(op):
    """op memoised on its arguments for one grounding, in its ``ops`` dict,
    keyed by the whole call."""

    @wraps(op)
    def memoised(self, *args):
        key = (op, *args)
        try:
            return self.ops[key]
        except KeyError:
            value = self.ops[key] = op(self, *args)
            return value

    return memoised


def _const_bool(nid: int) -> Optional[bool]:
    if nid == _TRUE:
        return True
    if nid == _FALSE:
        return False
    return None


class GroundProblem(Frozen):
    """A CNF over a scope and a signature, whose decision variables are
    1..d as `_layout` numbers them; every variable above d is a Tseitin
    variable. A problem whose ``num_vars`` is below d raises `HomlError`
    when its layout is first read. To add clauses, build a new problem
    with ``frozen.replace``."""

    scope: Scope
    signature: tuple
    num_vars: int
    clauses: list[list[int]]

    # The layout's views, read-only: ``const_cells`` (each constant's nested
    # cells) and ``meanings`` (v to its name) are new dicts on each read.
    r_vars = property(lambda self: self._checked_layout[0])
    ex_vars = property(lambda self: self._checked_layout[1])
    const_cells = property(lambda self: dict(zip((name for name, _ in self.signature),
                                                 self._checked_layout[2])))
    meanings = property(lambda self: dict(enumerate(self._checked_layout[3], 1)))
    decision_vars = property(lambda self: range(1, len(self._checked_layout[3]) + 1))

    @cached_property
    def _checked_layout(self) -> tuple:
        """`_layout` of the scope and signature, once num_vars covers it."""
        layout = _layout(self.scope, self.signature)
        if self.num_vars < len(layout[3]):
            raise HomlError(f"problem has {self.num_vars} variables, fewer than the "
                            f"{len(layout[3])} decision variables of its scope and signature")
        return layout

    def decode(self, model: list[int]) -> KripkeModel:
        """The Kripke model of a solver model: a list of num_vars 0/1 values,
        variable v at index v - 1. Raises `HomlError` on a list of another
        length, on a value that it reads and that is not 0 or 1, and on an
        individual's selector row that has no bit or two bits set; the
        model satisfies the clauses, so nothing else is checked.

        Each part is a mixed-radix number over its leaves, read from its
        cell bits, first most significant: world w's mask from ``r_vars[w]``,
        existsAt's from ``ex_vars``, each constant's position from its cells.
        A leaf is a world bit (radix 2) or an individual's selector row
        (radix m), and a part's leaves are all of one kind. The reader
        (``_reader``) is built on the first call: bits 1..d are read as one
        binary numeral, and each part is cut out of it by shift and mask."""
        d, parts, names, types = self._reader
        if len(model) != self.num_vars:
            raise HomlError(f"solver model has {len(model)} values, "
                            f"not the problem's {self.num_vars} variables")
        try:
            bits = int(bytes(model[:d]).translate(_BINARY), 2)
        except (TypeError, ValueError):
            raise _not_binary(model, d) from None
        values = [bits >> shift & mask if not rows
                  else _selected(bits >> shift & mask, rows, self.scope.num_entities)
                  for shift, mask, rows in parts]
        n = self.scope.num_worlds
        return KripkeModel(self.scope, tuple(values[:n]), values[n],
                           dict(zip(names, values[n + 1:])), types)

    @cached_property
    def _reader(self) -> tuple:
        """(d, parts, names, types), built on the first decode. Part k is
        ``(shift, mask, rows)``: its bits are ``bits >> shift & mask`` of
        the numeral of bits 1..d, and ``rows`` counts its selector rows, 0
        for world bits."""
        *_, meanings, sizes = self._checked_layout
        shift = d = len(meanings)
        parts = []
        for size, rows in sizes:
            shift -= size
            parts.append((shift, (1 << size) - 1, len(rows)))
        names = tuple(name for name, _ in self.signature)
        return d, tuple(parts), names, dict(self.signature)


def _layout(scope: Scope, signature: tuple) -> tuple:
    """The decision variables of the problems over a scope and signature:
    ``(r_vars, ex_vars, cells, meanings, parts)``.

    They are 1..d, in one order: the relation row by row (``r_vars[w][v]``
    is r(w,v)), then existsAt entity by entity (``ex_vars[e][w]`` is
    existsAt(e,w)), then each constant's cells depth-first in signature
    order (``cells[k]`` for signature entry k). A prop's cells are one
    variable per world, an individual's a selector row of one variable per
    entity, and a table's its entries' cells in turn. ``meanings[v - 1]``
    names variable v. ``parts`` gives each part of a model, in the same
    order (n world masks, existsAt, each constant), as ``(size, rows)``:
    its variable count and its selector rows, none for world bits."""
    n, m = scope.num_worlds, scope.num_entities
    meanings = []

    def new(labels) -> tuple:
        first = len(meanings) + 1
        meanings.extend(labels)
        return tuple(range(first, len(meanings) + 1))

    def alloc(name: str, ty: LogicType, args: tuple, rows: list):
        label = f"{name}({','.join(map(str, args))})" if args else name
        if ty == Prop:
            return new(f"{label}@w{w}" for w in range(n))
        if ty == Ind:
            rows.append(new(f"{label}=e{e}" for e in range(m)))
            return rows[-1]
        dom = denotation_size(ty.domain, scope)
        return tuple(alloc(name, ty.codomain, args + (j,), rows) for j in range(dom))

    r_vars = tuple(new(f"r(w{w},w{v})" for v in range(n)) for w in range(n))
    ex_vars = tuple(new(f"{EXISTS_AT}(e{e},w{w})" for w in range(n)) for e in range(m))
    cells, parts = [], [(n, ())] * n + [(n * m, ())]
    for name, ty in signature:
        if type_order(ty) > MAX_CONSTANT_ORDER:
            raise GroundingError(
                f"constant {name!r} has unsupported type {ty} beyond order {MAX_CONSTANT_ORDER}"
            )
        start, rows = len(meanings), []
        cells.append(alloc(name, ty, (), rows))
        parts.append((len(meanings) - start, tuple(rows)))
    return r_vars, ex_vars, tuple(cells), tuple(meanings), tuple(parts)


def exactly(lits, k: int) -> list[list[int]]:
    """Clauses that hold when exactly k of the m literals are true, for
    0 <= k <= m: at least k (no m - k + 1 of them all false), then at most
    k (no k + 1 all true). For k = 1 these are the literals' clause, then
    each pair's."""
    m = len(lits)
    return ([list(combo) for combo in combinations(lits, m - k + 1)]
            + [[-v for v in combo] for combo in combinations(lits, k + 1)])


# Bytes 0 and 1 to the digits "0" and "1", any other to "2", which no base-2
# numeral holds.
_BINARY = b"01" + b"2" * 254


def _selected(x: int, rows: int, m: int) -> int:
    """The base-m number whose digits are the selected entries of ``rows``
    one-hot rows of m bits in x, the first row most significant: a row
    whose bit m-1-e alone is set selects e."""
    full = (1 << m) - 1
    acc = 0
    for shift in range(m * (rows - 1), -1, -m):
        row = x >> shift & full
        if not row or row & (row - 1):
            raise HomlError("selector bits violate the exactly-one constraint")
        acc = acc * m + m - row.bit_length()
    return acc


def _not_binary(model, d: int) -> HomlError:
    """The error naming the first of the model's d first values that is not
    0 or 1."""
    for i in range(d):
        try:
            ok = bytes((model[i],)) in (b"\0", b"\1")
        except (TypeError, ValueError):
            ok = False
        if not ok:
            return HomlError(f"solver model value {model[i]!r} of variable {i + 1} is not 0 or 1")
    return HomlError("solver model values are not all 0 or 1")


class _Grounding:
    """A theory at a scope as CNF unknowns, and the symbolic carrier that
    grounds its formulas over them."""

    def __init__(self, theory: Theory, scope: Scope):
        if theory.definitions:
            raise GroundingError("theory must be elaborated before grounding")
        if any(name == EXISTS_AT for name, _ in theory.signature):
            raise GroundingError(f"{EXISTS_AT!r} is reserved for the existence table "
                                 "and cannot be declared")
        self.theory = theory
        self.scope = scope
        self.n = scope.num_worlds
        self.m = scope.num_entities
        self.f = _Formulas()
        self.clauses: list[list[int]] = []
        self.compiler = _Compiler(scope)
        # Model-free subterms run in the concrete carrier over an empty frame.
        self.concrete = _EvalCtx(KripkeModel(scope, (0,) * self.n, 0))
        # The binder memo and the operation memo live as long as this grounding.
        self.memo: dict = {}
        self.ops: dict = {}

        self.r_vars, self.ex_vars, cells, meanings, parts = _layout(scope, theory.signature)
        self.num_vars = len(meanings)
        for _, rows in parts:  # each selector row has exactly one bit set
            for sel in rows:
                self.clauses.extend(exactly(sel, 1))
        self.const_sym: dict[str, object] = {}
        for (name, _), const_cells in zip(theory.signature, cells):
            if name in self.const_sym:  # formulas would read the last one only
                raise GroundingError(f"constant {name!r} is declared more than once")
            self.const_sym[name] = self._cells_to_sym(const_cells)
        # existsAt viewed as an unknown Fun(Ind, Prop) table.
        self.const_sym[EXISTS_AT] = self._cells_to_sym(self.ex_vars)
        self.clauses.extend(frame_clauses(theory.frame_flags, self.r_vars))

    def _cells_to_sym(self, cells):
        """The symbolic value of nested cells: each variable's formula node."""
        if type(cells) is int:
            return self.f.var(cells)
        return tuple(map(self._cells_to_sym, cells))

    # -- symbolic values ---------------------------------------------------
    # A symbolic value of a table type is a tuple of its entries' symbolic
    # values, a prop's world bits being formula ids; an Ind is a flat tuple
    # of m one-hot formula ids. A leaf is an int, so ``_cells_to_sym``,
    # ``sym_values_eq`` and ``mux`` walk a value by its nesting alone; only
    # ``lift``, ``concrete_index`` and ``sym_eq``, which need a position's
    # digits, read the type's ``table_view``.

    @_per_grounding
    def lift(self, i: int, ty: LogicType):
        """The constant symbolic value at position i of ty."""
        if ty is bool:
            return (_FALSE, _TRUE)[i]
        view = table_view(ty, self.scope)
        if view is None:
            return tuple(_TRUE if e == i else _FALSE for e in range(self.m))
        length, base, entry = view
        return tuple(self.lift(d, entry) for d in digits(i, length, base))

    def concrete_index(self, sv, ty: LogicType) -> Optional[int]:
        """The position of a symbolic value whose cells are all constant,
        else None."""
        if ty is bool:
            return _const_bool(sv)
        view = table_view(ty, self.scope)
        if view is None:
            bits = [_const_bool(cell) for cell in sv]
            return bits.index(True) if None not in bits and bits.count(True) == 1 else None
        found = []
        for sub in sv:
            d = self.concrete_index(sub, view[2])
            if d is None:
                return None
            found.append(d)
        return position(found, view[1])

    arg_index = _per_grounding(concrete_index)

    def sym_eq(self, sv, ty: LogicType, i: int) -> int:
        """Formula: the symbolic value equals the i-th enumerated value of ty."""
        if ty is bool:
            return sv if i else self.f.neg(sv)
        view = table_view(ty, self.scope)
        if view is None:
            return sv[i]
        length, base, entry = view
        return self.f.conj(
            [self.sym_eq(sub, entry, d) for sub, d in zip(sv, digits(i, length, base))]
        )

    def sym_values_eq(self, a, b) -> int:
        """Formula: two symbolic values of one type are equal."""
        if type(a) is int:
            return self.f.iff(a, b)
        return self.f.conj([self.sym_values_eq(x, y) for x, y in zip(a, b)])

    def mux(self, branches):
        """Symbolic value: the value of the branch whose condition holds."""
        first = branches[0][1]
        if type(first) is int:
            return self.f.disj([self.f.conj([cond, sv]) for cond, sv in branches])
        return tuple(
            self.mux([(cond, sv[k]) for cond, sv in branches]) for k in range(len(first))
        )

    # -- the symbolic carrier of the compiled rules --------------------------

    @depth_guarded
    def eval(self, root: Term):
        """The symbolic value of a root, compiled at this scope; a root must
        be closed."""
        _check_closed(root, GroundingError)
        return self.compiler(root)(self, [])

    def model_free(self, code, ty, env):
        return self.lift(code(self.concrete, env), ty)

    def const(self, name: str):
        sym = self.const_sym.get(name)
        if sym is None:
            raise GroundingError(f"constant {name!r} is not in the signature")
        return sym

    def at(self, fn_sv, j: int, fn_ty: Fun, divs, base: int):
        return fn_sv[j]

    def apply(self, fn_sv, arg_sv, fn_ty: Fun, divs, base: int):
        idx = self.arg_index(arg_sv, fn_ty.domain)
        if idx is not None:
            return fn_sv[idx]
        branches = [(self.sym_eq(arg_sv, fn_ty.domain, j), fn_sv[j]) for j in range(len(divs))]
        return self.mux(branches)

    def _rows(self, size: int, body, env: list) -> tuple:
        """The body's value for each value of the bound variable, in order."""
        rows = []
        for j in range(size):
            env.append(j)
            rows.append(body(self, env))
            env.pop()
        return tuple(rows)

    def lam(self, length, base, body, env):
        return self._rows(length, body, env)

    def not_(self, a):
        return tuple(map(self.f.neg, a))

    # The right side is always evaluated, after the left, and then the nodes
    # are built.

    def and_(self, a, right, env):
        return self.fold("conj", (a, right(self, env)))

    def or_(self, a, right, env):
        return self.fold("disj", (a, right(self, env)))

    def implies(self, a, right, env):
        return self.implies_nodes(a, right(self, env))

    @_per_grounding
    def fold(self, op: str, rows: tuple):
        """Each world's conj or disj (op) of the rows' bits at it."""
        return tuple(map(getattr(self.f, op), zip(*rows)))

    @_per_grounding
    def implies_nodes(self, a, b):
        return tuple(map(self.f.implies, a, b))

    def iff(self, a, b):
        return tuple(map(self.f.iff, a, b))

    @_per_grounding
    def box(self, a):
        f = self.f
        return tuple(
            f.conj([f.implies(f.var(r), x) for r, x in zip(row, a)]) for row in self.r_vars
        )

    @_per_grounding
    def diamond(self, a):
        f = self.f
        return tuple(
            f.disj([f.conj([f.var(r), x]) for r, x in zip(row, a)]) for row in self.r_vars
        )

    def forall(self, size, body, env):
        return self.fold("conj", self._rows(size, body, env))

    def exists(self, size, body, env):
        return self.fold("disj", self._rows(size, body, env))

    def equal(self, a, b):
        return (self.sym_values_eq(a, b),) * self.n

    # -- Tseitin -------------------------------------------------------------

    def assert_roots(self, roots: list[int]) -> None:
        """Add clauses forcing every root formula to be true."""
        nodes = self.f.nodes
        needed = set()
        stack = list(roots)
        while stack:
            nid = stack.pop()
            if nid in needed or nid in (_TRUE, _FALSE):
                continue
            needed.add(nid)
            node = nodes[nid]
            if node[0] == "not":
                stack.append(node[1])
            elif node[0] in ("and", "or"):
                stack.extend(node[1])

        # One ascending pass numbers and emits: a node's children are older
        # than it, so their literals are known when it is reached. Only
        # and/or nodes get a Tseitin variable.
        clauses = self.clauses
        num_vars = self.num_vars
        lit_of = [0] * len(nodes)  # by node id; 0 for a node not needed
        child_lit = lit_of.__getitem__
        for nid in sorted(needed):
            node = nodes[nid]
            kind = node[0]
            if kind == "var":
                lit_of[nid] = node[1]
            elif kind == "not":
                lit_of[nid] = -lit_of[node[1]]
            else:
                num_vars += 1
                t = lit_of[nid] = num_vars
                child_lits = list(map(child_lit, node[1]))
                if kind == "and":
                    for cl in child_lits:
                        clauses.append([-t, cl])
                    clauses.append([t] + [-cl for cl in child_lits])
                else:
                    for cl in child_lits:
                        clauses.append([t, -cl])
                    clauses.append([-t] + child_lits)
        self.num_vars = num_vars
        for r in roots:
            if r == _TRUE:
                continue
            if r == _FALSE:
                clauses.append([])
                continue
            clauses.append([lit_of[r]])

    def to_problem(self) -> GroundProblem:
        return GroundProblem(self.scope, self.theory.signature, self.num_vars, self.clauses)


def ground(theory: Theory, scope: Scope, negated_goal: Optional[Term] = None) -> GroundProblem:
    """Compile frame flags + globally-valid axioms (+ optionally the negation
    of a goal at some world) into a GroundProblem."""
    return _ground(theory, scope, negated_goal).to_problem()


def _ground(theory: Theory, scope: Scope, negated_goal: Optional[Term] = None) -> _Grounding:
    """The grounding, its roots asserted, that `ground` reads its problem from."""
    g = _Grounding(theory, scope)
    roots = []
    for ax in theory.axioms:
        if ax.ty != Prop:
            raise GroundingError("axioms must be prop-typed")
        roots.extend(g.eval(ax))
    if negated_goal is not None:
        if negated_goal.ty != Prop:
            raise GroundingError("goal must be prop-typed")
        bits = g.eval(negated_goal)
        roots.append(g.f.disj([g.f.neg(b) for b in bits]))
    g.assert_roots(roots)
    return g


def _model(problem: GroundProblem, answer: tuple, budget: int) -> Optional[KripkeModel]:
    """Read a solver answer ``(status, model, conflicts)``: the decoded
    model, or None when the problem has none. Raises `BudgetExceededError`,
    carrying the conflicts reached, when the budget ran out first."""
    status, model, conflicts = answer
    if status == UNKNOWN:
        raise BudgetExceededError(budget, conflicts)
    if status == UNSAT:
        return None
    return problem.decode(model)


def solve(problem: GroundProblem,
          budget: int = DEFAULT_CONFLICT_BUDGET) -> Optional[KripkeModel]:
    """The least model of the problem, decoded, or None when it has none
    (exhaustive at its scope). Raises `BudgetExceededError` when the budget
    runs out first."""
    return _model(problem, solve_cnf(problem.num_vars, problem.clauses, budget), budget)


def find_model(theory: Theory, scope: Scope,
               budget: int = DEFAULT_CONFLICT_BUDGET) -> Optional[KripkeModel]:
    """A model of frame flags plus all axioms, or None (exhaustive at scope)."""
    return solve(ground(theory, scope), budget)


def refute(problem: GroundProblem, goal: Term, budget: int = DEFAULT_CONFLICT_BUDGET):
    """The verdict on a problem that negates the goal: ValidUpToScope when it
    has no model, else a Countermodel at the first world where the model
    falsifies the goal, or Indeterminate when the budget runs out first."""
    try:
        model = solve(problem, budget)
    except BudgetExceededError:
        return Indeterminate(f"conflict budget {budget} exhausted")
    if model is None:
        return ValidUpToScope(problem.scope)
    for w in range(problem.scope.num_worlds):
        if not holds_at(model, goal, w):
            return Countermodel(model, w)
    raise HomlError("decoded countermodel does not falsify the goal")


def check_validity_bounded(theory: Theory, goal: Term, scope: Scope,
                           budget: int = DEFAULT_CONFLICT_BUDGET):
    """ValidUpToScope if no axiom-model falsifies the goal anywhere in scope,
    else a Countermodel with the witnessing world; see `refute`."""
    return refute(ground(theory, scope, negated_goal=goal), goal, budget)


def iterate_models(problem: GroundProblem, budget: int = DEFAULT_CONFLICT_BUDGET,
                   limit: Optional[int] = None) -> Iterator[KripkeModel]:
    """Decode the models of a ground problem that differ on the decision
    variables, in lexicographic order of those variables.

    One solver finds them all: `Solver.block` excludes each model's values
    of the decision variables 1..d, which `_layout` numbers first, and the
    search resumes from that model. The problem itself is left unchanged."""
    d = len(problem.decision_vars)
    if limit is not None and limit < 1:
        return
    solver = Solver(problem.num_vars, problem.clauses)
    produced = 0
    while limit is None or produced < limit:
        model = _model(problem, solver.solve(budget), budget)
        if model is None:
            return
        yield model
        produced += 1
        solver.block(d)


def enumerate_models(theory: Theory, scope: Scope, limit: Optional[int] = None,
                     budget: int = DEFAULT_CONFLICT_BUDGET) -> Iterator[KripkeModel]:
    """All models at scope (up to limit) that differ on the decision
    variables, in lexicographic order; see `iterate_models`."""
    yield from iterate_models(ground(theory, scope), budget=budget, limit=limit)


def export_dimacs(problem: GroundProblem) -> bytes:
    """Standard DIMACS CNF with variable meanings as leading comment lines."""
    lines = [f"c {v} {meaning}" for v, meaning in problem.meanings.items()]
    lines.append(f"p cnf {problem.num_vars} {len(problem.clauses)}")
    for clause in problem.clauses:
        lines.append(" ".join(map(str, (*clause, 0))))
    return ("\n".join(lines) + "\n").encode("utf-8")
