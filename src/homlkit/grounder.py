"""Bounded model finding: compile a theory at a scope into CNF and solve.

Unknowns are the accessibility relation, the existence table, and one Boolean
per constant "cell": prop-valued cells get one variable per world, individual-
valued cells get selector bits with an exactly-one constraint. Formulas are
grounded by full expansion of quantifiers over enumerated denotations, then
converted to clauses by a Tseitin transform over hash-consed formula nodes, so
identical inputs always produce identical problems.

Grounding is evaluation in a symbolic carrier: ``_Grounding`` runs the
closures that the evaluator's compile rules (``semantics._RULES``) build for
the scope, with a value being a tuple of formula node ids. Which subterms
mention no unknown is decided when they are compiled: a maximal such subterm
runs in the concrete carrier over an empty frame, and its value is lifted
once. Nodes are created left before right, with no short-circuit, and bound
values in ascending order, which fixes the Tseitin numbering. A binder's
value is memoised on its free variables for one ``ground`` call; a hit
returns the node ids that interning would have returned anyway, so the
numbering does not move.

A solver answer reaches a model or a verdict by one path. ``_model`` reads
the answer's status, raising `BudgetExceededError` when the budget ran out,
and decodes the solver's 0/1 list with `GroundProblem.decode`. `solve`
answers a problem in one call, `iterate_models` answers each step of one
incremental solver, and `refute` turns the answer to a problem that negates
a goal into a verdict; `find_model` and `check_validity_bounded` ground and
then call them.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence

from .errors import BudgetExceededError, GroundingError, HomlError, depth_guarded
from .logictypes import Fun, Ind, LogicType, Prop, type_order
from .semantics import (
    Countermodel,
    Indeterminate,
    KripkeModel,
    Scope,
    ValidUpToScope,
    _Compiler,
    _EvalCtx,
    digits,
    holds_at,
    position,
    table_view,
)
from .solver import DEFAULT_CONFLICT_BUDGET, UNKNOWN, UNSAT, Solver, solve_cnf
from .terms import EXISTS_AT, EXISTS_AT_TYPE, Term
from .theory import Theory

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
        return self.disj([self.neg(a), b])

    def iff(self, a: int, b: int) -> int:
        if a == b:
            return _TRUE
        return self.conj([self.disj([self.neg(a), b]), self.disj([self.neg(b), a])])


def _const_bool(nid: int) -> Optional[bool]:
    if nid == _TRUE:
        return True
    if nid == _FALSE:
        return False
    return None


@dataclass(frozen=True)
class GroundProblem:
    """A CNF with decode information back to Kripke model components.

    ``ground`` stores every field but ``clauses`` as a tuple or a read-only
    mapping; to add clauses, build a new problem with ``dataclasses.replace``.
    """

    scope: Scope
    num_vars: int
    clauses: list[list[int]]
    meanings: Mapping[int, str]
    decision_vars: Sequence[int]
    r_vars: Sequence[Sequence[int]]
    ex_vars: Sequence[Sequence[int]]
    const_cells: Mapping[str, object]
    signature: tuple

    def decode(self, model: list[int]) -> KripkeModel:
        """The Kripke model of a solver model: a list of num_vars 0/1 values,
        variable v at index v - 1. The model satisfies the clauses, so only
        the selector bits of an individual are checked (see `_position`)."""
        acc = tuple([tuple([model[v - 1] == 1 for v in row]) for row in self.r_vars])
        exists = tuple([tuple([model[v - 1] == 1 for v in row]) for row in self.ex_vars])
        positions = {name: _position(self.const_cells[name], ty, model, self.scope)
                     for name, ty in self.signature}
        return KripkeModel(self.scope, acc, exists, positions, dict(self.signature))


def _position(cells, ty, model: list[int], scope: Scope) -> int:
    """The position of the ty-value a solver model gives cells: a table's
    entries in base |entry|, a world bit 0/1, an individual its one selector."""
    if ty is bool:
        return model[cells - 1]
    view = table_view(ty, scope)
    if view is None:
        chosen = [e for e, v in enumerate(cells) if model[v - 1]]
        if len(chosen) != 1:
            raise HomlError("selector bits violate the exactly-one constraint")
        return chosen[0]
    return position([_position(sub, view[2], model, scope) for sub in cells], view[1])


class _Grounding:
    """A theory at a scope as CNF unknowns, and the symbolic carrier that
    grounds its formulas over them."""

    def __init__(self, theory: Theory, scope: Scope):
        if theory.definitions:
            raise GroundingError("theory must be elaborated before grounding")
        self.theory = theory
        self.scope = scope
        self.n = scope.num_worlds
        self.m = scope.num_entities
        self.f = _Formulas()
        self.num_vars = 0
        self.meanings: dict[int, str] = {}
        self.clauses: list[list[int]] = []
        self.compiler = _Compiler(scope)
        self.size = self.compiler.size
        self.table = self.compiler.table
        # Model-free subterms run in the concrete carrier over an empty frame.
        row = (False,) * self.n
        self.concrete = _EvalCtx(KripkeModel(scope, (row,) * self.n, (row,) * self.m))
        # Both carriers' binder memos live as long as this grounding.
        self.memo: dict = {}
        # Symbolic constants by (position, type), dropped with the grounding.
        self._lifted: dict[tuple, tuple] = {}

        self.r_vars = tuple(
            tuple(self._new_var(f"r(w{w},w{w2})") for w2 in range(self.n)) for w in range(self.n)
        )
        self.ex_vars = tuple(
            tuple(self._new_var(f"{EXISTS_AT}(e{e},w{w})") for w in range(self.n))
            for e in range(self.m)
        )
        self.const_cells: dict[str, object] = {}
        self.const_sym: dict[str, object] = {}
        for name, ty in theory.signature:
            if type_order(ty) > MAX_CONSTANT_ORDER:
                raise GroundingError(
                    f"constant {name!r} has unsupported type {ty} beyond order {MAX_CONSTANT_ORDER}"
                )
            cells = self._alloc_cells(name, ty, ())
            self.const_cells[name] = cells
            self.const_sym[name] = self._cells_to_sym(cells, ty)
        self.decision_vars = tuple(range(1, self.num_vars + 1))
        # existsAt viewed as an unknown Fun(Ind, Prop) table.
        self.const_sym[EXISTS_AT] = self._cells_to_sym(self.ex_vars, EXISTS_AT_TYPE)
        self._frame_clauses()

    def _new_var(self, meaning: Optional[str] = None) -> int:
        self.num_vars += 1
        if meaning is not None:
            self.meanings[self.num_vars] = meaning
        return self.num_vars

    def _alloc_cells(self, name: str, ty: LogicType, args: tuple):
        arg_str = ",".join(str(a) for a in args)
        label = f"{name}({arg_str})" if args else name
        if ty == Prop:
            return tuple(self._new_var(f"{label}@w{w}") for w in range(self.n))
        if ty == Ind:
            sel = tuple(self._new_var(f"{label}=e{e}") for e in range(self.m))
            self.clauses.append(list(sel))
            for i in range(self.m):
                for j in range(i + 1, self.m):
                    self.clauses.append([-sel[i], -sel[j]])
            return sel
        assert isinstance(ty, Fun)
        dom = self.size(ty.domain)
        return tuple(self._alloc_cells(name, ty.codomain, args + (j,)) for j in range(dom))

    def _cells_to_sym(self, cells, ty):
        if ty is bool:
            return self.f.var(cells)
        entry = self.entry(ty)
        return tuple(self._cells_to_sym(sub, entry) for sub in cells)

    def _frame_clauses(self):
        flags = self.theory.frame_flags
        n, r = self.n, self.r_vars
        if "refl" in flags:
            for w in range(n):
                self.clauses.append([r[w][w]])
        if "symm" in flags:
            for w in range(n):
                for v in range(n):
                    if w != v:
                        self.clauses.append([-r[w][v], r[v][w]])
        if "trans" in flags:
            for u in range(n):
                for v in range(n):
                    for w in range(n):
                        if u == v or v == w:
                            continue
                        self.clauses.append([-r[u][v], -r[v][w], r[u][w]])

    # -- symbolic values ---------------------------------------------------
    # A symbolic value of a table type is a tuple of its entries' symbolic
    # values, a prop's world bits being formula ids; an Ind is a flat tuple
    # of m one-hot formula ids.

    def entry(self, ty: LogicType):
        """The type of a symbolic value's components: its table entry, and
        ``bool`` (a selector bit) for ``Ind``."""
        view = self.table(ty)
        return bool if view is None else view[2]

    def lift(self, i: int, ty: LogicType):
        """The constant symbolic value at position i of ty."""
        if ty is bool:
            return (_FALSE, _TRUE)[i]
        key = (i, ty)
        sv = self._lifted.get(key)
        if sv is None:
            view = self.table(ty)
            if view is None:
                sv = tuple(_TRUE if e == i else _FALSE for e in range(self.m))
            else:
                length, base, entry = view
                sv = tuple(self.lift(d, entry) for d in digits(i, length, base))
            self._lifted[key] = sv
        return sv

    def concrete_index(self, sv, ty: LogicType) -> Optional[int]:
        """The position of a symbolic value whose cells are all constant,
        else None."""
        if ty is bool:
            return _const_bool(sv)
        view = self.table(ty)
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

    def sym_eq(self, sv, ty: LogicType, i: int) -> int:
        """Formula: the symbolic value equals the i-th enumerated value of ty."""
        if ty is bool:
            return sv if i else self.f.neg(sv)
        view = self.table(ty)
        if view is None:
            return sv[i]
        length, base, entry = view
        return self.f.conj(
            [self.sym_eq(sub, entry, d) for sub, d in zip(sv, digits(i, length, base))]
        )

    def sym_values_eq(self, a, b, ty) -> int:
        """Formula: two symbolic values of ty are equal."""
        if ty is bool:
            return self.f.iff(a, b)
        entry = self.entry(ty)
        return self.f.conj([self.sym_values_eq(x, y, entry) for x, y in zip(a, b)])

    def mux(self, branches, ty):
        """Symbolic value: the ty-value of the branch whose condition holds."""
        if ty is bool:
            return self.f.disj([self.f.conj([cond, sv]) for cond, sv in branches])
        entry = self.entry(ty)
        return tuple(
            self.mux([(cond, sv[k]) for cond, sv in branches], entry)
            for k in range(len(branches[0][1]))
        )

    # -- the symbolic carrier of the compiled rules --------------------------

    @depth_guarded
    def eval(self, term: Term, env: list):
        """The symbolic value of term, compiled at this scope."""
        return self.compiler(term)(self, env)

    def model_free(self, code, ty, env):
        return self.lift(code(self.concrete, env), ty)

    def const(self, name: str):
        sym = self.const_sym.get(name)
        if sym is None:
            raise GroundingError(f"constant {name!r} is not in the signature")
        return sym

    def apply(self, fn_sv, arg_sv, fn_ty: Fun, length: int, base: int):
        idx = self.concrete_index(arg_sv, fn_ty.domain)
        if idx is not None:
            return fn_sv[idx]
        branches = [(self.sym_eq(arg_sv, fn_ty.domain, j), fn_sv[j]) for j in range(length)]
        return self.mux(branches, fn_ty.codomain)

    def _rows(self, size: int, body, env: list) -> list:
        """The body's value for each value of the bound variable, in order."""
        rows = []
        for j in range(size):
            env.append(j)
            rows.append(body(self, env))
            env.pop()
        return rows

    def lam(self, length, base, body, env):
        return tuple(self._rows(length, body, env))

    def not_(self, a):
        return tuple(map(self.f.neg, a))

    # The right side is always evaluated, after the left.

    def and_(self, a, right, env):
        return tuple(map(self.f.conj, zip(a, right(self, env))))

    def or_(self, a, right, env):
        return tuple(map(self.f.disj, zip(a, right(self, env))))

    def implies(self, a, right, env):
        return tuple(map(self.f.implies, a, right(self, env)))

    def iff(self, a, b):
        return tuple(map(self.f.iff, a, b))

    def box(self, a):
        f = self.f
        return tuple(
            f.conj([f.implies(f.var(r), x) for r, x in zip(row, a)]) for row in self.r_vars
        )

    def diamond(self, a):
        f = self.f
        return tuple(
            f.disj([f.conj([f.var(r), x]) for r, x in zip(row, a)]) for row in self.r_vars
        )

    def forall(self, size, body, env):
        return tuple(map(self.f.conj, zip(*self._rows(size, body, env))))

    def exists(self, size, body, env):
        return tuple(map(self.f.disj, zip(*self._rows(size, body, env))))

    def equal(self, a, b, ty):
        return (self.sym_values_eq(a, b, ty),) * self.n

    # -- Tseitin -------------------------------------------------------------

    def assert_roots(self, roots: list[int]) -> None:
        """Add clauses forcing every root formula to be true."""
        needed = set()
        stack = [r for r in roots]
        while stack:
            nid = stack.pop()
            if nid in needed or nid in (_TRUE, _FALSE):
                continue
            needed.add(nid)
            node = self.f.nodes[nid]
            if node[0] == "not":
                stack.append(node[1])
            elif node[0] in ("and", "or"):
                stack.extend(node[1])

        # A node's children are older than it, so ascending ids see each
        # child's literal first; only and/or nodes get a Tseitin variable.
        lit_of: dict[int, int] = {}
        for nid in sorted(needed):
            node = self.f.nodes[nid]
            if node[0] == "var":
                lit_of[nid] = node[1]
            elif node[0] == "not":
                lit_of[nid] = -lit_of[node[1]]
            else:
                lit_of[nid] = self._new_var()
        for nid in sorted(needed):
            node = self.f.nodes[nid]
            if node[0] == "and":
                t = lit_of[nid]
                child_lits = [lit_of[c] for c in node[1]]
                for cl in child_lits:
                    self.clauses.append([-t, cl])
                self.clauses.append([t] + [-cl for cl in child_lits])
            elif node[0] == "or":
                t = lit_of[nid]
                child_lits = [lit_of[c] for c in node[1]]
                for cl in child_lits:
                    self.clauses.append([t, -cl])
                self.clauses.append([-t] + child_lits)
        for r in roots:
            if r == _TRUE:
                continue
            if r == _FALSE:
                self.clauses.append([])
                continue
            self.clauses.append([lit_of[r]])

    def to_problem(self) -> GroundProblem:
        return GroundProblem(
            scope=self.scope,
            num_vars=self.num_vars,
            clauses=self.clauses,
            meanings=MappingProxyType(self.meanings),
            decision_vars=self.decision_vars,
            r_vars=self.r_vars,
            ex_vars=self.ex_vars,
            const_cells=MappingProxyType(self.const_cells),
            signature=self.theory.signature,
        )


def ground(theory: Theory, scope: Scope, negated_goal: Optional[Term] = None) -> GroundProblem:
    """Compile frame flags + globally-valid axioms (+ optionally the negation
    of a goal at some world) into a GroundProblem."""
    g = _Grounding(theory, scope)
    roots = []
    for ax in theory.axioms:
        if ax.ty != Prop:
            raise GroundingError("axioms must be prop-typed")
        roots.extend(g.eval(ax, []))
    if negated_goal is not None:
        if negated_goal.ty != Prop:
            raise GroundingError("goal must be prop-typed")
        bits = g.eval(negated_goal, [])
        roots.append(g.f.disj([g.f.neg(b) for b in bits]))
    g.assert_roots(roots)
    return g.to_problem()


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
    of the decision variables, which are the prefix 1..d, and the search
    resumes from that model. The problem itself is left unchanged."""
    d = len(problem.decision_vars)
    if list(problem.decision_vars) != list(range(1, d + 1)):
        raise HomlError("the decision variables must be 1..d to enumerate models")
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
                     budget: int = DEFAULT_CONFLICT_BUDGET,
                     negated_goal: Optional[Term] = None) -> Iterator[KripkeModel]:
    """All models at scope (up to limit) that differ on the decision
    variables, in lexicographic order; see `iterate_models`."""
    problem = ground(theory, scope, negated_goal=negated_goal)
    yield from iterate_models(problem, budget=budget, limit=limit)


def export_dimacs(problem: GroundProblem) -> bytes:
    """Standard DIMACS CNF with variable meanings as leading comment lines."""
    lines = []
    for v in sorted(problem.meanings):
        lines.append(f"c {v} {problem.meanings[v]}")
    lines.append(f"p cnf {problem.num_vars} {len(problem.clauses)}")
    for clause in problem.clauses:
        lines.append(" ".join(str(lit) for lit in clause + [0]))
    return ("\n".join(lines) + "\n").encode("utf-8")
