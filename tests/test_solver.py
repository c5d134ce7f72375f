"""CDCL solver: the lexicographically least model, incremental enumeration
against brute force, budget, and the clause loader against the textbook one."""

import copy
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlkit.errors import BudgetExceededError
from homlkit.frozen import replace
from homlkit.grounder import ground, iterate_models
from homlkit.semantics import Scope
from homlkit.solver import SAT, UNKNOWN, UNSAT, Solver, solve_cnf
from homlkit.theories import load_bundle
from reference import TextbookSolver


def brute_force_models(num_vars, clauses):
    """Every satisfying assignment as a 0/1 tuple, lexicographically ordered
    (variable 1 first, false before true)."""
    return [
        bits for bits in itertools.product([0, 1], repeat=num_vars)
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses)
    ]


def clause_satisfied(clause, model):
    return any((model[abs(l) - 1] == 1) == (l > 0) for l in clause)


def test_trivial_cases():
    assert solve_cnf(1, [[1], [-1]])[0] == UNSAT
    status, model, _ = solve_cnf(2, [[1, 2]])
    assert status == SAT and clause_satisfied([1, 2], model)
    assert solve_cnf(0, [])[0] == SAT
    assert solve_cnf(2, [[]])[0] == UNSAT


def test_branching_is_lowest_var_false_first():
    status, model, _ = solve_cnf(3, [[1, 2, 3]])
    assert status == SAT
    assert model == [0, 0, 1]


def pigeonhole(holes):
    """holes+1 pigeons into holes: unsatisfiable."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def test_pigeonhole_unsat():
    nv, clauses = pigeonhole(4)
    status, _, conflicts = solve_cnf(nv, clauses)
    assert status == UNSAT
    assert conflicts > 0


def test_budget_gives_unknown():
    nv, clauses = pigeonhole(5)
    status, model, conflicts = solve_cnf(nv, clauses, 3)
    assert status == UNKNOWN
    assert model is None
    assert conflicts == 3


def clauses_over(num_vars):
    return st.lists(
        st.integers(min_value=1, max_value=num_vars).flatmap(
            lambda v: st.sampled_from([v, -v])
        ),
        min_size=1, max_size=4,
    )


clause_strategy = clauses_over(8)
cnf_strategy = st.lists(clause_strategy, min_size=0, max_size=24)


@settings(max_examples=200, deadline=None)
@given(cnf_strategy)
def test_agrees_with_brute_force(clauses):
    status, model, _ = solve_cnf(8, clauses)
    models = brute_force_models(8, clauses)
    if models:
        assert status == SAT
        assert tuple(model) == models[0]
    else:
        assert status == UNSAT and model is None


@settings(max_examples=200, deadline=None)
@given(cnf_strategy, st.integers(min_value=0, max_value=8))
def test_incremental_enumeration_is_lexicographic(clauses, k):
    solver = Solver(8, clauses)
    found = []
    while True:
        status, model, _ = solver.solve()
        if status == UNSAT:
            break
        assert status == SAT
        found.append(tuple(model[:k]))
        solver.add_clauses([[-v if model[v - 1] else v for v in range(1, k + 1)]])
    assert found == sorted({bits[:k] for bits in brute_force_models(8, clauses)})


def block_projections(solver, k):
    """The projections onto variables 1..k of the models `solver.solve`
    finds when `solver.block(k)` follows each one."""
    found = []
    while True:
        status, model, _ = solver.solve()
        if status == UNSAT:
            return found
        assert status == SAT
        found.append(tuple(model[:k]))
        solver.block(k)


@settings(max_examples=100, deadline=None)
@given(cnf_strategy)
def test_block_enumeration_is_lexicographic(clauses):
    models = brute_force_models(8, clauses)
    for k in range(9):
        found = block_projections(Solver(8, clauses), k)
        assert found == sorted({bits[:k] for bits in models})


step_strategy = st.one_of(
    st.tuples(st.just("block"), st.integers(min_value=0, max_value=6)),
    st.tuples(st.just("add"), clauses_over(6)),
    st.tuples(st.just("solve"), st.none()),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(clauses_over(6), max_size=8), st.lists(step_strategy, max_size=12))
def test_block_add_clause_and_solve_mix(clauses, steps):
    """Every `solve` returns the least model of the clauses, the added
    clauses and the projections blocked so far, whatever the interleaving."""
    solver = Solver(6, clauses)
    constraints = list(clauses)
    for kind, arg in steps:
        status, model, _ = solver.solve()
        models = brute_force_models(6, constraints)
        if not models:
            assert status == UNSAT
            return
        assert status == SAT and tuple(model) == models[0]
        if kind == "block":
            solver.block(arg)
            constraints.append([-v if model[v - 1] else v for v in range(1, arg + 1)])
        elif kind == "add":
            solver.add_clauses([arg])
            constraints.append(arg)


def test_block_needs_a_model():
    solver = Solver(3, [[1, 2, 3]])
    with pytest.raises(ValueError):
        solver.block(3)  # no solve yet
    assert solver.solve()[1] == [0, 0, 1]
    with pytest.raises(ValueError):
        solver.block(4)
    solver.add_clauses([[1, 2]])  # back to level 0, the model is gone
    with pytest.raises(ValueError):
        solver.block(3)
    assert solver.solve()[1] == [0, 1, 0]
    solver.block(2)
    assert solver.solve()[1] == [1, 0, 0]
    solver.block(0)  # the empty projection: no model is left
    assert solver.solve()[0] == UNSAT


def test_budget_exhausted_mid_enumeration_raises():
    """K at (1,1) with a pigeonhole gadget on fresh variables that only
    r(w0,w0) = true switches on: the models with r(w0,w0) false come at no
    cost, then refuting r(w0,w0) = true needs more conflicts than the budget."""
    problem = ground(load_bundle("k").theory, Scope(1, 1))
    assert problem.meanings[1] == "r(w0,w0)"
    num_vars, gadget = pigeonhole(4)
    base = problem.num_vars
    shifted = [[-1] + [lit + base if lit > 0 else lit - base for lit in c] for c in gadget]
    guarded = replace(problem, num_vars=base + num_vars, clauses=problem.clauses + shifted)
    models = []
    with pytest.raises(BudgetExceededError):
        for model in iterate_models(guarded, budget=5):
            models.append(model)
    assert len(models) == 8
    assert all(model.accessibility == (0,) for model in models)
    assert len(list(iterate_models(guarded))) == 8


def solver_state(solver):
    return (solver._watches, solver._trail, solver._value, solver._level,
            solver._reason, solver._ok, solver._trail_lim, solver._qhead)


# Few variables, so that clauses repeat literals, are tautologies, and meet
# units that satisfy or falsify them; a clause is a list or a tuple. Two-
# literal clauses, which the loader takes on a path of their own, are drawn
# on their own branch too, over three variables: a pair repeats or
# complements a literal one time in three.
loose_literal = st.integers(min_value=1, max_value=5).flatmap(lambda v: st.sampled_from([v, -v]))
low_literal = st.integers(min_value=1, max_value=3).flatmap(lambda v: st.sampled_from([v, -v]))
loose_clause = st.one_of(
    st.just([]),
    st.lists(loose_literal, min_size=1, max_size=1),
    st.lists(low_literal, min_size=2, max_size=2),
    st.lists(loose_literal, max_size=6),
).flatmap(lambda c: st.sampled_from([c, tuple(c)]))


@settings(max_examples=300, deadline=None)
@given(st.lists(loose_clause, max_size=16),
       st.lists(st.tuples(st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
                          loose_clause), max_size=6))
def test_loader_matches_the_textbook_loader(clauses, later):
    """`Solver(n, clauses)` and `add_clauses`, after a SAT answer and after
    `block`, build the textbook loader's state, and every `solve` gives
    its answer, conflicts included."""
    bulk, oracle = Solver(5, clauses), TextbookSolver(5, clauses)
    assert solver_state(bulk) == solver_state(oracle)
    for k, clause in later:
        answer = bulk.solve()
        assert answer == oracle.solve()
        assert solver_state(bulk) == solver_state(oracle)
        if answer[0] == SAT and k is not None:
            bulk.block(k)
            oracle.block(k)
            assert solver_state(bulk) == solver_state(oracle)
        bulk.add_clauses([clause])
        oracle.add_clauses([clause])
        assert solver_state(bulk) == solver_state(oracle)
    assert bulk.solve() == oracle.solve()
    assert solver_state(bulk) == solver_state(oracle)


@pytest.mark.parametrize("bundle_id", ["k", "t", "s4", "s5"])
def test_loader_matches_the_textbook_loader_on_frame_checks(bundle_id):
    bundle = load_bundle(bundle_id)
    for check in bundle.manifest["checks"]:
        problem = ground(bundle.theory, Scope(*check["scope"]), bundle.goal(check["goal"]))
        bulk = Solver(problem.num_vars, problem.clauses)
        oracle = TextbookSolver(problem.num_vars, problem.clauses)
        assert solver_state(bulk) == solver_state(oracle)
        assert bulk.solve() == oracle.solve()


def test_out_of_range_literal_changes_nothing():
    """The literals are checked before any clause is added, so a bad one
    leaves a solver in the middle of its trail as it was."""
    solver = Solver(3, [[1, 2, 3], [-1, 2]])
    assert solver.solve()[1] == [0, 0, 1]
    assert solver._trail_lim
    before = copy.deepcopy(solver_state(solver))
    for bad, lit in (([[1], [2, 4]], 4), ([[-4]], -4), ([[1, 0]], 0),
                     (([3], (-2, 7, 1)), 7), ([[5, 1], [-6]], 5)):
        with pytest.raises(ValueError, match=f"literal {lit} "):
            solver.add_clauses(bad)
        assert solver_state(solver) == before
    with pytest.raises(ValueError, match="literal 4 "):
        solver.add_clauses([[1, 4]])
    assert solver_state(solver) == before
    solver.block(3)  # the model is still on the trail
    assert solver.solve()[1] == [0, 1, 0]
    with pytest.raises(ValueError, match="literal -5 "):
        Solver(3, [[1, 2], [3, -5, 0]])


@pytest.mark.parametrize("form", ["lists", "tuples", "generator"])
def test_loading_solving_and_blocking_leave_the_clauses_alone(form):
    """Duplicates, a tautology, a unit that falsifies later literals, and
    propagation that reorders watched clauses: the caller's clauses stay as
    they were."""
    source = [[1, 1, 2], [-3], [3, 4, 2], [-1, 1], [-2, -4, 5], [2, 3, -5, 4], [-2, 5, 4]]
    kept = copy.deepcopy(source)
    if form == "tuples":
        clauses = tuple(tuple(c) for c in source)
    elif form == "generator":
        clauses = (c for c in source)
    else:
        clauses = source
    solver = Solver(5, clauses)
    extra = [4, -5, 4]
    while solver.solve()[0] == SAT:
        solver.block(5)
    solver.add_clauses([extra])
    assert solver.solve()[0] == UNSAT
    assert source == kept
    assert extra == [4, -5, 4]
    if form == "tuples":
        assert clauses == tuple(tuple(c) for c in kept)
