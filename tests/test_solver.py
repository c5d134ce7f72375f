"""CDCL solver: the lexicographically least model, incremental enumeration
against brute force, budget."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from homlkit.solver import SAT, UNKNOWN, UNSAT, Solver, solve_cnf


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


clause_strategy = st.lists(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda v: st.sampled_from([v, -v])
    ),
    min_size=1, max_size=4,
)
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
        solver.add_clause([-v if model[v - 1] else v for v in range(1, k + 1)])
    assert found == sorted({bits[:k] for bits in brute_force_models(8, clauses)})
