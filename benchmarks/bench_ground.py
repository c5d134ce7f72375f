#!/usr/bin/env python3
"""Grounder-layer microbenchmark: Goedel's axioms (actualist) and
modal_math's Infinity axiom, each at (3,2) and (2,3), Goedel's
necessary_existence check at (2,2), actualist and possibilist, and
modal_math's five goal checks at (3,2).

For Goedel's axioms, grounds each scope in-process three times and prints
the best time, the variables and clauses of the problem, and the formula
nodes and operation memo entries of the last grounding. Then loads the
problem's clauses into a `Solver` three times and prints the best load time.

The necessary_existence rows are the checks that ``goedel-suite`` grounds
at its largest scope: the axioms with the goal negated. For each, prints
the best of three groundings, of three loads into a fresh `Solver`, and of
three solves of a freshly loaded one, with the answer's status and
conflicts.

Infinity mentions no unknown, so its grounding is pure evaluation in the
concrete carrier; its axiom is world-invariant, so that evaluation runs at
one world. For it, runs `find_model` three times and prints the best time,
then grounds once and prints the binder-memo entries that the symbolic
carrier holds at the end, and those of the one memo that the concrete
carrier shares with its one-world carrier. The counts do not depend on the
machine.

The modal_math row is `check --bundle modal_math --scope 3,2` in process:
the best of three runs of `check_validity_bounded` over the five goals,
each of them world-invariant, and how many are valid. Exits 1 only when
grounding fails.

    PYTHONPATH=src python benchmarks/bench_ground.py
"""

import sys
import time

from homlkit.errors import HomlError
from homlkit.grounder import _ground, check_validity_bounded, find_model, ground
from homlkit.semantics import Scope, ValidUpToScope
from homlkit.solver import SAT, UNSAT, Solver
from homlkit.theories import load_bundle

SCOPES = ((3, 2), (2, 3))
STATUS = {SAT: "sat", UNSAT: "unsat"}


def best_of(run, repeat=3):
    """(best time in seconds, last result) of ``repeat`` calls of run."""
    best = result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = run()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def bench(theory, n, m):
    """Print one row for the scope (n, m)."""
    grounding, g = best_of(lambda: _ground(theory, Scope(n, m)))
    problem = g.to_problem()
    load, _ = best_of(lambda: Solver(problem.num_vars, problem.clauses))
    print(f"goedel actualist ({n},{m}) {grounding * 1000:9.2f} ms  {problem.num_vars:7d} vars "
          f"{len(problem.clauses):8d} clauses {len(g.f.nodes):8d} nodes "
          f"{len(g.ops):7d} memo entries  load {load * 1000:8.2f} ms")


def bench_check(quantifier, n, m):
    """Print one necessary_existence row for the scope (n, m)."""
    bundle = load_bundle("goedel", quantifier=quantifier)
    goal = bundle.goal("necessary_existence")
    grounding, problem = best_of(lambda: ground(bundle.theory, Scope(n, m), negated_goal=goal))
    load, _ = best_of(lambda: Solver(problem.num_vars, problem.clauses))
    solvers = iter([Solver(problem.num_vars, problem.clauses) for _ in range(3)])
    solving, (status, _, conflicts) = best_of(lambda: next(solvers).solve())
    print(f"goedel {quantifier} necessary_existence ({n},{m}) ground {grounding * 1000:8.2f} ms "
          f"{problem.num_vars:6d} vars {len(problem.clauses):7d} clauses  "
          f"load {load * 1000:7.2f} ms  solve {solving * 1000:7.2f} ms "
          f"{STATUS.get(status, 'unknown')} {conflicts} conflicts")


def bench_infinity(theory, n, m):
    """Print one Infinity row for the scope (n, m)."""
    best, _ = best_of(lambda: find_model(theory, Scope(n, m)))
    g = _ground(theory, Scope(n, m))
    # The one-world carrier that runs the axiom shares the concrete memo.
    print(f"modal_math infinity ({n},{m}) find_model {best * 1000:9.2f} ms  binder-memo entries: "
          f"{len(g.memo):6d} symbolic {len(g.concrete.memo):6d} concrete")


def bench_modal_math(n, m):
    """Print the row of modal_math's goal checks at the scope (n, m)."""
    bundle = load_bundle("modal_math")
    goals = [bundle.goal(label) for label in bundle.manifest["goal_labels"]]
    best, verdicts = best_of(lambda: [check_validity_bounded(bundle.theory, goal, Scope(n, m))
                                      for goal in goals])
    valid = sum(type(verdict) is ValidUpToScope for verdict in verdicts)
    print(f"modal_math check ({n},{m}) {len(goals)} goals {best * 1000:9.2f} ms  {valid} valid")


def main():
    theory = load_bundle("goedel", quantifier="actualist").theory
    infinity = load_bundle("modal_math", extension="infinity").theory
    try:
        for n, m in SCOPES:
            bench(theory, n, m)
        for quantifier in ("actualist", "possibilist"):
            bench_check(quantifier, 2, 2)
        for n, m in SCOPES:
            bench_infinity(infinity, n, m)
        bench_modal_math(3, 2)
    except HomlError as err:
        print(f"grounding failed: {err}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
