#!/usr/bin/env python3
"""Solver-layer microbenchmark of the CDCL solver.

Runs pigeonhole instances, seeded random 3-SAT, and a real ground problem
from the ontological-theory bundle. Prints the best time, status and
conflict count of each, and exits non-zero when a status is not the known
one.

    PYTHONPATH=src python benchmarks/bench_solver.py
"""

import random
import sys
import time

from homlkit.grounder import ground
from homlkit.semantics import Scope
from homlkit.solver import SAT, UNKNOWN, UNSAT, solve_cnf

STATUS = {SAT: "SAT", UNSAT: "UNSAT", UNKNOWN: "UNKNOWN"}


def pigeonhole(holes):
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def random_3sat(num_vars, num_clauses, seed):
    rng = random.Random(seed)
    clauses = []
    for _ in range(num_clauses):
        lits = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([l if rng.random() < 0.5 else -l for l in lits])
    return num_vars, clauses


def goedel_refutation():
    from homlkit.theories import load_bundle

    bundle = load_bundle("goedel")
    problem = ground(bundle.theory, Scope(2, 2), negated_goal=bundle.theory.goals[0])
    return problem.num_vars, problem.clauses


def bench(name, expected, num_vars, clauses, repeat=3):
    """Print one row; return whether the status is the expected one."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        status, _, conflicts = solve_cnf(num_vars, clauses)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    ok = status == expected
    verdict = "" if ok else f"  WRONG, expected {STATUS[expected]}"
    print(f"{name:28s} {num_vars:5d} vars {len(clauses):6d} clauses "
          f"{best * 1000:9.2f} ms  {STATUS[status]:7s} {conflicts:7d} conflicts{verdict}")
    return ok


def main():
    rows = [
        ("pigeonhole(6)", UNSAT, *pigeonhole(6)),
        ("pigeonhole(7)", UNSAT, *pigeonhole(7)),
        ("random 3-SAT n=60 m=240", SAT, *random_3sat(60, 240, seed=42)),
        ("random 3-SAT n=80 m=340", SAT, *random_3sat(80, 340, seed=7)),
        ("goedel refutation at (2,2)", UNSAT, *goedel_refutation()),
    ]
    ok = all([bench(*row) for row in rows])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
