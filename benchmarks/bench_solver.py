#!/usr/bin/env python3
"""Solver-layer microbenchmark of the CDCL solver.

Runs pigeonhole instances, seeded random 3-SAT, and a real ground problem
from the ontological-theory bundle. Prints the best time of loading the
clauses (`Solver(n, clauses)`) and of solving them as separate columns, with
the status and conflict count of each, and exits non-zero when a status is
not the known one. Then enumerates every model of the empty CNF over 12
variables with `Solver.block`, and every model of K at (2,1) and at (2,2)
through `iterate_models`; prints the best time and model count of each, and
exits non-zero on a wrong count or a model out of lexicographic order.
Last, prints the best per-model time of `GroundProblem.decode` over up to 64
solver models of K at (2,1), goedel at (2,2) and church at (1,3), whose
selector rows cover ``c : i`` and ``f : i > i``, and the time of a fresh
problem's first decode, which builds its reader; these rows never fail.

    PYTHONPATH=src python benchmarks/bench_solver.py
"""

import random
import sys
import time

from homlkit.frozen import replace
from homlkit.grounder import ground, iterate_models
from homlkit.semantics import Scope, digits
from homlkit.solver import SAT, UNKNOWN, UNSAT, Solver

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


def best_of(run, repeat, *args):
    """The fastest of ``repeat`` timed calls of ``run(*args)``, and the last
    result."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = run(*args)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def bench(name, expected, num_vars, clauses, repeat=3):
    """Print one row; return whether the status is the expected one."""
    loads, solves = [], []
    for _ in range(repeat):
        start = time.perf_counter()
        solver = Solver(num_vars, clauses)
        loaded = time.perf_counter()
        status, _, conflicts = solver.solve()
        loads.append(loaded - start)
        solves.append(time.perf_counter() - loaded)
    load, solve = min(loads), min(solves)
    ok = status == expected
    verdict = "" if ok else f"  WRONG, expected {STATUS[expected]}"
    print(f"{name:28s} {num_vars:5d} vars {len(clauses):6d} clauses "
          f"load {load * 1000:8.2f} ms  solve {solve * 1000:9.2f} ms  "
          f"{STATUS[status]:7s} {conflicts:7d} conflicts{verdict}")
    return ok


def empty_cnf_models(num_vars=12):
    """Every model of the empty CNF, each blocked on all variables."""
    solver = Solver(num_vars)
    while True:
        status, model, _ = solver.solve()
        if status != SAT:
            return
        yield tuple(model)
        solver.block(num_vars)


def k_models(n, m):
    """Every model of K at (n, m), as the values of its decision variables:
    accessibility, existence, then the world bits of the propositional
    constants in signature order, each read from its position: a world's
    accessibility mask, existsAt's m rows of n world bits, a prop's mask."""
    from homlkit.theories import load_bundle

    problem = ground(load_bundle("k").theory, Scope(n, m))
    for model in iterate_models(problem):
        rows = (*(digits(mask, n, 2) for mask in model.accessibility),
                digits(model.exists_at, n * m, 2),
                *(digits(model.positions[name], n, 2) for name, _ in problem.signature))
        yield tuple(bit for row in rows for bit in row)


def bench_enumeration(name, expected, models, repeat=3):
    """Print one row; return whether the count is the expected one and the
    models come in strictly increasing lexicographic order."""
    best, found = best_of(lambda: list(models()), repeat)
    ordered = all(a < b for a, b in zip(found, found[1:]))
    ok = len(found) == expected and ordered
    verdict = "" if ok else f"  WRONG, expected {expected} models in lexicographic order"
    print(f"{name:28s} {best * 1000:9.2f} ms  {len(found):5d} models{verdict}")
    return ok


def solver_models(problem, limit=64):
    """Up to ``limit`` of the problem's solver models, as 0/1 lists."""
    solver = Solver(problem.num_vars, problem.clauses)
    models = []
    while len(models) < limit:
        status, model, _ = solver.solve()
        if status != SAT:
            break
        models.append(list(model))
        solver.block(len(problem.decision_vars))
    return models


def bench_decode(bundle, n, m, repeat=20):
    """Print one row: the best per-model decode time, and the best time of
    a first decode on a copy of the problem that has no reader yet."""
    from homlkit.theories import load_bundle

    problem = ground(load_bundle(bundle).theory, Scope(n, m))
    models = solver_models(problem)
    best, _ = best_of(lambda: [problem.decode(model) for model in models], repeat)
    first = min(best_of(replace(problem).decode, 1, models[0])[0] for _ in range(repeat))
    print(f"{f'decode {bundle} at ({n},{m})':28s} {best / len(models) * 1e6:9.2f} us per model  "
          f"first {first * 1e6:8.2f} us  {len(models):5d} models")


def main():
    rows = [
        ("pigeonhole(6)", UNSAT, *pigeonhole(6)),
        ("pigeonhole(7)", UNSAT, *pigeonhole(7)),
        ("random 3-SAT n=60 m=240", SAT, *random_3sat(60, 240, seed=42)),
        ("random 3-SAT n=80 m=340", SAT, *random_3sat(80, 340, seed=7)),
        ("goedel refutation at (2,2)", UNSAT, *goedel_refutation()),
    ]
    ok = all([bench(*row) for row in rows])
    enumerations = [
        ("enumerate empty CNF, 12 vars", 2 ** 12, empty_cnf_models),
        ("enumerate K at (2,1)", 2 ** 10, lambda: k_models(2, 1)),
        ("enumerate K at (2,2)", 2 ** 12, lambda: k_models(2, 2)),
    ]
    ok = all([bench_enumeration(*row) for row in enumerations]) and ok
    for row in (("k", 2, 1), ("goedel", 2, 2), ("church", 1, 3)):
        bench_decode(*row)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
