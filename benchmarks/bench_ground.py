#!/usr/bin/env python3
"""Grounder-layer microbenchmark: Goedel's axioms (actualist) and
modal_math's Infinity axiom, each at (3,2) and (2,3).

For Goedel, grounds each scope in-process three times and prints the best
time, the variables and clauses of the problem, and the formula nodes and
operation memo entries of the last grounding. Then loads the problem's
clauses into a `Solver` three times and prints the best load time.

Infinity mentions no unknown, so its grounding is pure evaluation in the
concrete carrier. For it, runs `find_model` three times and prints the best
time, then grounds once and prints the binder-memo entries that the
symbolic and the concrete carrier hold at the end. The counts do not depend
on the machine. Exits 1 only when grounding fails.

    PYTHONPATH=src python benchmarks/bench_ground.py
"""

import sys
import time

from homlkit.errors import HomlError
from homlkit.grounder import _ground, find_model
from homlkit.semantics import Scope
from homlkit.solver import Solver
from homlkit.theories import load_bundle

SCOPES = ((3, 2), (2, 3))


def bench(theory, n, m, repeat=3):
    """Print one row for the scope (n, m)."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        g = _ground(theory, Scope(n, m))
        problem = g.to_problem()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    loads = []
    for _ in range(repeat):
        start = time.perf_counter()
        Solver(problem.num_vars, problem.clauses)
        loads.append(time.perf_counter() - start)
    print(f"goedel actualist ({n},{m}) {best * 1000:9.2f} ms  {problem.num_vars:7d} vars "
          f"{len(problem.clauses):8d} clauses {len(g.f.nodes):8d} nodes "
          f"{len(g.ops):7d} memo entries  load {min(loads) * 1000:8.2f} ms")


def bench_infinity(theory, n, m, repeat=3):
    """Print one Infinity row for the scope (n, m)."""
    best = None
    for _ in range(repeat):
        start = time.perf_counter()
        find_model(theory, Scope(n, m))
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    g = _ground(theory, Scope(n, m))
    print(f"modal_math infinity ({n},{m}) find_model {best * 1000:9.2f} ms  binder-memo entries: "
          f"{len(g.memo):6d} symbolic {len(g.concrete.memo):6d} concrete")


def main():
    theory = load_bundle("goedel", quantifier="actualist").theory
    infinity = load_bundle("modal_math", extension="infinity").theory
    try:
        for n, m in SCOPES:
            bench(theory, n, m)
        for n, m in SCOPES:
            bench_infinity(infinity, n, m)
    except HomlError as err:
        print(f"grounding failed: {err}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
