"""Per-layer tracing from outside the program.

`Tracer` wraps the public functions at each pipeline layer boundary. The
program copies names by import (``ground`` is bound in ``grounder``,
``analysis``, ``theories`` and ``cli``; ``solve_cnf`` in ``solver`` and
``grounder``), so every module-level binding of a traced function is
replaced, not just the defining one. Nothing under ``src/`` changes: the
wrappers are installed for one traced phase and removed afterwards.

Each wrapper times its call with ``perf_counter`` and charges the layer its
self time (the call's duration minus the traced calls made inside it). It
also sums the work counters the call returns.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from contextlib import contextmanager

# layer -> the public functions at its boundary, each as (a module that
# binds it, name). Every other homlkit module binding the same object is
# wrapped too.
LAYERS = {
    "theories.load": [("homlkit.theories", "load_bundle")],
    "surface.parse": [("homlkit.surface", "parse")],
    "surface.typecheck": [("homlkit.surface", "typecheck")],
    "surface.elaborate": [("homlkit.surface", "elaborate")],
    "grounder.ground": [("homlkit.grounder", "ground")],
    "solver.solve": [("homlkit.solver", "solve_cnf")],
    "semantics.recheck": [("homlkit.semantics", "holds_at"), ("homlkit.semantics", "mvalid")],
    "analysis.count": [("homlkit.analysis", "min_positive_count"),
                       ("homlkit.analysis", "positive_sets")],
    "analysis.ultrafilter": [("homlkit.analysis", "is_modal_ultrafilter")],
    "cli": [("homlkit.cli", "main")],
}


class Stats:
    """Self time and call count per layer, and work counters, for one phase."""

    def __init__(self):
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.ground_keys = set()

    @classmethod
    def total(cls, parts) -> "Stats":
        out = cls()
        for part in parts:
            out.self_s.update(part.self_s)
            out.calls.update(part.calls)
            out.counts.update(part.counts)
            out.ground_keys |= part.ground_keys
        return out


def _ground_key(args, kwargs):
    goal = args[2] if len(args) > 2 else kwargs.get("negated_goal")
    return (args[0], args[1], goal)


class Tracer:
    """Installs timing wrappers on every binding of the traced functions."""

    def __init__(self):
        import homlkit.grounder
        import homlkit.solver

        self._problem_class = homlkit.grounder.GroundProblem
        self._unsat = homlkit.solver.UNSAT
        self.stats = Stats()
        self.task_stats: dict[str, Stats] = {}
        self._stack = [0.0]  # time spent in traced children, per open call

    def _wrap(self, layer: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                self.stats.self_s[layer] += dt - child
                self.stats.calls[layer] += 1
            self._count_result(layer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_result(self, layer: str, args, kwargs, result) -> None:
        """Sum the counters a traced call returns."""
        c = self.stats.counts
        if layer == "grounder.ground":
            c["grounder.vars"] += result.num_vars
            c["grounder.clauses"] += len(result.clauses)
            self.stats.ground_keys.add(_ground_key(args, kwargs))
        elif layer == "solver.solve":
            status, _, conflicts = result
            c["solver.conflicts"] += conflicts
            c["solver.clauses_in"] += len(args[1])
            if status == self._unsat:
                c["solver.unsat_calls"] += 1
        elif layer == "analysis.count" and hasattr(result, "model_count"):
            c["analysis.models"] += result.model_count

    def _bindings(self):
        """(owner, attribute, original, layer) for every binding to wrap."""
        out = []
        for layer, defs in LAYERS.items():
            for module, name in defs:
                original = getattr(sys.modules[module], name)
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "homlkit" or mod_name.startswith("homlkit.")) \
                            and getattr(mod, name, None) is original:
                        out.append((mod, name, original, layer))
        problem = self._problem_class
        out.append((problem, "decode", problem.decode, "grounder.decode"))
        return out

    def begin_task(self, task_id: str) -> None:
        """Charge the calls that follow to a task of their own."""
        self.stats = self.task_stats[task_id] = Stats()

    @contextmanager
    def phase(self, stats: Stats):
        """Trace every call made inside the block into ``stats`` (until
        ``begin_task``)."""
        self.stats = stats
        bindings = self._bindings()
        for owner, name, original, layer in bindings:
            setattr(owner, name, self._wrap(layer, original))
        try:
            yield
        finally:
            for owner, name, original, _ in bindings:
                setattr(owner, name, original)
