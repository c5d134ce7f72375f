#!/usr/bin/env python3
"""Re-derive modal_math's folded verdicts with the reference evaluator.

modal_math's checks and its model entries, Infinity's among them, ground to
almost constant CNFs: the symbolic carrier folds each formula to a few
clauses, so the solver has next to nothing to refute. This script derives
each of these manifest verdicts again, without the grounder, the solver or
the library's evaluator:

* it asserts that the entry's theory declares no constant and that every
  formula of the entry (the axioms, and a check's goal) is model-free by
  ``reference.term_dependencies``: no constant, no existence, no modal
  operator. So the formula has one world mask in every model at the scope,
  and one model decides the entry;
* it evaluates the formulas with ``reference.eval_term`` in one model at the
  entry's full scope: every world sees every world, which meets every frame
  condition, and nothing exists;
* it compares the verdict this gives with the library's
  (``check_validity_bounded`` or ``find_model``) and with the manifest's.

It prints one line per entry and exits 1 on the first disagreement.
pytest does not collect it (its name does not start with ``test_``), so
Tier-1's time does not grow by it.

    PYTHONPATH=src python tests/rederive_folded.py
"""

import sys
import time

from homlkit.grounder import check_validity_bounded, find_model
from homlkit.semantics import KripkeModel, Scope, ValidUpToScope
from homlkit.theories import load_bundle

import reference


def one_model(theory, scope: Scope) -> KripkeModel:
    """The model that decides every model-free formula of the theory."""
    assert not theory.signature, f"{theory.name} declares constants"
    n = scope.num_worlds
    assert reference.frame_holds(((True,) * n,) * n, theory.frame_flags)
    return KripkeModel(scope, ((1 << n) - 1,) * n, 0)


def reference_mask(model: KripkeModel, formula) -> int:
    """The formula's world mask, once it is shown model-free."""
    uses_modal, uses_exists, consts = reference.term_dependencies(formula)
    assert not (uses_modal or uses_exists or consts), f"{formula} reads the model"
    return reference.eval_term(model, [], formula)


def entries():
    """(name, bundle, scope, goal label or None, expected verdict) of every
    modal_math check and model entry, in manifest order."""
    core = load_bundle("modal_math")
    manifest = core.manifest
    for check in manifest["checks"]:
        yield f"check {check['goal']}", core, Scope(*check["scope"]), check["goal"], check["expect"]
    for entry in manifest["models"]:
        variant = entry.get("variant", manifest["default_variant"])
        bundle = load_bundle("modal_math", extension=variant)
        yield f"model {variant}", bundle, Scope(*entry["scope"]), None, entry["expect"]


def rederive(bundle, scope: Scope, label) -> tuple[str, str]:
    """(the reference's verdict, the library's) of one entry."""
    theory = bundle.theory
    model = one_model(theory, scope)
    full = (1 << scope.num_worlds) - 1
    models = all(reference_mask(model, ax) == full for ax in theory.axioms)
    if label is None:
        oracle = "sat" if models else "unsat"
        library = "unsat" if find_model(theory, scope) is None else "sat"
        return oracle, library
    goal = bundle.goal(label)
    oracle = "valid" if not models or reference_mask(model, goal) == full else "countermodel"
    verdict = check_validity_bounded(theory, goal, scope)
    return oracle, "valid" if type(verdict) is ValidUpToScope else "countermodel"


def main() -> int:
    start = time.perf_counter()
    count = 0
    for name, bundle, scope, label, expect in entries():
        tick = time.perf_counter()
        oracle, library = rederive(bundle, scope, label)
        print(f"{name:28s} ({scope.num_worlds},{scope.num_entities})  manifest {expect:12s} "
              f"reference {oracle:12s} library {library:12s} {time.perf_counter() - tick:6.2f} s")
        if not oracle == library == expect:
            print("disagreement")
            return 1
        count += 1
    print(f"{count} entries agree in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
