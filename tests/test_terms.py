"""The one term traversal (children/rebuild) and the walkers built on it."""

import pytest

from homlkit.terms import (
    beta_normalize,
    children,
    free_vars,
    rebuild,
    shift,
    subterms,
)
from homlkit.theories import load_bundle

BUNDLE_VARIANTS = [
    ("k", {}), ("t", {}), ("s4", {}), ("s5", {}),
    ("church", {}), ("filters", {}), ("goedel", {}),
    ("goedel", {"quantifier": "possibilist"}),
    ("goedel", {"formulation": "goedel-1970"}),
    ("modal_math", {}), ("modal_math", {"extension": "infinity"}),
]


@pytest.mark.parametrize("bundle_id,params", BUNDLE_VARIANTS)
def test_traversal_laws_on_every_bundle_subterm(bundle_id, params):
    bundle = load_bundle(bundle_id, **params)
    roots = []
    for theory in (bundle.checked, bundle.theory):
        roots.extend(theory.axioms + theory.goals)
    for root in roots:
        for t in subterms(root):
            assert rebuild(t, children(t)) is t
            round_trip = shift(shift(t, 2), -2)
            assert round_trip == t
            assert str(round_trip) == str(t)  # binder name hints survive
            assert set(free_vars(shift(t, 1))) == {k + 1 for k in free_vars(t)}
            normal = beta_normalize(t)
            assert beta_normalize(normal) == normal


def test_base_types_hash_apart():
    # Type-keyed dicts (sizes, table views, lifted constants) must not make
    # their lookup cost depend on which base type was inserted first.
    import copy
    import pickle

    from homlkit.logictypes import Fun, Ind, Prop

    assert hash(Ind) != hash(Prop)
    assert Ind != Prop and Ind == Ind and Prop == Prop
    assert Fun(Ind, Prop) == Fun(Ind, Prop) != Fun(Prop, Ind)
    assert copy.deepcopy(Ind) is Ind and pickle.loads(pickle.dumps(Prop)) is Prop


def test_evaluated_terms_pickle_without_their_compiled_closures():
    # Grounding caches compiled closures on the terms, and closures do not
    # pickle; a grounded theory must still reach a worker process.
    import copy
    import pickle

    from homlkit.grounder import export_dimacs, ground
    from homlkit.semantics import Scope

    theory = load_bundle("goedel").theory
    dimacs = export_dimacs(ground(theory, Scope(1, 1), negated_goal=theory.goals[0]))
    assert "_codes" in theory.goals[0].__dict__
    back = pickle.loads(pickle.dumps(theory))
    assert back == theory and "_codes" not in back.goals[0].__dict__
    assert export_dimacs(ground(back, Scope(1, 1), negated_goal=back.goals[0])) == dimacs
    assert copy.deepcopy(theory.goals[0]) == theory.goals[0]
