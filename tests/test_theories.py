"""Bundled theories: loading, manifest reproduction, the Church suite."""

import pytest

from homlkit import theories
from homlkit.errors import BundleError
from homlkit.grounder import check_validity_bounded, find_model, ground
from homlkit.logictypes import Prop
from homlkit.semantics import Countermodel, Scope, ValidUpToScope, position_to_json
from homlkit.theories import BUNDLE_IDS, check_church_postulates, load_bundle
from reference import holds_at, mvalid


def test_load_all_bundles():
    for bundle_id in BUNDLE_IDS:
        bundle = load_bundle(bundle_id)
        assert bundle.theory.goals or bundle.theory.axioms or bundle.theory.signature


def test_unknown_bundle():
    with pytest.raises(BundleError):
        load_bundle("unknown")


def test_unknown_variant_parameter():
    with pytest.raises(BundleError):
        load_bundle("k", quantifier="actualist")
    with pytest.raises(BundleError):
        load_bundle("goedel", quantifier="nonsense")


def test_frame_flags_per_bundle():
    assert load_bundle("s5").theory.frame_flags == {"refl", "symm", "trans"}
    assert load_bundle("k").theory.frame_flags == frozenset()
    assert load_bundle("t").theory.frame_flags == {"refl"}
    assert load_bundle("s4").theory.frame_flags == {"refl", "trans"}


def _variant_theory(bundle_id, entry, variant_key):
    if variant_key == entry["default_variant"]:
        return load_bundle(bundle_id).theory
    params = entry.get("params", {})
    kwargs = dict(zip(params.keys(), variant_key.split(":")))
    return load_bundle(bundle_id, **kwargs).theory


@pytest.mark.parametrize("bundle_id", BUNDLE_IDS)
def test_manifest_verdicts_reproduced(bundle_id):
    bundle = load_bundle(bundle_id)
    entry = bundle.manifest
    labels = list(entry.get("goal_labels", []))
    for check in entry.get("checks", []):
        variant = check.get("variant", entry["default_variant"])
        theory = _variant_theory(bundle_id, entry, variant)
        goal = theory.goals[labels.index(check["goal"])]
        scope = Scope(*check["scope"])
        verdict = check_validity_bounded(theory, goal, scope)
        if check["expect"] == "valid":
            assert isinstance(verdict, ValidUpToScope), (check, type(verdict))
        else:
            assert isinstance(verdict, Countermodel), (check, type(verdict))
            assert not holds_at(verdict.model, goal, verdict.world)
            for ax in theory.axioms:
                assert mvalid(verdict.model, ax)
    for check in entry.get("models", []):
        variant = check.get("variant", entry["default_variant"])
        theory = _variant_theory(bundle_id, entry, variant)
        model = find_model(theory, Scope(*check["scope"]))
        if check["expect"] == "sat":
            assert model is not None, check
            assert all(mvalid(model, ax) for ax in theory.axioms)
            assert model.satisfies_frame(theory.frame_flags)
        else:
            assert model is None, check


def test_church_suite_two_worlds():
    results = check_church_postulates(Scope(2, 2))
    assert all(r.as_expected for r in results)
    by_label = {r.label: r for r in results}
    assert isinstance(by_label["bool_ext_nontrivial"].verdict, Countermodel)
    assert isinstance(by_label["fun_ext"].verdict, ValidUpToScope)


def test_church_suite_one_world_recovers_bool_ext():
    results = check_church_postulates(Scope(1, 2))
    assert all(r.as_expected for r in results)
    by_label = {r.label: r for r in results}
    assert isinstance(by_label["bool_ext_nontrivial"].verdict, ValidUpToScope)


def test_bool_ext_countermodel_matches_footnote_shape():
    results = check_church_postulates(Scope(2, 2))
    verdict = {r.label: r for r in results}["bool_ext_nontrivial"].verdict
    model, world = verdict.model, verdict.world
    n = model.scope.num_worlds
    assert n == 2
    # total accessibility
    assert all(model.accessibility[w][w2] for w in range(n) for w2 in range(n))
    p = position_to_json(model.positions["p"], Prop, model.scope)
    q = position_to_json(model.positions["q"], Prop, model.scope)
    assert p == [False, False]
    assert sum(q) == 1
    # evaluated where both are false
    assert p[world] is False and q[world] is False


def test_shaped_countermodel_search_leaves_ground_problem_unchanged(monkeypatch):
    grounded = []

    def recording_ground(*args, **kwargs):
        problem = ground(*args, **kwargs)
        grounded.append((problem, [list(clause) for clause in problem.clauses]))
        return problem

    monkeypatch.setattr(theories, "ground", recording_ground)
    results = check_church_postulates(Scope(2, 1))
    assert all(r.as_expected for r in results)
    [(problem, before)] = grounded
    assert problem.clauses == before


def test_goedel_1970_variants_unsatisfiable():
    for quantifier in ("actualist", "possibilist"):
        theory = load_bundle("goedel", quantifier=quantifier,
                             formulation="goedel-1970").theory
        for n, m in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            assert find_model(theory, Scope(n, m)) is None


def test_infinity_axiom_unsatisfiable_at_scopes():
    theory = load_bundle("modal_math", extension="infinity").theory
    for n, m in [(1, 1), (1, 2), (1, 3), (2, 2), (3, 2)]:
        assert find_model(theory, Scope(n, m)) is None


def test_goedel_smallest_scope_model():
    bundle = load_bundle("goedel")
    scope = Scope(*bundle.manifest["smallest_model_scope"])
    model = find_model(bundle.theory, scope)
    assert model is not None
    assert all(mvalid(model, ax) for ax in bundle.theory.axioms)
