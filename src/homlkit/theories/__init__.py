"""Bundled theories: frame logics, Church postulate lifts, modal filters,
the ontological theory, and modalised mathematics.

Each bundle ships as a theory-DSL text file plus a manifest entry recording
the expected verdicts (and the scopes they were recorded at)."""

from __future__ import annotations

import functools
import json
import os

from ..errors import BundleError, HomlError
from ..frozen import Frozen, replace
from ..grounder import check_validity_bounded, ground, refute
from ..semantics import Countermodel, Scope, ValidUpToScope, mvalid
from ..solver import DEFAULT_CONFLICT_BUDGET
from ..surface import elaborate, parse, typecheck
from ..theory import Theory

_DATA = os.path.join(os.path.dirname(__file__), "data")


def _data(filename: str) -> str:
    # A plain open, not importlib.resources: from Python 3.12 on, that
    # imports inspect.
    with open(os.path.join(_DATA, filename), encoding="utf-8") as handle:
        return handle.read()


@functools.cache
def _manifest() -> dict:
    return json.loads(_data("manifest.json"))


BUNDLE_IDS = tuple(_manifest())


class Bundle(Frozen):
    id: str
    variant: str
    theory: Theory  # elaborated: definitions inlined, sugar nodes kept
    checked: Theory  # type-checked, before elaboration (for printing)
    source: str
    goal_labels: tuple[str, ...]
    manifest: dict

    def goal(self, label: str):
        """Goal term by manifest label."""
        try:
            idx = self.goal_labels.index(label)
        except ValueError:
            raise BundleError(f"bundle {self.id!r} has no goal labelled {label!r}") from None
        return self.theory.goals[idx]


def resolve_variant(bundle_id: str, entry: dict, params: dict) -> str:
    """Map keyword parameters (e.g. quantifier=..., formulation=...) onto the
    manifest's variant key."""
    declared = entry.get("params")
    if not params:
        return entry["default_variant"]
    if declared is None:
        raise BundleError(f"bundle {bundle_id!r} takes no variant parameters")
    default_parts = entry["default_variant"].split(":")
    keys = list(declared)
    parts = []
    for pos, key in enumerate(keys):
        value = params.pop(key, default_parts[pos])
        if value not in declared[key]:
            raise BundleError(
                f"bundle {bundle_id!r}: parameter {key}={value!r} not in {declared[key]}"
            )
        parts.append(value)
    if params:
        raise BundleError(f"bundle {bundle_id!r}: unknown parameters {sorted(params)}")
    return ":".join(parts)


def load_bundle(bundle_id: str, **params) -> Bundle:
    """Load, parse, check, and elaborate a bundled theory.

    Variant parameters: goedel takes quantifier=actualist|possibilist and
    formulation=scott|goedel-1970; modal_math takes extension=core|infinity.

    A bundle is loaded once per process and variant, and shared: every call
    that names the same id and resolves to the same variant returns the same
    ``Bundle``, so ``load_bundle("goedel")`` is
    ``load_bundle("goedel", quantifier="actualist")``. Its terms are
    immutable, but its ``manifest`` is a plain dict shared by every caller,
    which must not change it. The id and the parameters are checked on every
    call; a call that raises stores nothing.
    """
    entry = _manifest().get(bundle_id)
    if entry is None:
        raise BundleError(f"unknown bundle id {bundle_id!r} (known: {', '.join(BUNDLE_IDS)})")
    return _load(bundle_id, resolve_variant(bundle_id, entry, dict(params)))


# One Bundle per (id, resolved variant), kept for the life of the process: the
# manifest names 13 files, so the cache needs no bound. Two threads may both
# load a variant; one result is kept.
@functools.cache
def _load(bundle_id: str, variant: str) -> Bundle:
    entry = _manifest()[bundle_id]
    filename = entry["files"].get(variant)
    if filename is None:
        raise BundleError(f"bundle {bundle_id!r} has no variant {variant!r}")
    source = _data(filename)
    try:
        checked = typecheck(parse(source, filename), filename)
        theory = elaborate(checked)
    except HomlError as exc:
        raise BundleError(f"bundle {bundle_id!r} failed its self-check: {exc}") from exc
    labels = tuple(entry.get("goal_labels", ()))
    if len(labels) != len(theory.goals):
        if variant == entry["default_variant"]:
            raise BundleError(f"bundle {bundle_id!r}: goal label count mismatch")
        labels = tuple(f"goal{i}" for i in range(len(theory.goals)))
    return Bundle(bundle_id, variant, theory, checked, source, labels, entry)


# ---------------------------------------------------------------------------
# Church postulate suite

class PostulateResult(Frozen):
    label: str
    scope: Scope
    expected: str  # "valid" or "countermodel"
    verdict: object
    as_expected: bool


def _footnote_shape_clauses(problem) -> list[list[int]]:
    """Unit clauses pinning the two-world countermodel reported for the
    non-trivial direction of Boolean extensionality: total accessibility,
    p false at both worlds, q true exactly at the second."""
    clauses = [[v] for row in problem.r_vars for v in row]
    p_cells = problem.const_cells["p"]
    q_cells = problem.const_cells["q"]
    clauses.extend([[-v] for v in p_cells])
    clauses.append([-q_cells[0]])
    clauses.append([q_cells[1]])
    return clauses


def check_church_postulates(scope: Scope,
                            budget: int = DEFAULT_CONFLICT_BUDGET) -> list[PostulateResult]:
    """Check every lifted postulate at the scope.

    At scopes with a single world every postulate is expected to hold; with
    more worlds the non-trivial direction of Boolean extensionality is
    expected to fail, and its reported countermodel is pinned to the
    two-world shape (total accessibility, antecedent propositions agreeing
    only at the evaluation world).
    """
    bundle = load_bundle("church")
    nontrivial = bundle.manifest["nontrivial_goal"]
    results = []
    for label, goal in zip(bundle.goal_labels, bundle.theory.goals):
        expect_fail = label == nontrivial and scope.num_worlds > 1
        if expect_fail:
            verdict = _canonical_bool_ext_countermodel(bundle.theory, goal, scope, budget)
        else:
            verdict = check_validity_bounded(bundle.theory, goal, scope, budget)
        expected = "countermodel" if expect_fail else "valid"
        as_expected = isinstance(verdict, Countermodel if expect_fail else ValidUpToScope)
        results.append(PostulateResult(label, scope, expected, verdict, as_expected))
    return results


def _canonical_bool_ext_countermodel(theory: Theory, goal, scope: Scope, budget: int):
    """Countermodel matching the two-world shape, found by constrained search
    and re-verified against the evaluator. At another world count, or with
    no shaped countermodel, the verdict on the unconstrained problem, which
    is grounded once for both searches."""
    problem = ground(theory, scope, negated_goal=goal)
    if scope.num_worlds == 2:
        shaped = replace(problem, clauses=problem.clauses + _footnote_shape_clauses(problem))
        verdict = refute(shaped, goal, budget)
        if isinstance(verdict, Countermodel):
            if not all(mvalid(verdict.model, ax) for ax in theory.axioms):
                raise BundleError("shaped countermodel fails an axiom")
            return verdict
    return refute(problem, goal, budget)
